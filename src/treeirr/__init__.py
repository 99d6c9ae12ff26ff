"""Exact irregularity indices on trees.

Everything is integer arithmetic: tree invariants (Albertson irregularity,
total irregularity, sigma, both Zagreb indices), exhaustive enumeration of
unlabeled trees and of degree-sequence realizations, literal evaluators for
a catalog of closed-form degree-sequence expressions, and a claim verifier
that checks each documented statement against brute-force oracles.
"""

from .tree import (
    Tree,
    TreeError,
    canonical_code,
    degrees,
    is_caterpillar,
    strong_support_vertices,
)
from .indices import (
    IndexBundle,
    compute_indices,
    total_irregularity_by_sequence,
)
from .degseq import (
    DegreeSequence,
    NotTreeGraphical,
    caterpillar,
    path,
    prufer_decode,
    prufer_encode,
    star,
    validate_tree_sequence,
)
from .enumeration import (
    EnumerationGuard,
    all_trees,
    tree_degree_sequences,
    trees_with_degree_sequence,
)
from .formulas import FormulaDomainError, FormulaError, FormulaResult, evaluate_formula
from ._kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "Tree",
    "TreeError",
    "canonical_code",
    "degrees",
    "is_caterpillar",
    "strong_support_vertices",
    "IndexBundle",
    "compute_indices",
    "total_irregularity_by_sequence",
    "DegreeSequence",
    "NotTreeGraphical",
    "caterpillar",
    "path",
    "prufer_decode",
    "prufer_encode",
    "star",
    "validate_tree_sequence",
    "EnumerationGuard",
    "all_trees",
    "tree_degree_sequences",
    "trees_with_degree_sequence",
    "FormulaDomainError",
    "FormulaError",
    "FormulaResult",
    "evaluate_formula",
    "KERNEL_BACKEND",
    "__version__",
]
