import treeirr

# The public surface of the package. Growing or shrinking it is a
# deliberate change: edit this list in the same commit.
PUBLIC_API = {
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
}


def test_all_is_pinned():
    assert len(treeirr.__all__) == len(set(treeirr.__all__))
    assert set(treeirr.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in treeirr.__all__:
        assert hasattr(treeirr, name), name
