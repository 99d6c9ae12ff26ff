import subprocess
import sys
from pathlib import Path

import pytest

import treeirr
from treeirr import DegreeSequence, FormulaResult, IndexBundle, Tree
from treeirr.claims import (
    Claim,
    ClaimReport,
    ClaimResult,
    ExtremalResult,
    PermSearchResult,
    ReportConfig,
    Table1Row,
    TreeClass,
)
from treeirr.edgelist import ParsedTree

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


def _modules_after(imports: str) -> set[str]:
    # The modules a fresh interpreter holds after running ``imports``.
    src = str(Path(treeirr.__file__).resolve().parents[1])
    code = f"import sys\nsys.path.insert(0, {src!r})\n{imports}\nprint(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_import_loads_no_introspection_modules():
    # Every CLI run pays for the package import; dataclasses alone used to
    # pull in inspect, ast, dis and tokenize. Compared against a bare
    # interpreter, so whatever ``site`` preloads does not count.
    added = _modules_after("import treeirr, treeirr.claims, treeirr.cli") - _modules_after("")
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


_RESULT = dict(
    claim_id="table1",
    params={"rows": 2},
    verdict="holds",
    checked=2,
    violations=0,
    witnesses=(),
    notes=("n",),
)
_RESULT_TEXT = (
    "ClaimResult(claim_id='table1', params={'rows': 2}, verdict='holds', checked=2, "
    "violations=0, witnesses=(), notes=('n',), wall_time=0.0)"
)
_CONFIG_TEXT = "ReportConfig(claim_ids=None, n_max={}, witness_cap=25, deterministic=True, jobs=1)"

# (record, keyword fields, repr, hashable). Each repr is the text the
# records printed as dataclasses; fields left out pin their defaults.
RECORDS = [
    (
        IndexBundle,
        dict(irr=1, irr_t=2, sigma=3, m1=4, m2=5),
        "IndexBundle(irr=1, irr_t=2, sigma=3, m1=4, m2=5)",
        True,
    ),
    (DegreeSequence, dict(values=(3, 1, 1, 1)), "DegreeSequence(values=(3, 1, 1, 1))", True),
    (
        FormulaResult,
        dict(formula_id="hyp_four", inputs=(4, 3, 2, 1), value=7),
        "FormulaResult(formula_id='hyp_four', inputs=(4, 3, 2, 1), value=7, secondary=None, notes=())",
        True,
    ),
    (
        ParsedTree,
        dict(tree=Tree(2, [(0, 1)]), labels=(5, 9)),
        "ParsedTree(tree=Tree(n=2, edges=[(0, 1)]), labels=(5, 9))",
        True,
    ),
    (
        Claim,
        dict(claim_id="c", statement="s", parameter_space="p", oracle_kind="arithmetic"),
        "Claim(claim_id='c', statement='s', parameter_space='p', oracle_kind='arithmetic')",
        True,
    ),
    (ClaimResult, _RESULT, _RESULT_TEXT, False),
    (
        TreeClass,
        dict(n=6),
        "TreeClass(n=6, delta=None, degree_sequence=None, caterpillar_only=False)",
        True,
    ),
    (
        ExtremalResult,
        dict(
            class_description="n=3",
            index="irr",
            objective="max",
            value=2,
            witnesses=(("(())", "0-1 0-2"),),
        ),
        "ExtremalResult(class_description='n=3', index='irr', objective='max', value=2, "
        "witnesses=(('(())', '0-1 0-2'),))",
        True,
    ),
    (
        PermSearchResult,
        dict(
            base=(2, 3),
            interpretation="formula",
            evaluations=(((2, 3), 1), ((3, 2), 1)),
            max_value=1,
            min_value=1,
            argmax=((2, 3), (3, 2)),
            argmin=((2, 3), (3, 2)),
            reference=None,
            matches_reference_max=None,
            matches_reference_min=None,
        ),
        "PermSearchResult(base=(2, 3), interpretation='formula', evaluations=(((2, 3), 1), "
        "((3, 2), 1)), max_value=1, min_value=1, argmax=((2, 3), (3, 2)), argmin=((2, 3), "
        "(3, 2)), reference=None, matches_reference_max=None, matches_reference_min=None)",
        True,
    ),
    (ReportConfig, dict(), _CONFIG_TEXT.format(None), True),
    (
        ClaimReport,
        dict(
            results=(ClaimResult(**_RESULT),),
            errors=(("x", "boom"),),
            config=ReportConfig(n_max=8),
            metadata={"python": "3"},
        ),
        f"ClaimReport(results=({_RESULT_TEXT},), errors=(('x', 'boom'),), "
        f"config={_CONFIG_TEXT.format(8)}, metadata={{'python': '3'}})",
        False,
    ),
    (
        Table1Row,
        dict(seq=(4, 3, 2, 1), irr_max=9, irr_min=7, diff=2),
        "Table1Row(seq=(4, 3, 2, 1), irr_max=9, irr_min=7, diff=2)",
        True,
    ),
]


@pytest.mark.parametrize(
    "record, fields, text, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(record, fields, text, hashable):
    value = record(**fields)
    assert repr(value) == text
    twin = record(**fields)
    assert value == twin
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # A named tuple is its fields, in order.
    assert value == tuple(getattr(value, name) for name in record._fields)
