"""The kernels' order guards, the level-sequence code, and the backend name."""

import pytest

import treeirr
from treeirr import _kernels
from treeirr.claims import ReportConfig, run_report

from _brute import levels_to_edges


def test_backend_is_python():
    assert treeirr.KERNEL_BACKEND == _kernels.BACKEND == "python"
    report = run_report(ReportConfig(claim_ids=("table1",)))
    assert report.metadata["kernel_backend"] == "python"


@pytest.mark.parametrize(
    "call",
    [
        lambda: _kernels.level_sequences(0),
        lambda: _kernels.level_code(()),
        lambda: _kernels.canon_code(0, []),
        lambda: _kernels.index_bundle(0, []),
    ],
    ids=["level_sequences", "level_code", "canon_code", "index_bundle"],
)
def test_order_guards(call):
    with pytest.raises(ValueError, match="order must be >= 1"):
        call()


@pytest.mark.parametrize("n", range(1, 16))
def test_level_code_matches_canon_code(n):
    # The stack-pass code of a layout against the center-search code of
    # the tree it encodes, on every free tree of the order, from both the
    # tuple the generator yields and the bytes all_trees keeps.
    for seq in _kernels.level_sequences(n):
        want = _kernels.canon_code(n, levels_to_edges(seq))
        assert _kernels.level_code(seq) == want
        assert _kernels.level_code(bytes(seq)) == want
        assert _kernels.level_code(_siblings_reversed(seq)) == want


def _siblings_reversed(levels):
    # The same center-rooted tree laid out with every vertex's children in
    # reverse order: the generator's layouts list siblings in code order,
    # so this makes level_code do its own sorting.
    kids = [[] for _ in levels]
    for parent, child in levels_to_edges(levels):
        kids[parent].append(child)
    out = []
    stack = [0]
    while stack:
        v = stack.pop()
        out.append(levels[v])
        stack.extend(kids[v])
    return tuple(out)
