"""The kernels' order guards, the row generator, the canonical codes, and the backend name."""

import pytest
from hypothesis import given, settings, strategies as st

import treeirr
from treeirr import _kernels, prufer_decode
from treeirr.claims import ReportConfig, run_report

from _brute import (
    _degrees_parents,
    centers,
    edge_rooted_code,
    farthest,
    level_sequences,
    levels_to_edges,
    unlabeled_tree_count,
)

# OEIS A000055: free trees on n = 1..16 vertices.
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)


def test_backend_is_python():
    assert treeirr.KERNEL_BACKEND == _kernels.BACKEND == "python"
    report = run_report(ReportConfig(claim_ids=("table1",)))
    assert report.metadata["kernel_backend"] == "python"


@pytest.mark.parametrize(
    "call",
    [
        lambda: _kernels.order_rows(0),
        lambda: _kernels.level_sequences(0),
        lambda: _kernels.level_code(()),
        lambda: _kernels.canon_code(0, []),
        lambda: _kernels.index_bundle(0, []),
    ],
    ids=["order_rows", "level_sequences", "level_code", "canon_code", "index_bundle"],
)
def test_order_guards(call):
    with pytest.raises(ValueError, match="order must be >= 1"):
        call()


@pytest.mark.parametrize("n", range(1, 17))
def test_order_rows_match_brute_generator(n):
    # Byte for byte and in order: the rows order_rows steps to, against the
    # brute generator's whole layouts read through the brute reader, and
    # the level sequences read back off the rows.
    layouts = level_sequences(n)
    assert len(layouts) == A000055[n - 1] == unlabeled_tree_count(n)
    rows = [_degrees_parents(levels) for levels in layouts]
    degs, parents = _kernels.order_rows(n)
    assert type(degs) is bytes and type(parents) is bytes
    assert degs == b"".join(bytes(deg) for deg, _ in rows)
    assert parents == b"".join(bytes(parent) for _, parent in rows)
    assert _kernels.level_sequences(n) == layouts


@pytest.mark.parametrize("n", range(1, 16))
def test_level_code_matches_canon_code(n):
    # The stack-pass code of a layout, and canon_code of its edges, against
    # the edge-rooted oracle, on every free tree of the order, from both
    # the tuple the generator yields and the bytes all_trees keeps.
    for seq in _kernels.level_sequences(n):
        edges = levels_to_edges(seq)
        want = edge_rooted_code(n, edges)
        assert _kernels.canon_code(n, edges) == want
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


@st.composite
def relabeled_trees(draw):
    # A random Prüfer tree, grown by one leaf at an end of a longest path
    # when that gives the drawn number of centers, then relabeled.
    want_centers = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(2, 199))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    edges = list(prufer_decode(code, n).edges)
    if len(centers(n, edges)) != want_centers:
        end = farthest(n, edges, farthest(n, edges, 0))
        edges.append((end, n))
        n += 1
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in edges]
    return n, edges, want_centers


@settings(max_examples=150, deadline=None)
@given(relabeled_trees())
def test_canon_code_matches_edge_rooted_code(tree):
    # Both center counts, on trees whose labels say nothing of the layout.
    n, edges, want_centers = tree
    assert len(centers(n, edges)) == want_centers
    assert _kernels.canon_code(n, edges) == edge_rooted_code(n, edges)
