import pytest
from hypothesis import given, settings, strategies as st

from treeirr import (
    Tree,
    all_trees,
    compute_indices,
    path,
    prufer_decode,
    star,
    total_irregularity_by_sequence,
)
from treeirr.claims import load_fig2_tree

from _brute import brute_indices


def _assert_matches_definition(t):
    got = compute_indices(t)
    want = brute_indices(t.n, t.edges)
    assert (got.irr, got.irr_t, got.sigma, got.m1, got.m2) == (
        want["irr"],
        want["irr_T"],
        want["sigma"],
        want["m1"],
        want["m2"],
    )


def _broom(handle, bristles):
    # A path on `handle` vertices with `bristles` leaves at its last vertex.
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return Tree(handle + bristles, edges)


def _double_star(a, b):
    # Adjacent centers 0 and 1 carrying a and b leaves.
    edges = [(0, 1)] + [(0, 2 + j) for j in range(a)] + [(1, 2 + a + j) for j in range(b)]
    return Tree(a + b + 2, edges)


class TestComputeIndices:
    def test_path4(self):
        b = compute_indices(path(4))
        assert (b.irr, b.irr_t, b.sigma, b.m1, b.m2) == (2, 4, 2, 10, 8)

    def test_star4(self):
        b = compute_indices(star(4))
        assert (b.irr, b.irr_t, b.sigma, b.m1, b.m2) == (12, 12, 36, 20, 16)

    def test_star_law(self):
        for k in (3, 7, 20):
            assert compute_indices(star(k)).irr == k * (k - 1)

    def test_fixture_tree(self):
        b = compute_indices(load_fig2_tree())
        assert b.irr == 20
        assert b.sigma == 54

    def test_single_vertex_zero(self):
        b = compute_indices(Tree(1, []))
        assert (b.irr, b.irr_t, b.sigma, b.m1, b.m2) == (0, 0, 0, 0, 0)

    def test_single_edge_regular(self):
        b = compute_indices(path(2))
        assert (b.irr, b.irr_t, b.sigma) == (0, 0, 0)

    def test_against_definition_oracle(self):
        for n in range(1, 9):
            for t in all_trees(n):
                _assert_matches_definition(t)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_prufer_trees_against_definition(self, data):
        # Large orders, where the degree classes of irr_T hold many vertices.
        n = data.draw(st.integers(2, 400))
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        _assert_matches_definition(prufer_decode(code, n))

    @pytest.mark.parametrize("n", [5, 6, 9, 17, 64, 151, 400])
    def test_families_against_definition(self, n):
        # Stars and paths put all but a few vertices in one degree class;
        # brooms and double stars split them between one or two hubs.
        _assert_matches_definition(star(n - 1))
        _assert_matches_definition(path(n))
        for k in (2, n // 2, n - 2):
            _assert_matches_definition(_broom(n - k, k))
        for a in (1, (n - 2) // 2, n - 3):
            _assert_matches_definition(_double_star(a, n - 2 - a))

    def test_sandwich_inequalities(self):
        for n in range(1, 9):
            for t in all_trees(n):
                b = compute_indices(t)
                assert b.sigma <= b.irr ** 2 <= (n - 1) * b.sigma or n == 1

    def test_total_at_least_edge_version(self):
        for n in range(1, 9):
            for t in all_trees(n):
                b = compute_indices(t)
                assert b.irr_t >= b.irr


class TestTotalIrregularityBySequence:
    def test_star3(self):
        assert total_irregularity_by_sequence(star(3)) == 6

    def test_path3(self):
        assert total_irregularity_by_sequence(path(3)) == 2

    def test_single_edge(self):
        assert total_irregularity_by_sequence(path(2)) == 0

    def test_matches_pairwise_definition(self):
        for n in range(1, 8):
            for t in all_trees(n):
                assert total_irregularity_by_sequence(t) == compute_indices(t).irr_t

