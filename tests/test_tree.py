import random

import pytest
from hypothesis import given, settings, strategies as st

from treeirr import (
    Tree,
    TreeError,
    canonical_code,
    caterpillar,
    compute_indices,
    degrees,
    is_caterpillar,
    prufer_decode,
    strong_support_vertices,
    all_trees,
    path,
    star,
)
from treeirr import _kernels
from treeirr.claims import TreeClass, load_fig2_tree
from treeirr.edgelist import parse_edge_list
from treeirr.enumeration import _parent_tree, trees_with_degree_sequence

from _brute import _degrees_parents, brute_isomorphic, class_trees, levels_to_edges


def relabeled(t, perm):
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


class TestTreeValidation:
    def test_path_smoke(self):
        t = path(4)
        assert t.n == 4
        assert t.edges == ((0, 1), (1, 2), (2, 3))
        assert t.adjacency[1] == (0, 2)

    def test_single_vertex(self):
        assert Tree(1, []).n == 1

    def test_edge_count_enforced(self):
        with pytest.raises(TreeError, match="needs 3 edges"):
            Tree(4, [(0, 1), (1, 2)])

    def test_self_loop(self):
        with pytest.raises(TreeError, match="self-loop"):
            Tree(2, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(TreeError, match="duplicate"):
            Tree(3, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(TreeError, match="out of range"):
            Tree(3, [(0, 1), (1, 3)])

    def test_disconnected_cycle_plus_isolated(self):
        with pytest.raises(TreeError, match="disconnected"):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_equality_is_labeled(self):
        assert path(3) == Tree(3, [(1, 2), (0, 1)])
        assert path(3) != Tree(3, [(0, 1), (0, 2)])

    def test_degree_sum(self):
        for n in range(1, 9):
            for t in all_trees(n):
                assert sum(degrees(t)) == 2 * (n - 1)


def assert_built_from_levels(levels):
    # enumeration._parent_tree skips validation; built from the parents
    # _degrees_parents reads off the layout, as a list and as bytes, it
    # must give the tree of the stack-scan oracle's edges, rebuilt by the
    # validating constructor.
    n = len(levels)
    want = Tree(n, levels_to_edges(levels))
    _, parent = _degrees_parents(levels)
    assert _parent_tree(parent) == _parent_tree(bytes(parent))
    got = _parent_tree(bytes(parent))
    assert got.n == n
    assert got.edges == want.edges
    assert got.adjacency == want.adjacency
    assert got == want
    assert hash(got) == hash(want)
    assert got._code is None


class TestFromLevels:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_every_layout(self, n):
        for seq in _kernels.level_sequences(n):
            assert_built_from_levels(tuple(seq))
            assert_built_from_levels(bytes(seq))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 200), max_size=199))
    def test_random_layouts(self, picks):
        # Any preorder layout of order 1-200, canonical or not:
        # levels[0] == 0 and 1 <= levels[i] <= levels[i - 1] + 1. Every
        # pick above levels[i - 1] goes one level deeper, so deep paths
        # are common.
        levels = [0]
        for x in picks:
            levels.append(min(x, levels[-1] + 1))
        assert_built_from_levels(tuple(levels))
        assert_built_from_levels(bytes(levels))


def adjacency_built(t):
    return t._adj is not None


def assert_lazy_adjacency(t):
    # An edge-pair builder's tree carries its edges alone. Equality and
    # hashing never build the adjacency; the first read gives what the
    # validating constructor builds, and later reads give the same tuple.
    want = Tree(t.n, t.edges)
    assert adjacency_built(want)
    assert not adjacency_built(t)
    assert t == want and hash(t) == hash(want) == hash((t.n, t.edges))
    assert not adjacency_built(t)
    assert t.adjacency == want.adjacency
    assert adjacency_built(t)
    assert t.adjacency is t.adjacency
    assert t == want and hash(t) == hash(want)


class TestLazyAdjacency:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_edge_pair_builders(self, data):
        n = data.draw(st.integers(2, 200))
        rng = data.draw(st.randoms(use_true_random=True))
        t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        assert_lazy_adjacency(t)
        # The same tree relabeled, as a document with sparse labels.
        labels = rng.sample(range(3 * n), n)
        lines = [f"{labels[u]} {labels[v]}" for u, v in t.edges]
        rng.shuffle(lines)
        parsed = parse_edge_list("\n".join(lines))
        assert compute_indices(parsed.tree) == compute_indices(t)
        canonical_code(parsed.tree)
        assert_lazy_adjacency(parsed.tree)
        assert_lazy_adjacency(star(n - 1))
        assert_lazy_adjacency(path(n))
        k = data.draw(st.integers(1, 8))
        assert_lazy_adjacency(
            caterpillar([rng.randint(1 if i in (0, k - 1) else 2, 6) for i in range(k)])
        )

    def test_eager_builders(self):
        # The validating constructor builds the adjacency for its
        # connectivity check, and the parent decoder hands it over with the
        # edges.
        for t in [Tree(3, [(0, 1), (1, 2)]), _parent_tree((0, 0, 0)), *all_trees(7)]:
            assert adjacency_built(t)

    def test_every_builder_returns_a_tree(self):
        built = [
            Tree(3, [(0, 1), (1, 2)]),
            Tree._unchecked(3, [(0, 1), (1, 2)]),
            _parent_tree((0, 0, 0)),
            *all_trees(5),
            *class_trees(TreeClass(6, delta=3)),
            *trees_with_degree_sequence((3, 2, 2, 1, 1, 1)),
            prufer_decode([0, 0], 4),
            star(3),
            path(4),
            caterpillar([2, 3]),
            parse_edge_list("5 7\n7 9").tree,
            load_fig2_tree(),
        ]
        assert all(type(t) is Tree for t in built)

    def test_unchecked_sorts_the_list_it_owns(self):
        edges = [(2, 3), (0, 1), (1, 2)]
        t = Tree._unchecked(4, edges)
        assert edges == [(0, 1), (1, 2), (2, 3)]
        assert t.edges == tuple(edges)
        assert_lazy_adjacency(t)

    def test_other_missing_attributes_still_raise(self):
        t = path(3)
        with pytest.raises(AttributeError):
            t.adjacent
        assert not hasattr(t, "leaves")
        assert not adjacency_built(t)
        with pytest.raises(AttributeError):
            t.adjacency = ((1,), (0, 2), (1,))
        assert not adjacency_built(t)


class TestDegrees:
    def test_path4(self):
        assert degrees(path(4)) == (1, 2, 2, 1)

    def test_star4(self):
        assert degrees(star(4)) == (4, 1, 1, 1, 1)

    def test_fixture_tree(self):
        # Drawn adjacency: labeled vertices come out at (4,1,1,3,4).
        assert degrees(load_fig2_tree())[:5] == (4, 1, 1, 3, 4)


class TestStrongSupport:
    def test_path3_center(self):
        assert strong_support_vertices(path(3)) == {1}

    def test_path5_empty(self):
        assert strong_support_vertices(path(5)) == frozenset()
        assert strong_support_vertices(path(1), min_leaves=1) == frozenset()

    def test_fixture(self):
        assert strong_support_vertices(load_fig2_tree()) == {0, 3, 4}

    def test_single_leaf_reading(self):
        # Mode flag: every support vertex qualifies under min_leaves=1.
        assert strong_support_vertices(path(5), min_leaves=1) == {1, 3}

    def test_subset_of_internal(self):
        for n in range(3, 9):
            for t in all_trees(n):
                assert all(len(t.adjacency[v]) >= 2 for v in strong_support_vertices(t))


class TestCanonicalCode:
    def test_relabel_invariance_path(self):
        t = path(4)
        assert canonical_code(t) == canonical_code(relabeled(t, [2, 0, 3, 1]))

    def test_path_star_distinct(self):
        assert canonical_code(path(4)) != canonical_code(star(3))

    def test_three_five_vertex_classes(self):
        spider = Tree(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
        codes = {canonical_code(t) for t in (path(5), star(4), spider)}
        assert len(codes) == 3
        assert not brute_isomorphic(5, path(5).edges, spider.edges)
        assert not brute_isomorphic(5, star(4).edges, spider.edges)

    def test_code_shape(self):
        for n in range(1, 8):
            for t in all_trees(n):
                code = canonical_code(t)
                assert len(code) == 2 * n
                assert code.count(b"(") == code.count(b")") == n

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relabel_invariance_random(self, data):
        n = data.draw(st.integers(2, 9))
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        from treeirr import prufer_decode

        t = prufer_decode(code, n)
        perm = data.draw(st.permutations(range(n)))
        assert canonical_code(t) == canonical_code(relabeled(t, list(perm)))


class TestIsomorphism:
    def test_broom_vs_spider_same_degrees(self):
        broom = Tree(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        spider = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert sorted(degrees(broom)) == sorted(degrees(spider))
        assert canonical_code(broom) != canonical_code(spider)
        assert not brute_isomorphic(6, broom.edges, spider.edges)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_agrees_with_permutation_search(self, n):
        reps = list(all_trees(n))
        rng = random.Random(n)
        for i, a in enumerate(reps):
            for b in reps[i:]:
                expected = brute_isomorphic(n, a.edges, b.edges)
                assert (canonical_code(a) == canonical_code(b)) == expected
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(a) == canonical_code(relabeled(a, perm))


class TestCaterpillar:
    def test_paths_and_stars(self):
        assert is_caterpillar(path(7))
        assert is_caterpillar(star(5))
        assert is_caterpillar(path(2))
        assert is_caterpillar(path(1))

    def test_spider_is_not(self):
        # Three legs of length two meeting at a hub.
        t = Tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert not is_caterpillar(t)

    def test_matches_leaf_removal_definition(self):
        for n in range(2, 10):
            for t in all_trees(n):
                deg = degrees(t)
                internal = [v for v in range(t.n) if deg[v] >= 2]
                spine_degs = [sum(1 for w in t.adjacency[v] if deg[w] >= 2) for v in internal]
                expected = all(d <= 2 for d in spine_degs)
                assert is_caterpillar(t) == expected

    def test_counts_match_closed_form(self):
        # Caterpillars on n >= 4 vertices number 2^(n-4) + 2^(floor(n/2)-2).
        for n in range(4, 13):
            got = sum(1 for t in all_trees(n) if is_caterpillar(t))
            assert got == 2 ** (n - 4) + 2 ** (n // 2 - 2)
