from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from treeirr import (
    EnumerationGuard,
    Tree,
    all_trees,
    canonical_code,
    degrees,
    path,
    prufer_decode,
    star,
    tree_degree_sequences,
    trees_with_degree_sequence,
    validate_tree_sequence,
)
from treeirr import _kernels, enumeration
from treeirr.enumeration import realization_count

from _brute import (
    brute_canonical,
    edge_rooted_code,
    relocate_leaf,
    spanning_trees,
    tree_graphical,
    unlabeled_tree_count,
)


@pytest.fixture
def cold_orders():
    # all_trees keeps each order's canonical order for the process, and the
    # filtering claims its degree/parent table; start and end empty so that
    # test order cannot decide which path runs.
    enumeration._CANONICAL_ORDERS.clear()
    enumeration._DEGREES_PARENTS.clear()
    yield
    enumeration._CANONICAL_ORDERS.clear()
    enumeration._DEGREES_PARENTS.clear()


@pytest.fixture
def counted_readers(monkeypatch):
    # Calls of the degree/parent reader and of the adjacency builder that a
    # tree runs when no builder handed its adjacency over.
    from treeirr import tree

    calls = []
    reader, builder = enumeration._degrees_parents, tree._sorted_adjacency

    def counted_reader(levels):
        calls.append("_degrees_parents")
        return reader(levels)

    def counted_builder(n, edges):
        calls.append("_sorted_adjacency")
        return builder(n, edges)

    monkeypatch.setattr(enumeration, "_degrees_parents", counted_reader)
    monkeypatch.setattr(tree, "_sorted_adjacency", counted_builder)
    return calls


class TestAllTrees:
    def test_tiny_orders(self):
        assert len(list(all_trees(1))) == 1
        assert len(list(all_trees(4))) == 2
        assert len(list(all_trees(7))) == 11

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_match_recurrence(self, n):
        assert len(list(all_trees(n))) == unlabeled_tree_count(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_networkx_oracle(self, n, cold_orders):
        # A third, unrelated enumerator, on the first call of the order.
        assert_networkx_trees(n, list(all_trees(n)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_networkx_oracle_warm(self, n, cold_orders):
        # The same oracle on a later call, rebuilt from the kept order.
        list(all_trees(n))
        assert n in enumeration._CANONICAL_ORDERS
        assert_networkx_trees(n, list(all_trees(n)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_warm_call_repeats_cold_call(self, n, cold_orders):
        cold = list(all_trees(n))
        blob = enumeration._CANONICAL_ORDERS[n]
        assert len(blob) == n * len(cold)
        warm = list(all_trees(n))
        assert [t.edges for t in warm] == [t.edges for t in cold]
        assert all(t._code is None for t in warm)
        assert [canonical_code(t) for t in warm] == [canonical_code(t) for t in cold]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cold_call_presets_codes(self, n, cold_orders):
        # The first call codes level sequences, not trees: each tree's
        # preset code must be the one the edge-rooted oracle gives its edges.
        trees = list(all_trees(n))
        for t in trees:
            assert t._code is not None
            assert t._code == edge_rooted_code(n, t.edges)
        if n <= 7:
            # Equal codes iff brute-force isomorphic, over every tree and a
            # relabeled copy of it.
            perm = list(range(n))[::-1]
            seen = {}
            for t in trees:
                copy = Tree(n, [(perm[u], perm[v]) for u, v in t.edges])
                for s in (t, copy):
                    brute = brute_canonical(n, s.edges)
                    assert seen.setdefault(canonical_code(s), brute) == brute
            assert len(set(seen.values())) == len(seen) == len(trees)

    def test_partial_first_call_keeps_the_whole_order(self, cold_orders):
        # The order is kept before the first tree is yielded, so a caller
        # that stops early still leaves all of it.
        first = next(all_trees(9))
        assert len(enumeration._CANONICAL_ORDERS[9]) == 9 * unlabeled_tree_count(9)
        assert next(all_trees(9)) == first

    def test_no_duplicates_and_sorted_emission(self):
        for n in range(1, 11):
            codes = [canonical_code(t) for t in all_trees(n)]
            assert codes == sorted(codes)
            assert len(codes) == len(set(codes))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_edge_subset_enumeration(self, n):
        # Third, fully independent route: all labeled trees from edge
        # subsets, collapsed by brute-force relabeling.
        classes = {brute_canonical(n, t) for t in spanning_trees(n)}
        assert len(list(all_trees(n))) == len(classes)

    def test_guard(self):
        with pytest.raises(EnumerationGuard):
            list(all_trees(0))
        with pytest.raises(EnumerationGuard):
            list(all_trees(17))
        for n in (0, 17):
            with pytest.raises(EnumerationGuard):
                list(tree_degree_sequences(n))


def assert_degrees_parents(levels):
    # The one-pass reader against the tree _level_tree builds: a parent id
    # is below its child and adjacency lists are sorted, so a non-root
    # vertex's parent is its first neighbour.
    deg, parent = enumeration._degrees_parents(levels)
    t = enumeration._level_tree(levels)
    assert tuple(deg) == degrees(t)
    assert parent[0] == -1
    assert parent[1:] == [t.adjacency[i][0] for i in range(1, t.n)]


class TestLevelReader:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_every_layout(self, n):
        for seq in _kernels.level_sequences(n):
            assert_degrees_parents(bytes(seq))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 200), max_size=199))
    def test_random_layouts(self, picks):
        # Any preorder layout of order 1-200, as in test_tree.TestFromLevels.
        levels = [0]
        for x in picks:
            levels.append(min(x, levels[-1] + 1))
        assert_degrees_parents(tuple(levels))
        assert_degrees_parents(bytes(levels))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_reader_is_all_trees(self, n, cold_orders):
        # Cold and warm, the reader yields all_trees(n)'s slices: codes on
        # the generating call, none later.
        cold = list(enumeration._canonical_levels(n))
        assert [enumeration._level_tree(levels) for _, levels in cold] == list(all_trees(n))
        assert [code for code, _ in cold] == [canonical_code(t) for t in all_trees(n)]
        warm = list(enumeration._canonical_levels(n))
        assert [levels for _, levels in warm] == [levels for _, levels in cold]
        assert all(code is None for code, _ in warm)

    def test_guard(self):
        for n in (0, 17):
            with pytest.raises(EnumerationGuard):
                enumeration._canonical_levels(n)
            with pytest.raises(EnumerationGuard):
                next(enumeration._canonical_table(n))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_table_is_degrees_parents(self, n, cold_orders, counted_readers):
        # The table's first call reads every tree of the order once, keeps
        # the whole table before it yields, and later calls read it alone.
        levels_rows = list(enumeration._canonical_levels(n))
        first = next(enumeration._canonical_table(n))
        assert counted_readers == ["_degrees_parents"] * len(levels_rows)
        degs, parents = enumeration._DEGREES_PARENTS[n]
        assert len(degs) == len(parents) == n * len(levels_rows)
        rows = list(enumeration._canonical_table(n))
        assert len(counted_readers) == len(levels_rows)
        assert rows[0] == first
        assert [levels for levels, _, _ in rows] == [levels for _, levels in levels_rows]
        for (_, levels), (_, deg, parent) in zip(levels_rows, rows):
            want_deg, want_parent = enumeration._degrees_parents(levels)
            assert type(deg) is bytes and type(parent) is bytes
            assert list(deg) == want_deg
            assert list(parent) == [0] + want_parent[1:]


class TestEnumeratePath:
    @pytest.mark.parametrize("n", [1, 2, 9, 12])
    def test_no_table_and_no_lazy_adjacency(self, n, cold_orders, counted_readers, capsys):
        # Cold and warm, all_trees and enumerate --json neither fill the
        # degree/parent table nor read it, and every tree's adjacency,
        # which the records read, is the one _level_tree built.
        from treeirr.cli import main

        for _ in ("cold", "warm"):
            trees = list(all_trees(n))
            assert all(type(t) is Tree for t in trees)
            assert [degrees(t) for t in trees]
        enumeration._CANONICAL_ORDERS.clear()
        for _ in ("cold", "warm"):
            assert main(["enumerate", "--n", str(n), "--json"]) == 0
            assert len(capsys.readouterr().out) > 0
        assert n in enumeration._CANONICAL_ORDERS
        assert enumeration._DEGREES_PARENTS == {}
        assert counted_readers == []
        # The counters do see the reader and the lazy adjacency when they run.
        next(enumeration._canonical_table(n))
        prufer_decode([], 2).adjacency
        assert counted_readers[-1] == "_sorted_adjacency"
        assert counted_readers[:-1] == ["_degrees_parents"] * len(trees)


class TestDegreeSequences:
    def test_order_four(self):
        values = [seq.values for seq in tree_degree_sequences(4)]
        assert values == [(3, 1, 1, 1), (2, 2, 1, 1)]

    def test_all_tree_graphical(self):
        for n in range(1, 10):
            for seq in tree_degree_sequences(n):
                assert tree_graphical(seq.values)

    def test_covers_every_tree(self):
        for n in range(2, 9):
            wanted = {tuple(sorted(degrees(t), reverse=True)) for t in all_trees(n)}
            produced = {seq.values for seq in tree_degree_sequences(n)}
            assert wanted == produced


class TestRealization:
    def test_star_sequence_unique(self):
        found = list(trees_with_degree_sequence(validate_tree_sequence((3, 1, 1, 1))))
        assert len(found) == 1
        assert canonical_code(found[0]) == canonical_code(star(3))

    def test_path_sequence_unique(self):
        found = list(trees_with_degree_sequence((2, 2, 1, 1)))
        assert len(found) == 1
        assert canonical_code(found[0]) == canonical_code(path(4))

    def test_broom_spider_sequence(self):
        found = list(trees_with_degree_sequence((3, 2, 2, 1, 1, 1)))
        assert len(found) == 2
        want = {
            brute_canonical(6, t)
            for t in spanning_trees(6)
            if sorted(Counter(v for e in t for v in e).values(), reverse=True)
            == [3, 2, 2, 1, 1, 1]
        }
        assert len(want) == 2

    def test_emitted_trees_have_requested_degrees(self):
        for n in range(2, 9):
            for seq in tree_degree_sequences(n):
                for t in trees_with_degree_sequence(seq):
                    assert tuple(sorted(degrees(t), reverse=True)) == seq.values

    def test_filter_equivalence_with_all_trees(self):
        for n in range(2, 9):
            by_seq = {}
            for seq in tree_degree_sequences(n):
                by_seq[seq.values] = {
                    canonical_code(t) for t in trees_with_degree_sequence(seq)
                }
            from_all = {}
            for t in all_trees(n):
                key = tuple(sorted(degrees(t), reverse=True))
                from_all.setdefault(key, set()).add(canonical_code(t))
            assert by_seq == from_all

    def test_realization_count_is_multinomial(self):
        assert realization_count(validate_tree_sequence((2, 2, 1, 1))) == 2
        assert realization_count(validate_tree_sequence((3, 1, 1, 1))) == 1

    def test_code_cap_guard(self, monkeypatch):
        # 681,080,400 arrangements: refused from the count, before decoding.
        seq = validate_tree_sequence((3,) * 7 + (1,) * 9)
        assert realization_count(seq) == 681_080_400 > enumeration.CODE_CAP
        decodes = []
        monkeypatch.setattr(enumeration, "prufer_decode", lambda code, n: decodes.append(n))
        with pytest.raises(EnumerationGuard, match="cap is 10000000"):
            list(trees_with_degree_sequence(seq))
        assert decodes == []

    def test_order_guard(self):
        seq = validate_tree_sequence((2,) * 15 + (1, 1))
        with pytest.raises(EnumerationGuard, match="1..16"):
            list(trees_with_degree_sequence(seq))

    def test_single_vertex_and_edge(self):
        assert list(trees_with_degree_sequence((0,))) == [Tree(1, [])]
        assert list(trees_with_degree_sequence((1, 1))) == [path(2)]


class TestRelocation:
    def test_star_to_path(self):
        from treeirr import compute_indices

        t = star(3)
        moved, step = relocate_leaf(t, 0, 1, 2)
        assert canonical_code(moved) == canonical_code(path(4))
        assert compute_indices(t).irr == 6
        assert compute_indices(moved).irr == 2
        assert step.degrees_before == (3, 1, 1)
        assert step.degrees_after == (2, 1, 2)

    def test_fixture_drop(self):
        from treeirr import compute_indices
        from treeirr.claims import load_fig2_tree

        t = load_fig2_tree()
        moved, _ = relocate_leaf(t, 4, 7, 8)
        assert compute_indices(moved).irr == 16

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError, match="lambda below 3"):
            relocate_leaf(path(3), 1, 0, 2)

    def test_donor_must_be_pendant_neighbor(self):
        t = caterpillar_fixture()
        with pytest.raises(ValueError, match="not a leaf"):
            relocate_leaf(t, 1, 0, 2)

    def test_recipient_must_differ(self):
        t = star(3)
        with pytest.raises(ValueError, match="another neighbor"):
            relocate_leaf(t, 0, 1, 1)

    def test_sweep_preserves_order_and_leaf_count(self):
        # Donor stays a leaf; the recipient may stop being one, so the leaf
        # count never grows and drops by at most one.
        for n in range(4, 8):
            for t in all_trees(n):
                deg = degrees(t)
                for y in range(n):
                    if deg[y] < 3:
                        continue
                    donors = [w for w in t.adjacency[y] if deg[w] == 1]
                    for donor in donors:
                        for recipient in t.adjacency[y]:
                            if recipient == donor:
                                continue
                            moved, step = relocate_leaf(t, y, donor, recipient)
                            assert moved.n == t.n
                            drop = degrees(t).count(1) - degrees(moved).count(1)
                            assert drop in (0, 1)
                            assert step.degrees_after[0] == deg[y] - 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_degree_deltas_random(self, data):
        n = data.draw(st.integers(4, 9))
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        t = prufer_decode(code, n)
        deg = degrees(t)
        options = [
            (y, d, r)
            for y in range(n)
            if deg[y] >= 3
            for d in t.adjacency[y]
            if deg[d] == 1
            for r in t.adjacency[y]
            if r != d
        ]
        if not options:
            return
        y, donor, recipient = data.draw(st.sampled_from(options))
        moved, _ = relocate_leaf(t, y, donor, recipient)
        after = degrees(moved)
        for v in range(n):
            expected = deg[v] + (v == recipient) - (v == y)
            assert after[v] == expected


def caterpillar_fixture():
    from treeirr import caterpillar

    return caterpillar((2, 3, 2))


def assert_networkx_trees(n, trees):
    # all_trees skips Tree validation, so every tree it yields is also
    # checked as a graph and rebuilt validated.
    nx = pytest.importorskip("networkx")
    assert len(trees) == len(list(nx.nonisomorphic_trees(n)))
    for t in trees:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(t.edges)
        assert nx.is_tree(g)
        assert Tree(n, t.edges) == t
        assert Tree(n, t.edges).adjacency == t.adjacency
