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
    _degrees_parents,
    brute_canonical,
    edge_rooted_code,
    level_sequences,
    levels_to_edges,
    pack_tree_rows,
    relocate_leaf,
    spanning_trees,
    table_rows,
    tree_graphical,
    unlabeled_tree_count,
    witness_record,
)


@pytest.fixture
def cold_orders():
    # The first caller to reach an order keeps its degree/parent table for
    # the process; start and end empty so that test order cannot decide
    # which path runs.
    enumeration._TABLES.clear()
    yield
    enumeration._TABLES.clear()


def counted_fills(monkeypatch, calls):
    # Each fill of an order's rows, from the packed file or the generator,
    # then each row it returns.
    fill = enumeration._order_rows

    def counted(n):
        degs, parents = fill(n)
        calls.append("fill")
        calls.extend(["row"] * (len(parents) // n))
        return degs, parents

    monkeypatch.setattr(enumeration, "_order_rows", counted)


@pytest.fixture
def counted_readers(monkeypatch):
    # Fills of an order's rows, the rows each returns, and calls of the
    # adjacency builder that a tree runs when no builder handed its
    # adjacency over.
    from treeirr import tree

    calls = []
    builder = tree._sorted_adjacency

    def counted_builder(n, edges):
        calls.append("_sorted_adjacency")
        return builder(n, edges)

    counted_fills(monkeypatch, calls)
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
        assert n in enumeration._TABLES
        assert_networkx_trees(n, list(all_trees(n)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_warm_call_repeats_cold_call(self, n, cold_orders):
        # A warm call yields the same trees with the same preset codes, and
        # neither call changes the kept table.
        cold = list(all_trees(n))
        table = enumeration._TABLES[n]
        degs, parents = table
        assert len(degs) == len(parents) == n * len(cold)
        assert table == _kernels.order_rows(n)
        warm = list(all_trees(n))
        assert [t.edges for t in warm] == [t.edges for t in cold]
        assert all(t._code is not None for t in warm)
        assert [t._code for t in warm] == [t._code for t in cold]
        assert enumeration._TABLES[n] is table

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cold_call_presets_codes(self, n, cold_orders):
        # The first call codes table rows from their parents, not trees:
        # each tree's preset code must be the one the edge-rooted oracle
        # gives its edges.
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
        assert len(enumeration._TABLES[9][1]) == 9 * unlabeled_tree_count(9)
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


def assert_degrees_parents(levels, deg, parent):
    # A layout's degrees and parents against the validated tree of the
    # stack-scan oracle: a parent id is below its child and adjacency lists
    # are sorted, so a non-root vertex's parent is its first neighbour.
    t = Tree(len(levels), levels_to_edges(levels))
    assert tuple(deg) == degrees(t)
    assert parent[0] == 0
    assert list(parent[1:]) == [t.adjacency[i][0] for i in range(1, t.n)]


def canonical_layouts(n):
    # The order's level sequences in all_trees order, sorted here by the
    # code each one holds.
    return sorted(map(bytes, level_sequences(n)), key=_kernels.level_code)


class TestLevelReader:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_every_layout(self, n):
        # Each row order_rows steps to, against its layout in the brute
        # generator's order.
        degs, parents = _kernels.order_rows(n)
        layouts = level_sequences(n)
        assert len(degs) == len(parents) == n * len(layouts)
        for k, levels in enumerate(layouts):
            row = slice(k * n, k * n + n)
            assert_degrees_parents(levels, degs[row], parents[row])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 200), max_size=199))
    def test_random_layouts(self, picks):
        # Any preorder layout of order 1-200, as in test_tree.TestFromLevels.
        levels = [0]
        for x in picks:
            levels.append(min(x, levels[-1] + 1))
        # The brute reader, the oracle of order_rows, on any layout.
        for layout in (tuple(levels), bytes(levels)):
            assert_degrees_parents(layout, *_degrees_parents(layout))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_reader_is_all_trees(self, n, cold_orders):
        # Whichever caller fills the order, the table holds the same rows in
        # generation order: all_trees(n) is their parents' trees sorted by
        # their codes, its degrees theirs, and every call presets each
        # tree's code and leaves the rows as they were.
        cold = list(all_trees(n))
        rows = list(enumeration._rows_reaching(n, 0))
        by_code = sorted(rows, key=lambda row: enumeration._row_code(row[1]))
        assert [enumeration._parent_tree(parent) for _, parent in by_code] == cold
        assert [tuple(deg) for deg, _ in by_code] == [degrees(t) for t in cold]
        assert [t._code for t in cold] == [enumeration._row_code(p) for _, p in by_code]
        enumeration._TABLES.clear()
        assert list(enumeration._rows_reaching(n, 0)) == rows
        for _ in ("first", "second"):
            trees = list(all_trees(n))
            assert trees == cold
            assert [t._code for t in trees] == [t._code for t in cold]
            assert list(enumeration._rows_reaching(n, 0)) == rows

    def test_guard(self):
        for n in (0, 17):
            with pytest.raises(EnumerationGuard):
                enumeration._canonical_order(n)
            with pytest.raises(EnumerationGuard):
                next(enumeration._rows_reaching(n, 0))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_table_is_degrees_parents(self, n, cold_orders, counted_readers):
        # The table's first call fills every row of the order once, keeps
        # the whole table before it yields, and later calls read it alone.
        # Its rows are the brute generator's layouts, read through the
        # brute reader, in generation order; all_trees yields their trees
        # in code order, filling nothing again and leaving the rows in
        # generation order.
        layouts = [bytes(seq) for seq in level_sequences(n)]
        first = next(enumeration._rows_reaching(n, 0))
        assert counted_readers == ["fill"] + ["row"] * len(layouts)
        degs, parents = enumeration._TABLES[n]
        assert len(degs) == len(parents) == n * len(layouts)
        rows = list(enumeration._rows_reaching(n, 0))
        assert len(counted_readers) == 1 + len(layouts)
        assert rows[0] == first
        assert len(rows) == len(layouts)
        for levels, (deg, parent) in zip(layouts, rows):
            assert type(deg) is bytes and type(parent) is bytes
            assert (list(deg), list(parent)) == _degrees_parents(levels)
        read = len(counted_readers)
        trees = list(all_trees(n))
        assert list(enumeration._rows_reaching(n, 0)) == rows
        assert len(counted_readers) == read
        for levels, t in zip(canonical_layouts(n), trees, strict=True):
            deg, parent = _degrees_parents(levels)
            assert t == enumeration._parent_tree(parent)
            assert list(degrees(t)) == deg
            assert t._code == _kernels.level_code(levels)


class TestRowsReaching:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_reader_is_the_filtered_table(self, n, cold_orders, monkeypatch):
        # For every bound from 0 to n + 1, the reader gives exactly the
        # table's rows with a degree >= lam, as the same bytes and in the
        # same order, and all of them share the order's one fill.
        calls = []
        counted_fills(monkeypatch, calls)
        rows = table_rows(n)
        fill = ["fill"] + ["row"] * unlabeled_tree_count(n)
        assert calls == fill
        for lam in range(0, n + 2):
            got = list(enumeration._rows_reaching(n, lam))
            assert got == [row for row in rows if max(row[0]) >= lam], lam
            assert all(type(deg) is bytes and type(parent) is bytes for deg, parent in got)
        assert calls == fill
        enumeration._TABLES.clear()
        calls.clear()
        assert list(enumeration._rows_reaching(n, 0)) == rows
        assert calls == fill

    def test_guard(self, cold_orders, monkeypatch):
        # Orders 0 and 17 are refused by the table and by its reader before
        # any row is filled: nothing is generated, no table is kept and the
        # packed file is not read.
        calls = []
        generate = _kernels.order_rows
        monkeypatch.setattr(_kernels, "order_rows", lambda n: calls.append(n) or generate(n))
        counted_fills(monkeypatch, calls)
        monkeypatch.setattr(enumeration, "_PACKED", {})
        for n in (0, 17):
            with pytest.raises(EnumerationGuard):
                enumeration._canonical_order(n)
            with pytest.raises(EnumerationGuard):
                next(enumeration._rows_reaching(n, 0))
        assert calls == []
        assert enumeration._TABLES == {}
        assert enumeration._PACKED == {}


class TestRowCode:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_code_is_the_tree_code(self, n, cold_orders):
        # Every row's code from its parents alone is the code of its built
        # tree and the edge-rooted oracle's; the table has one order, so
        # one fill covers every caller.
        for _, parent in enumeration._rows_reaching(n, 0):
            t = enumeration._parent_tree(parent)
            assert enumeration._row_code(parent) == canonical_code(t)
            assert enumeration._row_code(parent) == edge_rooted_code(n, t.edges)


class TestWitnessRecords:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_records_are_the_public_route(self, n):
        # Every row of the order, with a tag after its parents: each record
        # is the row's code and edge text by the validated public route
        # (_brute.witness_record), the codes strictly ascend, and every item
        # comes back once, as given.
        items = [(parent, k) for k, (_, parent) in enumerate(enumeration._rows_reaching(n, 0))]
        records = list(enumeration._witness_records(items))
        for code, text, item in records:
            assert (code, text) == witness_record(item[0]), item
        codes = [code for code, _, _ in records]
        assert codes == sorted(set(codes))
        assert sorted(item[1] for _, _, item in records) == list(range(len(items)))
        assert all(item is items[item[1]] for _, _, item in records)

    def test_codes_on_first_pull_only(self, monkeypatch):
        # Making the generator codes nothing; its first pull codes every
        # item once, and the rest code nothing more.
        calls = []
        code = _kernels.level_code
        monkeypatch.setattr(_kernels, "level_code", lambda levels: calls.append(1) or code(levels))
        items = [(parent,) for _, parent in enumeration._rows_reaching(7, 0)]
        records = enumeration._witness_records(items)
        assert calls == []
        next(records)
        assert len(calls) == len(items) == 11
        assert len(list(records)) == len(items) - 1
        assert len(calls) == len(items)


def packed_file():
    from importlib import resources

    return resources.files("treeirr").joinpath(enumeration._ROWS_FILE).read_bytes()


REGENERATE = "stale data/tree_rows.bin: regenerate it with `python tests/_brute.py`"


class TestPackedRows:
    def test_file_is_the_generators_rows(self):
        # The package ships the generator's rows of orders 1-14, each order
        # as _kernels.order_rows makes it, under a header of their counts
        # (OEIS A000055); the file is the one the brute path writes.
        data = packed_file()
        counts = [int(count) for count in data[: data.index(b"\n")].split()]
        assert counts == [unlabeled_tree_count(n) for n in range(1, 15)], REGENERATE
        packed = enumeration._unpack(data)
        assert list(packed) == list(range(1, 15)), REGENERATE
        for n, table in packed.items():
            assert table == _kernels.order_rows(n), f"order {n}: {REGENERATE}"
        assert data == pack_tree_rows(14), REGENERATE

    def test_fill_reads_the_file_once(self, cold_orders, monkeypatch):
        # A packed order's table is the file's two blobs, the file read
        # once for every order and every refill; an order the file lacks
        # is generated.
        calls = []
        generate = _kernels.order_rows
        monkeypatch.setattr(_kernels, "order_rows", lambda n: calls.append(n) or generate(n))
        monkeypatch.setattr(enumeration, "_PACKED", {})
        unpacked = []
        unpack = enumeration._unpack
        monkeypatch.setattr(enumeration, "_unpack", lambda data: unpacked.append(1) or unpack(data))
        for n in (14, 1, 9):
            degs, parents = enumeration._canonical_order(n)
            assert type(degs) is bytes and type(parents) is bytes
            assert (degs, parents) == generate(n)
        assert calls == [] and unpacked == [1]
        enumeration._TABLES.clear()
        assert enumeration._canonical_order(14) is enumeration._PACKED[14]
        assert enumeration._canonical_order(15) == generate(15)
        assert calls == [15] and unpacked == [1]

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: data[:-1], "144289 bytes of rows, but its header counts 144290"),
            (
                lambda data: data.replace(b" 3159\n", b" 3158\n"),
                "144290 bytes of rows, but its header counts 144262",
            ),
            (
                # 14 more rows of order 13 and 13 fewer of order 14: the
                # size holds, and the rows of order 13 go out of step.
                lambda data: data.replace(b"1301 3159\n", b"1315 3146\n"),
                "a row of order 13 does not start at its root",
            ),
        ],
        ids=["truncated", "wrong-count", "rows-out-of-step"],
    )
    def test_damaged_file_fails_the_load(self, damage, message, cold_orders, monkeypatch, tmp_path):
        # A damaged file is refused on the first fill, and keeps being
        # refused: no order is kept from it.
        from importlib import resources

        target = tmp_path / enumeration._ROWS_FILE
        target.parent.mkdir()
        target.write_bytes(damage(packed_file()))
        monkeypatch.setattr(resources, "files", lambda package: tmp_path)
        monkeypatch.setattr(enumeration, "_PACKED", {})
        for n in (5, 5, 16):
            with pytest.raises(ValueError, match=message):
                enumeration._canonical_order(n)
        assert enumeration._TABLES == {}
        assert enumeration._PACKED == {}

    def test_wheel_ships_the_file(self):
        # setuptools puts the package data that pyproject.toml's globs
        # match into the wheel; the file must be one of them.
        from fnmatch import fnmatch
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
        globs = config["tool"]["setuptools"]["package-data"]["treeirr"]
        assert (root / "src" / "treeirr" / enumeration._ROWS_FILE).is_file()
        assert any(fnmatch(enumeration._ROWS_FILE, glob) for glob in globs), globs


class TestCodeCap:
    def test_cap_boundary(self):
        # The one CODE_CAP check accepts CODE_CAP cases and refuses one
        # more, with the caller's text filled in.
        assert enumeration.CODE_CAP == 10_000_000
        assert enumeration._refuse_above_cap(enumeration.CODE_CAP, "{count} {cap}") is None
        with pytest.raises(EnumerationGuard) as refused:
            enumeration._refuse_above_cap(enumeration.CODE_CAP + 1, "{count} cases, cap {cap}")
        assert str(refused.value) == "10000001 cases, cap 10000000"


class TestOneFill:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_one_fill_per_order(self, n, cold_orders, monkeypatch):
        # all_trees and the table share one fill: whichever reaches the
        # order second generates no row. The fill codes nothing; each
        # all_trees call codes each row once, whichever caller came first,
        # and the table reader never codes.
        calls = []
        level_code = _kernels.level_code

        def counted_code(levels):
            calls.append("level_code")
            return level_code(levels)

        counted_fills(monkeypatch, calls)
        monkeypatch.setattr(_kernels, "level_code", counted_code)
        count = unlabeled_tree_count(n)
        fill = ["fill"] + ["row"] * count
        coding = ["level_code"] * count

        def trees():
            list(all_trees(n))

        def table():
            next(enumeration._rows_reaching(n, 0))

        for first, second, first_calls in [(trees, table, fill + coding), (table, trees, fill)]:
            enumeration._TABLES.clear()
            calls.clear()
            first()
            assert calls == first_calls
            second()
            assert calls == fill + coding
            table()
            assert calls == fill + coding
            trees()
            assert calls == fill + coding * 2


class TestEnumeratePath:
    @pytest.mark.parametrize("n", [1, 2, 9, 12])
    def test_no_table_and_no_lazy_adjacency(self, n, cold_orders, counted_readers, capsys):
        # all_trees fills the order's one table on its cold call, and
        # enumerate --json and later calls fill no table again. Cold and
        # warm, every tree's adjacency, which the records read, is the one
        # _parent_tree built.
        from treeirr.cli import main

        count = unlabeled_tree_count(n)
        for _ in ("cold", "warm"):
            trees = list(all_trees(n))
            assert len(trees) == count
            assert all(type(t) is Tree for t in trees)
            assert [degrees(t) for t in trees]
        enumeration._TABLES.clear()
        for _ in ("cold", "warm"):
            assert main(["enumerate", "--n", str(n), "--json"]) == 0
            assert len(capsys.readouterr().out) > 0
        assert list(enumeration._TABLES) == [n]
        assert counted_readers == (["fill"] + ["row"] * count) * 2
        # The counter does see the lazy adjacency when it runs.
        prufer_decode([], 2).adjacency
        assert counted_readers[-1] == "_sorted_adjacency"


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
        with pytest.raises(EnumerationGuard) as refused:
            list(trees_with_degree_sequence(seq))
        assert str(refused.value) == (
            "degree sequence (3,3,3,3,3,3,3,1,1,1,1,1,1,1,1,1) needs 681080400 "
            "realization codes, cap is 10000000"
        )
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
