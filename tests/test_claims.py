import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treeirr import (
    Tree,
    all_trees,
    canonical_code,
    compute_indices,
    degrees,
    prufer_decode,
    star,
)
from treeirr.claims import (
    CATALOG,
    CLAIM_IDS,
    DEFAULT_WITNESS_CAP,
    ReportConfig,
    TreeClass,
    exit_status,
    extremal_over_class,
    fig2_text,
    load_table1,
    perm_search,
    report_to_json,
    report_to_text,
    result_to_text,
    run_report,
    table1_text,
    verify,
)
from treeirr.claims import _caterpillar_levels, _move_change, _seq_extremes, _tree_relocations
from treeirr.enumeration import (
    EnumerationGuard,
    _canonical_levels,
    _canonical_table,
    _degrees_parents,
    _level_tree,
    tree_degree_sequences,
    trees_with_degree_sequence,
)

from _brute import brute_indices, levels_to_edges, relocate_leaf, spanning_trees

TABLE1_SHA256 = "acaa463bf17fd9ca3b3c19c6c425e8d0dbba0bc1cc9eb08e7676b4c4e4395185"
FIG2_SHA256 = "5ec994fc7dd151bb8105ebcdfc48befd0b6e8b2ed42801f5c6494294649c0204"

UNCAPPED_REPORT_SHA256 = "103f50cc92e7432a117df5f57f5eb1436bd02dc891abd8757b9655db254513ea"

DATA = Path(__file__).parent / "data"


class TestCatalog:
    def test_ids_unique_and_wired(self):
        assert len(CLAIM_IDS) == len(set(CLAIM_IDS)) == len(CATALOG)
        for claim in CATALOG:
            assert claim.statement
            assert claim.oracle_kind in (
                "exhaustive-trees",
                "arithmetic",
                "table-fixture",
                "permutation-search",
            )

    def test_unknown_claim_raises(self):
        with pytest.raises(KeyError, match="unknown claim id"):
            verify("no-such-claim")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            verify("sandwich", {"depth": 3})

    @pytest.mark.parametrize(
        "claim_id, params",
        [
            ("star-albertson", {"n_max": -1}),
            ("sandwich", {"n_max": 0}),
            ("irr-decrease", {"n_max": 0}),
            ("cor3-part1", {"d_max": 0}),
            ("sigma-ordered", {"deg_max": -2}),
        ],
    )
    def test_parameter_below_one_rejected(self, claim_id, params):
        ((key, value),) = params.items()
        with pytest.raises(ValueError, match=f"must be >= 1, got {key}={value}"):
            verify(claim_id, params)

    @pytest.mark.parametrize("cap", [-1, -3])
    def test_negative_witness_cap_rejected(self, cap, monkeypatch):
        # Rejected before the sweep reads a single order.
        from treeirr import claims

        def no_work(n):
            raise AssertionError("swept with a negative cap")

        monkeypatch.setattr(claims, "_canonical_table", no_work)
        with pytest.raises(ValueError, match=f"witness_cap must be >= 0 or None, got {cap}"):
            verify("irr-decrease", {"n_max": 6}, witness_cap=cap)

    def test_small_parameter_checks_nothing(self):
        # Legal but below the claim's smallest instance: no support of
        # degree >= 11 fits in order 11.
        r = verify("sigma-increase", {"n_max": 11})
        assert (r.verdict, r.checked, r.violations) == ("holds", 0, 0)


class TestFixtures:
    def test_table1_transcription_checksum(self):
        assert hashlib.sha256(table1_text().encode()).hexdigest() == TABLE1_SHA256

    def test_fig2_transcription_checksum(self):
        assert hashlib.sha256(fig2_text().encode()).hexdigest() == FIG2_SHA256

    def test_table1_rows(self):
        rows = load_table1()
        assert len(rows) == 24
        assert rows[0].seq == (18, 12, 6, 4)
        assert (rows[0].irr_max, rows[0].irr_min, rows[0].diff) == (454, 438, 16)
        assert rows[-1].seq == (14, 9, 5, 3)


class TestArithmeticClaims:
    def test_star_albertson_holds(self):
        r = verify("star-albertson")
        assert (r.verdict, r.checked, r.violations) == ("holds", 48, 0)

    def test_star_iso_sum_holds(self):
        r = verify("star-iso-sum")
        assert (r.verdict, r.violations) == ("holds", 0)

    def test_cor3_part1_holds(self):
        r = verify("cor3-part1", {"d_max": 40})
        assert r.verdict == "holds"
        assert r.checked == sum(1 for a in range(4, 41) for _ in range(a, 41))

    def test_resn1_reading(self):
        r = verify("resn1")
        assert r.verdict == "holds-with-notes"
        assert r.violations == 0
        # Sequence counts by length 2..7 are 1,1,2,3,5,7; ordered unequal
        # pairs: 19^2 - 89.
        assert r.checked == 272


class TestExhaustiveClaims:
    @pytest.mark.parametrize(
        "claim_id,n_max",
        [
            ("sandwich", 8),
            ("irr-upper-tree", 8),
            ("irrT-seq-formula", 7),
            ("m1-edge-identity", 8),
        ],
    )
    def test_identities_hold(self, claim_id, n_max):
        r = verify(claim_id, {"n_max": n_max})
        assert r.verdict == "holds"
        assert r.violations == 0
        assert r.checked > 0

    def test_fig2_fixture(self):
        r = verify("fig2-fixture")
        assert r.verdict == "holds-with-notes"
        assert r.violations == 0
        assert any("drawn" in note for note in r.notes)

    def test_table1_claim(self):
        r = verify("table1")
        assert r.verdict == "holds-with-notes"
        assert r.violations == 0
        assert any("+4" in note for note in r.notes)

    def test_three_c_records_anomalies(self):
        r = verify("three-c", {"n_max": 6})
        assert r.verdict == "fails"
        assert r.violations == len(r.witnesses) > 0
        assert any("formula max matches" in n for n in r.notes)

    def test_hyp_four_vs_oracle(self):
        r = verify("hyp-four")
        assert r.checked == 2
        assert r.verdict == "fails"
        # Exhaustive ranges for the two order-4 classes, from first terms.
        assert any("[6, 6]" in n for n in r.notes)
        assert any("[2, 2]" in n for n in r.notes)

    def test_caterpillar_support(self):
        from treeirr import is_caterpillar, strong_support_vertices
        from treeirr.edgelist import parse_edge_list

        r = verify("caterpillar-support", {"n_max": 8})
        assert r.verdict == "fails"
        # Paths are always among the violations (the lone caterpillar with
        # two pendants has no strong support vertex once n >= 4), and every
        # witness really is a caterpillar without one.
        assert any(w["pendants"] == 2 for w in r.witnesses)
        for w in r.witnesses:
            text = "\n".join(e.replace("-", " ") for e in w["tree"].split())
            t = parse_edge_list(text).tree
            assert is_caterpillar(t)
            assert not strong_support_vertices(t, min_leaves=2)
        assert any("one-pendant-neighbor reading" in n for n in r.notes)

    def test_seq_monotonicity(self):
        r = verify("seq-monotonicity", {"n_max": 6})
        assert r.verdict == "holds-with-notes"
        assert r.violations == 0
        assert any("prefix-sum dominance" in n for n in r.notes)

    def test_seq_monotonicity_order_six_by_hand(self):
        # The five order-6 sequences are totally ordered by prefix-sum
        # dominance and their extremal irr values are hand-checkable:
        # star 20, broom 12, double star 8, the two-realization class 6,
        # path 2. Monotone along the chain, so the claim's data is right.
        from treeirr import validate_tree_sequence

        chain = [
            (5, 1, 1, 1, 1, 1),
            (4, 2, 1, 1, 1, 1),
            (3, 3, 1, 1, 1, 1),
            (3, 2, 2, 1, 1, 1),
            (2, 2, 2, 2, 1, 1),
        ]
        want = [(20, 20), (12, 12), (8, 8), (6, 6), (2, 2)]
        for values, (lo, hi) in zip(chain, want):
            klass = TreeClass(n=6, degree_sequence=validate_tree_sequence(values))
            assert extremal_over_class(klass, "irr", "min").value == lo
            assert extremal_over_class(klass, "irr", "max").value == hi

    def test_sigma_five_vs_oracle(self):
        r = verify("sigma-five")
        assert r.checked == 3
        assert r.verdict == "fails"

    def test_sigma_ordered_vs_oracle(self):
        r = verify("sigma-ordered", {"n_max": 4, "deg_max": 5})
        assert r.verdict == "fails"
        assert any("spine reading" in n for n in r.notes)
        assert any("direct reading" in n for n in r.notes)


def _labeled_tree_classes(n):
    reps = {}
    for edges in spanning_trees(n):
        t = Tree(n, edges)
        reps.setdefault(canonical_code(t), edges)
    return list(reps.values())


def _brute_relocation_sweep(
    n_max, admissible, bad, value_key, support_filter, classes=_labeled_tree_classes
):
    """Test-local rerun of a relocation claim, on brute-force indices.

    Walks one edge list per tree class (``classes(n)``; by default the
    labeled spanning-tree representatives) and moves each leaf by editing
    the edge list. Returns the number of moves checked and the violating
    moves as the claim's witness dicts, in sweep order: support, donor,
    recipient.
    """
    checked = 0
    violating = []
    for n in range(2, n_max + 1):
        for edges in classes(n):
            deg = [0] * n
            adj = {v: [] for v in range(n)}
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
                adj[u].append(v)
                adj[v].append(u)
            delta = max(deg)
            ties = deg.count(delta)
            before = brute_indices(n, edges)
            for y in range(n):
                lam = deg[y]
                if lam < 3 or not admissible(lam):
                    continue
                strict, tied = lam < delta, lam == delta and ties >= 2
                if support_filter and not (strict or tied):
                    continue
                neighbors = sorted(adj[y])
                for donor in [w for w in neighbors if deg[w] == 1]:
                    for recipient in neighbors:
                        if recipient == donor:
                            continue
                        moved = [
                            e for e in edges if set(e) != {y, donor}
                        ] + [(donor, recipient)]
                        after = brute_indices(n, moved)
                        checked += 1
                        if bad(before, after, lam):
                            violating.append(
                                {
                                    "tree": " ".join(f"{u}-{v}" for u, v in edges),
                                    "n": n,
                                    "y": y,
                                    "donor": donor,
                                    "recipient": recipient,
                                    "lambda": lam,
                                    "filter": "strict" if strict else ("tied" if tied else "unfiltered"),
                                    "before": before[value_key],
                                    "after": after[value_key],
                                }
                            )
    return checked, violating


def _canonical_classes(n):
    return [list(t.edges) for t in all_trees(n)]


def _assert_witnesses_are_brute_moves(claim_id, n_max, admissible, bad, value_key, support_filter):
    # On the claim's own trees the brute moves must be its witnesses, move
    # for move: all of them uncapped, the first cap of them capped.
    _, moves = _brute_relocation_sweep(
        n_max, admissible, bad, value_key, support_filter, classes=_canonical_classes
    )
    assert len(moves) > DEFAULT_WITNESS_CAP
    uncapped = verify(claim_id, {"n_max": n_max}, witness_cap=None)
    assert list(uncapped.witnesses) == moves
    capped = verify(claim_id, {"n_max": n_max})
    assert (capped.checked, capped.violations) == (uncapped.checked, len(moves))
    assert list(capped.witnesses) == moves[:DEFAULT_WITNESS_CAP]


def _admissible_moves(t):
    deg = degrees(t)
    return [
        (y, donor, recipient)
        for y in range(t.n)
        if deg[y] >= 3
        for donor in t.adjacency[y]
        if deg[donor] == 1
        for recipient in t.adjacency[y]
        if recipient != donor
    ]


def _class_moves(levels, deg, parent, support_filter=False):
    """The moves of the per-support records of a layout, expanded in sweep order.

    ``deg`` and ``parent`` describe the layout ``levels``; every support of
    degree >= 3 is admissible. The records are held to the validated tree
    of ``_brute.levels_to_edges``, which the function returns with the
    moves ``(y, donor, recipient, side, change)``.
    """
    t = Tree(len(levels), levels_to_edges(levels))
    top = max(deg)
    ties = deg.count(top)
    moves = []
    for y, lam, side, donors, deltas in _tree_relocations(deg, parent, 3, top, support_filter):
        assert lam == len(t.adjacency[y])
        assert donors == [w for w in t.adjacency[y] if len(t.adjacency[w]) == 1]
        assert list(deltas) == [r for r in t.adjacency[y] if donors != [r]]
        assert side == ("strict" if lam < top else "tied" if ties > 1 else "unfiltered")
        class_moves = [
            (y, donor, recipient, side, change)
            for donor in donors
            for recipient, change in deltas.items()
            if recipient != donor
        ]
        assert len(class_moves) == len(donors) * (lam - 1)
        moves += class_moves
    return t, moves


def _preorder_levels(t, root, rng):
    """A level-sequence layout of ``t``: preorder from ``root``, children shuffled."""
    depth = {root: 0}
    levels = []
    stack = [root]
    while stack:
        v = stack.pop()
        levels.append(depth[v])
        kids = [w for w in t.adjacency[v] if w not in depth]
        rng.shuffle(kids)
        for w in kids:
            depth[w] = depth[v] + 1
            stack.append(w)
    return levels


def _assert_matches_recompute(t, moves):
    # The oracle is the validated move plus a full recompute of the bundle.
    before = compute_indices(t)
    for y, donor, recipient, _side, (d_irr, d_sigma) in moves:
        after = compute_indices(relocate_leaf(t, y, donor, recipient)[0])
        assert (after.irr - before.irr, after.sigma - before.sigma) == (d_irr, d_sigma)


class TestEnumerationOnce:
    def test_sequence_extremes_match_realization(self):
        # The claims and extremal take per-sequence classes from all_trees;
        # the Prüfer realization enumerator stays their independent oracle.
        # extremal_over_class must give the same optimum and the same
        # witness codes in ascending order, each witness edge list a tree
        # of its code.
        for n in range(1, 10):
            for seq in tree_degree_sequences(n):
                oracle = [
                    (canonical_code(t).decode("ascii"), compute_indices(t))
                    for t in trees_with_degree_sequence(seq)
                ]
                for attr in ("irr", "sigma"):
                    values = [getattr(b, attr) for _, b in oracle]
                    assert _seq_extremes(seq, attr) == (min(values), max(values)), (seq, attr)
                klass = TreeClass(n, degree_sequence=seq)
                for index, attr in (("irr", "irr"), ("sigma", "sigma"), ("irr_T", "irr_t")):
                    for objective, pick in (("min", min), ("max", max)):
                        best = pick(getattr(b, attr) for _, b in oracle)
                        r = extremal_over_class(klass, index, objective)
                        codes = sorted(c for c, b in oracle if getattr(b, attr) == best)
                        assert r.value == best, (seq, index, objective)
                        assert [c for c, _ in r.witnesses] == codes, (seq, index, objective)
                        for code, edge_text in r.witnesses:
                            edges = [tuple(map(int, e.split("-"))) for e in edge_text.split()]
                            t = Tree(n, edges)
                            assert canonical_code(t).decode("ascii") == code
                            assert tuple(sorted(degrees(t), reverse=True)) == seq.values

    def test_report_generates_each_order_once(self, monkeypatch):
        from treeirr import _kernels, degseq, enumeration

        orders, decodes = [], []
        level_sequences, prufer = _kernels.level_sequences, degseq.prufer_decode

        def counted_levels(n):
            orders.append(n)
            return level_sequences(n)

        def counted_decode(code, n):
            decodes.append(n)
            return prufer(code, n)

        monkeypatch.setattr(enumeration, "_CANONICAL_ORDERS", {})
        monkeypatch.setattr(_kernels, "level_sequences", counted_levels)
        for module in (degseq, enumeration):
            monkeypatch.setattr(module, "prufer_decode", counted_decode)
        report = run_report(ReportConfig(n_max=10))
        assert report.errors == ()
        assert sorted(orders) == list(range(1, 11))
        assert decodes == []
        # The counters do see the realization path when it runs.
        list(trees_with_degree_sequence((2, 2, 1, 1)))
        assert decodes

    @pytest.mark.parametrize(
        "claim_id",
        [
            "caterpillar-support",
            "irr-decrease",
            "irr-decrease-bound",
            "irr-upper-tree",
            "irrT-seq-formula",
            "m1-edge-identity",
            "sandwich",
            "seq-monotonicity",
            "sigma-decrease",
            "sigma-increase",
            "sigma-ordered",
            "three-c",
        ],
    )
    def test_order_guard_before_any_sweep(self, claim_id, monkeypatch):
        # An n_max past the guard is refused before the first order is
        # generated, not after sweeping every order below it.
        from treeirr import _kernels, enumeration

        orders = []
        level_sequences = _kernels.level_sequences

        def counted_levels(n):
            orders.append(n)
            return level_sequences(n)

        monkeypatch.setattr(enumeration, "_CANONICAL_ORDERS", {})
        monkeypatch.setattr(enumeration, "_DEGREES_PARENTS", {})
        monkeypatch.setattr(_kernels, "level_sequences", counted_levels)
        with pytest.raises(EnumerationGuard, match="order 17 outside guard range 1..16"):
            verify(claim_id, {"n_max": 17})
        assert orders == []

    def test_report_reads_each_tree_once(self, monkeypatch):
        # A cold default report reads each tree of the orders its filtering
        # claims reach through _degrees_parents once: at most the 5,447
        # trees of orders 1-14.
        from treeirr import enumeration

        calls = []
        reader = enumeration._degrees_parents

        def counted(levels):
            calls.append(len(levels))
            return reader(levels)

        monkeypatch.setattr(enumeration, "_CANONICAL_ORDERS", {})
        monkeypatch.setattr(enumeration, "_DEGREES_PARENTS", {})
        monkeypatch.setattr(enumeration, "_degrees_parents", counted)
        report = run_report(ReportConfig())
        assert report.errors == ()
        tables = enumeration._DEGREES_PARENTS
        assert Counter(calls) == {n: len(degs) // n for n, (degs, _) in tables.items()}
        assert max(tables) == 14
        assert len(calls) <= 5447

    def test_extremal_seq_decodes_nothing(self, monkeypatch, capsys):
        # extremal --seq filters all_trees; it never runs the Prüfer realizer.
        from treeirr import degseq, enumeration
        from treeirr.cli import main

        decodes = []
        prufer = degseq.prufer_decode

        def counted_decode(code, n):
            decodes.append(n)
            return prufer(code, n)

        for module in (degseq, enumeration):
            monkeypatch.setattr(module, "prufer_decode", counted_decode)
        argv = ["extremal", "--seq", "3 3 2 2 1 1 1 1", "--index", "irr", "--objective", "max"]
        assert main(argv) == 0
        assert "max irr over n=8 seq=(3,3,2,2,1,1,1,1): " in capsys.readouterr().out
        assert decodes == []
        # The counter does see the realization path when it runs.
        list(trees_with_degree_sequence((2, 2, 1, 1)))
        assert decodes

    def test_all_trees_builds_without_fallback(self, monkeypatch):
        # Cold and warm, all_trees builds every tree in one pass from its
        # level sequence: no validation, no adjacency rebuilt from the
        # edges, no coding.
        from treeirr import _kernels, enumeration, tree

        calls = []
        init, adjacency, canon = Tree.__init__, tree._sorted_adjacency, _kernels.canon_code

        def counted_init(self, n, edges):
            calls.append("__init__")
            init(self, n, edges)

        def counted_adjacency(n, edges):
            calls.append("_sorted_adjacency")
            return adjacency(n, edges)

        def counted_canon(n, flat):
            calls.append("canon_code")
            return canon(n, flat)

        monkeypatch.setattr(enumeration, "_CANONICAL_ORDERS", {})
        monkeypatch.setattr(Tree, "__init__", counted_init)
        monkeypatch.setattr(tree, "_sorted_adjacency", counted_adjacency)
        monkeypatch.setattr(_kernels, "canon_code", counted_canon)
        cold = list(all_trees(10))
        assert 10 in enumeration._CANONICAL_ORDERS
        warm = list(all_trees(10))
        assert [t.adjacency for t in warm] == [t.adjacency for t in cold]
        assert calls == []
        assert warm == cold and len(cold) == 106
        # The counters do see each fallback when it runs.
        Tree(2, [(0, 1)])
        Tree._unchecked(2, [(0, 1)]).adjacency
        canonical_code(warm[0])
        assert calls == ["__init__", "_sorted_adjacency", "_sorted_adjacency", "canon_code"]


class TestRelocationDeltas:
    # _tree_relocations reads a level-sequence layout's degrees and parents:
    # as lists from _degrees_parents (root parent -1) and as the bytes
    # slices of the order's table (root parent 0).

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_prufer_trees(self, data):
        # Random Prüfer trees up to order 60, laid out from a random root.
        n = data.draw(st.integers(4, 60))
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        root = data.draw(st.integers(0, n - 1))
        levels = _preorder_levels(prufer_decode(code, n), root, data.draw(st.randoms()))
        t, moves = _class_moves(levels, *_degrees_parents(levels))
        assert [m[:3] for m in moves] == _admissible_moves(t)
        _assert_matches_recompute(t, moves)

    def test_every_move_up_to_order_nine(self):
        for n in range(2, 10):
            for _, levels, deg, parent in _canonical_table(n):
                t, moves = _class_moves(levels, deg, parent)
                assert [m[:3] for m in moves] == _admissible_moves(t)
                _assert_matches_recompute(t, moves)
                # The support filter drops exactly the moves off a support alone
                # at the maximum degree.
                _, kept = _class_moves(levels, deg, parent, support_filter=True)
                assert kept == [m for m in moves if m[3] != "unfiltered"]
                # The lists of _degrees_parents give the same records.
                assert _class_moves(levels, *_degrees_parents(levels)) == (t, moves)

    def test_lone_donor_is_not_a_recipient(self):
        # Support 0 has one leaf neighbor (1); its other neighbors 2 and 4
        # are inner vertices, so the leaf can only move to 2 or 4.
        levels = (0, 1, 1, 2, 1, 2)
        deg, parent = _degrees_parents(levels)
        [(y, lam, side, donors, deltas)] = _tree_relocations(deg, parent, 3, 3, False)
        assert (y, lam, side, donors) == (0, 3, "unfiltered", [1])
        assert list(deltas) == [2, 4]
        t, moves = _class_moves(levels, deg, parent)
        assert t.edges == ((0, 1), (0, 2), (0, 4), (2, 3), (4, 5))
        assert [m[:3] for m in moves] == [(0, 1, 2), (0, 1, 4)]
        _assert_matches_recompute(t, moves)

    def test_order_23_sigma_increase_counterexample(self):
        # Two supports of degree 11 with 10 leaves each, joined through a
        # vertex r of degree 2: every move onto r lowers sigma by 316, with
        # the support tied at the maximum degree.
        levels = (0,) + (1,) * 10 + (1, 2) + (3,) * 10
        deg, parent = _degrees_parents(levels)
        records = list(_tree_relocations(deg, parent, 11, 11, True))
        supports = [(y, lam, side) for y, lam, side, _, _ in records]
        assert supports == [(0, 11, "tied"), (12, 11, "tied")]
        for _, _, _, _, deltas in records:
            assert deltas[11] == (-20, -316)
        assert _move_change(11, 2, 9, 0, 11, 0) == (-20, -316)
        t = Tree(len(levels), levels_to_edges(levels))
        moved = relocate_leaf(t, 0, 1, 11)[0]
        assert (compute_indices(t).sigma, compute_indices(moved).sigma) == (2162, 1846)
        _assert_matches_recompute(t, _class_moves(levels, deg, parent)[1])

    def test_witnesses_built_only_while_kept(self, monkeypatch):
        from treeirr import claims

        calls = []
        bundle = claims.compute_indices

        def counted(t):
            calls.append(t.n)
            return bundle(t)

        monkeypatch.setattr(claims, "compute_indices", counted)
        r = verify("irr-decrease", {"n_max": 10})
        assert r.violations > 2 * DEFAULT_WITNESS_CAP
        assert len(r.witnesses) == DEFAULT_WITNESS_CAP
        assert 0 < len(calls) <= DEFAULT_WITNESS_CAP


class TestRelocationClaims:
    def test_irr_decrease_matches_brute_force(self):
        args = (lambda lam: lam >= 3, lambda b, a, lam: not a["irr"] < b["irr"], "irr", True)
        checked, moves = _brute_relocation_sweep(6, *args)
        r = verify("irr-decrease", {"n_max": 6}, witness_cap=None)
        assert (r.checked, r.violations) == (checked, len(moves))
        assert len(r.witnesses) == r.violations
        _assert_witnesses_are_brute_moves("irr-decrease", 9, *args)

    def test_irr_decrease_bound_matches_brute_force(self):
        args = (
            lambda lam: lam >= 3,
            lambda b, a, lam: not b["irr"] - a["irr"] < 3 * lam - 6,
            "irr",
            True,
        )
        checked, moves = _brute_relocation_sweep(6, *args)
        r = verify("irr-decrease-bound", {"n_max": 6}, witness_cap=None)
        assert (r.checked, r.violations) == (checked, len(moves))
        _assert_witnesses_are_brute_moves("irr-decrease-bound", 9, *args)

    def test_sigma_decrease_matches_brute_force(self):
        args = (lambda lam: 3 < lam < 10, lambda b, a, lam: not a["sigma"] < b["sigma"], "sigma", False)
        checked, moves = _brute_relocation_sweep(7, *args)
        r = verify("sigma-decrease", {"n_max": 7}, witness_cap=None)
        assert (r.checked, r.violations) == (checked, len(moves))
        _assert_witnesses_are_brute_moves("sigma-decrease", 9, *args)

    def test_irr_decrease_default_fails_with_witnesses(self):
        r = verify("irr-decrease", {"n_max": 7})
        assert r.verdict == "fails"
        assert r.witnesses
        for w in r.witnesses:
            assert w["after"] >= w["before"]
            assert w["filter"] in ("strict", "tied")

    def test_sigma_increase_scale_note(self):
        r = verify("sigma-increase", {"n_max": 12})
        # The only order-12 tree with a degree-11 support vertex is the
        # 11-star: 11 donors times 10 recipients.
        assert r.checked == 110
        assert any("order >= 23" in n for n in r.notes)

    def test_sigma_increase_star_oracle(self):
        # Every move off the 11-star hub lowers sigma, so the documented
        # increase has no support at this order.
        t = star(11)
        base = brute_indices(t.n, t.edges)["sigma"]
        for recipient in range(2, 12):
            moved = [e for e in t.edges if e != (0, 1)] + [(1, recipient)]
            assert brute_indices(t.n, moved)["sigma"] < base
        r = verify("sigma-increase", {"n_max": 12})
        assert r.verdict == "fails"
        assert r.violations == r.checked


class TestExtremal:
    def test_order_five(self):
        mx = extremal_over_class(TreeClass(n=5), "irr", "max")
        mn = extremal_over_class(TreeClass(n=5), "irr", "min")
        assert (mx.value, mn.value) == (12, 2)
        assert len(mx.witnesses) == len(mn.witnesses) == 1

    def test_sigma_and_total(self):
        # Path degrees (1,2,2,2,1): six cross pairs differing by one.
        assert extremal_over_class(TreeClass(n=5), "sigma", "max").value == 36
        assert extremal_over_class(TreeClass(n=5), "irr_T", "min").value == 6

    def test_degree_sequence_class(self):
        from treeirr import validate_tree_sequence

        seq = validate_tree_sequence((3, 2, 2, 1, 1, 1))
        klass = TreeClass(n=6, degree_sequence=seq)
        assert extremal_over_class(klass, "irr", "max").value == 6
        assert extremal_over_class(klass, "irr", "min").value == 6

    def test_delta_filter(self):
        r = extremal_over_class(TreeClass(n=6, delta=2), "irr", "max")
        assert r.value == 2  # only the path has maximum degree 2
        assert len(r.witnesses) == 1

    def test_caterpillar_filter(self):
        r = extremal_over_class(TreeClass(n=7, caterpillar_only=True), "irr", "min")
        assert r.value == 2

    def test_degree_sequence_above_code_cap(self, capsys):
        # 14,968,800 Prüfer arrangements, above the realizer's 10^7 cap;
        # the class filter answers from all_trees(14).
        from treeirr.cli import main

        values = "3 3 3 3 3 2 2 1 1 1 1 1 1 1"
        assert main(["extremal", "--seq", values, "--index", "irr", "--objective", "max"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("max irr over n=14 seq=(3,3,3,3,3,2,2,1,1,1,1,1,1,1): 18\n")
        assert out.count("witness: ") == 8

    def test_empty_class(self):
        with pytest.raises(ValueError, match="empty tree class"):
            extremal_over_class(TreeClass(n=5, delta=5), "irr", "max")

    def test_guard(self):
        with pytest.raises(EnumerationGuard, match="1..16"):
            extremal_over_class(TreeClass(n=17), "irr", "max")

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown index"):
            extremal_over_class(TreeClass(n=4), "wiener", "max")
        with pytest.raises(ValueError, match="objective"):
            extremal_over_class(TreeClass(n=4), "irr", "best")


# Each relocation claim's admissible support degrees, violation test on
# the brute-force indices before and after a move, index and support
# filter, as the catalog registers them.
RELOCATION_CLAIMS = {
    "irr-decrease": (lambda lam: lam >= 3, lambda b, a, lam: not a["irr"] < b["irr"], "irr", True),
    "irr-decrease-bound": (
        lambda lam: lam >= 3,
        lambda b, a, lam: not b["irr"] - a["irr"] < 3 * lam - 6,
        "irr",
        True,
    ),
    "sigma-decrease": (
        lambda lam: 3 < lam < 10,
        lambda b, a, lam: not a["sigma"] < b["sigma"],
        "sigma",
        False,
    ),
    "sigma-increase": (
        lambda lam: lam >= 11,
        lambda b, a, lam: not a["sigma"] > b["sigma"],
        "sigma",
        False,
    ),
}


class TestLevelFilters:
    def test_caterpillar_predicate_matches_is_caterpillar(self):
        from treeirr import is_caterpillar

        seen = {True: 0, False: 0}
        for n in range(1, 15):
            for _, levels in _canonical_levels(n):
                got = _caterpillar_levels(*_degrees_parents(levels))
                assert got == is_caterpillar(_level_tree(levels)), levels
                seen[got] += 1
        assert seen == {True: 2144, False: 3303}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tree_class_matches_brute_filter(self, n):
        from treeirr import is_caterpillar

        every = list(all_trees(n))
        delta_of = {t: max(degrees(t)) for t in every}

        def assert_class(klass, keep):
            got = list(klass.trees())
            want = [t for t in every if keep(t)]
            assert got == want, klass.describe()
            assert [canonical_code(t) for t in got] == [canonical_code(t) for t in want]

        for caterpillar_only in (False, True):
            cat_ok = is_caterpillar if caterpillar_only else (lambda t: True)
            assert_class(TreeClass(n, caterpillar_only=caterpillar_only), cat_ok)
            for delta in range(0, n):
                assert_class(
                    TreeClass(n, delta=delta, caterpillar_only=caterpillar_only),
                    lambda t: delta_of[t] == delta and cat_ok(t),
                )
        for seq in tree_degree_sequences(n):
            assert_class(
                TreeClass(n, degree_sequence=seq),
                lambda t: tuple(sorted(degrees(t), reverse=True)) == seq.values,
            )

    @pytest.mark.parametrize("claim_id", sorted(RELOCATION_CLAIMS))
    def test_relocation_tallies_match_unfiltered_sweep(self, claim_id):
        # The claim skips small orders and low maximum degrees before any
        # tree is built; a brute-force sweep over every tree of every order
        # from 2 must give the same counts and every witness, move for move.
        r = verify(claim_id, witness_cap=None)
        checked, moves = _brute_relocation_sweep(
            r.params["n_max"], *RELOCATION_CLAIMS[claim_id], classes=_canonical_classes
        )
        assert (r.checked, r.violations) == (checked, len(moves))
        assert list(r.witnesses) == moves

    @pytest.mark.parametrize("claim_id", ["sigma-ordered", "perm-example"])
    def test_spine_claims_build_no_caterpillar(self, claim_id, monkeypatch):
        from treeirr import claims, degseq

        calls = []
        build = degseq.caterpillar

        def counted(spine):
            calls.append(spine)
            return build(spine)

        verify(claim_id)
        monkeypatch.setattr(degseq, "caterpillar", counted)
        monkeypatch.setattr(claims, "caterpillar", counted, raising=False)
        warm = verify(claim_id)
        assert calls == []
        assert warm.checked > 0
        # The counter does see the builder when it runs.
        degseq.caterpillar((2, 2))
        assert calls == [(2, 2)]

    # caterpillar-support builds each (order, pendants) group's irr maxima
    # alone, of the 2,143 caterpillars of orders 2-14. The relocation
    # sweeps build each tree that the tally draws a witness from (25 kept
    # each) once, never a tree they only count.
    @pytest.mark.parametrize(
        "claim_id, builds",
        [
            ("caterpillar-support", 174),
            ("irr-decrease", 8),
            ("irr-decrease-bound", 10),
            ("sigma-decrease", 7),
            ("sigma-increase", 1),
        ],
    )
    def test_warm_claim_builds_only_kept_trees(self, claim_id, builds, monkeypatch):
        from treeirr import claims, enumeration

        builds_seen = []
        level_tree = enumeration._level_tree

        def counted(levels, code=None):
            builds_seen.append(len(levels))
            return level_tree(levels, code)

        verify(claim_id)
        monkeypatch.setattr(claims, "_level_tree", counted)
        monkeypatch.setattr(enumeration, "_level_tree", counted)
        verify(claim_id)
        assert len(builds_seen) == builds


class TestPermSearch:
    def test_formula_interpretation_frozen(self):
        r = perm_search((4, 8, 10, 14, 18, 20), "formula")
        assert len(r.evaluations) == 720
        assert (r.max_value, r.min_value) == (18434, 17354)
        assert r.argmax == ((10, 14, 18, 4, 20, 8),)
        assert r.argmin == ((20, 4, 8, 10, 14, 18),)
        assert r.reference == (14802, 14196)
        assert r.matches_reference_max is False
        assert r.matches_reference_min is False

    def test_caterpillar_interpretation_frozen(self):
        r = perm_search((4, 8, 10, 14, 18, 20), "caterpillar")
        assert len(r.evaluations) == 720
        assert (r.max_value, r.min_value) == (15236, 14344)
        assert len(r.argmax) == 2 and len(r.argmin) == 2
        assert r.matches_reference_max is False and r.matches_reference_min is False

    def test_caterpillar_values_against_direct_construction(self):
        r = perm_search((2, 2, 3), "caterpillar")
        values = dict(r.evaluations)
        assert values == {(2, 2, 3): 10, (2, 3, 2): 8, (3, 2, 2): 10}
        assert r.max_value >= r.min_value

    def test_all_equal_tuple(self):
        r = perm_search((1, 1, 1), "formula")
        assert len(r.evaluations) == 1
        assert r.max_value == r.min_value
        assert r.reference is None

    def test_multiset_ordering_count(self):
        r = perm_search((2, 2, 3, 3), "formula")
        assert len(r.evaluations) == 6

    def test_caterpillar_rejects_pendant_degrees(self):
        with pytest.raises(ValueError, match=">= 2"):
            perm_search((1, 2, 3), "caterpillar")

    def test_factorial_guard(self):
        with pytest.raises(EnumerationGuard):
            perm_search(tuple(range(2, 11)), "formula")

    def test_deterministic(self):
        a = perm_search((4, 8, 10, 14, 18, 20), "caterpillar")
        b = perm_search((4, 8, 10, 14, 18, 20), "caterpillar")
        assert a == b


class TestReport:
    def test_exit_statuses(self):
        ok = run_report(ReportConfig(claim_ids=("star-albertson", "sandwich"), n_max=6))
        assert exit_status(ok) == 0
        failing = run_report(ReportConfig(claim_ids=("hyp-four",)))
        assert exit_status(failing) == 1
        unknown = run_report(ReportConfig(claim_ids=("sandwich", "bogus"), n_max=5))
        assert unknown.errors == (("bogus", "unknown claim id"),)
        assert exit_status(unknown) == 2

    def test_results_sorted_and_complete(self):
        report = run_report(ReportConfig(n_max=5))
        ids = [r.claim_id for r in report.results]
        assert ids == sorted(ids)
        assert set(ids) == set(CLAIM_IDS)
        assert report.errors == ()

    def test_scaled_n_max_shrinks_sweeps(self):
        full = verify("sandwich")
        small = run_report(ReportConfig(claim_ids=("sandwich",), n_max=6)).results[0]
        assert small.params["n_max"] == 6
        assert small.checked < full.checked

    def test_byte_identical_reruns(self):
        config = ReportConfig(claim_ids=("irr-decrease", "table1", "sandwich"), n_max=6)
        a = report_to_text(run_report(config))
        b = report_to_text(run_report(config))
        assert a == b
        ja = report_to_json(run_report(config))
        jb = report_to_json(run_report(config))
        assert ja == jb

    def test_jobs_stub_takes_only_one(self):
        # The benchmark worker's exact call still constructs; any other
        # value is refused, since reports run in one process.
        assert ReportConfig(deterministic=True, jobs=1) == ReportConfig()
        with pytest.raises(ValueError, match="jobs must be 1, got 2"):
            ReportConfig(jobs=2)

    def test_negative_witness_cap_is_a_claim_error(self):
        report = run_report(ReportConfig(claim_ids=("irr-decrease", "table1"), witness_cap=-1))
        assert report.results == ()
        message = "ValueError: witness_cap must be >= 0 or None, got -1"
        assert report.errors == (("irr-decrease", message), ("table1", message))
        assert exit_status(report) == 1

    def test_json_shape(self):
        report = run_report(ReportConfig(claim_ids=("table1",)))
        payload = json.loads(report_to_json(report))
        assert payload["results"][0]["claim"] == "table1"
        assert payload["results"][0]["verdict"] == "holds-with-notes"
        assert "wall_time_s" not in payload["results"][0]

    def test_witness_cap_and_text(self):
        r = verify("sigma-ordered", {"n_max": 4, "deg_max": 5}, witness_cap=5)
        assert len(r.witnesses) == 5 < r.violations
        text = result_to_text(r)
        assert f"witnesses: first 5 of {r.violations}" in text
        assert DEFAULT_WITNESS_CAP == 25

    def test_timings_never_in_deterministic_output(self):
        for deterministic in (True, False):
            report = run_report(ReportConfig(claim_ids=("table1",), deterministic=deterministic))
            for text in (report_to_text(report), report_to_json(report)):
                assert ("wall_time_s" in text) is not deterministic

    def test_timings_shown_on_request(self):
        r = verify("table1")
        assert "wall_time_s:" in result_to_text(r, include_timings=True)

    def test_default_report_matches_golden_files(self):
        # Pinned bytes of `treeirr report --deterministic` (text and --json)
        # with the backend and Python version masked.
        report = run_report(ReportConfig())
        text = re.sub(r"^meta: .*$", "meta: <masked>", report_to_text(report), count=1, flags=re.M)
        assert text == (DATA / "report_default.txt").read_text(encoding="utf-8")
        payload = json.loads(report_to_json(report))
        payload["metadata"].update(kernel_backend="<masked>", python="<masked>")
        masked = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert masked == (DATA / "report_default.json").read_text(encoding="utf-8")

    def test_uncapped_report_digest(self):
        # Every one of the 8,999 witnesses of the default report, in order,
        # with the metadata masked as in the golden files.
        payload = json.loads(report_to_json(run_report(ReportConfig(witness_cap=None))))
        assert sum(len(r["witnesses"]) for r in payload["results"]) == 8999
        payload["metadata"].update(kernel_backend="<masked>", python="<masked>")
        masked = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(masked.encode()).hexdigest() == UNCAPPED_REPORT_SHA256

    def test_report_reaches_each_claim_through_verify_once(self, monkeypatch):
        # The benchmark tracer opens its per-claim spans on the module
        # attribute `claims.verify`, so run_report must call it once per id.
        import treeirr.claims as claims_module

        calls = []
        real = claims_module.verify

        def counting(claim_id, *args, **kwargs):
            calls.append(claim_id)
            return real(claim_id, *args, **kwargs)

        monkeypatch.setattr(claims_module, "verify", counting)
        report = run_report(ReportConfig(n_max=5))
        assert sorted(calls) == sorted(CLAIM_IDS)
        assert [r.claim_id for r in report.results] == sorted(CLAIM_IDS)

    def test_golden_record_format(self):
        # Frozen stable text for two hand-countable claims: star sizes
        # 3..5, and the six (d3, d4) pairs with 4 <= d3 <= d4 <= 6.
        assert result_to_text(verify("star-albertson", {"n_max": 5})) == (
            "claim: star-albertson\n"
            "params: n_max=5\n"
            "verdict: holds\n"
            "checked: 3\n"
            "violations: 0"
        )
        assert result_to_text(verify("cor3-part1", {"d_max": 6})) == (
            "claim: cor3-part1\n"
            "params: d_max=6\n"
            "verdict: holds\n"
            "checked: 6\n"
            "violations: 0"
        )
