import hashlib
import json
import re
import time
from collections import Counter
from itertools import combinations_with_replacement
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
    strong_support_vertices,
    total_irregularity_by_sequence,
)
from treeirr.claims import (
    CATALOG,
    CLAIM_IDS,
    DEFAULT_WITNESS_CAP,
    STAR_LEAF_MAX,
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
from treeirr.claims import (
    _caterpillar_row,
    _extremes,
    _irr_change,
    _pendant_neighbours,
    _row_index,
    _sequence_ranges,
    _sigma_change,
    _tree_relocations,
)
from treeirr.degseq import caterpillar
from treeirr.enumeration import (
    CODE_CAP,
    EnumerationGuard,
    _parent_tree,
    _row_code,
    _rows_reaching,
    tree_degree_sequences,
    trees_with_degree_sequence,
)
from treeirr.formulas import sigma_ordered_value
from treeirr.indices import total_irregularity_by_degrees

from _brute import (
    _degrees_parents,
    brute_indices,
    class_trees,
    irr_change_by_class,
    levels_to_edges,
    realized_by_sequence,
    relocate_leaf,
    sigma_change_by_class,
    spanning_trees,
    unlabeled_tree_count,
)

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

        def no_work(n, lam):
            raise AssertionError("swept with a negative cap")

        monkeypatch.setattr(claims, "_rows_reaching", no_work)
        with pytest.raises(ValueError, match=f"witness_cap must be >= 0 or None, got {cap}"):
            verify("irr-decrease", {"n_max": 6}, witness_cap=cap)

    @pytest.mark.parametrize("claim_id", ["irr-decrease", "caterpillar-support", "sandwich"])
    def test_zero_cap_codes_nothing(self, claim_id, monkeypatch):
        # A cap with no room draws no witness, so no row is coded: the
        # witness records are lazy, and the relocation sweeps keep no row
        # for them. sandwich fails under the injected identity faults.
        from treeirr import _kernels

        if claim_id == "sandwich":
            _inject_identity_faults(monkeypatch)
        calls = []
        code = _kernels.level_code
        monkeypatch.setattr(_kernels, "level_code", lambda levels: calls.append(1) or code(levels))
        r = verify(claim_id, witness_cap=0)
        assert (r.verdict, r.witnesses) == ("fails", ())
        assert r.violations > 0
        assert calls == []
        # The counter does see the coding when a witness is drawn.
        assert len(verify(claim_id, witness_cap=1).witnesses) == 1
        assert calls

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

    @pytest.mark.parametrize("claim_id", ["star-albertson", "star-iso-sum"])
    def test_leaf_guard_before_any_star(self, claim_id, monkeypatch):
        # A sweep to k leaves does O(k^2) work, so a leaf count above the
        # guard is refused before the first star is built; the guard itself
        # is checked at once.
        from treeirr import claims

        stars = []
        build = claims.star

        def counted_star(k):
            stars.append(k)
            return build(k)

        monkeypatch.setattr(claims, "star", counted_star)
        for n_max in (STAR_LEAF_MAX + 1, 100_000_000):
            with pytest.raises(EnumerationGuard, match=f"leaf count {n_max} above guard 1000"):
                verify(claim_id, {"n_max": n_max})
        assert stars == []
        r = verify(claim_id, {"n_max": STAR_LEAF_MAX})
        assert (r.verdict, r.checked) == ("holds", STAR_LEAF_MAX - 2)
        assert stars[0] == 3 and stars[-1] == STAR_LEAF_MAX

    def test_cor3_part1_holds(self):
        r = verify("cor3-part1", {"d_max": 40})
        assert r.verdict == "holds"
        assert r.checked == sum(1 for a in range(4, 41) for _ in range(a, 41))

    @pytest.mark.parametrize(
        "claim_id, params, witnesses",
        [
            (
                "star-albertson",
                {"n_max": 8},
                [
                    {"leaves": 4, "got": 13, "want": 12},
                    {"leaves": 6, "got": 31, "want": 30},
                    {"leaves": 8, "got": 57, "want": 56},
                ],
            ),
            (
                "star-iso-sum",
                {"n_max": 8},
                [
                    {"leaves": 4, "got": 26, "want": 24},
                    {"leaves": 6, "got": 62, "want": 60},
                    {"leaves": 8, "got": 114, "want": 112},
                ],
            ),
            (
                "cor3-part1",
                {"d_max": 8},
                [
                    {"d3": 4, "d4": 5},
                    {"d3": 4, "d4": 8},
                    {"d3": 5, "d4": 7},
                    {"d3": 6, "d4": 6},
                    {"d3": 7, "d4": 8},
                ],
            ),
        ],
        ids=["star-albertson", "star-iso-sum", "cor3-part1"],
    )
    def test_forced_violations_pin_witnesses(self, claim_id, params, witnesses, monkeypatch):
        # These claims hold, so no golden file shows their witnesses. A star
        # with an even leaf count gets irr one too high, and a pair whose
        # sum is a multiple of 3 fails the log bound; every case is counted
        # and the first `cap` witnesses are kept, in case order.
        from treeirr import claims

        real = claims.compute_indices

        def off_by_one(t):
            bundle = real(t)
            return bundle._replace(irr=bundle.irr + t.n % 2)

        monkeypatch.setattr(claims, "compute_indices", off_by_one)
        monkeypatch.setattr(claims, "log_bound_holds", lambda d3, d4: (d3 + d4) % 3 != 0)
        checked = 6 if claim_id.startswith("star") else 15
        for cap, kept in [(2, witnesses[:2]), (None, witnesses)]:
            r = verify(claim_id, params, witness_cap=cap)
            assert (r.verdict, r.checked, r.violations) == ("fails", checked, len(witnesses))
            assert list(r.witnesses) == kept

    @pytest.mark.parametrize(
        "claim_id, params, message",
        [
            ("sigma-ordered", {"deg_max": 30}, "38607990 spines"),
            ("cor3-part1", {"d_max": 20_000}, "199950003 pairs"),
        ],
        ids=["sigma-ordered", "cor3-part1"],
    )
    def test_arithmetic_sweep_guarded(self, claim_id, params, message, monkeypatch):
        # The case count is computed up front and refused above CODE_CAP
        # before the first case is checked: the first case's check raises,
        # so a cap that lets the sweep start fails here at once.
        from treeirr import claims

        def first_case(*args):
            raise AssertionError("a case was checked above the cap")

        monkeypatch.setattr(claims, "log_bound_holds", first_case)
        monkeypatch.setattr(claims, "sigma_ordered_value", first_case)
        start = time.perf_counter()
        with pytest.raises(EnumerationGuard, match=f"^{message} above the cap of {CODE_CAP}$"):
            verify(claim_id, params)
        assert time.perf_counter() - start < 1

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

    def test_sigma_ordered_witnesses_match_eager_sweep(self):
        # Every violation counted, every witness in spine order uncapped,
        # the first cap of them capped.
        checked, witnesses = _eager_sigma_ordered(8, 7)
        assert checked == 2996 and len(witnesses) > DEFAULT_WITNESS_CAP
        uncapped = verify("sigma-ordered", witness_cap=None)
        assert (uncapped.checked, uncapped.violations) == (checked, len(witnesses))
        assert list(uncapped.witnesses) == witnesses
        capped = verify("sigma-ordered")
        assert (capped.checked, capped.violations) == (checked, len(witnesses))
        assert list(capped.witnesses) == witnesses[:DEFAULT_WITNESS_CAP]

    def test_sigma_ordered_builds_only_kept_witnesses(self, monkeypatch):
        # Each spine's sigma is read once, and once more for each witness
        # the cap keeps.
        from treeirr import claims

        calls = []
        sigma = claims.caterpillar_sigma

        def counted(spine):
            calls.append(spine)
            return sigma(spine)

        monkeypatch.setattr(claims, "caterpillar_sigma", counted)
        r = verify("sigma-ordered")
        assert r.violations > DEFAULT_WITNESS_CAP
        assert len(calls) == r.checked + DEFAULT_WITNESS_CAP


def _eager_sigma_ordered(n_max, deg_max):
    """Test-local rerun of sigma-ordered on built caterpillars.

    Builds each non-decreasing spine's caterpillar and reads its sigma with
    ``compute_indices``. Returns the number of spines and the claim's
    witness dicts of the failing ones, in spine order.
    """
    checked = 0
    witnesses = []
    for k in range(2, n_max + 1):
        for spine in combinations_with_replacement(range(2, deg_max + 1), k):
            checked += 1
            t = caterpillar(spine)
            sigma = compute_indices(t).sigma
            value = sigma_ordered_value(spine)
            if value != sigma:
                witnesses.append({"spine": str(spine), "formula": value, "sigma": sigma, "order": t.n})
    return checked, witnesses


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


def _class_moves(deg, parent, support_filter=False):
    """The moves of the per-support records of a layout, expanded in sweep order.

    ``deg`` and ``parent`` describe a level-sequence layout; every support
    of degree >= 3 is admissible. The layout is walked once per index, and
    the two walks' records must agree on all but their changes. The records
    are held to the tree of the parent edges, built by the validating
    constructor, which the function returns with the moves ``(y, donor,
    recipient, side, (irr change, sigma change))``.
    """
    n = len(deg)
    t = Tree(n, [(parent[i], i) for i in range(1, n)])
    top = max(deg)
    ties = deg.count(top)
    moves = []
    irr_records, sigma_records = (
        [
            record
            for _, _, row_records in _tree_relocations(
                [(deg, parent)], 3, top, support_filter, change
            )
            for record in row_records
        ]
        for change in (_irr_change, _sigma_change)
    )
    for irr_record, sigma_record in zip(irr_records, sigma_records, strict=True):
        y, lam, side, donors, irr_leaf, irr_inner = irr_record
        assert sigma_record[:4] == (y, lam, side, donors)
        sigma_leaf, sigma_inner = sigma_record[4:]
        assert (irr_leaf is None) == (sigma_leaf is None)
        assert [r for r, _ in irr_inner] == [r for r, _ in sigma_inner]
        leaf_change = None if irr_leaf is None else (irr_leaf, sigma_leaf)
        inner = [(r, (d_irr, d_sigma)) for (r, d_irr), (_, d_sigma) in zip(irr_inner, sigma_inner)]
        assert lam == len(t.adjacency[y])
        assert donors == [w for w in t.adjacency[y] if len(t.adjacency[w]) == 1]
        # Only two donors or more share a leaf change; a lone donor is no recipient.
        assert (leaf_change is None) == (len(donors) == 1)
        assert [r for r, _ in inner] == [r for r in t.adjacency[y] if len(t.adjacency[r]) > 1]
        leaves = [] if leaf_change is None else [(d, leaf_change) for d in donors]
        deltas = dict(sorted(leaves + inner))
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


def _count_builds(monkeypatch):
    # From here on: the order of every edge text the witness-record
    # generator builds (one per record it yields), and of every tree built
    # through _parent_tree.
    from treeirr import claims, enumeration

    texts, trees = [], []
    records, parent_tree = enumeration._witness_records, enumeration._parent_tree

    def counted_records(items):
        for record in records(items):
            texts.append(len(record[2][0]))
            yield record

    def counted_tree(parent, code=None):
        trees.append(len(parent))
        return parent_tree(parent, code)

    monkeypatch.setattr(claims, "_witness_records", counted_records)
    monkeypatch.setattr(enumeration, "_parent_tree", counted_tree)
    return texts, trees


class TestEnumerationOnce:
    def test_sequence_extremes_match_realization(self):
        # The claims' per-sequence extremes come from one grouped pass over
        # each order's table rows, and extremal reads its class's rows; the
        # Prüfer realization enumerator stays their independent oracle.
        # extremal_over_class must give the same optimum and the same
        # witness codes in ascending order, each witness edge list a tree
        # of its code.
        for n in range(1, 11):
            ranges = {index: _sequence_ranges(n, index) for index in ("irr", "sigma")}
            for seq, realized in realized_by_sequence(n).items():
                oracle = [(code.decode("ascii"), compute_indices(t)) for code, t in realized]
                for attr in ("irr", "sigma"):
                    values = [getattr(b, attr) for _, b in oracle]
                    assert ranges[attr][seq.values] == (min(values), max(values)), (seq, attr)
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
            assert set(ranges["irr"]) == {seq.values for seq in tree_degree_sequences(n)}

    def test_report_generates_each_order_once(self, monkeypatch):
        # Each order a report reaches is filled once, with all its rows,
        # whether the packed file or the generator holds it.
        from treeirr import degseq, enumeration

        orders, decodes = [], []
        fill, prufer = enumeration._order_rows, degseq.prufer_decode

        def counted_rows(n):
            degs, parents = fill(n)
            orders.append((n, len(parents) // n))
            return degs, parents

        def counted_decode(code, n):
            decodes.append(n)
            return prufer(code, n)

        monkeypatch.setattr(enumeration, "_TABLES", {})
        monkeypatch.setattr(enumeration, "_order_rows", counted_rows)
        for module in (degseq, enumeration):
            monkeypatch.setattr(module, "prufer_decode", counted_decode)
        report = run_report(ReportConfig(n_max=10))
        assert report.errors == ()
        assert sorted(orders) == [(n, unlabeled_tree_count(n)) for n in range(1, 11)]
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
        # filled, not after sweeping every order below it.
        from treeirr import enumeration

        orders = []
        fill = enumeration._order_rows

        def counted_rows(n):
            degs, parents = fill(n)
            orders.append((n, len(parents) // n))
            return degs, parents

        monkeypatch.setattr(enumeration, "_TABLES", {})
        monkeypatch.setattr(enumeration, "_order_rows", counted_rows)
        with pytest.raises(EnumerationGuard, match="order 17 outside guard range 1..16"):
            verify(claim_id, {"n_max": 17})
        assert orders == []

    def test_report_reads_each_tree_once(self, monkeypatch):
        # A cold default report fills each tree of orders 1-14, the orders
        # it reaches, exactly once: 5,447 rows.
        from treeirr import enumeration

        calls = []
        fill = enumeration._order_rows

        def counted(n):
            degs, parents = fill(n)
            calls.extend([n] * (len(parents) // n))
            return degs, parents

        monkeypatch.setattr(enumeration, "_TABLES", {})
        monkeypatch.setattr(enumeration, "_order_rows", counted)
        report = run_report(ReportConfig())
        assert report.errors == ()
        assert Counter(calls) == {n: unlabeled_tree_count(n) for n in range(1, 15)}
        assert sorted(enumeration._TABLES) == list(range(1, 15))
        assert len(calls) == 5447

    def test_cold_report_generates_nothing(self, monkeypatch):
        # Orders 1-14 come from the packed file: a default report in a
        # fresh process reads the file and never runs the generator.
        from treeirr import _kernels, enumeration

        calls = []
        generate = _kernels.order_rows
        monkeypatch.setattr(_kernels, "order_rows", lambda n: calls.append(n) or generate(n))
        monkeypatch.setattr(enumeration, "_TABLES", {})
        monkeypatch.setattr(enumeration, "_PACKED", {})
        report = run_report(ReportConfig())
        assert report.errors == ()
        assert calls == []
        assert sorted(enumeration._TABLES) == list(range(1, 15))
        assert sorted(enumeration._PACKED) == list(range(1, 15))

    def test_orders_past_the_file_are_generated_once(self, monkeypatch, capsys):
        # verify --n-max 16 reaches orders 12-16 (a move needs degree 11),
        # and the packed file does not hold 15 and 16: the generator fills
        # each of them once, and a second run in the same process
        # generates nothing.
        from treeirr import _kernels, enumeration
        from treeirr.cli import main

        calls = []
        generate = _kernels.order_rows
        monkeypatch.setattr(_kernels, "order_rows", lambda n: calls.append(n) or generate(n))
        monkeypatch.setattr(enumeration, "_TABLES", {})
        argv = ["verify", "--claim", "sigma-increase", "--n-max", "16"]
        for _ in ("cold", "warm"):
            assert main(argv) == 1
            assert "verdict: fails\nchecked: 5609\n" in capsys.readouterr().out
        assert calls == [15, 16]
        assert sorted(enumeration._TABLES) == [12, 13, 14, 15, 16]

    def test_cold_report_codes_only_output_trees(self, monkeypatch):
        # A cold default report codes only the 62 rows whose witnesses it
        # may keep: 26 caterpillar-support maxima, 13 + 13 + 9 + 1
        # relocation rows. No claim codes a whole order, and every order's
        # table stays as generated.
        from treeirr import _kernels, enumeration

        calls = []
        level_code = _kernels.level_code

        def counted(levels):
            calls.append(len(levels))
            return level_code(levels)

        monkeypatch.setattr(enumeration, "_TABLES", {})
        monkeypatch.setattr(_kernels, "level_code", counted)
        report = run_report(ReportConfig())
        assert report.errors == ()
        rows = Counter({2: 1, 4: 1, 5: 1, 6: 3, 7: 6, 8: 18, 9: 18, 10: 4, 11: 4, 12: 6})
        assert Counter(calls) == rows
        assert len(calls) == 62
        assert enumeration._TABLES == {n: _kernels.order_rows(n) for n in range(1, 15)}

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
        # edges, no coding of a built tree; each comes with its code.
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

        monkeypatch.setattr(enumeration, "_TABLES", {})
        monkeypatch.setattr(Tree, "__init__", counted_init)
        monkeypatch.setattr(tree, "_sorted_adjacency", counted_adjacency)
        monkeypatch.setattr(_kernels, "canon_code", counted_canon)
        cold = list(all_trees(10))
        assert 10 in enumeration._TABLES
        warm = list(all_trees(10))
        assert [t.adjacency for t in warm] == [t.adjacency for t in cold]
        assert [canonical_code(t) for t in warm] == [t._code for t in cold]
        assert calls == []
        assert warm == cold and len(cold) == 106
        # The counters do see each fallback when it runs.
        Tree(2, [(0, 1)])
        uncoded = Tree._unchecked(2, [(0, 1)])
        uncoded.adjacency
        canonical_code(uncoded)
        assert calls == ["__init__", "_sorted_adjacency", "_sorted_adjacency", "canon_code"]


def _fill(orders, how):
    # Empty the order tables, then fill each order: "generated" as every
    # caller fills it, in generation order, and "reversed" with its rows
    # reversed, an order no caller makes: no output may depend on row
    # order at all.
    from treeirr import enumeration

    enumeration._TABLES.clear()
    for n in orders:
        rows = list(_rows_reaching(n, 0))
        if how == "reversed":
            rows.reverse()
            enumeration._TABLES[n] = tuple(b"".join(blobs) for blobs in zip(*rows))


class TestFillOrder:
    # Outputs must not depend on the order of a table's rows: each is
    # computed on the generated rows and on the same rows reversed, the
    # tables emptied for each, and both must be identical.

    @pytest.fixture(autouse=True)
    def own_tables(self, monkeypatch):
        from treeirr import enumeration

        monkeypatch.setattr(enumeration, "_TABLES", {})

    @pytest.mark.parametrize("n", range(1, 13))
    def test_extremes_and_ranges(self, n):
        from treeirr import enumeration

        classes = [TreeClass(n), TreeClass(n, caterpillar_only=True)]
        classes += [TreeClass(n, delta=delta) for delta in range(2, n)]
        classes += [TreeClass(n, degree_sequence=seq) for seq in tree_degree_sequences(n)]

        def outputs():
            found = [
                extremal_over_class(klass, index, objective)
                for klass in classes
                for index in ("irr", "sigma", "irr_T")
                for objective in ("min", "max")
            ]
            ranges = [_sequence_ranges(n, index) for index in ("irr", "sigma", "irr_T")]
            return found, ranges

        _fill([n], "generated")
        table = enumeration._TABLES[n]
        want = outputs(), [(t.edges, t._code) for t in all_trees(n)]
        assert enumeration._TABLES[n] is table
        # From order 5 on, generation order is not code order.
        parents = [parent for _, parent in _rows_reaching(n, 0)]
        assert (parents != sorted(parents, key=_row_code)) is (n >= 5)
        _fill([n], "reversed")
        assert (outputs(), [(t.edges, t._code) for t in all_trees(n)]) == want

    @pytest.mark.parametrize(
        "claim_id",
        [
            "caterpillar-support",
            "irr-decrease",
            "irr-decrease-bound",
            "sigma-decrease",
            "sigma-increase",
        ],
    )
    def test_witness_claims(self, claim_id):
        def outputs():
            return [
                result_to_text(verify(claim_id, {"n_max": 12}, witness_cap=cap))
                for cap in (None, 5, DEFAULT_WITNESS_CAP)
            ]

        _fill(range(1, 13), "generated")
        want = outputs()
        _fill(range(1, 13), "reversed")
        assert outputs() == want
        assert "witness: " in want[0]


# The row reader's index names and the bundle attributes they read.
ROW_INDICES = (("irr", "irr"), ("sigma", "sigma"), ("irr_T", "irr_t"))


class TestRowReaders:
    # _row_index applies the definitions to a table row's degrees and
    # parents; compute_indices of the built tree and the brute-force
    # definitions are its oracles. _extremes groups those values in one
    # pass; the per-sequence class filter plus compute_indices is its.
    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_index_is_the_bundle(self, n):
        for deg, parent in _rows_reaching(n, 0):
            t = _parent_tree(parent)
            bundle, brute = compute_indices(t), brute_indices(n, t.edges)
            for index, attr in ROW_INDICES:
                got = _row_index(deg, parent, index)
                assert got == getattr(bundle, attr) == brute[index], (parent, index)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity_claim_readers(self, n):
        # Every value the four identity claims read off a row: irr and sigma
        # over the edges (i, parent[i]), irr_T and M1 as degree-class sums,
        # the M1 edge sum over (i, parent[i]) and the sequence formula on
        # the degrees, each against the built tree's bundle and the brute
        # definitions.
        for deg, parent in _rows_reaching(n, 0):
            t = _parent_tree(parent)
            bundle, brute = compute_indices(t), brute_indices(n, t.edges)
            for index, attr in ROW_INDICES + (("m1", "m1"),):
                got = _row_index(deg, parent, index)
                assert got == getattr(bundle, attr) == brute[index], index
            tree_deg = degrees(t)
            edge_sum = sum(tree_deg[u] + tree_deg[v] for u, v in t.edges)
            assert _row_index(deg, parent, "edge_sum") == edge_sum, parent
            by_degrees = total_irregularity_by_degrees(deg)
            assert by_degrees == total_irregularity_by_sequence(t) == brute["irr_T"], parent

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pendant_neighbours_give_strong_supports(self, n):
        # Both readings of a strong support vertex, off a row's parents,
        # against strong_support_vertices of the built tree.
        for _, parent in _rows_reaching(n, 0):
            count = _pendant_neighbours(parent)
            t = _parent_tree(parent)
            for m in (1, 2):
                got = frozenset(v for v, c in enumerate(count) if c >= m)
                assert got == strong_support_vertices(t, min_leaves=m), (parent, m)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_grouped_extremes_match_per_sequence_filter(self, n):
        by_seq = {}
        for seq in tree_degree_sequences(n):
            rows = TreeClass(n, degree_sequence=seq)._rows()
            by_seq[seq.values] = [(p, compute_indices(_parent_tree(p))) for _, p in rows]
        sorted_degrees = lambda deg, parent: tuple(sorted(deg, reverse=True))
        for index, attr in ROW_INDICES:
            found = _extremes(_rows_reaching(n, 0), sorted_degrees, index)
            assert set(found["min"]) == set(found["max"]) == set(by_seq)
            for values, rows in by_seq.items():
                for objective, pick in (("min", min), ("max", max)):
                    best = pick(getattr(b, attr) for _, b in rows)
                    want = (best, [p for p, b in rows if getattr(b, attr) == best])
                    assert found[objective][values] == want, (values, index, objective)
            assert _sequence_ranges(n, index) == {
                values: (found["min"][values][0], found["max"][values][0]) for values in by_seq
            }


def _irr_fault(irr):
    return irr * 100 if irr % 3 == 1 else irr


def _class_sums_fault(sums):
    irr_t, m1 = sums
    return irr_t + 1 if irr_t % 5 == 2 else irr_t, m1 + 2 if m1 % 4 == 2 else m1


def _identity_oracle(claim_id, n_max):
    # The four identity claims as they read before they filtered the table:
    # every tree of all_trees(n) through compute_indices, which runs the
    # patched kernel, with the same irr fault. Returns (checked, witnesses).
    from treeirr.cli import _edges_str

    checked, witnesses = 0, []
    for n in range(2 if claim_id == "irr-upper-tree" else 1, n_max + 1):
        for t in all_trees(n):
            checked += 1
            b = compute_indices(t)
            irr, tree = _irr_fault(b.irr), _edges_str(t)
            if claim_id == "sandwich":
                if not (b.sigma <= irr ** 2 and irr ** 2 <= (n - 1) * b.sigma):
                    witnesses.append({"tree": tree, "irr": irr, "sigma": b.sigma})
            elif claim_id == "irr-upper-tree":
                if irr > (n - 1) * (n - 2):
                    witnesses.append({"tree": tree, "irr": irr, "bound": (n - 1) * (n - 2)})
            elif claim_id == "irrT-seq-formula":
                by_seq = total_irregularity_by_sequence(t)
                if b.irr_t != by_seq:
                    witnesses.append({"tree": tree, "pairwise": b.irr_t, "sequence": by_seq})
            else:
                tree_deg = degrees(t)
                edge_sum = sum(tree_deg[u] + tree_deg[v] for u, v in t.edges)
                if b.m1 != edge_sum:
                    witnesses.append({"tree": tree, "m1": b.m1, "edge_sum": edge_sum})
    return checked, witnesses


def _inject_identity_faults(monkeypatch):
    # The irr and degree-class faults under which the identity claims fail.
    from treeirr import _kernels, claims

    sums, row_index = _kernels.degree_class_sums, claims._row_index

    def faulty_sums(deg):
        return _class_sums_fault(sums(deg))

    def faulty_row_index(deg, parent, index):
        value = row_index(deg, parent, index)
        return _irr_fault(value) if index == "irr" else value

    monkeypatch.setattr(_kernels, "degree_class_sums", faulty_sums)
    monkeypatch.setattr(claims, "degree_class_sums", faulty_sums)
    monkeypatch.setattr(claims, "_row_index", faulty_row_index)


class TestIdentityClaims:
    # The four identity claims read rows and build only drawn witnesses;
    # under injected faults that make each fail, their counts and witnesses,
    # capped and uncapped, must be the oracle's over all_trees, in order.

    @pytest.mark.parametrize(
        "claim_id", ["sandwich", "irr-upper-tree", "irrT-seq-formula", "m1-edge-identity"]
    )
    def test_faulty_witnesses_match_all_trees(self, claim_id, monkeypatch):
        _inject_identity_faults(monkeypatch)
        results = {cap: verify(claim_id, witness_cap=cap) for cap in (3, None)}
        checked, want = _identity_oracle(claim_id, results[None].params["n_max"])
        assert len(want) > 3
        for cap, r in results.items():
            assert (r.verdict, r.checked, r.violations) == ("fails", checked, len(want))
            assert list(r.witnesses) == want[:cap]


class TestRelocationDeltas:
    # _tree_relocations reads a level-sequence layout's degrees and parents:
    # as lists from the brute reader _degrees_parents and as the bytes
    # slices of the order's table, the root's parent being 0 in both.

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_prufer_trees(self, data):
        # Random Prüfer trees up to order 60, laid out from a random root.
        n = data.draw(st.integers(4, 60))
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        root = data.draw(st.integers(0, n - 1))
        levels = _preorder_levels(prufer_decode(code, n), root, data.draw(st.randoms()))
        t, moves = _class_moves(*_degrees_parents(levels))
        assert t == Tree(n, levels_to_edges(levels))
        assert [m[:3] for m in moves] == _admissible_moves(t)
        _assert_matches_recompute(t, moves)

    def test_every_move_up_to_order_nine(self):
        for n in range(2, 10):
            for deg, parent in _rows_reaching(n, 0):
                t, moves = _class_moves(deg, parent)
                assert [m[:3] for m in moves] == _admissible_moves(t)
                _assert_matches_recompute(t, moves)
                # The support filter drops exactly the moves off a support alone
                # at the maximum degree.
                _, kept = _class_moves(deg, parent, support_filter=True)
                assert kept == [m for m in moves if m[3] != "unfiltered"]
                # Lists give the same records as the table's bytes.
                assert _class_moves(list(deg), list(parent)) == (t, moves)

    def test_lone_donor_is_not_a_recipient(self):
        # Support 0 has one leaf neighbor (1); its other neighbors 2 and 4
        # are inner vertices, so the leaf can only move to 2 or 4.
        levels = (0, 1, 1, 2, 1, 2)
        deg, parent = _degrees_parents(levels)
        for change in (_irr_change, _sigma_change):
            [(_, _, records)] = _tree_relocations([(deg, parent)], 3, 3, False, change)
            [(y, lam, side, donors, leaf_change, inner)] = records
            assert (y, lam, side, donors) == (0, 3, "unfiltered", [1])
            assert leaf_change is None
            assert [r for r, _ in inner] == [2, 4]
        t, moves = _class_moves(deg, parent)
        assert t == Tree(len(levels), levels_to_edges(levels))
        assert t.edges == ((0, 1), (0, 2), (0, 4), (2, 3), (4, 5))
        assert [m[:3] for m in moves] == [(0, 1, 2), (0, 1, 4)]
        _assert_matches_recompute(t, moves)

    def test_order_23_sigma_increase_counterexample(self):
        # Two supports of degree 11 with 10 leaves each, joined through a
        # vertex r of degree 2: every move onto r lowers sigma by 316, with
        # the support tied at the maximum degree.
        levels = (0,) + (1,) * 10 + (1, 2) + (3,) * 10
        deg, parent = _degrees_parents(levels)
        for change, want in ((_irr_change, -20), (_sigma_change, -316)):
            [(_, _, records)] = _tree_relocations([(deg, parent)], 11, 11, True, change)
            supports = [(y, lam, side) for y, lam, side, _, _, _ in records]
            assert supports == [(0, 11, "tied"), (12, 11, "tied")]
            for _, _, _, _, _, inner in records:
                assert dict(inner)[11] == want
            assert change(11, 2, 9, 0, 11, 0) == want
        t = Tree(len(levels), levels_to_edges(levels))
        moved = relocate_leaf(t, 0, 1, 11)[0]
        assert (compute_indices(t).sigma, compute_indices(moved).sigma) == (2162, 1846)
        assert _class_moves(deg, parent)[0] == t
        _assert_matches_recompute(t, _class_moves(deg, parent)[1])

    def test_reduced_changes_match_class_sums(self):
        # Every lambda 3-20, recipient degree 1-20 and count of W at >= lambda
        # and of R at <= dr; each sum at both ends and the middle of its
        # feasible range with degrees up to 21 (dr 1 has R empty: le_r = sum_r = 0).
        top = 21
        checked = 0
        for lam in range(3, 21):
            for dr in range(1, 21):
                for ge_w in range(lam - 1):
                    low = ge_w * lam + (lam - 2 - ge_w)
                    high = ge_w * top + (lam - 2 - ge_w) * (lam - 1)
                    sums_w = {low, (low + high) // 2, high}
                    for le_r in range(dr):
                        low = le_r + (dr - 1 - le_r) * (dr + 1)
                        high = le_r * dr + (dr - 1 - le_r) * top
                        for sum_w in sums_w:
                            for sum_r in {low, (low + high) // 2, high}:
                                args = (lam, dr, sum_w, ge_w, sum_r, le_r)
                                assert _irr_change(*args) == irr_change_by_class(*args), args
                                assert _sigma_change(*args) == sigma_change_by_class(*args), args
                                checked += 1
        assert checked == 353_750

    def test_witnesses_built_only_while_kept(self, monkeypatch):
        calls, trees = _count_builds(monkeypatch)
        r = verify("irr-decrease", {"n_max": 10})
        assert r.violations > 2 * DEFAULT_WITNESS_CAP
        assert len(r.witnesses) == DEFAULT_WITNESS_CAP
        assert 0 < len(calls) <= DEFAULT_WITNESS_CAP
        assert trees == []

    def test_full_cap_keeps_no_row(self, monkeypatch):
        # The violating rows of an order are handed to the witness records
        # only while the cap has room, so a full cap holds none of them in
        # memory (16,801 at order 16 for irr-decrease).
        from treeirr import claims

        handed = []
        records = claims._witness_records
        monkeypatch.setattr(
            claims, "_witness_records", lambda items: handed.append(len(items)) or records(items)
        )
        uncapped = verify("irr-decrease", {"n_max": 10}, witness_cap=None)
        assert handed == [0, 0, 1, 2, 10, 24, 66]
        handed.clear()
        r = verify("irr-decrease", {"n_max": 10}, witness_cap=0)
        assert (r.checked, r.violations) == (uncapped.checked, uncapped.violations)
        assert handed == [0] * 7


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

    def test_sigma_increase_walks_only_rows_reaching_degree_11(self, monkeypatch):
        # Of the 5,011 rows of orders 12-14, only the 8 with a vertex of
        # degree >= 11 reach the relocation walk: 1, 2 and 5 per order.
        # The walk reads one more row for the witnesses, the 11-star the
        # tally draws all 25 from, right after order 12's sweep.
        from treeirr import claims

        handed = []
        walk = claims._tree_relocations

        def counted(rows, *bounds):
            rows = list(rows)
            handed.append(len(rows))
            return walk(rows, *bounds)

        monkeypatch.setattr(claims, "_tree_relocations", counted)
        r = verify("sigma-increase")
        assert r.params == {"n_max": 14}
        assert handed == [1, 1, 2, 5]

    @pytest.mark.parametrize(
        "claim_id, n_max, checked, violations, notes",
        [
            (
                "sigma-increase",
                16,
                5609,
                5609,
                [
                    "support below max degree: 0 moves, 0 violations",
                    "support tying max degree with another vertex: 0 moves, 0 violations",
                    "no side condition on the support vertex: 5609 moves, 5609 violations",
                    "a support vertex of degree >= 11 distinct from a maximum-degree vertex "
                    "needs order >= 23, so at this scale every move has the support vertex "
                    "alone at the maximum degree",
                ],
            ),
            (
                "sigma-decrease",
                14,
                61731,
                4821,
                [
                    "support below max degree: 6238 moves, 1310 violations",
                    "support tying max degree with another vertex: 11988 moves, 2164 violations",
                    "no side condition on the support vertex: 61731 moves, 4821 violations",
                ],
            ),
        ],
    )
    def test_sigma_relocation_tallies_past_default(
        self, claim_id, n_max, checked, violations, notes
    ):
        # Counts and notes beyond the default orders, as the full-table
        # sweep gave them before rows were skipped by degree.
        r = verify(claim_id, {"n_max": n_max})
        assert (r.verdict, r.checked, r.violations) == ("fails", checked, violations)
        assert list(r.notes) == notes


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
            for deg, parent in _rows_reaching(n, 0):
                got = _caterpillar_row(deg, parent)
                assert got == is_caterpillar(_parent_tree(parent)), parent
                seen[got] += 1
        assert seen == {True: 2144, False: 3303}

    def test_caterpillar_rows_match_harary_schwenk_count(self):
        # Harary & Schwenk (1973): 2^(n-4) + 2^floor((n-4)/2) caterpillars of
        # order n >= 4, and the one tree of each order below. Counted off the
        # table rows, with no tree built and no is_caterpillar.
        for n in range(1, 17):
            want = 1 if n <= 3 else 2 ** (n - 4) + 2 ** ((n - 4) // 2)
            got = sum(_caterpillar_row(deg, parent) for deg, parent in _rows_reaching(n, 0))
            assert got == want, n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tree_class_matches_brute_filter(self, n):
        from treeirr import is_caterpillar

        every = list(all_trees(n))
        delta_of = {t: max(degrees(t)) for t in every}

        def assert_class(klass, keep):
            got = class_trees(klass)
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

    def test_degree_classes_read_only_rows_reaching_their_top_degree(self, monkeypatch):
        # Of the 19,320 rows of order 16, a class with delta 12, or with a
        # sequence whose first entry is 12, reads the 12 with a vertex of
        # degree >= 12 and keeps those that match exactly.
        from treeirr import claims, validate_tree_sequence

        read = []
        reader = claims._rows_reaching

        def counted(n, lam):
            for row in reader(n, lam):
                read.append(lam)
                yield row

        monkeypatch.setattr(claims, "_rows_reaching", counted)
        seq = validate_tree_sequence([12, 4] + [1] * 14)
        for klass, kept in [(TreeClass(16, delta=12), 7), (TreeClass(16, degree_sequence=seq), 1)]:
            read.clear()
            assert len(list(klass._rows())) == kept
            assert read == [12] * 12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unconstrained_class_reads_the_table(self, n, monkeypatch):
        # A class with no constraint takes the one filter path, not
        # all_trees, which the claims do not import.
        from treeirr import claims, enumeration

        want = [t.edges for t in all_trees(n)]

        def no_all_trees(order):
            raise AssertionError(f"TreeClass({order}) read all_trees")

        monkeypatch.setattr(enumeration, "all_trees", no_all_trees)
        assert "all_trees" not in vars(claims)
        assert [t.edges for t in class_trees(TreeClass(n))] == want

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

    # caterpillar-support decides each (order, pendants) group's irr maxima,
    # of the 2,143 caterpillars of orders 2-14, on their rows and builds
    # the edge texts of only the 25 violating ones it keeps as witnesses.
    # The relocation sweeps build the edge text of each row that the tally
    # draws a witness from (25 kept each) once, never of a row they only
    # count. The per-sequence extremes, sigma-ordered's direct reading and
    # the four identity claims read their values off the rows and build
    # nothing. No claim builds a tree.
    @pytest.mark.parametrize(
        "claim_id, builds",
        [
            ("caterpillar-support", 25),
            ("irr-decrease", 8),
            ("irr-decrease-bound", 10),
            ("sigma-decrease", 7),
            ("sigma-increase", 1),
            ("three-c", 0),
            ("seq-monotonicity", 0),
            ("hyp-four", 0),
            ("sigma-five", 0),
            ("sigma-ordered", 0),
            ("sandwich", 0),
            ("irr-upper-tree", 0),
            ("irrT-seq-formula", 0),
            ("m1-edge-identity", 0),
        ],
    )
    def test_warm_claim_builds_only_kept_trees(self, claim_id, builds, monkeypatch):
        verify(claim_id)
        builds_seen, trees = _count_builds(monkeypatch)
        verify(claim_id)
        assert len(builds_seen) == builds
        assert trees == []

    def test_warm_extremal_builds_only_its_witnesses(self, monkeypatch):
        # Of the 3,159 trees of order 14, extremal builds the edge texts of
        # the witnesses alone, and no tree.
        extremal_over_class(TreeClass(14), "irr", "max")
        builds_seen, trees = _count_builds(monkeypatch)
        result = extremal_over_class(TreeClass(14), "irr", "max")
        assert len(builds_seen) == len(result.witnesses) >= 1
        assert trees == []


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
