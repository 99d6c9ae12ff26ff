"""Acceptance suite: every criterion checked at full size, exact arithmetic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Everything asserted here is an exact integer equality
or inequality; there are no tolerances anywhere.
"""

from itertools import product

from treeirr import (
    all_trees,
    canonical_code,
    caterpillar,
    compute_indices,
    degrees,
    path,
    prufer_decode,
    prufer_encode,
    star,
    total_irregularity_by_sequence,
)
from treeirr.claims import (
    TreeClass,
    extremal_over_class,
    load_fig2_tree,
    load_table1,
    perm_search,
    result_to_text,
    verify,
)
from treeirr.formulas import hyp_four_bounds_values

from _brute import all_trees_by_realization


class _Criterion:
    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.num:02d} {self.name}: {status}")
        return False


def test_01_star_law():
    with _Criterion(1, "star irregularity n(n-1), n = 3..50"):
        for n in range(3, 51):
            assert compute_indices(star(n)).irr == n * (n - 1)


def test_02_fixture_tree():
    with _Criterion(2, "fixture tree: irr 20, sigma 54, closed form agrees"):
        t = load_fig2_tree()
        deg = degrees(t)
        bundle = compute_indices(t)
        assert bundle.irr == 20
        assert bundle.sigma == 54
        display = sum(abs(deg[0] - deg[w]) for w in t.adjacency[0])
        display += 2 * abs(deg[3] - 1) + 3 * abs(deg[4] - 1)
        assert display == bundle.irr


def test_03_sandwich_with_cross_validated_enumerators():
    with _Criterion(3, "sigma <= irr^2 <= m*sigma, n <= 10, dual enumerators"):
        for n in range(1, 11):
            primary = [canonical_code(t) for t in all_trees(n)]
            realized = [canonical_code(t) for t in all_trees_by_realization(n)]
            assert primary == realized
            for t in all_trees(n):
                b = compute_indices(t)
                assert b.sigma <= b.irr ** 2
                assert b.irr ** 2 <= (n - 1) * b.sigma or n == 1


def test_04_tree_upper_bound():
    with _Criterion(4, "irr <= (n-1)(n-2), n <= 10"):
        for n in range(2, 11):
            for t in all_trees(n):
                assert compute_indices(t).irr <= (n - 1) * (n - 2)


def test_05_total_irregularity_formula():
    with _Criterion(5, "2(n+1)m - 2*sum(i*d_i) equals pairwise irr_T, n <= 9"):
        for n in range(1, 10):
            for t in all_trees(n):
                assert total_irregularity_by_sequence(t) == compute_indices(t).irr_t


def test_06_zagreb_identity():
    with _Criterion(6, "M1 equals the edge sum of d(u)+d(v), n <= 10"):
        for n in range(1, 11):
            for t in all_trees(n):
                deg = degrees(t)
                assert compute_indices(t).m1 == sum(deg[u] + deg[v] for u, v in t.edges)


def test_07_prufer_bijection():
    with _Criterion(7, "Prufer bijection on all codes n <= 7, Cayley counts"):
        for n in range(2, 8):
            distinct = set()
            for code in product(range(n), repeat=n - 2):
                t = prufer_decode(code, n)
                assert prufer_encode(t) == code
                assert prufer_decode(prufer_encode(t), n) == t
                distinct.add(t.edges)
            if 3 <= n <= 6:
                assert len(distinct) == n ** (n - 2)


def test_08_table1_reproduction():
    with _Criterion(8, "reference table: diff column, bounds, +4 offset"):
        rows = load_table1()
        assert len(rows) == 24
        for row in rows:
            d1, d2, d3, d4 = row.seq
            assert row.diff == 2 * (d2 - d4)
            assert row.irr_max - row.irr_min == row.diff
            assert row.diff < 2 * d1
            assert row.irr_min >= (d1 ** 2 + d4 ** 2) // 2
            fmx, fmn = hyp_four_bounds_values(row.seq)
            assert fmx - row.irr_max == 4
            assert fmn - row.irr_min == 4
        report_entry = verify("table1")
        assert report_entry.verdict == "holds-with-notes"
        assert any("+4" in note and "mismatch" in note for note in report_entry.notes)


def test_09_caterpillar_family():
    with _Criterion(9, "odd-spine caterpillars: order m^2+m+2, m = 1..20"):
        for m in range(1, 21):
            spine = [2 * k + 1 for k in range(1, m + 1)]
            t = caterpillar(spine)
            assert t.n == m * m + m + 2
            assert sum(degrees(t)) == 2 * (t.n - 1)


def test_10_transformation_sweeps():
    with _Criterion(10, "relocation sweeps exhaustive, witnessed, byte-stable"):
        sweeps = (
            ("irr-decrease", 12),
            ("irr-decrease-bound", 12),
            ("sigma-decrease", 13),
            ("sigma-increase", 14),
        )
        for claim_id, n_max in sweeps:
            first = verify(claim_id, {"n_max": n_max}, witness_cap=None)
            second = verify(claim_id, {"n_max": n_max}, witness_cap=None)
            assert first.params["n_max"] == n_max
            assert len(first.witnesses) == first.violations  # every witness listed
            assert result_to_text(first) == result_to_text(second)
            assert first.checked > 0


def test_11_permutation_example():
    with _Criterion(11, "720 orderings per reading, flags vs 14802/14196"):
        for interpretation in ("formula", "caterpillar"):
            first = perm_search((4, 8, 10, 14, 18, 20), interpretation)
            second = perm_search((4, 8, 10, 14, 18, 20), interpretation)
            assert len(first.evaluations) == 720
            assert first.max_value >= first.min_value
            assert first == second
            assert first.reference == (14802, 14196)
            assert isinstance(first.matches_reference_max, bool)
            assert isinstance(first.matches_reference_min, bool)
        documented = verify("perm-example")
        assert documented.verdict == "holds-with-notes"
        assert any("14802" in note for note in documented.notes)


def test_12_extremal_sanity():
    with _Criterion(12, "order 5: irr max 12 only star, min 2 only path"):
        mx = extremal_over_class(TreeClass(n=5), "irr", "max")
        mn = extremal_over_class(TreeClass(n=5), "irr", "min")
        assert mx.value == 12
        assert mx.witnesses == ((canonical_code(star(4)).decode("ascii"),
                                 "0-1 0-2 0-3 0-4"),)
        assert mn.value == 2
        assert len(mn.witnesses) == 1
        assert mn.witnesses[0][0] == canonical_code(path(5)).decode("ascii")
