import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from treeirr import FormulaDomainError, FormulaError, evaluate_formula
from treeirr.formulas import (
    FORMULA_IDS,
    hyp_four_bounds_values,
    log_bound_holds,
    sigma_ordered_value,
)

from _brute import sigma_ordered_two_loops

descending4 = (
    st.tuples(*(st.integers(1, 60),) * 4).map(lambda t: tuple(sorted(t, reverse=True)))
)


class TestFrozenValues:
    def test_hyp_four_bounds(self):
        r = evaluate_formula("hyp_four_bounds", (18, 12, 6, 4))
        assert (r.value, r.secondary) == (458, 442)

    def test_cor_floor_bound(self):
        assert evaluate_formula("cor_floor_bound", (18, 12, 6, 4)).value == 170

    def test_sigma_ordered_six(self):
        # Term by term: 0 + 175 + 190 + 4 + 10.
        assert evaluate_formula("sigma_ordered", (1, 2, 3, 4, 5, 6)).value == 379

    def test_sigma_five(self):
        # 70 + 0 + 64 + 4.
        assert evaluate_formula("sigma_five", (1, 2, 3, 4, 5)).value == 138

    def test_three_c_anomaly(self):
        mx = evaluate_formula("three_c_max", (3, 2, 1))
        mn = evaluate_formula("three_c_min", (3, 2, 1))
        assert (mx.value, mn.value) == (5, 6)
        assert "min exceeds max" in mx.notes

    def test_hyp_four_order_four_tuples(self):
        assert evaluate_formula("hyp_four", (3, 1, 1, 1)).value == 2
        assert evaluate_formula("hyp_four", (2, 2, 1, 1)).value == 0

    def test_cor_diff_bound(self):
        assert evaluate_formula("cor_diff_bound", (18, 12, 6, 4)).value is True

    def test_cor3_part1(self):
        assert evaluate_formula("cor3_part1", (4, 5)).value is True

    def test_cor3_base_one_note(self):
        r = evaluate_formula("cor3_part1", (4, 3))
        assert r.value is True
        assert any("power rule" in note for note in r.notes)


class TestIdentities:
    @settings(max_examples=1000, deadline=None)
    @given(descending4)
    def test_bounds_gap_identity(self, d):
        mx, mn = hyp_four_bounds_values(d)
        assert mx - mn == 2 * (d[1] - d[3])

    @settings(max_examples=500, deadline=None)
    @given(descending4)
    def test_diff_bound_always_holds_on_valid_tuples(self, d):
        assert evaluate_formula("cor_diff_bound", d).value is True

    def test_log_bound_against_float_log(self):
        for d3 in range(4, 30):
            for d4 in range(d3, 30):
                b = d4 - 2
                k = 2 + b // (d3 - 1)
                lhs = math.log(2 * b / (d3 - 1), b)
                if abs(lhs - k) > 1e-9:
                    assert log_bound_holds(d3, d4) == (lhs < k)

    def test_sigma_ordered_matches_inline_sum(self):
        d = (2, 2, 3, 5, 9)
        by_hand = (
            (d[0] + 1) * (d[0] - 1) ** 2
            + (d[4] + 1) * (d[4] - 1) ** 2
            + sum((d[i] + 2) * (d[i] - 1) ** 2 for i in (1, 2, 3))
            + sum((d[i] - d[i + 1]) ** 2 for i in (1, 2, 3))
            + 2 * 5
            - 2
        )
        assert sigma_ordered_value(d) == by_hand

    def test_sigma_ordered_matches_two_loop_transcription(self):
        # Every tuple of length 1-6 over 0-5, ordered or not: the one-pass
        # sum against the formula's literal two loops.
        for k in range(1, 7):
            for d in product(range(6), repeat=k):
                assert sigma_ordered_value(d) == sigma_ordered_two_loops(d), d


class TestDomainEnforcement:
    def test_unknown_id(self):
        with pytest.raises(FormulaError, match="unknown formula id"):
            evaluate_formula("zigzag", (1, 2))

    def test_arity(self):
        with pytest.raises(FormulaError, match="takes 4 values"):
            evaluate_formula("hyp_four", (3, 2, 1))
        with pytest.raises(FormulaError, match="at least 2"):
            evaluate_formula("sigma_ordered", (1,))

    def test_ordering_enforced_not_resorted(self):
        with pytest.raises(FormulaDomainError, match="non-increasing"):
            evaluate_formula("hyp_four_bounds", (4, 6, 12, 18))
        with pytest.raises(FormulaDomainError, match="non-decreasing"):
            evaluate_formula("sigma_five", (5, 4, 3, 2, 1))

    def test_positive_degrees(self):
        with pytest.raises(FormulaDomainError, match=">= 1"):
            evaluate_formula("three_c_max", (2, 1, 0))

    def test_cor3_domain(self):
        with pytest.raises(FormulaDomainError, match="d3 > 3"):
            evaluate_formula("cor3_part1", (3, 5))
        with pytest.raises(FormulaDomainError, match="d4 > 2"):
            evaluate_formula("cor3_part1", (4, 2))

    def test_registry_is_stable(self):
        assert FORMULA_IDS == tuple(sorted(FORMULA_IDS))
        assert "sigma_ordered" in FORMULA_IDS
