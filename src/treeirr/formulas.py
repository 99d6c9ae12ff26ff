"""Literal evaluators for the cataloged closed-form degree expressions.

These are deliberately kept apart from the true index computations in
:mod:`treeirr.indices`: each function transcribes one documented formula
verbatim, anomalies included, so that formula-vs-oracle comparisons stay
first-class. Judgment about whether a formula is right belongs to
:mod:`treeirr.claims`, not here.

Every formula id enforces its own declared input ordering (some use
non-increasing tuples, the sigma family uses non-decreasing ones) instead
of silently re-sorting. The ``*_value`` helpers skip those checks and are
what permutation experiments call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence


class FormulaError(ValueError):
    """Bad formula id or arity."""


class FormulaDomainError(FormulaError):
    """Input violates the formula's declared domain; nothing was computed."""


class FormulaResult(NamedTuple):
    formula_id: str
    inputs: tuple[int, ...]
    value: int | bool
    secondary: int | None = None
    notes: tuple[str, ...] = ()


def three_c_values(d: Sequence[int]) -> tuple[int, int]:
    """Paired max/min closed form on a three-value degree tuple."""
    d1, d2, d3 = d
    mx = (d1 - 1) ** 2 + (d2 - 1) ** 2 + (d3 - 1) * (d3 - 2) * (d1 - d3) * (d2 - d3)
    mn = (d1 - 1) ** 2 + (d3 - 1) ** 2 + (d2 - 1) * (d2 - 2) + (d1 - d3)
    return mx, mn


def hyp_four_value(d: Sequence[int]) -> int:
    """Single closed form for order-4 degree tuples."""
    d1, d2, d3, d4 = d
    squares = (d1 - 1) ** 2 + (d2 - 1) ** 2 + (d3 - 1) ** 2
    deviations = (d4 - d1) + (d4 - d2) + (d4 - d3)
    return squares + deviations + (d4 - 1) * (d4 - 3)


def hyp_four_bounds_values(d: Sequence[int]) -> tuple[int, int]:
    """Paired max/min closed form for order-4 degree tuples."""
    d1, d2, d3, d4 = d
    squares = sum((x - 1) ** 2 for x in d)
    mx = squares + d1 + d2 - d3 - 3 * d4 + 2
    mn = squares + d1 - d2 - d3 - d4 + 2
    return mx, mn


def diff_bound_holds(d: Sequence[int]) -> bool:
    """Whether the max/min pair of :func:`hyp_four_bounds_values` differs by < 2*d1."""
    mx, mn = hyp_four_bounds_values(d)
    return mx - mn < 2 * d[0]


def floor_bound_value(d: Sequence[int]) -> int:
    """floor((d1^2 + d4^2) / 2), the documented lower bound."""
    return (d[0] ** 2 + d[3] ** 2) // 2


def sigma_five_value(d: Sequence[int]) -> int:
    """Closed form for five-value tuples, non-decreasing orientation."""
    d1, d2, d3, d4, d5 = d
    products = d1 * d2 ** 2 + d2 * d3 ** 2 + d3 * d4 ** 2
    diffs = (d1 - d2) ** 2 + (d2 - d3) ** 2 + (d3 - d4) ** 2 + (d4 - d5) ** 2
    return products + (d1 - 1) ** 3 + d4 ** 3 + diffs


def sigma_ordered_value(d: Sequence[int]) -> int:
    """Variable-length closed form, non-decreasing orientation.

    End terms weight (d+1), interior terms (d+2), plus squared interior
    consecutive differences and the constant 2n-2. Each interior entry
    brings its term and its squared difference to the next entry, so one
    pass over the interior sums both, squaring by multiplication.
    """
    n = len(d)
    a = d[0] - 1
    z = d[-1] - 1
    total = (a + 2) * a * a + (z + 2) * z * z + 2 * n - 2
    for i in range(1, n - 1):
        x = d[i]
        t = x - 1
        u = x - d[i + 1]
        total += (x + 2) * t * t + u * u
    return total


def log_bound_holds(d3: int, d4: int) -> bool:
    """Exact decision of ``log_b(x) < k`` with b = d4-2, x = 2(d4-2)/(d3-1).

    k is ``2 + floor((d4-2)/(d3-1))``; the comparison is carried out as
    ``x < b**k`` in integers, no floating point.
    """
    b = d4 - 2
    k = 2 + b // (d3 - 1)
    return 2 * b < (d3 - 1) * b ** k


def _need_nonincreasing(d: tuple[int, ...]) -> None:
    if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
        raise FormulaDomainError(f"inputs must be non-increasing, got {d}")


def _need_nondecreasing(d: tuple[int, ...]) -> None:
    if any(d[i] > d[i + 1] for i in range(len(d) - 1)):
        raise FormulaDomainError(f"inputs must be non-decreasing, got {d}")


def _need_positive(d: tuple[int, ...]) -> None:
    if any(x < 1 for x in d):
        raise FormulaDomainError(f"degrees must be >= 1, got {d}")


def _paired(fn: Callable[[tuple[int, ...]], tuple[int, int]], pick: int):
    def run(fid: str, d: tuple[int, ...]) -> FormulaResult:
        mx, mn = fn(d)
        notes = ("min exceeds max",) if mn > mx else ()
        return FormulaResult(fid, d, (mx, mn)[pick], (mx, mn)[1 - pick], notes)

    return run


def _single(fn: Callable[[tuple[int, ...]], int | bool]):
    def run(fid: str, d: tuple[int, ...]) -> FormulaResult:
        return FormulaResult(fid, d, fn(d))

    return run


def _eval_cor3(fid: str, d: tuple[int, ...]) -> FormulaResult:
    d3, d4 = d
    if d3 <= 3:
        raise FormulaDomainError(f"needs d3 > 3, got {d3}")
    if d4 <= 2:
        raise FormulaDomainError(f"needs d4 > 2, got {d4}")
    notes = ("base-1 logarithm, decided by the power rule",) if d4 == 3 else ()
    return FormulaResult(fid, d, log_bound_holds(d3, d4), notes=notes)


# id -> (arity or None for variable >= 2, ordering check, evaluator)
_REGISTRY: dict[str, tuple[int | None, Callable | None, Callable]] = {
    "three_c_max": (3, _need_nonincreasing, _paired(three_c_values, 0)),
    "three_c_min": (3, _need_nonincreasing, _paired(three_c_values, 1)),
    "hyp_four": (4, _need_nonincreasing, _single(hyp_four_value)),
    "hyp_four_bounds": (4, _need_nonincreasing, _paired(hyp_four_bounds_values, 0)),
    "cor_diff_bound": (4, _need_nonincreasing, _single(diff_bound_holds)),
    "cor_floor_bound": (4, _need_nonincreasing, _single(floor_bound_value)),
    "sigma_five": (5, _need_nondecreasing, _single(sigma_five_value)),
    "sigma_ordered": (None, _need_nondecreasing, _single(sigma_ordered_value)),
    "cor3_part1": (2, None, _eval_cor3),
}

FORMULA_IDS: tuple[str, ...] = tuple(sorted(_REGISTRY))


def evaluate_formula(formula_id: str, degree_tuple: Sequence[int]) -> FormulaResult:
    """Evaluate one cataloged formula on a degree tuple, exactly.

    Raises :class:`FormulaError` for unknown ids or wrong arity and
    :class:`FormulaDomainError` when the tuple violates the formula's
    declared ordering or range; out-of-domain inputs are never computed.
    """
    try:
        arity, ordering, evaluator = _REGISTRY[formula_id]
    except KeyError:
        raise FormulaError(
            f"unknown formula id {formula_id!r}; known: {', '.join(FORMULA_IDS)}"
        ) from None
    d = tuple(int(x) for x in degree_tuple)
    if arity is not None and len(d) != arity:
        raise FormulaError(f"{formula_id} takes {arity} values, got {len(d)}")
    if arity is None and len(d) < 2:
        raise FormulaError(f"{formula_id} needs at least 2 values, got {len(d)}")
    if formula_id != "cor3_part1":
        _need_positive(d)
    if ordering is not None:
        ordering(d)
    return evaluator(formula_id, d)
