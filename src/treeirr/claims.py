"""Catalog of documented claims, each bound to an exact oracle.

Every entry pairs one documented statement about tree irregularity with a
way to check it outright: exhaustive sweeps over unlabeled trees, plain
integer arithmetic, the bundled reference table, or a permutation search.
Results never round and never sample non-deterministically, so a re-run
with the same parameters reproduces the same report byte for byte (timings
are kept out of the deterministic serialization for exactly that reason).

Verdicts are three-valued, and :func:`verify` applies one rule to every
claim: a claim with any violation ``fails``, with every counterexample
counted and the first ``witness_cap`` kept as witnesses; otherwise it gets
the clean verdict registered with it. That is ``holds``, or
``holds-with-notes`` for statements whose reading is ambiguous or that
carry a documented discrepancy, with the notes spelling out what was
actually checked.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from importlib import resources
from itertools import combinations_with_replacement, islice, permutations
from typing import Callable, Iterator, Mapping, Sequence

from . import __version__
from ._kernels import BACKEND
from .degseq import DegreeSequence, caterpillar_sigma, star
from .edgelist import parse_edge_list
from .enumeration import (
    EnumerationGuard,
    _canonical_table,
    _check_order,
    _level_tree,
    all_trees,
    tree_degree_sequences,
)
from .formulas import (
    floor_bound_value,
    hyp_four_bounds_values,
    hyp_four_value,
    log_bound_holds,
    sigma_five_value,
    sigma_ordered_value,
    three_c_values,
)
from .indices import compute_indices, total_irregularity_by_sequence
from .tree import Tree, canonical_code, degrees, strong_support_vertices

DEFAULT_WITNESS_CAP = 25

REFERENCE_PERM_TUPLE = (4, 8, 10, 14, 18, 20)
REFERENCE_PERM_MAX = 14802
REFERENCE_PERM_MIN = 14196


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    parameter_space: str
    oracle_kind: str  # exhaustive-trees | arithmetic | table-fixture | permutation-search


@dataclass
class ClaimResult:
    claim_id: str
    params: dict
    verdict: str  # holds | fails | holds-with-notes
    checked: int
    violations: int
    witnesses: tuple[dict, ...]
    notes: tuple[str, ...]
    wall_time: float = 0.0


@dataclass(frozen=True)
class TreeClass:
    """A finite class of trees: fixed order, optional extra constraints."""

    n: int
    delta: int | None = None
    degree_sequence: DegreeSequence | None = None
    caterpillar_only: bool = False

    def describe(self) -> str:
        parts = [f"n={self.n}"]
        if self.delta is not None:
            parts.append(f"delta={self.delta}")
        if self.degree_sequence is not None:
            parts.append(f"seq={self.degree_sequence}")
        if self.caterpillar_only:
            parts.append("caterpillar")
        return " ".join(parts)

    def trees(self) -> Iterator[Tree]:
        """The trees of the class, in ``all_trees`` order (ascending canonical code).

        The one filter over ``all_trees(n)`` for every class query. With no
        constraint it is ``all_trees(n)``. Otherwise each tree of the order
        is decided on its degrees and parents in the order's table
        (``enumeration._canonical_table``), and only the trees kept are
        built, from their level sequences, so labels and order are those of
        ``all_trees``: the maximum degree must equal ``delta``, the sorted
        degrees must equal the sequence, and a caterpillar's non-leaf
        vertices each have at most two non-leaf neighbours.
        """
        delta = self.delta
        seq = None if self.degree_sequence is None else list(self.degree_sequence.values)
        caterpillar_only = self.caterpillar_only
        if delta is None and seq is None and not caterpillar_only:
            yield from all_trees(self.n)
            return
        for code, levels, deg, parent in _canonical_table(self.n):
            if delta is not None and max(deg) != delta:
                continue
            if seq is not None and sorted(deg, reverse=True) != seq:
                continue
            if caterpillar_only and not _caterpillar_levels(deg, parent):
                continue
            yield _level_tree(levels, code)


def _caterpillar_levels(deg: Sequence[int], parent: Sequence[int]) -> bool:
    """``is_caterpillar`` of the tree with these degrees and parents.

    Removing the leaves leaves a path (or nothing) exactly when every
    non-leaf vertex has at most two non-leaf neighbours: the non-leaf
    vertices of a tree span a subtree. Each edge is seen once, from the
    child. A vertex is seen as a child before any of its children, so its
    count can pass two only while it is a parent, where it is checked.
    """
    inner = [0] * len(deg)
    for i in range(1, len(deg)):
        p = parent[i]
        if deg[i] >= 2 and deg[p] >= 2:
            inner[i] += 1
            inner[p] += 1
            if inner[p] > 2:
                return False
    return True


@dataclass(frozen=True)
class ExtremalResult:
    class_description: str
    index: str
    objective: str
    value: int
    witnesses: tuple[tuple[str, str], ...]  # (canonical code, edge list)


@dataclass(frozen=True)
class PermSearchResult:
    base: tuple[int, ...]
    interpretation: str
    evaluations: tuple[tuple[tuple[int, ...], int], ...]
    max_value: int
    min_value: int
    argmax: tuple[tuple[int, ...], ...]
    argmin: tuple[tuple[int, ...], ...]
    reference: tuple[int, int] | None
    matches_reference_max: bool | None
    matches_reference_min: bool | None


@dataclass(frozen=True)
class ReportConfig:
    claim_ids: tuple[str, ...] | None = None
    n_max: int | None = None
    witness_cap: int | None = DEFAULT_WITNESS_CAP
    deterministic: bool = True  # False adds each claim's wall time to the output
    # Reports run in one process. The field stays, with 1 its only legal
    # value, while perfbench/worker.py still passes jobs=1.
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs != 1:
            raise ValueError(f"reports run in one process; jobs must be 1, got {self.jobs}")


@dataclass
class ClaimReport:
    results: tuple[ClaimResult, ...]
    errors: tuple[tuple[str, str], ...]
    config: ReportConfig
    metadata: dict


# ---------------------------------------------------------------------------
# fixtures


def _data_text(name: str) -> str:
    return resources.files("treeirr").joinpath(f"data/{name}").read_text(encoding="utf-8")


@dataclass(frozen=True)
class Table1Row:
    seq: tuple[int, int, int, int]
    irr_max: int
    irr_min: int
    diff: int


def table1_text() -> str:
    """Raw fixture text (checksummed by the test suite)."""
    return _data_text("table1.csv")


def load_table1() -> tuple[Table1Row, ...]:
    rows = []
    lines = table1_text().strip().splitlines()
    for line in lines[1:]:
        d1, d2, d3, d4, mx, mn, diff = (int(x) for x in line.split(","))
        rows.append(Table1Row(seq=(d1, d2, d3, d4), irr_max=mx, irr_min=mn, diff=diff))
    return tuple(rows)


def fig2_text() -> str:
    return _data_text("fig2.edges")


def load_fig2_tree() -> Tree:
    return parse_edge_list(fig2_text()).tree


# ---------------------------------------------------------------------------
# searches shared by several claims


_INDEX_KEYS = {"irr": "irr", "sigma": "sigma", "irr_T": "irr_t"}


def _edges_str(t: Tree) -> str:
    return " ".join(f"{u}-{v}" for u, v in t.edges)


def extremal_over_class(tree_class: TreeClass, index: str, objective: str) -> ExtremalResult:
    """Exact optimum of one index over the class, with every witness.

    The class is enumerated outright by :meth:`TreeClass.trees`, under the
    enumeration's order guard, so the result is certified rather than
    heuristic. Witnesses come in ascending canonical code, each with the
    edge list of its ``all_trees`` representative (level-sequence labels).
    """
    if index not in _INDEX_KEYS:
        raise ValueError(f"unknown index {index!r} (expected irr, sigma or irr_T)")
    if objective not in ("min", "max"):
        raise ValueError(f"objective must be min or max, got {objective!r}")
    seq = tree_class.degree_sequence
    if seq is not None and seq.n != tree_class.n:
        raise ValueError("degree sequence length disagrees with class order")
    attr = _INDEX_KEYS[index]
    best: int | None = None
    witnesses: list[tuple[str, str]] = []
    for t in tree_class.trees():
        value = getattr(compute_indices(t), attr)
        if best is None or (value > best if objective == "max" else value < best):
            best = value
            witnesses = [(canonical_code(t).decode("ascii"), _edges_str(t))]
        elif value == best:
            witnesses.append((canonical_code(t).decode("ascii"), _edges_str(t)))
    if best is None:
        raise ValueError(f"empty tree class: {tree_class.describe()}")
    return ExtremalResult(
        class_description=tree_class.describe(),
        index=index,
        objective=objective,
        value=best,
        witnesses=tuple(witnesses),
    )


def perm_search(degree_tuple: Sequence[int], interpretation: str) -> PermSearchResult:
    """Evaluate every distinct ordering of the tuple under one reading.

    ``formula`` feeds the permuted tuple to the ordered closed form;
    ``caterpillar`` takes the true sigma of the caterpillar with that spine
    order, summed over its edge classes (``degseq.caterpillar_sigma``)
    without building it. Extremes come with all orderings attaining them and
    with match flags against the documented reference values when the
    multiset is the documented example.
    """
    base = tuple(int(x) for x in degree_tuple)
    if len(base) < 2:
        raise ValueError("need at least two values")
    if len(base) > 8:
        raise EnumerationGuard(f"tuple length {len(base)} above factorial guard 8")
    if interpretation not in ("formula", "caterpillar"):
        raise ValueError(f"unknown interpretation {interpretation!r}")
    if interpretation == "caterpillar" and any(x < 2 for x in base):
        raise ValueError("caterpillar interpretation needs all values >= 2")
    orderings = sorted(set(permutations(base)))
    evaluations: list[tuple[tuple[int, ...], int]] = []
    for p in orderings:
        if interpretation == "formula":
            value = sigma_ordered_value(p)
        else:
            value = caterpillar_sigma(p)[0]
        evaluations.append((p, value))
    values = [v for _, v in evaluations]
    mx, mn = max(values), min(values)
    argmax = tuple(p for p, v in evaluations if v == mx)
    argmin = tuple(p for p, v in evaluations if v == mn)
    reference = None
    match_max = match_min = None
    if tuple(sorted(base)) == REFERENCE_PERM_TUPLE:
        reference = (REFERENCE_PERM_MAX, REFERENCE_PERM_MIN)
        match_max = mx == REFERENCE_PERM_MAX
        match_min = mn == REFERENCE_PERM_MIN
    return PermSearchResult(
        base=base,
        interpretation=interpretation,
        evaluations=tuple(evaluations),
        max_value=mx,
        min_value=mn,
        argmax=argmax,
        argmin=argmin,
        reference=reference,
        matches_reference_max=match_max,
        matches_reference_min=match_min,
    )


def _orders(lo: int, n_max: int) -> range:
    """Orders ``lo..n_max`` of a sweep, refused by the order guard before any work."""
    _check_order(n_max)
    return range(lo, n_max + 1)


class _Tally:
    """Cases checked and violations of one claim run, with the first ``cap`` witnesses."""

    def __init__(self, cap: int | None):
        self.cap = cap
        self.checked = 0
        self.violations = 0
        self.witnesses: list[dict] = []

    def add(self, witness: dict) -> None:
        self.violations += 1
        if self.cap is None or len(self.witnesses) < self.cap:
            self.witnesses.append(witness)

    def add_class(self, checked: int, violations: int, witnesses: Iterator[dict]) -> None:
        """Count a class of cases at once.

        ``witnesses`` yields the class's ``violations`` in order; only as
        many as the cap still keeps are drawn, so a lazy stream builds no
        more than that.
        """
        self.checked += checked
        self.violations += violations
        room = violations if self.cap is None else min(violations, self.cap - len(self.witnesses))
        if room > 0:
            self.witnesses.extend(islice(witnesses, room))

    def run(self, cases, check: Callable[..., dict | None]) -> None:
        """Each case through ``check``, which returns a witness dict or ``None``."""
        for case in cases:
            self.checked += 1
            bad = check(case)
            if bad is not None:
                self.add(bad)


def _seq_extremes(seq: DegreeSequence, attr: str) -> tuple[int, int]:
    # Min and max over the trees that realize the sequence; the Prüfer
    # realizer stays out of this path as its test oracle.
    values = [
        getattr(compute_indices(t), attr)
        for t in TreeClass(seq.n, degree_sequence=seq).trees()
    ]
    return min(values), max(values)


def _move_change(lam: int, dr: int, sum_w: int, ge_w: int, sum_r: int, le_r: int):
    """The change ``(irr, sigma)`` of moving a leaf off support ``y`` onto ``r``.

    ``y`` has degree ``lam`` and ``r``, another neighbor of ``y``, degree
    ``dr``. Only the edges at ``y`` and ``r`` change, so six integers fix
    the change. ``W`` are the ``lam - 2`` neighbors of ``y`` other than the
    donor leaf and ``r``: their degree sum is ``sum_w`` and ``ge_w`` of
    them have degree ``>= lam``. ``R`` are the ``dr - 1`` neighbors of
    ``r`` other than ``y``: their degree sum is ``sum_r`` and ``le_r`` of
    them have degree ``<= dr``. The end degrees of edge ``yr`` go from
    ``(lam, dr)`` to ``(lam - 1, dr + 1)``, those of the donor edge from
    ``(lam, 1)`` to ``(dr + 1, 1)``, so:

    - sigma: ``sum_W (2 d_w - 2 lam + 1) + (lam - 2 - dr)^2 - (lam - dr)^2
      + dr^2 - (lam - 1)^2 + sum_R (2 dr - 2 d_w + 1)``;
    - irr: ``#{W: d_w >= lam} - #{W: d_w < lam} + |lam - 2 - dr|
      - |lam - dr| + dr - lam + 1 + #{R: d_w <= dr} - #{R: d_w > dr}``.

    The tests hold both to ``_brute.relocate_leaf`` plus a full recompute.
    """
    irr = (
        2 * ge_w - (lam - 2)
        + abs(lam - 2 - dr) - abs(lam - dr)
        + dr - lam + 1
        + 2 * le_r - (dr - 1)
    )
    sigma = (
        2 * sum_w + (lam - 2) * (1 - 2 * lam)
        + (lam - 2 - dr) ** 2 - (lam - dr) ** 2
        + dr * dr - (lam - 1) ** 2
        + (dr - 1) * (2 * dr + 1) - 2 * sum_r
    )
    return irr, sigma


def _tree_relocations(
    deg: Sequence[int], parent: Sequence[int], lam_min: int, lam_max: int, support_filter: bool
):
    """Every leaf relocation off a support of degree ``lam_min..lam_max``, by support.

    The tree is a level-sequence layout, given by its degrees and parents
    (``enumeration._canonical_table``; the root's parent is never read).
    A parent's id is below its children's, so a vertex's neighbours in
    ascending id are its parent, then its children in ascending id.

    Yields one record ``(y, lam, side, donors, deltas)`` per support vertex
    ``y``: degree ``lam`` with ``3 <= lam_min <= lam <= lam_max`` and at
    least one leaf neighbor. ``side`` is ``"strict"`` when ``y`` sits below
    the maximum degree, ``"tied"`` when it holds it with another vertex and
    ``"unfiltered"`` when it holds it alone; ``support_filter`` skips the
    last. ``donors`` are the leaf neighbors of ``y``. Each may move to every
    other neighbor of ``y``, so the support holds ``len(donors) * (lam -
    1)`` moves, donor first, then recipient, both ascending.

    ``deltas`` maps each recipient ``r``, in ascending id, to the change
    ``(irr, sigma)`` of a move onto it (:func:`_move_change`). The donor is
    a leaf, so the change does not depend on which one moves; a lone donor
    is not a recipient. Each vertex's children come from one pass over the
    parent edges, and the sums over ``W`` and ``R`` are read off the parent
    and children of ``y`` and ``r``. No tree, moved or not, and no index
    bundle is built.
    """
    n = len(deg)
    kids: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parent[i]].append(i)
    supports = []
    for y in range(n):
        lam = deg[y]
        if lam_min <= lam <= lam_max:
            nbrs = [parent[y], *kids[y]] if y else kids[y]
            donors = [w for w in nbrs if deg[w] == 1]
            if donors:
                supports.append((y, lam, nbrs, donors))
    if not supports:
        return
    delta = max(deg)
    alone = deg.count(delta) == 1
    for y, lam, nbrs, donors in supports:
        side = "strict" if lam < delta else ("unfiltered" if alone else "tied")
        if support_filter and side == "unfiltered":
            continue
        # Degree sum and count at >= lam over N(y) less one donor leaf.
        sum_y = -1
        ge_y = 0
        for w in nbrs:
            dw = deg[w]
            sum_y += dw
            ge_y += dw >= lam
        lone = donors[0] if len(donors) == 1 else -1
        deltas = {}
        for r in nbrs:
            if r == lone:
                continue
            dr = deg[r]
            sum_r = -lam  # over R = N(r) less y
            le_r = -(lam <= dr)
            for w in [parent[r], *kids[r]] if r else kids[r]:
                dw = deg[w]
                sum_r += dw
                le_r += dw <= dr
            deltas[r] = _move_change(lam, dr, sum_y - dr, ge_y - (dr >= lam), sum_r, le_r)
        yield y, lam, side, donors, deltas


def _relocation_witnesses(levels, code, supports, value_key):
    # The tree's violating moves in sweep order, per support ``(y, lam,
    # side, donors, hit)`` with ``hit`` mapping each violating recipient to
    # the index change. The tree, its edge list and its index value are
    # built once, when the tally draws the first witness.
    t = _level_tree(levels, code)
    tree = _edges_str(t)
    before = getattr(compute_indices(t), value_key)
    for y, lam, side, donors, hit in supports:
        for donor in donors:
            for recipient, change in hit.items():
                if recipient != donor:
                    yield {
                        "tree": tree,
                        "n": t.n,
                        "y": y,
                        "donor": donor,
                        "recipient": recipient,
                        "lambda": lam,
                        "filter": side,
                        "before": before,
                        "after": before + change,
                    }


def _relocation_claim(params, tally, lam_min, bad, value_key, apply_support_filter, lam_max=None):
    """Shared engine for the relocation sweeps, over all trees up to ``n_max``.

    Supports of degree ``lam_min`` to ``lam_max`` (``None``: no upper
    bound) are admissible, with ``lam_min >= 3``. A support of degree
    ``lam`` needs ``lam + 1`` vertices, so orders below ``lam_min + 1`` are
    skipped, and so is a tree whose maximum degree in its order's table
    (``enumeration._canonical_table``) is below ``lam_min``. The rest are
    swept on their degrees and parents by :func:`_tree_relocations`; a
    tree is built, once, only when the tally keeps a witness from it.

    ``bad(change, lam)`` decides whether a move that changes the index
    ``value_key`` by ``change`` violates the claim. It is decided once per
    recipient of each support of :func:`_tree_relocations`, and the
    support is counted arithmetically: with ``D`` donors and ``B`` bad
    recipients it holds ``D * (lam - 1)`` moves and ``D * B`` violations,
    less the bad recipients that are donors themselves (no leaf moves onto
    itself).

    With ``apply_support_filter`` the sweep keeps only supports that do not
    hold the maximum degree alone (both readings of that side condition
    are tallied separately); without it every admissible move counts and
    the split by side is reported in the notes.
    """
    pos = ("irr", "sigma").index(value_key)
    if lam_max is None:
        lam_max = params["n_max"]
    moves = dict.fromkeys(("strict", "tied", "unfiltered"), 0)
    violations = dict(moves)
    for n in _orders(lam_min + 1, params["n_max"]):
        for code, levels, deg, parent in _canonical_table(n):
            if max(deg) < lam_min:
                continue
            tree_moves = tree_violations = 0
            witnessing = []
            for y, lam, side, donors, deltas in _tree_relocations(
                deg, parent, lam_min, lam_max, apply_support_filter
            ):
                hit = {r: c[pos] for r, c in deltas.items() if bad(c[pos], lam)}
                count = len(donors) * (lam - 1)
                bad_count = len(donors) * len(hit) - sum(d in hit for d in donors)
                moves[side] += count
                violations[side] += bad_count
                tree_moves += count
                tree_violations += bad_count
                if bad_count:
                    witnessing.append((y, lam, side, donors, hit))
            tally.add_class(
                tree_moves,
                tree_violations,
                _relocation_witnesses(levels, code, witnessing, value_key),
            )
    notes = [
        f"support below max degree: {moves['strict']} moves, {violations['strict']} violations",
        f"support tying max degree with another vertex: {moves['tied']} moves, "
        f"{violations['tied']} violations",
    ]
    if not apply_support_filter:
        notes.append(
            f"no side condition on the support vertex: {sum(moves.values())} moves, "
            f"{sum(violations.values())} violations"
        )
    return notes


# ---------------------------------------------------------------------------
# the catalog
#
# Each claim is registered once, on its checker. A checker takes the
# claim's parameters and a fresh _Tally, records every case it checks and
# every violation there, and returns its notes; verify decides the verdict.


_REGISTRY: dict[str, tuple[Claim, Callable[[dict, _Tally], list[str]], dict, str]] = {}


def _claim(claim_id, statement, parameter_space, oracle_kind, clean="holds", **defaults):
    """Register the decorated checker as ``claim_id``.

    ``defaults`` are the claim's parameters, and ``clean`` is its verdict
    when the checker records no violation.
    """

    def register(check):
        claim = Claim(claim_id, statement, parameter_space, oracle_kind)
        _REGISTRY[claim_id] = (claim, check, defaults, clean)
        return check

    return register


@_claim(
    "fig2-fixture",
    "the bundled demonstration tree has irr 20 and sigma 54, and the "
    "support-vertex closed form written for it evaluates to the same irr",
    "one fixture tree",
    "table-fixture",
    clean="holds-with-notes",
)
def _check_fig2(params, tally):
    t = load_fig2_tree()
    deg = degrees(t)
    bundle = compute_indices(t)

    def expect(name, got, want):
        tally.checked += 1
        if got != want:
            tally.add({"check": name, "got": str(got), "want": str(want)})

    expect("labeled degrees", deg[:5], (4, 1, 1, 3, 4))
    expect("irr", bundle.irr, 20)
    expect("sigma", bundle.sigma, 54)
    hub = 0
    display = sum(abs(deg[hub] - deg[w]) for w in t.adjacency[hub])
    display += 2 * abs(deg[3] - 1) + 3 * abs(deg[4] - 1)
    expect("displayed closed form equals irr", display, bundle.irr)
    expect("strong support vertices", strong_support_vertices(t), frozenset({0, 3, 4}))
    return [
        "vertex 4 is drawn with degree 4; the companion description gives it "
        "degree 3, which contradicts the weight-3 pendant term, so the fixture "
        "follows the drawing",
    ]


@_claim(
    "star-albertson",
    "a star with k leaves has Albertson irregularity k(k-1)",
    "leaf counts 3..n_max",
    "arithmetic",
    n_max=50,
)
def _check_star_albertson(params, tally):
    def check(k):
        got = compute_indices(star(k)).irr
        if got != k * (k - 1):
            return {"leaves": k, "got": got, "want": k * (k - 1)}

    tally.run(range(3, params["n_max"] + 1), check)
    return []


@_claim(
    "star-iso-sum",
    "two disjoint isomorphic k-stars have irregularities summing to 2k(k-1)",
    "leaf counts 3..n_max",
    "arithmetic",
    n_max=50,
)
def _check_star_iso_sum(params, tally):
    # Two disjoint isomorphic stars: the indices add up.
    def check(k):
        one = compute_indices(star(k)).irr
        other = compute_indices(star(k)).irr
        if one + other != 2 * k * (k - 1):
            return {"leaves": k, "got": one + other, "want": 2 * k * (k - 1)}

    tally.run(range(3, params["n_max"] + 1), check)
    return []


@_claim(
    "sandwich",
    "sigma <= irr^2 and irr^2 <= m * sigma on every tree",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=10,
)
def _check_sandwich(params, tally):
    def check(t):
        b = compute_indices(t)
        if not (b.sigma <= b.irr ** 2 and b.irr ** 2 <= (t.n - 1) * b.sigma):
            return {"tree": _edges_str(t), "irr": b.irr, "sigma": b.sigma}

    tally.run((t for n in _orders(1, params["n_max"]) for t in all_trees(n)), check)
    return []


@_claim(
    "irr-upper-tree",
    "irr <= (n-1)(n-2) on every tree of order >= 2",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=10,
)
def _check_irr_upper(params, tally):
    def check(t):
        got, bound = compute_indices(t).irr, (t.n - 1) * (t.n - 2)
        if got > bound:
            return {"tree": _edges_str(t), "irr": got, "bound": bound}

    tally.run((t for n in _orders(2, params["n_max"]) for t in all_trees(n)), check)
    return []


@_claim(
    "irrT-seq-formula",
    "2(n+1)m - 2*sum(i*d_i) equals the pairwise total irregularity",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=9,
)
def _check_irrT_seq(params, tally):
    def check(t):
        pairwise = compute_indices(t).irr_t
        by_seq = total_irregularity_by_sequence(t)
        if pairwise != by_seq:
            return {"tree": _edges_str(t), "pairwise": pairwise, "sequence": by_seq}

    tally.run((t for n in _orders(1, params["n_max"]) for t in all_trees(n)), check)
    return []


@_claim(
    "m1-edge-identity",
    "the first Zagreb index equals the sum of d(u)+d(v) over edges",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=10,
)
def _check_m1_identity(params, tally):
    def check(t):
        deg = degrees(t)
        edge_sum = sum(deg[u] + deg[v] for u, v in t.edges)
        m1 = compute_indices(t).m1
        if m1 != edge_sum:
            return {"tree": _edges_str(t), "m1": m1, "edge_sum": edge_sum}

    tally.run((t for n in _orders(1, params["n_max"]) for t in all_trees(n)), check)
    return []


@_claim(
    "three-c",
    "the paired three-value closed form gives the extremal irr over "
    "realizations of sequences with three distinct degree values",
    "tree sequences of length 3..n_max with three distinct values",
    "exhaustive-trees",
    n_max=8,
)
def _check_three_c(params, tally):
    # The closed form takes the three distinct degree values of a sequence.
    max_hits = min_hits = anomalies = 0
    for n in _orders(3, params["n_max"]):
        for seq in tree_degree_sequences(n):
            distinct = tuple(sorted(set(seq.values), reverse=True))
            if len(distinct) != 3:
                continue
            tally.checked += 1
            fmx, fmn = three_c_values(distinct)
            tmn, tmx = _seq_extremes(seq, "irr")
            if fmn > fmx:
                anomalies += 1
            max_hits += fmx == tmx
            min_hits += fmn == tmn
            if fmx != tmx or fmn != tmn:
                tally.add(
                    {
                        "sequence": str(seq),
                        "distinct": str(distinct),
                        "formula_max": fmx,
                        "formula_min": fmn,
                        "true_max": tmx,
                        "true_min": tmn,
                    }
                )
    return [
        f"formula max matches the exhaustive max in {max_hits}/{tally.checked} sequences",
        f"formula min matches the exhaustive min in {min_hits}/{tally.checked} sequences",
        f"formula min exceeds formula max in {anomalies}/{tally.checked} sequences",
    ]


@_claim(
    "hyp-four",
    "the order-4 closed form gives the irr of trees on four vertices",
    "both tree-graphical 4-tuples",
    "exhaustive-trees",
)
def _check_hyp_four(params, tally):
    notes = []
    for seq in tree_degree_sequences(4):
        tally.checked += 1
        value = hyp_four_value(seq.values)
        bmx, bmn = hyp_four_bounds_values(seq.values)
        tmn, tmx = _seq_extremes(seq, "irr")
        if not (tmn <= value <= tmx):
            tally.add(
                {
                    "sequence": str(seq),
                    "formula": value,
                    "true_min": tmn,
                    "true_max": tmx,
                }
            )
        notes.append(
            f"{seq}: single form {value}, paired bounds ({bmx}, {bmn}), "
            f"exhaustive range [{tmn}, {tmx}]"
        )
    return notes


@_claim(
    "table1",
    "the 24 bundled reference rows: diff column, the documented gap and "
    "floor bounds, and the systematic +4 offset of the closed-form bounds",
    "bundled fixture",
    "table-fixture",
    clean="holds-with-notes",
)
def _check_table1(params, tally):
    rows = load_table1()
    offsets = set()
    for row in rows:
        tally.checked += 1
        d1, d2, d3, d4 = row.seq
        fmx, fmn = hyp_four_bounds_values(row.seq)
        bad = {}
        if row.diff != 2 * (d2 - d4) or row.irr_max - row.irr_min != row.diff:
            bad["diff"] = f"{row.diff} vs 2(d2-d4)={2 * (d2 - d4)}"
        if not row.diff < 2 * d1:
            bad["diff_bound"] = f"{row.diff} !< {2 * d1}"
        floor_bound = floor_bound_value(row.seq)
        if not row.irr_min >= floor_bound:
            bad["floor_bound"] = f"{row.irr_min} < {floor_bound}"
        offsets.add((fmx - row.irr_max, fmn - row.irr_min))
        if (fmx - row.irr_max, fmn - row.irr_min) != (4, 4):
            bad["offset"] = f"({fmx - row.irr_max}, {fmn - row.irr_min}) != (4, 4)"
        if bad:
            tally.add({"row": str(row.seq), **bad})
    top = max(rows, key=lambda r: r.irr_max)
    bottom = min(rows, key=lambda r: r.irr_min)
    tally.checked += 2
    if (top.seq, top.irr_max) != ((18, 12, 6, 4), 454):
        tally.add({"check": "global max", "got": f"{top.seq} {top.irr_max}"})
    if (bottom.seq, bottom.irr_min) != ((14, 9, 5, 3), 248):
        tally.add({"check": "global min", "got": f"{bottom.seq} {bottom.irr_min}"})
    return [
        "printed diff column equals 2(d2-d4) in every row",
        f"closed-form bounds sit exactly +4 above every printed value "
        f"(offsets seen: {sorted(offsets)}); documented transcription mismatch",
    ]


@_claim(
    "caterpillar-support",
    "every caterpillar maximizing irr among caterpillars with fixed order "
    "and pendant count has a strong support vertex",
    "caterpillars up to n_max grouped by (order, pendants)",
    "exhaustive-trees",
    n_max=14,
)
def _check_caterpillar_support(params, tally):
    # (order, pendants) -> (largest irr, its caterpillars as (code, levels)).
    # irr and the pendant count come off the order's degree/parent table;
    # only the maxima are built as trees, in all_trees order.
    groups: dict[tuple[int, int], tuple[int, list]] = {}
    for n in _orders(2, params["n_max"]):
        for code, levels, deg, parent in _canonical_table(n):
            if not _caterpillar_levels(deg, parent):
                continue
            irr = sum(abs(deg[i] - deg[parent[i]]) for i in range(1, n))
            key = (n, deg.count(1))
            group = groups.get(key)
            if group is None or irr > group[0]:
                groups[key] = (irr, [(code, levels)])
            elif irr == group[0]:
                group[1].append((code, levels))
    weak_violations = 0
    for (n, pendants), (best, maxima) in sorted(groups.items()):
        tally.checked += 1
        for code, levels in maxima:
            t = _level_tree(levels, code)
            if not strong_support_vertices(t, min_leaves=2):
                tally.add(
                    {
                        "n": n,
                        "pendants": pendants,
                        "irr": best,
                        "tree": _edges_str(t),
                    }
                )
            if not strong_support_vertices(t, min_leaves=1):
                weak_violations += 1
    return [
        "operative reading: a strong support vertex needs two pendant neighbors",
        f"under the one-pendant-neighbor reading the violations drop to {weak_violations}",
        "the documented example family uses spine degrees 3, 5, 7, ...; calling "
        "them primes contradicts the displayed sums, so consecutive odd degrees "
        "are what the builder implements",
    ]


@_claim(
    "irr-decrease",
    "moving a pendant leaf off a support vertex of degree >= 3 onto a "
    "sibling neighbor strictly lowers irr",
    "all admissible moves on trees up to n_max, support not alone at the "
    "maximum degree",
    "exhaustive-trees",
    n_max=12,
)
def _check_irr_decrease(params, tally):
    return _relocation_claim(
        params,
        tally,
        lam_min=3,
        bad=lambda change, lam: not change < 0,
        value_key="irr",
        apply_support_filter=True,
    )


@_claim(
    "irr-decrease-bound",
    "each such move lowers irr by less than 3*lambda - 6",
    "all admissible moves on trees up to n_max, support not alone at the "
    "maximum degree",
    "exhaustive-trees",
    n_max=12,
)
def _check_irr_decrease_bound(params, tally):
    return _relocation_claim(
        params,
        tally,
        lam_min=3,
        bad=lambda change, lam: not -change < 3 * lam - 6,
        value_key="irr",
        apply_support_filter=True,
    )


@_claim(
    "seq-monotonicity",
    "between comparable equal-length tree sequences the one dominated "
    "componentwise in prefix sums has the smaller extremal irr",
    "tree sequence pairs of equal length up to n_max",
    "exhaustive-trees",
    clean="holds-with-notes",
    n_max=8,
)
def _check_seq_monotonicity(params, tally):
    # Equal-length tree sequences share the degree total, so the only
    # comparison with content is prefix-sum dominance; both the max and the
    # min over realizations are compared along it.
    max_bad = min_bad = 0
    for n in _orders(3, params["n_max"]):
        seqs = list(tree_degree_sequences(n))
        extremes = {seq.values: _seq_extremes(seq, "irr") for seq in seqs}

        def dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
            run_a = run_b = 0
            for x, y in zip(a, b):
                run_a += x
                run_b += y
                if run_b < run_a:
                    return False
            return True

        for low in seqs:
            for high in seqs:
                if low.values == high.values or not dominates(low.values, high.values):
                    continue
                tally.checked += 1
                lo_min, lo_max = extremes[low.values]
                hi_min, hi_max = extremes[high.values]
                bad_max = not lo_max <= hi_max
                bad_min = not lo_min <= hi_min
                max_bad += bad_max
                min_bad += bad_min
                if bad_max or bad_min:
                    tally.add(
                        {
                            "low": str(low),
                            "high": str(high),
                            "low_range": f"[{lo_min}, {lo_max}]",
                            "high_range": f"[{hi_min}, {hi_max}]",
                        }
                    )
    return [
        "pairs ordered by componentwise prefix-sum dominance of equal-length "
        "tree sequences (equal totals make the raw sum comparison vacuous)",
        f"max-vs-max violations: {max_bad}; min-vs-min violations: {min_bad}",
    ]


@_claim(
    "resn1",
    "sum of the first sequence minus 2 stays at least the sum of the "
    "second for sequence pairs of different lengths",
    "tree sequences of lengths 2..n_max, ordered pairs of unequal length",
    "arithmetic",
    clean="holds-with-notes",
    n_max=7,
)
def _check_resn1(params, tally):
    # Reduces to sum(D1) - 2 >= sum(D2), i.e. 2(i-1) - 2 >= 2(j-1) for
    # tree sequences of lengths i and j: true exactly when i > j.
    holds_cnt = expected_fail = 0
    lengths = _orders(2, params["n_max"])
    seqs = {i: list(tree_degree_sequences(i)) for i in lengths}
    for i in lengths:
        for j in lengths:
            if i == j:
                continue
            for a in seqs[i]:
                for b in seqs[j]:
                    tally.checked += 1
                    ok = sum(a.values) - 2 >= sum(b.values)
                    if ok:
                        holds_cnt += 1
                    elif i > j:
                        tally.add({"first": str(a), "second": str(b)})
                    else:
                        expected_fail += 1
    return [
        "the displayed inequality cancels to sum(first) - 2 >= sum(second), "
        "which for tree sequences is length(first) > length(second)",
        f"holds for {holds_cnt}/{tally.checked} ordered pairs; the {expected_fail} "
        "failing pairs are exactly those with the shorter sequence first",
    ]


@_claim(
    "sigma-five",
    "the five-value closed form gives the sigma of trees on five vertices",
    "all tree-graphical 5-tuples",
    "exhaustive-trees",
)
def _check_sigma_five(params, tally):
    notes = []
    for seq in tree_degree_sequences(5):
        tally.checked += 1
        ascending = tuple(reversed(seq.values))
        value = sigma_five_value(ascending)
        tmn, tmx = _seq_extremes(seq, "sigma")
        if not (tmn <= value <= tmx):
            tally.add(
                {
                    "sequence": str(seq),
                    "formula": value,
                    "true_min": tmn,
                    "true_max": tmx,
                }
            )
        notes.append(f"{seq}: formula {value}, exhaustive sigma range [{tmn}, {tmx}]")
    return notes


@_claim(
    "sigma-decrease",
    "moves whose support vertex has degree strictly between 3 and 10 "
    "strictly lower sigma",
    "all admissible moves on trees up to n_max",
    "exhaustive-trees",
    n_max=13,
)
def _check_sigma_decrease(params, tally):
    return _relocation_claim(
        params,
        tally,
        lam_min=4,
        lam_max=9,
        bad=lambda change, lam: not change < 0,
        value_key="sigma",
        apply_support_filter=False,
    )


@_claim(
    "sigma-increase",
    "moves whose support vertex has degree >= 11 strictly raise sigma",
    "all admissible moves on trees up to n_max",
    "exhaustive-trees",
    n_max=14,
)
def _check_sigma_increase(params, tally):
    notes = _relocation_claim(
        params,
        tally,
        lam_min=11,
        bad=lambda change, lam: not change > 0,
        value_key="sigma",
        apply_support_filter=False,
    )
    notes.append(
        "a support vertex of degree >= 11 distinct from a maximum-degree vertex "
        "needs order >= 23, so at this scale every move has the support vertex "
        "alone at the maximum degree"
    )
    return notes


@_claim(
    "cor3-part1",
    "log base d4-2 of 2(d4-2)/(d3-1) stays below 2 + floor((d4-2)/(d3-1))",
    "4 <= d3 <= d4 <= d_max",
    "arithmetic",
    d_max=60,
)
def _check_cor3_part1(params, tally):
    d_max = params["d_max"]
    pairs = ((d3, d4) for d3 in range(4, d_max + 1) for d4 in range(d3, d_max + 1))
    tally.run(pairs, lambda p: None if log_bound_holds(*p) else {"d3": p[0], "d4": p[1]})
    return []


@_claim(
    "sigma-ordered",
    "the ordered closed form gives the sigma of the caterpillar whose "
    "spine degrees follow the sequence",
    "non-decreasing spines of length 2..n_max with degrees 2..deg_max",
    "exhaustive-trees",
    n_max=8,
    deg_max=7,
)
def _check_sigma_ordered(params, tally):
    orders = _orders(2, params["n_max"])  # also the spine lengths
    degs = range(2, params["deg_max"] + 1)

    def check(spine):
        true_sigma, order = caterpillar_sigma(spine)
        value = sigma_ordered_value(spine)
        if value != true_sigma:
            return {
                "spine": str(spine),
                "formula": value,
                "sigma": true_sigma,
                "order": order,
            }

    tally.run((s for k in orders for s in combinations_with_replacement(degs, k)), check)
    direct_total = direct_agree = 0
    for n in orders:
        for t in all_trees(n):
            direct_total += 1
            ascending = tuple(sorted(degrees(t)))
            if sigma_ordered_value(ascending) == compute_indices(t).sigma:
                direct_agree += 1
    agree = tally.checked - tally.violations
    return [
        f"spine reading: formula equals the caterpillar's sigma in {agree}/{tally.checked} cases",
        f"direct reading (formula on the tree's own sorted degree sequence): "
        f"{direct_agree}/{direct_total} trees agree",
    ]


@_claim(
    "perm-example",
    "some ordering of (4,8,10,14,18,20) attains the documented sigma "
    "extremes 14802 and 14196",
    "all 720 orderings under both readings",
    "permutation-search",
    clean="holds-with-notes",
)
def _check_perm_example(params, tally):
    notes = []
    for interpretation in ("formula", "caterpillar"):
        result = perm_search(REFERENCE_PERM_TUPLE, interpretation)
        tally.checked += len(result.evaluations)
        notes.append(
            f"{interpretation}: {len(result.evaluations)} orderings, "
            f"max {result.max_value} ({len(result.argmax)} orderings), "
            f"min {result.min_value} ({len(result.argmin)} orderings), "
            f"matches documented 14802/14196: "
            f"{result.matches_reference_max}/{result.matches_reference_min}"
        )
    notes.append(
        "the documented objective is not recoverable from the example; both "
        "readings are published instead of guessing"
    )
    return notes


CATALOG: tuple[Claim, ...] = tuple(claim for claim, _, _, _ in _REGISTRY.values())

CLAIM_IDS: tuple[str, ...] = tuple(c.claim_id for c in CATALOG)


def verify(
    claim_id: str,
    params: Mapping | None = None,
    witness_cap: int | None = DEFAULT_WITNESS_CAP,
) -> ClaimResult:
    """Run one cataloged claim and return its result.

    ``params`` overrides the claim's defaults (unknown keys are rejected);
    ``witness_cap=None`` keeps every witness instead of the first 25, and a
    negative cap is rejected.
    """
    if claim_id not in _REGISTRY:
        raise KeyError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    _, check, defaults, clean = _REGISTRY[claim_id]
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown parameters for {claim_id}: {sorted(unknown)}")
        merged.update({k: int(v) for k, v in params.items()})
    low = [f"{k}={v}" for k, v in sorted(merged.items()) if v < 1]
    if low:
        raise ValueError(f"parameters of {claim_id} must be >= 1, got {', '.join(low)}")
    if witness_cap is not None and witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0 or None, got {witness_cap}")
    tally = _Tally(witness_cap)
    start = time.perf_counter()
    notes = check(merged, tally)
    elapsed = time.perf_counter() - start
    return ClaimResult(
        claim_id=claim_id,
        params=merged,
        verdict="fails" if tally.violations else clean,
        checked=tally.checked,
        violations=tally.violations,
        witnesses=tuple(tally.witnesses),
        notes=tuple(notes),
        wall_time=elapsed,
    )


def _scaled_params(claim_id: str, config: ReportConfig) -> dict:
    _, _, defaults, _ = _REGISTRY[claim_id]
    params = dict(defaults)
    if config.n_max is not None and "n_max" in params:
        params["n_max"] = min(params["n_max"], config.n_max)
    return params


def run_report(config: ReportConfig | None = None) -> ClaimReport:
    """Run a set of claims (default: all) into one aggregate report.

    Each id is stripped of surrounding whitespace and runs once, however
    often it is named, serially in this process. Unknown ids become
    per-claim error entries instead of aborting the run; so do exceptions
    raised inside a claim.
    """
    config = config or ReportConfig()
    wanted = CLAIM_IDS if config.claim_ids is None else config.claim_ids
    wanted = list(dict.fromkeys(cid.strip() for cid in wanted))
    errors = [(cid, "unknown claim id") for cid in wanted if cid not in _REGISTRY]
    results: list[ClaimResult] = []
    for cid in wanted:
        if cid not in _REGISTRY:
            continue
        try:
            results.append(verify(cid, _scaled_params(cid, config), config.witness_cap))
        except Exception as exc:  # noqa: BLE001 - claim errors must not abort the report
            errors.append((cid, f"{type(exc).__name__}: {exc}"))
    results.sort(key=lambda r: r.claim_id)
    errors.sort()
    metadata = {
        "library": f"treeirr {__version__}",
        "kernel_backend": BACKEND,
        "python": ".".join(str(x) for x in sys.version_info[:3]),
    }
    return ClaimReport(
        results=tuple(results),
        errors=tuple(errors),
        config=config,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# serialization (stable field order, timings optional)


def _witness_text(w: dict) -> str:
    return " ".join(f"{k}={w[k]}" for k in sorted(w))


def result_to_text(result: ClaimResult, include_timings: bool = False) -> str:
    lines = [
        f"claim: {result.claim_id}",
        "params: " + (" ".join(f"{k}={result.params[k]}" for k in sorted(result.params)) or "-"),
        f"verdict: {result.verdict}",
        f"checked: {result.checked}",
        f"violations: {result.violations}",
    ]
    if include_timings:
        lines.append(f"wall_time_s: {result.wall_time:.3f}")
    for note in result.notes:
        lines.append(f"note: {note}")
    if result.violations > len(result.witnesses):
        lines.append(f"witnesses: first {len(result.witnesses)} of {result.violations}")
    for w in result.witnesses:
        lines.append(f"witness: {_witness_text(w)}")
    return "\n".join(lines)


def report_to_text(report: ClaimReport) -> str:
    counts = {"holds": 0, "holds-with-notes": 0, "fails": 0}
    for r in report.results:
        counts[r.verdict] += 1
    head = [
        "treeirr claim report",
        "meta: " + " ".join(f"{k}={report.metadata[k]}" for k in sorted(report.metadata)),
        f"claims: {len(report.results)}  holds: {counts['holds']}  "
        f"holds-with-notes: {counts['holds-with-notes']}  fails: {counts['fails']}  "
        f"errors: {len(report.errors)}",
    ]
    blocks = [result_to_text(r, not report.config.deterministic) for r in report.results]
    for cid, message in report.errors:
        blocks.append(f"claim: {cid}\nerror: {message}")
    return "\n".join(head) + "\n\n" + "\n\n".join(blocks) + "\n"


def result_to_dict(result: ClaimResult, include_timings: bool = False) -> dict:
    """The JSON record of one result, as ``verify --json`` and reports write it."""
    return {
        "claim": result.claim_id,
        "params": result.params,
        "verdict": result.verdict,
        "checked": result.checked,
        "violations": result.violations,
        "witnesses": list(result.witnesses),
        "notes": list(result.notes),
        **({"wall_time_s": round(result.wall_time, 3)} if include_timings else {}),
    }


def report_to_json(report: ClaimReport) -> str:
    payload = {
        "metadata": report.metadata,
        "results": [result_to_dict(r, not report.config.deterministic) for r in report.results],
        "errors": [{"claim": cid, "error": msg} for cid, msg in report.errors],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def exit_status(report: ClaimReport) -> int:
    """2 for usage-level errors (unknown ids), 1 for failures, else 0."""
    if any(msg == "unknown claim id" for _, msg in report.errors):
        return 2
    if report.errors or any(r.verdict == "fails" for r in report.results):
        return 1
    return 0
