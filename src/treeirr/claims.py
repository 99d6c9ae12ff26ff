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

Each class of trees a statement ranges over (an order, a maximum degree, a
degree sequence, caterpillars) is a :class:`TreeClass`, the one filter over
an order's canonical table of degrees and parents. Index values are read off
its rows in one grouped pass (:func:`_extremes`), whatever the row order;
the rows a claim or ``extremal`` prints become witnesses through one record
path, ``enumeration._witness_records``, and no ``Tree`` is built for them.
"""

from __future__ import annotations

import json
import sys
import time
from importlib import resources
from itertools import chain, combinations_with_replacement, islice, permutations
from math import comb
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import __version__
from ._kernels import BACKEND, degree_class_sums
from .degseq import DegreeSequence, caterpillar_sigma, star
from .edgelist import parse_edge_list
from .enumeration import (
    EnumerationGuard,
    _check_order,
    _refuse_above_cap,
    _rows_reaching,
    _witness_records,
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
from .indices import compute_indices, total_irregularity_by_degrees
from .tree import Tree, degrees, strong_support_vertices

DEFAULT_WITNESS_CAP = 25
# The star claims' n_max counts leaves; a sweep to k leaves does O(k^2) work.
STAR_LEAF_MAX = 1000

REFERENCE_PERM_TUPLE = (4, 8, 10, 14, 18, 20)
REFERENCE_PERM_MAX = 14802
REFERENCE_PERM_MIN = 14196


# ---------------------------------------------------------------------------
# result containers


class Claim(NamedTuple):
    claim_id: str
    statement: str
    parameter_space: str
    oracle_kind: str  # exhaustive-trees | arithmetic | table-fixture | permutation-search


class ClaimResult(NamedTuple):
    claim_id: str
    params: dict
    verdict: str  # holds | fails | holds-with-notes
    checked: int
    violations: int
    witnesses: tuple[dict, ...]
    notes: tuple[str, ...]
    wall_time: float = 0.0


class TreeClass(NamedTuple):
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

    def _rows(self) -> Iterator[tuple[bytes, bytes]]:
        """The class's rows of the order's table, ``(degrees, parents)``.

        The one filter over the canonical order for every class query: each
        tree is decided on its degrees and parents, with no tree built. Only
        the rows reaching the class's largest allowed degree (``delta``, or
        the sequence's first entry) are read
        (``enumeration._rows_reaching``); of those, the maximum degree must
        equal ``delta``, the sorted degrees must equal the sequence, and a
        caterpillar's non-leaf vertices must form at most two chains from
        the root (:func:`_caterpillar_row`). A class with no constraint
        keeps every row.
        """
        delta = self.delta
        seq = None if self.degree_sequence is None else list(self.degree_sequence.values)
        caterpillar_only = self.caterpillar_only
        top = delta if delta is not None else (seq[0] if seq is not None else 0)
        for row in _rows_reaching(self.n, top):
            deg, parent = row
            if delta is not None and max(deg) != delta:
                continue
            if seq is not None and sorted(deg, reverse=True) != seq:
                continue
            if caterpillar_only and not _caterpillar_row(deg, parent):
                continue
            yield row


def _caterpillar_row(deg: Sequence[int], parent: Sequence[int]) -> bool:
    """``is_caterpillar`` of a table row's tree, off its degrees and parents.

    The row must be a preorder layout rooted at a center, as every table
    row is: a parent precedes its children, the root's parent is ``0``, and
    the root is a non-leaf vertex from order 3 on. The non-leaf vertices
    (degree >= 2) span a subtree, and in row order they are its preorder
    from the root. Removing the leaves leaves a path (or nothing) exactly
    when that subtree is at most two chains from the root: every non-leaf
    vertex hangs from the non-leaf vertex before it, except at most one,
    which hangs from the root.
    """
    prev = 0
    branched = False
    for i, d in enumerate(deg):
        if d >= 2:
            p = parent[i]
            if p != prev:
                if p or branched:
                    return False
                branched = True
            prev = i
    return True


def _pendant_neighbours(parent: Sequence[int]) -> list[int]:
    """Leaf neighbours of each vertex of a table row's tree, off its parents.

    The degrees are counted over the parent edges. A vertex's leaf
    neighbours are its leaf children, plus its parent when that is a leaf,
    which happens only at order 2. A vertex with at least ``m`` of them is
    in ``strong_support_vertices(t, m)``.
    """
    n = len(parent)
    deg = [1] * n
    deg[0] = 0
    for p in parent[1:]:
        deg[p] += 1
    count = [0] * n
    for i in range(1, n):
        p = parent[i]
        if deg[i] == 1:
            count[p] += 1
        if deg[p] == 1:
            count[i] += 1
    return count


class ExtremalResult(NamedTuple):
    class_description: str
    index: str
    objective: str
    value: int
    witnesses: tuple[tuple[str, str], ...]  # (canonical code, edge list)


class PermSearchResult(NamedTuple):
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


class _ReportConfigFields(NamedTuple):
    claim_ids: tuple[str, ...] | None = None
    n_max: int | None = None
    witness_cap: int | None = DEFAULT_WITNESS_CAP
    deterministic: bool = True  # False adds each claim's wall time to the output
    # Reports run in one process. The field stays, with 1 its only legal
    # value, while perfbench/worker.py still passes jobs=1.
    jobs: int = 1


class ReportConfig(_ReportConfigFields):
    # A NamedTuple body cannot define __new__, so the check sits on a
    # subclass; empty slots keep its instances free of a __dict__.
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ReportConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.jobs != 1:
            raise ValueError(f"reports run in one process; jobs must be 1, got {self.jobs}")
        return self


class ClaimReport(NamedTuple):
    results: tuple[ClaimResult, ...]
    errors: tuple[tuple[str, str], ...]
    config: ReportConfig
    metadata: dict


# ---------------------------------------------------------------------------
# fixtures


def _data_text(name: str) -> str:
    return resources.files("treeirr").joinpath(f"data/{name}").read_text(encoding="utf-8")


class Table1Row(NamedTuple):
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


def _row_index(deg: Sequence[int], parent: Sequence[int], index: str) -> int:
    """An index of a table row's tree, by definition, unbuilt.

    ``irr`` and ``sigma`` sum ``|d_i - d_p|`` or its square over the edges
    ``(i, p = parent[i])`` (the root's parent ``0`` adds a zero term), and
    ``edge_sum`` sums ``d_i + d_p`` over them; ``irr_T`` and ``m1`` are the
    degree-class sums.
    """
    if index == "irr":
        return sum([abs(d - deg[p]) for d, p in zip(deg, parent)])
    if index == "sigma":
        return sum([(x := d - deg[p]) * x for d, p in zip(deg, parent)])
    if index == "edge_sum":
        return sum([deg[i] + deg[parent[i]] for i in range(1, len(deg))])
    return degree_class_sums(deg)[("irr_T", "m1").index(index)]


def _extremes(rows, key, index: str, objectives: Sequence[str] = ("min", "max")) -> dict:
    """``{objective: {key: (value, parents)}}`` of ``index`` over table rows, in one pass.

    Rows group by ``key(deg, parent)``, or all under ``None``; each extreme comes with
    the parents of every row reaching it, in the table's row order.
    """
    found: dict = {objective: {} for objective in objectives}
    for deg, parent in rows:
        value = _row_index(deg, parent, index)
        k = None if key is None else key(deg, parent)
        for objective, groups in found.items():
            best = groups.get(k)
            if best is None or (value > best[0] if objective == "max" else value < best[0]):
                groups[k] = (value, [parent])
            elif value == best[0]:
                best[1].append(parent)
    return found


def _sequence_ranges(n: int, index: str) -> dict[tuple[int, ...], tuple[int, int]]:
    """``(min, max)`` of ``index`` per degree sequence (largest first) of order ``n``."""
    found = _extremes(_rows_reaching(n, 0), lambda deg, _: tuple(sorted(deg, reverse=True)), index)
    return {k: (low, found["max"][k][0]) for k, (low, _) in found["min"].items()}


def extremal_over_class(tree_class: TreeClass, index: str, objective: str) -> ExtremalResult:
    """Exact optimum of one index over the class, with every witness.

    Every row of the class (:meth:`TreeClass._rows`) is read, under the
    enumeration's order guard, so the result is certified, not heuristic;
    only the witnesses are coded (``enumeration._witness_records``), in
    ascending canonical code, each with the edge list of its ``all_trees``
    representative (level-sequence labels).
    """
    if index not in ("irr", "sigma", "irr_T"):
        raise ValueError(f"unknown index {index!r} (expected irr, sigma or irr_T)")
    if objective not in ("min", "max"):
        raise ValueError(f"objective must be min or max, got {objective!r}")
    seq = tree_class.degree_sequence
    if seq is not None and seq.n != tree_class.n:
        raise ValueError("degree sequence length disagrees with class order")
    found = _extremes(tree_class._rows(), None, index, (objective,))[objective]
    if not found:
        raise ValueError(f"empty tree class: {tree_class.describe()}")
    best, parents = found[None]
    records = _witness_records(zip(parents))
    return ExtremalResult(
        class_description=tree_class.describe(),
        index=index,
        objective=objective,
        value=best,
        witnesses=tuple((code.decode("ascii"), text) for code, text, _ in records),
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


def _leaf_counts(n_max: int) -> range:
    """Leaf counts ``3..n_max`` of a star claim, refused above the guard before any work."""
    if n_max > STAR_LEAF_MAX:
        raise EnumerationGuard(f"leaf count {n_max} above guard {STAR_LEAF_MAX}")
    return range(3, n_max + 1)


class _Tally:
    """Cases checked and violations of one claim run, with the first ``cap`` witnesses.

    A checker records each case through :meth:`count`, or a whole class of
    cases through :meth:`add_class`; one with its own loop counts
    ``checked`` itself and records each violation through :meth:`add`.
    """

    def __init__(self, cap: int | None):
        self.cap = cap
        self.checked = 0
        self.violations = 0
        self.witnesses: list[dict] = []

    @property
    def full(self) -> bool:
        """Whether the cap keeps no further witness."""
        return self.cap is not None and len(self.witnesses) >= self.cap

    def add(self, witness: dict) -> None:
        """One violation, with its witness kept while the cap has room."""
        self.violations += 1
        if not self.full:
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

    def count(self, cases, bad: Callable[..., bool], witness: Callable[..., dict]) -> None:
        """Each case checked, through ``bad``, which decides whether it violates.

        ``witness(case)`` builds a violation's dict only while the cap
        keeps it, so a claim with many violations builds no more than that.
        """
        for case in cases:
            self.checked += 1
            if bad(case):
                self.violations += 1
                if not self.full:
                    self.witnesses.append(witness(case))


def _irr_change(lam: int, dr: int, sum_w: int, ge_w: int, sum_r: int, le_r: int) -> int:
    """The change of ``irr`` from moving a leaf off support ``y`` onto ``r``.

    ``y`` has degree ``lam`` and ``r``, another neighbor of ``y``, degree
    ``dr``. Only the edges at ``y`` and ``r`` change, so six integers fix
    the change. ``W`` are the ``lam - 2`` neighbors of ``y`` other than the
    donor leaf and ``r``: their degree sum is ``sum_w`` and ``ge_w`` of
    them have degree ``>= lam``. ``R`` are the ``dr - 1`` neighbors of
    ``r`` other than ``y``: their degree sum is ``sum_r`` and ``le_r`` of
    them have degree ``<= dr``. By edge class: an edge to ``W`` goes from
    ``(lam, d_w)`` to ``(lam - 1, d_w)``, +1 if ``d_w >= lam`` and -1
    otherwise, so ``W`` adds ``2 ge_w - lam + 2``; an edge to ``R`` goes
    from ``(dr, d_w)`` to ``(dr + 1, d_w)``, so ``R`` adds ``2 le_r - dr +
    1``; edge ``yr`` goes from ``(lam, dr)`` to ``(lam - 1, dr + 1)``,
    adding ``|lam - 2 - dr| - |lam - dr|``; the donor edge goes from ``(lam,
    1)`` to ``(dr + 1, 1)``, adding ``dr - lam + 1``. The four terms add
    up to the return value. ``sum_w`` and ``sum_r`` are not read:
    :func:`_sigma_change` takes the same six integers.

    The tests hold it to ``_brute.relocate_leaf`` plus a full recompute,
    and to the unreduced class sum ``_brute.irr_change_by_class``.
    """
    return 2 * (ge_w + le_r - lam + 2) + abs(lam - 2 - dr) - abs(lam - dr)


def _sigma_change(lam: int, dr: int, sum_w: int, ge_w: int, sum_r: int, le_r: int) -> int:
    """The change of ``sigma`` from moving a leaf off support ``y`` onto ``r``.

    The move, ``W``, ``R`` and the six integers are those of
    :func:`_irr_change`. By edge class: ``W`` adds ``sum_W (2 d_w - 2 lam +
    1) = 2 sum_w - (lam - 2)(2 lam - 1)``; ``R`` adds ``sum_R (2 dr - 2 d_w
    + 1) = (dr - 1)(2 dr + 1) - 2 sum_r``; edge ``yr`` adds ``(lam - 2 -
    dr)^2 - (lam - dr)^2 = 4 (dr - lam + 1)``; the donor edge adds ``dr^2 -
    (lam - 1)^2``. The terms free of the sums add up to ``3 dr (dr + 1) - 3
    lam (lam - 1)``. ``ge_w`` and ``le_r`` are not read.

    The tests hold it to ``_brute.relocate_leaf`` plus a full recompute,
    and to the unreduced class sum ``_brute.sigma_change_by_class``.
    """
    return 2 * (sum_w - sum_r) + 3 * (dr * (dr + 1) - lam * (lam - 1))


def _tree_relocations(rows, lam_min: int, lam_max: int, support_filter: bool, change):
    """Every leaf relocation off a support of degree ``lam_min..lam_max``, by row and support.

    ``rows`` are level-sequence layouts of one order, each given by its
    degrees and parents (``enumeration._rows_reaching``; the root's
    parent is never read); a row whose maximum degree is below ``lam_min``
    yields nothing. A parent's id is below its children's, so a
    vertex's neighbours in ascending id are its parent, then its children
    in ascending id. One children list per vertex is filled again for each
    row.

    Yields ``(deg, parent, records)`` for each row with a record, in row
    order, and one record ``(y, lam, side, donors, leaf_change, inner)``
    per support vertex ``y``: degree ``lam`` with ``3 <= lam_min <= lam <=
    lam_max`` and at least one leaf neighbour. ``side`` is ``"strict"``
    when ``y`` sits below the maximum degree, ``"tied"`` when it holds it
    with another vertex and ``"unfiltered"`` when it holds it alone;
    ``support_filter`` skips the last. ``donors`` are the leaf neighbours
    of ``y`` in ascending id. Each may move to every other neighbour of
    ``y``, so the support holds ``len(donors) * (lam - 1)`` moves.

    ``change`` is :func:`_irr_change` or :func:`_sigma_change`, and each
    change below is the one int it gives. The change of a move depends on
    the recipient, not on which leaf moves. A leaf recipient has no other
    neighbour, so with two donors or more every donor is a recipient of the
    others and ``leaf_change`` is their one shared change; a lone donor is
    not a recipient and ``leaf_change`` is ``None``. ``inner`` lists
    ``(r, change)`` for each non-leaf neighbour ``r`` of ``y`` in ascending
    id, its sums over ``W`` and ``R`` read off the parent and children of
    ``y`` and ``r``. No tree, moved or not, and no index bundle is built.
    """
    kids: list[list[int]] = []
    for deg, parent in rows:
        delta = max(deg)
        if delta < lam_min:
            continue
        n = len(deg)
        if len(kids) == n:
            for k in kids:
                k.clear()
        else:
            kids = [[] for _ in range(n)]
        for i in range(1, n):
            kids[parent[i]].append(i)
        alone = deg.count(delta) == 1
        records = []
        for y in range(n):
            lam = deg[y]
            if not lam_min <= lam <= lam_max:
                continue
            side = "strict" if lam < delta else ("unfiltered" if alone else "tied")
            if support_filter and side == "unfiltered":
                continue
            nbrs = [parent[y], *kids[y]] if y else kids[y]
            donors = []
            # Degree sum and count at >= lam over N(y) less one donor leaf.
            sum_y = -1
            ge_y = 0
            for w in nbrs:
                dw = deg[w]
                if dw == 1:
                    donors.append(w)
                sum_y += dw
                ge_y += dw >= lam
            if not donors:
                continue
            leaf_change = None
            if len(donors) > 1:
                leaf_change = change(lam, 1, sum_y - 1, ge_y, 0, 0)
            inner = []
            for r in nbrs:
                dr = deg[r]
                if dr == 1:
                    continue
                # Degree sum and count at <= dr over R = N(r) less y.
                sum_r = -lam
                le_r = -(lam <= dr)
                if r:
                    dw = deg[parent[r]]
                    sum_r += dw
                    le_r += dw <= dr
                for w in kids[r]:
                    dw = deg[w]
                    sum_r += dw
                    le_r += dw <= dr
                inner.append((r, change(lam, dr, sum_y - dr, ge_y - (dr >= lam), sum_r, le_r)))
            records.append((y, lam, side, donors, leaf_change, inner))
        if records:
            yield deg, parent, records


def _relocation_witnesses(tree, parent, deg, walk, bad, value_key):
    # The row's violating moves in sweep order, from its records, which
    # ``walk`` (_tree_relocations with the claim's bounds) gives again: per
    # support, each donor in ascending id onto each recipient in ascending
    # id whose change ``bad`` rejects, bar itself. ``tree`` is the row's
    # edge text; the row is walked and its index value read once, when the
    # tally draws the row's first witness.
    before = _row_index(deg, parent, value_key)
    [(_, _, records)] = walk([(deg, parent)])
    for y, lam, side, donors, leaf_change, inner in records:
        hit = [(r, change) for r, change in inner if bad(change, lam)]
        if leaf_change is not None and bad(leaf_change, lam):
            hit = sorted(hit + [(d, leaf_change) for d in donors])
        for donor in donors:
            for recipient, change in hit:
                if recipient != donor:
                    yield {
                        "tree": tree,
                        "n": len(parent),
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
    skipped. Of each order's table, only the rows with a vertex of degree
    ``>= lam_min`` are read (``enumeration._rows_reaching``): ``sigma-increase``
    (``lam_min`` 11) walks 8 of the 5,011 rows of orders 12-14. They are
    swept on their degrees and parents by :func:`_tree_relocations`, which
    gets the one change function of ``value_key`` (:func:`_irr_change` or
    :func:`_sigma_change`), so its records carry one int per change, and
    each order is counted at once. While the tally has room, the order's
    violating rows are kept for the witness records
    (``enumeration._witness_records``), but not their records, which would
    swell an uncapped run; a full tally keeps none (16,801 rows for
    ``irr-decrease`` at order 16). So witnesses come in ascending canonical
    code and in sweep order within a tree, and a row is walked again only
    when the tally draws a witness from it (:func:`_relocation_witnesses`).

    ``bad(change, lam)`` decides whether a move that changes the index
    ``value_key`` by ``change`` violates the claim. It is decided once per
    support for its leaf recipients and once per non-leaf recipient, and
    the support is counted in integers: with ``D`` donors it holds ``D *
    (lam - 1)`` moves, and each donor violates once per bad non-leaf
    recipient and ``D - 1`` times more when the leaf change is bad.

    With ``apply_support_filter`` the sweep keeps only supports that do not
    hold the maximum degree alone (both readings of that side condition
    are tallied separately); without it every admissible move counts and
    the split by side is reported in the notes.
    """
    change = {"irr": _irr_change, "sigma": _sigma_change}[value_key]
    if lam_max is None:
        lam_max = params["n_max"]
    moves = dict.fromkeys(("strict", "tied", "unfiltered"), 0)
    violations = dict(moves)

    def walk(rows):
        return _tree_relocations(rows, lam_min, lam_max, apply_support_filter, change)

    for n in _orders(lam_min + 1, params["n_max"]):
        order_moves = order_violations = 0
        keep = not tally.full
        witnessing_rows = []
        for deg, parent, records in walk(_rows_reaching(n, lam_min)):
            row_violations = 0
            for _, lam, side, donors, leaf_change, inner in records:
                bad_recipients = 0
                for _, inner_change in inner:
                    bad_recipients += bad(inner_change, lam)
                d = len(donors)
                if leaf_change is not None and bad(leaf_change, lam):
                    bad_recipients += d - 1
                count = d * (lam - 1)
                bad_count = d * bad_recipients
                moves[side] += count
                violations[side] += bad_count
                order_moves += count
                row_violations += bad_count
            order_violations += row_violations
            if row_violations and keep:
                witnessing_rows.append((parent, deg))
        witnesses = chain.from_iterable(
            _relocation_witnesses(tree, *row, walk, bad, value_key)
            for _, tree, row in _witness_records(witnessing_rows)
        )
        tally.add_class(order_moves, order_violations, witnesses)
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
    def irr(k):
        return compute_indices(star(k)).irr

    tally.count(
        _leaf_counts(params["n_max"]),
        lambda k: irr(k) != k * (k - 1),
        lambda k: {"leaves": k, "got": irr(k), "want": k * (k - 1)},
    )
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
    def irr_sum(k):
        return compute_indices(star(k)).irr + compute_indices(star(k)).irr

    tally.count(
        _leaf_counts(params["n_max"]),
        lambda k: irr_sum(k) != 2 * k * (k - 1),
        lambda k: {"leaves": k, "got": irr_sum(k), "want": 2 * k * (k - 1)},
    )
    return []


def _identity_claim(params, tally, lo, check):
    """Shared engine for the claims checked on every tree of orders ``lo..n_max``.

    ``check(deg, parent)`` returns a table row's violation values or
    ``None``. Each order is counted at once, and its violating rows are its
    witness records (``enumeration._witness_records``), in ``all_trees``
    order. The claims have no notes.
    """
    for n in _orders(lo, params["n_max"]):
        checked = 0
        bad = []
        for deg, parent in _rows_reaching(n, 0):
            checked += 1
            values = check(deg, parent)
            if values is not None:
                bad.append((parent, values))
        witnesses = ({"tree": tree, **values} for _, tree, (_, values) in _witness_records(bad))
        tally.add_class(checked, len(bad), witnesses)
    return []


def _range_claim(tally, n, index, formula, note):
    """Shared engine for the closed forms of one order's tree sequences.

    For each tree sequence of order ``n`` (largest first), ``formula(values)``
    violates unless it lies in the exhaustive ``(min, max)`` of ``index`` over
    the sequence's trees (:func:`_sequence_ranges`). Each sequence adds the
    note ``note(seq, value, min, max)``.
    """
    notes = []
    ranges = _sequence_ranges(n, index)
    for seq in tree_degree_sequences(n):
        tally.checked += 1
        value = formula(seq.values)
        tmn, tmx = ranges[seq.values]
        if not tmn <= value <= tmx:
            tally.add({"sequence": str(seq), "formula": value, "true_min": tmn, "true_max": tmx})
        notes.append(note(seq, value, tmn, tmx))
    return notes


@_claim(
    "sandwich",
    "sigma <= irr^2 and irr^2 <= m * sigma on every tree",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=10,
)
def _check_sandwich(params, tally):
    def check(deg, parent):
        irr, sigma = _row_index(deg, parent, "irr"), _row_index(deg, parent, "sigma")
        if not (sigma <= irr ** 2 and irr ** 2 <= (len(deg) - 1) * sigma):
            return {"irr": irr, "sigma": sigma}

    return _identity_claim(params, tally, 1, check)


@_claim(
    "irr-upper-tree",
    "irr <= (n-1)(n-2) on every tree of order >= 2",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=10,
)
def _check_irr_upper(params, tally):
    def check(deg, parent):
        got, bound = _row_index(deg, parent, "irr"), (len(deg) - 1) * (len(deg) - 2)
        if got > bound:
            return {"irr": got, "bound": bound}

    return _identity_claim(params, tally, 2, check)


@_claim(
    "irrT-seq-formula",
    "2(n+1)m - 2*sum(i*d_i) equals the pairwise total irregularity",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=9,
)
def _check_irrT_seq(params, tally):
    # The pairwise side is the degree-class sum, never the formula it checks.
    def check(deg, parent):
        pairwise = _row_index(deg, parent, "irr_T")
        by_seq = total_irregularity_by_degrees(deg)
        if pairwise != by_seq:
            return {"pairwise": pairwise, "sequence": by_seq}

    return _identity_claim(params, tally, 1, check)


@_claim(
    "m1-edge-identity",
    "the first Zagreb index equals the sum of d(u)+d(v) over edges",
    "all unlabeled trees up to n_max",
    "exhaustive-trees",
    n_max=10,
)
def _check_m1_identity(params, tally):
    def check(deg, parent):
        m1, edge_sum = _row_index(deg, parent, "m1"), _row_index(deg, parent, "edge_sum")
        if m1 != edge_sum:
            return {"m1": m1, "edge_sum": edge_sum}

    return _identity_claim(params, tally, 1, check)


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
        ranges = _sequence_ranges(n, "irr")
        for seq in tree_degree_sequences(n):
            distinct = tuple(sorted(set(seq.values), reverse=True))
            if len(distinct) != 3:
                continue
            tally.checked += 1
            fmx, fmn = three_c_values(distinct)
            tmn, tmx = ranges[seq.values]
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
    return _range_claim(
        tally,
        4,
        "irr",
        hyp_four_value,
        lambda seq, value, tmn, tmx: f"{seq}: single form {value}, paired bounds "
        f"{hyp_four_bounds_values(seq.values)}, exhaustive range [{tmn}, {tmx}]",
    )


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
    # (order, pendants) -> (largest irr, its caterpillars' parents), off the
    # caterpillar class's rows. Both readings of a strong support vertex are
    # decided on each maximum's leaf-neighbour counts, with no tree built; a
    # group's violating maxima are its witness records, in ascending
    # canonical code (enumeration._witness_records).
    classes = (TreeClass(n, caterpillar_only=True) for n in _orders(2, params["n_max"]))
    rows = chain.from_iterable(klass._rows() for klass in classes)
    groups = _extremes(rows, lambda deg, parent: (len(deg), deg.count(1)), "irr", ("max",))
    weak_violations = 0
    for (n, pendants), (best, maxima) in sorted(groups["max"].items()):
        most = [max(_pendant_neighbours(parent)) for parent in maxima]
        weak_violations += sum(leaves < 1 for leaves in most)
        bad = [(parent,) for parent, leaves in zip(maxima, most) if leaves < 2]
        records = _witness_records(bad)
        witness = {"n": n, "pendants": pendants, "irr": best}
        tally.add_class(1, len(bad), ({**witness, "tree": tree} for _, tree, _ in records))
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
        extremes = _sequence_ranges(n, "irr")

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
    # The closed form takes the degrees in ascending order.
    return _range_claim(
        tally,
        5,
        "sigma",
        lambda values: sigma_five_value(values[::-1]),
        lambda seq, value, tmn, tmx: f"{seq}: formula {value}, "
        f"exhaustive sigma range [{tmn}, {tmx}]",
    )


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
    span = max(d_max - 3, 0)  # the values 4..d_max
    count = span * (span + 1) // 2
    _refuse_above_cap(count, "{count} pairs above the cap of {cap}")
    pairs = ((d3, d4) for d3 in range(4, d_max + 1) for d4 in range(d3, d_max + 1))
    tally.count(pairs, lambda p: not log_bound_holds(*p), lambda p: {"d3": p[0], "d4": p[1]})
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
    # combinations_with_replacement(degs, k) yields comb(len(degs) + k - 1, k) spines.
    spines = sum(comb(len(degs) + k - 1, k) for k in orders)
    _refuse_above_cap(spines, "{count} spines above the cap of {cap}")

    def witness(spine):
        true_sigma, order = caterpillar_sigma(spine)
        return {
            "spine": str(spine),
            "formula": sigma_ordered_value(spine),
            "sigma": true_sigma,
            "order": order,
        }

    tally.count(
        (s for k in orders for s in combinations_with_replacement(degs, k)),
        lambda spine: sigma_ordered_value(spine) != caterpillar_sigma(spine)[0],
        witness,
    )
    direct_total = direct_agree = 0
    for n in orders:
        for deg, parent in _rows_reaching(n, 0):
            direct_total += 1
            if sigma_ordered_value(tuple(sorted(deg))) == _row_index(deg, parent, "sigma"):
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
