"""Exhaustive tree streams.

:func:`all_trees` is the one enumerator of unlabeled trees. It walks the
canonical order of an order's level sequences (a recursive-generation
scheme), kept once per order by :func:`_canonical_order` as the degrees
and parents of its trees: the first caller to reach an order generates
its rows (``_kernels.order_rows``, which steps the degrees and parents
with the successor and builds no level sequence), keeps them in
generation order and codes nothing. ``all_trees`` needs its rows in
ascending canonical code, so the first time it reaches an order it codes
each row once from its parents (:func:`_row_code`) and rewrites the table
in code order. Only the trees ``all_trees`` yields on the call that codes
the order carry canonical codes. Every tree of the canonical order is
built from its parents by :func:`_parent_tree`. Callers that keep only
some trees of an order (``claims.TreeClass``, the class extremes, the
relocation sweeps) read :func:`_canonical_table`, which never codes. They
decide and read index values on degrees and parents, whatever the row
order, and code, sort and build only the trees they output.
:func:`trees_with_degree_sequence` realizes one tree-graphical degree
multiset through Prüfer codes and deduplicates by canonical code. The
``realize`` command is its only CLI user: ``extremal --seq`` and the claims
filter the canonical order's rows instead (``claims.TreeClass._rows``). The test
suite builds an independent twin of :func:`all_trees` from it, over every
degree multiset of an order, and holds the two to agreement.

These and :func:`tree_degree_sequences` walk through one guard,
:func:`_check_order`: orders 1 to ``MAX_ORDER`` (16), with no
override. The realizer also refuses any sequence with more than
``CODE_CAP`` (10⁷) Prüfer arrangements.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Sequence

from . import _kernels
from .degseq import DegreeSequence, prufer_decode, validate_tree_sequence
from .tree import CanonicalCode, Tree, canonical_code

MAX_ORDER = 16
CODE_CAP = 10_000_000


class EnumerationGuard(ValueError):
    """A sweep would exceed the desk-scale guard rails."""


def _check_order(n: int) -> None:
    """The order guard of every exhaustive sweep: ``1 <= n <= MAX_ORDER``."""
    if not 1 <= n <= MAX_ORDER:
        raise EnumerationGuard(f"order {n} outside guard range 1..{MAX_ORDER}")


# Order -> the degrees and the parents of each tree of the order: two blobs of
# n bytes per tree (144 KB for all orders up to 14, about 1 MB up to 16), and
# whether the rows are in ascending canonical code (``all_trees`` order) or
# in generation order. The root's parent byte is 0.
_TABLES: dict[int, tuple[bytes, bytes, bool]] = {}


def _row_code(parent: Sequence[int]) -> CanonicalCode:
    """Canonical code of a table row's tree, from its parents alone.

    A row's vertices are its level sequence's, in preorder, so each level
    is one more than its parent's; the sequence is rooted at a center, as
    generated, and goes to ``_kernels.level_code`` as is.
    """
    levels = [0]
    for p in parent[1:]:
        levels.append(levels[p] + 1)
    return _kernels.level_code(levels)


def _canonical_order(
    n: int, coded: bool = True
) -> tuple[list[CanonicalCode] | None, bytes, bytes]:
    """``(codes, degrees, parents)`` of the trees of order ``n``, kept once per order.

    The one store of the order. The call that first reaches an order
    generates its rows once (``_kernels.order_rows``, which steps each
    tree's degrees and parents with the level-sequence successor) and keeps
    the two blobs in ``_TABLES`` as they come, in generation order, for the
    rest of the process; nothing is coded. With ``coded`` (``all_trees``)
    an order whose rows are not yet in ascending canonical code is coded
    once from its parents (:func:`_row_code`, once per row) and rewritten
    in that order; that call alone returns the codes, in row order, and
    every other call ``None``.
    """
    _check_order(n)
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = (*_kernels.order_rows(n), False)
    deg_blob, parent_blob, in_code_order = table
    if in_code_order or not coded:
        return None, deg_blob, parent_blob
    starts = range(0, len(parent_blob), n)
    keyed = sorted((_row_code(parent_blob[start : start + n]), start) for start in starts)
    deg_blob = b"".join(deg_blob[start : start + n] for _, start in keyed)
    parent_blob = b"".join(parent_blob[start : start + n] for _, start in keyed)
    _TABLES[n] = (deg_blob, parent_blob, True)
    return [code for code, _ in keyed], deg_blob, parent_blob


def _canonical_table(n: int) -> Iterator[tuple[bytes, bytes]]:
    """``(degrees, parents)`` for each tree of order ``n``, in the table's order.

    The reader for callers that decide on degrees and parents before they
    build (``claims.TreeClass``, the class extremes and the relocation
    sweeps): ``bytes`` slices of the order's table, the root's parent being
    ``0``, filled uncoded before the first row if no caller has reached the
    order yet. Rows come in ascending canonical code once ``all_trees`` has
    reached the order, else in generation order, so a caller that outputs
    rows codes them (:func:`_row_code`) and sorts them itself.
    """
    _, deg_blob, parent_blob = _canonical_order(n, coded=False)
    for start in range(0, len(deg_blob), n):
        yield deg_blob[start : start + n], parent_blob[start : start + n]


def _parent_tree(parent: Sequence[int], code: CanonicalCode | None = None) -> Tree:
    """The tree of a parent list (a list or ``bytes``), unvalidated.

    ``parent[i] < i`` is vertex ``i``'s parent for ``i > 0``; ``parent[0]``
    is not read. A vertex's neighbours in ascending id are its parent,
    then its children in ascending id, so every adjacency list is sorted
    as built, in the same pass as the edges, and goes to
    ``Tree._unchecked`` with them. ``code``, when known, is the canonical
    code.
    """
    n = len(parent)
    adj = [[p] for p in parent]
    adj[0] = []
    edges = []
    for i in range(1, n):
        p = parent[i]
        edges.append((p, i))
        adj[p].append(i)
    return Tree._unchecked(n, edges, tuple(map(tuple, adj)), code)


def all_trees(n: int) -> Iterator[Tree]:
    """One representative per isomorphism class of trees on ``n`` vertices.

    Deterministic emission: ascending canonical code.

    Each tree is built in one unvalidated pass over its parents in the
    order's table (:func:`_parent_tree`), so every call gives the same
    labeled trees in the same order, whichever caller filled the table. On
    the call that codes the order (its first ``all_trees`` call), each tree
    carries its canonical code; later calls skip the generation, coding and
    sort, and their trees have no code cached yet.
    """
    codes, _, parent_blob = _canonical_order(n)
    for i, start in enumerate(range(0, len(parent_blob), n)):
        yield _parent_tree(parent_blob[start : start + n], None if codes is None else codes[i])


def tree_degree_sequences(n: int) -> Iterator[DegreeSequence]:
    """All tree-graphical degree multisets of length ``n``, largest-first order."""
    _check_order(n)
    if n == 1:
        yield DegreeSequence((0,))
        return

    def rec(slots: int, remaining: int, max_part: int, prefix: list[int]):
        if slots == 0:
            if remaining == 0:
                yield DegreeSequence(tuple(prefix))
            return
        hi = min(max_part, remaining - (slots - 1))
        for x in range(hi, 0, -1):
            if x * slots < remaining:
                break
            prefix.append(x)
            yield from rec(slots - 1, remaining - x, x, prefix)
            prefix.pop()

    yield from rec(n, 2 * (n - 1), n - 1, [])


def _multiset_perms(entries: list[list[int]], length: int) -> Iterator[tuple[int, ...]]:
    # entries: mutable [value, count] pairs; emits distinct arrangements.
    if length == 0:
        yield ()
        return
    for entry in entries:
        if entry[1] > 0:
            entry[1] -= 1
            for rest in _multiset_perms(entries, length - 1):
                yield (entry[0],) + rest
            entry[1] += 1


def realization_count(seq: DegreeSequence) -> int:
    """Labeled realizations of the sequence with the identity degree assignment."""
    if seq.n <= 2:
        return 1
    total = factorial(seq.n - 2)
    for d in seq.values:
        total //= factorial(d - 1)
    return total


def trees_with_degree_sequence(seq: DegreeSequence | Sequence[int]) -> Iterator[Tree]:
    """Every isomorphism class realizing the degree multiset, code order.

    Realization walks the distinct Prüfer arrangements in which vertex i
    appears ``d_i - 1`` times, decodes each, and deduplicates canonically.
    A sequence that needs more than ``CODE_CAP`` arrangements is refused
    up front, from :func:`realization_count`, before any decoding.
    """
    if not isinstance(seq, DegreeSequence):
        seq = validate_tree_sequence(seq)
    n = seq.n
    _check_order(n)
    if n == 1:
        yield Tree(1, [])
        return
    count = realization_count(seq)
    if count > CODE_CAP:
        raise EnumerationGuard(
            f"degree sequence {seq} needs {count} realization codes, cap is {CODE_CAP}"
        )
    entries = [[v, d - 1] for v, d in enumerate(seq.values) if d >= 2]
    found: dict[bytes, Tree] = {}
    for code in _multiset_perms(entries, n - 2):
        t = prufer_decode(code, n)
        found.setdefault(canonical_code(t), t)
    for key in sorted(found):
        yield found[key]
