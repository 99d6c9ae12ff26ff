"""Exhaustive tree streams.

:func:`all_trees` is the one enumerator of unlabeled trees. Each order's
trees are kept once by :func:`_canonical_order` as their degrees and
parents, filled by the first caller to reach the order (:func:`_order_rows`)
and kept in generation order, uncoded and never reordered. The rows come
from the package data file ``data/tree_rows.bin`` when it holds the order
(orders 1-14, the orders a default report reads), and from
``_kernels.order_rows``, the level-sequence successor, otherwise. The file
holds that generator's rows: a header line gives the row count of each
order it holds (1, 2, ...), and the body each order's degree blob, then its
parent blob. It is read and checked once per process (:func:`_unpack`): a
body whose size is not the header's, or a row whose root has a parent,
fails the load. ``python tests/_brute.py`` regenerates it, and the test
suite holds it to ``_kernels.order_rows``. Each ``all_trees`` call codes the
rows (:func:`_row_code`), sorts them by code and builds each
tree with its code (:func:`_parent_tree`). Callers that keep only some
trees read the rows uncoded through one reader, :func:`_rows_reaching`,
decide on degrees and parents, and code, sort and build only the trees
they output. The reader keeps the rows with a vertex of at least a given
degree, found by a C-level scan of the degree blob that never visits the
other rows. The sequence ranges, the identity claims and ``sigma-ordered``'s
direct reading read every row (lam 0); ``claims.TreeClass`` and the
relocation sweeps read only the rows reaching a degree.
:func:`trees_with_degree_sequence` realizes one tree-graphical degree
multiset through Prüfer codes and deduplicates by canonical code. The
``realize`` command is its only CLI user: ``extremal --seq`` and the claims
filter the canonical order's rows instead (``claims.TreeClass._rows``). The test
suite builds an independent twin of :func:`all_trees` from it, over every
degree multiset of an order, and holds the two to agreement.

These and :func:`tree_degree_sequences` walk through one guard,
:func:`_check_order`: orders 1 to ``MAX_ORDER`` (16), with no
override. The realizer also refuses any sequence with more than
``CODE_CAP`` (10⁷) Prüfer arrangements, through the one cap check that
the capped claims share, :func:`_refuse_above_cap`.
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


def _refuse_above_cap(count: int, message: str) -> None:
    """The one ``CODE_CAP`` check: refuse a sweep of more than ``CODE_CAP`` cases.

    ``message`` is the refusal's text, with ``{count}`` and ``{cap}`` filled
    in; the caller computes ``count`` up front, before any case is run.
    """
    if count > CODE_CAP:
        raise EnumerationGuard(message.format(count=count, cap=CODE_CAP))


# Order -> the degrees and the parents of each tree of the order, in generation
# order: two blobs of n bytes per tree (144 KB for all orders up to 14, about
# 1 MB up to 16). The root's parent byte is 0.
_TABLES: dict[int, tuple[bytes, bytes]] = {}

# The packed rows file, as a package resource path.
_ROWS_FILE = "data/tree_rows.bin"

# Order -> ``(degrees, parents)`` of each order the packed file holds, the
# blobs that every fill of the order keeps; read and checked by the first
# fill in the process.
_PACKED: dict[int, tuple[bytes, bytes]] = {}


def _unpack(data: bytes) -> dict[int, tuple[bytes, bytes]]:
    """The ``(degrees, parents)`` blobs of each order in a packed rows file.

    The header line holds the row count of orders 1, 2, ... in decimal,
    and the body each order's degree blob, then its parent blob, ``n``
    bytes per row. A file whose body is not the size the counts give, or
    in which some row's root (its first vertex) has a parent, is refused.
    """
    end = data.find(b"\n")
    counts = [int(count) for count in data[:end].split()] if end >= 0 else []
    size = sum(2 * n * rows for n, rows in enumerate(counts, 1))
    if not counts or len(data) - end - 1 != size:
        raise ValueError(
            f"{_ROWS_FILE}: {len(data) - end - 1} bytes of rows, but its header counts {size}"
        )
    orders = {}
    start = end + 1
    for n, rows in enumerate(counts, 1):
        half = n * rows
        parents = data[start + half : start + 2 * half]
        if parents[::n] != bytes(rows):
            raise ValueError(f"{_ROWS_FILE}: a row of order {n} does not start at its root")
        orders[n] = data[start : start + half], parents
        start += 2 * half
    return orders


def _order_rows(n: int) -> tuple[bytes, bytes]:
    """``(degrees, parents)`` of every tree of order ``n``, in generation order.

    The packed file's blobs when it holds the order, and
    ``_kernels.order_rows(n)`` otherwise. The first call reads and checks
    the file (:func:`_unpack`) for the rest of the process.
    """
    if not _PACKED:
        from importlib import resources

        _PACKED.update(_unpack(resources.files(__package__).joinpath(_ROWS_FILE).read_bytes()))
    return _PACKED.get(n) or _kernels.order_rows(n)


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


def _canonical_order(n: int) -> tuple[bytes, bytes]:
    """``(degrees, parents)`` of the trees of order ``n``, kept once per order.

    The first call fills the rows (:func:`_order_rows`) and keeps the two
    blobs in ``_TABLES`` as they come, for the rest of the process.
    """
    _check_order(n)
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = _order_rows(n)
    return table


def _rows_reaching(n: int, lam: int) -> Iterator[tuple[bytes, bytes]]:
    """``(degrees, parents)`` of each tree of order ``n`` with some degree ``>= lam``.

    ``bytes`` slices of the order's table (:func:`_canonical_order`), the
    root's parent being ``0``, in generation order; lam 0 (or below) reads
    every row. The table is filled before the first row if no caller has
    reached the order yet. Nothing is coded: a caller that outputs rows
    codes (:func:`_row_code`) and sorts them itself.

    The scan is C-level: ``bytes.translate`` maps the order's degree blob
    to a 0/1 mask, the ``n`` strided slices of the mask (the i-th vertex of
    every row) are OR-ed as integers into one flag byte per row, and
    ``find`` jumps from each run of kept rows to the next. So a row with no
    degree ``>= lam`` is never sliced or visited in Python, and a run of
    kept rows costs two ``find`` calls, not one per row.
    """
    deg_blob, parent_blob = _canonical_order(n)
    cut = min(max(lam, 0), 256)
    mask = deg_blob.translate(bytes(cut) + b"\1" * (256 - cut))
    rows = len(mask) // n
    hit = 0
    for i in range(n):
        hit |= int.from_bytes(mask[i::n], "big")
    find = hit.to_bytes(rows, "big").find
    first = find(b"\1")
    while first >= 0:
        end = find(b"\0", first)
        if end < 0:
            end = rows
        for start in range(first * n, end * n, n):
            yield deg_blob[start : start + n], parent_blob[start : start + n]
        first = find(b"\1", end)


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

    Deterministic emission: ascending canonical code. Every call codes the
    order's rows from their parents (:func:`_row_code`), sorts their
    positions by code and builds each tree in one unvalidated pass
    (:func:`_parent_tree`) with its code preset: every call yields the same
    labeled trees, each with its code, and leaves the table as it was.
    """
    _, parent_blob = _canonical_order(n)
    codes = [_row_code(parent_blob[start : start + n]) for start in range(0, len(parent_blob), n)]
    for i in sorted(range(len(codes)), key=codes.__getitem__):
        yield _parent_tree(parent_blob[i * n : i * n + n], codes[i])


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
    _refuse_above_cap(
        realization_count(seq),
        f"degree sequence {seq} needs {{count}} realization codes, cap is {{cap}}",
    )
    entries = [[v, d - 1] for v, d in enumerate(seq.values) if d >= 2]
    found: dict[bytes, Tree] = {}
    for code in _multiset_perms(entries, n - 2):
        t = prufer_decode(code, n)
        found.setdefault(canonical_code(t), t)
    for key in sorted(found):
        yield found[key]
