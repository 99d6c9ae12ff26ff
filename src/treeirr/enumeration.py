"""Exhaustive tree streams.

:func:`all_trees` is the one enumerator of unlabeled trees: it walks
canonical level sequences (a recursive-generation scheme), read through
:func:`_canonical_levels`, and its trees alone carry canonical codes.
Callers that keep only some trees of an order (``claims.TreeClass`` and
the relocation sweeps) read :func:`_canonical_table` instead: each tree's
level sequence, degrees and parents, the last two kept per order as
``bytes`` blobs. The first caller to reach an order fills its table
through :func:`_degrees_parents`, once per tree; ``all_trees`` never
fills it. They decide on degrees and parents and build only what they keep.
Every tree of the canonical order is built by :func:`_level_tree`;
it and :func:`_degrees_parents` hold the level-sequence parent rule.
:func:`trees_with_degree_sequence` realizes one tree-graphical degree
multiset through Prüfer codes and deduplicates by canonical code. The
``realize`` command is its only CLI user: ``extremal --seq`` and the claims
filter the canonical order instead (``claims.TreeClass.trees``). The test
suite builds an independent twin of :func:`all_trees` from it, over every
degree multiset of an order, and holds the two to agreement.

These and :func:`tree_degree_sequences` walk through one guard,
:func:`_check_order`: orders 1 to ``MAX_ORDER`` (16), with no
override. The realizer also refuses any sequence with more than
``CODE_CAP`` (10⁷) Prüfer arrangements.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Iterator, Sequence

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


# Order -> the level sequences of all_trees(order), concatenated in
# emission order: one byte per vertex, n bytes per tree.
_CANONICAL_ORDERS: dict[int, bytes] = {}


def _canonical_levels(n: int) -> Iterable[tuple[CanonicalCode | None, bytes]]:
    """``(code, levels)`` for each tree of ``all_trees(n)``, in its order.

    The one reader of the canonical order. The call that first reaches an
    order generates its level sequences, sorts them by the canonical code
    each one holds (``_kernels.level_code``) and keeps them, before it
    returns, as one ``bytes`` blob of n bytes per tree (72 KB for all
    orders up to 14, 0.5 MB up to 16) for the rest of the process; it
    returns the sorted pairs with their codes. Later calls read the blob,
    with no generation, coding or sort, and their codes are ``None``.
    Callers that filter on :func:`_degrees_parents` build only the trees
    they keep, by :func:`_level_tree` on the same slice.
    """
    _check_order(n)
    blob = _CANONICAL_ORDERS.get(n)
    if blob is not None:
        return ((None, blob[start : start + n]) for start in range(0, len(blob), n))
    seqs = map(bytes, _kernels.level_sequences(n))
    keyed = sorted((_kernels.level_code(seq), seq) for seq in seqs)
    _CANONICAL_ORDERS[n] = b"".join(seq for _, seq in keyed)
    return keyed


def _level_tree(levels: Sequence[int], code: CanonicalCode | None = None) -> Tree:
    """The tree of a preorder level sequence (a tuple or ``bytes``), unvalidated.

    ``levels[0] == 0`` and ``1 <= levels[i] <= levels[i - 1] + 1``; vertex
    ``i > 0`` hangs from the latest earlier vertex one level up. Each
    parent id is below its child and children come in ascending id, so
    every adjacency list is sorted as built, in the same pass as the
    edges, and goes to ``Tree._unchecked`` with them. ``code``, when
    known, is the canonical code.
    """
    n = len(levels)
    last = [0] * n  # last[d]: the latest vertex seen at level d
    edges = []
    adj: list[list[int]] = [[]]
    for i in range(1, n):
        lv = levels[i]
        p = last[lv - 1]
        last[lv] = i
        edges.append((p, i))
        adj[p].append(i)
        adj.append([p])
    return Tree._unchecked(n, edges, tuple(map(tuple, adj)), code)


def _degrees_parents(levels: Sequence[int]) -> tuple[list[int], list[int]]:
    """Degrees and parents of the tree of a level sequence, in one pass.

    The parent rule of :func:`_level_tree`. The root's parent is ``-1``.
    """
    n = len(levels)
    last = [0] * n  # last[d]: the latest vertex seen at level d
    deg = [1] * n
    parent = [-1] * n
    deg[0] = 0
    for i in range(1, n):
        lv = levels[i]
        p = last[lv - 1]
        last[lv] = i
        parent[i] = p
        deg[p] += 1
    return deg, parent


# Order -> the degrees and the parents of each tree of _CANONICAL_ORDERS[order],
# laid out like it: two blobs of n bytes per tree (144 KB for all orders up
# to 14). The root's parent byte is 0.
_DEGREES_PARENTS: dict[int, tuple[bytes, bytes]] = {}


def _canonical_table(n: int) -> Iterator[tuple[bytes, bytes, bytes]]:
    """``(levels, degrees, parents)`` for each tree of ``all_trees(n)``, in its order.

    The reader for callers that decide on degrees and parents before they
    build (``claims.TreeClass`` and the relocation sweeps). The first call
    for an order runs :func:`_degrees_parents` once per tree of
    :func:`_canonical_levels` and keeps the result, before it yields, in
    ``_DEGREES_PARENTS``; later calls read the blobs. All three are
    ``bytes`` slices, the root's parent being ``0``. Rows carry no code;
    ``canonical_code`` of a built tree gives it.
    """
    rows = _canonical_levels(n)
    table = _DEGREES_PARENTS.get(n)
    if table is None:
        rows = list(rows)
        degs = bytearray()
        parents = bytearray()
        for _, levels in rows:
            deg, parent = _degrees_parents(levels)
            parent[0] = 0
            degs += bytes(deg)
            parents += bytes(parent)
        table = _DEGREES_PARENTS[n] = (bytes(degs), bytes(parents))
    deg_blob, parent_blob = table
    for start, (_, levels) in zip(range(0, len(deg_blob), n), rows):
        yield levels, deg_blob[start : start + n], parent_blob[start : start + n]


def all_trees(n: int) -> Iterator[Tree]:
    """One representative per isomorphism class of trees on ``n`` vertices.

    Deterministic emission: ascending canonical code.

    Each tree is built in one unvalidated pass over its slice of
    :func:`_canonical_levels` (:func:`_level_tree`), so every call gives
    the same labeled trees in the same order. On the call that generates
    the order, each tree carries its canonical code; later calls skip the
    generation, coding and sort, and their trees have no code cached yet.
    """
    for code, levels in _canonical_levels(n):
        yield _level_tree(levels, code)


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
