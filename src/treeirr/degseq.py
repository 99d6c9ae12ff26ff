"""Degree sequences, the Prüfer codec, and the special tree builders."""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Sequence

from .tree import Tree

PruferCode = tuple[int, ...]


class NotTreeGraphical(ValueError):
    """A degree multiset no tree realizes; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _DegreeSequenceFields(NamedTuple):
    values: tuple[int, ...]


class DegreeSequence(_DegreeSequenceFields):
    """Non-increasing degree multiset of a tree.

    Instances come from :func:`validate_tree_sequence`, so they are always
    tree-graphical: either the one-vertex sequence ``(0,)`` or positive
    values summing to ``2(n-1)``.
    """

    # A NamedTuple body cannot define __new__, so the check sits on a
    # subclass; empty slots keep its instances free of a __dict__.
    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> DegreeSequence:
        if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("values must be sorted non-increasing")
        return super().__new__(cls, values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.values) + ")"


def validate_tree_sequence(values: Sequence[int]) -> DegreeSequence:
    """Sort and accept a tree-graphical degree sequence, else reject loudly."""
    vals = tuple(sorted((int(x) for x in values), reverse=True))
    if not vals:
        raise NotTreeGraphical("empty input")
    if len(vals) == 1:
        if vals != (0,):
            raise NotTreeGraphical("a single vertex must have degree 0")
        return DegreeSequence(vals)
    if vals[-1] <= 0:
        raise NotTreeGraphical(f"zero or negative entry: {vals[-1]}")
    total = sum(vals)
    want = 2 * (len(vals) - 1)
    if total != want:
        raise NotTreeGraphical(f"degree sum {total} != 2(n-1) = {want}")
    return DegreeSequence(vals)


def prufer_encode(t: Tree) -> PruferCode:
    """Code of a labeled tree under smallest-leaf-first elimination."""
    n = t.n
    if n < 2:
        raise ValueError("encoding needs at least 2 vertices")
    if n == 2:
        return ()
    adj = t.adjacency
    deg = [len(a) for a in adj]
    alive = [True] * n
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    code = []
    for _ in range(n - 2):
        v = heapq.heappop(heap)
        alive[v] = False
        u = next(w for w in adj[v] if alive[w])
        code.append(u)
        deg[u] -= 1
        if deg[u] == 1:
            heapq.heappush(heap, u)
    return tuple(code)


def prufer_decode(code: Sequence[int], n: int) -> Tree:
    """Rebuild the labeled tree of a code; inverse of :func:`prufer_encode`."""
    if n < 2:
        raise ValueError("decoding needs at least 2 vertices")
    code = tuple(int(c) for c in code)
    if len(code) != n - 2:
        raise ValueError(f"code length {len(code)} != n-2 = {n - 2}")
    for c in code:
        if not (0 <= c < n):
            raise ValueError(f"code entry out of range 0..{n - 1}: {c}")
    deg = [1] * n
    for c in code:
        deg[c] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for c in code:
        v = heapq.heappop(heap)
        edges.append((v, c) if v < c else (c, v))
        deg[v] = 0
        deg[c] -= 1
        if deg[c] == 1:
            heapq.heappush(heap, c)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v) if u < v else (v, u))
    # Every code of length n - 2 over 0..n-1 decodes to a tree (the Pruefer
    # bijection) and the pairs are normalized, so skip validation.
    return Tree._unchecked(n, edges)


def star(leaf_count: int) -> Tree:
    """Center 0 adjacent to ``leaf_count`` leaves."""
    if leaf_count < 1:
        raise ValueError("a star needs at least one leaf")
    return Tree._unchecked(leaf_count + 1, [(0, i) for i in range(1, leaf_count + 1)])


def path(order: int) -> Tree:
    """The path on ``order`` vertices with consecutive ids."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return Tree._unchecked(order, [(i, i + 1) for i in range(order - 1)])


def caterpillar(spine_degrees: Sequence[int]) -> Tree:
    """Caterpillar whose i-th spine vertex ends up with the given degree.

    Spine vertices get ids ``0..k-1`` in order and are joined consecutively;
    vertex i then receives enough pendant leaves to reach degree
    ``spine_degrees[i]``. Interior spine slots therefore need degree >= 2,
    the two ends (or a lone spine vertex) only >= 1.
    """
    _, n = caterpillar_sigma(spine_degrees)  # the feasibility checks, and the order
    last = len(spine_degrees) - 1
    edges = [(i, i + 1) for i in range(last)]
    nxt = last + 1
    for i, s in enumerate(spine_degrees):
        for _ in range(s - 2 + (i == 0) + (i == last)):  # s less the backbone degree
            edges.append((i, nxt))
            nxt += 1
    # Spine edges (i, i+1) and pendant edges (i, nxt) with nxt > last >= i:
    # a tree on 0..n-1 with u < v by construction, so skip validation.
    return Tree._unchecked(n, edges)


def caterpillar_sigma(spine_degrees: Sequence[int]) -> tuple[int, int]:
    """``(sigma, order)`` of :func:`caterpillar` of the spine, with no tree built.

    Its edges fall into two classes: spine edges ``(d_i, d_{i+1})``, and
    ``d_i - b_i`` pendant edges ``(d_i, 1)`` at slot i, where ``b_i`` is
    the slot's backbone degree: 1 at an end, 2 inside, 0 for a lone slot.
    So, by the definition of sigma,
    ``sigma = sum (d_i - d_{i+1})^2 + sum (d_i - b_i)(d_i - 1)^2`` and the
    order is ``k + sum (d_i - b_i)``. One walk over the (integer) degrees
    adds both as it goes, with no per-slot record; it is also the
    feasibility check of :func:`caterpillar`, so the two raise the same
    error at the same first infeasible slot. The tests hold both values
    against ``compute_indices(caterpillar(spine))``.
    """
    last = len(spine_degrees) - 1
    if last < 0:
        raise ValueError("empty spine")
    sigma = 0
    order = last + 1
    prev = spine_degrees[0]  # so the first slot adds no spine edge
    for i, s in enumerate(spine_degrees):
        b = 2 - (i == 0) - (i == last)
        if s < b or s < 1:
            raise ValueError(
                f"infeasible spine degree {s} at slot {i} (needs >= {max(b, 1)})"
            )
        sigma += (prev - s) ** 2 + (s - b) * (s - 1) ** 2
        order += s - b
        prev = s
    return sigma, order


def parse_degree_sequence(text: str) -> DegreeSequence:
    """One whitespace-separated line of integers, any order."""
    parts = text.split()
    if not parts:
        raise NotTreeGraphical("empty input")
    try:
        values: Iterable[int] = [int(p) for p in parts]
    except ValueError as exc:
        raise NotTreeGraphical(f"non-integer entry: {exc}") from None
    return validate_tree_sequence(values)
