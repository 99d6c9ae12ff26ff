"""Immutable trees on dense vertex ids and their canonical codes."""

from __future__ import annotations

from typing import Iterable

from . import _kernels

CanonicalCode = bytes


class TreeError(ValueError):
    """Raised when edge data does not describe a tree on 0..n-1."""


class Tree:
    """A tree on vertex ids ``0..n-1``, immutable after construction.

    The constructor validates everything: exactly ``n-1`` edges, no loops
    or duplicates, ids in range, connected. Degree sums to ``2(n-1)`` by
    consequence. It is the entry point for untrusted pairs. The one
    private builder, :meth:`_unchecked`, skips the checks for input its
    caller already knows to be a tree; the test suite rebuilds each
    caller's output through the constructor.

    ``edges`` holds the sorted ``(u, v)`` pairs with ``u < v`` and
    ``adjacency`` each vertex's neighbours, ascending. The constructor
    builds the adjacency for its connectivity check, and a trusted
    builder may hand it to :meth:`_unchecked`. Otherwise its first read
    builds and keeps it, so a tree that only feeds ``compute_indices`` or
    ``canonical_code``, which read ``edges``, never builds it.

    Instances hash and compare by labeled edge set.
    """

    __slots__ = ("n", "edges", "_adj", "_code")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, int) or n < 1:
            raise TreeError(f"order must be a positive integer, got {n!r}")
        seen = set()
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TreeError(f"vertex id out of range 0..{n - 1}: ({u}, {v})")
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise TreeError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        if len(norm) != n - 1:
            raise TreeError(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
        norm.sort()
        self.n = n
        self.edges = tuple(norm)
        self._code = None
        adj = self._adj = _sorted_adjacency(n, self.edges)
        if n > 1:
            stack = [0]
            visited = bytearray(n)
            visited[0] = 1
            count = 1
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not visited[y]:
                        visited[y] = 1
                        count += 1
                        stack.append(y)
            if count != n:
                raise TreeError("edge list is disconnected")

    @classmethod
    def _unchecked(
        cls,
        n: int,
        edges: list[tuple[int, int]],
        adjacency: tuple[tuple[int, ...], ...] | None = None,
        code: CanonicalCode | None = None,
    ) -> "Tree":
        """Build from ``(u, v)`` pairs with ``u < v`` already known to form a tree.

        Skips every check of :meth:`__init__`. The tree owns ``edges``: the
        list is sorted in place, not copied, so callers hand over a fresh
        one. ``adjacency``, when given, must be the sorted adjacency of the
        edges, and ``code``, when given, the canonical code; both are kept
        as they are.
        """
        edges.sort()
        t = cls.__new__(cls)
        t.n = n
        t.edges = tuple(edges)
        t._adj = adjacency
        t._code = code
        return t

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending; built on first read if not handed over."""
        adj = self._adj
        if adj is None:
            adj = self._adj = _sorted_adjacency(self.n, self.edges)
        return adj

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self.edges)!r})"


def _sorted_adjacency(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    # With the ``u < v`` pairs sorted, a vertex x meets its neighbours below
    # it in edges (u, x) before those above it in edges (x, v), each group
    # in ascending order: every adjacency list comes out sorted.
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


def degrees(t: Tree) -> tuple[int, ...]:
    """Degree of every vertex, indexed by vertex id."""
    return tuple(len(a) for a in t.adjacency)


def strong_support_vertices(t: Tree, min_leaves: int = 2) -> frozenset[int]:
    """Vertices adjacent to at least ``min_leaves`` leaves.

    The default (two pendant neighbors) is the operative reading used by
    the claim checks; pass ``min_leaves=1`` for the plain support-vertex
    reading so both can be compared.
    """
    if min_leaves < 1:
        raise ValueError("min_leaves must be >= 1")
    adj = t.adjacency
    out = set()
    for v in range(t.n):
        pendant = sum(1 for w in adj[v] if len(adj[w]) == 1)
        if pendant >= min_leaves:
            out.add(v)
    return frozenset(out)


def canonical_code(t: Tree) -> CanonicalCode:
    """Relabeling-invariant byte code; equal codes decide isomorphism."""
    if t._code is None:
        t._code = _kernels.canon_code(t.n, t.edges)
    return t._code


def is_caterpillar(t: Tree) -> bool:
    """True iff removing all leaves yields a path (or nothing).

    Single vertices and single edges count as caterpillars.
    """
    adj = t.adjacency
    internal = [v for v in range(t.n) if len(adj[v]) >= 2]
    for v in internal:
        internal_deg = sum(1 for w in adj[v] if len(adj[w]) >= 2)
        if internal_deg > 2:
            return False
    # The spine inherits connectivity from the tree, so degree <= 2 suffices.
    return True
