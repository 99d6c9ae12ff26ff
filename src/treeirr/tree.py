"""Immutable trees on dense vertex ids and their canonical codes."""

from __future__ import annotations

from typing import Iterable, Sequence

from . import _kernels

CanonicalCode = bytes


class TreeError(ValueError):
    """Raised when edge data does not describe a tree on 0..n-1."""


class Tree:
    """A tree on vertex ids ``0..n-1``, immutable after construction.

    The constructor validates everything: exactly ``n-1`` edges, no loops
    or duplicates, ids in range, connected. Degree sums to ``2(n-1)`` by
    consequence. It is the entry point for untrusted pairs. Two private
    builders skip the checks for input that is already known to be a
    tree: :meth:`_unchecked` (normalized edge pairs) and
    :meth:`_from_levels` (a level sequence). Their callers, and the tests
    that rebuild each caller's output through the constructor:

    - ``all_trees``, and the claims that filter ``all_trees``' level
      sequences before building (``claims.TreeClass.trees``, the witnesses
      of the relocation sweeps and ``caterpillar-support``'s maxima), via
      :meth:`_from_levels`: ``TestFromLevels`` in ``tests/test_tree.py``;
    - ``edgelist.parse_edge_list``, after its own line-numbered checks:
      ``TestParserOracle`` in ``tests/test_cli.py``;
    - ``degseq.prufer_decode``: ``test_roundtrip_and_cayley_count`` and
      ``test_decode_rebuilds_validated`` in ``tests/test_degseq.py``;
    - ``degseq.star`` and ``degseq.path``:
      ``test_star_and_path_rebuild_validated`` there;
    - ``degseq.caterpillar``: ``test_caterpillar_rebuilds_validated``
      there.

    ``edges`` holds the sorted ``(u, v)`` pairs with ``u < v`` and
    ``adjacency`` each vertex's neighbours, ascending. The constructor
    builds the adjacency for its connectivity check, and
    :meth:`_from_levels` in the same pass as the edges. A tree from
    :meth:`_unchecked` builds it on its first read and keeps it, so one
    that only feeds ``compute_indices`` or ``canonical_code``, which read
    ``edges``, never builds it.

    Instances hash and compare by labeled edge set.
    """

    __slots__ = ("n", "edges", "adjacency", "_code")

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
        self._fill(n, norm)
        adj = self.adjacency = _sorted_adjacency(n, self.edges)
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

    def _fill(self, n: int, edges: list[tuple[int, int]]) -> None:
        self.n = n
        self.edges = tuple(sorted(edges))
        self._code = None

    @classmethod
    def _unchecked(cls, n: int, edges: list[tuple[int, int]]) -> "Tree":
        """Build from ``(u, v)`` pairs with ``u < v`` already known to form a tree.

        Skips every check of :meth:`__init__`. For builders whose output is
        a tree by construction or by their own proof; the class docstring
        lists them with the tests that validate each. The result is an
        :class:`_EdgeTree`, which builds its adjacency on first read.
        """
        t = _EdgeTree.__new__(_EdgeTree)
        t._fill(n, edges)
        return t

    @classmethod
    def _from_levels(cls, levels: Sequence[int], code: CanonicalCode | None = None) -> "Tree":
        """Build from a preorder level sequence (a tuple or ``bytes``).

        ``levels[0] == 0`` and ``1 <= levels[i] <= levels[i - 1] + 1``;
        vertex ``i`` hangs from the latest earlier vertex one level up.
        Skips every check of :meth:`__init__`, like :meth:`_unchecked`.
        Each parent id is below its child and children come in ascending
        id, so every adjacency list is sorted as built; only the edges
        need a sort. ``code``, when known, is cached as the canonical code.
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
        edges.sort()
        t = cls.__new__(cls)
        t.n = n
        t.edges = tuple(edges)
        t.adjacency = tuple(map(tuple, adj))
        t._code = code
        return t

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self.edges)!r})"


class _EdgeTree(Tree):
    """A :class:`Tree` from :meth:`Tree._unchecked` that builds its adjacency on first read.

    Its ``__getattr__`` runs only for a slot not yet set; the adjacency,
    once built, is kept in the slot. ``Tree`` itself has no
    ``__getattr__``, so the attribute reads of the validated and the
    level-sequence trees stay plain slot reads, which CPython specializes.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "adjacency":
            raise AttributeError(f"'Tree' object has no attribute {name!r}")
        self.adjacency = _sorted_adjacency(self.n, self.edges)
        return self.adjacency


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
    if t.n < 2:
        return frozenset()
    out = set()
    for v in range(t.n):
        pendant = sum(1 for w in t.adjacency[v] if len(t.adjacency[w]) == 1)
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
    if t.n <= 2:
        return True
    internal = [v for v in range(t.n) if len(t.adjacency[v]) >= 2]
    if not internal:
        return False
    for v in internal:
        internal_deg = sum(1 for w in t.adjacency[v] if len(t.adjacency[w]) >= 2)
        if internal_deg > 2:
            return False
    # The spine inherits connectivity from the tree, so degree <= 2 suffices.
    return True
