"""Edge-list documents: one ``u v`` pair per line, ``#`` comments allowed."""

from __future__ import annotations

from typing import NamedTuple, NoReturn

from .tree import Tree


class ParseError(ValueError):
    """Malformed edge-list document; ``line`` locates the offense when known."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ParsedTree(NamedTuple):
    """A validated tree plus the original vertex labels, indexed by dense id."""

    tree: Tree
    labels: tuple[int, ...]


def parse_edge_list(text: str) -> ParsedTree:
    """Parse and validate a document, re-indexing labels densely.

    This is the one validation pass of an edge-list document. Every line
    is tokenized first, so a format error anywhere comes before any
    structural one. Labels may be arbitrary integers with gaps; ids are
    assigned by sorted label order. Self-loops, duplicate edges and cycles
    are then rejected with the first offending line number, disconnected
    input after the fact. A graph on ``n`` vertices with ``n - 1`` edges
    and no cycle is a tree, so the result is built without re-validation.
    """
    pairs: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex label in {raw.strip()!r}") from None
        pairs.append((lineno, u, v))
    if not pairs:
        raise ParseError(None, "document contains no edges")

    labels = tuple(sorted({x for _, u, v in pairs for x in (u, v)}))
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    # Union-find over the dense ids. A self-loop and a duplicate both join
    # two vertices already joined, so the first line that does so is the
    # first offending line; only then is it told apart from a cycle.
    root = list(range(n))
    edges = []
    for k, (lineno, u, v) in enumerate(pairs):
        a, b = index[u], index[v]
        ra = a
        while root[ra] != ra:
            root[ra] = ra = root[root[ra]]
        rb = b
        while root[rb] != rb:
            root[rb] = rb = root[root[rb]]
        if ra == rb:
            _raise_closed(pairs[:k], lineno, u, v)
        root[ra] = rb
        edges.append((a, b) if a < b else (b, a))
    if len(edges) != n - 1:
        raise ParseError(
            None, f"disconnected input: {n} vertices but only {len(edges)} edges"
        )
    return ParsedTree(tree=Tree._unchecked(n, edges), labels=labels)


def _raise_closed(
    earlier: list[tuple[int, int, int]], lineno: int, u: int, v: int
) -> NoReturn:
    # The line joins two vertices already joined: say how.
    if u == v:
        raise ParseError(lineno, f"self-loop at vertex {u}")
    key = (u, v) if u < v else (v, u)
    if any((x, y) == key or (y, x) == key for _, x, y in earlier):
        raise ParseError(lineno, f"duplicate edge {key}")
    raise ParseError(lineno, "edge closes a cycle")
