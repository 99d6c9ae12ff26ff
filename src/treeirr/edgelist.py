"""Edge-list documents: one ``u v`` pair per line, ``#`` comments allowed."""

from __future__ import annotations

from itertools import count
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

    This is the one validation pass of an edge-list document. One walk
    collects the two tokens of every data line and ``int`` converts them
    all, so a format error anywhere comes before any structural one; only
    a failure walks the lines again, numbered, to locate it. Labels may be
    arbitrary integers with gaps; ids follow sorted label order. The first
    self-loop, duplicate edge or cycle is rejected with its line number,
    disconnected input after that. ``n`` vertices, ``n - 1`` edges and no
    cycle make a tree, so the result is built without re-validation.
    """
    tokens: list[str] = []
    for parts in map(str.split, text.splitlines()):
        if len(parts) == 2 and parts[0][0] != "#":
            tokens += parts
        elif parts and parts[0][0] != "#":
            _locate(text)
    try:
        ids = list(map(int, tokens))
    except ValueError:
        _locate(text)
    del tokens
    if not ids:
        raise ParseError(None, "document contains no edges")
    labels = tuple(sorted(set(ids)))
    n = len(labels)
    # count() makes 28-byte ints where range's iterator makes 32-byte ones,
    # and these ints are the ones the tree's edges keep.
    ids = list(map(dict(zip(labels, count())).__getitem__, ids))
    # Union-find over the id pairs. A self-loop and a duplicate both join
    # two vertices already joined, so the first pair that does so is the
    # first offending line; only then is it told apart from a cycle.
    root = list(range(n))
    edges = []
    it = iter(ids)
    for a, b in zip(it, it):
        ra = a
        while root[ra] != ra:
            root[ra] = ra = root[root[ra]]
        rb = b
        while root[rb] != rb:
            root[rb] = rb = root[root[rb]]
        if ra == rb:
            _raise_closed(_locate(text, len(edges)), labels, a, b, edges)
        root[ra] = rb
        edges.append((a, b) if a < b else (b, a))
    if len(edges) != n - 1:
        raise ParseError(None, f"disconnected input: {n} vertices but only {len(edges)} edges")
    return ParsedTree(tree=Tree._unchecked(n, edges), labels=labels)


def _locate(text: str, k: int = -1) -> int:
    # Walk the lines again, numbered: raise the first format error, or
    # return the number of data line k (0-based) if none comes before it.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}")
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex label in {raw.strip()!r}") from None
        if k == 0:
            return lineno
        k -= 1
    raise AssertionError("no line to locate")


def _raise_closed(lineno: int, labels: tuple, a: int, b: int, earlier: list) -> NoReturn:
    # Ids a and b were already joined: say how, in labels.
    if a == b:
        raise ParseError(lineno, f"self-loop at vertex {labels[a]}")
    key = (a, b) if a < b else (b, a)
    if key in earlier:
        raise ParseError(lineno, f"duplicate edge {(labels[key[0]], labels[key[1]])}")
    raise ParseError(lineno, "edge closes a cycle")
