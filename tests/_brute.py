"""Independent brute-force oracles for the test suite.

Apart from :func:`realized_by_sequence`, :func:`all_trees_by_realization`,
:func:`table_rows`, :func:`class_trees` and :func:`relocate_leaf` (which
builds a validated ``Tree``), nothing here imports the library:
every other function works on a plain order ``n`` plus an edge list, or
on a tuple of degrees, so the values these produce are computed along a
second, unrelated path.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations


def brute_indices(n, edges):
    """All five invariants straight from the definitions."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return {
        "irr": sum(abs(deg[u] - deg[v]) for u, v in edges),
        "irr_T": sum(
            abs(deg[i] - deg[j]) for i in range(n) for j in range(i + 1, n)
        ),
        "sigma": sum((deg[u] - deg[v]) ** 2 for u, v in edges),
        "m1": sum(d * d for d in deg),
        "m2": sum(deg[u] * deg[v] for u, v in edges),
    }


def degree_sequence_of(n, edges):
    """Degrees counted from the edge list, sorted non-increasing."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg, reverse=True))


def tree_graphical(values):
    """Whether some tree has exactly these degrees.

    That is ``(0,)``, or ``n >= 2`` positive entries summing to ``2(n-1)``.
    """
    if len(values) == 1:
        return tuple(values) == (0,)
    return all(x >= 1 for x in values) and sum(values) == 2 * (len(values) - 1)


def sigma_ordered_two_loops(d):
    """``formulas.sigma_ordered_value`` as the formula reads, two index loops.

    End terms weight (d+1), interior terms (d+2), then the squared
    differences of each interior entry and the entry after it, plus 2n-2.
    """
    n = len(d)
    total = (d[0] + 1) * (d[0] - 1) ** 2 + (d[-1] + 1) * (d[-1] - 1) ** 2
    for i in range(1, n - 1):
        total += (d[i] + 2) * (d[i] - 1) ** 2
    for i in range(1, n - 1):
        total += (d[i] - d[i + 1]) ** 2
    return total + 2 * n - 2


def edge_list_text(edges, labels):
    """An edge-list document naming each dense id ``i`` by ``labels[i]``."""
    return "".join(f"{labels[u]} {labels[v]}\n" for u, v in edges)


def is_connected(n, edges):
    if n == 1:
        return True
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def levels_to_edges(levels):
    """Edges of the tree a preorder level sequence lays out, by a stack scan.

    The parent of vertex i is the nearest earlier vertex one level up.
    """
    edges = []
    stack = []
    for i, lv in enumerate(levels):
        while stack and levels[stack[-1]] >= lv:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return edges


def level_sequences(n):
    """Canonical level sequences of all free trees on ``n`` vertices, as tuples.

    The Wright-Richmond-Odlyzko-McKay successor scheme over Beyer-Hedetniemi
    rooted sequences, run on whole layouts: each step copies the layout,
    and each free-tree test splits off the first root subtree. Read through
    :func:`_degrees_parents`, it is the oracle of ``_kernels.order_rows``,
    which steps the degrees and parents in place instead.
    """
    if n == 1:
        return [(0,)]
    out = []
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _skip_to_free(layout)
        if layout is not None:
            out.append(tuple(layout))
            layout = _successor(layout)
    return out


def _successor(layout, p=None):
    # Beyer-Hedetniemi successor of a rooted level sequence; None past the end.
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    nxt = list(layout)
    for i in range(p, len(nxt)):
        nxt[i] = nxt[i - p + q]
    return nxt


def _split_first_subtree(layout):
    # Portion rooted at the root's first child vs. the remainder of the tree.
    m = len(layout)
    for i in range(2, len(layout)):
        if layout[i] == 1:
            m = i
            break
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + layout[m:]
    return left, rest


def _skip_to_free(layout):
    # A rooted sequence encodes a free tree iff the first root subtree is
    # no higher than the rest, with size then lexicographic tie-breaks.
    # Invalid layouts jump straight to the next candidate.
    left, rest = _split_first_subtree(layout)
    lh = max(left)
    rh = max(rest)
    good = rh > lh or (
        rh == lh
        and (len(left) < len(rest) or (len(left) == len(rest) and left <= rest))
    )
    if good:
        return layout
    p = len(left)
    nxt = _successor(layout, p)
    if layout[p] > 2:
        new_left, _ = _split_first_subtree(nxt)
        tail = list(range(1, max(new_left) + 2))
        nxt[len(nxt) - len(tail):] = tail
    return nxt


def _degrees_parents(levels):
    """Degrees and parents of the tree of a preorder level sequence, in one pass.

    ``levels[0] == 0`` and ``1 <= levels[i] <= levels[i - 1] + 1``; vertex
    ``i > 0`` hangs from the latest earlier vertex one level up, so each
    parent id is below its child. The root's parent is ``0``.
    """
    n = len(levels)
    last = [0] * n  # last[d]: the latest vertex seen at level d
    deg = [1] * n
    parent = [0] * n
    deg[0] = 0
    for i in range(1, n):
        lv = levels[i]
        p = last[lv - 1]
        last[lv] = i
        parent[i] = p
        deg[p] += 1
    return deg, parent


def pack_tree_rows(orders):
    """The bytes of the package's packed rows file, for orders ``1..orders``.

    The header line holds each order's row count in decimal, the body each
    order's degrees, then its parents, one row of ``n`` bytes per layout
    of :func:`level_sequences` read through :func:`_degrees_parents`: the
    rows ``_kernels.order_rows`` generates, along the brute path.
    """
    tables = [
        [_degrees_parents(levels) for levels in level_sequences(n)] for n in range(1, orders + 1)
    ]
    header = " ".join(str(len(rows)) for rows in tables).encode("ascii") + b"\n"
    return header + b"".join(
        bytes(value for row in rows for value in row[half]) for rows in tables for half in (0, 1)
    )


def write_tree_rows(orders=14):
    """Regenerate ``src/treeirr/data/tree_rows.bin`` with :func:`pack_tree_rows`.

    Run as ``python tests/_brute.py``. Orders 1-14 (5,447 trees, 144 KB of
    rows) are the orders a default report reads.
    """
    from pathlib import Path

    target = Path(__file__).resolve().parents[1] / "src" / "treeirr" / "data" / "tree_rows.bin"
    target.write_bytes(pack_tree_rows(orders))


def spanning_trees(n):
    """Every labeled tree on n vertices, enumerated from edge subsets."""
    if n == 1:
        yield ()
        return
    pairs = list(combinations(range(n), 2))
    for subset in combinations(pairs, n - 1):
        if is_connected(n, subset):
            yield subset


def brute_canonical(n, edges):
    """Minimum relabeling of the edge set; equal iff isomorphic (tiny n only)."""
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def brute_isomorphic(n, edges_a, edges_b):
    """Permutation search with early exit."""
    target = set(tuple(sorted(e)) for e in edges_b)
    if len(edges_a) != len(target):
        return False
    for perm in permutations(range(n)):
        if all(tuple(sorted((perm[u], perm[v]))) in target for u, v in edges_a):
            return True
    return False


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def distances(n, edges, source):
    """Edge distance from ``source`` to every vertex, by breadth-first search."""
    adj = _adjacency(n, edges)
    dist = {source: 0}
    queue = [source]
    for x in queue:
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def farthest(n, edges, source):
    """A vertex at the largest distance from ``source``."""
    dist = distances(n, edges, source)
    return max(dist, key=dist.get)


def centers(n, edges):
    """The middle vertex or vertices of a longest path.

    Two breadth-first sweeps find the ends ``a`` and ``b`` of a longest
    path; its vertices are those with ``d(a, v) + d(v, b)`` equal to its
    length, and its middle minimizes the larger of the two.
    """
    a = farthest(n, edges, 0)
    from_a = distances(n, edges, a)
    b = max(from_a, key=from_a.get)
    from_b = distances(n, edges, b)
    length = from_a[b]
    return [
        v
        for v in range(n)
        if from_a[v] + from_b[v] == length and max(from_a[v], from_b[v]) == (length + 1) // 2
    ]


def edge_rooted_code(n, edges):
    """Canonical code of a tree from its edge list, rooted at each center.

    The nested-parentheses code of the tree rooted at a center, children
    ordered by byte value, and for a bicentral tree the smaller of the two
    rooted codes: the format of the library's canonical codes, built by
    plain recursion with no level sequence.
    """
    adj = _adjacency(n, edges)

    def rooted(v, parent):
        kids = sorted(rooted(w, v) for w in adj[v] if w != parent)
        return b"(" + b"".join(kids) + b")"

    return min(rooted(c, -1) for c in centers(n, edges))


@lru_cache(maxsize=None)
def rooted_tree_count(n):
    """Number of unlabeled rooted trees (standard divisor-sum recurrence)."""
    if n <= 1:
        return n
    total = 0
    for j in range(1, n):
        divisor_sum = sum(d * rooted_tree_count(d) for d in range(1, j + 1) if j % d == 0)
        total += divisor_sum * rooted_tree_count(n - j)
    return total // (n - 1)


def unlabeled_tree_count(n):
    """Number of unlabeled free trees, from the rooted counts."""
    if n <= 1:
        return n
    paired = sum(rooted_tree_count(k) * rooted_tree_count(n - k) for k in range(n + 1))
    if n % 2 == 0:
        paired -= rooted_tree_count(n // 2)
    return rooted_tree_count(n) - paired // 2


@lru_cache(maxsize=None)
def realized_by_sequence(n):
    """Every degree sequence of order ``n`` with the trees realizing it.

    Maps each ``DegreeSequence`` to its ``(canonical code, tree)`` pairs
    from the Prüfer realizer (``trees_with_degree_sequence``), in its code
    order. Cached, so the tests reading an order share one realizer pass;
    the trees are only read.
    """
    from treeirr import canonical_code, tree_degree_sequences, trees_with_degree_sequence

    return {
        seq: tuple((canonical_code(t), t) for t in trees_with_degree_sequence(seq))
        for seq in tree_degree_sequences(n)
    }


def all_trees_by_realization(n):
    """Independent twin of ``all_trees``, built from degree realizations.

    Every tree-graphical degree multiset of order ``n`` is realized through
    Prüfer codes, and the classes are deduplicated and ordered by canonical
    code. ``all_trees`` runs neither the realization nor ``canonical_code``.
    """
    found = {}
    for realized in realized_by_sequence(n).values():
        for code, t in realized:
            found.setdefault(code, t)
    return [found[key] for key in sorted(found)]


def table_rows(n):
    """Every ``(degrees, parents)`` row of order ``n``'s table, in table order.

    Plain ``n``-byte slices of the two blobs of ``enumeration._canonical_order``,
    the oracle of the library's one row reader.
    """
    from treeirr.enumeration import _canonical_order

    deg_blob, parent_blob = _canonical_order(n)
    return [
        (deg_blob[start : start + n], parent_blob[start : start + n])
        for start in range(0, len(deg_blob), n)
    ]


def class_trees(klass):
    """The trees of a ``claims.TreeClass``, in ascending canonical code.

    Each row the class keeps, built from its parents and sorted by its code,
    so the trees come in ``all_trees`` order.
    """
    from treeirr.enumeration import _parent_tree, _row_code

    parents = sorted((parent for _, parent in klass._rows()), key=_row_code)
    return [_parent_tree(parent) for parent in parents]


def witness_record(parent):
    """``(code, edge_text)`` of a table row's tree, by the public route.

    The pairs ``(parent[i], i)`` go through the validating ``Tree``
    constructor; the code is its ``canonical_code`` (``_kernels.canon_code``,
    which reads the edges) and the text its sorted edges as ``u-v`` joined
    by spaces, the format of every printed edge list.
    """
    from treeirr import Tree, canonical_code

    t = Tree(len(parent), [(parent[i], i) for i in range(1, len(parent))])
    return canonical_code(t), " ".join(f"{u}-{v}" for u, v in t.edges)


@dataclass(frozen=True)
class RelocationStep:
    """Record of one leaf relocation: who moved where and the degree effect."""

    support: int
    donor: int
    recipient: int
    degrees_before: tuple[int, int, int]
    degrees_after: tuple[int, int, int]


def relocate_leaf(t, y, donor, recipient):
    """Detach leaf ``donor`` from ``y`` and hang it on ``recipient``.

    ``recipient`` must be another neighbor of ``y``; the move needs
    ``degree(y) >= 3``. The result is again a tree of the same order with
    exactly the degrees of ``y`` and ``recipient`` shifted by one.
    """
    from treeirr import Tree

    n = t.n
    for v in (y, donor, recipient):
        if not 0 <= v < n:
            raise ValueError(f"vertex id out of range 0..{n - 1}: {v}")
    lam = len(t.adjacency[y])
    if lam < 3:
        raise ValueError(f"lambda below 3: degree({y}) = {lam}")
    if donor not in t.adjacency[y] or len(t.adjacency[donor]) != 1:
        raise ValueError(f"donor {donor} is not a leaf attached to {y}")
    if recipient == donor or recipient not in t.adjacency[y]:
        raise ValueError(f"recipient {recipient} is not another neighbor of {y}")
    dropped = (y, donor) if y < donor else (donor, y)
    added = (recipient, donor) if recipient < donor else (donor, recipient)
    edges = [e for e in t.edges if e != dropped]
    edges.append(added)
    out = Tree(n, edges)
    adj, adj_out = t.adjacency, out.adjacency
    step = RelocationStep(
        support=y,
        donor=donor,
        recipient=recipient,
        degrees_before=(lam, 1, len(adj[recipient])),
        degrees_after=(len(adj_out[y]), len(adj_out[donor]), len(adj_out[recipient])),
    )
    if step.degrees_after != (lam - 1, 1, len(adj[recipient]) + 1):
        raise RuntimeError(f"relocation broke its degree post-condition: {step}")
    return out, step


if __name__ == "__main__":
    write_tree_rows()
