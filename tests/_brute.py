"""Independent brute-force oracles for the test suite.

Apart from :func:`all_trees_by_realization`, nothing here imports the
library: every function works on a plain order ``n`` plus an edge list, so
the values these produce are computed along a second, unrelated path.
"""

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


def all_trees_by_realization(n):
    """Independent twin of ``all_trees``, built from degree realizations.

    Every tree-graphical degree multiset of order ``n`` is realized through
    Prüfer codes, and the classes are deduplicated and ordered by canonical
    code. ``all_trees`` runs neither the realization nor ``canonical_code``.
    """
    from treeirr import canonical_code, tree_degree_sequences, trees_with_degree_sequence

    found = {}
    for seq in tree_degree_sequences(n):
        for t in trees_with_degree_sequence(seq):
            found.setdefault(canonical_code(t), t)
    return [found[key] for key in sorted(found)]
