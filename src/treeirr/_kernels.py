"""The hot loops: free-tree generation, canonical codes and index sums.

Trees are passed in as ``Tree.edges``: a sequence of ``n - 1`` pairs
``(u, v)`` over dense vertex ids ``0..n-1``, except to ``level_code``, which
takes a level sequence rooted at a center, as ``level_sequences`` yields
them. ``level_code`` is the one canonical encoder: ``canon_code`` lays an
edge list out as such a sequence and hands it over. Each kernel checks
one thing, an order below 1, and raises ``ValueError`` on it; every
other check of its input is its caller's. Callers look the kernels up as
``_kernels.<name>`` at call time, so a tracer or a test can replace one
by setting the module attribute. ``BACKEND`` names this implementation in report metadata.
"""

BACKEND = "python"


def level_sequences(n):
    """Canonical level sequences of all free trees on ``n`` vertices.

    A level sequence lists, vertex by vertex in preorder, the depth in a
    rooted layout. Iteration uses the Wright-Richmond-Odlyzko-McKay
    successor scheme over Beyer-Hedetniemi rooted sequences, so every
    isomorphism class of free trees appears exactly once.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
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


def level_code(levels):
    """Canonical code of the tree a level sequence encodes: equal iff isomorphic.

    ``levels`` is a preorder level sequence rooted at a center of its tree,
    as every layout from :func:`level_sequences` and :func:`canon_code` is
    (a tuple, list or ``bytes`` slice), not edge pairs. The code is the
    nested-parentheses encoding with children ordered by byte value. Each
    vertex's parent is the nearest earlier vertex one level up, so one
    stack pass builds the rooted codes bottom-up with no edge list,
    adjacency or center search. If exactly one child of the
    root reaches the maximum level, that child is the second center, and
    the code rerooted there competes for the smaller code.
    """
    n = len(levels)
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return b"()"
    # open_kids[d]: child codes of the open vertex at level d, the open
    # vertices being the path from the root to the latest vertex.
    open_kids = [[]]
    root_child_kids = []
    depth = 0
    for lv in levels[1:]:
        while depth >= lv:
            kids = open_kids.pop()
            if kids:
                kids.sort()
                open_kids[-1].append(b"(" + b"".join(kids) + b")")
            else:
                open_kids[-1].append(b"()")
            depth -= 1
        kids = []
        if lv == 1:
            root_child_kids.append(kids)
        open_kids.append(kids)
        depth = lv
    while depth > 0:
        kids = open_kids.pop()
        kids.sort()
        open_kids[-1].append(b"(" + b"".join(kids) + b")")
        depth -= 1
    root_kids = open_kids[0]
    code = b"(" + b"".join(sorted(root_kids)) + b")"
    height = max(levels)
    first = levels.index(height)
    last = n - 1 - levels[::-1].index(height)
    if 1 in levels[first + 1 : last + 1]:
        return code
    # Bicentral: every vertex at the maximum level lies below one root child.
    tall = levels[: first + 1].count(1) - 1
    others = root_kids[:tall] + root_kids[tall + 1 :]
    others.sort()
    kids = root_child_kids[tall] + [b"(" + b"".join(others) + b")"]
    kids.sort()
    rerooted = b"(" + b"".join(kids) + b")"
    return rerooted if rerooted < code else code


def canon_code(n, edges):
    """Relabeling-invariant code of a tree: equal codes iff isomorphic.

    The tree is laid out in preorder from one center as a level sequence,
    and :func:`level_code` codes it: the nested-parentheses encoding with
    children ordered by byte value, rooted at the center, or for a
    bicentral tree at whichever of the two centers gives the smaller code.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return b"()"
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    root = _centers(n, adj)[0]
    depth = [-1] * n
    depth[root] = 0
    levels = []
    stack = [root]
    while stack:
        v = stack.pop()
        d = depth[v]
        levels.append(d)
        for w in adj[v]:
            if depth[w] < 0:
                depth[w] = d + 1
                stack.append(w)
    return level_code(levels)


def _centers(n, adj):
    # Strip leaf layers until at most two vertices remain (n >= 2).
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer


def index_bundle(n, edges):
    """(irr, irr_T, sigma, M1, M2) of the tree, exact integers.

    irr sums |d(u)-d(v)| over edges, irr_T over all unordered vertex pairs,
    sigma the squared edge differences, M1 the squared degrees, M2 the
    degree products over edges; irr_T and M1 come from :func:`degree_class_sums`.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    irr = 0
    sigma = 0
    m2 = 0
    for u, v in edges:
        du = deg[u]
        dv = deg[v]
        d = du - dv if du >= dv else dv - du
        irr += d
        sigma += d * d
        m2 += du * dv
    irr_t, m1 = degree_class_sums(deg)
    return irr, irr_t, sigma, m1, m2


def degree_class_sums(deg):
    """(irr_T, M1) of a tree's degrees (a list or ``bytes``), over degree classes.

    With ``c_d`` vertices of degree ``d``, irr_T sums ``c_a * c_b * (b - a)``
    over the pairs of distinct degree values ``a < b`` that occur: fewer than
    ``2 * sqrt(n)`` values, so O(n + Delta). It stays a direct reading of the
    pairwise definition, independent of the sorted-sequence formula
    ``2(n+1)m - 2 * sum(i * d_i)`` that the ``irrT-seq-formula`` claim checks.
    """
    count = [0] * len(deg)
    for d in deg:
        count[d] += 1
    classes = [(d, c) for d, c in enumerate(count) if c]
    m1 = irr_t = 0
    for i, (a, ca) in enumerate(classes):
        m1 += ca * a * a
        for b, cb in classes[i + 1:]:
            irr_t += ca * cb * (b - a)
    return irr_t, m1
