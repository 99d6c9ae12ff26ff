"""The hot loops: free-tree generation, canonical codes and index sums.

``order_rows`` is the one generator: it gives every free tree of an order
as a row of degrees and parents, stepped in place with the level-sequence
successor; ``level_sequences`` reads each row's level sequence back.
Other trees are passed in as ``Tree.edges``: a sequence of ``n - 1`` pairs
``(u, v)`` over dense vertex ids ``0..n-1``, except to ``level_code``,
which takes a level sequence rooted at a center, as every row's is.
``level_code`` is the one canonical encoder: ``canon_code`` lays an edge
list out as such a sequence and hands it over. Each kernel checks one
thing, an order below 1, and raises ``ValueError`` on it; every other
check of its input is its caller's. Callers look the kernels up as ``_kernels.<name>``
at call time, so a tracer or a test can replace one by setting the module
attribute. ``BACKEND`` names this implementation in report metadata.
"""

BACKEND = "python"

# Byte value minus one: a root subtree's levels, relative to its top vertex.
_DOWN = bytes((x - 1) % 256 for x in range(256))


def order_rows(n):
    """``(degrees, parents)`` of every free tree on ``n`` vertices, as two blobs.

    Row ``k`` of each blob is bytes ``k * n .. k * n + n - 1``: the degrees,
    then the parents, of the ``k``-th tree's vertices in the preorder of its
    canonical level sequence, rooted at a center; the root's parent byte is
    ``0`` and every other parent id is below its child's. Trees come in the
    order of the Wright-Richmond-Odlyzko-McKay successor scheme over
    Beyer-Hedetniemi rooted sequences, so every isomorphism class of free
    trees appears exactly once.

    The layout, the parents and the degrees are stepped together in place.
    A successor step at ``p`` copies the period ``d = p - q`` (``q`` being
    ``p``'s parent) over the suffix from ``p``; a rewritten vertex ``i`` at
    ``q``'s level hangs from ``q``'s parent, any other from ``parent[i -
    d] + d``. Only the suffix edges come and go, so the degrees change only
    at their ends; the jump past a layout that is no free tree's rewrites a
    tail the same way. Each layout is appended as it stands, with no level
    tuple built and no per-tree reread.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return b"\0", b"\0"
    # Two paths from the root, of n // 2 and (n - 1) // 2 vertices.
    level = bytearray(range(n // 2 + 1)) + bytearray(range(1, (n + 1) // 2))
    parent = bytearray(n)
    deg = bytearray(n)
    for i in range(1, n):
        parent[i] = i - 1 if level[i] > 1 else 0
        deg[i] += 1
        deg[parent[i]] += 1
    degs = bytearray()
    parents = bytearray()
    while True:
        # A rooted layout encodes a free tree iff its first root subtree
        # (levels 1..m-1, one less each) is no higher than the rest, the
        # root with the other subtrees; ties go to the smaller size, then
        # to the lexicographically smaller. Any other layout jumps straight
        # to the next candidate, which is a free tree's.
        m = level.find(1, 2)
        if m < 0:
            m = n
        left_h = max(level[1:m]) - 1
        rest_h = max(level[m:]) if m < n else 0
        free = rest_h > left_h or rest_h == left_h and (
            m - 1 < n - m + 1
            or m - 1 == n - m + 1 and level[1:m].translate(_DOWN) <= b"\0" + level[m:]
        )
        if not free:
            tall = level[m - 1] > 2
            _successor(level, parent, deg, m - 1)
            if tall:
                # The tail becomes a path from the root as high as the new
                # first subtree.
                m = level.find(1, 2)
                if m < 0:
                    m = n
                h = max(level[1:m])
                t = n - h
                for i in range(t, n):
                    deg[parent[i]] -= 1
                level[t:] = bytes(range(1, h + 1))
                parent[t:] = bytes(1) + bytes(range(t, n - 1))
                deg[t:] = b"\2" * (h - 1) + b"\1"
                deg[0] += 1
        degs += deg
        parents += parent
        # The successor steps at the last vertex off level 1; none is left
        # past the last layout.
        p = len(level.rstrip(b"\1")) - 1
        if p == 0:
            return bytes(degs), bytes(parents)
        _successor(level, parent, deg, p)


def _successor(level, parent, deg, p):
    # Beyer-Hedetniemi successor at p, in place: the suffix from p repeats
    # the period q..p-1, q being p's parent, with its parents and degrees.
    # p is a leaf, the last of its root subtree, so the only suffix edges
    # that leave the suffix are p's to q and those of the level-1 vertices
    # after p to the root.
    n = len(level)
    q = parent[p]
    d = p - q
    deg[q] -= 1
    deg[0] -= level.count(1, p + 1)
    lq = level[q]
    pq = parent[q]
    if p == n - 1:
        # Half the steps: p alone moves up, to q's level and parent.
        level[p] = lq
        parent[p] = pq
        deg[pq] += 1
        return
    for i in range(p, n):
        j = i - d
        lv = level[j]
        level[i] = lv
        pa = pq if lv == lq else parent[j] + d
        parent[i] = pa
        deg[i] = 1
        deg[pa] += 1


def level_sequences(n):
    """Canonical level sequences of all free trees on ``n`` vertices, as tuples.

    A level sequence lists, vertex by vertex in preorder, the depth in a
    rooted layout. Read off the rows of :func:`order_rows`, in its order:
    each level is one more than the parent's.
    """
    _, parents = order_rows(n)
    out = []
    for start in range(0, len(parents), n):
        levels = [0]
        for p in parents[start + 1 : start + n]:
            levels.append(levels[p] + 1)
        out.append(tuple(levels))
    return out


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
