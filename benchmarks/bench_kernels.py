"""Benchmark the compiled kernels against the pure-Python fallback.

A kernel micro-benchmark: times the three hot kernels on realistic
workloads (free-tree generation, canonical coding, index computation on
every tree of the order and on a random tree, a star and a path of order
2000, where a quadratic irr_T sum would show) plus a kernel stress sweep
that rebuilds the edge list and recomputes the full index bundle after
every leaf move, and asserts that both backends agree on every task.
The claim verifier updates the indices of a moved tree by deltas
instead; end-to-end runs are measured with ``perfbench/run.py``.
Usage:

    python benchmarks/bench_kernels.py [--order 13] [--repeat 3]
"""

import argparse
import random
import time

from treeirr import prufer_decode
from treeirr._kernels import _pykernels

try:
    from treeirr._kernels import _ckernels
except ImportError:
    _ckernels = None

LARGE_ORDER = 2000


def levels_to_flat(levels):
    flat = []
    stack = []
    for i, lv in enumerate(levels):
        while stack and levels[stack[-1]] >= lv:
            stack.pop()
        if stack:
            flat.append(stack[-1])
            flat.append(i)
        stack.append(i)
    return flat


def large_trees(n):
    # One uniform random tree (fixed seed), one star and one path.
    rng = random.Random(n)
    code = [rng.randrange(n) for _ in range(n - 2)]
    star = [x for i in range(1, n) for x in (0, i)]
    path = [x for i in range(n - 1) for x in (i, i + 1)]
    return [prufer_decode(code, n).flat_edges(), star, path]


def bench(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def sweep(kernel, n, trees):
    # For every admissible leaf move, rebuild the edge list and recompute
    # the full index bundle: a stress loop for index_bundle.
    total = 0
    for flat in trees:
        deg = [0] * n
        adj = [[] for _ in range(n)]
        for k in range(0, len(flat), 2):
            u, v = flat[k], flat[k + 1]
            deg[u] += 1
            deg[v] += 1
            adj[u].append(v)
            adj[v].append(u)
        for y in range(n):
            if deg[y] < 3:
                continue
            donors = [w for w in adj[y] if deg[w] == 1]
            for donor in donors:
                for recipient in adj[y]:
                    if recipient == donor:
                        continue
                    moved = []
                    for k in range(0, len(flat), 2):
                        u, v = flat[k], flat[k + 1]
                        if {u, v} != {y, donor}:
                            moved.append(u)
                            moved.append(v)
                    moved.append(donor)
                    moved.append(recipient)
                    total += kernel.index_bundle(n, moved)[0]
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=13, help="tree order for the workloads")
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = parser.parse_args()
    n = args.order

    backends = [("python", _pykernels)]
    if _ckernels is not None:
        backends.append(("cython", _ckernels))
    else:
        print("compiled kernels not built; timing the pure backend only")

    levels = _pykernels.level_sequences(n)
    trees = [levels_to_flat(seq) for seq in levels]
    print(f"order {n}: {len(trees)} unlabeled trees")
    large = large_trees(LARGE_ORDER)

    tasks = {
        "generate": lambda k: k.level_sequences(n),
        "canonize": lambda k: [k.canon_code(n, flat) for flat in trees],
        "indices": lambda k: [k.index_bundle(n, flat) for flat in trees],
        "indices-large": lambda k: [k.index_bundle(LARGE_ORDER, flat) for flat in large],
        "sweep": lambda k: sweep(k, n, trees),
    }

    results = {}
    for task, fn in tasks.items():
        for name, kernel in backends:
            results[task, name] = bench(lambda: fn(kernel), args.repeat)

    width = max(len(t) for t in tasks)
    header = f"{'task'.ljust(width)}  python (s)"
    if _ckernels is not None:
        header += "  cython (s)  speedup"
    print(header)
    for task in tasks:
        line = f"{task.ljust(width)}  {results[task, 'python']:10.4f}"
        if _ckernels is not None:
            cy = results[task, "cython"]
            line += f"  {cy:10.4f}  {results[task, 'python'] / cy:7.2f}x"
        print(line)

    for task, fn in tasks.items():
        out_py = fn(_pykernels)
        for name, kernel in backends[1:]:
            assert fn(kernel) == out_py, f"backend disagreement on {task}"


if __name__ == "__main__":
    main()
