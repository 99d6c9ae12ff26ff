"""Seeded inputs, oracles and output checks for the four workloads.

Nothing here runs inside the timed region. ``make_case`` builds the inputs
a pass receives plus the oracle its outputs are checked against;
``check`` turns one pass's outputs into one verdict per user-level call
(``None`` when the call's output is correct, else a short reason).

The oracles are owned by the benchmark:

- ``catalog`` and ``enumerate`` compare against digests pinned in
  ``pinned.json``. They were taken from ``treeirr report --deterministic``
  (text and ``--json``) and ``treeirr enumerate --n N --json`` at the commit
  that introduced the benchmark, with the report's ``meta:`` line and
  ``metadata`` object masked. The per-order tree counts are OEIS A000055.
- ``realize`` groups ``all_trees(n)`` by sorted degree sequence. The level
  sequence enumerator is pinned by the ``enumerate`` digests, so the
  Prüfer-realization path is checked against an anchored, independent one.
- ``bigtree`` computes the five indices from the edges it generated, in
  O(n) per tree with sorted-degree prefix sums for ``irr_T``, without any
  program code.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import re
from math import factorial
from pathlib import Path

WORKLOADS = ("catalog", "enumerate", "realize", "bigtree")

HERE = Path(__file__).resolve().parent

# OEIS A000055: unlabeled trees on n vertices, n = 1..16 (32,508 in total).
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)

# realize: every tree degree sequence of these orders whose distinct
# Prüfer arrangements stay under the cap, each REALIZE_REPEATS times.
# Using the whole pool makes the work of a pass the same for every seed;
# the seed decides the call order and the order each sequence is written in.
REALIZE_ORDERS = range(9, 13)
REALIZE_MAX_ARRANGEMENTS = 2000
REALIZE_REPEATS = 2

# bigtree: sizes on a fixed geometric grid so that the O(n^2) kernel work
# of a pass is the same for every seed; the seed draws the trees, labels
# and line order. Shapes cycle through five uniform random trees, a path,
# a star (maximum degree n-1) and a broom per eight sizes.
BIGTREE_CALLS = 120
BIGTREE_MIN_ORDER = 200
BIGTREE_MAX_ORDER = 2000
BIGTREE_SHAPES = ("prufer",) * 5 + ("path", "star", "broom")

# The input list that holds one entry per call, by workload.
CALL_INPUTS = {"enumerate": "orders", "realize": "sequences", "bigtree": "texts"}

_TEXT_META = re.compile(r"^meta: .*$", re.MULTILINE)
_JSON_META = re.compile(r'"metadata": \{[^{}]*\}')


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pinned() -> dict:
    return json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))


def mask_report_text(text: str) -> str:
    return _TEXT_META.sub("meta: <masked>", text)


def mask_report_json(text: str) -> str:
    return _JSON_META.sub('"metadata": "<masked>"', text)


def make_case(workload: str, seed: int) -> tuple[dict, object]:
    """(inputs for the pass, oracle for ``check``); the same seed gives the same case."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        # The default report has no inputs; the seed is only recorded.
        return {"seed": seed}, load_pinned()["catalog"]
    if workload == "enumerate":
        pinned = load_pinned()["enumerate"]
        orders = list(range(1, len(A000055) + 1))
        return {"orders": orders}, [pinned[str(n)] for n in orders]
    if workload == "realize":
        return _realize_case(rng)
    if workload == "bigtree":
        return _bigtree_case(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# realize


def tree_sequences(n: int) -> list[tuple[int, ...]]:
    """Every tree degree sequence of order n >= 3, non-increasing.

    The entries minus one form a partition of n - 2 padded with zeros.
    """
    out = []

    def parts(rest: int, largest: int, prefix: list[int]) -> None:
        if rest == 0:
            out.append(tuple(p + 1 for p in prefix) + (1,) * (n - len(prefix)))
            return
        for p in range(min(rest, largest), 0, -1):
            prefix.append(p)
            parts(rest - p, p, prefix)
            prefix.pop()

    parts(n - 2, n - 2, [])
    return out


def arrangements(seq: tuple[int, ...]) -> int:
    """Distinct Prüfer codes in which vertex i appears d_i - 1 times."""
    total = factorial(len(seq) - 2)
    for d in seq:
        total //= factorial(d - 1)
    return total


def realize_pool() -> list[tuple[int, ...]]:
    return [
        seq
        for n in REALIZE_ORDERS
        for seq in tree_sequences(n)
        if arrangements(seq) <= REALIZE_MAX_ARRANGEMENTS
    ]


def _realize_case(rng: random.Random) -> tuple[dict, list[list[str]]]:
    calls = realize_pool() * REALIZE_REPEATS
    rng.shuffle(calls)
    sequences = []
    for seq in calls:
        written = list(seq)
        rng.shuffle(written)
        sequences.append(written)
    classes = realize_oracle(set(calls))
    return {"sequences": sequences}, [classes[seq] for seq in calls]


def realize_oracle(sequences: set[tuple[int, ...]]) -> dict:
    """Sorted sequence -> sorted canonical codes of its classes, from ``all_trees``."""
    from treeirr import all_trees, canonical_code, degrees

    oracle: dict[tuple[int, ...], list[str]] = {seq: [] for seq in sequences}
    for n in sorted({len(s) for s in sequences}):
        for t in all_trees(n):
            codes = oracle.get(tuple(sorted(degrees(t), reverse=True)))
            if codes is not None:
                codes.append(canonical_code(t).decode("ascii"))
    for codes in oracle.values():
        codes.sort()
    return oracle


def _seq_key(seq) -> str:
    return " ".join(str(d) for d in sorted(seq, reverse=True))


# ---------------------------------------------------------------------------
# bigtree


def _prufer_tree(code: list[int], n: int) -> list[tuple[int, int]]:
    deg = [1] * n
    for c in code:
        deg[c] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, c))
        deg[c] -= 1
        if deg[c] == 1:
            heapq.heappush(leaves, c)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _shape_edges(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    if shape == "prufer":
        return _prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
    if shape == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "broom":
        handle = rng.randint(n // 4, 3 * n // 4)
        return [(i, i + 1) for i in range(handle - 1)] + [
            (handle - 1, i) for i in range(handle, n)
        ]
    raise ValueError(shape)


def expected_indices(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """[n, irr, irr_T, sigma, M1, M2] of a tree, in O(n log n)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    irr = sigma = m2 = 0
    for u, v in edges:
        diff = abs(deg[u] - deg[v])
        irr += diff
        sigma += diff * diff
        m2 += deg[u] * deg[v]
    m1 = sum(d * d for d in deg)
    # Over ascending degrees, vertex j exceeds each earlier one by d_j - d_i.
    irr_t = prefix = 0
    for j, d in enumerate(sorted(deg)):
        irr_t += j * d - prefix
        prefix += d
    return [n, irr, irr_t, sigma, m1, m2]


def bigtree_orders() -> list[int]:
    ratio = BIGTREE_MAX_ORDER / BIGTREE_MIN_ORDER
    return [
        round(BIGTREE_MIN_ORDER * ratio ** (i / (BIGTREE_CALLS - 1)))
        for i in range(BIGTREE_CALLS)
    ]


def _bigtree_case(rng: random.Random) -> tuple[dict, list[list[int]]]:
    cases = []
    for i, n in enumerate(bigtree_orders()):
        shape = BIGTREE_SHAPES[i % len(BIGTREE_SHAPES)]
        edges = _shape_edges(shape, n, rng)
        # Sparse, shuffled labels; the parser re-indexes them densely.
        labels = rng.sample(range(4 * n), n)
        lines = [f"# {shape} tree on {n} vertices"]
        for u, v in edges:
            a, b = labels[u], labels[v]
            lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
        body = lines[1:]
        rng.shuffle(body)
        cases.append(("\n".join(lines[:1] + body) + "\n", expected_indices(n, edges)))
    rng.shuffle(cases)
    return {"texts": [text for text, _ in cases]}, [want for _, want in cases]


# ---------------------------------------------------------------------------
# checks


def check(workload: str, inputs: dict, oracle, outputs: list) -> list[str | None]:
    """One verdict per call: ``None`` if its output is correct, else why not.

    ``outputs`` holds one entry per call as the pass reported it; an entry
    of ``None`` means the call raised.
    """
    if workload == "catalog":
        return _check_catalog(oracle, outputs[0])
    checker = {
        "enumerate": _check_enumerate,
        "realize": _check_realize,
        "bigtree": _check_bigtree,
    }[workload]
    items = inputs[CALL_INPUTS[workload]]
    if len(outputs) != len(items):
        return ["pass returned a wrong number of outputs"] * len(items)
    return [
        "call raised" if out is None else checker(item, want, out)
        for item, want, out in zip(items, oracle, outputs)
    ]


def _check_catalog(pinned: dict, out: dict | None) -> list[str | None]:
    order = pinned["order"]
    if out is None:
        return ["report raised"] * len(order)
    text = mask_report_text(out["text"])
    raw_json = out["json"]
    if sha256(text) == pinned["text_sha256"] and sha256(mask_report_json(raw_json)) == pinned["json_sha256"]:
        return [None] * len(order)
    # Something differs: localize it to claims. A defect outside any one
    # claim's record (header, tallies, layout, errors) fails every claim.
    blocks = text.split("\n\n")
    try:
        payload = json.loads(raw_json)
        records = {r["claim"]: r for r in payload["results"]}
        layout_ok = (
            json.dumps(payload, sort_keys=True, indent=2) + "\n" == raw_json
            and payload["errors"] == []
        )
    except (ValueError, KeyError, TypeError):
        return ["report JSON unreadable"] * len(order)
    by_claim = {b.split("\n", 1)[0].removeprefix("claim: "): b for b in blocks[1:]}
    if (
        not layout_ok
        or sha256(blocks[0]) != pinned["header_sha256"]
        or list(by_claim) != order
    ):
        return ["report header, layout or claim set differs"] * len(order)
    verdicts = []
    for cid in order:
        want = pinned["claims"][cid]
        if sha256(by_claim[cid]) != want["text"]:
            verdicts.append(f"{cid}: text block differs")
        elif sha256(json.dumps(records.get(cid), sort_keys=True)) != want["json"]:
            verdicts.append(f"{cid}: JSON record differs")
        else:
            verdicts.append(None)
    return verdicts


def _check_enumerate(n: int, digest: str, out: dict) -> str | None:
    codes = out["codes"]
    if len(codes) != A000055[n - 1]:
        return f"n={n}: {len(codes)} trees, want {A000055[n - 1]}"
    if any(a >= b for a, b in zip(codes, codes[1:])):
        return f"n={n}: codes not strictly ascending"
    if out["sha256"] != digest:
        return f"n={n}: record digest differs"
    return None


def _check_realize(written: list[int], codes: list[str], out: list[dict]) -> str | None:
    key = _seq_key(written)
    if [r["code"] for r in out] != codes:
        return f"({key}): class codes differ"
    for r in out:
        if r["degrees"] != key:
            return f"({key}): record degrees {r['degrees']!r}"
        deg = [0] * len(written)
        for pair in r["edges"].split():
            u, v = pair.split("-")
            deg[int(u)] += 1
            deg[int(v)] += 1
        if _seq_key(deg) != key or len(r["edges"].split()) != len(written) - 1:
            return f"({key}): edges do not realize the sequence"
    return None


def _check_bigtree(text: str, want: list[int], out: list[int]) -> str | None:
    if out != want:
        return f"{text.split(chr(10), 1)[0]}: got {out}, want {want}"
    return None
