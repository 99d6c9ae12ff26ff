"""Compare two sets of benchmark records.

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Records are the files ``run.py`` writes under ``.bench_build/perfbench/results/``.
Each side's value of a metric is the median over its records. Records of
different workloads, of traced and untraced runs, or of different kernel
backends are refused (exit 2): a compiled-kernel run says nothing about a
pure-Python one. An end-to-end metric whose median got worse than the base
by more than its bound in ``BENCHMARK.json`` is flagged, and the exit status
is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    for key in ("kernel_backend", "workload", "trace"):
        seen = {r["metadata"][key] for r in base + new}
        if len(seen) != 1:
            print(f"refusing to compare records with different {key}: {sorted(seen)}", file=sys.stderr)
            return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worse = False
    print(f"{'metric':52s} {'base':>14s} {'new':>14s} {'change':>8s}")
    for name in base[0]["result"]["metrics"]:
        b = statistics.median(r["result"]["metrics"][name]["value"] for r in base)
        n = statistics.median(r["result"]["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        flag = ""
        spec = bounds.get(name)
        if spec is not None:
            loss = change if spec["better"] == "lower" else -change
            if loss > spec["bound"]:
                flag, worse = f"  worse than bound {spec['bound']}", True
        print(f"{name:52s} {b:14.6g} {n:14.6g} {change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
