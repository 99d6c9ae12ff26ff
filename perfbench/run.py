"""treeirr benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src`` tree next to
this directory. Each run:

1. builds the workload's inputs and oracle from the seed (untimed);
2. times ``setup_s`` in fresh interpreters that only import ``treeirr``,
   ``treeirr.claims`` and ``treeirr.cli``, and keeps the median;
3. runs passes, each in a fresh process, until ``--seconds`` is used up
   (at least three, budget permitting), and checks every output against
   the oracle;
4. with ``--trace 1``, adds one traced pass and reports the per-layer
   metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record, with the
environment metadata and every pass, goes to
``.bench_build/perfbench/results/``; ``compare.py`` diffs two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import probe
from workloads import WORKLOADS, check, load_pinned, make_case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

MIN_PASSES = 3
SETUP_SAMPLES = 9
RUN_BUDGET_S = 165  # set-up, passes and traced pass; a run must end within 180 s

SETUP_CODE = f"""\
import sys, time
sys.path.insert(0, {str(HERE)!r})
import probe
sys.path.pop(0)
speed = probe.fastest()
start = time.perf_counter()
import treeirr, treeirr.claims, treeirr.cli
print(repr(time.perf_counter() - start), repr(speed), treeirr.KERNEL_BACKEND, treeirr.__file__)
"""

# Calls that must appear in the trace exactly as often as the pass makes
# them; if one is missing, a layer has dropped out of the trace.
TRACED_ENTRIES = {
    "catalog": ("claims.run_report", "claims.report_to_text", "claims.report_to_json"),
    "enumerate": ("enumeration.all_trees",),
    "realize": ("enumeration.trees_with_degree_sequence",),
    "bigtree": ("edgelist.parse_edge_list", "indices.compute_indices"),
}


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Import from cached bytecode, as an installed package does; the
    # uncounted first set-up import writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_child(cmd: list[str], end: float) -> str:
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(0.0, end - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} did not end within the run's {RUN_BUDGET_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def _check_package(path: str) -> None:
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported treeirr from {path}, not from {SRC}")


def measure_setup(end: float) -> tuple[list[float], str]:
    """Import times of fresh interpreters in reference seconds.

    The first import only fills the bytecode cache and is not counted.
    """
    samples, backend = [], None
    for i in range(SETUP_SAMPLES + 1):
        out = _run_child([sys.executable, "-c", SETUP_CODE], end)
        seconds, speed, backend, path = out.split(maxsplit=3)
        _check_package(path.strip())
        if i:
            samples.append(float(seconds) * probe.REFERENCE_S / float(speed))
    return samples, backend


def run_pass(workload: str, inputs_path: Path, trace: bool, end: float) -> dict:
    out_path = inputs_path.with_name("outputs.json")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(inputs_path), str(out_path)]
    _run_child(cmd + (["--trace"] if trace else []), end)
    result = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    _check_package(result["package"])
    return result


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def scaled(p: dict, seconds: float) -> float:
    """A time measured in pass ``p``, in reference seconds (see probe.py)."""
    return seconds * probe.REFERENCE_S / p["probe_s"]


def call_times(passes: list[dict]) -> list[float]:
    """Each call's fastest time over the passes, in reference seconds.

    Interference from other tenants only ever slows a call down, so the
    fastest of a call's times is its steadiest estimate.
    """
    lists = [[scaled(p, x) for x in p["latencies_s"]] for p in passes]
    width = max(map(len, lists))  # a catalog pass whose report raised has none
    return [min(c) for c in zip(*(x for x in lists if len(x) == width))]


def pass_wall(passes: list[dict]) -> float:
    """One pass: its calls at their fastest, plus the least time between them."""
    between = min(scaled(p, p["wall_s"] - sum(p["latencies_s"])) for p in passes)
    return sum(call_times(passes)) + between


def end_to_end_metrics(setup: list[float], passes: list[dict], ok_frac: float) -> dict:
    ms = [x * 1000 for x in call_times(passes)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (pass_wall(passes), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        "ok_frac": (ok_frac, "ratio"),
        "call_p50_ms": (statistics.median(ms) if ms else 0.0, "ms"),
        "call_p90_ms": (_p90(ms), "ms"),
    }


def layer_metrics(workload: str, traced: dict, wall_s: float, claim_ids: list[str]) -> dict:
    """Per-layer numbers of the traced pass; a layer that did not run reads 0."""
    summary = traced["trace"]
    names, items = summary["names"], summary["items"]

    def get(name: str, key: str):
        return names.get(name, {}).get(key, 0)

    tws = "enumeration.trees_with_degree_sequence"
    decoded = sum(
        p["calls"]
        for p in summary["paths"]
        if p["path"][-1] == "degseq.prufer_decode" and tws in p["path"]
    )
    code_calls = get("tree.canonical_code", "calls")
    out = {
        "enumeration.relocate_leaf.calls": (get("enumeration.relocate_leaf", "calls"), "count"),
        "enumeration.relocate_leaf.self_s": (get("enumeration.relocate_leaf", "self_s"), "s"),
        "tree.Tree.calls": (get("tree.Tree", "calls"), "count"),
        "tree.Tree.s": (get("tree.Tree", "s"), "s"),
        "enumeration.all_trees.trees": (items.get("enumeration.all_trees", 0), "count"),
        "enumeration.all_trees.self_s": (get("enumeration.all_trees", "self_s"), "s"),
    }
    for cid in claim_ids:
        out[f"claims.{cid}.s"] = (get(f"claims.{cid}", "s"), "s")
    out["claims.check.self_s"] = (sum(get(f"claims.{cid}", "self_s") for cid in claim_ids), "s")
    out.update(
        {
            "degseq.prufer_decode.calls": (get("degseq.prufer_decode", "calls"), "count"),
            "degseq.prufer_decode.s": (get("degseq.prufer_decode", "s"), "s"),
            f"{tws}.calls": (get(tws, "calls"), "count"),
            f"{tws}.self_s": (get(tws, "self_s"), "s"),
            f"{tws}.yield_ratio": (items.get(tws, 0) / decoded if decoded else 0.0, "ratio"),
            "kernels.index_bundle.calls": (get("kernels.index_bundle", "calls"), "count"),
            "kernels.index_bundle.s": (get("kernels.index_bundle", "s"), "s"),
            "indices.compute_indices.calls": (get("indices.compute_indices", "calls"), "count"),
            "indices.compute_indices.self_s": (get("indices.compute_indices", "self_s"), "s"),
            "kernels.level_sequences.calls": (get("kernels.level_sequences", "calls"), "count"),
            "kernels.level_sequences.s": (get("kernels.level_sequences", "s"), "s"),
            "kernels.canon_code.calls": (get("kernels.canon_code", "calls"), "count"),
            "kernels.canon_code.s": (get("kernels.canon_code", "s"), "s"),
            "tree.canonical_code.hit_ratio": (
                1 - get("kernels.canon_code", "calls") / code_calls if code_calls else 0.0,
                "ratio",
            ),
            "edgelist.parse_edge_list.calls": (get("edgelist.parse_edge_list", "calls"), "count"),
            "edgelist.parse_edge_list.self_s": (get("edgelist.parse_edge_list", "self_s"), "s"),
            "claims.serialize.s": (
                get("claims.report_to_text", "s") + get("claims.report_to_json", "s"),
                "s",
            ),
            "claims.witnesses_dropped": (
                traced["outputs"][0]["witnesses_dropped"] if workload == "catalog" else 0,
                "count",
            ),
            "trace.overhead_s": (scaled(traced, traced["wall_s"]) - wall_s, "s"),
        }
    )
    return out


def trace_accounting(workload: str, traced: dict, calls: int, claim_ids: list[str]) -> dict:
    """Self times plus the untraced remainder must add up to the traced wall time."""
    summary = traced["trace"]
    names = summary["names"]
    self_total = sum(v["self_s"] for v in names.values())
    remainder = traced["wall_s"] - summary["root_s"]
    expected = {name: calls for name in TRACED_ENTRIES[workload]}
    if workload == "catalog":
        expected.update({f"claims.{cid}": 1 for cid in claim_ids})
    problems = [
        f"{name}: traced {names.get(name, {}).get('calls', 0)} calls, made {want}"
        for name, want in expected.items()
        if names.get(name, {}).get("calls", 0) != want
    ]
    tolerance = 1e-6 * max(1.0, traced["wall_s"])
    if summary["open_spans"]:
        problems.append(f"{summary['open_spans']} spans left open")
    if abs(self_total + remainder - traced["wall_s"]) > tolerance:
        problems.append(f"self times {self_total} + remainder {remainder} != wall {traced['wall_s']}")
    if remainder < -tolerance:
        problems.append(f"spans cover {-remainder} s outside the timed calls")
    return {
        "self_s": self_total,
        "untraced_s": remainder,
        "traced_wall_s": traced["wall_s"],
        "problems": problems,
    }


def summarise(
    workload: str,
    setup: list[float],
    passes: list[dict],
    verdicts: list[list],
    traced: dict | None = None,
    claim_ids: list[str] = (),
) -> tuple[dict, dict]:
    """(final JSON line, details) for a run.

    ``verdicts`` has one list per pass (the traced pass last, if any) with
    one entry per call: ``None`` if its output passed the check.
    """
    flat = [v for per_pass in verdicts for v in per_pass]
    attempted, failed = len(flat), sum(v is not None for v in flat)
    problems = [v for v in flat if v is not None]
    backends = {p["backend"] for p in passes + ([traced] if traced else [])}
    if len(backends) != 1:
        problems.append(f"passes ran on different kernel backends: {sorted(backends)}")
    details = {"backend": sorted(backends)[0]}
    if traced is None:
        metrics = end_to_end_metrics(setup, passes, (attempted - failed) / attempted)
    else:
        metrics = layer_metrics(workload, traced, pass_wall(passes), claim_ids)
        calls = len(verdicts[-1]) if workload != "catalog" else 1
        details["trace_accounting"] = trace_accounting(workload, traced, calls, claim_ids)
        problems += details["trace_accounting"]["problems"]
    details["failures"] = problems[:20]
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, details


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeirr" / "__init__.py").is_file():
        print(f"error: no treeirr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    inputs, oracle = make_case(args.workload, args.seed)
    claim_ids = load_pinned()["catalog"]["order"]
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        inputs_path = scratch / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        end = perf_counter() + RUN_BUDGET_S
        setup, setup_backend = measure_setup(end)
        passes, durations = [], []
        deadline = perf_counter() + args.seconds
        while True:
            if passes:
                typical, now = statistics.median(durations), perf_counter()
                if now + typical * (1 + 2 * args.trace) > end:
                    break  # no room left for another pass and the traced one
                if len(passes) >= MIN_PASSES and now + typical > deadline:
                    break
            start = perf_counter()
            passes.append(run_pass(args.workload, inputs_path, False, end))
            durations.append(perf_counter() - start)
        traced = run_pass(args.workload, inputs_path, True, end) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    verdicts = [
        check(args.workload, inputs, oracle, p["outputs"]) for p in passes + ([traced] if traced else [])
    ]
    line, details = summarise(args.workload, setup, passes, verdicts, traced, claim_ids)
    if setup_backend != details["backend"]:
        line["correct"] = False
        details["failures"].append(f"set-up ran on backend {setup_backend}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": details["backend"],
        "treeirr": passes[0]["version"],
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "setup_samples": len(setup),
        "call_samples_per_pass": len(passes[0]["latencies_s"]),
    }
    record = {
        "metadata": meta,
        "result": line,
        "details": details,
        "setup_s": setup,
        "passes": [{k: p[k] for k in ("wall_s", "probe_s", "peak_rss_mib", "latencies_s")} for p in passes],
        "trace": traced["trace"] if traced else None,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in line["metrics"].items():
        samples = f"  ({meta['call_samples_per_pass']} calls x {len(passes)} passes)"
        print(f"{name} {m['value']} {m['unit']}" + (samples if name.startswith("call_") else ""))
    if "trace_accounting" in details:
        acc = details["trace_accounting"]
        print(
            f"trace accounting: self {acc['self_s']:.4f} s + untraced {acc['untraced_s']:.4f} s"
            f" = traced wall {acc['traced_wall_s']:.4f} s"
        )
    for reason in details["failures"]:
        print(f"failure: {reason}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
