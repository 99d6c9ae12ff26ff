"""One pass of one workload in a fresh interpreter.

    python perfbench/worker.py WORKLOAD INPUTS.json OUTPUTS.json [--trace]

``run.py`` starts this once per pass with ``src`` on ``PYTHONPATH``. The
timed regions hold only the program's user-level calls; reading inputs,
digesting outputs and writing the results file stay outside them. Peak
resident memory is read right after the pass.

The program is called through module attributes (``treeirr.all_trees``),
looked up at call time, so that a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from time import perf_counter

import probe
import treeirr
import treeirr.claims
import treeirr.cli  # noqa: F401 - imported by the CLI user as well
import treeirr.edgelist


def _edges_str(t) -> str:
    return " ".join(f"{u}-{v}" for u, v in t.edges)


def _records(trees) -> list[dict]:
    # The record of `treeirr enumerate --json` and `treeirr realize --json`.
    return [
        {
            "code": treeirr.canonical_code(t).decode("ascii"),
            "edges": _edges_str(t),
            "degrees": " ".join(str(d) for d in sorted(treeirr.degrees(t), reverse=True)),
        }
        for t in trees
    ]


def _catalog(inputs: dict, log: list) -> list:
    claims = treeirr.claims
    start = perf_counter()
    try:
        # The configuration of `treeirr report --deterministic`.
        report = claims.run_report(claims.ReportConfig(deterministic=True, jobs=1))
        text = claims.report_to_text(report)
        raw_json = claims.report_to_json(report)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
        log.append((perf_counter() - start, []))
        return [{"error": f"{type(exc).__name__}: {exc}"}]
    log.append((perf_counter() - start, [r.wall_time for r in report.results]))
    dropped = sum(r.violations - len(r.witnesses) for r in report.results)
    return [{"text": text, "json": raw_json, "witnesses_dropped": dropped}]


def _enumerate(inputs: dict, log: list) -> list:
    outputs = []
    for n in inputs["orders"]:
        start = perf_counter()
        try:
            records = _records(treeirr.all_trees(n))
            text = json.dumps(records, sort_keys=True, indent=2)
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            records = None
        log.append(perf_counter() - start)
        if records is None:
            outputs.append(None)
            continue
        outputs.append(
            {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "codes": [r["code"] for r in records],
            }
        )
    return outputs


def _realize(inputs: dict, log: list) -> list:
    outputs = []
    for seq in inputs["sequences"]:
        start = perf_counter()
        try:
            out = _records(treeirr.trees_with_degree_sequence(seq))
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            out = None
        log.append(perf_counter() - start)
        outputs.append(out)
    return outputs


def _bigtree(inputs: dict, log: list) -> list:
    outputs = []
    for text in inputs["texts"]:
        start = perf_counter()
        try:
            t = treeirr.edgelist.parse_edge_list(text).tree
            b = treeirr.compute_indices(t)
            out = [t.n, b.irr, b.irr_t, b.sigma, b.m1, b.m2]
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            out = None
        log.append(perf_counter() - start)
        outputs.append(out)
    return outputs


PASSES = {"catalog": _catalog, "enumerate": _enumerate, "realize": _realize, "bigtree": _bigtree}


def run_pass(workload: str, inputs: dict, trace: bool = False) -> dict:
    """Run one pass in this process and return its timings and outputs.

    ``wall_s`` sums the timed regions. ``latencies_s`` holds one sample
    per user-level call: per claim (the report's own ``wall_time``) on
    ``catalog``, per call elsewhere. ``probe_s`` is the fastest
    :func:`probe.probe` time before and after the pass, outside the timed
    regions.
    """
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    log: list = []
    speed = probe.fastest()
    try:
        outputs = PASSES[workload](inputs, log)
    finally:
        if tracer is not None:
            tracer.uninstall()
    speed = min(speed, probe.fastest())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "catalog":
        wall_s, latencies = log[0]
        if "error" in outputs[0]:
            outputs = [None]
    else:
        wall_s, latencies = sum(log), log
    return {
        "backend": treeirr.KERNEL_BACKEND,
        "version": treeirr.__version__,
        "package": treeirr.__file__,
        "wall_s": wall_s,
        "probe_s": speed,
        "latencies_s": latencies,
        "peak_rss_mib": peak_rss_mib,
        "outputs": outputs,
        "trace": tracer.summary() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    workload, inputs_path, outputs_path = argv[:3]
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    result = run_pass(workload, inputs, trace="--trace" in argv[3:])
    with open(outputs_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
