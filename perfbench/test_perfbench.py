"""Tests of the benchmark itself.

    python -m pytest perfbench -q

Each workload runs at a small size in this process; one result is then
corrupted, and the check must count exactly that call as failed and fail
the run. The package's own suite (``tests/``) does not collect this file.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CLAIM_IDS = workloads.load_pinned()["catalog"]["order"]


def _small_case(workload: str, calls: int | None = None):
    inputs, oracle = workloads.make_case(workload, seed=7)
    if calls is None:
        return inputs, oracle
    key = workloads.CALL_INPUTS[workload]
    items = inputs[key]
    if workload == "bigtree":
        keep = sorted(range(len(items)), key=lambda i: len(items[i]))[:calls]
    else:
        keep = range(calls)
    return {key: [items[i] for i in keep]}, [oracle[i] for i in keep]


def _assert_one_failure(workload: str, inputs, oracle, corrupt) -> None:
    good = worker.run_pass(workload, inputs)
    good_verdicts = workloads.check(workload, inputs, oracle, good["outputs"])
    assert good_verdicts == [None] * len(good_verdicts)

    bad = copy.deepcopy(good)
    corrupt(bad["outputs"])
    bad_verdicts = workloads.check(workload, inputs, oracle, bad["outputs"])
    assert sum(v is not None for v in bad_verdicts) == 1, bad_verdicts

    line, details = run.summarise(workload, [0.05], [good, bad], [good_verdicts, bad_verdicts])
    assert line["correct"] is False
    assert line["attempted"] == 2 * len(good_verdicts)
    assert line["failed"] == 1
    assert line["metrics"]["ok_frac"]["value"] == 1 - 1 / line["attempted"]
    assert details["failures"]


def test_catalog_counts_a_flipped_report_byte():
    def corrupt(outputs):
        text = outputs[0]["text"]
        at = text.index("checked: ", text.index("claim: table1")) + len("checked: ")
        outputs[0]["text"] = text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1 :]

    _assert_one_failure("catalog", *_small_case("catalog"), corrupt)


def test_catalog_counts_a_changed_json_record():
    def corrupt(outputs):
        payload = json.loads(outputs[0]["json"])
        payload["results"][3]["violations"] += 1
        outputs[0]["json"] = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    _assert_one_failure("catalog", *_small_case("catalog"), corrupt)


def test_enumerate_counts_a_missing_tree():
    _assert_one_failure(
        "enumerate", *_small_case("enumerate", 9), lambda outputs: outputs[8]["codes"].pop()
    )


def test_realize_counts_a_wrong_class_code():
    def corrupt(outputs):
        record = next(r for out in outputs for r in out)
        record["code"] = record["code"][::-1]

    _assert_one_failure("realize", *_small_case("realize", 6), corrupt)


def test_bigtree_counts_an_index_off_by_one():
    def corrupt(outputs):
        outputs[2][2] += 1  # irr_T

    _assert_one_failure("bigtree", *_small_case("bigtree", 4), corrupt)


def test_inputs_follow_the_seed():
    for workload in ("realize", "bigtree"):
        assert workloads.make_case(workload, 3) == workloads.make_case(workload, 3)
        assert workloads.make_case(workload, 3)[0] != workloads.make_case(workload, 4)[0]
    assert len(workloads.make_case("realize", 3)[0]["sequences"]) >= 100
    assert len(workloads.make_case("bigtree", 3)[0]["texts"]) >= 100


def test_oracle_indices_match_the_definitions():
    # Star with k leaves: irr = k(k-1), irr_T = k(k-1), sigma = k(k-1)^2.
    k = 6
    assert workloads.expected_indices(k + 1, [(0, i) for i in range(1, k + 1)]) == [
        k + 1, k * (k - 1), k * (k - 1), k * (k - 1) ** 2, k * k + k, k * k,
    ]
    # Path on 4 vertices: degrees 1 2 2 1.
    assert workloads.expected_indices(4, [(0, 1), (1, 2), (2, 3)]) == [4, 2, 4, 2, 10, 8]


def test_traced_pass_accounts_for_its_time():
    inputs, oracle = _small_case("bigtree", 3)
    untraced = worker.run_pass("bigtree", inputs)
    traced = worker.run_pass("bigtree", inputs, trace=True)
    verdicts = [workloads.check("bigtree", inputs, oracle, p["outputs"]) for p in (untraced, traced)]
    line, details = run.summarise("bigtree", [0.05], [untraced], verdicts, traced, CLAIM_IDS)
    assert line["correct"], details
    assert line["metrics"]["edgelist.parse_edge_list.calls"]["value"] == 3
    assert line["metrics"]["kernels.index_bundle.calls"]["value"] == 3

    del traced["trace"]["names"]["edgelist.parse_edge_list"]
    line, details = run.summarise("bigtree", [0.05], [untraced], verdicts, traced, CLAIM_IDS)
    assert not line["correct"]
    assert any("parse_edge_list" in p for p in details["trace_accounting"]["problems"])


def test_metric_names_match_benchmark_json():
    inputs, oracle = _small_case("bigtree", 2)
    p = worker.run_pass("bigtree", inputs, trace=True)
    e2e = run.end_to_end_metrics([0.05], [p], 1.0)
    layers = run.layer_metrics("bigtree", p, 0.0, CLAIM_IDS)
    for metrics, section in ((e2e, "end_to_end"), (layers, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_command_prints_the_result_line():
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "realize", "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["metrics"]["enumeration.trees_with_degree_sequence.calls"]["value"] == 108


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(path: Path, backend: str, wall: float) -> Path:
    path.write_text(
        json.dumps(
            {
                "metadata": {"workload": "catalog", "kernel_backend": backend, "trace": 0},
                "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}},
            }
        ),
        encoding="utf-8",
    )
    return path


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    base = _record(tmp_path / "a.json", "python", 4.0)
    same = _record(tmp_path / "b.json", "python", 4.1)
    other = _record(tmp_path / "c.json", "cython", 2.5)
    assert compare.main(["--base", str(base), "--new", str(same)]) == 0
    assert compare.main(["--base", str(base), "--new", str(other)]) == 2
    assert "backend" in capsys.readouterr().err


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    base = _record(tmp_path / "a.json", "python", 4.0)
    slow = _record(tmp_path / "b.json", "python", 6.0)
    assert compare.main(["--base", str(base), "--new", str(slow)]) == 1
