"""Tests of the benchmark itself: tiny smoke runs and wrong answers.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_reports_the_declared_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert not (ROOT / ".perfbench_work").exists()


def _judged(workload: str, corrupt, tmp_path: Path) -> tuple[dict, dict, list[str]]:
    """Run four tiny ops in-process, corrupt the first output, judge them all."""
    ops = workloads.make_ops(workload, 5, workloads.TINY)
    if workload == "crosscheck_band":
        ops = [op for op in ops if not workloads.expected_has_lpgst(op["n"], op["a"])]
    if workload == "sweep_graph_csv":
        workloads.write_graph_files(ops, str(tmp_path))
    checker = run.Checker(workload, ops, tmp_path)
    ops_runner = worker.Ops(workload, None, str(tmp_path))
    p = run.Pass()
    for i, op in enumerate(ops[:4]):
        summary, payload = ops_runner.output(ops_runner.run(op, i))
        if i == 0:
            summary, payload = corrupt(summary, payload)
        record = {"index": i, "latency_s": 0.01, "error": None, "output": summary}
        p.add(record, run.judge(checker, record, payload))
    p.done = {"timed_s": 0.04, "peak_rss_kb": 1024}
    return (*run.summarize([p], [0.1]), p.failures)


def _flip_first_nonzero(cert: list[int]) -> list[int]:
    k = next(i for i, v in enumerate(cert) if v)
    return cert[:k] + [-cert[k]] + cert[k + 1:]


def test_flipped_certificate_entry_is_a_failed_op(tmp_path):
    def corrupt(summary, payload):
        summary["certificates"][0] = _flip_first_nonzero(summary["certificates"][0])
        return summary, payload
    metrics, details, failures = _judged("crosscheck_band", corrupt, tmp_path)
    assert len(failures) == 1 and details["ops"] >= 3
    assert details["failed_ratio"] == 1 / details["ops"]
    assert metrics["correct_ratio"]["value"] == pytest.approx(1 - 1 / details["ops"])
    assert "verify_witness: relation_zero is false" in failures[0]


def test_flipped_witness_entry_is_a_failed_op(tmp_path):
    def corrupt(summary, payload):
        summary["certificate"] = _flip_first_nonzero(summary["certificate"])
        return summary, payload
    _, details, failures = _judged("witness_large_n", corrupt, tmp_path)
    assert details["failed_ratio"] == 0.25
    assert "eigenvalue combination is not zero" in failures[0]


@pytest.mark.parametrize("workload", ["sweep_path_json", "sweep_graph_csv"])
def test_perturbed_sweep_fidelity_is_a_failed_op(workload, tmp_path):
    """Shift the maximum and sup_estimate together: only expm can tell."""
    def corrupt(summary, payload):
        if workload == "sweep_path_json":
            rec = json.loads(payload)
            i = rec["fidelities"].index(rec["sup_estimate"])
            rec["fidelities"][i] = rec["sup_estimate"] = rec["sup_estimate"] - 1e-7
            return summary, json.dumps(rec)
        lines = payload.splitlines()
        sup = float(lines[1].split("=")[1])
        bumped = repr(sup - 1e-7)
        lines[1] = f"# sup_estimate={bumped}"
        i = next(j for j in range(4, len(lines)) if float(lines[j].split(",")[1]) == sup)
        lines[i] = f"{lines[i].split(',')[0]},{bumped}"
        return summary, "\n".join(lines) + "\n"
    _, details, failures = _judged(workload, corrupt, tmp_path)
    assert details["failed_ratio"] == 0.25
    assert len(failures) == 1 and "differs from expm value" in failures[0]


def test_tail_has_ten_ops_beyond_it():
    latencies = [float(i) for i in range(1, 201)]
    assert run.tail(latencies) == (190.0, 95.0)       # 10 ops beyond it
    assert run.tail(latencies[:199]) == (180.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)  # too few ops: the median


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck_band", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
