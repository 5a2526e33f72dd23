#!/usr/bin/env python3
"""lpgst benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload crosscheck_band --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; lpgst is imported from its src/. With
--trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer ones (see BENCHMARK.json and perfbench/README.md).
The line before it is a report: environment and input fingerprint, the
tail percentile used, failures. Every op's output is checked (oracle.py)
outside the timed region; an op that raises or fails a check counts as
failed.

A run repeats one pass (the workload's op list) in fresh worker
processes until about --seconds of op time is measured, and reports
medians over passes, so each pass starts cold and every pass of every
run does the same mix of work.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3          # set-up-only processes per run, plus one per pass
TAIL_BEYOND = 10           # ops that must lie beyond the reported tail latency
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_PASSES = 40            # bounds the run if a pass becomes very fast
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class Pass:
    """One worker process: set-up time, per-op latencies and failures."""

    def __init__(self):
        self.setup_s = None
        self.latencies = []      # completed ops, failed or not
        self.failures = []       # one line per failed op
        self.lost = 0            # op in flight when the worker died
        self.done = None
        self.digest = None

    @property
    def timed_s(self) -> float:
        return self.done["timed_s"] if self.done else sum(self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.lost

    def add(self, record: dict, problems: list[str]) -> None:
        self.latencies.append(record["latency_s"])
        if problems:
            self.failures.append(f"op {record['index']}: {'; '.join(problems)}")


def judge(checker: "Checker", record: dict, payload: str) -> list[str]:
    """Problems with one op: the error it raised, or what its check found."""
    if record["error"]:
        return [record["error"]]
    try:
        return checker.problems(record["index"], record["output"], payload)
    except Exception as exc:  # malformed output is a failed op
        return [f"check raised {type(exc).__name__}: {exc}"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest of TAIL_PERCENTILES with at
    least TAIL_BEYOND ops beyond it; the median when no percentile has.

    A fixed ladder keeps the percentile the same from run to run while
    the op count varies a little; nearest-rank, so the value is an op's.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    p = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50.0)
    return ordered[max(0, math.ceil(p / 100 * n) - 1)], p


def spawn(args, work_dir: Path, extra: list[str]) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--work-dir", str(work_dir), "--workload", args.workload,
           "--seed", str(args.seed),
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.Popen(cmd + extra, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)


def read_record(proc) -> tuple[dict | None, str]:
    line = proc.stdout.readline()
    if not line:
        return None, ""
    record = json.loads(line)
    payload = proc.stdout.read(record["payload_bytes"]).decode()
    return record, payload


def finish(proc) -> None:
    proc.stdin.close()
    proc.stdout.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Checker:
    """Runs oracle checks in this process, with its own lpgst import."""

    def __init__(self, workload: str, ops: list[dict], work_dir: Path):
        sys.path.insert(0, str(ROOT / "src"))
        import lpgst.decision
        import oracle
        self.oracle = oracle
        self.decision = lpgst.decision
        self.workload = workload
        self.ops = ops
        self.work_dir = work_dir

    def problems(self, index: int, out: dict, payload: str) -> list[str]:
        op = self.ops[index]
        if self.workload == "crosscheck_band":
            return self.oracle.check_crosscheck(op, out, self.decision)
        if self.workload == "witness_large_n":
            return self.oracle.check_witness(op, out)
        path = None
        if op["edges"] is not None:
            path = workloads.graph_file(str(self.work_dir), index)
        return self.oracle.check_sweep(op, out, payload, path)


def run_pass(args, work_dir: Path, checker: Checker, extra: list[str]) -> Pass:
    """Start a worker, check each op as it arrives, collect its figures."""
    result = Pass()
    proc = spawn(args, work_dir, extra)
    try:
        ready, _ = read_record(proc)
        if ready is None:
            raise RuntimeError("worker exited during set-up")
        result.setup_s = ready["setup_s"]
        result.digest = ready["inputs_digest"]
        if Path(ready["lpgst_file"]).resolve().parent != (ROOT / "src" / "lpgst").resolve():
            raise RuntimeError(f"imported lpgst from {ready['lpgst_file']}")
        while True:
            record, payload = read_record(proc)
            if record is None:
                result.failures.append("worker exited before finishing")
                result.lost = 1
                break
            if record["event"] == "done":
                result.done = record
                break
            result.add(record, judge(checker, record, payload))
            proc.stdin.write(b"\n")
            proc.stdin.flush()
    finally:
        finish(proc)
    return result


def setup_samples(args, work_dir: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = spawn(args, work_dir, ["--setup-only"])
        try:
            ready, _ = read_record(proc)
        finally:
            finish(proc)
        if ready is None:
            raise RuntimeError("set-up-only worker failed")
        samples.append(ready["setup_s"])
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lpgst").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(args, digest: str, done: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": done.get("numba_enabled") if done else None,
        "blas_threads": done.get("blas_threads") if done else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "LPGST_NO_NUMBA": os.environ.get("LPGST_NO_NUMBA"),
        "git_revision": git_revision(), "source_digest": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_digest": digest,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measured_passes(args, work_dir: Path, checker: Checker, extra: list[str]) -> list[Pass]:
    """Passes until the next one would overshoot --seconds by more than half."""
    cap = ["--cap-seconds", repr(3.0 * args.seconds)]
    passes = [run_pass(args, work_dir, checker, cap + extra)]
    timed = passes[0].timed_s
    while (passes[-1].done and len(passes) < MAX_PASSES
           and timed + passes[-1].timed_s / 2 < args.seconds):
        passes.append(run_pass(args, work_dir, checker, cap + extra))
        timed += passes[-1].timed_s
    return passes


def end_to_end(args, work_dir: Path, checker: Checker) -> tuple[dict, dict, list[Pass]]:
    samples = setup_samples(args, work_dir)
    passes = measured_passes(args, work_dir, checker, [])
    metrics, details = summarize(passes, samples + [p.setup_s for p in passes])
    return metrics, details, passes


def summarize(passes: list[Pass], samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics: medians over passes, latencies pooled."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    latency_tail, percentile = tail(latencies) if latencies else (0.0, None)
    rates = [(p.attempted - len(p.failures)) / p.timed_s if p.timed_s > 0 else 0.0
             for p in passes]
    rss = [p.done["peak_rss_kb"] / 1024 for p in passes if p.done]
    metrics = {
        "setup_s": metric(statistics.median(samples), "s"),
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(latencies or [0.0]), "ms"),
        "op_tail_ms": metric(1e3 * latency_tail, "ms"),
        "correct_ratio": metric((attempted - failed) / attempted if attempted else 0.0,
                                "ratio"),
        "peak_rss_mb": metric(statistics.median(rss or [0.0]), "MB"),
    }
    details = {"passes": len(passes), "ops": attempted,
               "failed_ratio": failed / attempted if attempted else 1.0,
               "op_tail_percentile": percentile,
               "timed_s": [p.timed_s for p in passes], "setup_samples_s": samples}
    return metrics, details


def per_layer(args, work_dir: Path, checker: Checker) -> tuple[dict, dict, list[Pass]]:
    """A traced pass, after an untraced pass over the same ops."""
    import tracing
    cap = ["--cap-seconds", repr(3.0 * args.seconds)]
    plain = run_pass(args, work_dir, checker, cap)
    traced = run_pass(args, work_dir, checker, cap + ["--trace"])
    values = dict(traced.done["trace"]) if traced.done else {}
    if plain.done and traced.done:
        values["trace.overhead_s"] = traced.timed_s - plain.timed_s
    metrics = {name: metric(values.get(name, 0), unit)
               for name, (unit, _better) in tracing.PER_LAYER.items()}
    details = {"ops": traced.attempted,
               "absent": traced.done["absent"] if traced.done else [],
               "untraced_timed_s": plain.timed_s, "traced_timed_s": traced.timed_s}
    return metrics, details, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lpgst" / "__init__.py").is_file():
        print(f"error: no lpgst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread: fewer than nproc, and steadier on a shared machine
    for var in THREAD_VARS:
        os.environ[var] = "1"

    work_dir = WORK_ROOT / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.make_ops(args.workload, args.seed,
                                 workloads.TINY if args.tiny else workloads.FULL)
        digest = workloads.inputs_digest(ops)
        checker = Checker(args.workload, ops, work_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, details, passes = measure(args, work_dir, checker)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    failures = [f for p_ in passes for f in p_.failures]
    attempted = sum(p_.attempted for p_ in passes)
    same_inputs = all(p_.digest == digest for p_ in passes)
    report = {"fingerprint": fingerprint(args, digest, passes[-1].done),
              "details": details, "same_inputs_in_every_process": same_inputs,
              "failures": failures[:20]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures and same_inputs, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
