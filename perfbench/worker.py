"""One benchmark process: set up, then run one pass of ops in a closed loop.

run.py starts this file once per set-up sample and once per pass, so
every pass starts with cold caches, as a CLI user's process does. It
imports lpgst from the checkout's src/ and talks to run.py over its
pipes: a JSON line when set-up is done, then per op a JSON header line
followed by the op's stdout bytes (sweeps only), after which it waits for
one line on stdin. The correctness checks in run.py therefore never
overlap the timed work, and nothing they allocate counts toward this
process's peak memory.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time

import workloads


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


class Ops:
    """Runs one workload's ops against the imported program."""

    def __init__(self, workload: str, tracer, work_dir: str):
        import lpgst.cli
        import lpgst.decision
        self.cli = lpgst.cli
        self.decision = lpgst.decision
        self.workload = workload
        self.tracer = tracer
        self.work_dir = work_dir

    def run(self, op: dict, index: int):
        """The timed part of one op."""
        if self.workload == "crosscheck_band":
            return self.decision.cross_check(op["n"], op["a"])
        if self.workload == "witness_large_n":
            verdict = self.decision.classify_path(op["n"], op["a"])
            return verdict, self.decision.verify_witness(op["n"], op["a"],
                                                         verdict.certificate)
        argv = workloads.sweep_argv(op, index, self.work_dir)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.span("cli.main", self.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
        return code, out

    def output(self, result) -> tuple[dict, str]:
        """What run.py checks: a JSON-able summary and the captured stdout."""
        if self.workload == "crosscheck_band":
            closed, lattice = result.closed_form, result.lattice
            return {"agree": result.agree, "closed": closed.has_lpgst,
                    "lattice": lattice.has_lpgst, "rule": closed.rule,
                    "certificates": [list(v.certificate) for v in (closed, lattice)
                                     if v.certificate is not None]}, ""
        if self.workload == "witness_large_n":
            verdict, check = result
            return {"has_lpgst": verdict.has_lpgst,
                    "certificate": list(verdict.certificate),
                    "flags": [check.sum_zero, check.relation_zero,
                              check.parity_odd, check.off_support_zero],
                    "sigma_sum": check.sigma_sum}, ""
        code, out = result
        return {"exit": code}, out.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading taken just before this process started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--cap-seconds", type=float, default=float("inf"),
                   help="end the pass early once this much op time is spent")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    # the pipe to run.py; sys.stdout goes to stderr so a stray print
    # cannot corrupt the protocol
    proto = os.fdopen(os.dup(1), "wb")
    sys.stdout = sys.stderr

    def send(record: dict, payload: str = "") -> None:
        data = payload.encode()
        record["payload_bytes"] = len(data)
        proto.write(json.dumps(record).encode() + b"\n")
        proto.write(data)
        proto.flush()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import lpgst
    import lpgst.cli  # noqa: F401  (the sweep workloads' entry point)
    sizes = workloads.TINY if args.tiny else workloads.FULL
    ops = workloads.make_ops(args.workload, args.seed, sizes)
    if args.workload == "sweep_graph_csv":
        workloads.write_graph_files(ops, args.work_dir)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    send({"event": "ready", "setup_s": setup_s, "lpgst_file": lpgst.__file__,
          "inputs_digest": workloads.inputs_digest(ops)})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    runner = Ops(args.workload, tracer, args.work_dir)

    timed_s = 0.0
    done = 0
    for i, op in enumerate(ops):
        if timed_s >= args.cap_seconds:
            break
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = runner.run(op, i)
            else:
                tracer.op = i
                result = tracer.span("op", runner.run, op, i)
        except Exception as exc:  # a failed op is counted, not raised
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        timed_s += latency
        summary, payload = {}, ""
        if error is None:
            try:
                summary, payload = runner.output(result)
            except Exception as exc:  # e.g. a no-verdict without a certificate
                error = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(payload)
        send({"event": "op", "index": i, "latency_s": latency,
              "error": error, "output": summary}, payload)
        if not sys.stdin.readline():
            return 1
        done += 1

    kernels = sys.modules.get("lpgst._kernels")
    send({"event": "done", "ops": done, "timed_s": timed_s,
          "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "numba_enabled": getattr(kernels, "NUMBA_ENABLED", "absent"),
          "blas_threads": blas_threads(),
          "trace": tracer.metrics() if tracer else None,
          "absent": tracer.absent if tracer else []})
    return 0


if __name__ == "__main__":
    sys.exit(main())
