"""Correctness checks for every op, run by run.py outside the timed region.

Each check returns a list of problems; an empty list means the op's
output is correct. The verdict rule, the witness conditions and the
fidelity are recomputed here without lpgst; cross-check certificates are
also re-verified with lpgst's exact `verify_witness`, as its users do.
"""
from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

import workloads

FIDELITY_TOL = 1e-9


FLAGS = ("sum_zero", "relation_zero", "parity_odd", "off_support_zero")


def _witness_problems(n: int, a: int, cert: list[int]) -> list[str]:
    """The witness conditions, recomputed without lpgst.

    The support excludes k with n | a*k; the minus-sign indices are the
    even k of the support. The eigenvalue relation is checked in floating
    point; the exact check is lpgst's verify_witness.
    """
    if len(cert) != n - 1:
        return [f"witness length {len(cert)} != {n - 1}"]
    problems = []
    support = [k for k in range(1, n) if (a * k) % n]
    off_support = set(range(1, n)) - set(support)
    if sum(cert) != 0:
        problems.append("witness entries do not sum to zero")
    if any(cert[k - 1] for k in off_support):
        problems.append("witness touches an off-support eigenvalue")
    if sum(cert[k - 1] for k in support if k % 2 == 0) % 2 == 0:
        problems.append("witness minus-parity is even")
    terms = [c * (2.0 - 2.0 * math.cos(k * math.pi / n)) for k, c in enumerate(cert, 1) if c]
    if abs(math.fsum(terms)) > 1e-9 * max(1.0, math.fsum(abs(x) for x in terms)):
        problems.append("eigenvalue combination is not zero")
    return problems


def check_crosscheck(op: dict, out: dict, lpgst_decision) -> list[str]:
    n, a = op["n"], op["a"]
    want = workloads.expected_has_lpgst(n, a)
    problems = []
    if out["agree"] is not True:
        problems.append("closed-form and lattice routes disagree")
    if out["closed"] != want or out["lattice"] != want:
        problems.append(f"verdict {out['closed']}/{out['lattice']}, expected {want}")
    if want and out["certificates"]:
        problems.append("yes-verdict carries a certificate")
    if not want and not out["certificates"]:
        problems.append("no-verdict without a certificate")
    for cert in out["certificates"]:
        check = lpgst_decision.verify_witness(n, a, tuple(cert))
        problems += [f"verify_witness: {f} is false" for f in FLAGS if not getattr(check, f)]
        problems += _witness_problems(n, a, cert)
    return problems


def check_witness(op: dict, out: dict) -> list[str]:
    """The op ran verify_witness itself; its four flags must all be true."""
    n, a = op["n"], op["a"]
    problems = [f"WitnessCheck.{f} is false" for f, ok in zip(FLAGS, out["flags"]) if not ok]
    if out["has_lpgst"] is not False:
        problems.append("composite odd part must give a no-verdict")
    if out["sigma_sum"] % 2 == 0:
        problems.append("reported sigma_sum is even")
    return problems + _witness_problems(n, a, out["certificate"])


def laplacian(op: dict) -> np.ndarray:
    n = op["n"]
    edges = op["edges"] if op["edges"] is not None else [(k, k + 1) for k in range(1, n)]
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u - 1, v - 1] = lap[v - 1, u - 1] = -1.0
        lap[u - 1, u - 1] += 1.0
        lap[v - 1, v - 1] += 1.0
    return lap


def expm_fidelity(op: dict, t: float) -> float:
    """|0.5 (e_a - e_b)^T exp(-i t L) (e_c - e_d)|^2 by dense matrix exponential."""
    (a, b), (c, d) = ([int(x) for x in op[k].split(",")] for k in ("from", "to"))
    u = scipy.linalg.expm(-1j * t * laplacian(op))
    amp = 0.5 * (u[a - 1, c - 1] - u[a - 1, d - 1] - u[b - 1, c - 1] + u[b - 1, d - 1])
    return abs(amp) ** 2


def _parse_json(text: str, op: dict, source: str) -> tuple[dict, list[str]]:
    rec = json.loads(text)
    problems = []
    required = ("schema_version", "command", "inputs", "sup_estimate",
                "argmax_time", "times", "fidelities")
    missing = [k for k in required if k not in rec]
    if missing:
        return rec, [f"missing keys {missing}"]
    if rec["schema_version"] != "1" or rec["command"] != "sweep":
        problems.append("wrong schema_version or command")
    inputs = rec["inputs"]
    expect = {"source": source, "from": [int(x) for x in op["from"].split(",")],
              "to": [int(x) for x in op["to"].split(",")],
              "t_max": op["tmax"], "steps": op["steps"]}
    if inputs != expect:
        problems.append(f"inputs {inputs} != {expect}")
    return rec, problems


def _parse_csv(text: str) -> tuple[dict, list[str]]:
    lines = text.splitlines()
    head = lines[:4]
    if (len(head) < 4 or head[0] != "# schema_version=1"
            or not head[1].startswith("# sup_estimate=")
            or not head[2].startswith("# argmax_time=") or head[3] != "time,fidelity"):
        return {}, [f"bad CSV header {head}"]
    times, fids = [], []
    for line in lines[4:]:
        t, f = line.split(",")
        times.append(float(t))
        fids.append(float(f))
    return {"sup_estimate": float(head[1].split("=", 1)[1]),
            "argmax_time": float(head[2].split("=", 1)[1]),
            "times": times, "fidelities": fids}, []


def check_sweep(op: dict, out: dict, text: str, graph_path: str | None) -> list[str]:
    """Schema of docs/output-schemas.md, row count, sup = trace max, and expm."""
    if out["exit"] != 0:
        return [f"exit code {out['exit']}"]
    if op["format"] == "json":
        rec, problems = _parse_json(text, op, graph_path or f"path:{op['n']}")
    else:
        rec, problems = _parse_csv(text)
    if problems:
        return problems
    times, fids = rec["times"], rec["fidelities"]
    sup, arg = rec["sup_estimate"], rec["argmax_time"]
    if len(times) != len(fids) or len(times) not in (op["steps"], op["steps"] + 1):
        problems.append(f"{len(times)} rows for {op['steps']} steps")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        problems.append("times are not strictly increasing")
    if not all(0.0 <= f <= 1.0 for f in fids):
        problems.append("fidelity outside [0, 1]")
    if fids and sup != max(fids):
        problems.append(f"sup_estimate {sup} != trace maximum {max(fids)}")
    if not any(t == arg and f == sup for t, f in zip(times, fids)):
        problems.append("argmax_time is not where the trace reaches sup_estimate")
    exact = expm_fidelity(op, arg)
    if abs(exact - sup) > FIDELITY_TOL:
        problems.append(f"fidelity {sup} at t={arg} differs from expm value {exact}")
    return problems
