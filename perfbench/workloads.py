"""Seeded inputs for the four benchmark workloads.

Standard library only: the inputs are generated from the seed without
importing lpgst, so the program sees nothing but the generated values.
A workload's op list is one pass; a run repeats the pass in fresh
processes until about --seconds of ops are timed (see run.py).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

NAMES = ("crosscheck_band", "witness_large_n", "sweep_path_json", "sweep_graph_csv")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one scale: full for runs, tiny for the tests."""

    cross_band: tuple[int, int]
    cross_rounds: int            # ops per n in one pass
    witness_band: tuple[int, int]
    witness_round: int           # n per round
    witness_rounds: int          # rounds per pass
    witness_a_per_n: int
    path_band: tuple[int, int]
    path_steps: int
    path_ops: int                # ops per pass, sizes spread over the band
    graph_band: tuple[int, int]
    graph_steps: int
    graph_ops: int


FULL = Sizes(cross_band=(60, 128), cross_rounds=2,
             witness_band=(255, 600), witness_round=12, witness_rounds=5,
             witness_a_per_n=4,
             path_band=(8, 32), path_steps=250_000, path_ops=6,
             graph_band=(48, 96), graph_steps=100_000, graph_ops=9)

TINY = Sizes(cross_band=(10, 18), cross_rounds=1,
             witness_band=(27, 60), witness_round=2, witness_rounds=1,
             witness_a_per_n=2,
             path_band=(6, 9), path_steps=2_000, path_ops=4,
             graph_band=(8, 12), graph_steps=1_000, graph_ops=4)


def odd_part(n: int) -> tuple[int, int]:
    """(t, m) with n = 2^t * m and m odd."""
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    return t, n


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def expected_has_lpgst(n: int, a: int) -> bool:
    """The closed-form rule as published, restated independently of lpgst."""
    t, m = odd_part(n)
    if m == 1 or (t == 0 and is_prime(m)):
        return True
    if is_prime(m):
        return a % (2 ** (t - 1)) == 0
    return False


def valid_offsets(n: int) -> list[int]:
    return [a for a in range(1, n) if 2 * a != n]


def _interleave(groups: list[list]) -> list:
    """Round-robin over groups."""
    out = []
    for r in range(max(len(g) for g in groups)):
        out.extend(g[r] for g in groups if r < len(g))
    return out


def crosscheck_ops(rng: random.Random, sizes: Sizes) -> list[dict]:
    """Seeded valid a for every n in the band, interleaved across n.

    Every n (all four rule classes) gets the same number of ops, in a
    seeded order: per-n cost varies 15x, so a pass over a few seeded n
    would mostly measure which n were drawn. The first op of each n pays
    its cold theta_element work; later ops of that n run warm.
    """
    lo, hi = sizes.cross_band
    band = list(range(lo, hi + 1))
    rng.shuffle(band)
    return _interleave([[{"n": n, "a": a}
                         for a in rng.sample(valid_offsets(n), sizes.cross_rounds)]
                        for n in band])


def witness_ops(rng: random.Random, sizes: Sizes) -> list[dict]:
    """A few seeded a per n, over fixed n spread across the band.

    The composite-odd-part n of the band are dealt into rounds of every
    k-th candidate; a pass takes the first rounds (the same n for every
    seed) in seeded order. The a
    are coprime to n, which gives every a of one n the same witness: the
    first op of an n pays all its cold cyclotomic work, the rest run warm.
    That cold work differs up to 30x between neighbouring n, so seeded n
    would mostly measure which n were drawn.
    """
    lo, hi = sizes.witness_band
    cands = [n for n in range(lo, hi + 1)
             if odd_part(n)[1] > 1 and not is_prime(odd_part(n)[1])]
    stride = max(1, len(cands) // sizes.witness_round)
    ops = []
    for j in range(sizes.witness_rounds):
        members = cands[j::stride]
        rng.shuffle(members)
        for n in members:
            coprime = [a for a in range(1, n) if math.gcd(a, n) == 1]
            ops.extend({"n": n, "a": a} for a in rng.sample(coprime, sizes.witness_a_per_n))
    return ops


def _mirror_pairs(rng: random.Random, n: int) -> tuple[str, str]:
    a = rng.choice(valid_offsets(n))
    return f"{a},{a + 1}", f"{n - a},{n - a + 1}"


def _spread_sizes(band: tuple[int, int], count: int) -> list[int]:
    """count sizes spread evenly over the band, ends included.

    Sizes are not seeded: one larger graph changes a pass's time and
    peak memory more than anything else the seed draws.
    """
    lo, hi = band
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def path_sweep_ops(rng: random.Random, sizes: Sizes) -> list[dict]:
    """Seeded mirror edge pairs on paths; the JSON trace is most of the work."""
    ops = []
    for n in _spread_sizes(sizes.path_band, sizes.path_ops):
        frm, to = _mirror_pairs(rng, n)
        ops.append({"n": n, "edges": None, "from": frm, "to": to,
                    "tmax": round(rng.uniform(50.0, 400.0), 3),
                    "steps": sizes.path_steps, "format": "json"})
    return ops


def random_connected_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random spanning tree plus about n/2 extra edges, as sorted pairs."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return sorted(edges)


def graph_sweep_ops(rng: random.Random, sizes: Sizes) -> list[dict]:
    """Seeded random connected graphs with two distinct edges as the pairs."""
    ops = []
    for n in _spread_sizes(sizes.graph_band, sizes.graph_ops):
        edges = random_connected_graph(rng, n)
        (u, v), (x, y) = rng.sample(edges, 2)
        ops.append({"n": n, "edges": edges, "from": f"{u},{v}", "to": f"{x},{y}",
                    "tmax": round(rng.uniform(20.0, 200.0), 3),
                    "steps": sizes.graph_steps, "format": "csv"})
    return ops


def graph_file(work_dir: str, index: int) -> str:
    return os.path.join(work_dir, f"graph_{index:03d}.txt")


def write_graph_files(ops: list[dict], work_dir: str) -> None:
    for i, op in enumerate(ops):
        lines = [f"n {op['n']}"] + [f"e {u} {v}" for u, v in op["edges"]]
        with open(graph_file(work_dir, i), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def sweep_argv(op: dict, index: int, work_dir: str) -> list[str]:
    """CLI arguments of a sweep op; graph ops read the file written in setup."""
    if op["edges"] is None:
        source = ["--path", str(op["n"])]
    else:
        source = ["--graph", graph_file(work_dir, index)]
    return ["sweep", *source, "--from", op["from"], "--to", op["to"],
            "--tmax", repr(op["tmax"]), "--steps", str(op["steps"]),
            "--format", op["format"]]


def make_ops(workload: str, seed: int, sizes: Sizes) -> list[dict]:
    """The op list of a workload: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    makers = {"crosscheck_band": crosscheck_ops, "witness_large_n": witness_ops,
              "sweep_path_json": path_sweep_ops, "sweep_graph_csv": graph_sweep_ops}
    return makers[workload](rng, sizes)


def inputs_digest(ops: list[dict]) -> str:
    """Digest of the generated load, so two runs can show they used the same."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]
