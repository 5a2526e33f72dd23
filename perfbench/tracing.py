"""Outside-in tracing of lpgst's layers for the per-layer metrics.

The program is not edited: each entry point is replaced, where the
importing module binds it, by a wrapper that records a span (name, parent,
op, start, end) and derives counts from the call's arguments and result.
Spans stay in memory; `Tracer.metrics` folds them at the end. A layer's
self time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module that binds the name, attribute, layer). Callers look these names
# up at call time, so a wrapper on the binding sees every call.
ENTRY_POINTS = (
    ("lpgst.cli", "path_spectrum", "spectra.path_spectrum"),
    ("lpgst.cli", "eigendecompose", "spectra.eigendecompose"),
    ("lpgst.cli", "parse_graph", "graphs.parse_graph"),
    ("lpgst.cli", "laplacian", "graphs.laplacian"),
    ("lpgst.cli", "fidelity_sweep", "pair_states.fidelity_sweep"),
    ("lpgst._kernels", "jacobi_eigh", "kernels.jacobi_eigh"),
    ("lpgst._kernels", "fidelity_grid", "kernels.fidelity_grid"),
    ("lpgst.decision", "classify_path", "decision.classify_path"),
    ("lpgst.decision", "witness_relation", "decision.witness_relation"),
    ("lpgst.decision", "decide_path_lpgst", "decision.decide_path_lpgst"),
    ("lpgst.decision", "verify_witness", "decision.verify_witness"),
    ("lpgst.decision", "path_support_partition", "pair_states.path_support_partition"),
    ("lpgst.decision", "build_relation_system", "relation_lattice.build_relation_system"),
    ("lpgst.decision", "integer_kernel", "relation_lattice.integer_kernel"),
    ("lpgst.decision", "parity_holds", "relation_lattice.parity_holds"),
    ("lpgst.decision", "theta_element", "cyclotomic.theta_element"),
    ("lpgst.relation_lattice", "theta_element", "cyclotomic.theta_element"),
)

# lru_cache statistics, read from lpgst.cyclotomic where the caches live.
CACHED = ("theta_element", "cyclotomic_polynomial")

# name -> (unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = {
    "relation_lattice.integer_kernel.self_s": ("s", "lower"),
    "relation_lattice.integer_kernel.calls": ("count", "lower"),
    "relation_lattice.integer_kernel.dimension_max": ("count", "lower"),
    "relation_lattice.integer_kernel.rank_sum": ("count", "lower"),
    "relation_lattice.integer_kernel.max_abs_entry": ("count", "lower"),
    "relation_lattice.build_relation_system.self_s": ("s", "lower"),
    "relation_lattice.parity_holds.self_s": ("s", "lower"),
    "cyclotomic.theta_element.self_s": ("s", "lower"),
    "cyclotomic.theta_element.calls": ("count", "lower"),
    "cyclotomic.theta_element.cache_misses": ("count", "lower"),
    "cyclotomic.theta_element.cache_hit_ratio": ("ratio", "higher"),
    "cyclotomic.cyclotomic_polynomial.cache_misses": ("count", "lower"),
    "decision.classify_path.self_s": ("s", "lower"),
    "decision.witness_relation.self_s": ("s", "lower"),
    "decision.decide_path_lpgst.self_s": ("s", "lower"),
    "decision.verify_witness.self_s": ("s", "lower"),
    "pair_states.path_support_partition.self_s": ("s", "lower"),
    "spectra.eigendecompose.total_s": ("s", "lower"),
    "kernels.jacobi_eigh.self_s": ("s", "lower"),
    "kernels.jacobi_eigh.sweeps": ("count", "lower"),
    "graphs.parse_graph.self_s": ("s", "lower"),
    "graphs.laplacian.self_s": ("s", "lower"),
    "spectra.path_spectrum.self_s": ("s", "lower"),
    "pair_states.fidelity_sweep.self_s": ("s", "lower"),
    "pair_states.fidelity_sweep.total_s": ("s", "lower"),
    "kernels.fidelity_grid.self_s": ("s", "lower"),
    "kernels.fidelity_grid.evaluations": ("count", "lower"),
    "kernels.fidelity_grid.computed_bytes": ("bytes", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

BOOKKEEPING = "trace.bookkeeping"


def _integer_kernel_counts(counts, args, lattice):
    key = "relation_lattice.integer_kernel."
    counts[key + "dimension_max"] = max(counts[key + "dimension_max"], lattice.dimension)
    counts[key + "rank_sum"] += lattice.rank
    biggest = max((abs(v) for vec in lattice.basis for v in vec), default=0)
    counts[key + "max_abs_entry"] = max(counts[key + "max_abs_entry"], biggest)


def _jacobi_counts(counts, args, result):
    counts["kernels.jacobi_eigh.sweeps"] += int(result[3])


def _fidelity_grid_counts(counts, args, result):
    eigenvalues, _weights, times = args[:3]
    steps, m = len(times), len(eigenvalues)
    counts["kernels.fidelity_grid.evaluations"] += steps * m
    # computed, not measured: the float64 phase, cosine and sine blocks
    # (steps x m each) plus the output vector
    counts["kernels.fidelity_grid.computed_bytes"] += 8 * steps * (3 * m + 1)


COUNTERS = {
    "relation_lattice.integer_kernel": _integer_kernel_counts,
    "kernels.jacobi_eigh": _jacobi_counts,
    "kernels.fidelity_grid": _fidelity_grid_counts,
}


class Tracer:
    """Spans and counts of one traced run, single-threaded."""

    def __init__(self):
        self.spans = []          # [name, parent index, op, start, end]
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.absent = []
        self._cache_start = {}

    def span(self, name, func, *args, **kwargs):
        """Call func inside a span named name."""
        span = [name, self.stack[-1] if self.stack else None, self.op,
                time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            return func(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()

    def wrap(self, func, name):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            result = self.span(name, func, *args, **kwargs)
            if counter is not None:
                # counting runs in its own span, so no layer is charged for it
                self.span(BOOKKEEPING, counter, self.counts, args, result)
            return result
        return traced

    def install(self):
        """Wrap every entry point that exists; record the missing ones."""
        for module_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(func, layer))
        cyclo = importlib.import_module("lpgst.cyclotomic")
        for attr in CACHED:
            info = getattr(getattr(cyclo, attr, None), "cache_info", None)
            if info is None:
                self.absent.append(f"lpgst.cyclotomic.{attr}.cache_info")
            else:
                self._cache_start[attr] = info()

    def metrics(self) -> dict:
        """Fold spans and counts into the per-layer metrics.

        trace.overhead_s needs an untraced run, so run.py fills it in.
        """
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, parent, _op, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, _parent, _op, start, end) in enumerate(self.spans):
            total_s[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for metric in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = self_s[layer]
            elif stat == "total_s":
                out[metric] = total_s[layer]
            elif stat == "calls":
                out[metric] = calls[layer]
            else:
                out[metric] = self.counts[metric]
        cyclo = importlib.import_module("lpgst.cyclotomic")
        for attr, start in self._cache_start.items():
            now = getattr(cyclo, attr).cache_info()
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[f"cyclotomic.{attr}.cache_misses"] = misses
            if attr == "theta_element":
                out["cyclotomic.theta_element.cache_hit_ratio"] = (
                    hits / (hits + misses) if hits + misses else 0.0)
        return out
