import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lpgst import _kernels

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_fidelity_grid_numpy_matches_direct_formula():
    rng = np.random.default_rng(51)
    thetas = rng.uniform(0.0, 4.0, size=6)
    weights = rng.normal(size=6)
    times = rng.uniform(0.0, 100.0, size=500)
    got = _kernels.fidelity_grid(thetas, weights, np.sort(times))
    for t, f in zip(np.sort(times), got):
        amp = 0.5 * np.sum(weights * np.exp(-1j * t * thetas))
        assert f == pytest.approx(abs(amp) ** 2, abs=1e-12)


# Run in a child with one BLAS thread: with more, OpenBLAS splits a
# matrix-vector product between threads at a row that depends on the
# product's row count, and the rows next to the split round differently,
# so a grid's last bits already depended on the thread count.
_BIT_IDENTITY_SCRIPT = """
import json, sys
import numpy as np
from lpgst import _kernels

def chunked_fidelity_grid(eigenvalues, weights, times):
    # fidelity_grid as it was: whole 65536-row chunks of temporaries
    out = np.empty(times.shape[0])
    chunk = 65536
    for s in range(0, times.shape[0], chunk):
        tt = times[s:s + chunk, None] * eigenvalues[None, :]
        re = np.cos(tt) @ weights
        im = np.sin(tt) @ weights
        out[s:s + chunk] = 0.25 * (re * re + im * im)
    return out

rng = np.random.default_rng(2049)
differ = []
for m, steps in json.loads(sys.argv[1]):
    thetas = np.sort(rng.uniform(0.0, 4.0, size=m))
    weights = rng.normal(size=m)
    times = np.linspace(0.0, 317.123, steps)
    got = _kernels.fidelity_grid(thetas, weights, times)
    want = chunked_fidelity_grid(thetas, weights, times)
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        differ.append([m, steps])
print(json.dumps(differ))
"""

_GRID_STEPS = (2047, 2048, 2049, 65537, 100001)
_GRID_CASES = [(m, steps) for m in (1, 2, 3, 7, 64, 1023) for steps in _GRID_STEPS]
# the 65536 x 1023 reference chunks take 1 GB: those cases run with -m slow
_LARGE_GRID_CASES = [(m, steps) for m, steps in _GRID_CASES if m * min(steps, 65536) > 2 ** 23]


def _grid_bits_differ(cases) -> list:
    env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _BIT_IDENTITY_SCRIPT,
                           json.dumps(cases)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_fidelity_grid_blocks_keep_chunked_bits():
    cases = [c for c in _GRID_CASES if c not in _LARGE_GRID_CASES]
    assert len(cases) == 28
    assert _grid_bits_differ(cases) == []


@pytest.mark.slow
def test_fidelity_grid_blocks_keep_chunked_bits_large():
    assert _grid_bits_differ(_LARGE_GRID_CASES) == []


def test_fidelity_grid_block_rows_is_a_power_of_two():
    rows = _kernels.BLOCK_ROWS
    assert rows >= 64 and rows & (rows - 1) == 0
    assert _kernels.CHUNK_ROWS % rows == 0


def test_fidelity_grid_memory_is_output_plus_two_blocks():
    m, steps = 64, 1_000_000
    rng = np.random.default_rng(64)
    thetas = rng.uniform(0.0, 4.0, size=m)
    weights = rng.normal(size=m)
    times = np.linspace(0.0, 100.0, steps)
    tracemalloc.start()
    try:
        out = _kernels.fidelity_grid(thetas, weights, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = 2 * _kernels.BLOCK_ROWS * m * 8
    assert out.nbytes <= peak <= out.nbytes + blocks + 2 ** 19
