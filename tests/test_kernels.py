import tracemalloc

import mpmath
import numpy as np
import pytest

from lpgst import _kernels
from lpgst.pair_states import phase_rounding_bound, transfer_weights
from lpgst.spectra import path_spectrum


def test_fidelity_grid_numpy_matches_direct_formula():
    rng = np.random.default_rng(51)
    thetas = rng.uniform(0.0, 4.0, size=6)
    weights = rng.normal(size=6)
    times = np.linspace(0.0, 100.0, 2500)
    got = _kernels.fidelity_grid(thetas, weights, times)
    for t, f in zip(times, got):
        amp = 0.5 * np.sum(weights * np.exp(-1j * t * thetas))
        assert f == pytest.approx(abs(amp) ** 2, abs=1e-12)


def test_phase_rounding_bound_is_pinned():
    # the grid accuracy tests below assert against this bound, and
    # fidelity_sweep gates its refined point on it: widening it must fail
    # here. 0.5 * 2**2 * (4 ulp(4 * 2) + 3 * 2**-52) = 2 * (32 + 3) * 2**-52
    bound = phase_rounding_bound(np.array([0.0, 1.0, -4.0]),
                                 np.array([0.5, -0.5, 1.0]), 2.0)
    assert bound == 70 * 2.0 ** -52


def chunked_fidelity_grid(eigenvalues, weights, times):
    # Frozen reference: fidelity_grid as it was, whole 65536-row chunks of
    # cos and sin temporaries, one rounded phase times[i] * th_r per entry.
    out = np.empty(times.shape[0])
    chunk = 65536
    for s in range(0, times.shape[0], chunk):
        tt = times[s:s + chunk, None] * eigenvalues[None, :]
        re = np.cos(tt) @ weights
        im = np.sin(tt) @ weights
        out[s:s + chunk] = 0.25 * (re * re + im * im)
    return out


def test_fidelity_grid_matches_frozen_chunked_kernel():
    # weights scaled to sum |w| = 2, as a pair's are, so fidelities lie in
    # [0, 1] and the bound reads as on a sweep
    rng = np.random.default_rng(2049)
    worst = {}
    for m in (1, 2, 3, 7, 15, 64):
        thetas = np.sort(rng.uniform(0.0, 4.0, size=m))
        weights = rng.normal(size=m)
        weights *= 2.0 / np.abs(weights).sum()
        for t_max in (317.123, 5000.0):
            for steps in (1023, 1024, 1025, 2049, 65537):
                times = np.linspace(0.0, t_max, steps)
                diff = np.abs(_kernels.fidelity_grid(thetas, weights, times)
                              - chunked_fidelity_grid(thetas, weights, times))
                bound = phase_rounding_bound(thetas, weights, t_max)
                assert diff.max() <= bound, (m, t_max, steps)
                worst[t_max] = max(worst.get(t_max, 0.0), diff.max())
    assert worst[317.123] < 1e-12 and worst[5000.0] < 1e-11


def test_fidelity_grid_agrees_across_block_rows(monkeypatch):
    # how the grid is cut into blocks moves no fidelity past the rounding
    # bound: block starts, lone last rows and one-block grids alike
    rng = np.random.default_rng(1024)
    thetas = np.sort(rng.uniform(0.0, 4.0, size=15))
    weights = rng.normal(size=15)
    weights *= 2.0 / np.abs(weights).sum()
    bound = phase_rounding_bound(thetas, weights, 5000.0)
    for rows in (1, 2, 63, 64, 1000, 1024, 4096):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", rows)
        for steps in (2, 1025, 2049, 4097):
            times = np.linspace(0.0, 5000.0, steps)
            diff = np.abs(_kernels.fidelity_grid(thetas, weights, times)
                          - chunked_fidelity_grid(thetas, weights, times))
            assert diff.max() <= bound, (rows, steps)


@pytest.mark.parametrize("n,t_max", [(15, 317.0), (96, 5000.0)])
def test_fidelity_grid_matches_mpmath_oracle(n, t_max):
    s = path_spectrum(n)
    thetas, weights = s.eigenvalues, transfer_weights(s, (1, 2), (n - 1, n))
    times = np.linspace(0.0, t_max, 100_001)
    got = _kernels.fidelity_grid(thetas, weights, times)
    picks = np.random.default_rng(n).choice(times.size, 60, replace=False)
    with mpmath.workdps(40):
        # the same doubles, each phase and sum carried to 40 digits
        terms = [(mpmath.mpf(float(w)), mpmath.mpf(float(th)))
                 for w, th in zip(weights, thetas)]
        want = []
        for t in times[picks]:
            amp = mpmath.fsum(w * mpmath.expj(-th * mpmath.mpf(float(t)))
                              for w, th in terms)
            want.append(float(abs(amp) ** 2 / 4))
    err = np.abs(got[picks] - want)
    assert err.max() <= phase_rounding_bound(thetas, weights, t_max)


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
    # the bound the earlier kernel's two 2048 x m float buffers met; the
    # BLOCK_ROWS x m complex table takes half of it
    blocks = 2 * 2048 * m * 8
    assert out.nbytes <= peak <= out.nbytes + blocks + 2 ** 19
