import numpy as np
import pytest

from lpgst import _kernels


def test_fidelity_grid_numpy_matches_direct_formula():
    rng = np.random.default_rng(51)
    thetas = rng.uniform(0.0, 4.0, size=6)
    weights = rng.normal(size=6)
    times = rng.uniform(0.0, 100.0, size=500)
    got = _kernels.fidelity_grid(thetas, weights, np.sort(times))
    for t, f in zip(np.sort(times), got):
        amp = 0.5 * np.sum(weights * np.exp(-1j * t * thetas))
        assert f == pytest.approx(abs(amp) ** 2, abs=1e-12)
