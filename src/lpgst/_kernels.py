"""Numeric hot loop: the transfer fidelity evaluated over a time grid."""
from __future__ import annotations

import numpy as np


def fidelity_grid(eigenvalues: np.ndarray, weights: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """Transfer fidelity 0.25*|sum_r w_r exp(-i th_r t)|^2 at each grid time.

    Evaluated in chunks so a million-point grid never materializes the
    full (times x eigenvalues) phase matrix.
    """
    out = np.empty(times.shape[0])
    chunk = 65536
    for s in range(0, times.shape[0], chunk):
        tt = times[s:s + chunk, None] * eigenvalues[None, :]
        re = np.cos(tt) @ weights
        im = np.sin(tt) @ weights
        out[s:s + chunk] = 0.25 * (re * re + im * im)
    return out
