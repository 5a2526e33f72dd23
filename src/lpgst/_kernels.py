"""Numeric hot loop: the transfer fidelity evaluated over a time grid."""
from __future__ import annotations

import numpy as np

# Grid rows per block: the phase table is 1024 x 1024 complex doubles
# (16 MiB) at the vertex bound.
BLOCK_ROWS = 1024


def fidelity_grid(eigenvalues: np.ndarray, weights: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """Transfer fidelity 0.25*|sum_r w_r exp(-i th_r t)|^2 at each grid time.

    times must be a uniform grid of at least two points, as np.linspace
    makes them: with dt its step, (times[-1] - times[0]) / (steps - 1), the
    amplitude at times[s] + j*dt is sum_r T[j, r] exp(-i th_r times[s]) for
    the table T[j, r] = w_r exp(-i th_r j*dt), j < BLOCK_ROWS. Each block is
    one einsum of the table with the block's start phases, numpy's own
    fixed-order loop, so the bits do not depend on BLAS or its threads.
    The working memory beyond the output is the BLOCK_ROWS x eigenvalues
    complex table, whatever the grid's length.
    """
    steps = times.shape[0]
    out = np.empty(steps)
    rows = min(steps, BLOCK_ROWS)
    dt = (times[-1] - times[0]) / (steps - 1)
    table = np.zeros((rows, eigenvalues.shape[0]), dtype=complex)
    np.multiply.outer(np.arange(rows) * -dt, eigenvalues, out=table.imag)
    np.exp(table, out=table)
    table *= weights
    for s in range(0, steps, BLOCK_ROWS):
        k = min(BLOCK_ROWS, steps - s)
        start = np.exp(-1j * times[s] * eigenvalues)
        amp = np.einsum("ij,j->i", table[:k], start)
        out[s:s + k] = 0.25 * (amp.real * amp.real + amp.imag * amp.imag)
    return out
