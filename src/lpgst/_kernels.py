"""Numeric hot loop: the transfer fidelity evaluated over a time grid."""
from __future__ import annotations

import numpy as np

# Grid rows per block: 2 x 2048 x 1024 doubles of buffers at the vertex
# bound. A power of two of at least 64, so blocks start on the row groups
# of the BLAS matrix-vector kernel that CHUNK_ROWS chunks start on, and
# every fidelity has the bits it had when the grid was evaluated in whole
# chunks.
BLOCK_ROWS = 2048

# numpy takes a one-row matrix-vector product as a dot product, which
# rounds differently from the matrix-vector kernel. Whole chunks left the
# last row alone only when steps % CHUNK_ROWS == 1; in every other case a
# lone last block row is evaluated together with the 64 rows before it.
CHUNK_ROWS = 65536


def fidelity_grid(eigenvalues: np.ndarray, weights: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """Transfer fidelity 0.25*|sum_r w_r exp(-i th_r t)|^2 at each grid time.

    Evaluated in blocks of BLOCK_ROWS times that reuse one phase buffer and
    one cosine/sine buffer, so the working memory beyond the output is two
    BLOCK_ROWS x eigenvalues arrays, whatever the grid's length.
    """
    steps = times.shape[0]
    out = np.empty(steps)
    rows = min(steps, BLOCK_ROWS)
    phase = np.empty((rows, eigenvalues.shape[0]))
    trig = np.empty_like(phase)
    for s in range(0, steps, BLOCK_ROWS):
        k = min(BLOCK_ROWS, steps - s)
        if k == 1 and s % CHUNK_ROWS:
            s, k = s - 64, 65
        tt, tr = phase[:k], trig[:k]
        np.multiply(times[s:s + k, None], eigenvalues[None, :], out=tt)
        re = np.cos(tt, out=tr) @ weights
        im = np.sin(tt, out=tr) @ weights
        out[s:s + k] = 0.25 * (re * re + im * im)
    return out
