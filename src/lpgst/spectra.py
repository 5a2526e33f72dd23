"""Laplacian eigendecomposition: closed form for paths, LAPACK
(numpy.linalg.eigh) for general symmetric matrices, eigenvalue grouping,
projectors, and the continuous-time transition matrix exp(-itL).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with orthonormal eigenvectors and projectors.

    eigenvalues: (m,) strictly increasing distinct values
    multiplicities: (m,) positive ints summing to n
    eigenvectors: (n, n) orthonormal columns, grouped by eigenvalue in order
    projectors: (m, n, n) symmetric idempotents, one per distinct eigenvalue
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    eigenvectors: np.ndarray
    projectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class TransitionMatrix:
    """Unitary evolution operator at a fixed time (hbar = 1)."""

    entries: np.ndarray
    time: float


def path_spectrum(n: int) -> Spectrum:
    """Closed-form Laplacian spectrum of the n-vertex path.

    Eigenvalues 2 - 2 cos(k pi / n) for k = 0..n-1 are all simple. The
    k-th eigenvector has entries proportional to cos((2u-1) k pi / (2n));
    the degenerate k = 0 formula is replaced by the normalized all-ones
    kernel vector.
    """
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    k = np.arange(n)
    eigenvalues = 2.0 - 2.0 * np.cos(k * np.pi / n)
    u = np.arange(1, n + 1)
    vectors = np.empty((n, n))
    vectors[:, 0] = 1.0 / np.sqrt(n)
    phases = np.outer(2 * u - 1, k[1:]) * (np.pi / (2 * n))
    vectors[:, 1:] = np.sqrt(2.0 / n) * np.cos(phases)
    projectors = np.einsum("ik,jk->kij", vectors, vectors)
    return Spectrum(
        eigenvalues=eigenvalues,
        multiplicities=np.ones(n, dtype=np.int64),
        eigenvectors=vectors,
        projectors=projectors,
    )


def eigendecompose(lap: np.ndarray, grouping_tol: float | None = None) -> Spectrum:
    """Diagonalize a real symmetric matrix and group near-equal eigenvalues.

    Eigenvalues closer than grouping_tol (default 1e-8 * (1 + spectral
    radius)) are merged into one multiplicity group with a combined
    projector. Raises numpy.linalg.LinAlgError (a ValueError) if LAPACK
    fails to converge.
    """
    a = np.asarray(lap, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
        raise ValueError("matrix is not symmetric")

    diag, vectors = np.linalg.eigh(a)
    vectors = _canonicalize_signs(vectors)

    if grouping_tol is None:
        radius = float(np.abs(diag).max()) if diag.size else 0.0
        grouping_tol = 1e-8 * (1.0 + radius)

    groups = _group_close(diag, grouping_tol)
    m = len(groups)
    n = a.shape[0]
    eigenvalues = np.empty(m)
    multiplicities = np.empty(m, dtype=np.int64)
    projectors = np.empty((m, n, n))
    for r, (lo, hi) in enumerate(groups):
        eigenvalues[r] = diag[lo:hi].mean()
        multiplicities[r] = hi - lo
        block = vectors[:, lo:hi]
        projectors[r] = block @ block.T
    return Spectrum(eigenvalues, multiplicities, vectors, projectors)


def transition_matrix(s: Spectrum, t: float) -> TransitionMatrix:
    """U(t) = sum_r exp(-i t theta_r) F_r; unitary, identity at t = 0."""
    phases = np.exp(-1j * t * s.eigenvalues)
    entries = np.einsum("r,rij->ij", phases, s.projectors)
    return TransitionMatrix(entries=entries, time=float(t))


def projector_residuals(s: Spectrum, lap: np.ndarray | None = None) -> dict[str, float]:
    """Max-norm residuals of the projector algebra, for verification.

    Keys: idempotent (F^2 - F), orthogonal (F_r F_s, r != s),
    resolution (sum F - I), reconstruction (sum theta F - L, if lap given),
    each the worst case over the spectrum.
    """
    m, n, _ = s.projectors.shape
    res = {
        "idempotent": 0.0,
        "orthogonal": 0.0,
        "resolution": float(np.abs(s.projectors.sum(axis=0) - np.eye(n)).max()),
    }
    for r in range(m):
        fr = s.projectors[r]
        res["idempotent"] = max(res["idempotent"], float(np.abs(fr @ fr - fr).max()))
        if r + 1 < m:
            # one batched contraction for F_r F_s over all s > r
            cross = np.tensordot(fr, s.projectors[r + 1:], axes=([1], [1]))
            res["orthogonal"] = max(res["orthogonal"], float(np.abs(cross).max()))
    if lap is not None:
        rebuilt = np.einsum("r,rij->ij", s.eigenvalues, s.projectors)
        res["reconstruction"] = float(np.abs(rebuilt - np.asarray(lap, dtype=float)).max())
    return res


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first non-negligible entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def _group_close(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Partition a sorted array into runs whose adjacent gaps are <= tol."""
    groups = []
    lo = 0
    for i in range(1, values.size):
        if values[i] - values[i - 1] > tol:
            groups.append((lo, i))
            lo = i
    groups.append((lo, values.size))
    return groups
