"""Laplacian eigendecomposition: closed form for paths, LAPACK
(numpy.linalg.eigh) for general symmetric matrices, eigenvalue grouping,
and the continuous-time transition matrix exp(-itL).

A Spectrum holds eigenvectors grouped by eigenvalue and nothing derived
from them: consumers read eigenvector rows in O(n^2), and no
eigenprojector F_r = V_r V_r^T is ever formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest vertex count a spectrum is built for, checked before anything
# n x n is allocated. Memory grows as n**2: on a 2-core x86-64 VM,
# sweep --path 1024 at 100,000 steps takes 0.3 s and peaks at 61 MB, of
# which the fidelity grid's 1024 x n complex phase table is 16 MB.
MAX_SPECTRUM_N = 1024


def check_vertex_count(n: int) -> None:
    """Raise ValueError when n is above MAX_SPECTRUM_N."""
    if n > MAX_SPECTRUM_N:
        raise ValueError(
            f"n must be at most {MAX_SPECTRUM_N} for a spectrum, got {n}")


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with orthonormal eigenvectors grouped by value.

    eigenvalues: (m,) strictly increasing distinct values
    multiplicities: (m,) positive ints summing to n
    eigenvectors: (n, n) orthonormal columns; group r is the
        multiplicities[r] columns V_r from group_starts[r] on
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def group_starts(self) -> np.ndarray:
        """(m,) column index of each group's first eigenvector."""
        return np.cumsum(self.multiplicities) - self.multiplicities

    def group_norms(self, x: np.ndarray) -> np.ndarray:
        """(m,) norms ||F_r x|| = ||V_r^T x|| of x's eigenspace components."""
        coords = x @ self.eigenvectors
        return np.sqrt(np.add.reduceat(coords * coords, self.group_starts))


def path_spectrum(n: int) -> Spectrum:
    """Closed-form Laplacian spectrum of the n-vertex path.

    Eigenvalues 2 - 2 cos(k pi / n) for k = 0..n-1 are all simple. The
    k-th eigenvector has entries proportional to cos((2u-1) k pi / (2n));
    the degenerate k = 0 formula is replaced by the normalized all-ones
    kernel vector. n above MAX_SPECTRUM_N is refused before anything is
    built.
    """
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    check_vertex_count(n)
    k = np.arange(n)
    eigenvalues = 2.0 - 2.0 * np.cos(k * np.pi / n)
    u = np.arange(1, n + 1)
    vectors = np.empty((n, n))
    vectors[:, 0] = 1.0 / np.sqrt(n)
    phases = np.outer(2 * u - 1, k[1:]) * (np.pi / (2 * n))
    vectors[:, 1:] = np.sqrt(2.0 / n) * np.cos(phases)
    return Spectrum(
        eigenvalues=eigenvalues,
        multiplicities=np.ones(n, dtype=np.int64),
        eigenvectors=vectors,
    )


def eigendecompose(lap: np.ndarray) -> Spectrum:
    """Diagonalize a real symmetric matrix and group near-equal eigenvalues.

    Eigenvalues closer than 1e-8 * (1 + spectral radius) are merged into
    one multiplicity group, whose eigenvalue is their mean; the
    eigenvectors are LAPACK's, columns and signs as returned. Raises
    numpy.linalg.LinAlgError (a ValueError) if LAPACK fails to converge.
    """
    a = np.asarray(lap, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
        raise ValueError("matrix is not symmetric")

    diag, vectors = np.linalg.eigh(a)
    tol = 1e-8 * (1.0 + float(np.abs(diag).max()))
    # a group starts wherever the gap to the previous eigenvalue exceeds tol
    starts = np.flatnonzero(np.diff(diag, prepend=-np.inf) > tol)
    multiplicities = np.diff(starts, append=diag.size)
    eigenvalues = np.array([diag[lo:lo + m].mean() for lo, m
                            in zip(starts.tolist(), multiplicities.tolist())])
    return Spectrum(eigenvalues, multiplicities, vectors)


def transition_matrix(s: Spectrum, t: float) -> np.ndarray:
    """U(t) = sum_r exp(-i t theta_r) F_r as an (n, n) complex array
    (hbar = 1); unitary, identity at t = 0."""
    phases = np.repeat(np.exp(-1j * t * s.eigenvalues), s.multiplicities)
    return (s.eigenvectors * phases) @ s.eigenvectors.T


def projector_residuals(s: Spectrum, lap: np.ndarray | None = None) -> dict[str, float]:
    """Max-norm residuals of the projector algebra, for verification.

    Keys, each the worst case over the spectrum: idempotent (F_r^2 - F_r),
    orthogonal (F_r F_s, r != s), resolution (sum F_r - I) and, if lap is
    given, reconstruction (sum theta_r F_r - L). With G = V^T V,
    F_r^2 - F_r = V_r (G_rr - I) V_r^T and F_r F_s = V_r G_rs V_s^T, so the
    first two are read as B[r, s] rho_r rho_s: B[r, s] is the Frobenius
    norm of block (r, s) of G - I, rho_r the largest row norm of V_r. That
    is the exact max entry for simple eigenvalues and a Cauchy-Schwarz
    upper bound for a repeated one. Cost: G plus two n x n products, V V^T
    and (V theta) V^T, O(n^3); nothing of size m * n^2 is built.
    """
    vecs = s.eigenvectors
    starts = s.group_starts
    eye = np.eye(s.n)
    gap = vecs.T @ vecs - eye
    block = np.sqrt(np.add.reduceat(
        np.add.reduceat(gap * gap, starts, axis=0), starts, axis=1))
    rho = np.sqrt(np.add.reduceat(vecs * vecs, starts, axis=1).max(axis=0))
    bound = block * np.outer(rho, rho)
    res = {
        "idempotent": float(np.diag(bound).max()),
        "orthogonal": float(np.triu(bound, 1).max()),    # bound is symmetric
        "resolution": float(np.abs(vecs @ vecs.T - eye).max()),
    }
    if lap is not None:
        rebuilt = (vecs * np.repeat(s.eigenvalues, s.multiplicities)) @ vecs.T
        res["reconstruction"] = float(np.abs(rebuilt - lap).max())
    return res
