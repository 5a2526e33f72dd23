"""Pair states e_a - e_b: transfer fidelity, eigenvalue supports, strong
cospectrality with the +/- sign partition, and numeric fidelity sweeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .spectra import Spectrum

DEFAULT_SUPPORT_TOL = 1e-8

# Largest grid fidelity_sweep accepts, checked before anything is
# allocated: 10M points already take 160 MB of times and fidelities.
MAX_SWEEP_STEPS = 10_000_000

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NotCospectralError(ValueError):
    """The two pairs fail strong cospectrality; carries the witness eigenvalue."""

    def __init__(self, eigenvalue: float, index: int):
        super().__init__(
            f"pairs are not strongly cospectral at eigenvalue {eigenvalue!r} "
            f"(index {index})")
        self.eigenvalue = eigenvalue
        self.index = index


@dataclass(frozen=True)
class SupportPartition:
    """Support eigenvalues split by cospectrality sign, plus the complement.

    Members are positions in the increasing distinct-eigenvalue list; for
    a path spectrum these coincide with the cosine index k.
    """

    plus: frozenset[int]
    minus: frozenset[int]
    excluded: frozenset[int]

    @property
    def support(self) -> frozenset[int]:
        return self.plus | self.minus

    def sign(self, index: int) -> int:
        """+1 for plus, -1 for minus, 0 for excluded."""
        if index in self.plus:
            return 1
        if index in self.minus:
            return -1
        return 0


@dataclass(frozen=True)
class FidelityTrace:
    """Sampled fidelities over a time grid with the refined supremum."""

    times: np.ndarray
    fidelities: np.ndarray
    sup_estimate: float
    argmax_time: float


def pair_vector(n: int, pair: tuple[int, int]) -> np.ndarray:
    """The vector e_a - e_b for a 1-based vertex pair."""
    a, b = pair
    if a == b:
        raise ValueError(f"pair vertices must differ, got {pair}")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"pair {pair} out of range for n={n}")
    v = np.zeros(n)
    v[a - 1] = 1.0
    v[b - 1] = -1.0
    return v


def transfer_weights(s: Spectrum, frm: tuple[int, int], to: tuple[int, int]) -> np.ndarray:
    """Per-eigenvalue weights (e_a-e_b)^T F_r (e_c-e_d) of the fidelity sum."""
    u = pair_vector(s.n, frm)
    v = pair_vector(s.n, to)
    return np.einsum("i,rij,j->r", u, s.projectors, v)


def pair_fidelity(s: Spectrum, frm: tuple[int, int], to: tuple[int, int],
                  t: float) -> float:
    """|0.5 (e_a-e_b)^T U(t) (e_c-e_d)|^2, clamped to [0, 1]."""
    return _fidelity_at(s.eigenvalues, transfer_weights(s, frm, to), t)


def support(s: Spectrum, pair: tuple[int, int],
            tol: float = DEFAULT_SUPPORT_TOL) -> frozenset[int]:
    """Indices of eigenvalues theta with ||F_theta (e_a - e_b)|| > tol*sqrt(2).

    The threshold is relative to the pair-state norm sqrt(2).
    """
    u = pair_vector(s.n, pair)
    norms = np.linalg.norm(np.einsum("rij,j->ri", s.projectors, u), axis=1)
    return frozenset(int(r) for r in np.nonzero(norms > tol * math.sqrt(2.0))[0])


def strong_cospectrality(s: Spectrum, p1: tuple[int, int], p2: tuple[int, int],
                         tol: float = DEFAULT_SUPPORT_TOL) -> SupportPartition:
    """Sign partition of the support when F_r(e_a-e_b) = +/- F_r(e_c-e_d).

    For each eigenvalue the smaller of ||v - w|| and ||v + w|| decides the
    sign; both below threshold means the eigenvalue is excluded from the
    support, neither raises NotCospectralError with the witness eigenvalue.
    """
    u = pair_vector(s.n, p1)
    v = pair_vector(s.n, p2)
    fu = np.einsum("rij,j->ri", s.projectors, u)
    fv = np.einsum("rij,j->ri", s.projectors, v)
    thresh = tol * math.sqrt(2.0)
    plus, minus, excluded = set(), set(), set()
    for r in range(s.eigenvalues.size):
        diff = float(np.linalg.norm(fu[r] - fv[r]))
        summ = float(np.linalg.norm(fu[r] + fv[r]))
        if diff <= thresh and summ <= thresh:
            excluded.add(r)
        elif diff <= thresh:
            plus.add(r)
        elif summ <= thresh:
            minus.add(r)
        else:
            raise NotCospectralError(float(s.eigenvalues[r]), r)
    return SupportPartition(frozenset(plus), frozenset(minus), frozenset(excluded))


def path_support_partition(n: int, a: int) -> SupportPartition:
    """Exact sign partition for the mirror edge pairs {a,a+1}, {n-a,n-a+1}.

    Integer arithmetic only: index k is excluded iff n divides a*k,
    otherwise it lands in plus for odd k and minus for even k.
    """
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in 1..{n - 1}, got {a}")
    plus, minus, excluded = set(), set(), set()
    for k in range(n):
        if (a * k) % n == 0:
            excluded.add(k)
        elif k % 2 == 1:
            plus.add(k)
        else:
            minus.add(k)
    return SupportPartition(frozenset(plus), frozenset(minus), frozenset(excluded))


def fidelity_sweep(s: Spectrum, frm: tuple[int, int], to: tuple[int, int],
                   t_max: float, steps: int) -> FidelityTrace:
    """Grid sweep of the transfer fidelity over [0, t_max] with refinement.

    Scans a uniform grid of `steps` points (2..MAX_SWEEP_STEPS), then runs
    60 golden-section iterations in the one-cell window around the best
    grid point. The refined point is inserted into the returned trace, so
    sup_estimate is the maximum of the stored fidelities.
    """
    if not math.isfinite(t_max) or t_max <= 0:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(
            f"steps must lie in 2..{MAX_SWEEP_STEPS}, got {steps}")
    c = transfer_weights(s, frm, to)
    thetas = s.eigenvalues
    # the phases t * theta must stay finite, or every fidelity reads NaN
    if not math.isfinite(t_max * float(np.abs(thetas).max())):
        raise ValueError(
            f"t_max times the largest eigenvalue must be finite, got t_max={t_max}")
    times = np.linspace(0.0, float(t_max), steps)
    fids = np.clip(_kernels.fidelity_grid(thetas, c, times), 0.0, 1.0)

    best = int(np.argmax(fids))
    dt = float(t_max) / (steps - 1)
    lo = max(0.0, times[best] - dt)
    hi = min(float(t_max), times[best] + dt)
    t_ref, f_ref = _golden_section_max(
        lambda t: _fidelity_at(thetas, c, t), lo, hi, iterations=60)

    if f_ref > fids[best]:
        pos = int(np.searchsorted(times, t_ref))
        times = np.insert(times, pos, t_ref)
        fids = np.insert(fids, pos, f_ref)
        sup, arg = f_ref, t_ref
    else:
        sup, arg = float(fids[best]), float(times[best])
    return FidelityTrace(times=times, fidelities=fids,
                         sup_estimate=sup, argmax_time=arg)


def _fidelity_at(thetas: np.ndarray, weights: np.ndarray, t: float) -> float:
    amp = 0.5 * np.sum(weights * np.exp(-1j * t * thetas))
    return float(min(max(abs(amp) ** 2, 0.0), 1.0))


def _golden_section_max(f, lo: float, hi: float, iterations: int) -> tuple[float, float]:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)
