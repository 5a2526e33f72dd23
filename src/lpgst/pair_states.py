"""Pair states e_a - e_b: transfer fidelity, eigenvalue supports, strong
cospectrality with the +/- sign partition, and numeric fidelity sweeps.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .spectra import Spectrum

SUPPORT_TOL = 1e-8

# Largest grid fidelity_sweep accepts, checked before anything is
# allocated: 10M points already take 160 MB of times and fidelities. With
# spectra.MAX_SPECTRUM_N it bounds a sweep's cost; the worst accepted CLI
# sweep on a 2-core x86-64 VM, sweep --path 1024 --steps 10000000, takes
# about 10 s and peaks at 207 MB in CSV and in JSON.
MAX_SWEEP_STEPS = 10_000_000

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERATIONS = 60


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
    """Support eigenvalues split by cospectrality sign.

    Members are positions in the increasing distinct-eigenvalue list; for
    a path spectrum these coincide with the cosine index k.
    """

    plus: frozenset[int]
    minus: frozenset[int]

    @property
    def support(self) -> frozenset[int]:
        return self.plus | self.minus


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
    """Per-eigenvalue weights (e_a-e_b)^T F_r (e_c-e_d) of the fidelity sum.

    Summed per group over the eigen-coordinates (e_a-e_b)^T V, each of them
    one exact difference of two eigenvector entries, so the weights do not
    depend on a product's summation order or thread count.
    """
    u = pair_vector(s.n, frm) @ s.eigenvectors
    v = pair_vector(s.n, to) @ s.eigenvectors
    return np.add.reduceat(u * v, s.group_starts)


def pair_fidelity(s: Spectrum, frm: tuple[int, int], to: tuple[int, int],
                  t: float) -> float:
    """|0.5 (e_a-e_b)^T U(t) (e_c-e_d)|^2, clamped to [0, 1]. Raises
    ValueError unless |t| times the largest eigenvalue is finite."""
    _check_phases_finite("t", t, s.eigenvalues)
    return _fidelity_at(s.eigenvalues, transfer_weights(s, frm, to), t)


def support(s: Spectrum, pair: tuple[int, int]) -> frozenset[int]:
    """Indices of eigenvalues theta with ||F_theta (e_a - e_b)|| above
    SUPPORT_TOL * sqrt(2).

    The threshold is relative to the pair-state norm sqrt(2).
    """
    norms = s.group_norms(pair_vector(s.n, pair))
    return frozenset(map(int, np.flatnonzero(norms > SUPPORT_TOL * math.sqrt(2.0))))


def strong_cospectrality(s: Spectrum, p1: tuple[int, int],
                         p2: tuple[int, int]) -> SupportPartition:
    """Sign partition of the support when F_r(e_a-e_b) = +/- F_r(e_c-e_d).

    For each eigenvalue the smaller of ||v - w|| and ||v + w|| decides the
    sign; both below threshold means the eigenvalue is excluded from the
    support, neither raises NotCospectralError with the witness eigenvalue.
    """
    u = pair_vector(s.n, p1)
    v = pair_vector(s.n, p2)
    diffs = s.group_norms(u - v)
    sums = s.group_norms(u + v)
    thresh = SUPPORT_TOL * math.sqrt(2.0)
    plus, minus = set(), set()
    for r, (diff, summ) in enumerate(zip(diffs, sums)):
        if diff <= thresh and summ <= thresh:
            continue
        if diff <= thresh:
            plus.add(r)
        elif summ <= thresh:
            minus.add(r)
        else:
            raise NotCospectralError(float(s.eigenvalues[r]), r)
    return SupportPartition(frozenset(plus), frozenset(minus))


def exclusion_period(n: int, a: int) -> int:
    """n / gcd(a, n): the mirror edge pairs {a,a+1}, {n-a,n-a+1} exclude
    exactly the path indices k that this period divides. Raises ValueError
    unless 1 <= a <= n - 1."""
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in 1..{n - 1}, got {a}")
    return n // math.gcd(a, n)


def path_support_partition(n: int, a: int) -> SupportPartition:
    """Exact sign partition for the mirror edge pairs {a,a+1}, {n-a,n-a+1}.

    Integer arithmetic only: index k is excluded iff n divides a*k, that
    is iff n / gcd(a, n) divides k; otherwise it lands in plus for odd k
    and minus for even k.
    """
    excluded = frozenset(range(0, n, exclusion_period(n, a)))
    return SupportPartition(plus=frozenset(range(1, n, 2)) - excluded,
                            minus=frozenset(range(0, n, 2)) - excluded)


def check_sweep_grid(t_max: float, steps: int) -> None:
    """Raise ValueError unless t_max is finite and positive, steps lies in
    2..MAX_SWEEP_STEPS and the step t_max / (steps - 1) is at least the
    smallest normal double, so the grid times strictly increase."""
    if not math.isfinite(t_max) or t_max <= 0:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(
            f"steps must lie in 2..{MAX_SWEEP_STEPS}, got {steps}")
    if t_max / (steps - 1) < sys.float_info.min:
        raise ValueError(
            f"t_max / (steps - 1) must be at least {sys.float_info.min!r}, "
            f"got {t_max!r} / {steps - 1}")


def fidelity_sweep(s: Spectrum, frm: tuple[int, int], to: tuple[int, int],
                   t_max: float, steps: int) -> FidelityTrace:
    """Grid sweep of the transfer fidelity over [0, t_max] with refinement.

    Scans a uniform grid of `steps` points (refused as check_sweep_grid
    refuses them), then runs _GOLDEN_ITERATIONS (60) golden-section
    iterations in the one-cell window around the best grid point. The
    refined point is inserted into the returned trace when it beats the
    grid by more than phase_rounding_bound, so sup_estimate is the
    maximum of the stored fidelities.
    """
    check_sweep_grid(t_max, steps)
    c = transfer_weights(s, frm, to)
    thetas = s.eigenvalues
    _check_phases_finite("t_max", t_max, thetas)
    # an owned copy, so the refined point can be inserted in place
    times = np.linspace(0.0, float(t_max), steps).copy()
    fids = _kernels.fidelity_grid(thetas, c, times)
    np.clip(fids, 0.0, 1.0, out=fids)

    best = int(np.argmax(fids))
    dt = float(t_max) / (steps - 1)
    lo = max(0.0, times[best] - dt)
    hi = min(float(t_max), times[best] + dt)
    t_ref, f_ref = _golden_section_max(lambda t: _fidelity_at(thetas, c, t), lo, hi)

    pos = int(np.searchsorted(times, t_ref))
    # a gain within the rounding bound may be rounding alone, and a refined
    # time that rounds onto a grid time would repeat that time
    if (f_ref - fids[best] > phase_rounding_bound(thetas, c, t_max)
            and t_ref not in times[pos:pos + 1]):
        _insert_in_place(times, pos, t_ref)
        _insert_in_place(fids, pos, f_ref)
        best = pos
    return FidelityTrace(times=times, fidelities=fids,
                         sup_estimate=float(fids[best]),
                         argmax_time=float(times[best]))


def phase_rounding_bound(thetas: np.ndarray, weights: np.ndarray,
                         t_max: float) -> float:
    """Largest fidelity error that rounding the phases theta_r * t allows
    on [0, t_max]: 0.5 * (sum |w|)^2 * (4 ulp(max|theta| * t_max) + m 2^-52).

    The grid kernel and _fidelity_at each round every phase, and the
    blocked grid also moves each time by up to about one ulp of t. Both
    come to under 4 ulps of max|theta| * t_max per term, plus a relative
    2^-52 per term for the sum itself, and a phase error d moves the
    fidelity by at most (sum |w|)^2 * d / 2.
    """
    ulp = np.spacing(float(np.abs(thetas).max()) * t_max)
    return 0.5 * float(np.abs(weights).sum()) ** 2 * (
        4 * ulp + thetas.size * 2.0 ** -52)


def _insert_in_place(values: np.ndarray, pos: int, value: float) -> None:
    """Insert value before values[pos], growing the array by one.

    np.insert would hold a second copy of the array while it builds the
    result; resize reallocates the buffer in place, and numpy copies an
    overlapping 1-d slice of the same stride direction without a
    temporary. values must own its data and have no views.
    """
    values.resize(values.size + 1, refcheck=False)
    values[pos + 1:] = values[pos:-1]
    values[pos] = value


def _check_phases_finite(name: str, t: float, thetas: np.ndarray) -> None:
    # the phases t * theta must stay finite, or every fidelity reads NaN
    if not math.isfinite(abs(t) * float(np.abs(thetas).max())):
        raise ValueError(
            f"{name} times the largest eigenvalue must be finite, got {name}={t}")


def _fidelity_at(thetas: np.ndarray, weights: np.ndarray, t: float) -> float:
    amp = 0.5 * np.sum(weights * np.exp(-1j * t * thetas))
    return float(min(max(abs(amp) ** 2, 0.0), 1.0))


def _golden_section_max(f, lo: float, hi: float) -> tuple[float, float]:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERATIONS):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)
