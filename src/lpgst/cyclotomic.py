"""Exact integer arithmetic in Z[x]/Phi_2n(x).

The path eigenvalues 2 - 2 cos(k pi / n) equal 2 - z^k - z^(2n-k) for z a
primitive 2n-th root of unity, so each one has an exact image as an
integer coefficient vector modulo the 2n-th cyclotomic polynomial.

Phi_m and the table of every eigenvalue's coefficients for one n are built
as numpy int64 arrays. A bound checked before each step rules out overflow
(see _cyclotomic_array and _theta_rows) and raises OverflowError if it
could happen; no accepted input reaches it (every n <= MAX_TABLE_N builds
with entries at most 14). Nothing here ever rounds.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coefficients[i] multiplies x**i."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = self.coefficients
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        if end != len(coeffs):
            object.__setattr__(self, "coefficients", coeffs[:end])

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __divmod__(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor; stays in integer coefficients."""
        if not divisor.is_monic():
            raise ValueError("division requires a monic divisor")
        rem = list(self.coefficients)
        d = divisor.degree
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            lead = rem[i]
            if lead == 0:
                continue
            quo[i - d] = lead
            for j, c in enumerate(divisor.coefficients):
                rem[i - d + j] -= lead * c
        return IntPolynomial(tuple(quo)), IntPolynomial(tuple(rem[:d]))

    def evaluate(self, x: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def euler_phi(m: int) -> int:
    """Euler's totient by trial-division factorization."""
    if m < 1:
        raise ValueError(f"totient needs a positive argument, got {m}")
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def _prime_factors(m: int) -> list[int]:
    """Distinct primes of m, increasing, by trial division."""
    primes, p = [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return primes + [m] if m > 1 else primes


def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, by the Moebius product (see
    _cyclotomic_array)."""
    if m < 1:
        raise ValueError(f"cyclotomic index must be positive, got {m}")
    return IntPolynomial(tuple(_cyclotomic_array(m).tolist()))


def _max_abs(arr: np.ndarray) -> int:
    """Largest entry magnitude as a Python int (no int64 abs overflow)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _cyclotomic_array(m: int) -> np.ndarray:
    """Coefficients of Phi_m (index = power) as int64.

    Phi_m = prod over d | m of (x^d - 1)^mu(m/d). Only squarefree m/d
    count: d = m / (product of a set S of m's primes), mu = (-1)^|S|. The
    factors with mu = +1 are multiplied in first (a shift and a subtract
    each), then the ones with mu = -1 are divided out exactly. Raises
    OverflowError when a step could leave int64.
    """
    primes = _prime_factors(m)
    steps = []
    for mask in range(2 ** len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        steps.append((len(chosen) % 2, m // math.prod(chosen)))
    poly = np.ones(1, dtype=np.int64)
    for divide, d in sorted(steps):
        # every entry a step writes (running sums included) is a signed sum
        # of at most len(poly) entries of poly
        if len(poly) * _max_abs(poly) >= 2 ** 63:
            raise OverflowError(f"Phi_{m} could leave int64")
        poly = _over_binomial(poly, d) if divide else _times_binomial(poly, d)
    return poly


def _times_binomial(poly: np.ndarray, d: int) -> np.ndarray:
    """poly * (x^d - 1)."""
    out = np.zeros(len(poly) + d, dtype=poly.dtype)
    out[d:] = poly
    out[:len(poly)] -= poly
    return out


def _over_binomial(poly: np.ndarray, d: int) -> np.ndarray:
    """poly / (x^d - 1), which must be exact.

    The quotient q satisfies poly[i] = q[i - d] - q[i], so q is minus the
    running sum of poly over each residue class mod d. The division is exact
    when every class sums to zero, i.e. when those running sums vanish past
    q's degree.
    """
    size = len(poly)
    if size <= d:
        raise ArithmeticError(f"polynomial not divisible by x^{d} - 1")
    rows = -(-size // d)
    padded = np.zeros(rows * d, dtype=poly.dtype)
    padded[:size] = poly
    quotient = -np.cumsum(padded.reshape(rows, d), axis=0).ravel()
    if quotient[size - d:size].any():
        raise ArithmeticError(f"polynomial not divisible by x^{d} - 1")
    return quotient[:size - d]


@dataclass(frozen=True)
class CycloElement:
    """Element of Z[x]/Phi_2n(x) as a fixed-length coefficient vector.

    modulus_order is 2n; coefficients has length phi(2n), indexed by
    power of the root.
    """

    modulus_order: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        expected = euler_phi(self.modulus_order)
        if len(self.coefficients) != expected:
            raise ValueError(
                f"need {expected} coefficients for modulus order "
                f"{self.modulus_order}, got {len(self.coefficients)}")

    def evaluate_at_root(self) -> complex:
        """Numeric value at the primitive root exp(2 pi i / modulus_order)."""
        z = complex(math.cos(2 * math.pi / self.modulus_order),
                    math.sin(2 * math.pi / self.modulus_order))
        return IntPolynomial(self.coefficients).evaluate(z)


# The exact route's one size bound. A table is at most n * n * 8 bytes and
# its build holds two: 32 MiB at n = 2048, peaking 63 MiB above the process.
# The lattice route's slowest cases below the bound, decide --n 2030..2048
# --a 1, take 1.0-2.0 s and peak at 263-286 MB end to end (2-core x86-64 VM).
MAX_TABLE_N = 2048


# Callers work on one n at a time, so one table is kept: witness checks of
# several a per n hit it (189 of 252 calls on a perfbench witness_large_n
# pass, the same with 4 slots), and the cross-check band, which alternates
# n, misses with 1 slot or 4.
@functools.lru_cache(maxsize=1)
def theta_table(n: int) -> np.ndarray:
    """Exact coefficients of every path eigenvalue for one n, as one array.

    Row k - 1 (k = 1..n-1) holds the phi(2n) coefficients of
    2 - 2 cos(k pi / n) modulo Phi_2n. The array is read-only int64,
    n * phi(2n) * 8 bytes (8.4 MB at n = 1024). n above MAX_TABLE_N is
    refused before anything is built.
    """
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    if n > MAX_TABLE_N:
        raise ValueError(
            f"n must be at most {MAX_TABLE_N} for the eigenvalue table, got {n}")
    table = _theta_rows(n, _cyclotomic_array(2 * n))
    table.flags.writeable = False
    return table


def _theta_rows(n: int, phi: np.ndarray) -> np.ndarray:
    """Rows 2 - x^k + x^(n-k) mod phi for k = 1..n-1, as int64.

    The eigenvalue is 2 - x^k - x^(2n-k) at the primitive 2n-th root, and
    Phi_2n divides x^n + 1, so x^(2n-k) = -x^(n-k). The reduced powers
    R[j] = x^j mod phi come from R[j] = x * R[j-1] with one vector step per
    j: shift up, then subtract lead * phi, where lead is the coefficient
    shifted past the degree. Raises OverflowError when an entry could reach
    2**61.
    """
    deg = len(phi) - 1
    scale = _max_abs(phi)
    if scale >= 2 ** 61:
        raise OverflowError(f"theta rows for n = {n} could leave int64")
    low = phi[:-1]
    powers = np.zeros((n, deg), dtype=np.int64)
    diagonal = np.arange(min(n, deg))
    powers[diagonal, diagonal] = 1
    # every entry of powers[:j] is at most bound; a step adds |lead| * scale
    bound = 1
    for j in range(deg, n):
        prev = powers[j - 1]
        lead = prev[-1]
        bound += abs(int(lead)) * scale
        if bound >= 2 ** 61:
            raise OverflowError(f"theta rows for n = {n} could leave int64")
        powers[j, 1:] = prev[:-1]
        if lead:
            powers[j] -= lead * low
    # theta rows are below 2 + 2 * bound < 2**63
    rows = powers[n - 1:0:-1] - powers[1:]
    rows[:, 0] += 2
    return rows


def theta_element(n: int, k: int) -> CycloElement:
    """Exact image of the path eigenvalue 2 - 2 cos(k pi / n): row k - 1 of
    theta_table(n)."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k}")
    return CycloElement(2 * n, tuple(theta_table(n)[k - 1].tolist()))
