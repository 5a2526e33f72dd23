"""Exact integer arithmetic in Z[x]/Phi_2n(x).

The path eigenvalues 2 - 2 cos(k pi / n) equal 2 - z^k - z^(2n-k) for z a
primitive 2n-th root of unity, so each one has an exact image as an
integer coefficient vector modulo the 2n-th cyclotomic polynomial. All
coefficients are Python ints, so nothing here ever rounds.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass


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
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1.

    x^m - 1 = prod over d | m of Phi_d, so dividing out the proper
    divisors' polynomials leaves Phi_m with exact integer coefficients.
    """
    if m < 1:
        raise ValueError(f"cyclotomic index must be positive, got {m}")
    poly = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            quo, rem = divmod(poly, cyclotomic_polynomial(d))
            assert rem.is_zero(), f"x^{m}-1 not divisible by Phi_{d}"
            poly = quo
    return poly


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


@functools.lru_cache(maxsize=None)
def theta_element(n: int, k: int) -> CycloElement:
    """Exact image of the path eigenvalue 2 - 2 cos(k pi / n).

    The eigenvalue is 2 - x^k - x^(2n-k) at the primitive 2n-th root.
    Phi_2n divides x^n + 1, so x^(2n-k) = -x^(n-k) modulo Phi_2n and one
    division of 2 - x^k + x^(n-k) (degree below n) by Phi_2n leaves the
    reduced coefficients. Cached: the same (n, k) recurs across every
    pair offset a.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k}")
    coeffs = [0] * n
    coeffs[0] = 2
    coeffs[k] -= 1
    coeffs[n - k] += 1
    phi = cyclotomic_polynomial(2 * n)
    _, rem = divmod(IntPolynomial(tuple(coeffs)), phi)
    return CycloElement(2 * n, rem.coefficients
                        + (0,) * (phi.degree - len(rem.coefficients)))
