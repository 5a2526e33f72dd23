import cmath
import functools
import math

import numpy as np
import pytest

from lpgst import cyclotomic
from lpgst.cyclotomic import (MAX_TABLE_N, IntPolynomial,
                              _over_binomial, _theta_rows,
                              cyclotomic_polynomial, euler_phi, theta_table)
from lpgst.relation_lattice import _product_is_zero

# n with dense and sparse phi(2n), from 255 to 1024
_LARGE_N = (255, 315, 495, 600, 945, 990, 997, 1024)


@functools.lru_cache(maxsize=None)
def _reference_cyclotomic(m: int) -> IntPolynomial:
    """Frozen copy of the former cyclotomic_polynomial: x^m - 1 divided by
    Phi_d for every proper divisor d, by IntPolynomial long division."""
    poly = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            quo, rem = divmod(poly, _reference_cyclotomic(d))
            assert rem.is_zero(), f"x^{m}-1 not divisible by Phi_{d}"
            poly = quo
    return poly


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1).coefficients == (-1, 1)
    assert cyclotomic_polynomial(2).coefficients == (1, 1)
    assert cyclotomic_polynomial(8).coefficients == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(10).coefficients == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12).coefficients == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(24).coefficients == (1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_cyclotomic_degree_is_totient():
    for m in range(1, 60):
        assert cyclotomic_polynomial(m).degree == euler_phi(m)


def test_cyclotomic_product_identity():
    for m in range(1, 41):
        prod = IntPolynomial((1,))
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        expected = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
        assert prod == expected, m


def test_cyclotomic_matches_frozen_reference():
    for m in list(range(1, 301)) + [2 * n for n in _LARGE_N]:
        assert cyclotomic_polynomial(m) == _reference_cyclotomic(m), m


@pytest.mark.slow
def test_cyclotomic_matches_frozen_reference_every_even_m():
    for n in range(1, 1025):
        assert cyclotomic_polynomial(2 * n) == _reference_cyclotomic(2 * n), n


def test_theta_rows_refuse_int64_overflow():
    # x^j mod (x + c) is (-c)^j: for c = 2**40 the build must stop before
    # (-c)^3 wraps
    with pytest.raises(OverflowError, match="could leave int64"):
        _theta_rows(4, np.array([2 ** 40, 1]))
    # a modulus entry of 2**61 is refused before any power is built
    with pytest.raises(OverflowError, match="could leave int64"):
        _theta_rows(4, np.array([2 ** 61, 1]))
    # small enough, the same rows are exact
    power = [(-3) ** j for j in range(4)]
    assert _theta_rows(4, np.array([3, 1])).tolist() == [
        [2 - power[k] + power[4 - k]] for k in (1, 2, 3)]


@pytest.mark.slow
def test_theta_table_builds_in_int64_for_every_accepted_n():
    # no n the table accepts reaches the OverflowError checks
    largest = 0
    for n in range(2, MAX_TABLE_N + 1):
        table = theta_table(n)
        assert table.dtype == np.int64, n
        largest = max(largest, int(np.abs(table).max()))
    assert largest == 14


def test_over_binomial_rejects_inexact_division():
    # (x^2 - 1)(x + 2) = x^3 + 2x^2 - x - 2 divides; x^3 + 1 does not
    assert _over_binomial(np.array([-2, -1, 2, 1]), 2).tolist() == [2, 1]
    with pytest.raises(ArithmeticError, match="not divisible"):
        _over_binomial(np.array([1, 0, 0, 1]), 2)
    with pytest.raises(ArithmeticError, match="not divisible"):
        _over_binomial(np.array([1, 1]), 2)


def test_theta_table_is_read_only_and_keeps_one_n():
    table = theta_table(9)
    assert table.shape == (8, euler_phi(18))
    with pytest.raises(ValueError):
        table[0, 0] = 7
    theta_table(10)
    info = theta_table.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    with pytest.raises(ValueError):
        theta_table(1)


class _Built(Exception):
    pass


def test_theta_table_refuses_large_n_before_building(monkeypatch):
    def build(*args):
        raise _Built
    monkeypatch.setattr(cyclotomic, "_cyclotomic_array", build)
    theta_table.cache_clear()
    for n in (MAX_TABLE_N + 1, 10 ** 9):
        with pytest.raises(ValueError, match=f"at most {MAX_TABLE_N}"):
            theta_table(n)
    with pytest.raises(_Built):
        theta_table(MAX_TABLE_N)


def test_cyclotomic_vanishes_at_primitive_root():
    for n in range(2, 65):
        z = cmath.exp(1j * math.pi / n)
        assert abs(cyclotomic_polynomial(2 * n).evaluate(z)) < 1e-8, n


def test_divmod_wraps_powers():
    phi8 = cyclotomic_polynomial(8)
    _, rem = divmod(IntPolynomial((0, 0, 0, 0, 1)), phi8)           # x^4
    assert rem.coefficients == (-1,)
    _, rem = divmod(IntPolynomial((0, 1, 0, 0, 0, 1)), phi8)        # x^5 + x
    assert rem.is_zero()


def test_divmod_requires_monic():
    with pytest.raises(ValueError, match="monic"):
        divmod(IntPolynomial((1, 1)), IntPolynomial((1, 2)))
    with pytest.raises(ValueError, match="monic"):
        divmod(IntPolynomial((1, 1)), IntPolynomial(()))


def test_theta_element_examples():
    assert theta_table(4)[2 - 1].tolist() == [2, 0, 0, 0]
    assert theta_table(3)[1 - 1].tolist() == [1, 0]
    assert theta_table(3)[2 - 1].tolist() == [3, 0]


def test_theta_element_matches_cosine_eigenvalues():
    for n in range(2, 65):
        z = cmath.exp(1j * math.pi / n)
        for k in range(1, n):
            value = IntPolynomial(tuple(theta_table(n)[k - 1].tolist())).evaluate(z)
            target = 2.0 - 2.0 * math.cos(k * math.pi / n)
            assert abs(value - target) < 1e-9, (n, k)


def test_theta_element_matches_unreduced_division():
    # theta_table folds x^(2n-k) into -x^(n-k) and reduces powers one
    # step at a time; the remainder of the unreduced 2 - x^k - x^(2n-k)
    # must be the same. Every k for n <= 64, sampled k beyond.
    cases = [(n, range(1, n)) for n in range(2, 65)]
    cases += [(n, (1, 2, n // 3, n // 2, n - 2, n - 1))
              for n in (255, 315, 600, 990, 997, 1024)]
    for n, ks in cases:
        phi = cyclotomic_polynomial(2 * n)
        for k in ks:
            coeffs = [0] * (2 * n)
            coeffs[0] = 2
            coeffs[k] -= 1
            coeffs[2 * n - k] -= 1
            _, rem = divmod(IntPolynomial(tuple(coeffs)), phi)
            padded = rem.coefficients + (0,) * (phi.degree - len(rem.coefficients))
            assert tuple(theta_table(n)[k - 1].tolist()) == padded, (n, k)


def test_exact_combination_tracks_float_evaluation():
    rng = np.random.default_rng(41)
    for n in (5, 8, 9, 12):
        thetas = [theta_table(n)[k - 1] for k in range(1, n)]
        floats = [2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(1, n)]
        for _ in range(40):
            coeffs = [int(c) for c in rng.integers(-3, 4, size=n - 1)]
            exact_zero = _product_is_zero(thetas, [coeffs])
            float_sum = sum(c * f for c, f in zip(coeffs, floats))
            assert exact_zero == (abs(float_sum) < 1e-9), (n, coeffs)


def test_witness_polynomial_reduces_to_zero():
    # The (9,1) witness vector lifts to a polynomial with the primitive
    # 18th root as a zero, so reduction modulo Phi_18 kills it exactly.
    l = (1, -1, 0, -1, 1, 0, 1, -1)
    n = 9
    coeffs = [0] * (2 * n)
    for k in range(1, n):
        coeffs[0] += 2 * l[k - 1]
        coeffs[k] -= l[k - 1]
        coeffs[2 * n - k] -= l[k - 1]
    _, rem = divmod(IntPolynomial(tuple(coeffs)), cyclotomic_polynomial(18))
    assert rem.is_zero()


def test_int_polynomial_divmod_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a = IntPolynomial(tuple(int(c) for c in rng.integers(-5, 6, size=9)))
        b_coeffs = tuple(int(c) for c in rng.integers(-5, 6, size=4)) + (1,)
        b = IntPolynomial(b_coeffs)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree


def test_int_polynomial_normalizes_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert IntPolynomial((0, 0)).is_zero()
    assert IntPolynomial(()).degree == -1


def test_euler_phi_values():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(128) == 64


def test_totient_and_cyclotomic_refuse_nonpositive_index():
    with pytest.raises(ValueError, match="positive argument, got 0"):
        euler_phi(0)
    with pytest.raises(ValueError, match="must be positive, got 0"):
        cyclotomic_polynomial(0)


def test_theta_element_pads_to_full_width():
    # k = n/2 gives the constant 2; the row keeps all phi(2n) slots
    assert theta_table(4)[2 - 1].tolist() == [2, 0, 0, 0]
    assert theta_table(6)[3 - 1].tolist() == [2, 0, 0, 0]
