"""Decision engine for pretty good transfer between mirror edge pairs
{a, a+1} and {n-a, n-a+1} on the n-vertex path.

Two independent routes produce every verdict: a closed-form rule keyed to
the factorization n = 2^t * (odd part), and an exact lattice pipeline
that computes the integer relation kernel over the support eigenvalues
and tests the parity of the minus-sign marks on it. No-verdicts carry an
explicit integer witness vector that can be re-verified exactly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cyclotomic import MAX_TABLE_N, _max_abs, _prime_factors
from .pair_states import exclusion_period, path_support_partition
from .relation_lattice import (_exact_array, build_relation_system,
                               integer_kernel, parity_holds)

RULE_POWER_OF_TWO = "power-of-two"
RULE_ODD_PRIME = "odd-prime"
RULE_TWO_POWER_TIMES_PRIME = "two-power-times-prime"
RULE_ODD_COMPOSITE = "odd-composite-factor"

# Largest n a no-instance's witness is built for, checked before any O(n)
# object. Building and re-verifying one is linear in n: classify_path then
# verify_witness at n = 2**20 - 1 takes 17 + 91 ms and peaks at 88 MB in a
# child process (2-core x86-64 VM, best of 3), below the 249 MB of
# decide --n 2047 --a 1 --certificate.
MAX_WITNESS_N = 2 ** 20

# Largest odd part of n the closed form factors, checked before the trial
# division, which then takes at most 2**20 steps: 0.11 s for the largest
# prime below 2**40 (0.03 s below 2**36; 2-core x86-64 VM). Any power of
# two times it is accepted.
MAX_ODD_PART = 2 ** 40


class SamePairError(ValueError):
    """The two mirror pairs coincide (2a = n), so transfer is not defined."""


@dataclass(frozen=True)
class PathClass:
    """Factorization-based class of a path instance: n = 2^t * odd_part."""

    n: int
    a: int
    kind: str
    two_power_exponent: int
    odd_part: int

    @property
    def has_lpgst(self) -> bool:
        """The closed-form rule: transfer exists when n is a power of two or
        an odd prime (any a), and when n = 2^t * p (p odd prime, t >= 1)
        exactly for a divisible by 2^(t-1); never when the odd part is
        composite."""
        if self.kind == RULE_TWO_POWER_TIMES_PRIME:
            return self.a % 2 ** (self.two_power_exponent - 1) == 0
        return self.kind != RULE_ODD_COMPOSITE


@dataclass(frozen=True)
class Verdict:
    """Transfer decision with an optional integer certificate.

    rule is the PathClass kind on closed-form verdicts and None on lattice
    ones. certificate, when present, is a vector over k = 1..n-1 whose
    minus-parity sum is odd, refuting transfer (verify_witness checks it).
    """

    has_lpgst: bool
    from_pair: tuple[int, int]
    to_pair: tuple[int, int]
    rule: str | None = None
    certificate: tuple[int, ...] | None = None


class WitnessCheck(NamedTuple):
    """Exact checks on a claimed witness vector; first three are primary."""

    sum_zero: bool
    relation_zero: bool
    parity_odd: bool
    off_support_zero: bool
    sigma_sum: int


def _validate_instance(n: int, a: int) -> None:
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in 1..{n - 1}, got {a}")
    if 2 * a == n:
        raise SamePairError(
            f"pairs ({a},{a + 1}) and ({n - a},{n - a + 1}) coincide for n={n}")


def _mirror_pairs(n: int, a: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return (a, a + 1), (n - a, n - a + 1)


def factor_two_power(n: int) -> tuple[int, int]:
    """(t, m) with n = 2^t * m and m odd. Raises ValueError unless n >= 1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    return t, n


def path_class(n: int, a: int) -> PathClass:
    """Mutually exclusive instance class from the factorization of n.
    Raises ValueError unless n >= 2 and the odd part of n is at most
    MAX_ODD_PART, before any trial division."""
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    t, m = factor_two_power(n)
    if m > MAX_ODD_PART:
        raise ValueError(
            f"the odd part of n must be at most {MAX_ODD_PART}, got {m}")
    if m == 1:
        kind = RULE_POWER_OF_TWO
    elif _prime_factors(m) == [m]:
        kind = RULE_ODD_PRIME if t == 0 else RULE_TWO_POWER_TIMES_PRIME
    else:
        kind = RULE_ODD_COMPOSITE
    return PathClass(n=n, a=a, kind=kind, two_power_exponent=t, odd_part=m)


def classify_path(n: int, a: int) -> Verdict:
    """Closed-form verdict for the mirror edge pairs on the n-path.

    The verdict is PathClass.has_lpgst; no-verdicts carry the explicit
    witness vector of witness_relation.
    """
    _validate_instance(n, a)
    cls = path_class(n, a)
    frm, to = _mirror_pairs(n, a)
    return Verdict(has_lpgst=cls.has_lpgst, from_pair=frm, to_pair=to,
                   rule=cls.kind, certificate=_class_witness(cls))


def decide_path_lpgst(n: int, a: int) -> Verdict:
    """Exact lattice-pipeline verdict for the mirror edge pairs.

    Mirror pairs are always strongly cospectral, so the decision reduces
    to the parity of the minus functional on the integer kernel of the
    support relation system. A failing parity check yields a certificate
    vector expanded back to indices k = 1..n-1. Refuses n above
    MAX_TABLE_N, the eigenvalue table's bound, before any work. The
    support and its signs depend on a only through the exclusion period
    n / gcd(a, n), so every a of one period shares one computed verdict.
    """
    _validate_instance(n, a)
    if n > MAX_TABLE_N:
        raise ValueError(
            f"n must be at most {MAX_TABLE_N} for the lattice route, got {n}")
    frm, to = _mirror_pairs(n, a)
    has_lpgst, certificate = _lattice_verdict(n, exclusion_period(n, a))
    return Verdict(has_lpgst=has_lpgst, from_pair=frm, to_pair=to,
                   certificate=certificate)


# One entry per (n, exclusion period). The worst case held is 256
# certificates of at most MAX_TABLE_N - 1 = 2,047 entries each, about 4 MB
# of tuples.
@functools.lru_cache(maxsize=256)
def _lattice_verdict(n: int, q: int) -> tuple[bool, tuple[int, ...] | None]:
    """(has_lpgst, certificate) of the lattice pipeline for every a with
    exclusion period q, computed at the offset a = n // q."""
    part = path_support_partition(n, n // q)
    columns, sigma, index_map = build_relation_system(n, part)
    lattice = integer_kernel(columns)
    holds, bad = parity_holds(lattice, sigma)
    if holds:
        return True, None
    full = [0] * (n - 1)
    for pos, k in enumerate(index_map):
        full[k - 1] = bad[pos]
    return False, tuple(full)


def witness_relation(n: int, a: int) -> tuple[int, ...] | None:
    """Explicit integer relation with odd minus-parity, when one exists.

    Returns one for every no-instance of PathClass.has_lpgst, None for
    yes-instances. With n = 2^t * r, r odd, the vector is +1 on k
    congruent to 1 or q+2 and -1 on k congruent to 2 or q+1 modulo 2q. The
    block size q is 2^t when r is prime, and when r is composite and
    divides a (distinct pairs then force t >= 2); otherwise it is 2^t * p
    for the first odd prime p of r dividing n / gcd(a, n).
    Alternating-cosine cancellation makes the eigenvalue sum vanish while
    exactly one minus-position survives. A no-instance with n above
    MAX_WITNESS_N is refused before the O(n) vector is built; below it,
    verify_witness re-verifies the vector in O(n), with no eigenvalue table.
    """
    _validate_instance(n, a)
    return _class_witness(path_class(n, a))


def _class_witness(cls: PathClass) -> tuple[int, ...] | None:
    """witness_relation of the instance cls was computed for."""
    if cls.has_lpgst:
        return None
    if cls.n > MAX_WITNESS_N:
        raise ValueError(
            f"n must be at most {MAX_WITNESS_N} for a witness, got {cls.n}")
    block = 2 ** cls.two_power_exponent
    if cls.kind == RULE_ODD_COMPOSITE:
        period = exclusion_period(cls.n, cls.a)
        block *= next((p for p in _prime_factors(cls.odd_part)
                       if period % p == 0), 1)
    return _residue_witness(cls.n, block)


def _residue_witness(n: int, block: int) -> tuple[int, ...]:
    """Entries k = 1..n-1 of one period of length 2 * block, repeated."""
    period = 2 * block
    pattern = [0] * period
    for res in (2 % period, (block + 1) % period):
        pattern[res] = -1
    for res in (1 % period, (block + 2) % period):    # plus wins a clash
        pattern[res] = 1
    return tuple((pattern * (n // period + 1))[1:n])


def verify_witness(n: int, a: int, relation: tuple[int, ...]) -> WitnessCheck:
    """Re-verify a witness vector with exact arithmetic.

    Checks the zero-sum constraint, the exact vanishing of the eigenvalue
    combination (by _theta_sums_vanish, which reads no eigenvalue table,
    so a wrong table cannot certify its own kernel), odd minus-parity, and
    that the vector is supported only on support eigenvalue indices. Runs
    in O(n).
    """
    if len(relation) != n - 1:
        raise ValueError(
            f"witness must have length {n - 1} for n={n}, got {len(relation)}")
    rows = _exact_array([relation])
    relation = rows[0].tolist()                     # exact Python ints
    # entry k - 1 holds index k. The minus indices are the even k that the
    # exclusion period q does not divide, so both sets are progressions:
    # the even multiples of q are the multiples of lcm(2, q).
    q = exclusion_period(n, a)
    even_q = q if q % 2 == 0 else 2 * q
    sigma_sum = sum(relation[1::2]) - sum(relation[even_q - 1::even_q])
    off_support_zero = not any(relation[q - 1::q])
    return WitnessCheck(sum_zero=sum(relation) == 0,
                        relation_zero=bool(_theta_sums_vanish(n, rows)[0]),
                        parity_odd=sigma_sum % 2 != 0,
                        off_support_zero=off_support_zero,
                        sigma_sum=sigma_sum)


def _theta_sums_vanish(n: int, relations: np.ndarray) -> np.ndarray:
    """Per row v (entries k = 1..n-1) of an int64 or object array, whether
    sum_k v_k * (2 - 2 cos(k pi / n)) is exactly zero.

    With N = 2n, g = sum_k v_k (x^k + x^(N-k)) - 2 sum_k v_k takes minus
    that value at z = exp(i pi / n). An integer g vanishing at z vanishes
    at every primitive N-th root (its Galois conjugates); the product of
    x^(N/p) - 1 over the primes p of N vanishes at exactly the other N-th
    roots, and x^N - 1 has simple roots. So the sum is zero iff g times
    that product is 0 mod x^N - 1 (Lam and Leung, J. Algebra 224, 2000).
    Each factor is one cyclic shift and one subtraction and at most
    doubles max|g| <= 2n * max|v|: sums and product run in int64 while
    (2n * max|v|) * 2^(number of primes) < 2**63, on Python ints otherwise.
    """
    size = 2 * n
    primes = _prime_factors(size)
    fits = (size * _max_abs(relations)) << len(primes) < 2 ** 63
    relations = relations.astype(np.int64 if fits else object, copy=False)
    totals = relations.sum(axis=1)
    g = np.zeros((len(relations), size), dtype=relations.dtype)
    g[:, 0] = -2 * totals
    g[:, 1:n] = relations
    g[:, n + 1:] = relations[:, ::-1]
    for p in primes:
        shift = size // p
        product = np.empty_like(g)                  # x^shift * g - g
        product[:, shift:] = g[:, :size - shift]
        product[:, :shift] = g[:, size - shift:]
        product -= g
        g = product
    return ~g.any(axis=1)


def alternating_cosine_residual(n: int, k: int, m: int, c: int) -> float:
    """Residual of the alternating-cosine cancellation used by witnesses.

    For n = k*m with m > 1 odd and 0 <= c < k, the alternating sum of
    cos((c + j*k) pi / n) over j = 0..m-1 vanishes; returns its absolute
    numeric value.
    """
    if m <= 1 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer > 1, got {m}")
    if n != k * m:
        raise ValueError(f"need n = k*m, got n={n}, k={k}, m={m}")
    if not 0 <= c < k:
        raise ValueError(f"c must lie in 0..{k - 1}, got {c}")
    total = sum((-1) ** j * math.cos((c + j * k) * math.pi / n) for j in range(m))
    return abs(total)


@dataclass(frozen=True)
class CrossCheck:
    """Paired verdicts from the closed-form rule and the lattice pipeline."""

    closed_form: Verdict
    lattice: Verdict

    @property
    def agree(self) -> bool:
        return self.closed_form.has_lpgst == self.lattice.has_lpgst


def cross_check(n: int, a: int) -> CrossCheck:
    """Run both decision routes; disagreement signals a defect somewhere.

    The lattice route runs first, so its size limit refuses n before the
    closed form does any work.
    """
    lattice = decide_path_lpgst(n, a)
    return CrossCheck(closed_form=classify_path(n, a), lattice=lattice)
