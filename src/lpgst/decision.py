"""Decision engine for pretty good transfer between mirror edge pairs
{a, a+1} and {n-a, n-a+1} on the n-vertex path.

Two independent routes produce every verdict: a closed-form rule keyed to
the factorization n = 2^t * (odd part), and an exact lattice pipeline
that computes the integer relation kernel over the support eigenvalues
and tests the minus-sign parity functional on it. No-verdicts carry an
explicit integer witness vector that can be re-verified exactly.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .cyclotomic import MAX_TABLE_N, _prime_factors, theta_table
from .pair_states import path_support_partition
from .relation_lattice import (_product_is_zero, build_relation_system,
                               integer_kernel, parity_holds)

RULE_POWER_OF_TWO = "power-of-two"
RULE_ODD_PRIME = "odd-prime"
RULE_TWO_POWER_TIMES_PRIME = "two-power-times-prime"
RULE_ODD_COMPOSITE = "odd-composite-factor"


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
    """Transfer decision with provenance and optional integer certificate.

    certificate, when present, is a vector over k = 1..n-1 whose
    minus-parity sum (sigma_sum) is odd, refuting transfer.
    """

    has_lpgst: bool
    from_pair: tuple[int, int]
    to_pair: tuple[int, int]
    provenance: str
    rule: str | None = None
    certificate: tuple[int, ...] | None = None
    sigma_sum: int | None = None


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
    """(t, m) with n = 2^t * m and m odd."""
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    return t, n


def path_class(n: int, a: int) -> PathClass:
    """Mutually exclusive instance class from the factorization of n."""
    t, m = factor_two_power(n)
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
    certificate = sigma_sum = None
    if not cls.has_lpgst:
        certificate = witness_relation(n, a)
        part = path_support_partition(n, a)
        sigma_sum = sum(certificate[k - 1] for k in part.minus)
    return Verdict(has_lpgst=cls.has_lpgst, from_pair=frm, to_pair=to,
                   provenance="closed-form", rule=cls.kind,
                   certificate=certificate, sigma_sum=sigma_sum)


def decide_path_lpgst(n: int, a: int) -> Verdict:
    """Exact lattice-pipeline verdict for the mirror edge pairs.

    Mirror pairs are always strongly cospectral, so the decision reduces
    to the parity of the minus functional on the integer kernel of the
    support relation system. A failing parity check yields a certificate
    vector expanded back to indices k = 1..n-1. Refuses n above
    MAX_TABLE_N, the eigenvalue table's bound, before any work.
    """
    _validate_instance(n, a)
    if n > MAX_TABLE_N:
        raise ValueError(
            f"n must be at most {MAX_TABLE_N} for the lattice route, got {n}")
    frm, to = _mirror_pairs(n, a)
    part = path_support_partition(n, a)
    columns, sigma, index_map = build_relation_system(n, part)
    lattice = integer_kernel(columns, index_map)
    holds, bad = parity_holds(lattice, sigma)
    if holds:
        return Verdict(has_lpgst=True, from_pair=frm, to_pair=to,
                       provenance="lattice-parity")
    full = [0] * (n - 1)
    for pos, k in enumerate(index_map):
        full[k - 1] = bad[pos]
    return Verdict(has_lpgst=False, from_pair=frm, to_pair=to,
                   provenance="lattice-parity",
                   certificate=tuple(full), sigma_sum=sigma.dot(bad))


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
    MAX_TABLE_N is refused before the O(n) vector is built.
    """
    _validate_instance(n, a)
    cls = path_class(n, a)
    if cls.has_lpgst:
        return None
    if n > MAX_TABLE_N:       # verify_witness could not re-verify the vector
        raise ValueError(
            f"n must be at most {MAX_TABLE_N} for a witness, got {n}")
    block = 2 ** cls.two_power_exponent
    if cls.kind == RULE_ODD_COMPOSITE:
        reduced = n // math.gcd(a, n)
        block *= next((p for p in _prime_factors(cls.odd_part)
                       if reduced % p == 0), 1)
    return _residue_witness(n, block)


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

    Checks the zero-sum constraint, the exact cyclotomic vanishing of the
    eigenvalue combination (the integer product the kernel re-verification
    runs, over the eigenvalues the vector uses), odd minus-parity, and
    that the vector is supported only on support eigenvalue indices.
    """
    if len(relation) != n - 1:
        raise ValueError(
            f"witness must have length {n - 1} for n={n}, got {len(relation)}")
    # the integer product would truncate a fractional entry to an integer;
    # checked once per distinct type, since an isinstance test per entry
    # took half of a warm call at n = 1001
    types = set(map(type, relation))
    if not all(issubclass(t, numbers.Integral) for t in types):
        raise ValueError("witness entries must be integers")
    # Python ints from here: numpy scalars wrap in sums (int64) and turn to
    # floats in products (uint64 * int64)
    relation = list(map(int, relation))
    part = path_support_partition(n, a)
    sum_zero = sum(relation) == 0
    used = [i for i, v in enumerate(relation) if v]         # positions k - 1
    relation_zero = _product_is_zero(theta_table(n)[used],
                                     [[relation[i] for i in used]])
    sigma_sum = sum(relation[k - 1] for k in part.minus)
    off_support_zero = all(
        relation[k - 1] == 0 for k in part.excluded if 1 <= k <= n - 1)
    return WitnessCheck(sum_zero=sum_zero, relation_zero=relation_zero,
                        parity_odd=sigma_sum % 2 != 0,
                        off_support_zero=off_support_zero,
                        sigma_sum=sigma_sum)


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
