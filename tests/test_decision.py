import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgst import cyclotomic, decision
from lpgst.cyclotomic import MAX_TABLE_N, _max_abs, theta_table
from lpgst.decision import (MAX_ODD_PART, MAX_WITNESS_N, RULE_ODD_COMPOSITE,
                            RULE_ODD_PRIME, RULE_POWER_OF_TWO,
                            RULE_TWO_POWER_TIMES_PRIME,
                            SamePairError, alternating_cosine_residual,
                            classify_path, cross_check, decide_path_lpgst,
                            factor_two_power, path_class, verify_witness)
from lpgst.pair_states import exclusion_period, path_support_partition
from lpgst.relation_lattice import (_exact_array, _product_is_zero,
                                    build_relation_system, integer_kernel,
                                    parity_holds)


def test_factor_two_power():
    assert factor_two_power(8) == (3, 1)
    assert factor_two_power(9) == (0, 9)
    assert factor_two_power(12) == (2, 3)
    assert factor_two_power(18) == (1, 9)


def test_path_class_refuses_paths_without_edges():
    # factor_two_power(0) halved 0 forever, and path_class(1, 1) called the
    # one-vertex path a power of two
    for n in (-3, 0, 1):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            path_class(n, 1)
    for n in (-4, 0):
        with pytest.raises(ValueError, match="at least 1"):
            factor_two_power(n)
    assert factor_two_power(1) == (0, 1)


_PAST_BOUNDS = [
    (path_class, (2 ** 61 - 1, 1)),
    (classify_path, (2 ** 61 - 1, 1)),
    (path_class, (MAX_ODD_PART + 1, 1)),
    (classify_path, (2 ** 70 * (MAX_ODD_PART + 1), 3)),
    (cyclotomic.euler_phi, (2 ** 61 - 1,)),
    (cyclotomic.euler_phi, (2 * MAX_TABLE_N + 1,)),
    (cyclotomic.cyclotomic_polynomial, (2 ** 61 - 1,)),
    (cyclotomic.cyclotomic_polynomial, (2 * MAX_TABLE_N + 1,)),
]


@pytest.mark.parametrize("entry,args", _PAST_BOUNDS,
                         ids=[f"{f.__name__}-{args[0]}" for f, args in _PAST_BOUNDS])
def test_size_bounds_refuse_before_any_factoring(monkeypatch, entry, args):
    # trial division to sqrt(2**61 - 1) did not return within 10 s, and
    # Phi_m allocates m + 1 entries first
    def refused(*_):
        raise AssertionError("ran past the size bound")

    for module, name in ((decision, "_prime_factors"), (cyclotomic, "_prime_factors"),
                         (cyclotomic, "_cyclotomic_array")):
        monkeypatch.setattr(module, name, refused)
    with pytest.raises(ValueError, match="at most"):
        entry(*args)


def test_size_bounds_accept_their_largest_input():
    odd_prime = 2 ** 40 - 87                    # the largest prime below 2**40
    assert path_class(2 ** 70 * odd_prime, 1).kind == RULE_TWO_POWER_TIMES_PRIME
    assert path_class(MAX_ODD_PART * 2 ** 30, 1).kind == RULE_POWER_OF_TWO
    assert cyclotomic.euler_phi(2 * MAX_TABLE_N) == MAX_TABLE_N
    assert cyclotomic.cyclotomic_polynomial(2 * MAX_TABLE_N).degree == MAX_TABLE_N


def test_path_class_kinds():
    assert path_class(8, 3).kind == RULE_POWER_OF_TWO
    assert path_class(7, 1).kind == RULE_ODD_PRIME
    assert path_class(12, 1).kind == RULE_TWO_POWER_TIMES_PRIME
    assert path_class(9, 1).kind == RULE_ODD_COMPOSITE
    assert path_class(18, 1).kind == RULE_ODD_COMPOSITE
    cls = path_class(24, 1)
    assert (cls.two_power_exponent, cls.odd_part) == (3, 3)


def test_classify_power_of_two():
    verdict = classify_path(8, 3)
    assert verdict.has_lpgst
    assert verdict.rule == RULE_POWER_OF_TWO
    assert verdict.from_pair == (3, 4)
    assert verdict.to_pair == (5, 6)
    assert verdict.certificate is None


def test_classify_odd_composite_is_no():
    verdict = classify_path(9, 1)
    assert not verdict.has_lpgst
    assert verdict.rule == RULE_ODD_COMPOSITE
    assert verdict.certificate is not None
    assert verify_witness(9, 1, verdict.certificate).sigma_sum % 2 == 1


def test_classify_two_power_times_prime_split():
    assert classify_path(12, 2).has_lpgst
    assert not classify_path(12, 1).has_lpgst
    assert classify_path(12, 1).rule == RULE_TWO_POWER_TIMES_PRIME
    # t = 1: every a is a multiple of 2^0
    for a in (1, 2, 4, 5):
        assert classify_path(6, a).has_lpgst


def test_classify_validates_instance():
    with pytest.raises(SamePairError):
        classify_path(6, 3)
    with pytest.raises(SamePairError):
        classify_path(2, 1)
    with pytest.raises(ValueError):
        classify_path(5, 0)
    with pytest.raises(ValueError):
        classify_path(5, 5)
    with pytest.raises(ValueError):
        classify_path(1, 1)


def test_decide_lattice_pipeline_examples():
    verdict = decide_path_lpgst(4, 1)
    assert verdict.has_lpgst

    verdict = decide_path_lpgst(9, 1)
    assert not verdict.has_lpgst
    assert verdict.certificate is not None
    checks = verify_witness(9, 1, verdict.certificate)
    assert checks.sum_zero and checks.relation_zero and checks.parity_odd
    # an exact Python int, which json.dumps writes as it is
    assert type(checks.sigma_sum) is int
    assert type(verify_witness(9, 1, tuple(np.array(verdict.certificate))).sigma_sum) is int

    assert decide_path_lpgst(5, 2).has_lpgst


def test_decide_same_pair_error():
    with pytest.raises(SamePairError):
        decide_path_lpgst(6, 3)


def test_classify_path_certificate_case_two():
    assert classify_path(9, 1).certificate == (1, -1, 0, -1, 1, 0, 1, -1)


def test_classify_path_certificate_case_one_two():
    expected = [0] * 17
    for k in range(1, 18):
        if k % 12 in (1, 8):
            expected[k - 1] = 1
        elif k % 12 in (2, 7):
            expected[k - 1] = -1
    assert classify_path(18, 1).certificate == tuple(expected)


def test_classify_path_certificate_block_takes_first_eligible_prime():
    # n = 15: block 3 when 3 divides n / gcd(a, n) (a = 1), else block 5
    # (a = 3); both are valid witnesses, and the printed one is pinned
    for a, vec in ((1, (1, -1, 0, -1, 1, 0, 1, -1, 0, -1, 1, 0, 1, -1)),
                   (3, (1, -1, 0, 0, 0, -1, 1, 0, 0, 0, 1, -1, 0, 0))):
        assert classify_path(15, a).certificate == vec
        checks = verify_witness(15, a, vec)
        assert checks.sum_zero and checks.relation_zero and checks.parity_odd


def test_classify_path_certificate_none_for_yes_instances():
    assert classify_path(5, 1).certificate is None
    assert classify_path(8, 3).certificate is None
    assert classify_path(12, 2).certificate is None
    assert classify_path(6, 1).certificate is None


def test_classify_path_refuses_n_above_witness_bound(monkeypatch):
    # no O(n) vector or support set is built before the refusal: the
    # builders are patched to raise
    def built(*args):
        raise AssertionError("an O(n) object was built")

    with monkeypatch.context() as patch:
        patch.setattr(decision, "_residue_witness", built)
        patch.setattr(decision, "path_support_partition", built)
        for n in (MAX_WITNESS_N + 1, 10 ** 9):        # composite odd parts
            assert path_class(n, 1).kind == RULE_ODD_COMPOSITE
            with pytest.raises(ValueError, match=f"at most {MAX_WITNESS_N}"):
                classify_path(n, 1)
        # yes-verdicts need no vector and stay O(1) at any n
        verdict = classify_path(2 ** 40, 3)
        assert verdict.has_lpgst and verdict.certificate is None
    # past the eigenvalue table's bound a no-instance still gets a
    # certificate that re-verifies
    assert path_class(MAX_TABLE_N + 1, 1).kind == RULE_ODD_COMPOSITE
    checks = verify_witness(MAX_TABLE_N + 1, 1,
                            classify_path(MAX_TABLE_N + 1, 1).certificate)
    assert all(checks[:4])


def test_classify_path_certificate_two_power_times_prime_necessity():
    # n = 2^t p with 2^(t-1) not dividing a: same residue machinery,
    # block 2^t, and the lattice route must concur.
    for n, a in [(12, 1), (12, 3), (24, 2), (24, 6), (40, 1)]:
        vec = classify_path(n, a).certificate
        assert vec is not None
        checks = verify_witness(n, a, vec)
        assert checks.sum_zero and checks.relation_zero and checks.parity_odd
        assert checks.off_support_zero
        assert not decide_path_lpgst(n, a).has_lpgst


def test_classify_path_certificate_case_one_one():
    # odd part divides a: n = 36 = 2^2 * 9, a = 9
    vec = classify_path(36, 9).certificate
    assert vec is not None
    checks = verify_witness(36, 9, vec)
    assert checks.sum_zero and checks.relation_zero and checks.parity_odd
    assert checks.off_support_zero


def test_verify_witness_zero_vector():
    checks = verify_witness(9, 1, (0,) * 8)
    assert checks.sum_zero and checks.relation_zero and not checks.parity_odd


def test_verify_witness_distinct_eigenvalues_break_relation():
    checks = verify_witness(4, 1, (1, -1, 0))
    assert checks.sum_zero and not checks.relation_zero


_COMPOSITE_ODD_PART = [n for n in range(2, 501)
                       if path_class(n, 1).kind == RULE_ODD_COMPOSITE]


@st.composite
def _composite_odd_part_instances(draw):
    n = draw(st.sampled_from(_COMPOSITE_ODD_PART))
    a = draw(st.integers(1, n - 1).filter(lambda a: 2 * a != n))
    support = sorted(path_support_partition(n, a).support)
    i, j = draw(st.lists(st.sampled_from(support), min_size=2, max_size=2,
                         unique=True))
    return n, a, i, j


@settings(max_examples=40, deadline=None)
@given(_composite_odd_part_instances())
def test_witnesses_verify_and_perturbations_break_them(instance):
    n, a, i, j = instance
    cert = classify_path(n, a).certificate
    checks = verify_witness(n, a, cert)
    assert checks.sum_zero and checks.relation_zero
    assert checks.parity_odd and checks.off_support_zero
    # path eigenvalues are distinct, so theta_i - theta_j is never zero
    moved = list(cert)
    moved[i - 1] += 1
    moved[j - 1] -= 1
    assert not verify_witness(n, a, tuple(moved)).relation_zero


def _partition_witness_check(n, a, relation):
    """verify_witness's flags and sigma_sum summed over the frozensets of
    path_support_partition: the reference for its slices."""
    part = path_support_partition(n, a)
    sigma_sum = sum(relation[k - 1] for k in part.minus)
    return (sum(relation) == 0,
            bool(decision._theta_sums_vanish(n, _exact_array([relation]))[0]),
            sigma_sum % 2 != 0,
            all(relation[k - 1] == 0 for k in range(1, n) if k not in part.support),
            sigma_sum)


def test_verify_witness_slices_match_support_partition():
    rng = random.Random(64)
    for n in range(2, 65):
        for a in range(1, n):
            relation = [rng.randint(-3, 3) for _ in range(n - 1)]
            # one vector as drawn, one zero off the support
            q = n // math.gcd(a, n)
            clean = [0 if k % q == 0 else v for k, v in enumerate(relation, 1)]
            for vec in (relation, clean):
                assert (tuple(verify_witness(n, a, tuple(vec)))
                        == _partition_witness_check(n, a, vec)), (n, a, vec)


@st.composite
def _instances_with_vectors(draw):
    n = draw(st.integers(2, 150))
    a = draw(st.integers(1, n - 1))
    entries = st.integers(-2 ** 70, 2 ** 70) | st.integers(-2, 2)
    return n, a, draw(st.lists(entries, min_size=n - 1, max_size=n - 1))


@settings(max_examples=60, deadline=None)
@given(_instances_with_vectors())
def test_verify_witness_slices_match_support_partition_hypothesis(instance):
    n, a, relation = instance
    assert (tuple(verify_witness(n, a, tuple(relation)))
            == _partition_witness_check(n, a, relation))


@pytest.mark.parametrize("a", [0, 9, -1])
def test_verify_witness_refuses_a_outside_the_path(a):
    with pytest.raises(ValueError, match="a must lie in 1..8"):
        verify_witness(9, a, (0,) * 8)


def test_verify_witness_length_check():
    with pytest.raises(ValueError, match="length"):
        verify_witness(9, 1, (1, -1))


@pytest.mark.parametrize("scale", [2 ** 63, 2 ** 64 + 1])
def test_verify_witness_exact_on_entries_past_int64(scale):
    # entries of both signs past int64 would turn a numpy array of the
    # tuple into float64, where + 1 is lost
    cert = classify_path(15, 1).certificate
    scaled = [c * scale for c in cert]
    assert verify_witness(15, 1, tuple(scaled)).relation_zero
    k = next(i for i, c in enumerate(scaled) if c)
    scaled[k] += 1
    assert not verify_witness(15, 1, tuple(scaled)).relation_zero
    # numpy int64 entries are integers too; products and sums stay exact
    wide = np.array([c * 2 ** 62 for c in cert], dtype=np.int64)
    checks = verify_witness(15, 1, tuple(wide))
    assert checks.relation_zero
    assert checks.sigma_sum == verify_witness(15, 1, cert).sigma_sum * 2 ** 62
    wide[k] += 1
    assert not verify_witness(15, 1, tuple(wide)).relation_zero


def _kernel_rows(n, a):
    """The lattice route's kernel basis for (n, a), one row per vector,
    expanded to the entries k = 1..n-1."""
    columns, _, index_map = build_relation_system(n, path_support_partition(n, a))
    lattice = integer_kernel(columns)
    rows = np.zeros((lattice.rank, n - 1), dtype=np.int64)
    rows[:, np.array(index_map) - 1] = np.array(
        lattice.basis, dtype=np.int64).reshape(lattice.rank, lattice.dimension)
    return rows


def _assert_root_check_matches_table(ns, seed):
    """On every kernel basis vector of every valid (n, a), and on one seeded
    e_i - e_j perturbation of each, the table-free check gives the answer
    of the table product."""
    rng = random.Random(seed)
    for n in ns:
        table = theta_table(n)
        exact_table = table.astype(np.float64)
        kernels = {}        # the kernel depends on a only through the period
        for a in range(1, n):
            if 2 * a == n:
                continue
            q = exclusion_period(n, a)
            if q not in kernels:
                kernels[q] = _kernel_rows(n, a)
            basis = kernels[q]
            # a whole basis per call: every vector vanishes under both
            assert _product_is_zero(table, basis), (n, a)
            assert decision._theta_sums_vanish(n, basis).all(), (n, a)
            moved = basis.copy()
            i, j = np.array([rng.sample(range(n - 1), 2) for _ in moved],
                            dtype=np.intp).reshape(-1, 2).T
            rows = np.arange(len(moved))
            moved[rows, i] += 1
            moved[rows, j] -= 1
            # one float64 product for every row, exact as in _product_is_zero:
            # every partial sum is an integer below 2**53
            assert (_max_abs(moved).bit_length() + _max_abs(table).bit_length()
                    + (n - 1).bit_length() < 53), (n, a)
            expected = (~(moved @ exact_table).any(axis=1)).tolist()
            assert decision._theta_sums_vanish(n, moved).tolist() == expected, (n, a)


def test_root_check_matches_table_product():
    _assert_root_check_matches_table(range(3, 65), seed=0)


@pytest.mark.slow
def test_root_check_matches_table_product_65_to_256():
    _assert_root_check_matches_table(range(65, 257), seed=1)


@st.composite
def _kernel_combinations(draw):
    n = draw(st.integers(3, 64))
    a = draw(st.integers(1, n - 1).filter(lambda a: 2 * a != n))
    basis = _kernel_rows(n, a)
    coefficients = draw(st.lists(st.integers(-2 ** 70, 2 ** 70),
                                 min_size=len(basis), max_size=len(basis)))
    vec = [0] * (n - 1)
    for c, row in zip(coefficients, basis.tolist()):
        vec = [v + c * r for v, r in zip(vec, row)]
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=2,
                             unique=True))
        vec[i] += 1
        vec[j] -= 1
    return n, vec


@settings(max_examples=60, deadline=None)
@given(_kernel_combinations())
def test_root_check_matches_table_product_on_combinations(instance):
    # coefficients up to 2**70 put some vectors past int64, where both
    # checks take their Python-int route
    n, vec = instance
    got = decision._theta_sums_vanish(n, _exact_array([vec]))
    assert got.tolist() == [_product_is_zero(theta_table(n), [vec])]


@pytest.mark.parametrize("n", [15, 105])
def test_root_check_straddles_its_integer_type_bound(n):
    # int64 runs while (2n * max|v|) << (number of primes of 2n) < 2**63:
    # a witness scaled by 2**top takes int64, by 2**(top + 1) Python ints
    omega = len(cyclotomic._prime_factors(2 * n))
    top = (2 ** 63 // (2 * n << omega)).bit_length() - 1
    table = theta_table(n)
    cert = classify_path(n, 1).certificate
    i = next(i for i, c in enumerate(cert) if c)
    for k in (top, top + 1):
        assert ((2 * n * 2 ** k) << omega < 2 ** 63) == (k == top)
        vec = [c * 2 ** k for c in cert]
        moved = vec.copy()
        moved[i] -= cert[i]                     # one step toward zero
        rows = _exact_array([vec, moved])
        assert rows.dtype == np.int64
        expected = [_product_is_zero(table, [vec]), _product_is_zero(table, [moved])]
        assert expected == [True, False]
        assert decision._theta_sums_vanish(n, rows).tolist() == expected, k


def test_verify_witness_reads_no_eigenvalue_table(monkeypatch):
    def built(*args):
        raise AssertionError("an eigenvalue table was built")

    theta_table.cache_clear()
    monkeypatch.setattr(cyclotomic, "_theta_rows", built)
    monkeypatch.setattr(cyclotomic, "_cyclotomic_array", built)
    for n in (2047, 2049):                      # both sides of MAX_TABLE_N
        cert = classify_path(n, 1).certificate
        assert all(verify_witness(n, 1, cert)[:4])
        moved = list(cert)
        moved[0] += 1
        moved[1] -= 1
        assert not verify_witness(n, 1, tuple(moved)).relation_zero


def test_verify_witness_product_does_not_wrap():
    # w is no relation, but its root-of-unity product has entries 0 and +-4:
    # at 2**62 * w they are 0 and +-2**64, which an int64 product would wrap
    # to a false zero
    w = (-1, -1, 0, -1, 1, 0, 1, 1)
    assert not verify_witness(9, 1, w).relation_zero
    assert not verify_witness(9, 1, tuple(c * 2 ** 62 for c in w)).relation_zero


def test_verify_witness_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        verify_witness(9, 1, (0.5, -0.5, 0, 0, 0, 0, 0, 0))


def test_alternating_cosine_residual_examples():
    assert alternating_cosine_residual(6, 2, 3, 0) < 1e-15
    assert alternating_cosine_residual(9, 3, 3, 1) < 1e-12
    assert alternating_cosine_residual(45, 9, 5, 4) < 1e-12


def test_alternating_cosine_residual_preconditions():
    with pytest.raises(ValueError):
        alternating_cosine_residual(6, 3, 2, 0)   # m even
    with pytest.raises(ValueError):
        alternating_cosine_residual(6, 2, 3, 2)   # c out of range
    with pytest.raises(ValueError):
        alternating_cosine_residual(7, 2, 3, 0)   # n != k*m


def test_alternating_cosine_residual_refuses_n_above_witness_bound(monkeypatch):
    # the sum over m = 3**21 terms did not return within 5 s; no cosine is
    # taken before the refusal
    def summed(_):
        raise AssertionError("the sum ran past the size bound")

    with monkeypatch.context() as patch:
        patch.setattr(math, "cos", summed)
        with pytest.raises(ValueError, match=f"at most {MAX_WITNESS_N}"):
            alternating_cosine_residual(3 ** 21, 1, 3 ** 21, 0)
    n = MAX_WITNESS_N - 1                       # 3 * 5^2 * 11 * 31 * 41
    assert alternating_cosine_residual(n, n // 3, 3, 0) < 1e-12


def test_cross_check_agreement_small_range():
    for n in range(2, 31):
        for a in range(1, n):
            if 2 * a == n:
                continue
            assert cross_check(n, a).agree, (n, a)


def _expected_lpgst(n, a):
    """The characterization, restated: n a power of two or an odd prime, or
    n = 2^t * p (p an odd prime, t >= 1) with 2^(t-1) dividing a."""
    t, odd = factor_two_power(n)
    if odd == 1:
        return True
    if any(odd % q == 0 for q in range(3, math.isqrt(odd) + 1, 2)):
        return False
    return t == 0 or a % 2 ** (t - 1) == 0


def _assert_certificate_verifies(n, a, verdict):
    checks = verify_witness(n, a, verdict.certificate)
    assert checks.sum_zero and checks.relation_zero, (n, a)
    assert checks.parity_odd and checks.off_support_zero, (n, a)


def _fold_verdict(digest, n, a, verdict):
    digest.update(repr((n, a, verdict.has_lpgst, verdict.certificate)).encode())


# sha256 of every lattice verdict and certificate, folded in (n, a) order;
# pinned when the elimination gained its unit-pivot steps, so any change to
# the basis a certificate is drawn from shows here
_LATTICE_DIGEST_3_TO_64 = "97ab068e22a9c91773ed22be1b5d12ecc23c83ccea905cb439f6219eef59ae3b"
_LATTICE_DIGEST_61_TO_256 = "502fa7c8cf128de974b17f3eb3030816cdefec3ed9b56c15a190001ad7999da8"


def test_lattice_certificates_match_pinned_digest_3_to_64():
    digest = hashlib.sha256()
    for n in range(3, 65):
        for a in range(1, n):
            if 2 * a != n:
                _fold_verdict(digest, n, a, decide_path_lpgst(n, a))
    assert digest.hexdigest() == _LATTICE_DIGEST_3_TO_64


def _pipeline_verdict(n, a):
    """The lattice pipeline run at a itself, with no memo."""
    columns, sigma, index_map = build_relation_system(
        n, path_support_partition(n, a))
    holds, bad = parity_holds(integer_kernel(columns), sigma)
    frm, to = (a, a + 1), (n - a, n - a + 1)
    if holds:
        return decision.Verdict(True, frm, to)
    full = [0] * (n - 1)
    for pos, k in enumerate(index_map):
        full[k - 1] = bad[pos]
    return decision.Verdict(False, frm, to, certificate=tuple(full))


def test_memoized_verdicts_match_the_pipeline_at_every_offset():
    # one verdict per (n, exclusion period), computed at a = n // period,
    # serves every a of that period
    decision._lattice_verdict.cache_clear()
    systems = set()
    for n in range(3, 49):
        for a in range(1, n):
            if 2 * a != n:
                assert decide_path_lpgst(n, a) == _pipeline_verdict(n, a), (n, a)
                systems.add((n, exclusion_period(n, a)))
    assert decision._lattice_verdict.cache_info().misses == len(systems)


def test_offsets_of_one_exclusion_period_share_the_certificate():
    for n, a, b in [(9, 1, 2), (15, 1, 7), (15, 3, 6), (45, 5, 10)]:
        assert exclusion_period(n, a) == exclusion_period(n, b)
        first = decide_path_lpgst(n, a).certificate
        assert first is not None
        assert decide_path_lpgst(n, b).certificate is first


def test_one_kernel_per_exclusion_period(monkeypatch):
    # the memo calls the pipeline through decision's own names, where a
    # tracer or a patch sees every call
    calls = []

    def counted(*args):
        calls.append(args)
        return integer_kernel(*args)

    monkeypatch.setattr(decision, "integer_kernel", counted)
    decision._lattice_verdict.cache_clear()
    for a in (1, 2, 4, 3, 6, 1):            # periods 9, 9, 9, 3, 3, 9
        decide_path_lpgst(9, a)
    assert len(calls) == 2


def test_lattice_verdict_memo_size():
    assert decision._lattice_verdict.cache_parameters()["maxsize"] == 256


@pytest.mark.slow
def test_cross_check_exhaustive_61_to_256():
    digest = hashlib.sha256()
    for n in range(61, 257):
        for a in range(1, n):
            if 2 * a == n:
                continue
            check = cross_check(n, a)
            assert check.agree, (n, a)
            assert check.closed_form.has_lpgst == _expected_lpgst(n, a), (n, a)
            if not check.lattice.has_lpgst:
                _assert_certificate_verifies(n, a, check.lattice)
            _fold_verdict(digest, n, a, check.lattice)
    assert digest.hexdigest() == _LATTICE_DIGEST_61_TO_256


@pytest.mark.slow
@pytest.mark.parametrize("n", [1024, 2030, 2039, 2047, MAX_TABLE_N])
def test_cross_check_at_the_table_bound(n):
    check = cross_check(n, 1)
    assert check.agree
    assert check.closed_form.has_lpgst == _expected_lpgst(n, 1)
    if not check.lattice.has_lpgst:
        _assert_certificate_verifies(n, 1, check.lattice)


def test_no_verdicts_always_carry_odd_certificates():
    for n in range(2, 31):
        for a in range(1, n):
            if 2 * a == n:
                continue
            verdict = decide_path_lpgst(n, a)
            if verdict.has_lpgst:
                assert verdict.certificate is None
            else:
                assert verdict.certificate is not None
                checks = verify_witness(n, a, verdict.certificate)
                assert checks.sigma_sum % 2 == 1
                assert checks.sum_zero and checks.relation_zero
                assert checks.parity_odd and checks.off_support_zero


def test_kernel_basis_mirror_symmetry_for_two_power_times_prime():
    # When transfer exists for n = 2^t p, every kernel vector agrees on
    # the even positions k and n - k.
    for n in (6, 12, 20, 24):
        t, _ = factor_two_power(n)
        for a in range(1, n):
            if 2 * a == n or a % (2 ** (t - 1)) != 0:
                continue
            part = path_support_partition(n, a)
            columns, _, index_map = build_relation_system(n, part)
            lattice = integer_kernel(columns)
            pos = {k: i for i, k in enumerate(index_map)}
            for vec in lattice.basis:
                for k in range(2, n - 1, 2):
                    if k in pos:
                        assert vec[pos[k]] == vec[pos[n - k]], (n, a, vec, k)


def _loop_support_partition(n, a):
    """path_support_partition as a loop over k, as it was first written."""
    plus, minus, excluded = set(), set(), set()
    for k in range(n):
        if (a * k) % n == 0:
            excluded.add(k)
        elif k % 2 == 1:
            plus.add(k)
        else:
            minus.add(k)
    return plus, minus, excluded


def _loop_residue_witness(n, block):
    """decision._residue_witness as a loop over k, as it was first written."""
    period = 2 * block
    plus = {1 % period, (block + 2) % period}
    minus = {2 % period, (block + 1) % period}
    vec = []
    for k in range(1, n):
        res = k % period
        if res in plus:
            vec.append(1)
        elif res in minus:
            vec.append(-1)
        else:
            vec.append(0)
    return tuple(vec)


def test_partition_and_witness_match_per_k_loops(monkeypatch):
    instances = [(n, a) for n in range(2, 201) for a in range(1, n)]
    for n, a in instances:
        part = path_support_partition(n, a)
        plus, minus, excluded = _loop_support_partition(n, a)
        assert (part.plus, part.minus) == (plus, minus)
        assert not excluded & part.support
    witnesses = [classify_path(n, a).certificate for n, a in instances if 2 * a != n]
    monkeypatch.setattr(decision, "_residue_witness", _loop_residue_witness)
    assert witnesses == [classify_path(n, a).certificate for n, a in instances if 2 * a != n]
    assert sum(w is not None for w in witnesses) > 10_000
