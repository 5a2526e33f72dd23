import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgst import decision
from lpgst.cyclotomic import MAX_TABLE_N
from lpgst.decision import (RULE_ODD_COMPOSITE, RULE_ODD_PRIME,
                            RULE_POWER_OF_TWO, RULE_TWO_POWER_TIMES_PRIME,
                            SamePairError, alternating_cosine_residual,
                            classify_path, cross_check, decide_path_lpgst,
                            factor_two_power, path_class, verify_witness,
                            witness_relation)
from lpgst.pair_states import path_support_partition
from lpgst.relation_lattice import build_relation_system, integer_kernel


def test_factor_two_power():
    assert factor_two_power(8) == (3, 1)
    assert factor_two_power(9) == (0, 9)
    assert factor_two_power(12) == (2, 3)
    assert factor_two_power(18) == (1, 9)


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
    assert verdict.sigma_sum % 2 == 1


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
    assert verdict.provenance == "lattice-parity"

    verdict = decide_path_lpgst(9, 1)
    assert not verdict.has_lpgst
    assert verdict.certificate is not None
    checks = verify_witness(9, 1, verdict.certificate)
    assert checks.sum_zero and checks.relation_zero and checks.parity_odd

    assert decide_path_lpgst(5, 2).has_lpgst


def test_decide_same_pair_error():
    with pytest.raises(SamePairError):
        decide_path_lpgst(6, 3)


def test_witness_relation_case_two():
    assert witness_relation(9, 1) == (1, -1, 0, -1, 1, 0, 1, -1)


def test_witness_relation_case_one_two():
    expected = [0] * 17
    for k in range(1, 18):
        if k % 12 in (1, 8):
            expected[k - 1] = 1
        elif k % 12 in (2, 7):
            expected[k - 1] = -1
    assert witness_relation(18, 1) == tuple(expected)


def test_witness_relation_block_takes_first_eligible_prime():
    # n = 15: block 3 when 3 divides n / gcd(a, n) (a = 1), else block 5
    # (a = 3); both are valid witnesses, and the printed one is pinned
    for a, vec in ((1, (1, -1, 0, -1, 1, 0, 1, -1, 0, -1, 1, 0, 1, -1)),
                   (3, (1, -1, 0, 0, 0, -1, 1, 0, 0, 0, 1, -1, 0, 0))):
        assert witness_relation(15, a) == vec
        checks = verify_witness(15, a, vec)
        assert checks.sum_zero and checks.relation_zero and checks.parity_odd


def test_witness_relation_none_for_yes_instances():
    assert witness_relation(5, 1) is None
    assert witness_relation(8, 3) is None
    assert witness_relation(12, 2) is None
    assert witness_relation(6, 1) is None


def test_witness_relation_refuses_n_above_table_bound(monkeypatch):
    # verify_witness could not re-verify such a vector, and no O(n) vector
    # or support set is built first: the builders are patched to raise
    def built(*args):
        raise AssertionError("an O(n) object was built")

    monkeypatch.setattr(decision, "_residue_witness", built)
    monkeypatch.setattr(decision, "path_support_partition", built)
    for n in (MAX_TABLE_N + 1, 10 ** 9):          # composite odd parts
        assert path_class(n, 1).kind == RULE_ODD_COMPOSITE
        with pytest.raises(ValueError, match=f"at most {MAX_TABLE_N}"):
            witness_relation(n, 1)
        with pytest.raises(ValueError, match=f"at most {MAX_TABLE_N}"):
            classify_path(n, 1)
    # yes-verdicts need no vector and stay O(1) at any n
    assert witness_relation(2 ** 40, 3) is None
    verdict = classify_path(2 ** 40, 3)
    assert verdict.has_lpgst and verdict.certificate is None


def test_witness_relation_two_power_times_prime_necessity():
    # n = 2^t p with 2^(t-1) not dividing a: same residue machinery,
    # block 2^t, and the lattice route must concur.
    for n, a in [(12, 1), (12, 3), (24, 2), (24, 6), (40, 1)]:
        vec = witness_relation(n, a)
        assert vec is not None
        checks = verify_witness(n, a, vec)
        assert checks.sum_zero and checks.relation_zero and checks.parity_odd
        assert checks.off_support_zero
        assert not decide_path_lpgst(n, a).has_lpgst


def test_witness_relation_case_one_one():
    # odd part divides a: n = 36 = 2^2 * 9, a = 9
    vec = witness_relation(36, 9)
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
    assert checks.sigma_sum == classify_path(15, 1).sigma_sum * 2 ** 62
    wide[k] += 1
    assert not verify_witness(15, 1, tuple(wide)).relation_zero


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


@pytest.mark.slow
def test_cross_check_exhaustive_61_to_256():
    for n in range(61, 257):
        for a in range(1, n):
            if 2 * a == n:
                continue
            check = cross_check(n, a)
            assert check.agree, (n, a)
            assert check.closed_form.has_lpgst == _expected_lpgst(n, a), (n, a)
            if not check.lattice.has_lpgst:
                _assert_certificate_verifies(n, a, check.lattice)


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
                assert verdict.sigma_sum % 2 == 1
                checks = verify_witness(n, a, verdict.certificate)
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
            lattice = integer_kernel(columns, index_map)
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
        assert (part.plus, part.minus, part.excluded) == _loop_support_partition(n, a)
    witnesses = [witness_relation(n, a) for n, a in instances if 2 * a != n]
    monkeypatch.setattr(decision, "_residue_witness", _loop_residue_witness)
    assert witnesses == [witness_relation(n, a) for n, a in instances if 2 * a != n]
    assert sum(w is not None for w in witnesses) > 10_000
