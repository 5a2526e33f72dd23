import math

import numpy as np
import pytest
from scipy.linalg import expm

from lpgst.graphs import Graph, laplacian
from lpgst.pair_states import (NotCospectralError, fidelity_sweep,
                               pair_fidelity, pair_vector,
                               path_support_partition, strong_cospectrality,
                               support, transfer_weights)
from lpgst.spectra import eigendecompose, path_spectrum

SQRT2 = math.sqrt(2.0)


def _expm_fidelity(lap, frm, to, t):
    """Independent oracle: fidelity via the Pade matrix exponential."""
    n = lap.shape[0]
    u = pair_vector(n, frm)
    v = pair_vector(n, to)
    amp = 0.5 * (u @ expm(-1j * t * lap.astype(float)) @ v)
    return abs(amp) ** 2


def test_pair_fidelity_self_at_zero():
    s = path_spectrum(7)
    assert pair_fidelity(s, (3, 4), (3, 4), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_pair_fidelity_p3_quarter_period():
    s = path_spectrum(3)
    assert pair_fidelity(s, (1, 2), (2, 3), math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_pair_fidelity_p4_exact_transfer():
    s = path_spectrum(4)
    t = math.pi / math.sqrt(2.0)
    assert pair_fidelity(s, (1, 2), (3, 4), t) == pytest.approx(1.0, abs=1e-10)


def test_pair_fidelity_matches_expm_oracle():
    rng = np.random.default_rng(17)
    g = Graph(6, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)}))
    lap = laplacian(g)
    s = eigendecompose(lap)
    for _ in range(25):
        t = float(rng.uniform(0.0, 30.0))
        frm = (1, 2)
        to = (4, 5)
        assert pair_fidelity(s, frm, to, t) == pytest.approx(
            _expm_fidelity(lap, frm, to, t), abs=1e-10)


def test_pair_fidelity_symmetric_in_pairs():
    s = path_spectrum(8)
    rng = np.random.default_rng(23)
    for _ in range(30):
        t = float(rng.uniform(0.0, 100.0))
        assert pair_fidelity(s, (2, 3), (6, 7), t) == pytest.approx(
            pair_fidelity(s, (6, 7), (2, 3), t), abs=1e-12)


def test_pair_fidelity_dimension_mismatch():
    s = path_spectrum(4)
    with pytest.raises(ValueError):
        pair_fidelity(s, (1, 5), (1, 2), 0.0)


def test_support_p4_middle_edge():
    s = path_spectrum(4)
    # a = 2 kills the k = 2 eigenvalue (4 divides 2*2); 0 is never supported.
    assert support(s, (2, 3)) == frozenset({1, 3})
    values = sorted(s.eigenvalues[r] for r in support(s, (2, 3)))
    assert values == pytest.approx([2.0 - SQRT2, 2.0 + SQRT2])


def test_support_p3_end_edge():
    s = path_spectrum(3)
    assert support(s, (1, 2)) == frozenset({1, 2})
    assert sorted(s.eigenvalues[r] for r in support(s, (1, 2))) == pytest.approx([1.0, 3.0])


def test_kernel_never_supported_on_connected_graphs():
    for n in (2, 5, 9):
        s = path_spectrum(n)
        for a in range(1, n):
            assert 0 not in support(s, (a, a + 1))


def test_support_weights_sum_to_two():
    s = path_spectrum(13)
    u = pair_vector(13, (4, 5))
    total = sum(np.linalg.norm(s.projectors[r] @ u) ** 2
                for r in support(s, (4, 5)))
    assert total == pytest.approx(2.0, abs=1e-9)


def test_path_support_partition_examples():
    p = path_support_partition(4, 1)
    assert (sorted(p.plus), sorted(p.minus), sorted(p.excluded)) == ([1, 3], [2], [0])
    p = path_support_partition(4, 2)
    assert (sorted(p.plus), sorted(p.minus), sorted(p.excluded)) == ([1, 3], [], [0, 2])
    p = path_support_partition(9, 3)
    assert sorted(p.excluded) == [0, 3, 6]
    assert sorted(p.plus) == [1, 5, 7]
    assert sorted(p.minus) == [2, 4, 8]


def test_path_support_partition_validates_a():
    with pytest.raises(ValueError):
        path_support_partition(5, 0)
    with pytest.raises(ValueError):
        path_support_partition(5, 5)


def test_numeric_support_matches_exact_partition():
    for n in range(2, 41):
        s = path_spectrum(n)
        for a in range(1, n):
            exact = path_support_partition(n, a)
            assert support(s, (a, a + 1)) == exact.support, (n, a)


def test_strong_cospectrality_matches_exact_partition():
    for n in range(2, 41):
        s = path_spectrum(n)
        for a in range(1, n):
            got = strong_cospectrality(s, (a, a + 1), (n - a, n - a + 1))
            exact = path_support_partition(n, a)
            assert got == exact, (n, a)


def test_strong_cospectrality_fails_off_mirror():
    s = path_spectrum(7)
    with pytest.raises(NotCospectralError) as err:
        strong_cospectrality(s, (1, 2), (4, 5))  # a=1 vs b=3
    assert err.value.index >= 0


def test_strong_cospectrality_pair_with_itself():
    s = path_spectrum(6)
    part = strong_cospectrality(s, (2, 3), (2, 3))
    assert part.minus == frozenset()
    assert part.plus == support(s, (2, 3))


def test_fidelity_sweep_p3_finds_transfer():
    s = path_spectrum(3)
    trace = fidelity_sweep(s, (1, 2), (2, 3), 10.0, 10_000)
    assert trace.sup_estimate > 1.0 - 1e-8
    # transfer recurs at odd multiples of pi/2
    ratio = trace.argmax_time / (math.pi / 2)
    assert ratio == pytest.approx(round(ratio), abs=1e-4)


def test_fidelity_sweep_self_transfer():
    s = path_spectrum(5)
    trace = fidelity_sweep(s, (2, 3), (2, 3), 4.0, 1000)
    assert trace.sup_estimate == pytest.approx(1.0, abs=1e-12)
    assert trace.argmax_time == pytest.approx(0.0, abs=2 * 4.0 / 999)


def test_fidelity_sweep_trace_invariants():
    s = path_spectrum(9)
    trace = fidelity_sweep(s, (1, 2), (8, 9), 50.0, 2000)
    assert trace.times.shape == trace.fidelities.shape
    assert np.all(np.diff(trace.times) > 0)
    assert np.all(trace.fidelities >= 0.0) and np.all(trace.fidelities <= 1.0)
    assert trace.sup_estimate == pytest.approx(trace.fidelities.max(), abs=0)
    idx = int(np.argmax(trace.fidelities))
    assert trace.argmax_time == pytest.approx(trace.times[idx], abs=0)


def test_fidelity_sweep_validates_arguments():
    s = path_spectrum(3)
    for t_max in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fidelity_sweep(s, (1, 2), (2, 3), t_max, 100)
    with pytest.raises(ValueError):
        fidelity_sweep(s, (1, 2), (2, 3), 10.0, 1)


def test_transfer_weights_match_projector_quadratic_form():
    s = path_spectrum(6)
    u = pair_vector(6, (1, 2))
    v = pair_vector(6, (5, 6))
    w = transfer_weights(s, (1, 2), (5, 6))
    for r in range(s.eigenvalues.size):
        assert w[r] == pytest.approx(float(u @ s.projectors[r] @ v), abs=1e-14)


def test_pair_vector_validation():
    with pytest.raises(ValueError):
        pair_vector(4, (2, 2))
    with pytest.raises(ValueError):
        pair_vector(4, (0, 1))
