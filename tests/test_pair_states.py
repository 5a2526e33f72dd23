import math
import sys
import tracemalloc

import numpy as np
import pytest
from _strategies import graphs_with_pairs
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lpgst import _kernels
from lpgst.graphs import Graph, laplacian
from lpgst.pair_states import (MAX_SWEEP_STEPS, NotCospectralError,
                               _insert_in_place, fidelity_sweep, pair_fidelity,
                               pair_vector, path_support_partition,
                               strong_cospectrality, support, transfer_weights)
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


@settings(max_examples=100, deadline=None)
@given(graphs_with_pairs(), st.floats(0.0, 100.0))
def test_pair_fidelity_bounded_and_symmetric_on_random_graphs(case, t):
    g, frm, to = case
    lap = laplacian(g)
    s = eigendecompose(lap)
    forward = pair_fidelity(s, frm, to, t)
    assert 0.0 <= forward <= 1.0
    # U(t) is symmetric, so swapping the pairs keeps the amplitude
    assert pair_fidelity(s, to, frm, t) == pytest.approx(forward, abs=1e-12)
    assert forward == pytest.approx(_expm_fidelity(lap, frm, to, t), abs=1e-9)


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
    assert (sorted(p.plus), sorted(p.minus)) == ([1, 3], [2])
    assert not {0} & p.support
    p = path_support_partition(4, 2)
    assert (sorted(p.plus), sorted(p.minus)) == ([1, 3], [])
    assert not {0, 2} & p.support
    p = path_support_partition(9, 3)
    assert not {0, 3, 6} & p.support
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


def test_fidelity_sweep_validates_arguments():
    s = path_spectrum(3)
    for t_max in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fidelity_sweep(s, (1, 2), (2, 3), t_max, 100)
    with pytest.raises(ValueError):
        fidelity_sweep(s, (1, 2), (2, 3), 10.0, 1)


class _GridBuilt(Exception):
    pass


def test_fidelity_sweep_steps_limit_at_largest_spectrum(monkeypatch):
    def grid(*args):
        raise _GridBuilt
    monkeypatch.setattr(_kernels, "fidelity_grid", grid)
    s = path_spectrum(1024)
    with pytest.raises(_GridBuilt):    # accepted: it reached the grid
        fidelity_sweep(s, (1, 2), (1023, 1024), 10.0, MAX_SWEEP_STEPS)
    with pytest.raises(ValueError,
                       match=f"steps must lie in 2..{MAX_SWEEP_STEPS}, "
                             f"got {MAX_SWEEP_STEPS + 1}"):
        fidelity_sweep(s, (1, 2), (1023, 1024), 10.0, MAX_SWEEP_STEPS + 1)


def test_fidelity_sweep_step_rule_both_sides():
    s = path_spectrum(2)
    # linspace rounds these grids to repeated times, such as 0, 0, 5e-324
    for t_max, steps in ((5e-324, 3), (1e-323, 4)):
        with pytest.raises(ValueError,
                           match="t_max / \\(steps - 1\\) must be at least"):
            fidelity_sweep(s, (1, 2), (2, 1), t_max, steps)
    for steps in (2, 3, 4, 1000):
        t_max = 2 * (steps - 1) * sys.float_info.min
        trace = fidelity_sweep(s, (1, 2), (2, 1), t_max, steps)
        assert np.all(np.diff(trace.times) > 0)


@st.composite
def _mirror_path_sweeps(draw):
    n = draw(st.integers(3, 30))
    a = draw(st.integers(1, n - 1))
    t_max = 10.0 ** draw(st.floats(-300.0, 6.0))
    return n, a, t_max, draw(st.integers(2, 3000))


@settings(max_examples=100, deadline=None)
@given(_mirror_path_sweeps())
@example((9, 1, 50.0, 2000))
@example((4, 1, 5e-324, 3))
@example((4, 1, 1e-323, 4))
@example((13, 8, 2.999433138510301e-82, 2237))  # refined time on a grid time
def test_fidelity_sweep_trace_invariants(sweep):
    n, a, t_max, steps = sweep
    frm, to = (a, a + 1), (n - a, n - a + 1)
    if t_max / (steps - 1) < sys.float_info.min:
        with pytest.raises(ValueError):
            fidelity_sweep(path_spectrum(n), frm, to, t_max, steps)
        return
    trace = fidelity_sweep(path_spectrum(n), frm, to, t_max, steps)
    assert trace.times.shape == trace.fidelities.shape
    assert np.all(np.diff(trace.times) > 0)
    assert np.all(trace.fidelities >= 0.0) and np.all(trace.fidelities <= 1.0)
    assert len(trace.times) in (steps, steps + 1)
    assert trace.sup_estimate == trace.fidelities.max()
    assert trace.argmax_time == trace.times[np.argmax(trace.fidelities)]


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


def _family_graphs():
    """Paths, cycles, stars, complete, hypercube, complete bipartite and
    seeded random graphs: simple spectra and every kind of repeated one."""
    def graph(n, edges):
        return Graph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    out = [graph(n, [(k, k + 1) for k in range(1, n)]) for n in (2, 7, 16)]
    out += [graph(n, [(k, k % n + 1) for k in range(1, n + 1)]) for n in (5, 8, 12)]
    out += [graph(n, [(1, v) for v in range(2, n + 1)]) for n in (4, 7)]
    out += [graph(n, [(u, v) for u in range(1, n + 1)
                      for v in range(u + 1, n + 1)]) for n in (4, 6)]
    out.append(graph(8, [(u + 1, (u ^ (1 << b)) + 1) for u in range(8)
                         for b in range(3)]))
    out += [graph(p + q, [(u, v) for u in range(1, p + 1)
                          for v in range(p + 1, p + q + 1)])
            for p, q in ((2, 3), (3, 3))]
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(3, 14))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        keep = rng.random(len(pairs)) < 0.4
        out.append(graph(n, [p for p, k in zip(pairs, keep) if k]))
    return out


def test_transfer_weights_match_projector_einsum():
    # Reference: the weights were this einsum over the stored projectors.
    rng = np.random.default_rng(23)
    checked = repeated = 0
    for g in _family_graphs():
        s = eigendecompose(laplacian(g))
        spectra = [s, path_spectrum(g.n)] if g.n >= 2 else [s]
        repeated += int((s.multiplicities > 1).any())
        for spec in spectra:
            for _ in range(8):
                frm = tuple(int(x) for x in rng.choice(g.n, 2, replace=False) + 1)
                to = tuple(int(x) for x in rng.choice(g.n, 2, replace=False) + 1)
                u, v = pair_vector(g.n, frm), pair_vector(g.n, to)
                expected = np.einsum("i,rij,j->r", u, spec.projectors, v)
                got = transfer_weights(spec, frm, to)
                assert np.abs(got - expected).max() <= 1e-15, (g, frm, to)
                checked += 1
    assert repeated >= 10 and checked > 300


def test_transfer_weights_allocate_no_square_array():
    # C512: 255 two-dimensional eigenspaces, each of which once cost an
    # n x n Gram product
    n = 512
    s = eigendecompose(laplacian(Graph(n, frozenset(
        (min(k, k % n + 1), max(k, k % n + 1)) for k in range(1, n + 1)))))
    assert (s.multiplicities == 2).sum() == 255
    tracemalloc.start()
    try:
        w = transfer_weights(s, (1, 2), (257, 258))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.shape == (257,)
    assert peak < 8 * n * 8    # a few n-vectors; an n x n array is 2 MiB


def test_numeric_path_does_not_build_projectors():
    s = eigendecompose(laplacian(Graph(8, frozenset(
        (min(k, k % 8 + 1), max(k, k % 8 + 1)) for k in range(1, 9)))))
    transfer_weights(s, (1, 2), (5, 6))
    support(s, (1, 2))
    strong_cospectrality(s, (1, 2), (5, 6))
    fidelity_sweep(s, (1, 2), (5, 6), 10.0, 100)
    assert "projectors" not in vars(s)
    assert s.projectors.shape == (5, 8, 8)
    assert "projectors" in vars(s)


@pytest.mark.parametrize("pos", [0, 1, 6, 7])
def test_insert_in_place_matches_np_insert(pos):
    values = np.arange(7.0) * 0.5
    want = np.insert(values, pos, -1.0)
    _insert_in_place(values, pos, -1.0)
    assert np.array_equal(values, want)


def test_sweep_holds_no_third_trace_array():
    # the grid output is clipped in place and the refined point is inserted
    # in place, so at most two arrays of the grid's length are alive at once
    steps = 200_000
    # puts the transfer time pi/2 of the 3-path halfway between the last two
    # grid points, so the refined point is inserted
    t_max = math.pi / 2 * (steps - 1) / (steps - 1.5)
    s = path_spectrum(3)
    tracemalloc.start()
    try:
        trace = fidelity_sweep(s, (1, 2), (2, 3), t_max, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.times.size == trace.fidelities.size == steps + 1
    assert peak < 2.5 * 8 * steps
