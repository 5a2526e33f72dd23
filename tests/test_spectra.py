import math

import numpy as np
import pytest
from _strategies import graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgst.graphs import Graph, laplacian, make_path
from scipy.linalg import eigh as scipy_eigh

from lpgst import spectra
from lpgst.spectra import (eigendecompose, path_spectrum, projector_residuals,
                           transition_matrix)


def test_path_spectrum_small_eigenvalues():
    assert np.allclose(path_spectrum(2).eigenvalues, [0.0, 2.0])
    assert np.allclose(path_spectrum(3).eigenvalues, [0.0, 1.0, 3.0])
    r2 = math.sqrt(2.0)
    assert np.allclose(path_spectrum(4).eigenvalues, [0.0, 2.0 - r2, 2.0, 2.0 + r2])


def test_path_spectrum_rejects_tiny():
    with pytest.raises(ValueError):
        path_spectrum(1)


def test_path_spectrum_vertex_limit_both_sides(monkeypatch):
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_N", 5)
    assert path_spectrum(5).n == 5
    with pytest.raises(ValueError, match="n must be at most 5 for a spectrum, got 6"):
        path_spectrum(6)


def test_path_spectrum_orthonormal():
    s = path_spectrum(17)
    gram = s.eigenvectors.T @ s.eigenvectors
    assert np.abs(gram - np.eye(17)).max() < 1e-12


def test_eigendecompose_matches_closed_form_p3():
    s_exact = path_spectrum(3)
    s_num = eigendecompose(laplacian(make_path(3)))
    assert np.abs(s_exact.eigenvalues - s_num.eigenvalues).max() < 1e-10
    assert np.abs(s_exact.projectors - s_num.projectors).max() < 1e-10


def test_eigendecompose_zero_matrix():
    s = eigendecompose(np.zeros((3, 3)))
    assert s.eigenvalues.shape == (1,)
    assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-15)
    assert s.multiplicities[0] == 3
    assert np.abs(s.projectors[0] - np.eye(3)).max() < 1e-12


def _complete(n):
    return Graph(n, frozenset((u, v) for u in range(1, n + 1)
                              for v in range(u + 1, n + 1)))


def _hypercube(d):
    n = 2 ** d
    return Graph(n, frozenset((u + 1, (u ^ (1 << b)) + 1) for u in range(n)
                              for b in range(d) if u < u ^ (1 << b)))


def test_eigendecompose_four_cycle_grouping():
    # Degenerate Laplacian spectra: LAPACK returns an arbitrary basis inside
    # each repeated eigenspace, so grouping must rebuild the projectors.
    # The 4-cycle factors as x (x-2)^2 (x-4).
    cases = [
        (Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),
         [0.0, 2.0, 4.0], [1, 2, 1]),
        (_complete(5), [0.0, 5.0], [1, 4]),
        (_hypercube(3), [0.0, 2.0, 4.0, 6.0], [1, 3, 3, 1]),
        (Graph(5, frozenset({(1, 2), (1, 3), (1, 4), (1, 5)})),
         [0.0, 1.0, 5.0], [1, 3, 1]),
    ]
    for graph, eigenvalues, multiplicities in cases:
        lap = laplacian(graph)
        s = eigendecompose(lap)
        assert np.allclose(s.eigenvalues, eigenvalues, atol=1e-9), graph
        assert list(s.multiplicities) == multiplicities, graph
        assert max(projector_residuals(s, lap).values()) < 1e-10, graph


def test_eigendecompose_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_eigendecompose_rejects_non_square():
    with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
        eigendecompose(np.zeros((2, 3)))


def test_eigendecompose_agrees_with_lapack_on_random_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=(n, n))
        a = a + a.T
        s = eigendecompose(a)
        expanded = np.repeat(s.eigenvalues, s.multiplicities)
        # QR-algorithm driver, independent of the divide-and-conquer
        # routine behind numpy.linalg.eigh
        oracle = scipy_eigh(a, eigvals_only=True, driver="ev")
        assert np.abs(expanded - oracle).max() < 1e-9


def test_projector_algebra_on_paths():
    for n in (2, 5, 16, 33):
        lap = laplacian(make_path(n))
        res = projector_residuals(eigendecompose(lap), lap)
        assert max(res.values()) < 1e-9, (n, res)


def test_transition_matrix_identity_at_zero():
    s = path_spectrum(6)
    u = transition_matrix(s, 0.0)
    assert isinstance(u, np.ndarray) and u.shape == (6, 6)
    assert np.abs(u - np.eye(6)).max() < 1e-12


def test_transition_matrix_p2_half_period():
    s = path_spectrum(2)
    u = transition_matrix(s, math.pi / 2)
    expected = s.projectors[0] - s.projectors[1]
    assert np.abs(u - expected).max() < 1e-12


def test_transition_matrix_matches_projector_sum():
    # U(t) from eigenvector columns against sum_r exp(-i t theta_r) F_r,
    # on spectra with repeated eigenvalues
    for graph in (_complete(5), _hypercube(3),
                  Graph(7, frozenset((1, v) for v in range(2, 8)))):
        s = eigendecompose(laplacian(graph))
        for t in (0.3, 7.0, 123.4):
            expected = np.einsum("r,rij->ij", np.exp(-1j * t * s.eigenvalues),
                                 s.projectors)
            assert np.abs(transition_matrix(s, t) - expected).max() < 1e-12


def test_group_norms_match_projector_norms():
    rng = np.random.default_rng(9)
    for graph in (_complete(6), _hypercube(3), make_path(9)):
        s = eigendecompose(laplacian(graph))
        x = rng.normal(size=graph.n)
        expected = np.linalg.norm(s.projectors @ x, axis=1)
        assert np.abs(s.group_norms(x) - expected).max() < 1e-12


def test_transition_matrix_unitary_random_times():
    s = path_spectrum(12)
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 1e3, size=100):
        u = transition_matrix(s, t)
        assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(graphs(1, 12), st.floats(-1e3, 1e3))
def test_transition_matrix_unitary_on_random_graphs(g, t):
    u = transition_matrix(eigendecompose(laplacian(g)), t)
    assert np.abs(u @ u.conj().T - np.eye(g.n)).max() < 1e-9


def test_transition_matrix_group_property():
    lap = laplacian(make_path(9))
    s = eigendecompose(lap)
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 50.0, size=2)
        u1 = transition_matrix(s, t1)
        u2 = transition_matrix(s, t2)
        u12 = transition_matrix(s, t1 + t2)
        assert np.abs(u1 @ u2 - u12).max() < 1e-9


def test_grouping_threshold_merges_close_values():
    a = np.diag([1.0, 1.0 + 1e-12, 5.0])
    s = eigendecompose(a)
    assert s.eigenvalues.shape == (2,)
    assert list(s.multiplicities) == [2, 1]
    s_apart = eigendecompose(np.diag([1.0, 1.0 + 1e-6, 5.0]))
    assert s_apart.eigenvalues.shape == (3,)
