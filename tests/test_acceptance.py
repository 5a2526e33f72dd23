"""Acceptance suite: every criterion at its stated tolerance, one
PASS/FAIL line per criterion (run with pytest -s to see them).
"""
import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
from _oracles import projectors

from lpgst.cyclotomic import IntPolynomial, cyclotomic_polynomial, theta_table
from lpgst.decision import (alternating_cosine_residual, classify_path,
                            decide_path_lpgst, factor_two_power,
                            verify_witness)
from lpgst.graphs import Graph, laplacian, make_path
from lpgst.pair_states import fidelity_sweep, path_support_partition
from lpgst.relation_lattice import build_relation_system, integer_kernel
from lpgst.spectra import (eigendecompose, path_spectrum,
                           projector_residuals, transition_matrix)

# Ceilings frozen from the independent dense-sweep oracle run before the
# build: grid suprema 0.8971 for (9,1) and 0.7220 for (15,1), both far
# below the 0.999 bound the sweep evidence must stay under.
CEILING_N9 = 0.92
CEILING_N15 = 0.74


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _valid_instances(n_max):
    for n in range(2, n_max + 1):
        for a in range(1, n):
            if 2 * a != n:
                yield n, a


def test_criterion_1_classification_table_reproduction():
    disagreements = []
    count = 0
    for n, a in _valid_instances(60):
        count += 1
        if decide_path_lpgst(n, a).has_lpgst != classify_path(n, a).has_lpgst:
            disagreements.append((n, a))
    _report("criterion 1: lattice pipeline matches closed-form on n=2..60",
            not disagreements,
            f"{count} instances, {len(disagreements)} disagreements")


def test_criterion_2_witness_suite():
    failures = []
    count = 0
    for n, a in _valid_instances(60):
        _, odd_part = factor_two_power(n)
        if odd_part == 1 or _is_prime(odd_part):
            continue
        count += 1
        vec = classify_path(n, a).certificate
        if vec is None:
            failures.append((n, a, "missing"))
            continue
        checks = verify_witness(n, a, vec)
        if not (checks.sum_zero and checks.relation_zero and checks.parity_odd
                and checks.off_support_zero):
            failures.append((n, a, checks))
    _report("criterion 2: exact witnesses for every composite-odd-part instance",
            not failures, f"{count} instances, {len(failures)} failures")


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def _random_graphs(count, n_max, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        prob = float(rng.uniform(0.15, 0.85))
        edges = {(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if rng.random() < prob}
        yield Graph(n, frozenset(edges))


def test_criterion_3_spectral_identities():
    worst = 0.0
    for n in range(2, 65):
        lap = laplacian(make_path(n))
        res = projector_residuals(eigendecompose(lap), lap)
        worst = max(worst, max(res.values()))
    for g in _random_graphs(50, 32, seed=101):
        lap = laplacian(g)
        res = projector_residuals(eigendecompose(lap), lap)
        worst = max(worst, max(res.values()))

    s64 = eigendecompose(laplacian(make_path(64)))
    rng = np.random.default_rng(103)
    eye = np.eye(64)
    unitary_worst = 0.0
    for t in rng.uniform(0.0, 1e3, size=100):
        u = transition_matrix(s64, t)
        unitary_worst = max(unitary_worst, float(np.abs(u.conj().T @ u - eye).max()))

    ok = worst < 1e-9 and unitary_worst < 1e-9
    _report("criterion 3: projector algebra and unitarity residuals < 1e-9",
            ok, f"projector {worst:.2e}, unitarity {unitary_worst:.2e}")


def test_criterion_4_closed_form_spectrum_agreement():
    worst_val = 0.0
    worst_proj = 0.0
    for n in range(2, 65):
        exact = path_spectrum(n)
        numeric = eigendecompose(laplacian(make_path(n)))
        assert numeric.eigenvalues.shape == exact.eigenvalues.shape, n
        worst_val = max(worst_val,
                        float(np.abs(exact.eigenvalues - numeric.eigenvalues).max()))
        worst_proj = max(worst_proj,
                         float(np.abs(projectors(exact) - projectors(numeric)).max()))
    ok = worst_val < 1e-9 and worst_proj < 1e-8
    _report("criterion 4: closed-form vs iterative spectra on n<=64",
            ok, f"eigenvalues {worst_val:.2e}, projectors {worst_proj:.2e}")


def test_criterion_5_positive_transfer_evidence():
    results = {}
    for n, t_max, steps, threshold in [(3, 10.0, 10_000, 1 - 1e-6),
                                       (4, 10.0, 10_000, 1 - 1e-6),
                                       (5, 5000.0, 1_000_001, 0.99),
                                       (8, 5000.0, 1_000_001, 0.99)]:
        s = path_spectrum(n)
        trace = fidelity_sweep(s, (1, 2), (n - 1, n), t_max, steps)
        results[n] = (trace.sup_estimate, threshold)
    ok = all(sup >= thr for sup, thr in results.values())
    detail = ", ".join(f"n={n}: {sup:.8f}>={thr}" for n, (sup, thr) in results.items())
    _report("criterion 5: sweeps reach transfer thresholds", ok, detail)


def test_criterion_6_negative_transfer_evidence():
    s9 = path_spectrum(9)
    sup9 = fidelity_sweep(s9, (1, 2), (8, 9), 500.0, 1_000_001).sup_estimate
    s15 = path_spectrum(15)
    sup15 = fidelity_sweep(s15, (1, 2), (14, 15), 500.0, 1_000_001).sup_estimate
    ok = sup9 < CEILING_N9 < 0.999 and sup15 < CEILING_N15 < 0.999
    _report("criterion 6: no-transfer sweeps stay under oracle ceilings",
            ok, f"n=9: {sup9:.6f}<{CEILING_N9}, n=15: {sup15:.6f}<{CEILING_N15}")


def test_criterion_7_alternating_cosine_identity():
    worst = 0.0
    count = 0
    for n in range(3, 129):
        for m in range(3, n + 1, 2):
            if n % m:
                continue
            k = n // m
            for c in range(k):
                worst = max(worst, alternating_cosine_residual(n, k, m, c))
                count += 1
    _report("criterion 7: alternating-cosine residual < 1e-12",
            worst < 1e-12, f"{count} triples, worst {worst:.2e}")


def test_criterion_8_cyclotomic_exactness():
    for m in range(1, 129):
        prod = IntPolynomial((1,))
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPolynomial((-1,) + (0,) * (m - 1) + (1,)), m

    worst = 0.0
    for n in range(2, 65):
        z = cmath.exp(1j * math.pi / n)
        for k in range(1, n):
            value = IntPolynomial(tuple(theta_table(n)[k - 1].tolist())).evaluate(z)
            target = 2.0 - 2.0 * math.cos(k * math.pi / n)
            worst = max(worst, abs(value - target))
    _report("criterion 8: cyclotomic product identity and theta evaluations",
            worst < 1e-9, f"worst eigenvalue deviation {worst:.2e}")


def _rref(rows):
    """Reduced row echelon form over the rationals, and its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols


def _box_solutions(columns, box=3):
    """Every integer v with |v_i| <= box and sum_j v_j columns[j] = 0.

    Independent of the lattice code: rational row reduction parametrizes
    solutions by their free coordinates, which are enumerated over the box
    and filtered for integrality. Any box solution has its free
    coordinates inside the box, so none is missed.
    """
    columns = [list(map(int, c)) for c in columns]   # Python ints, read once
    d = len(columns)
    rows = len(columns[0])
    mat, pivot_cols = _rref([[columns[j][i] for j in range(d)]
                             for i in range(rows)])
    pivots = list(enumerate(pivot_cols))
    free = sorted(set(range(d)) - {c for _, c in pivots})
    if not free:
        return [(0,) * d]  # full column rank: only the trivial relation

    denom = 1
    for pr, _ in pivots:
        for f in free:
            denom = denom * mat[pr][f].denominator // math.gcd(
                denom, mat[pr][f].denominator)
    coeff = np.array([[-int(mat[pr][f] * denom) for f in free]
                      for pr, _ in pivots], dtype=np.int64)

    grid = np.array(list(itertools.product(range(-box, box + 1),
                                           repeat=len(free))), dtype=np.int64)
    pivot_num = grid @ coeff.T
    good = np.all(pivot_num % denom == 0, axis=1)
    pivot_val = np.where(good[:, None], pivot_num // denom, 0)
    good &= np.all(np.abs(pivot_val) <= box, axis=1)

    solutions = []
    for row in np.nonzero(good)[0]:
        v = [0] * d
        for f, val in zip(free, grid[row]):
            v[f] = int(val)
        for (pr, pc), val in zip(pivots, pivot_val[row]):
            v[pc] = int(val)
        for i in range(rows):
            assert sum(v[j] * columns[j][i] for j in range(d)) == 0
        solutions.append(tuple(v))
    return solutions


def _lattice_membership(basis, vectors):
    """For each integer vector, whether it is an integer combination of basis.

    The basis is factored once: with B the matrix whose columns are the
    basis vectors, P picks rows of B where B[P] is invertible, and
    v = B c has the unique solution c = B[P]^-1 v[P]. So v lies in the
    lattice exactly when that c is integral and B c == v.
    """
    vectors = np.asarray(vectors, dtype=np.int64)
    if not basis:
        return ~vectors.any(axis=1)
    k = len(basis)
    _, rows_p = _rref(basis)            # pivot columns of B^T are rows of B
    assert len(rows_p) == k, "basis vectors must be independent"
    square = [[b[p] for b in basis] for p in rows_p]
    reduced, _ = _rref([row + [int(i == j) for j in range(k)]
                        for i, row in enumerate(square)])
    inverse = [row[k:] for row in reduced]
    denom = math.lcm(*(x.denominator for row in inverse for x in row))
    inv_num = np.array([[int(x * denom) for x in row] for row in inverse],
                       dtype=np.int64)
    mat = np.array(basis, dtype=np.int64).T

    def fits_int64(left, right):     # k-term products of left and right
        return k * int(np.abs(left).max()) * int(np.abs(right).max()) < 2 ** 62

    assert fits_int64(vectors, inv_num)
    num = vectors[:, rows_p] @ inv_num.T
    integral = np.all(num % denom == 0, axis=1)
    coeffs = num // denom
    assert fits_int64(coeffs, mat)
    return integral & np.all(coeffs @ mat.T == vectors, axis=1)


def test_criterion_9_lattice_saturation_and_parity():
    escaped = []
    odd_in_yes = []
    checked = 0
    for n, a in _valid_instances(12):
        part = path_support_partition(n, a)
        columns, sigma, _ = build_relation_system(n, part)
        lattice = integer_kernel(columns)
        is_yes = classify_path(n, a).has_lpgst
        solutions = _box_solutions(columns, box=3)
        inside = _lattice_membership(lattice.basis, solutions)
        for v, member in zip(solutions, inside):
            checked += 1
            if not member:
                escaped.append((n, a, v))
            if is_yes and sigma.dot(v) % 2 != 0:
                odd_in_yes.append((n, a, v))
    ok = not escaped and not odd_in_yes
    _report("criterion 9: box relations lie in the lattice, none odd in yes-instances",
            ok, f"{checked} box relations, {len(escaped)} escaped, "
                f"{len(odd_in_yes)} odd in yes-instances")
