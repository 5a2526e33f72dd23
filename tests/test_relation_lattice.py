import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpgst import relation_lattice
from lpgst.pair_states import SupportPartition, path_support_partition
from lpgst.relation_lattice import (ParityFunctional, RelationLattice,
                                    build_relation_system, integer_kernel,
                                    parity_holds)


def _in_lattice(basis, vector):
    """Exact membership of an integer vector in the span of basis vectors."""
    if not basis:
        return all(v == 0 for v in vector)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(vector[i])]
            for i in range(len(vector))]
    cols = len(basis)
    pivot_row = 0
    pivot_cols = []
    for c in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][c]
        rows[pivot_row] = [x / lead for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_cols.append(c)
        pivot_row += 1
    # inconsistent system -> not in the rational span
    for r in range(pivot_row, len(rows)):
        if rows[r][cols] != 0:
            return False
    coeffs = {c: rows[i][cols] for i, c in enumerate(pivot_cols)}
    return all(coeffs.get(c, Fraction(0)).denominator == 1 for c in range(cols))


def test_integer_kernel_path_four_system():
    part = path_support_partition(4, 1)
    columns, sigma, index_map = build_relation_system(4, part)
    assert len(columns) == 3
    assert index_map == (1, 2, 3)
    assert sigma.sigma == (0, 1, 0)
    assert all(col[-1] == 1 for col in columns)  # zero-sum constraint row
    lattice = integer_kernel(columns, index_map)
    assert lattice.basis == ((1, -2, 1),)


def test_integer_kernel_injective_map_has_empty_kernel():
    columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel(columns).basis == ()


def test_integer_kernel_zero_column():
    columns = [(1, 2), (0, 0), (3, 5)]
    lattice = integer_kernel(columns)
    assert (0, 1, 0) in lattice.basis


def test_integer_kernel_exactness_on_random_matrices():
    rng = np.random.default_rng(29)
    for _ in range(40):
        rows = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        mat = rng.integers(-4, 5, size=(rows, d))
        columns = [tuple(int(x) for x in mat[:, j]) for j in range(d)]
        lattice = integer_kernel(columns)
        for vec in lattice.basis:
            combo = mat @ np.array(vec)
            assert np.array_equal(combo, np.zeros(rows, dtype=combo.dtype))
        assert len(lattice.basis) == d - np.linalg.matrix_rank(mat)


def test_integer_kernel_saturated_at_small_scale():
    rng = np.random.default_rng(31)
    for _ in range(15):
        rows = int(rng.integers(1, 4))
        d = 4
        mat = rng.integers(-3, 4, size=(rows, d))
        columns = [tuple(int(x) for x in mat[:, j]) for j in range(d)]
        basis = integer_kernel(columns).basis
        for point in itertools.product(range(-2, 3), repeat=d):
            if any(mat @ np.array(point)):
                continue
            assert _in_lattice(basis, point), (mat, point)


def test_build_relation_system_small_paths():
    columns, sigma, index_map = build_relation_system(3, path_support_partition(3, 1))
    assert index_map == (1, 2)
    assert sigma.sigma == (0, 1)
    assert columns.tolist() == [[1, 0, 1],    # theta_1 = 1 plus the ones row
                                [3, 0, 1]]    # theta_2 = 3

    # single support eigenvalue: the zero-sum row forces an empty kernel
    columns, _, index_map = build_relation_system(2, path_support_partition(2, 1))
    assert index_map == (1,)
    assert columns.tolist() == [[2, 0, 1]]
    assert integer_kernel(columns, index_map).basis == ()


def test_build_relation_system_rejects_empty_support():
    part = path_support_partition(4, 1)
    empty = type(part)(plus=frozenset(), minus=frozenset(),
                       excluded=part.plus | part.minus | part.excluded)
    with pytest.raises(ValueError, match="degenerate"):
        build_relation_system(4, empty)


def test_build_relation_system_rejects_indices_off_the_path():
    # k = 0 and k = n have no eigenvalue row (theta_element refuses them too)
    part = path_support_partition(4, 1)
    for k in (0, 4):
        bad = type(part)(plus=part.plus | {k}, minus=part.minus,
                         excluded=part.excluded - {k})
        with pytest.raises(ValueError, match="must lie in 1..3"):
            build_relation_system(4, bad)


def test_parity_holds_even_basis():
    lattice = RelationLattice(3, ((1, -2, 1),), (1, 2, 3))
    holds, witness = parity_holds(lattice, ParityFunctional((0, 1, 0)))
    assert holds and witness is None


def test_parity_holds_odd_basis_returns_certificate():
    part = path_support_partition(9, 1)
    columns, sigma, index_map = build_relation_system(9, part)
    lattice = integer_kernel(columns, index_map)
    holds, witness = parity_holds(lattice, sigma)
    assert not holds
    assert witness in lattice.basis
    assert sigma.dot(witness) % 2 == 1


def test_parity_holds_empty_basis_vacuous():
    lattice = RelationLattice(2, (), (1, 2))
    holds, witness = parity_holds(lattice, ParityFunctional((1, 1)))
    assert holds and witness is None


def test_parity_holds_dimension_check():
    lattice = RelationLattice(3, ((1, -2, 1),), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension"):
        parity_holds(lattice, ParityFunctional((0, 1)))


def test_parity_invariant_under_unimodular_basis_change():
    for n, a in [(9, 1), (8, 1), (12, 1), (12, 2), (15, 2)]:
        columns, sigma, index_map = build_relation_system(
            n, path_support_partition(n, a))
        lattice = integer_kernel(columns, index_map)
        expected, _ = parity_holds(lattice, sigma)
        basis = [list(v) for v in lattice.basis]
        if len(basis) >= 2:
            # elementary unimodular moves: add rows, swap, negate
            basis[0] = [x + 3 * y for x, y in zip(basis[0], basis[1])]
            basis[-1] = [-x for x in basis[-1]]
            basis[0], basis[-1] = basis[-1], basis[0]
        transformed = RelationLattice(lattice.dimension,
                                      tuple(tuple(v) for v in basis),
                                      index_map)
        got, _ = parity_holds(transformed, sigma)
        assert got == expected, (n, a)


def test_restricted_and_generalized_systems_agree():
    for n in range(2, 25):
        for a in range(1, n):
            if 2 * a == n:
                continue
            part = path_support_partition(n, a)
            cols_r, sig_r, idx_r = build_relation_system(n, part)
            # every k in 1..n-1 enters; excluded k count as plus (sigma 0)
            wide = SupportPartition(part.plus | (part.excluded - {0}),
                                    part.minus, frozenset({0}))
            cols_g, sig_g, idx_g = build_relation_system(n, wide)
            assert idx_g == tuple(range(1, n))
            holds_r, _ = parity_holds(integer_kernel(cols_r, idx_r), sig_r)
            holds_g, _ = parity_holds(integer_kernel(cols_g, idx_g), sig_g)
            assert holds_r == holds_g, (n, a)


def test_columns_must_share_length():
    with pytest.raises(ValueError, match="same length"):
        integer_kernel([(1, 2), (1,)])


def test_integer_kernel_rejects_non_integer_entries():
    # an int64 cast read (0.5,) as (0,) and returned ((1, 0),), which
    # combines the columns to (0.5,), not to zero
    with pytest.raises(ValueError, match="must be integers"):
        integer_kernel([(0.5,), (1,)])
    with pytest.raises(ValueError, match="must be integers"):
        integer_kernel([(2 ** 70,), (1.5,)])     # the Python-int route
    with pytest.raises(ValueError, match="must be integers"):
        integer_kernel([(1.0,), (1,)])
    # integers beyond int64, mixed with negatives numpy would infer float64
    assert integer_kernel([(2 ** 63,), (-1,)]).basis == ((1, 2 ** 63),)


def test_uint64_entries_past_int64_are_not_wrapped():
    # an int64 cast wrapped 2**63 to -2**63, and the kernel returned
    # ((1, 2**63),), which combines the columns to 2**64, not to zero
    columns = np.array([[2 ** 63], [1]], dtype=np.uint64)
    assert integer_kernel(columns).basis == ((1, -2 ** 63),)
    assert integer_kernel(columns).basis == integer_kernel([(2 ** 63,), (1,)]).basis
    assert not relation_lattice._product_is_zero(columns, ((1, 2 ** 63),))
    small = np.array([[3], [1]], dtype=np.uint64)
    assert relation_lattice._exact_array(small).dtype == np.int64
    assert integer_kernel(small).basis == ((1, -3),)


def test_int64_wraparound_cannot_pass_verification():
    columns = [(2 ** 32,), (0,)]
    basis = ((2 ** 32, 1),)           # wrong: combines the columns to 2**64
    wrapped = np.array(basis, dtype=np.int64) @ np.array(columns, dtype=np.int64)
    assert not wrapped.any()          # int64 wraps 2**64 around to 0
    # 33 + 33 + bits(2) >= 63, so the product runs on Python ints
    assert not relation_lattice._product_is_zero(columns, basis)
    assert relation_lattice._product_is_zero(columns, ((0, 1),))

    def wrong_basis(mat, dtype):
        return basis

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation_lattice, "_kernel_basis", wrong_basis)
        with pytest.raises(AssertionError, match="kernel verification failed"):
            integer_kernel(columns)


def _reference_integer_kernel(columns):
    """The pure-Python column elimination integer_kernel ran before it
    moved to integer arrays, rows in natural order, frozen here as the
    reference for its lattice."""
    d = len(columns)
    if d == 0:
        return ()
    rows = len(columns[0])
    mat = [list(c) for c in columns]
    transform = [[int(i == j) for i in range(d)] for j in range(d)]
    live = list(range(d))

    for row in range(rows):
        active = [j for j in live if mat[j][row] != 0]
        while len(active) > 1:
            pivot = min(active, key=lambda j: abs(mat[j][row]))
            piv_val = mat[pivot][row]
            for j in active:
                if j == pivot:
                    continue
                q, r = divmod(mat[j][row], piv_val)
                if 2 * abs(r) > abs(piv_val):
                    q += 1
                if q:
                    for i in range(rows):
                        mat[j][i] -= q * mat[pivot][i]
                    for i in range(d):
                        transform[j][i] -= q * transform[pivot][i]
            active = [j for j in active if mat[j][row] != 0]
        if active:
            live.remove(active[0])

    basis = []
    for j in live:
        assert all(v == 0 for v in mat[j])
        vec = transform[j]
        first = next((v for v in vec if v != 0), 0)
        if first < 0:
            vec = [-v for v in vec]
        basis.append(tuple(vec))
    basis.sort()
    for vec in basis:
        for i in range(rows):
            assert sum(vec[j] * columns[j][i] for j in range(d)) == 0
    return tuple(basis)


@st.composite
def _integer_systems(draw):
    """1-6 rows, 1-9 columns, entries at one scale from 4 to 2**70
    (int64 start, int64 outgrown mid-elimination, Python ints from the
    start), some columns zero."""
    rows = draw(st.integers(1, 6))
    d = draw(st.integers(1, 9))
    scale = draw(st.sampled_from([4, 2 ** 20, 2 ** 40, 2 ** 70]))
    entry = st.integers(-scale, scale)
    column = st.one_of(st.just((0,) * rows),
                       st.tuples(*[entry] * rows))
    return draw(st.lists(column, min_size=d, max_size=d))


# Inputs below 2**31 whose int64 elimination outgrows _ELIMINATION_BOUND,
# so the Python-int retry runs: the first row (consecutive Fibonacci
# numbers) leaves transform entries near 2**30, and the last row, as sparse
# and so cleared next, subtracts 2**30 times the third column from the
# fourth, which puts 2**60 into the middle row.
_FIB_OVERFLOW = [(1836311903, 1134903170, 0), (1134903170, 701408733, 0),
                 (0, 2 ** 30, 1), (0, 0, 2 ** 30)]


def test_fibonacci_system_outgrows_int64_elimination():
    assert relation_lattice._kernel_basis(np.array(_FIB_OVERFLOW), np.int64) is None


@settings(max_examples=300, deadline=None)
@given(_integer_systems())
@example(_FIB_OVERFLOW)
def test_integer_kernel_matches_frozen_reference(columns):
    # the row order picks the basis, not the lattice: same rank, and every
    # reference vector an integer combination of the returned basis
    lattice = integer_kernel(columns)
    reference = _reference_integer_kernel(columns)
    assert lattice.rank == len(reference)
    assert relation_lattice._product_is_zero(columns, lattice.basis)
    assert all(_in_lattice(lattice.basis, vec) for vec in reference)
    assert all(type(v) is int for vec in lattice.basis for v in vec)


def test_product_check_leaves_float64_before_sums_round():
    # bits 31 + 24 + 3 = 58: the true sum is 2**53 + 1 + 1 - 2**53 = 2,
    # but a float64 sum in index order rounds 2**53 + 1 back to 2**53 and
    # ends at 0 (numpy's float64 product does here)
    columns = [(2 ** 30,), (1,), (1,), (2 ** 30,)]
    basis = ((2 ** 23, 1, 1, -2 ** 23),)
    assert not relation_lattice._product_is_zero(columns, basis)
    # bits 25 + 25 + 2 = 52: products near 2**50 stay exact in float64
    side = 2 ** 25 - 1
    assert relation_lattice._product_is_zero([(side,), (side,)], ((side, -side),))
    assert not relation_lattice._product_is_zero([(side,), (side,)],
                                                 ((side, 1 - side),))
