import collections
import dataclasses
import importlib.util
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpgst import relation_lattice
from lpgst.decision import classify_path, verify_witness
from lpgst.pair_states import SupportPartition, path_support_partition
from lpgst.relation_lattice import (RelationLattice, build_relation_system,
                                    integer_kernel, parity_holds)


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
    assert sigma.dtype == np.int64 and sigma.tolist() == [0, 1, 0]
    assert all(col[-1] == 1 for col in columns)  # zero-sum constraint row
    lattice = integer_kernel(columns)
    assert lattice.basis == ((1, -2, 1),)


def test_integer_kernel_injective_map_has_empty_kernel():
    columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel(columns).basis == ()


def test_integer_kernel_of_no_columns_is_empty():
    assert integer_kernel([]) == RelationLattice(0, ())


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
    assert sigma.dtype == np.int64 and sigma.tolist() == [0, 1]
    assert columns.tolist() == [[1, 0, 1],    # theta_1 = 1 plus the ones row
                                [3, 0, 1]]    # theta_2 = 3

    # single support eigenvalue: the zero-sum row forces an empty kernel
    columns, _, index_map = build_relation_system(2, path_support_partition(2, 1))
    assert index_map == (1,)
    assert columns.tolist() == [[2, 0, 1]]
    assert integer_kernel(columns).basis == ()


def test_build_relation_system_rejects_empty_support():
    part = path_support_partition(4, 1)
    empty = type(part)(plus=frozenset(), minus=frozenset())
    with pytest.raises(ValueError, match="degenerate"):
        build_relation_system(4, empty)


def test_build_relation_system_rejects_indices_off_the_path():
    # k = 0 and k = n have no eigenvalue row (theta_element refuses them too)
    part = path_support_partition(4, 1)
    for k in (0, 4):
        bad = type(part)(plus=part.plus | {k}, minus=part.minus)
        with pytest.raises(ValueError, match="must lie in 1..3"):
            build_relation_system(4, bad)


def test_parity_holds_even_basis():
    lattice = RelationLattice(3, ((1, -2, 1),))
    holds, witness = parity_holds(lattice, (0, 1, 0))
    assert holds and witness is None


def test_parity_holds_odd_basis_returns_certificate():
    part = path_support_partition(9, 1)
    columns, sigma, _ = build_relation_system(9, part)
    lattice = integer_kernel(columns)
    holds, witness = parity_holds(lattice, sigma)
    assert not holds
    assert witness in lattice.basis
    assert sigma.dot(witness) % 2 == 1


def test_parity_holds_empty_basis_vacuous():
    lattice = RelationLattice(2, ())
    holds, witness = parity_holds(lattice, [1, 1])
    assert holds and witness is None


def test_parity_holds_dimension_check():
    lattice = RelationLattice(3, ((1, -2, 1),))
    with pytest.raises(ValueError, match="dimension"):
        parity_holds(lattice, np.array([0, 1]))


def test_parity_holds_refuses_marks_outside_zero_one():
    # a per-entry product sum read 2 as even and 0.5 as odd, and a
    # compress would read both as 1: neither is a 0/1 mark
    lattice = RelationLattice(3, ((1, -2, 1),))
    for marks in [(0, 2, 0), (0, 0.5, 0), (0, -1, 0), np.array([[0], [1], [0]]),
                  (0, 2 ** 70, 0), ("0", "1", "0")]:
        with pytest.raises(ValueError, match="0 or 1"):
            parity_holds(lattice, marks)
    odd = RelationLattice(3, ((1, 1, 0),))
    for marks in [np.array([False, True, False]), np.array([0, 1, 0], dtype=np.int64),
                  (0, True, 0), np.array([0, 1, 0], dtype=object)]:
        assert parity_holds(lattice, marks) == (True, None)
        assert parity_holds(odd, marks) == (False, (1, 1, 0))


def test_parity_invariant_under_unimodular_basis_change():
    for n, a in [(9, 1), (8, 1), (12, 1), (12, 2), (15, 2)]:
        columns, sigma, _ = build_relation_system(
            n, path_support_partition(n, a))
        lattice = integer_kernel(columns)
        expected, _ = parity_holds(lattice, sigma)
        basis = [list(v) for v in lattice.basis]
        if len(basis) >= 2:
            # elementary unimodular moves: add rows, swap, negate
            basis[0] = [x + 3 * y for x, y in zip(basis[0], basis[1])]
            basis[-1] = [-x for x in basis[-1]]
            basis[0], basis[-1] = basis[-1], basis[0]
        transformed = RelationLattice(lattice.dimension,
                                      tuple(tuple(v) for v in basis))
        got, _ = parity_holds(transformed, sigma)
        assert got == expected, (n, a)


def test_restricted_and_generalized_systems_agree():
    for n in range(2, 25):
        for a in range(1, n):
            if 2 * a == n:
                continue
            part = path_support_partition(n, a)
            cols_r, sig_r, _ = build_relation_system(n, part)
            # every k in 1..n-1 enters; excluded k count as plus (sigma 0)
            wide = SupportPartition(frozenset(range(1, n)) - part.minus,
                                    part.minus)
            cols_g, sig_g, idx_g = build_relation_system(n, wide)
            assert idx_g == tuple(range(1, n))
            holds_r, _ = parity_holds(integer_kernel(cols_r), sig_r)
            holds_g, _ = parity_holds(integer_kernel(cols_g), sig_g)
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


def _witness_with(entry):
    """verify_witness on the 15-path certificate with its first nonzero
    minus entry replaced by entry."""
    cert = list(classify_path(15, 1).certificate)
    k = next(k for k in sorted(path_support_partition(15, 1).minus) if cert[k - 1])
    cert[k - 1] = entry
    return verify_witness(15, 1, tuple(cert))


# Each returns a value that shows whether the entry was read exactly.
_INTEGER_GATES = {
    "integer_kernel": lambda x: integer_kernel([(x,), (1,)]).basis,
    "_product_is_zero": lambda x: [
        relation_lattice._product_is_zero([(x,), (1,)], ((1, -shift),))
        for shift in (2 ** 63 + 4, 2 ** 63 + 5, 2 ** 63 + 6, 0, 1, 3)],
    "verify_witness": _witness_with,
}


@pytest.mark.parametrize("gate", sorted(_INTEGER_GATES))
@pytest.mark.parametrize("entry,exact", [
    (0.5, None), (1.0, None), (Fraction(1), None), ("1", None),
    (True, 1), (np.int32(3), 3), (np.uint64(2 ** 63 + 5), 2 ** 63 + 5),
], ids=["half", "float-one", "fraction", "string", "bool", "int32", "uint64-past-int64"])
def test_one_integer_gate(gate, entry, exact):
    # the int64 cast read 0.5 as 0, so _product_is_zero([[0.5]], [[1]]) held
    run = _INTEGER_GATES[gate]
    if exact is None:
        with pytest.raises(ValueError, match="integers"):
            run(entry)
    else:
        assert run(entry) == run(exact)


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

    def wrong_basis(mat):
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


def _reference_array_kernel(columns):
    """The integer-array column elimination integer_kernel ran before its
    unit-pivot steps (rows sparsest first, a gcd step on every row), on
    Python ints, frozen here as the reference for its basis."""
    mat = np.array([[int(v) for v in c] for c in columns], dtype=object)
    d, rows = mat.shape
    work = np.zeros((d, rows + d), dtype=object)
    work[:, :rows] = mat
    work[:, rows:] = np.eye(d, dtype=object)
    live = np.ones(d, dtype=bool)

    for row in np.argsort(np.count_nonzero(mat, axis=0), kind="stable"):
        active = np.flatnonzero(live & (work[:, row] != 0))
        while active.size > 1:
            entries = work[active, row]
            at = np.argmin(np.abs(entries))
            pivot = work[active[at]]
            quot = entries // pivot[row]
            quot[2 * np.abs(entries % pivot[row]) > abs(pivot[row])] += 1
            quot[at] = 0
            reduced = work[active] - np.outer(quot, pivot)
            work[active] = reduced
            active = active[reduced[:, row] != 0]
        if active.size:
            live[active[0]] = False

    assert not work[live, :rows].any()
    basis = []
    for vec in work[live, rows:].tolist():
        first = next((v for v in vec if v != 0), 0)
        basis.append(tuple(-v for v in vec) if first < 0 else tuple(vec))
    basis.sort()
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
# so the work array widens to Python ints midway: the first row
# (consecutive Fibonacci numbers) leaves transform entries near 2**30, and
# the last row, as sparse and so cleared next, subtracts 2**30 times the
# third column from the fourth, which puts 2**60 into the middle row.
_FIB_OVERFLOW = [(1836311903, 1134903170, 0), (1134903170, 701408733, 0),
                 (0, 2 ** 30, 1), (0, 0, 2 ** 30)]


def test_fibonacci_system_outgrows_int64_elimination():
    basis = relation_lattice._kernel_basis(np.array(_FIB_OVERFLOW))
    assert basis.dtype == object
    assert tuple(map(tuple, basis.tolist())) == _reference_array_kernel(_FIB_OVERFLOW)


def test_outgrown_elimination_runs_once():
    # the elimination goes on in Python ints where int64 ends, not rerun
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel_basis(*args)

    kernel_basis = relation_lattice._kernel_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation_lattice, "_kernel_basis", counted)
        lattice = integer_kernel(_FIB_OVERFLOW)
    assert len(calls) == 1
    assert lattice.basis == _reference_array_kernel(_FIB_OVERFLOW)


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
    assert hash(lattice) == hash((len(columns), lattice.basis))


# Inputs below 2**31 whose first int64 step has pivot 1 and outgrows
# _ELIMINATION_BOUND: the first row is the sparser, so it goes first; its
# pivot 1 (column 0) clears 2**30 in column 1 with quotient 2**30, which
# puts 2**30 - 2**60 into the second row.
_UNIT_OVERFLOW = [(1, 2 ** 30), (2 ** 30, 2 ** 30), (0, 2 ** 30)]


def test_unit_pivot_step_is_bound_checked():
    basis = relation_lattice._kernel_basis(np.array(_UNIT_OVERFLOW))
    assert basis.dtype == object
    assert tuple(map(tuple, basis.tolist())) == _reference_array_kernel(_UNIT_OVERFLOW)
    assert integer_kernel(_UNIT_OVERFLOW).basis == ((2 ** 30, -1, 1 - 2 ** 30),)


@settings(max_examples=300, deadline=None)
@given(_integer_systems())
@example(_FIB_OVERFLOW)
@example(_UNIT_OVERFLOW)
def test_integer_kernel_matches_frozen_array_basis(columns):
    # unit-pivot steps, zeroed dead columns and the array-side sort and
    # sign fix return the very basis the plain gcd loop did, tuple for tuple
    assert integer_kernel(columns).basis == _reference_array_kernel(columns)


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


def _tuples_of_sorted_array(columns):
    """The basis integer_kernel returned while it built its tuples eagerly:
    the verified array of _kernel_basis, as tuples of Python ints."""
    basis = relation_lattice._kernel_basis(relation_lattice._exact_array(columns))
    return tuple(map(tuple, basis.tolist()))


@pytest.mark.parametrize("columns,dtype", [
    (build_relation_system(24, path_support_partition(24, 1))[0], np.int64),
    (build_relation_system(45, path_support_partition(45, 3))[0], np.int64),
    ([(2 ** 63,), (-1,)], object),
    (_UNIT_OVERFLOW, np.int64),
], ids=["path-24", "path-45", "past-int64", "outgrows-int64"])
def test_basis_is_tuples_of_python_ints_in_array_order(columns, dtype):
    # the elimination runs on Python ints in the last two; the lattice
    # keeps int64 vectors wherever every entry fits
    lattice = integer_kernel(columns)
    assert lattice.vectors.dtype == dtype
    assert not lattice.vectors.flags.writeable
    assert type(lattice.basis) is tuple
    assert all(type(vec) is tuple for vec in lattice.basis)
    assert all(type(v) is int for vec in lattice.basis for v in vec)
    assert lattice.basis == _tuples_of_sorted_array(columns)
    assert lattice.basis is lattice.basis          # built once, on first read
    assert lattice.rank == len(lattice.basis)


def test_tracer_entry_count_is_json_serializable():
    # the benchmark's tracer takes max |entry| over lattice.basis and writes
    # it as JSON, which refuses numpy integers
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    counts = collections.defaultdict(int)
    for columns in (build_relation_system(30, path_support_partition(30, 1))[0],
                    [(2 ** 63,), (-1,)]):
        tracing._integer_kernel_counts(counts, (columns,), integer_kernel(columns))
    assert json.loads(json.dumps(counts)) == counts
    assert counts["relation_lattice.integer_kernel.max_abs_entry"] == 2 ** 63


def test_lattices_from_tuples_compare_and_hash_as_before():
    columns, _, _ = build_relation_system(4, path_support_partition(4, 1))
    computed = integer_kernel(columns)
    given_tuples = RelationLattice(3, ((1, -2, 1),))
    given_array = RelationLattice(3, np.array([[1, -2, 1]]))
    for lattice in (computed, given_tuples, given_array):
        assert lattice == given_tuples
        assert hash(lattice) == hash((3, ((1, -2, 1),)))
    assert len({computed, given_tuples, given_array}) == 1
    assert given_tuples != RelationLattice(3, ((1, -2, 2),))
    assert given_tuples != RelationLattice(4, ((1, -2, 1, 0),))
    assert given_tuples != (3, ((1, -2, 1),))
    assert integer_kernel([]) == RelationLattice(0, ())
    assert hash(RelationLattice(2, ())) == hash((2, ()))
    # every lattice integer_kernel returns is hashable
    assert hash(integer_kernel([(1,), (2,)])) == hash((2, ((2, -1),)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        given_tuples.dimension = 4
    with pytest.raises(ValueError):
        given_array.vectors[0, 0] = 5
    with pytest.raises(ValueError, match="3 entries"):
        RelationLattice(3, ((1, -2),))


def test_lattice_does_not_follow_writes_to_the_callers_array():
    source = np.array([[1, -2, 1]])
    lattice = RelationLattice(3, source)
    hashed = hash(lattice)
    source[0, 1] = 1                    # odd on (0, 1, 0) if it reached the lattice
    assert lattice.vectors.tolist() == [[1, -2, 1]]
    assert parity_holds(lattice, (0, 1, 0)) == (True, None)
    view = source[:, :].view()
    view.flags.writeable = False        # read-only, but source still writes it
    from_view = RelationLattice(3, view)
    source[0, 1] = -2
    assert from_view.basis == ((1, 1, 1),) and hash(lattice) == hashed


def test_integer_kernel_keeps_its_basis_uncopied():
    columns, _, _ = build_relation_system(24, path_support_partition(24, 1))
    lattice = integer_kernel(columns)
    assert lattice.vectors.base is None and not lattice.vectors.flags.writeable
    same = RelationLattice(lattice.dimension, lattice.vectors)
    assert same.vectors is lattice.vectors and same == lattice


def test_lattice_fields_are_its_constructor_arguments():
    lattice = RelationLattice(dimension=3, vectors=((1, -2, 1),))
    assert [f.name for f in dataclasses.fields(lattice)] == ["dimension", "vectors"]
    assert dataclasses.replace(lattice, vectors=((1, 1, 0),)).basis == ((1, 1, 0),)
    with pytest.raises(ValueError, match="4 entries"):
        dataclasses.replace(lattice, dimension=4)


def _tuple_parity(lattice, sigma):
    """parity_holds as it was, a compress over each basis tuple."""
    marks = np.asarray(sigma).tolist()
    for vec in lattice.basis:
        if sum(itertools.compress(vec, marks)) % 2 != 0:
            return False, vec
    return True, None


def test_array_parity_matches_tuple_parity_up_to_64():
    verdicts = collections.Counter()
    for n in range(2, 65):
        for q in sorted({n // math.gcd(a, n) for a in range(1, n) if 2 * a != n}):
            columns, sigma, _ = build_relation_system(
                n, path_support_partition(n, n // q))
            lattice = integer_kernel(columns)
            holds, witness = parity_holds(lattice, sigma)
            assert (holds, witness) == _tuple_parity(lattice, sigma), (n, q)
            verdicts[holds] += 1
    assert verdicts == {True: 70, False: 114}


def test_array_parity_is_exact_past_int64():
    # int64 sums that wrap keep their low bit; object rows sum exactly
    big = 2 ** 62 + 1
    wrapping = RelationLattice(3, ((big, 2 ** 62, big),))
    assert wrapping.vectors.dtype == np.int64
    assert parity_holds(wrapping, (1, 1, 1)) == (True, None)      # 3 * 2**62 + 2
    assert parity_holds(wrapping, (1, 1, 0)) == (False, (big, 2 ** 62, big))
    huge = RelationLattice(2, ((2, 2 ** 70), (1, 2 ** 70 + 1)))
    assert huge.vectors.dtype == object
    assert parity_holds(huge, (0, 1)) == (False, (1, 2 ** 70 + 1))
    assert parity_holds(huge, (1, 1)) == (True, None)
    for marks in (np.array([0, 1]), (False, True)):
        assert parity_holds(huge, marks) == _tuple_parity(huge, marks)
