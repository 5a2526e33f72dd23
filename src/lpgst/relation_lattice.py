"""Integer kernel of the eigenvalue relation system and the mod-2 parity
test over it.

The system stacks one column per support eigenvalue: the exact cyclotomic
coefficients of the eigenvalue with an extra all-ones row encoding the
zero-sum constraint. Its integer kernel is computed by unimodular column
reduction (Cohen, A Course in Computational Algebraic Number Theory,
2.4), so the returned basis generates every integer solution.

The reduction runs on integer arrays, sparsest rows first: int64 while
every entry stays below 2**31, Python ints otherwise. The re-verification
is one float64 product while bits(max column entry) + bits(max basis
entry) + bits(column count) < 53, so every partial sum is an integer below
2**53 and exact in any summation order; Python ints otherwise.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .cyclotomic import _max_abs, theta_table
from .pair_states import SupportPartition


@dataclass(frozen=True)
class RelationLattice:
    """Saturated integer kernel basis of the relation system.

    basis vectors have length `dimension` (one entry per support
    eigenvalue); index_map sends each position to its eigenvalue index.
    """

    dimension: int
    basis: tuple[tuple[int, ...], ...]
    index_map: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class ParityFunctional:
    """0/1 marks over support positions; 1 flags a minus-sign eigenvalue."""

    sigma: tuple[int, ...]

    def dot(self, vector: tuple[int, ...]) -> int:
        return sum(s * v for s, v in zip(self.sigma, vector))


def integer_kernel(columns: list[tuple[int, ...]],
                   index_map: tuple[int, ...] | None = None) -> RelationLattice:
    """Basis of {v integer : sum_j v_j * columns[j] = 0}, exactly.

    Runs gcd-style column elimination row by row on an integer array,
    sparsest rows first, always reducing against the smallest-magnitude
    entry with nearest-integer quotients to keep intermediates small. The
    accumulated transform is unimodular, so the zero columns at the end
    span (and saturate) the kernel. The elimination runs in int64 while
    every entry stays below 2**31 and is redone on Python ints (an object
    array) as soon as one does not; the basis is the same either way. The
    product of the input matrix with the basis is re-verified exactly
    before returning. Raises ValueError unless every entry is an integer.
    """
    d = len(columns)
    if index_map is None:
        index_map = tuple(range(d))
    if d == 0:
        return RelationLattice(0, (), index_map)
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError("columns must all have the same length")

    mat = np.array(columns)                     # mat[j, i]: column j, row i
    if mat.dtype.kind != "i":
        # floats, or integers beyond int64 (numpy infers uint64, float64 or
        # object for those): an integer cast would truncate 0.5 to 0
        if not all(isinstance(v, numbers.Integral) for col in columns for v in col):
            raise ValueError("column entries must be integers")
        mat = _exact_array(columns)
    basis = None
    if mat.dtype != object and _max_abs(mat) < _ELIMINATION_BOUND:
        basis = _kernel_basis(mat, np.int64)
    if basis is None:
        basis = _kernel_basis(mat, object)
    if not _product_is_zero(mat, basis):
        raise AssertionError("kernel verification failed")
    return RelationLattice(d, basis, index_map)


# int64 elimination is exact while every entry stays below 2**31: a
# nearest-integer quotient q then has |q| <= 2**31, so one step's
# |entry - q * pivot_entry| < 2**31 + 2**62 < 2**63.
_ELIMINATION_BOUND = 2 ** 31


def _kernel_basis(mat: np.ndarray, dtype) -> tuple[tuple[int, ...], ...] | None:
    """Sorted, sign-normalized kernel basis of the columns in mat.

    Works on one (d, rows + d) array of the given dtype: each row holds a
    column of the system followed by its row of the unimodular transform.
    Returns None when an int64 entry reaches _ELIMINATION_BOUND.
    """
    d, rows = mat.shape
    work = np.zeros((d, rows + d), dtype=dtype)
    work[:, :rows] = mat
    work[:, rows:] = np.eye(d, dtype=dtype)
    live = np.ones(d, dtype=bool)

    # sparsest first: the dense rows (constant, zero sum) meet few live columns
    for row in np.argsort(np.count_nonzero(mat, axis=0), kind="stable"):
        active = np.flatnonzero(live & (work[:, row] != 0))
        while active.size > 1:
            entries = work[active, row]
            # argmin takes the first smallest magnitude, as min(key=abs) does
            at = np.argmin(np.abs(entries))
            pivot = work[active[at]]
            quot = entries // pivot[row]
            quot[2 * np.abs(entries % pivot[row]) > abs(pivot[row])] += 1
            quot[at] = 0
            reduced = work[active] - np.outer(quot, pivot)
            if dtype is not object and np.abs(reduced).max() >= _ELIMINATION_BOUND:
                return None
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


def _product_is_zero(columns, basis) -> bool:
    """Whether every basis vector combines the columns to zero, exactly.

    One matrix product, in float64 only when bits(max|column entry|) +
    bits(max|basis entry|) + bits(number of columns) < 53, so that each of
    the d terms and every partial sum is an integer below 2**53, which
    float64 holds exactly in any order; on Python ints otherwise.
    """
    cols = _exact_array(columns)
    vecs = _exact_array(basis)
    if cols.size == 0 or vecs.size == 0:
        return True
    bits = (_max_abs(cols).bit_length() + _max_abs(vecs).bit_length()
            + len(cols).bit_length())
    dtype = np.float64 if bits < 53 else object
    return not (vecs.astype(dtype) @ cols.astype(dtype)).any()


def _exact_array(rows) -> np.ndarray:
    """2-D integer array: int64 when every entry fits, Python ints otherwise.

    An int64 array is used as it is, without a copy. An unsigned array is
    scanned for entries past int64, which a cast would wrap to negatives.
    """
    if (isinstance(rows, np.ndarray) and rows.dtype.kind == "u"
            and rows.size and rows.max() > np.iinfo(np.int64).max):
        return rows.astype(object)
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def build_relation_system(
    n: int,
    part: SupportPartition,
) -> tuple[np.ndarray, ParityFunctional, tuple[int, ...]]:
    """Columns, parity marks, and index map for the path relation system.

    One column (a row of the returned array) per support eigenvalue index
    k: the cyclotomic coefficients of the eigenvalue, row k - 1 of
    theta_table(n), with a trailing 1 for the zero-sum constraint.
    """
    indices = sorted(part.support)
    if not indices:
        raise ValueError("empty support: the relation system is degenerate")
    if not 1 <= indices[0] <= indices[-1] <= n - 1:
        raise ValueError(f"support indices must lie in 1..{n - 1}, "
                         f"got {indices[0]}..{indices[-1]}")
    table = theta_table(n)
    columns = np.ones((len(indices), table.shape[1] + 1), dtype=table.dtype)
    columns[:, :-1] = table[np.array(indices) - 1]
    sigma = ParityFunctional(tuple(1 if k in part.minus else 0 for k in indices))
    return columns, sigma, tuple(indices)


def parity_holds(lat: RelationLattice,
                 sigma: ParityFunctional) -> tuple[bool, tuple[int, ...] | None]:
    """Whether sigma is even on every lattice vector, by checking the basis.

    sigma(v) mod 2 is linear in v, so even parity on a generating set
    extends to the whole lattice. Returns (True, None) or (False, witness)
    where the witness is a basis vector with odd parity.
    """
    if len(sigma.sigma) != lat.dimension:
        raise ValueError(
            f"parity functional length {len(sigma.sigma)} does not match "
            f"lattice dimension {lat.dimension}")
    for vec in lat.basis:
        if sigma.dot(vec) % 2 != 0:
            return False, vec
    return True, None
