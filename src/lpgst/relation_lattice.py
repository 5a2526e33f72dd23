"""Integer kernel of the eigenvalue relation system and the mod-2 parity
test over it.

The system stacks one column per support eigenvalue: the exact cyclotomic
coefficients of the eigenvalue with an extra all-ones row encoding the
zero-sum constraint. Its integer kernel is computed by unimodular column
reduction (Cohen, A Course in Computational Algebraic Number Theory,
2.4), so the returned basis generates every integer solution.

The reduction runs on integer arrays in one pass, sparsest rows first:
int64 until an entry reaches 2**31, Python ints after. Most steps have a
pivot of +-1 and clear the row in one subtraction with no division, the
pivot's own entry included, and the pivot's column is dead; otherwise the
column that survives its row is. The basis is sign-normalized and sorted
as an array, and that array is what the re-verification multiplies and
the lattice keeps: the parity test is one product with it, and the
tuples of RelationLattice.basis are built only when a caller reads them.
The re-verification is one float64 product while bits(max column entry)
+ bits(max basis entry) + bits(column count) < 53, so every partial sum
is an integer below 2**53 and exact in any summation order; Python ints
otherwise.
"""
from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .cyclotomic import _max_abs, theta_table
from .pair_states import SupportPartition


@dataclass(frozen=True, init=False, eq=False)
class RelationLattice:
    """Saturated integer kernel basis of the relation system.

    vectors holds the basis, one vector per row of a read-only (rank,
    dimension) integer array: int64, or Python ints (object dtype) when an
    entry does not fit. It is given as integer rows, tuples or an array;
    an array the caller can still write to is copied. basis is the same
    vectors as tuples of Python ints, built the first time it is read.
    Lattices compare and hash by (dimension, basis), whichever form their
    basis was given in.
    """

    dimension: int
    vectors: np.ndarray

    def __init__(self, dimension: int, vectors):
        arr = (_exact_array(vectors) if len(vectors)
               else np.zeros((0, dimension), dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != dimension:
            raise ValueError(f"basis vectors must have {dimension} entries")
        # an int64 array comes back from _exact_array uncopied: copy it
        # unless it is read-only and no view of another array, as
        # integer_kernel's own basis is, so a caller's write cannot reach it
        if arr is vectors and (arr.flags.writeable or arr.base is not None):
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vectors", arr)

    @functools.cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.vectors.tolist()))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dimension, self.basis) == (other.dimension, other.basis)

    def __hash__(self):
        return hash((self.dimension, self.basis))


def integer_kernel(columns: list[tuple[int, ...]]) -> RelationLattice:
    """Basis of {v integer : sum_j v_j * columns[j] = 0}, exactly.

    Runs gcd-style column elimination row by row on an integer array,
    sparsest rows first, always reducing against the smallest-magnitude
    entry with nearest-integer quotients to keep intermediates small. The
    accumulated transform is unimodular, so the zero columns at the end
    span (and saturate) the kernel. The elimination runs in int64 until an
    entry reaches 2**31 and on Python ints (an object array) after it. The
    product of the input matrix with the basis array is re-verified
    exactly before the lattice keeps it. Raises ValueError unless every
    entry is an integer.
    """
    d = len(columns)
    if d == 0:
        return RelationLattice(0, ())
    # a 2-D array cannot be ragged, so only other input is scanned by row
    if not (isinstance(columns, np.ndarray) and columns.ndim == 2):
        rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise ValueError("columns must all have the same length")

    mat = _exact_array(columns)                 # mat[j, i]: column j, row i
    basis = _kernel_basis(mat)
    if not _product_is_zero(mat, basis):
        raise AssertionError("kernel verification failed")
    basis.flags.writeable = False       # the lattice keeps it without a copy
    return RelationLattice(d, basis)


# An int64 step from entries below 2**31 is exact, even one that reaches
# the bound: a nearest-integer quotient q has |q| <= 2**31, so |entry - q
# * pivot_entry| < 2**31 + 2**62 < 2**63. The array widens after that step.
_ELIMINATION_BOUND = 2 ** 31


def _kernel_basis(mat: np.ndarray) -> np.ndarray:
    """Sorted, sign-normalized kernel basis of the columns in mat, one
    vector per row of the returned array.

    Works on one (d, rows + d) array: each row holds a column of the system
    followed by its row of the unimodular transform. A step whose pivot is
    +-1 clears every active entry at once, with no division and no re-scan:
    the quotients are the entries times the pivot, so the pivot's own is
    p * p = 1 and its whole row of work subtracts itself to zero in the
    same update. That pivot's column dies and the row is done. Otherwise
    the column left as the row's only nonzero entry dies and its system
    part is zeroed. Either way a dead column's system part is zero, so a
    row's active columns are its nonzero entries, and its transform row is
    never read again. The array is int64 while every entry is below
    _ELIMINATION_BOUND, and Python ints (object) from the start or from the
    step that reaches it, so the steps and basis are those of a run on
    Python ints throughout.
    """
    d, rows = mat.shape
    wide = mat.dtype == object or _max_abs(mat) >= _ELIMINATION_BOUND
    work = np.zeros((d, rows + d), dtype=object if wide else np.int64)
    work[:, :rows] = mat
    work[:, rows:] = np.eye(d, dtype=work.dtype)
    live = np.ones(d, dtype=bool)

    # sparsest first: the dense rows (constant, zero sum) meet few live columns
    for row in np.argsort(np.count_nonzero(mat, axis=0), kind="stable"):
        active = (work[:, row] != 0).nonzero()[0]
        while active.size > 1:
            block = work[active]
            entries = block[:, row]             # a view: follows the step
            # argmin takes the first smallest magnitude, as min(key=abs) does
            at = np.abs(entries).argmin()
            p = entries[at]
            unit = p == 1 or p == -1
            if unit:
                quot = entries * p              # quot[at] = p * p = 1
            else:
                quot = entries // p
                quot[2 * np.abs(entries % p) > abs(p)] += 1
                quot[at] = 0
            block -= quot[:, None] * block[at]
            work[active] = block
            if not wide and (block.max() >= _ELIMINATION_BOUND
                             or block.min() <= -_ELIMINATION_BOUND):
                wide = True                     # the step itself was exact
                work = work.astype(object)
            if unit:                            # the pivot row cleared itself
                live[active[at]] = False
                break
            active = active[entries != 0]
        else:                                   # no unit pivot ended the row
            if active.size:
                live[active[0]] = False
                work[active[0], :rows] = 0

    assert not work[:, :rows].any()
    kernel = work[live, rows:]
    # each row is nonzero (the transform is unimodular): flip the rows
    # whose first nonzero entry is negative
    first = kernel[np.arange(len(kernel)), np.argmax(kernel != 0, axis=1)]
    kernel[first < 0] *= -1
    # rows in lexicographic order; on object rows lexsort compares the
    # Python ints themselves
    return kernel[np.lexsort(kernel.T[::-1])]


def _product_is_zero(columns, basis) -> bool:
    """Whether every basis vector combines the columns to zero, exactly.

    One matrix product, in float64 only when bits(max|column entry|) +
    bits(max|basis entry|) + bits(number of columns) < 53, so that each of
    the d terms and every partial sum is an integer below 2**53, which
    float64 holds exactly in any order; on Python ints otherwise. Raises
    ValueError unless every entry is an integer.
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

    The one check that caller input is integer: any other entry raises
    ValueError, where an integer cast would truncate 0.5 to 0. An int64
    array is used as it is, without a copy. An unsigned array is scanned
    for entries past int64, which a cast would wrap to negatives. Input
    numpy reads as neither (floats, strings, integers past int64) is
    checked once per distinct entry type: an isinstance test per entry
    took half of a warm verify_witness call at n = 1001.
    """
    arr = np.asarray(rows)
    if arr.dtype.kind in "biu":
        if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
            return arr.astype(object)
        return arr.astype(np.int64, copy=False)
    for kind in set(map(type, itertools.chain.from_iterable(rows))):
        if not issubclass(kind, numbers.Integral):
            raise ValueError(f"entries must be integers, got {kind.__name__}")
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:       # numpy scalars would wrap (int64) or turn float
        return np.array([[int(v) for v in row] for row in rows], dtype=object)


def build_relation_system(
    n: int,
    part: SupportPartition,
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Columns, minus marks, and index map for the path relation system.

    One column (a row of the returned array) per support eigenvalue index
    k: the cyclotomic coefficients of the eigenvalue, row k - 1 of
    theta_table(n), with a trailing 1 for the zero-sum constraint. The
    minus marks are an int64 array, 1 where k is a minus-sign eigenvalue
    and 0 elsewhere.
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
    sigma = np.array([k in part.minus for k in indices], dtype=np.int64)
    return columns, sigma, tuple(indices)


def parity_holds(lat: RelationLattice,
                 sigma) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the 0/1 marks sigma are even on every lattice vector, by
    checking the basis.

    sigma . v mod 2 is linear in v, so even parity on a generating set
    extends to the whole lattice. Returns (True, None) or (False, witness)
    where the witness is the first basis vector with odd parity, as a
    tuple of Python ints. Raises ValueError unless sigma has one mark per
    position, each 0 or 1.
    """
    marks = np.asarray(sigma)
    if len(marks) != lat.dimension:
        raise ValueError(
            f"parity marks length {len(marks)} does not match "
            f"lattice dimension {lat.dimension}")
    if not (marks.ndim == 1 and ((marks == 0) | (marks == 1)).all()):
        raise ValueError("parity marks must each be 0 or 1")
    # one product for every vector; an int64 sum that wraps is still
    # right mod 2**64, so its low bit is the parity. Object rows sum as
    # Python ints.
    vectors = lat.vectors
    odd = np.flatnonzero((vectors @ (marks == 1).astype(vectors.dtype)) & 1)
    if not odd.size:
        return True, None
    return False, tuple(vectors[odd[0]].tolist())
