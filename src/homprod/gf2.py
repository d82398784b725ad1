"""Linear algebra over GF(2).

A `BitMatrix` is linalg's `CodeMatrix` on 0/1 codes, and its null bases and
span tests are linalg's `null_basis` and `residue`.  A reduced form is
unique for its row space, so every derived basis is deterministic; kernel
and image bases are returned in reduced echelon form so span equality can
be tested by direct comparison.  Vectors are packed, 64 coordinates per
uint64 word, by linalg's `pack_codes` on one plane, and `BitMatrix.data`
packs a matrix's rows into such vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import CodeMatrix, null_basis, pack_codes, residue, rref_codes, unpack_codes

WORD_BITS = 64


def _word_count(cols: int) -> int:
    return max(1, (cols + WORD_BITS - 1) // WORD_BITS)


class BitMatrix(CodeMatrix):
    """A rows x cols matrix over GF(2): a `CodeMatrix` of 0/1 codes.

    `from_dense` and `to_dense` copy.  `data` packs the rows into GF(2)
    vectors, 64 coordinates per uint64 word, on each read.
    """

    __slots__ = ()
    field, top = "GF(2)", 1

    @property
    def data(self) -> np.ndarray:
        """The rows as packed vectors, shape (rows, ceil(cols / 64)), a new array."""
        return pack_codes(self.codes, 1, _word_count(self.cols))

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        return cls(np.atleast_2d(np.asarray(dense, dtype=np.uint8)) & 1)

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        """Uniformly random matrix, deterministic for a given generator state."""
        return cls(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    def get(self, i: int, j: int) -> int:
        return int(self.codes[i, j])

    def set(self, i: int, j: int, value: int) -> None:
        self.codes[i, j] = value & 1

    to_dense = CodeMatrix.to_codes


# -- vectors ----------------------------------------------------------------
#
# A vector of length n is a 1-d uint64 array of ceil(n / 64) words with zero
# pad bits, one row of the `data` of a BitMatrix with n columns.


def zero_vector(n: int) -> np.ndarray:
    return np.zeros(_word_count(n), dtype=np.uint64)


def vector_from_bits(bits) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    return pack_codes(bits, 1, _word_count(len(bits)))


def vector_from_support(n: int, support) -> np.ndarray:
    bits = np.zeros(n, dtype=np.uint8)
    for j in support:
        if not 0 <= j < n:
            raise ParameterError(f"support index {j} outside [0, {n})")
        bits[j] ^= 1
    return vector_from_bits(bits)


def vector_to_bits(v: np.ndarray, n: int) -> np.ndarray:
    return unpack_codes(v, 1, n)


def vector_weight(v: np.ndarray) -> int:
    return int(np.bitwise_count(v).sum())


# -- spans and bases ----------------------------------------------------------


@dataclass(frozen=True)
class Basis:
    """An ordered list of independent vectors spanning a subspace.

    `matrix` holds the vectors as rows.  Bases produced by this module are in
    reduced echelon form, so two equal subspaces yield equal Basis objects.
    """

    matrix: BitMatrix

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def ambient_dim(self) -> int:
        return self.matrix.cols

    @property
    def vectors(self) -> list[np.ndarray]:
        return list(self.matrix.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self.matrix == other.matrix


def rref_row_space(reduced: BitMatrix, pivots: list[int]) -> Basis:
    """Row space basis of a matrix, given its `rref()`: the leading rows."""
    r = len(pivots)
    return Basis(BitMatrix(reduced.codes[:r].copy()))


def rref_kernel(reduced: BitMatrix, pivots: list[int]) -> Basis:
    """Canonical basis of the right null space of a matrix, given its `rref()`."""
    return row_space_basis(BitMatrix(null_basis(reduced.codes, pivots)))


def row_space_basis(mat: BitMatrix) -> Basis:
    """Reduced echelon basis of the row space of `mat`."""
    return rref_row_space(*mat.rref())


def image_basis(mat: BitMatrix) -> Basis:
    """Canonical basis of the column space, as vectors of length `rows`.

    Kept as the independent reference of the tests and the perfbench checks;
    the package reads images from stored reductions.
    """
    return row_space_basis(mat.transpose())


def kernel_basis(mat: BitMatrix) -> Basis:
    """Canonical basis of the right null space {v : mat v = 0}."""
    return rref_kernel(*mat.rref())


def in_span(v: np.ndarray, basis: Basis) -> bool:
    """Membership test against a reduced echelon basis, such as every Basis here."""
    if v.shape != (_word_count(basis.ambient_dim),):
        raise DimensionError("vector length does not match basis ambient dimension")
    return not residue(basis.matrix.codes, vector_to_bits(v, basis.ambient_dim)).any()


def extend_basis(base: Basis, candidates: Basis) -> list[np.ndarray]:
    """Vectors from `candidates` that extend `base` to span their joint space.

    A candidate is kept when it lies outside the span of the base and the
    candidates before it, so the result is deterministic: these are the
    pivot columns past the base of the matrix whose columns are the base
    vectors, then the candidates.  The returned vectors are rows of
    `candidates.matrix`.
    """
    if base.ambient_dim != candidates.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    pivots = rref_codes(np.concatenate([base.matrix.codes, candidates.matrix.codes]).T)[1]
    vectors = candidates.matrix.data
    return [vectors[p - base.dim] for p in pivots if p >= base.dim]


def preimages(mat: BitMatrix, rhs: np.ndarray) -> np.ndarray | None:
    """Solutions X of mat X = rhs with zeros on all free columns, or None.

    `rhs` holds the right-hand sides as the columns of a (rows, s) 0/1
    array and X is (cols, s).  One elimination of [mat | rhs] serves them
    all; None means some column of `rhs` is outside the image.
    """
    reduced, pivots = rref_codes(np.hstack([mat.codes, rhs]))
    if pivots and pivots[-1] >= mat.cols:
        return None
    x = np.zeros((mat.cols, rhs.shape[1]), dtype=np.uint8)
    x[pivots] = reduced[: len(pivots), mat.cols :]
    return x


def solve(mat: BitMatrix, b: np.ndarray) -> np.ndarray | None:
    """One particular solution x of mat x = b, or None if inconsistent.

    The solution is the deterministic one with zeros on all free columns.
    """
    if b.shape != (_word_count(mat.rows),):
        raise DimensionError("right hand side length does not match row count")
    x = preimages(mat, vector_to_bits(b, mat.rows).reshape(-1, 1))
    return None if x is None else vector_from_bits(x[:, 0])


def inverse(mat: BitMatrix) -> BitMatrix:
    """Inverse of a square invertible matrix: the preimages of the identity."""
    if mat.rows != mat.cols:
        raise DimensionError("only square matrices can be inverted")
    x = preimages(mat, np.eye(mat.rows, dtype=np.uint8))
    if x is None:
        raise ParameterError("matrix is singular")
    return BitMatrix(x)


def random_invertible(m: int, rng: np.random.Generator) -> BitMatrix:
    """Uniformly random invertible m x m matrix by rejection sampling.

    Each draw is uniform over all matrices and kept only if full rank; the
    acceptance probability prod_{i>=1} (1 - 2^-i) exceeds 0.288 for every m,
    so the expected number of draws is below 3.5.
    """
    if m <= 0:
        raise ParameterError("matrix size must be positive")
    while True:
        cand = BitMatrix.random(m, m, rng)
        if cand.rank() == m:
            return cand
