"""Linear algebra over GF(2).

A `BitMatrix` is one uint8 array of 0/1 codes, as a `Gf4Matrix` is one of
GF(4) codes, so its products, elimination, null bases and span tests are
linalg's `matmul_codes`, `rref_codes`, `null_basis` and `residue`, the
kernels both fields share.  A reduced form is unique for its row space, so
every derived basis is deterministic; kernel and image bases are returned
in reduced echelon form so span equality can be tested by direct
comparison.  Vectors are packed, 64 coordinates per uint64 word, and
`BitMatrix.data` packs a matrix's rows into such vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import matmul_codes, null_basis, residue, rref_codes

WORD_BITS = 64


def _word_count(cols: int) -> int:
    return max(1, (cols + WORD_BITS - 1) // WORD_BITS)


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, words) uint64."""
    dense = np.asarray(dense, dtype=np.uint8) & 1
    if dense.ndim != 2:
        raise DimensionError("expected a two dimensional array")
    rows, cols = dense.shape
    words = _word_count(cols)
    padded = np.zeros((rows, words * WORD_BITS), dtype=np.uint8)
    padded[:, :cols] = dense
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64).reshape(rows, words)


def unpack_rows(data: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of pack_rows, returning a (rows, cols) uint8 array."""
    rows = data.shape[0]
    as_bytes = np.ascontiguousarray(data).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :cols].reshape(rows, cols)


class BitMatrix:
    """A rows x cols matrix over GF(2), stored as one uint8 array of 0/1 codes.

    The constructor keeps the array it is given, while `from_dense` and
    `to_dense` copy.  `data` packs the rows into GF(2) vectors, 64
    coordinates per uint64 word, on each read.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray):
        if codes.ndim != 2:
            raise DimensionError(f"expected a two dimensional array, got shape {codes.shape}")
        if codes.dtype != np.uint8 or codes.size and codes.max() > 1:
            raise ParameterError("GF(2) codes must be a uint8 array of 0s and 1s")
        self.codes = codes

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    @property
    def data(self) -> np.ndarray:
        """The rows as packed vectors, shape (rows, ceil(cols / 64)), a new array."""
        return pack_rows(self.codes)

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        if rows < 0 or cols < 0:
            raise ParameterError("matrix dimensions must be non-negative")
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        return cls(np.atleast_2d(np.asarray(dense, dtype=np.uint8)) & 1)

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        """Uniformly random matrix, deterministic for a given generator state."""
        return cls(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    # -- element access and weights ---------------------------------------

    def get(self, i: int, j: int) -> int:
        return int(self.codes[i, j])

    def set(self, i: int, j: int, value: int) -> None:
        self.codes[i, j] = value & 1

    def row_weight(self, i: int) -> int:
        return int(np.count_nonzero(self.codes[i]))

    def max_row_weight(self) -> int:
        return int(np.count_nonzero(self.codes, axis=1).max(initial=0))

    def max_column_weight(self) -> int:
        return int(np.count_nonzero(self.codes, axis=0).max(initial=0))

    def to_dense(self) -> np.ndarray:
        return self.codes.copy()

    # -- basic algebra ------------------------------------------------------

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.codes.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return bool(np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.codes.shape, self.codes.tobytes()))

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.codes.shape != other.codes.shape:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return BitMatrix(self.codes ^ other.codes)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return BitMatrix(matmul_codes(self.codes, other.codes))

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.codes.T.copy())

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        return BitMatrix(np.kron(self.codes, other.codes))

    def is_zero(self) -> bool:
        return not self.codes.any()

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["BitMatrix", list[int]]:
        """Reduced row echelon form and its pivot columns, by `linalg.rref_codes`.

        The result is the unique reduced form of the row space and shares
        no storage with this matrix.
        """
        reduced, pivots = rref_codes(self.codes)
        return BitMatrix(reduced), pivots

    def rank(self) -> int:
        return len(self.rref()[1])


# -- vectors ----------------------------------------------------------------
#
# A vector of length n is a 1-d uint64 array of ceil(n / 64) words with zero
# pad bits, one row of the `data` of a BitMatrix with n columns.


def zero_vector(n: int) -> np.ndarray:
    return np.zeros(_word_count(n), dtype=np.uint64)


def vector_from_bits(bits) -> np.ndarray:
    return pack_rows(np.atleast_2d(np.asarray(bits, dtype=np.uint8)))[0]

def vector_from_support(n: int, support) -> np.ndarray:
    v = zero_vector(n)
    for j in support:
        if not 0 <= j < n:
            raise ParameterError(f"support index {j} outside [0, {n})")
        v[j >> 6] ^= np.uint64(1) << np.uint64(j & 63)
    return v


def vector_to_bits(v: np.ndarray, n: int) -> np.ndarray:
    return unpack_rows(v.reshape(1, -1), n)[0]


def vector_weight(v: np.ndarray) -> int:
    return int(np.bitwise_count(v).sum())


def dot_parity(u: np.ndarray, v: np.ndarray) -> int:
    """Standard inner product over GF(2)."""
    return int(np.bitwise_count(u & v).sum()) & 1


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
