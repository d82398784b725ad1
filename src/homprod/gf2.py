"""Dense bit-packed linear algebra over GF(2).

Matrices are stored row-major with 64 coordinates per machine word, so row
addition is a word-wise XOR and weight queries are word-wise popcounts.
Elimination runs on one integer per matrix: `BitMatrix.rref` reads its
words, row after row, as one little-endian int and reduces it with
`linalg.eliminate`, the kernel both fields share, on a single bit plane.  A
reduced form is unique for its row space, so every derived basis is
deterministic; kernel and image bases are returned in reduced echelon form
so span equality can be tested by direct comparison.  Null bases, span
tests and products are linalg's `null_basis`, `residue` and `matmul_codes`
on 0/1 codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import eliminate, matmul_codes, null_basis, residue

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
    """A rows x cols matrix over GF(2), bit-packed along each row.

    The invariant maintained everywhere: `data` has shape
    (rows, ceil(cols / 64)) and all pad bits beyond `cols` are zero.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ParameterError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        words = _word_count(cols)
        if data is None:
            self.data = np.zeros((rows, words), dtype=np.uint64)
        else:
            if data.shape != (rows, words):
                raise DimensionError(
                    f"packed data shape {data.shape} does not match ({rows}, {words})"
                )
            self.data = data

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        m = cls(n, n)
        for i in range(n):
            m.set(i, i, 1)
        return m

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8))
        rows, cols = dense.shape
        return cls(rows, cols, pack_rows(dense))

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        """Uniformly random matrix, deterministic for a given generator state."""
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        return cls.from_dense(dense)

    # -- element and row access -------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int((self.data[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        mask = np.uint64(1) << np.uint64(j & 63)
        if value & 1:
            self.data[i, j >> 6] |= mask
        else:
            self.data[i, j >> 6] &= ~mask

    def row(self, i: int) -> np.ndarray:
        """Packed words of row i (a view, not a copy)."""
        return self.data[i]

    def row_weight(self, i: int) -> int:
        return int(np.bitwise_count(self.data[i]).sum())

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.data, self.cols)

    # -- basic algebra ------------------------------------------------------

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.data.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        self._check_same_shape(other)
        return BitMatrix(self.rows, self.cols, self.data ^ other.data)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return BitMatrix.from_dense(matmul_codes(self.to_dense(), other.to_dense()))

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T)

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        return BitMatrix.from_dense(np.kron(self.to_dense(), other.to_dense()))

    def is_zero(self) -> bool:
        return not self.data.any()

    def max_row_weight(self) -> int:
        if self.rows == 0:
            return 0
        return int(np.bitwise_count(self.data).sum(axis=1).max())

    def max_column_weight(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        return int(self.to_dense().sum(axis=0, dtype=np.int64).max())

    def _check_same_shape(self, other: "BitMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["BitMatrix", list[int]]:
        """Reduced row echelon form and its pivot columns.

        The matrix is reduced as one integer by `linalg.eliminate`, which
        clears each pivot column in every row at once; the result is the
        unique reduced form of the row space and shares no storage with
        this matrix.
        """
        words = self.data.shape[1]
        raw, pivots = eliminate(self.data.astype("<u8").tobytes(), self.rows, WORD_BITS * words)
        data = np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(self.rows, words)
        return BitMatrix(self.rows, self.cols, data), pivots

    def rank(self) -> int:
        return len(self.rref()[1])


# -- vectors ----------------------------------------------------------------
#
# A vector of length n is a 1-d uint64 array of ceil(n / 64) words with zero
# pad bits, matching one row of a BitMatrix over the same ambient dimension.


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
        return [self.matrix.data[i] for i in range(self.matrix.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self.matrix == other.matrix


def rref_row_space(reduced: BitMatrix, pivots: list[int]) -> Basis:
    """Row space basis of a matrix, given its `rref()`: the leading rows."""
    r = len(pivots)
    return Basis(BitMatrix(r, reduced.cols, reduced.data[:r].copy()))


def rref_kernel(reduced: BitMatrix, pivots: list[int]) -> Basis:
    """Canonical basis of the right null space of a matrix, given its `rref()`."""
    return row_space_basis(BitMatrix.from_dense(null_basis(reduced.to_dense(), pivots)))


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
    return not residue(basis.matrix.to_dense(), vector_to_bits(v, basis.ambient_dim)).any()


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
    stacked = np.concatenate([base.matrix.to_dense(), candidates.matrix.to_dense()])
    pivots = BitMatrix.from_dense(stacked.T).rref()[1]
    return [candidates.matrix.data[p - base.dim] for p in pivots if p >= base.dim]


def preimages(mat: BitMatrix, rhs: np.ndarray) -> np.ndarray | None:
    """Solutions X of mat X = rhs with zeros on all free columns, or None.

    `rhs` holds the right-hand sides as the columns of a (rows, s) 0/1
    array and X is (cols, s).  One elimination of [mat | rhs] serves them
    all; None means some column of `rhs` is outside the image.
    """
    reduced, pivots = BitMatrix.from_dense(np.hstack([mat.to_dense(), rhs])).rref()
    if pivots and pivots[-1] >= mat.cols:
        return None
    x = np.zeros((mat.cols, rhs.shape[1]), dtype=np.uint8)
    x[pivots] = reduced.to_dense()[: len(pivots), mat.cols :]
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
    return BitMatrix.from_dense(x)


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
