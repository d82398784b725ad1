"""Dense bit-packed linear algebra over GF(2).

Matrices are stored row-major with 64 coordinates per machine word, so row
addition is a word-wise XOR and weight queries are word-wise popcounts.  All
echelon routines use leftmost-pivot, topmost-row selection, which makes every
derived basis deterministic; kernel and image bases are returned in reduced
echelon form so span equality can be tested by direct comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

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
        # uint8 matmul wraps mod 256, which preserves parity.
        prod = (self.to_dense() @ other.to_dense()) & 1
        return BitMatrix.from_dense(prod)

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

        Pivots are chosen leftmost-column first and topmost-row first, so the
        output is a deterministic function of the matrix.
        """
        m = self.copy()
        data = m.data
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            w, b = c >> 6, np.uint64(c & 63)
            col = (data[r:, w] >> b) & np.uint64(1)
            hits = np.nonzero(col)[0]
            if hits.size == 0:
                continue
            p = r + int(hits[0])
            if p != r:
                data[[r, p]] = data[[p, r]]
            col_all = (data[:, w] >> b) & np.uint64(1)
            col_all[r] = 0
            targets = np.nonzero(col_all)[0]
            if targets.size:
                data[targets] ^= data[r]
            pivots.append(c)
            r += 1
        return m, pivots

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


def vector_get(v: np.ndarray, j: int) -> int:
    return int((v[j >> 6] >> np.uint64(j & 63)) & np.uint64(1))


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


def _echelon_basis(mat: BitMatrix) -> Basis:
    """Reduced echelon basis of the row space of `mat`."""
    reduced, pivots = mat.rref()
    r = len(pivots)
    return Basis(BitMatrix(r, mat.cols, reduced.data[:r].copy()))


def row_space_basis(mat: BitMatrix) -> Basis:
    return _echelon_basis(mat)


def image_basis(mat: BitMatrix) -> Basis:
    """Canonical basis of the column space, as vectors of length `rows`."""
    return _echelon_basis(mat.transpose())


def kernel_basis(mat: BitMatrix) -> Basis:
    """Canonical basis of the right null space {v : mat v = 0}."""
    reduced, pivots = mat.rref()
    pivot_set = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_set]
    vectors = np.zeros((len(free), mat.cols), dtype=np.uint8)
    dense = reduced.to_dense()
    for k, f in enumerate(free):
        vectors[k, f] = 1
        for i, p in enumerate(pivots):
            vectors[k, p] = dense[i, f]
    return _echelon_basis(BitMatrix.from_dense(vectors)) if free else Basis(
        BitMatrix(0, mat.cols)
    )


def in_span(v: np.ndarray, basis: Basis) -> bool:
    """Membership test against an echelon basis by successive reduction."""
    if v.shape != (_word_count(basis.ambient_dim),):
        raise DimensionError("vector length does not match basis ambient dimension")
    r = v.copy()
    m = basis.matrix
    for i in range(m.rows):
        lead = _leading_index(m.data[i])
        if lead is not None and vector_get(r, lead):
            r ^= m.data[i]
    return not r.any()


def _leading_index(v: np.ndarray) -> int | None:
    for w in range(v.shape[0]):
        word = int(v[w])
        if word:
            return (w << 6) + (word & -word).bit_length() - 1
    return None


def extend_basis(base: Basis, candidates: Basis) -> list[np.ndarray]:
    """Vectors from `candidates` that extend `base` to span their joint space.

    Candidates are scanned in order and kept greedily, so the result is
    deterministic.  The returned vectors are rows of `candidates.matrix`.
    """
    if base.ambient_dim != candidates.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    picked: list[np.ndarray] = []
    stack = [base.matrix.data[i] for i in range(base.matrix.rows)]
    current_rank = base.dim
    for v in candidates.vectors:
        trial = BitMatrix(
            len(stack) + 1,
            base.ambient_dim,
            np.array(stack + [v], dtype=np.uint64).reshape(len(stack) + 1, -1),
        )
        r = trial.rank()
        if r > current_rank:
            picked.append(v)
            stack.append(v)
            current_rank = r
    return picked


def solve(mat: BitMatrix, b: np.ndarray) -> np.ndarray | None:
    """One particular solution x of mat x = b, or None if inconsistent.

    The solution is the deterministic one with zeros on all free columns.
    """
    if b.shape != (_word_count(mat.rows),):
        raise DimensionError("right hand side length does not match row count")
    aug_dense = np.concatenate(
        [mat.to_dense(), vector_to_bits(b, mat.rows).reshape(-1, 1)], axis=1
    )
    reduced, pivots = BitMatrix.from_dense(aug_dense).rref()
    if pivots and pivots[-1] == mat.cols:
        return None
    x = zero_vector(mat.cols)
    dense = reduced.to_dense()
    for i, p in enumerate(pivots):
        if dense[i, mat.cols]:
            x[p >> 6] ^= np.uint64(1) << np.uint64(p & 63)
    return x


def inverse(mat: BitMatrix) -> BitMatrix:
    """Inverse of a square invertible matrix via Jordan elimination."""
    if mat.rows != mat.cols:
        raise DimensionError("only square matrices can be inverted")
    n = mat.rows
    aug = np.concatenate([mat.to_dense(), np.eye(n, dtype=np.uint8)], axis=1)
    reduced, pivots = BitMatrix.from_dense(aug).rref()
    if pivots[:n] != list(range(n)):
        raise ParameterError("matrix is singular")
    return BitMatrix.from_dense(reduced.to_dense()[:, n:])


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
