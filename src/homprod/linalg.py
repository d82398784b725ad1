"""The matrix class, boundary base, kernels and reduced-form kit of both fields.

GF(4) = {0, 1, w, W} (W = w^2) is held as the codes 0, 1, 2, 3, so addition
is XOR of codes and the other operations are lookups in `MUL`, `CONJ` and
`INV`; GF(2) is the 0/1 subfield.  `gf2` and `gf4` subclass the one matrix
class, `CodeMatrix`, and the one boundary base, `Boundary`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError, PreconditionError

# Multiplication from the cyclic group {1, w, W}: codes 1, 2, 3 are w^0, w^1,
# w^2 and exponents add mod 3.  Conjugation is squaring, inversion is cubing
# less one.  Addition needs no table: codes add by XOR.
MUL = np.zeros((4, 4), dtype=np.uint8)
for _a in range(1, 4):
    for _b in range(1, 4):
        MUL[_a, _b] = 1 + ((_a - 1) + (_b - 1)) % 3
CONJ = np.array([MUL[x, x] for x in range(4)], dtype=np.uint8)
INV = np.array([0, 1, 3, 2], dtype=np.uint8)


def matmul_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of code arrays, from integer products of bit planes.

    Each plane of the product is the parity of integer sums, which uint8 keeps
    as it wraps mod 256.  0/1 codes need one product; otherwise a = a0 + a1 w
    and w^2 = 1 + w give the planes a0 b0 + a1 b1 and (a0 + a1)(b0 + b1) + a0 b0.
    """
    if a.max(initial=0) <= 1 and b.max(initial=0) <= 1:
        return (a @ b) & 1
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    low = a0 @ b0
    return (low ^ a1 @ b1) & 1 | ((low ^ (a0 ^ a1) @ (b0 ^ b1)) & 1) << 1


# -- packed words ---------------------------------------------------------------
#
# Two packers keep bytes, for Python ints: `rref_codes`, whose planes
# `eliminate` reads as one int, where a narrow plane padded to a 64-bit word
# would lengthen every integer operation; and circuits' `_columns` and
# `_matrix`, which convert each column to and from an int of its bytes.


def pack_codes(codes: np.ndarray, planes: int, words: int) -> np.ndarray:
    """uint8 codes along the last axis as `planes` bit planes of `words` uint64 words each.

    Plane p holds bit p of every code, coordinate j in bit j % 64 of word
    j // 64, and the planes follow one another; pad bits are zero.  GF(2)
    vectors are the one-plane case, which keeps bit 0 of each code.
    """
    lead, width, span = codes.shape[:-1], codes.shape[-1], 64 * words
    bits = np.zeros((*lead, planes * span), dtype=np.uint8)
    for p in range(planes):
        # packbits sets a bit for every nonzero byte
        np.bitwise_and(codes, 1 << p, out=bits[..., p * span : p * span + width])
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def unpack_codes(vecs: np.ndarray, planes: int, n: int) -> np.ndarray:
    """The first n codes of each vector that `pack_codes` packed along the last axis of `vecs`."""
    bits = np.unpackbits(np.ascontiguousarray(vecs).view(np.uint8), axis=-1, bitorder="little")
    span = bits.shape[-1] // planes
    codes = bits[..., :n]
    for p in range(1, planes):
        codes = codes | bits[..., p * span : p * span + n] << p
    return codes


# -- elimination --------------------------------------------------------------
#
# One kernel, `eliminate`, reduces matrices over both fields, and
# `rref_codes`, its one caller, converts code arrays to and from it.  Each
# row is a run of bit planes of a fixed width, a whole number of bytes:
# plane p holds bit p of every code, column j at bit p * width + j, so
# a + b w keeps its 1-coefficient a in plane 0 and its w-coefficient b in
# plane 1.  0/1 matrices, GF(2) ones among them, need plane 0 only and have
# the same reduced form over either field.  Multiplying by w maps the
# planes (a, b) to (b, a ^ b), since w (a + b w) = b + (a + b) w, and by
# W = w^2 maps them to (a ^ b, a).
#
# The whole matrix is one Python int, row i at bit i * span, so a column is
# cleared in every row by a fixed number of integer operations.  With
# `unit` the int that has bit 0 of every row set, rest >> c & unit marks
# the rows with an entry in column c of a plane; m * full (`full` is one
# row of ones) spreads each mark over its row, and ANDing that with
# one * unit, the pivot row `one` once per row, picks the rows to XOR it
# into.  Each product adds copies of a one-row int at whole-row shifts,
# which share no bits and so never carry into the next row.  An entry a + b w
# takes a times the pivot row and b times w times it, one mark per plane.
# Each pivot, the leftmost column with an entry in an unused row, comes
# from the last such row and is scaled to 1; clearing its column empties
# that row, and the top unused row moves into its place, so the unused rows
# stay packed.  The pivot rows go to a second int in pivot order, whose
# column is cleared the same way.  Reduced forms are unique for the row
# space, so every basis derived from them is canonical.


# A reduced row echelon form and its pivot columns.
Reduction = tuple[np.ndarray, list[int]]


def eliminate(raw: bytes, rows: int, width: int) -> tuple[bytes, list[int]]:
    """Reduced row echelon form of packed rows, and its pivot columns.

    `raw` holds `rows` rows of equal length, each the little-endian int of
    its bit planes, `width` bits apiece.  The result has the same layout:
    the reduced nonzero rows in pivot order, then zero rows.
    """
    step = len(raw) // rows if rows else 0
    span = 8 * step
    two = span > width
    unit = int.from_bytes(b"\1".ljust(step, b"\0") * rows, "little")
    full, mask = (1 << span) - 1, (1 << width) - 1
    rest, count = int.from_bytes(raw, "little"), rows
    done, pivots = 0, []
    for c in range(width):
        if not rest:
            break
        # bit 0 of each row of `rest` whose entry a + b w in column c has a = 1 (ha), b = 1 (hb)
        ha = rest >> c & unit
        hb = rest >> c + width & unit if two else 0
        if not ha | hb:
            continue
        at = (ha | hb).bit_length() - 1
        one = rest >> at & full
        if two:
            a, b = one & mask, one >> width
            if b >> c & 1:
                # scale an entry W by w, an entry w by W
                a, b = (b, a ^ b) if a >> c & 1 else (a ^ b, a)
            one = a | b << width
        x = one * unit
        rest ^= ha * full & x
        done ^= (done >> c & unit) * full & x
        if two:
            # the pivot row times w, which has entry w in column c
            x = (b | (a ^ b) << width) * unit
            rest ^= hb * full & x
            done ^= (done >> c + width & unit) * full & x
        # the pivot row is zero now, and the top unused row takes its place
        count -= 1
        top = rest >> count * span
        rest ^= top << at ^ top << count * span
        done |= one << len(pivots) * span
        pivots.append(c)
    return done.to_bytes(len(raw), "little"), pivots


def rref_codes(a: np.ndarray) -> Reduction:
    """Reduced row echelon form of a code array, and its pivot columns.  0/1
    codes, the same over both fields, are packed as they are, on one plane."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    rows, cols = a.shape
    two = a.max(initial=0) > 1
    planes = a[:, None, :] >> np.arange(2, dtype=np.uint8)[:, None] & 1 if two else a[:, None, :]
    packed = np.packbits(planes, axis=-1, bitorder="little")
    raw, pivots = eliminate(packed.tobytes(), rows, 8 * packed.shape[-1])
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(packed.shape)
    bits = np.unpackbits(bits, axis=-1, count=cols, bitorder="little")
    return bits[:, 0] | bits[:, 1] << 1 if two else bits[:, 0], pivots


def adjoint_image(adjoint: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Reduced basis of im(a) from the reduced form of a* and its pivots.

    im(a) is the row space of a^T, the conjugate of the row space of a*, and
    conjugation fixes 0 and 1 and so commutes with reduction.
    """
    return CONJ[adjoint[: len(pivots)]]


def null_basis(reduced: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Kernel basis of a reduced matrix: the identity on its free columns."""
    free = sorted(set(range(reduced.shape[1])) - set(pivots))
    basis = np.zeros((len(free), reduced.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = reduced[: len(pivots)][:, free].T
    return basis


def residue(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v less its combination of `rows`, a reduced basis with pivots 1.

    The coefficient of each row is v's entry at that row's pivot, the only
    row nonzero there, so v lies in the span iff its residue is 0.  `v` is
    one vector or a stack of them along the last axis.
    """
    if not len(rows):
        return v.copy()
    leads = np.argmax(rows != 0, axis=1)
    return v ^ np.bitwise_xor.reduce(MUL[v[..., leads, None], rows], axis=-2)


# -- matrices and boundary operators ---------------------------------------------


class CodeMatrix:
    """A rows x cols matrix stored as one uint8 array of field codes, `codes`.

    A subclass fixes the field: `field` names it and `top` is its largest
    code, 1 for GF(2) and 3 for GF(4).  On 0/1 codes `adjoint` is the
    transpose and `kron` is `np.kron`, so every method here serves both
    fields, and each result has the class of the matrix it came from.
    `+`, `^`, `@` and `kron` take an operand of the same class only, so the
    fields never mix.  The constructor keeps the array it is given;
    `to_codes` copies.
    """

    __slots__ = ("codes",)
    field: str
    top: int

    def __init__(self, codes: np.ndarray):
        if codes.ndim != 2:
            raise DimensionError(f"expected a two dimensional array, got shape {codes.shape}")
        if codes.dtype != np.uint8 or codes.size and codes.max() > self.top:
            raise ParameterError(f"{self.field} codes must be a uint8 array of codes 0..{self.top}")
        self.codes = codes

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ParameterError("matrix dimensions must be non-negative")
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int):
        return cls(np.eye(n, dtype=np.uint8))

    def to_codes(self) -> np.ndarray:
        return self.codes.copy()

    def copy(self):
        return type(self)(self.codes.copy())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return bool(np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.codes.shape, self.codes.tobytes()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.codes.shape != other.codes.shape:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return type(self)(self.codes ^ other.codes)

    __xor__ = __add__

    def __matmul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return type(self)(matmul_codes(self.codes, other.codes))

    def transpose(self):
        return type(self)(self.codes.T.copy())

    def adjoint(self):
        """Conjugate transpose; the * in delta* = delta."""
        return type(self)(CONJ[self.codes.T])

    def kron(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot kron {type(self).__name__} with {type(other).__name__}")
        prod = MUL[self.codes[:, None, :, None], other.codes[None, :, None, :]]
        return type(self)(prod.reshape(self.rows * other.rows, self.cols * other.cols))

    def tensor_sum(self, other):
        """self (x) I + I (x) other, index (i, j) at row-major position i * other.rows + j."""
        eye = type(self).identity
        return self.kron(eye(other.rows)) + eye(self.rows).kron(other)

    def is_zero(self) -> bool:
        return not self.codes.any()

    def row_weight(self, i: int) -> int:
        return int(np.count_nonzero(self.codes[i]))

    def max_row_weight(self) -> int:
        return int(np.count_nonzero(self.codes, axis=1).max(initial=0))

    def max_column_weight(self) -> int:
        return int(np.count_nonzero(self.codes, axis=0).max(initial=0))

    def rref(self):
        """The unique reduced row echelon form, in new storage, and its pivots."""
        reduced, pivots = rref_codes(self.codes)
        return type(self)(reduced), pivots

    def rank(self) -> int:
        return len(rref_codes(self.codes)[1])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class Boundary:
    """A square code matrix that squares to zero, with its reduced forms.

    Subclasses validate the matrix for their field first.  `reduction`, the
    `rref()` that the rank needs, is where kernels, row spaces and the
    distance search start; `adjoint_reduction`, whose rows conjugate to an
    image basis, is `reduction` itself for a self-adjoint matrix.
    Instances are treated as immutable.
    """

    __slots__ = ("matrix", "reduction", "rank", "hom_dim", "_adjoint")

    def __init__(self, matrix: CodeMatrix):
        self.matrix = matrix
        self.reduction = matrix.rref()
        self.rank = len(self.reduction[1])
        self.hom_dim = matrix.rows - 2 * self.rank
        self._adjoint = None

    @classmethod
    def from_checks(cls, checks: CodeMatrix, u: CodeMatrix):
        """The boundary a u a* whose image is the span of the m rows of `checks`.

        a is `checks` transposed, so the checks are its columns.  They must
        span a self-orthogonal space, a* a = 0, which makes (a u a*)^2 vanish;
        the subclass then validates a u a* as any matrix of its field.  Its
        rank is m exactly when the checks are independent and u is
        invertible, so that one rank, which the boundary computes anyway,
        checks both.
        """
        m = checks.rows
        if (u.rows, u.cols) != (m, m):
            raise DimensionError(f"u must be {m}x{m} for {m} checks, got {u.rows}x{u.cols}")
        a = checks.transpose()
        adjoint = a.adjoint()
        if not (adjoint @ a).is_zero():
            raise PreconditionError("checks do not span a self-orthogonal space")
        b = cls(a @ u @ adjoint)
        if b.rank != m:
            singular = u.rank() != m
            raise PreconditionError("u is singular" if singular else "checks are not independent")
        return b

    @property
    def m(self) -> int:
        return self.matrix.rows

    @property
    def adjoint_reduction(self) -> tuple[CodeMatrix, list[int]]:
        """`matrix.adjoint().rref()`, eliminated on first use and then kept."""
        if self._adjoint is None:
            adjoint = self.matrix.adjoint()
            self._adjoint = self.reduction if adjoint == self.matrix else adjoint.rref()
        return self._adjoint

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, H={self.hom_dim})"
