r"""GF(4)-linear stabilizer codes from self-adjoint boundary operators.

The field GF(4) = {0, 1, w, W} (W = w^2) is represented by the codes 0, 1,
2, 3, so addition is XOR of codes and multiplication, conjugation and
inversion are lookups in small tables.  A matrix is one uint8 array of
codes: a Kronecker product is one table lookup per entry, and a matrix
product is the parity of integer products of bit planes (`matmul_codes`).

A self-orthogonal subspace C (Hermitian products (f,g) = sum conj(f_j) g_j
all zero) defines a stabilizer code with k = n - 2 dim C.  A boundary
operator here is a square matrix with delta* = delta and delta^2 = 0; its
image is self-orthogonal and the code distance is the minimum weight over
ker(delta) \ im(delta).

The distance engine, `min_cycle`, serves this module and the GF(2) one: it
is an information-set (Brouwer-Zimmermann) search over ker(delta) that
tests each combination for nontriviality by its Hermitian products with
ker(delta*), and stops once its lower bound on every unseen cycle exceeds
the lightest nontrivial cycle found.  GF(2) operators are its 0/1 case.
Both elimination and enumeration run on bit planes, one per bit of a code
(one for GF(2), two for GF(4)).  Elimination holds the whole matrix as one
Python int, row after row, and clears each pivot column in every row with
a fixed number of integer operations.  The enumeration packs the planes in
uint64 words, so a combination of generators costs one XOR per word and
its weight one popcount per word.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetError,
    DimensionError,
    NoLogicalsError,
    ParameterError,
    PreconditionError,
    WitnessError,
)

# Vectors a distance search may visit, and the bytes of one enumeration table
# or block of packed words in a distance search.
DEFAULT_BUDGET = 1 << 32
_TABLE_BYTES = 1 << 20

SYMBOLS = "01wW"

# Multiplication from the cyclic group {1, w, W}: codes 1, 2, 3 are w^0, w^1,
# w^2 and exponents add mod 3.  Conjugation is squaring, inversion is cubing
# less one.  Addition needs no table: codes add by XOR.
_MUL = np.zeros((4, 4), dtype=np.uint8)
for _a in range(1, 4):
    for _b in range(1, 4):
        _MUL[_a, _b] = 1 + ((_a - 1) + (_b - 1)) % 3
_CONJ = np.array([_MUL[x, x] for x in range(4)], dtype=np.uint8)
_INV = np.array([0, 1, 3, 2], dtype=np.uint8)


@dataclass(frozen=True)
class Gf4Element:
    """One field element, stored as its 2-bit code."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value <= 3:
            raise ParameterError(f"GF(4) code must be in 0..3, got {self.value}")

    def __add__(self, other: "Gf4Element") -> "Gf4Element":
        return Gf4Element(self.value ^ other.value)

    def __mul__(self, other: "Gf4Element") -> "Gf4Element":
        return Gf4Element(int(_MUL[self.value, other.value]))

    def conjugate(self) -> "Gf4Element":
        return Gf4Element(int(_CONJ[self.value]))

    def inverse(self) -> "Gf4Element":
        if self.value == 0:
            raise ParameterError("zero has no inverse")
        return Gf4Element(int(_INV[self.value]))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"Gf4Element({SYMBOLS[self.value]})"


ZERO = Gf4Element(0)
ONE = Gf4Element(1)
OMEGA = Gf4Element(2)
OMEGA2 = Gf4Element(3)


def gf4_vector(spec) -> np.ndarray:
    """Coerce a symbol string, code sequence, or element sequence to codes.

    Symbols follow the text alphabet: 0, 1, w (= omega), W (= omega^2).
    """
    if isinstance(spec, str):
        try:
            return np.array([SYMBOLS.index(ch) for ch in spec], dtype=np.uint8)
        except ValueError:
            raise ParameterError(f"symbols must come from {SYMBOLS!r}: {spec!r}")
    if len(spec) and isinstance(spec[0], Gf4Element):
        return np.array([e.value for e in spec], dtype=np.uint8)
    v = np.asarray(spec, dtype=np.uint8)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if v.size and v.max() > 3:
        raise ParameterError("GF(4) codes must be in 0..3")
    return v


def vector_symbols(v: np.ndarray) -> str:
    return "".join(SYMBOLS[int(c)] for c in v)


def gf4_weight(v: np.ndarray) -> int:
    """Number of nonzero components."""
    return int(np.count_nonzero(v))


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


def _code(s) -> int:
    """The code of a Gf4Element, or of an int after checking that it lies in 0..3."""
    return s.value if isinstance(s, Gf4Element) else Gf4Element(int(s)).value


class Gf4Matrix:
    """A rows x cols matrix over GF(4), stored as one uint8 array of codes."""

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray):
        if codes.ndim != 2:
            raise DimensionError(f"expected a two dimensional array, got shape {codes.shape}")
        if codes.size and codes.max() > 3:
            raise ParameterError("GF(4) codes must be in 0..3")
        self.codes = codes

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf4Matrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "Gf4Matrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_codes(cls, codes) -> "Gf4Matrix":
        return cls(np.atleast_2d(np.array(codes, dtype=np.uint8)))

    @classmethod
    def from_symbol_rows(cls, lines) -> "Gf4Matrix":
        return cls.from_codes(np.array([gf4_vector(line) for line in lines]))

    def to_codes(self) -> np.ndarray:
        return self.codes.copy()

    # -- element access ------------------------------------------------------

    def get(self, i: int, j: int) -> Gf4Element:
        return Gf4Element(int(self.codes[i, j]))

    def set(self, i: int, j: int, value) -> None:
        self.codes[i, j] = _code(value)

    # -- algebra -------------------------------------------------------------

    def copy(self) -> "Gf4Matrix":
        return Gf4Matrix(self.codes.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf4Matrix):
            return NotImplemented
        return bool(np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.codes.shape, self.codes.tobytes()))

    def __add__(self, other: "Gf4Matrix") -> "Gf4Matrix":
        if self.codes.shape != other.codes.shape:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return Gf4Matrix(self.codes ^ other.codes)

    def __matmul__(self, other: "Gf4Matrix") -> "Gf4Matrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Gf4Matrix(matmul_codes(self.codes, other.codes))

    def scale(self, s) -> "Gf4Matrix":
        return Gf4Matrix(_MUL[_code(s), self.codes])

    def conjugate(self) -> "Gf4Matrix":
        return Gf4Matrix(_CONJ[self.codes])

    def transpose(self) -> "Gf4Matrix":
        return Gf4Matrix(self.codes.T.copy())

    def adjoint(self) -> "Gf4Matrix":
        """Conjugate transpose; the * in delta* = delta."""
        return Gf4Matrix(_CONJ[self.codes.T])

    def kron(self, other: "Gf4Matrix") -> "Gf4Matrix":
        prod = _MUL[self.codes[:, None, :, None], other.codes[None, :, None, :]]
        return Gf4Matrix(prod.reshape(self.rows * other.rows, self.cols * other.cols))

    def is_zero(self) -> bool:
        return not self.codes.any()

    # -- weights -------------------------------------------------------------

    def row_weight(self, i: int) -> int:
        return int(np.count_nonzero(self.codes[i]))

    def max_row_weight(self) -> int:
        return int(np.count_nonzero(self.codes, axis=1).max(initial=0))

    def max_column_weight(self) -> int:
        return int(np.count_nonzero(self.codes, axis=0).max(initial=0))

    def __repr__(self) -> str:
        return f"Gf4Matrix({self.rows}x{self.cols})"


# -- elimination --------------------------------------------------------------
#
# One kernel, `eliminate`, reduces matrices over both fields; `_rref_codes`
# and the GF(2) kit's `BitMatrix.rref` are conversions around it.  Each row
# is a run of bit planes of a fixed width (whole bytes for codes, whole
# 64-bit words for a BitMatrix): plane p holds bit p of every code, column
# j at bit p * width + j, so a + b w keeps its 1-coefficient a in plane 0
# and its w-coefficient b in plane 1.  0/1 matrices, GF(2) ones among them,
# need plane 0 only and have the same reduced form over either field; a
# BitMatrix row read as a little-endian int is such a row.  Multiplying by
# w maps the planes (a, b) to (b, a ^ b), since w (a + b w) = b + (a + b) w,
# and by W = w^2 maps them to (a ^ b, a).
#
# The whole matrix is one Python int, row i at bit i * span, so a column is
# cleared in every row by a fixed number of integer operations.  With
# `unit` the int that has bit 0 of every row set, rest >> c & unit marks
# the rows with an entry in column c of a plane, and (m << span) - m
# spreads each mark over its whole row; ANDing that with the pivot row
# repeated once per row picks the rows to XOR it into.  An entry a + b w
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
    mask = (1 << width) - 1
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
        row = rest >> at & (1 << span) - 1
        a, b = row & mask, row >> width
        if b >> c & 1:
            # scale an entry W by w, an entry w by W
            a, b = (b, a ^ b) if a >> c & 1 else (a ^ b, a)
        one = a | b << width
        k = len(pivots)
        copies = max(count, k)
        x = int.from_bytes(one.to_bytes(step, "little") * copies, "little")
        rest ^= ((ha << span) - ha) & x
        ha = done >> c & unit
        done ^= ((ha << span) - ha) & x
        if two:
            # the pivot row times w, which has entry w in column c
            x = int.from_bytes((b | (a ^ b) << width).to_bytes(step, "little") * copies, "little")
            rest ^= ((hb << span) - hb) & x
            hb = done >> c + width & unit
            done ^= ((hb << span) - hb) & x
        # the pivot row is zero now, and the top unused row takes its place
        count -= 1
        top = rest >> count * span
        rest ^= top << at ^ top << count * span
        done |= one << k * span
        pivots.append(c)
    return done.to_bytes(len(raw), "little"), pivots


def _rref_codes(a: np.ndarray) -> Reduction:
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    rows, cols = a.shape
    # 0/1 codes have the same reduced form over GF(2) and GF(4), on one plane
    shifts = np.arange(1 if a.max(initial=0) <= 1 else 2, dtype=np.uint8)[:, None]
    packed = np.packbits(a[:, None, :] >> shifts & 1, axis=-1, bitorder="little")
    raw, pivots = eliminate(packed.tobytes(), rows, 8 * packed.shape[-1])
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(packed.shape)
    bits = np.unpackbits(bits, axis=-1, count=cols, bitorder="little")
    return np.bitwise_or.reduce(bits << shifts, axis=1), pivots


def gf4_rank(m: Gf4Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_rref_codes(m.codes)[1])


def gf4_row_space(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the row space, one code row per basis vector."""
    reduced, pivots = _rref_codes(m.codes)
    return reduced[: len(pivots)]


def _image_basis(adjoint: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Reduced basis of im(a) from the reduced form of a* and its pivots.

    im(a) is the row space of a^T, the conjugate of the row space of a*, and
    conjugation fixes 0 and 1 and so commutes with reduction.
    """
    return _CONJ[adjoint[: len(pivots)]]


def gf4_image(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the column space, one code row per basis vector."""
    return _image_basis(*_rref_codes(m.adjoint().codes))


def _free_columns(reduced: np.ndarray, pivots: list[int]) -> list[int]:
    return sorted(set(range(reduced.shape[1])) - set(pivots))


def null_basis(reduced: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Kernel basis of a reduced matrix: the identity on its free columns."""
    free = _free_columns(reduced, pivots)
    basis = np.zeros((len(free), reduced.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = reduced[: len(pivots)][:, free].T
    return basis


def gf4_kernel(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the right kernel, one code row per basis vector."""
    return null_basis(*_rref_codes(m.codes))


def residue(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v less its combination of `rows`, a reduced basis with pivots 1.

    The coefficient of each row is v's entry at that row's pivot, the only
    row nonzero there, so v lies in the span iff its residue is 0.  `v` is
    one vector or a stack of them along the last axis.
    """
    if not len(rows):
        return v.copy()
    leads = np.argmax(rows != 0, axis=1)
    return v ^ np.bitwise_xor.reduce(_MUL[v[..., leads, None], rows], axis=-2)


# -- boundary operators --------------------------------------------------------


class Gf4Boundary:
    """A square GF(4) matrix with delta* = delta and delta^2 = 0.

    The image of such an operator is self-orthogonal, so it serves as the
    parity-check space of a stabilizer code on m qubits with
    k = m - 2 rank = dim ker - dim im logical qubits.  `reduction` is the
    reduced form of delta and its pivots, computed once for the rank; since
    delta* = delta it is also the reduced form of delta*, and the distance
    search and witness check start from it.
    """

    __slots__ = ("delta", "reduction", "rank", "hom_dim")

    def __init__(self, delta: Gf4Matrix):
        if delta.rows != delta.cols:
            raise DimensionError("boundary operator must be square")
        if not (delta.adjoint() == delta):
            raise PreconditionError("operator is not self-adjoint")
        if not (delta @ delta).is_zero():
            raise PreconditionError("operator does not square to zero")
        self.delta = delta
        self.reduction = _rref_codes(delta.codes)
        self.rank = len(self.reduction[1])
        self.hom_dim = delta.rows - 2 * self.rank

    @property
    def m(self) -> int:
        return self.delta.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf4Boundary):
            return NotImplemented
        return self.delta == other.delta

    def __repr__(self) -> str:
        return f"Gf4Boundary(m={self.m}, H={self.hom_dim})"


def hermitian_inner(f, g) -> Gf4Element:
    """Sum of conj(f_j) * g_j over GF(4)."""
    f = gf4_vector(f)
    g = gf4_vector(g)
    if f.shape != g.shape:
        raise DimensionError(f"length mismatch: {f.size} vs {g.size}")
    return Gf4Element(int(matmul_codes(_CONJ[f][None, :], g[:, None])[0, 0]))


def is_self_orthogonal(basis) -> bool:
    """True when all pairwise Hermitian products of the span vanish.

    The product is sesquilinear, so it vanishes on spans iff it vanishes on
    generators: the Gram matrix conj(V) V^T of the generator rows V is zero.
    """
    vecs = [gf4_vector(v) for v in basis]
    if len({v.size for v in vecs}) > 1:
        raise DimensionError("vectors must share one length")
    if not vecs:
        return True
    v = np.array(vecs)
    return not matmul_codes(_CONJ[v], v.T).any()


def gf4_boundary_from_checks(basis, u: Gf4Matrix, ambient_dim: int | None = None) -> Gf4Boundary:
    """Boundary operator sum_ij u_ij a^i conj(a^j)^T from self-orthogonal checks.

    The check vectors must be linearly independent and span a self-orthogonal
    space, and `u` must be invertible and self-adjoint; the image of the
    result is then exactly the span of the checks.
    """
    vecs = [gf4_vector(v) for v in basis]
    m = len(vecs)
    if m == 0:
        n = 0 if ambient_dim is None else ambient_dim
        return Gf4Boundary(Gf4Matrix.zeros(n, n))
    n = vecs[0].size
    if any(v.size != n for v in vecs):
        raise DimensionError("check vectors must share one length")
    if ambient_dim is not None and ambient_dim != n:
        raise DimensionError(f"ambient_dim {ambient_dim} does not match vectors of length {n}")
    if (u.rows, u.cols) != (m, m):
        raise DimensionError(f"u must be {m}x{m} for {m} checks, got {u.rows}x{u.cols}")
    if not is_self_orthogonal(vecs):
        raise PreconditionError("check vectors do not span a self-orthogonal space")
    if not (u.adjoint() == u):
        raise PreconditionError("u is not self-adjoint")
    if gf4_rank(u) != m:
        raise PreconditionError("u is singular")
    a = Gf4Matrix.from_codes(np.array(vecs).T)
    if gf4_rank(a) != m:
        raise PreconditionError("check vectors are not linearly independent")
    return Gf4Boundary(a @ u @ a.adjoint())


def enumerate_selfadjoint_invertible(m: int) -> list[Gf4Matrix]:
    """All invertible self-adjoint m x m matrices, in a fixed order.

    Self-adjointness pins the lower triangle to the conjugate of the upper
    and restricts the diagonal to {0, 1}, so the search space has
    2^m * 4^(m(m-1)/2) candidates; each is kept iff it has full rank.
    """
    if m < 0:
        raise ParameterError("matrix size must be nonnegative")
    if m > 3:
        raise BudgetError(
            f"enumeration of self-adjoint {m}x{m} matrices is capped at m=3; "
            f"the candidate space grows as 2^m * 4^(m(m-1)/2)"
        )
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    out: list[Gf4Matrix] = []
    for diag in itertools.product((0, 1), repeat=m):
        for upper in itertools.product(range(4), repeat=len(pairs)):
            codes = np.zeros((m, m), dtype=np.uint8)
            for i in range(m):
                codes[i, i] = diag[i]
            for (i, j), val in zip(pairs, upper):
                codes[i, j] = val
                codes[j, i] = _CONJ[val]
            if len(_rref_codes(codes)[1]) == m:
                out.append(Gf4Matrix.from_codes(codes))
    return out


def gf4_product(d1: Gf4Boundary, d2: Gf4Boundary) -> Gf4Boundary:
    """The boundary operator d1 (x) I + I (x) d2 on the tensor product.

    Index (i, j) of the factors maps to row-major position i * m2 + j.
    Self-adjointness and squaring to zero are inherited: the cross terms of
    the square cancel in characteristic 2.
    """
    i1 = Gf4Matrix.identity(d1.m)
    i2 = Gf4Matrix.identity(d2.m)
    return Gf4Boundary(d1.delta.kron(i2) + i1.kron(d2.delta))


# -- fixed check bases ----------------------------------------------------------


def five_qubit_check_basis() -> list[np.ndarray]:
    """Two cyclic checks spanning the [[5,1,3]] parity space over GF(4)."""
    return [gf4_vector("0wWWw"), gf4_vector("w0wWW")]


def steane_gf4_check_basis() -> list[np.ndarray]:
    """The three Steane checks, viewed as GF(4) vectors with 0/1 entries."""
    return [gf4_vector("1000111"), gf4_vector("0101011"), gf4_vector("0011101")]


# -- distance ---------------------------------------------------------------------
#
# One information-set (Brouwer-Zimmermann) search serves both fields.  The
# cycles of a matrix a are ker(a) and the trivial ones im(a) = ker(a*)^perp,
# so a cycle is trivial iff its Hermitian products with a basis of ker(a*)
# all vanish.  Those products are linear in the cycle, so each kernel
# generator carries them as extra syndrome columns and every combination of
# generators carries its own test.  GF(2) is the 0/1 subfield: its operators
# run on 0/1 codes with the single scalar 1, GF(4) ones with {1, w, W}.
#
# Every basis comes from the reduced forms of a and a*, which the caller
# hands in.  A Gf4Boundary or BoundaryOperator keeps the reduced form its
# constructor computed for the rank, and a self-adjoint delta is its own
# delta*, so a GF(4) search eliminates neither and a GF(2) one only d^T.
# rref(a) gives the kernel basis, which is the identity on the free columns
# of a and so is already the first information set; later sets reduce it
# on the columns still unused, until it vanishes there.  rref(a*) gives
# ker(a*) and, conjugated, the reduced basis of im(a) = conj(rowspace(a*)),
# since conjugation commutes with reduction.  The witness check tests
# membership of im(a) by reducing the witness against that basis.
#
# Combinations are enumerated packed.  Each information set's generators are
# packed once per search, with every scalar multiple: plane p of a vector
# holds bit p of its codes, the n coordinates first and the syndrome bits
# after them, over as many uint64 words as they need.  A combination is then
# an XOR of packed columns, its weight the popcount of the OR of its planes
# over the coordinate bits, and it is nontrivial when any syndrome bit is
# set.  Only the candidates at the best weight are unpacked to codes, to be
# scaled to a leading 1 and compared.  So one combination per class of
# scalar multiples is enough: cached tables of s-generator combinations hold
# the one whose highest generator has coefficient 1.  A round whose table
# fits in _TABLE_BYTES is that table, built once and kept for the next.
#
# The lower bound counts finished sets: each set that finishes a round adds
# one, so a round that starts at bound `bound` runs only its first
# cut + 1 - bound sets and, when that is fewer than all, ends the search.
# The sets that join in the same round, max(1, k - r_j), go through the same
# rounds and share one enumeration.  Their packed generators are stacked
# one after another along the word axis: one table list, one `_round` per
# round and one `_fold` per block serve them all, and each set's weights,
# syndrome tests and candidates come from its own rows.  Sets that join in
# different rounds are enumerated apart, so a set that never joins costs
# nothing.  Sets run in join order, the groups already active first, and
# within a group as a prefix of its stacked rows.


@dataclass
class Gf4DistanceResult:
    """Distance, witness, and the (4^H - 1) / 3 projective homology classes covered."""

    d: int
    witness: np.ndarray
    cosets_scanned: int
    wall_time: float


def _information_sets(gens: np.ndarray, first: list[int], n: int) -> list[tuple[np.ndarray, int]]:
    """Generator matrices systematic on disjoint column sets, with their ranks.

    `gens` is the identity on the columns `first` and is the first set.
    Each later matrix reduces the generators on the columns no earlier set
    used, so its first `rank` rows form an identity on its own set and the
    other rows vanish there.  The sets end once the generators vanish on
    every unused coordinate.
    """
    sets = [(gens, len(gens))]
    free = sorted(set(range(n)) - set(first))
    while gens[:, free].any():
        order = free + sorted(set(range(gens.shape[1])) - set(free))
        reduced, pivots = _rref_codes(gens[:, order])
        rank = sum(p < len(free) for p in pivots)
        sets.append((reduced[:, np.argsort(order)], rank))
        used = {order[p] for p in pivots[:rank]}
        free = [c for c in free if c not in used]
    return sets


def _pack(codes: np.ndarray, planes: int, words: int) -> np.ndarray:
    """Codes along the last axis as `planes` bit planes of `words` uint64 words each.

    Plane p holds bit p of every code, coordinate j in bit j % 64 of word
    j // 64, and the planes follow one another.
    """
    lead, width = codes.shape[:-1], codes.shape[-1]
    bits = np.zeros((*lead, planes, 64 * words), dtype=np.uint8)
    bits[..., :width] = codes[..., None, :] >> np.arange(planes, dtype=np.uint8)[:, None] & 1
    packed = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    return packed.reshape(*lead, planes * words)


def _mask(lo: int, hi: int, words: int) -> np.ndarray:
    """One plane's words with the bits of coordinates lo..hi-1 set."""
    bits = (1 << hi) - (1 << lo)
    return np.array([bits >> 64 * i & (1 << 64) - 1 for i in range(words)], dtype=np.uint64)


def _unpack(vecs: np.ndarray, planes: int, n: int) -> np.ndarray:
    """The first n codes of each packed vector of `vecs`, shape (count, planes, words)."""
    raw = np.ascontiguousarray(vecs, dtype="<u8").reshape(len(vecs), -1).view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little").reshape(len(raw), planes, -1)
    codes = bits[:, 0, :n]
    for p in range(1, planes):
        codes = codes | bits[:, p, :n] << p
    return codes


def _extend(gens: np.ndarray, table):
    """The table of combinations with one more generator than `table`.

    `gens[i, c]` is generator i times scalar c, packed.  A table holds every
    combination of s generators whose highest generator has coefficient 1,
    the others any nonzero one, so one per class of scalar multiples, as a
    packed column, ordered by lowest generator descending, together with
    `starts[i]`, the number of leading columns whose lowest generator is at
    least i.  Adding a lower generator with every scalar keeps that form.
    """
    vecs, starts = table
    k, m, size = gens.shape
    ends = np.cumsum([m * starts[i + 1] for i in range(k - 1, -1, -1)]).tolist()
    out = np.empty((size, ends[-1]), dtype=np.uint64)
    for i, end in zip(range(k - 1, -1, -1), ends):
        w = starts[i + 1]
        block = out[:, end - m * w : end].reshape(size, m, w)
        np.bitwise_xor(vecs[:, None, :w], gens[i].T[:, :, None], out=block)
    return out, [*ends[::-1], 0]


def _round(gens: np.ndarray, t: int, tables: list):
    """Every combination of exactly t generators whose highest coefficient is 1.

    `gens[i, c]` is generator i times scalar c, packed.  s <= t is as large
    as tables[2] to tables[s] each fit in _TABLE_BYTES; tables[1] is kept at
    any size.  When s = t the round is that table, built once and kept for the
    next round.  Otherwise the last s generators come from tables[s] and the
    first t - s, the head, take every coefficient: its highest generator r
    over the tail, then each set of lower ones at once.  Blocks yielded, one
    packed combination per column, stay near _TABLE_BYTES.
    """
    k, m, size = gens.shape
    s = 1
    while s < t and math.comb(k, s + 1) * m**s * 8 * size <= _TABLE_BYTES:
        s += 1
    while len(tables) <= s:
        tables.append(_extend(gens, tables[-1]))
    vecs, starts = tables[s]
    cap = max(1, _TABLE_BYTES // (8 * size))
    if s == t:
        yield from (vecs[:, i : i + cap] for i in range(0, vecs.shape[1], cap))
        return
    total = math.comb(k, t) * m ** (t - 1)
    buf = np.empty((size, min(total, max(cap, m * vecs.shape[1]))), dtype=np.uint64)
    used = 0
    for r in range(t - s - 1, k - s):
        # table s + 1's columns whose lowest generator is r, so XORs run long
        seg = (vecs[:, None, : starts[r + 1]] ^ gens[r].T[:, :, None]).reshape(size, -1)
        for rows in itertools.combinations(range(r), t - s - 1):
            heads = np.zeros((1, size), dtype=np.uint64)
            for g in rows:
                heads = (heads[:, None] ^ gens[g][None]).reshape(-1, size)
            # as many heads per XOR as fit in the buffer, each against the whole segment
            step = max(1, buf.shape[1] // seg.shape[1])
            for i in range(0, len(heads), step):
                part = heads[i : i + step]
                width = len(part) * seg.shape[1]
                if used + width > buf.shape[1]:
                    yield buf[:, :used]
                    used = 0
                out = buf[:, used : used + width].reshape(size, len(part), seg.shape[1])
                np.bitwise_xor(seg[:, None, :], part.T[:, :, None], out=out)
                used += width
    if used:
        yield buf[:, :used]


def _fold(block: np.ndarray, planes: int, n: int, data, syndrome, extra: int, cut: int, best):
    """Merge a packed block into the running (weight, lex)-least nontrivial cycle.

    The block stacks the rows of one or more information sets over the same
    combinations, so it reads as (sets, planes, words, columns), and each
    set's weight, syndrome test and candidates come from its own rows.
    `data` and `syndrome` mask one plane's words to the n coordinates and
    to the `extra` syndrome bits.  `cut` is the weight of `best`, or the
    weight limit while there is none.  Each candidate is scaled so that its
    first nonzero entry is 1.
    """
    words, count = len(data), block.shape[1]
    block = block.reshape(-1, planes, words, count)
    either = block[:, 0]
    for p in range(1, planes):
        either = either | block[:, p]
    # the syndrome bits add at most `extra` to a column's weight, so only the
    # columns within cut + extra are read again, set by set, without them
    total = np.add.reduce(np.bitwise_count(either), axis=1, dtype=np.int32).ravel()
    sets, cols = np.divmod(np.flatnonzero(total <= cut + extra), count)
    near = either[sets, :, cols]
    weights = np.add.reduce(np.bitwise_count(near & data), axis=1, dtype=np.int32)
    hit = (weights <= cut) & np.logical_or.reduce(near & syndrome, axis=1)
    if not hit.any():
        return cut, best
    w = int(weights[hit].min())
    top = hit & (weights == w)
    cands = _unpack(block[sets[top], :, :, cols[top]], planes, n)
    if planes > 1:
        lead = cands[np.arange(len(cands)), np.argmax(cands != 0, axis=1)]
        cands = _MUL[_INV[lead][:, None], cands]
    cand = min(cands, key=np.ndarray.tobytes)
    if best is None or w < cut or cand.tobytes() < best.tobytes():
        return w, cand
    return cut, best


def min_cycle(
    a: np.ndarray,
    reduced: tuple[Reduction, Reduction],
    scalars: tuple[int, ...],
    budget: int,
    limit: int | None = None,
) -> np.ndarray | None:
    """The (weight, lex)-least nontrivial cycle of weight <= limit, or None.

    `a` is a code matrix and `reduced` holds the reduced forms and pivots
    of a and of a*, from which the kernel basis, the syndrome basis ker(a*),
    the first information set and the image basis for the witness check all
    come.  Cycles are ker(a) and trivial cycles im(a), and a cycle stands
    for its scalar multiples through the one whose first nonzero entry is 1.
    Round t enumerates, on an information set j of rank r_j, each
    combination of t generators whose highest one has coefficient 1.  The
    bound counts finished sets: once set j has finished round t_j, an
    unseen cycle weighs at least sum_j max(0, t_j + 1 - (k - r_j)).  The
    search ends once that bound exceeds the best weight found (or `limit`,
    default the length), so every lightest cycle has been seen; a round
    runs, in join order, only as many sets as the bound still needs.  Set j
    joins in round max(1, k - r_j), when its term turns positive, and then
    catches up on the rounds before it; the sets that join in one round are
    enumerated together, their rows stacked in one table.  Vectors visited
    are counted per set that runs.  BudgetError is raised before a round
    that would take that count past `budget`; the witness is checked before
    it is returned.
    """
    n = a.shape[1]
    (own, pivots), (adjoint, adjoint_pivots) = reduced
    gens = null_basis(own, pivots)
    dual = null_basis(adjoint, adjoint_pivots)
    image = _image_basis(adjoint, adjoint_pivots)
    syndromes = matmul_codes(gens, _CONJ[dual].T)
    syndromes = syndromes[:, _rref_codes(syndromes)[1]]
    if syndromes.shape[1] == 0:
        raise NoLogicalsError("operator has no homology; distance is undefined")
    rows = np.hstack([gens, syndromes])
    # Bits per code: one plane for the 0/1 scalars of GF(2), two for GF(4).
    planes = max(scalars).bit_length()
    words = -(-rows.shape[1] // 64)
    info = _information_sets(rows, _free_columns(own, pivots), n)
    # multiples[j, i, c] is scalars[c] times generator i of set j, packed
    systematic = np.array([g for g, _ in info])
    multiples = _pack(_MUL[np.array(scalars)[:, None], systematic[:, :, None, :]], planes, words)
    data, syndrome = _mask(0, n, words), _mask(n, rows.shape[1], words)
    extra, k = syndromes.shape[1], len(gens)
    # groups[g] is (join round, sets, stacked generators, tables) for the
    # sets that join in one round; tables[1] is the generators with
    # coefficient 1, lowest generator descending, and tables[0] is unused
    joins = [max(1, k - r) for _, r in info]
    groups = []
    for join in sorted(set(joins)):
        members = [j for j, v in enumerate(joins) if v == join]
        stacked = np.moveaxis(multiples[members], 0, 2).reshape(k, len(scalars), -1)
        table = np.ascontiguousarray(stacked[::-1, 0].T), list(range(k, -1, -1))
        groups.append((join, len(members), stacked, [None, table]))
    done = [0] * len(groups)
    cut, best, visited = n if limit is None else limit, None, 0
    for t in range(1, k + 1):
        bound = sum(max(0, t - k + r) for _, r in info)
        if bound > cut:
            break
        # (group, sets it runs): every set that finishes round t raises the
        # bound by one, so only the first cut + 1 - bound sets in join order run
        todo, need = [], cut + 1 - bound
        for g, (join, size, _, _) in enumerate(groups):
            if join <= t and need > 0:
                todo.append((g, min(size, need)))
                need -= size
        visited += sum(
            sets * math.comb(k, u) * len(scalars) ** (u - 1)
            for g, sets in todo
            for u in range(done[g] + 1, t + 1)
        )
        if visited > budget:
            raise BudgetError(
                f"search needs {visited} vectors through round {t}, which exceeds "
                f"the budget of {budget}; raise the budget to at least {visited}"
            )
        for g, sets in todo:
            _, size, stacked, tables = groups[g]
            if sets < size:
                # the round ends the search, so the group shrinks to its first sets' rows
                prefix = sets * planes * words
                stacked = stacked[..., :prefix]
                tables[1:] = [(vecs[:prefix], starts) for vecs, starts in tables[1:]]
            for u in range(done[g] + 1, t + 1):
                for block in _round(stacked, u, tables):
                    cut, best = _fold(block, planes, n, data, syndrome, extra, cut, best)
            done[g] = t
    if best is not None:
        check_witness(a, best, cut, image)
    return best


def check_witness(a: np.ndarray, witness: np.ndarray, weight: int, image: np.ndarray) -> None:
    """Raise WitnessError unless `witness` is a cycle of `a` outside im(a) of this weight.

    `image` is the reduced basis of im(a) (`gf4_image`, or the conjugated
    rref(a*) that a search already holds).  The witness is trivial when
    reducing it against that basis leaves zero, so the check eliminates
    nothing.
    """
    if gf4_weight(witness) != weight:
        raise WitnessError(f"witness has weight {gf4_weight(witness)}, not {weight}")
    if matmul_codes(a, witness[:, None]).any():
        raise WitnessError("witness is not a cycle")
    if not residue(image, witness).any():
        raise WitnessError("witness is a trivial cycle")


def gf4_verify_witness(d: Gf4Boundary, witness) -> int:
    """Weight of `witness` after checking that it lies in ker(delta) \\ im(delta).

    Raises WitnessError when delta * witness is nonzero or the witness is
    in the image, so a returned weight is an upper bound on the distance.
    """
    v = gf4_vector(witness)
    if v.size != d.m:
        raise DimensionError(f"witness has length {v.size}, operator has m={d.m}")
    weight = gf4_weight(v)
    check_witness(d.delta.codes, v, weight, _image_basis(*d.reduction))
    return weight


def gf4_distance(
    d: Gf4Boundary, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> Gf4DistanceResult:
    """Exact minimum weight over ker(delta) \\ im(delta), by `min_cycle`.

    The witness is the lexicographically least lightest nontrivial cycle
    whose first nonzero entry is 1.  `threads` is ignored: it is kept only
    because the benchmark (`perfbench/workloads.py`) passes it, and the
    search runs on one thread.
    """
    t0 = time.perf_counter()
    witness = min_cycle(d.delta.codes, (d.reduction, d.reduction), (1, 2, 3), budget)
    return Gf4DistanceResult(
        d=gf4_weight(witness),
        witness=witness,
        cosets_scanned=(4**d.hom_dim - 1) // 3,
        wall_time=time.perf_counter() - t0,
    )


def gf4_distance_upper_bound(
    d: Gf4Boundary, bound: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray | None:
    """The least nontrivial cycle of weight <= bound, if any.

    A None return is a proof that the distance exceeds `bound`: the search
    stops only once every cycle that light has been seen.
    """
    return min_cycle(d.delta.codes, (d.reduction, d.reduction), (1, 2, 3), budget, bound)
