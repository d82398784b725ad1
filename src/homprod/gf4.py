r"""GF(4)-linear stabilizer codes from self-adjoint boundary operators.

The field GF(4) = {0, 1, w, W} (W = w^2) is represented by 2-bit codes
0->00, 1->01, w->10, W->11, so a code is lo + 2*hi and addition is XOR.
Writing an element as a + b*w, the bit planes are a = lo and b = hi, which
turns field arithmetic into plane-wise GF(2) arithmetic:

    w * x       = (hi, lo ^ hi)
    conj(x)     = x^2 = (lo ^ hi, hi)
    x * y (lo)  = x_lo&y_lo ^ x_hi&y_hi
    x * y (hi)  = x_lo&y_hi ^ x_hi&y_lo ^ x_hi&y_hi

A matrix is stored as two packed GF(2) planes, so matrix products and
Kronecker products reduce to three plane products each.

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
from .gf2 import BitMatrix

# Vectors a distance search may visit, and the size of its enumeration blocks.
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


class Gf4Matrix:
    """A rows x cols matrix over GF(4), stored as two packed bit planes."""

    __slots__ = ("rows", "cols", "lo", "hi")

    def __init__(self, lo: BitMatrix, hi: BitMatrix):
        if (lo.rows, lo.cols) != (hi.rows, hi.cols):
            raise DimensionError(
                f"plane shapes differ: {lo.rows}x{lo.cols} vs {hi.rows}x{hi.cols}"
            )
        self.rows = lo.rows
        self.cols = lo.cols
        self.lo = lo
        self.hi = hi

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf4Matrix":
        return cls(BitMatrix.zeros(rows, cols), BitMatrix.zeros(rows, cols))

    @classmethod
    def identity(cls, n: int) -> "Gf4Matrix":
        return cls(BitMatrix.identity(n), BitMatrix.zeros(n, n))

    @classmethod
    def from_codes(cls, codes) -> "Gf4Matrix":
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        if codes.size and codes.max() > 3:
            raise ParameterError("GF(4) codes must be in 0..3")
        return cls(BitMatrix.from_dense(codes & 1), BitMatrix.from_dense(codes >> 1))

    @classmethod
    def from_symbol_rows(cls, lines) -> "Gf4Matrix":
        return cls.from_codes(np.array([gf4_vector(line) for line in lines]))

    def to_codes(self) -> np.ndarray:
        return (self.lo.to_dense() | (self.hi.to_dense() << 1)).astype(np.uint8)

    # -- element access ------------------------------------------------------

    def get(self, i: int, j: int) -> Gf4Element:
        return Gf4Element(self.lo.get(i, j) | (self.hi.get(i, j) << 1))

    def set(self, i: int, j: int, value) -> None:
        code = value.value if isinstance(value, Gf4Element) else int(value)
        self.lo.set(i, j, code & 1)
        self.hi.set(i, j, code >> 1)

    # -- algebra -------------------------------------------------------------

    def copy(self) -> "Gf4Matrix":
        return Gf4Matrix(self.lo.copy(), self.hi.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf4Matrix):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __add__(self, other: "Gf4Matrix") -> "Gf4Matrix":
        return Gf4Matrix(self.lo ^ other.lo, self.hi ^ other.hi)

    def __matmul__(self, other: "Gf4Matrix") -> "Gf4Matrix":
        lo = (self.lo @ other.lo) ^ (self.hi @ other.hi)
        hi = (self.lo @ other.hi) ^ (self.hi @ other.lo) ^ (self.hi @ other.hi)
        return Gf4Matrix(lo, hi)

    def scale(self, s) -> "Gf4Matrix":
        code = s.value if isinstance(s, Gf4Element) else int(s)
        if code == 0:
            return Gf4Matrix.zeros(self.rows, self.cols)
        if code == 1:
            return self.copy()
        if code == 2:
            return Gf4Matrix(self.hi.copy(), self.lo ^ self.hi)
        return Gf4Matrix(self.lo ^ self.hi, self.lo.copy())

    def conjugate(self) -> "Gf4Matrix":
        return Gf4Matrix(self.lo ^ self.hi, self.hi.copy())

    def transpose(self) -> "Gf4Matrix":
        return Gf4Matrix(self.lo.transpose(), self.hi.transpose())

    def adjoint(self) -> "Gf4Matrix":
        """Conjugate transpose; the * in delta* = delta."""
        return Gf4Matrix((self.lo ^ self.hi).transpose(), self.hi.transpose())

    def kron(self, other: "Gf4Matrix") -> "Gf4Matrix":
        lo = self.lo.kron(other.lo) ^ self.hi.kron(other.hi)
        hi = (
            self.lo.kron(other.hi)
            ^ self.hi.kron(other.lo)
            ^ self.hi.kron(other.hi)
        )
        return Gf4Matrix(lo, hi)

    def is_zero(self) -> bool:
        return self.lo.is_zero() and self.hi.is_zero()

    # -- weights -------------------------------------------------------------

    def row_weight(self, i: int) -> int:
        return int(np.bitwise_count(self.lo.data[i] | self.hi.data[i]).sum())

    def max_row_weight(self) -> int:
        if self.rows == 0:
            return 0
        return int(np.bitwise_count(self.lo.data | self.hi.data).sum(axis=1).max())

    def max_column_weight(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        dense = self.lo.to_dense() | self.hi.to_dense()
        return int(dense.sum(axis=0, dtype=np.int64).max())

    def __repr__(self) -> str:
        return f"Gf4Matrix({self.rows}x{self.cols})"


# -- elimination --------------------------------------------------------------
#
# Row reduction works on dense code arrays with table lookups; pivots follow
# the same leftmost-column, topmost-row rule as the GF(2) kit and are
# normalized to 1, so reduced forms are canonical for the row space.


def _rref_codes(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = np.atleast_2d(np.array(a, dtype=np.uint8, copy=True))
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = _MUL[_INV[a[r, c]], a[r]]
        factors = a[:, c].copy()
        factors[r] = 0
        a ^= _MUL[factors[:, None], a[r][None, :]]
        pivots.append(c)
        r += 1
    return a, pivots


def gf4_rank(m: Gf4Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_rref_codes(m.to_codes())[1])


def _row_space_codes(codes: np.ndarray) -> np.ndarray:
    """Canonical basis of the GF(4) row space, one row per basis vector."""
    if codes.size == 0:
        return np.zeros((0, codes.shape[1] if codes.ndim == 2 else 0), dtype=np.uint8)
    reduced, pivots = _rref_codes(codes)
    return reduced[: len(pivots)].copy()


def gf4_row_space(m: Gf4Matrix) -> np.ndarray:
    return _row_space_codes(m.to_codes())


def gf4_image(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the column space, one code row per basis vector."""
    return _row_space_codes(m.to_codes().T)


def _kernel_codes(codes: np.ndarray) -> np.ndarray:
    cols = codes.shape[1]
    reduced, pivots = _rref_codes(codes)
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = reduced[: len(pivots)][:, free].T
    return basis


def gf4_kernel(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the right kernel, one code row per basis vector."""
    return _kernel_codes(m.to_codes())


def _in_row_span(rows: np.ndarray, v: np.ndarray) -> bool:
    if rows.shape[0] == 0:
        return not v.any()
    stacked = np.vstack([rows, v[None, :]])
    return len(_rref_codes(stacked)[1]) == rows.shape[0]


# -- boundary operators --------------------------------------------------------


class Gf4Boundary:
    """A square GF(4) matrix with delta* = delta and delta^2 = 0.

    The image of such an operator is self-orthogonal, so it serves as the
    parity-check space of a stabilizer code on m qubits with
    k = m - 2 rank = dim ker - dim im logical qubits.
    """

    __slots__ = ("delta", "rank", "hom_dim")

    def __init__(self, delta: Gf4Matrix):
        if delta.rows != delta.cols:
            raise DimensionError("boundary operator must be square")
        if not (delta.adjoint() == delta):
            raise PreconditionError("operator is not self-adjoint")
        if not (delta @ delta).is_zero():
            raise PreconditionError("operator does not square to zero")
        self.delta = delta
        self.rank = gf4_rank(delta)
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
    if f.size == 0:
        return ZERO
    return Gf4Element(int(np.bitwise_xor.reduce(_MUL[_CONJ[f], g])))


def is_self_orthogonal(basis) -> bool:
    """True when all pairwise Hermitian products of the span vanish.

    Checking the generator pairs (including each with itself) suffices:
    the product is sesquilinear, so it vanishes on spans iff it vanishes
    on generators, and (g,f) is the conjugate of (f,g).
    """
    vecs = [gf4_vector(v) for v in basis]
    return all(
        not hermitian_inner(vecs[i], vecs[j])
        for i in range(len(vecs))
        for j in range(i, len(vecs))
    )


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


@dataclass
class Gf4DistanceResult:
    """Distance, witness, and the (4^H - 1) / 3 projective homology classes covered."""

    d: int
    witness: np.ndarray
    cosets_scanned: int
    wall_time: float


def _matmul_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_xor.reduce(_MUL[a[:, :, None], b[None, :, :]], axis=1)


def _information_sets(gens: np.ndarray, n: int) -> list[tuple[np.ndarray, int]]:
    """Generator matrices systematic on disjoint column sets, with their ranks.

    Each matrix reduces the generators on the columns no earlier set used,
    so its first `rank` rows form an identity on its own set and the other
    rows vanish there.
    """
    sets = []
    free = list(range(n))
    while free:
        order = free + sorted(set(range(gens.shape[1])) - set(free))
        reduced, pivots = _rref_codes(gens[:, order])
        rank = sum(p < len(free) for p in pivots)
        if rank == 0:
            break
        sets.append((reduced[:, np.argsort(order)], rank))
        used = {order[p] for p in pivots[:rank]}
        free = [c for c in free if c not in used]
    return sets


def _extend(gens: np.ndarray, scalars: tuple[int, ...], table):
    """The table of combinations with one more generator than `table`.

    A table holds every combination of s generators with coefficients from
    `scalars` as a column, ordered by lowest generator descending, together
    with `starts[i]`, the number of leading columns whose lowest generator
    is at least i.
    """
    vecs, starts = table
    k = len(gens)
    blocks = [
        vecs[:, : starts[i + 1]] ^ _MUL[s, gens[i]][:, None]
        for i in range(k - 1, -1, -1)
        for s in scalars
    ]
    sizes = np.cumsum([len(scalars) * starts[i + 1] for i in range(k - 1, -1, -1)])
    return np.concatenate(blocks, axis=1), [*sizes[::-1].tolist(), 0]


def _round(gens: np.ndarray, t: int, scalars: tuple[int, ...], tables: list):
    """Every combination of exactly t generators whose first coefficient is 1.

    The last s generators of a combination come from the largest cached
    table that fits in _TABLE_BYTES and the first t - s are looped over, so
    the blocks yielded, one combination per column, stay near that size.
    """
    k, width = gens.shape
    s = 0
    while s < t - 1 and math.comb(k, s + 1) * len(scalars) ** (s + 1) * width <= _TABLE_BYTES:
        s += 1
    while len(tables) <= s:
        tables.append(_extend(gens, scalars, tables[-1]))
    vecs, starts = tables[s]
    total = math.comb(k, t) * len(scalars) ** (t - 1)
    buf = np.empty((width, min(total, max(1, _TABLE_BYTES // width))), dtype=np.uint8)
    used = 0
    for rows in itertools.combinations(range(k), t - s):
        tail = vecs[:, : starts[rows[-1] + 1]]
        for coeffs in itertools.product(scalars, repeat=t - s - 1):
            head = gens[rows[0]].copy()
            for c, r in zip(coeffs, rows[1:]):
                head ^= _MUL[c, gens[r]]
            if used + tail.shape[1] > buf.shape[1]:
                yield buf[:, :used]
                used = 0
            np.bitwise_xor(tail, head[:, None], out=buf[:, used : used + tail.shape[1]])
            used += tail.shape[1]
    if used:
        yield buf[:, :used]


def _fold(block: np.ndarray, n: int, cut: int, best: np.ndarray | None):
    """Merge a block into the running (weight, lex)-least nontrivial cycle.

    `cut` is the weight of `best`, or the weight limit while there is none.
    Each candidate is scaled so that its first nonzero entry is 1.
    """
    weights = (block[:n] != 0).view(np.uint8).sum(axis=0, dtype=np.int32)
    hit = (weights <= cut) & block[n:].any(axis=0)
    if not hit.any():
        return cut, best
    w = int(weights[hit].min())
    cands = block[:n, hit & (weights == w)].T
    lead = cands[np.arange(len(cands)), np.argmax(cands != 0, axis=1)]
    cands = _MUL[_INV[lead][:, None], cands]
    cand = cands[np.lexsort(cands.T[::-1])[0]]
    if best is None or w < cut or cand.tobytes() < best.tobytes():
        return w, cand
    return cut, best


def min_cycle(
    a: np.ndarray, scalars: tuple[int, ...], budget: int, limit: int | None = None
) -> np.ndarray | None:
    """The (weight, lex)-least nontrivial cycle of weight <= limit, or None.

    `a` is a code matrix; cycles are ker(a) and trivial cycles im(a), and a
    cycle stands for its scalar multiples through the one whose first
    nonzero entry is 1.  Round t enumerates, on every information set j of
    rank r_j, each combination of t generators, after which an unseen cycle
    weighs at least sum_j max(0, t + 1 - (k - r_j)).  Rounds run until that
    bound exceeds the best weight found (or `limit`, default the length),
    so every lightest cycle has been seen.  A set joins once its term turns
    positive and then catches up on the rounds it skipped.  BudgetError is
    raised before a round that would take the count of vectors visited past
    `budget`; the witness is checked before it is returned.
    """
    n = a.shape[1]
    gens = _kernel_codes(a)
    # A self-adjoint a, such as every GF(4) delta, is its own a*.
    adjoint = _CONJ[a.T]
    dual = gens if np.array_equal(adjoint, a) else _kernel_codes(adjoint)
    syndromes = _matmul_codes(gens, _CONJ[dual].T)
    syndromes = syndromes[:, _rref_codes(syndromes)[1]]
    if syndromes.shape[1] == 0:
        raise NoLogicalsError("operator has no homology; distance is undefined")
    rows = np.hstack([gens, syndromes])
    sets = _information_sets(rows, n)
    k = len(gens)
    tables = [[(np.zeros((rows.shape[1], 1), dtype=np.uint8), [1] * (k + 1))] for _ in sets]
    done = [0] * len(sets)
    cut, best, visited = n if limit is None else limit, None, 0
    for t in range(1, k + 1):
        if sum(max(0, t - k + r) for _, r in sets) > cut:
            break
        todo = [
            (j, u)
            for j, (_, r) in enumerate(sets)
            if r >= k - t
            for u in range(done[j] + 1, t + 1)
        ]
        visited += sum(math.comb(k, u) * len(scalars) ** (u - 1) for _, u in todo)
        if visited > budget:
            raise BudgetError(
                f"search needs {visited} vectors through round {t}, which exceeds "
                f"the budget of {budget}; raise the budget to at least {visited}"
            )
        for j, u in todo:
            done[j] = u
            for block in _round(sets[j][0], u, scalars, tables[j]):
                cut, best = _fold(block, n, cut, best)
    if best is not None:
        check_witness(a, best, cut)
    return best


def check_witness(a: np.ndarray, witness: np.ndarray, weight: int) -> None:
    """Raise WitnessError unless `witness` is a cycle of `a` outside im(a) of this weight."""
    if gf4_weight(witness) != weight:
        raise WitnessError(f"witness has weight {gf4_weight(witness)}, not {weight}")
    if _matmul_codes(a, witness[:, None]).any():
        raise WitnessError("witness is not a cycle")
    if _in_row_span(_row_space_codes(a.T), witness):
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
    check_witness(d.delta.to_codes(), v, weight)
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
    witness = min_cycle(d.delta.to_codes(), (1, 2, 3), budget)
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
    return min_cycle(d.delta.to_codes(), (1, 2, 3), budget, bound)
