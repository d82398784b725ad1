r"""GF(4)-linear stabilizer codes from self-adjoint boundary operators.

Elements are the codes 0, 1, 2, 3 of `linalg` (0, 1, w, W = w^2), and a
matrix is one uint8 array of codes.  Products, elimination and the distance
search are the kernels GF(2) shares, run with the scalars {1, w, W}.

A self-orthogonal subspace C (Hermitian products (f,g) = sum conj(f_j) g_j
all zero) defines a stabilizer code with k = n - 2 dim C.  A boundary
operator here is a square matrix with delta* = delta and delta^2 = 0; its
image is self-orthogonal and the code distance is the minimum weight over
ker(delta) \ im(delta).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DimensionError, ParameterError, PreconditionError
from .linalg import CONJ, INV, MUL, adjoint_image, matmul_codes, null_basis, rref_codes
from .search import DEFAULT_BUDGET, check_witness, min_cycle

SYMBOLS = "01wW"


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
        return Gf4Element(int(MUL[self.value, other.value]))

    def conjugate(self) -> "Gf4Element":
        return Gf4Element(int(CONJ[self.value]))

    def inverse(self) -> "Gf4Element":
        if self.value == 0:
            raise ParameterError("zero has no inverse")
        return Gf4Element(int(INV[self.value]))

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
        return Gf4Matrix(MUL[_code(s), self.codes])

    def conjugate(self) -> "Gf4Matrix":
        return Gf4Matrix(CONJ[self.codes])

    def transpose(self) -> "Gf4Matrix":
        return Gf4Matrix(self.codes.T.copy())

    def adjoint(self) -> "Gf4Matrix":
        """Conjugate transpose; the * in delta* = delta."""
        return Gf4Matrix(CONJ[self.codes.T])

    def kron(self, other: "Gf4Matrix") -> "Gf4Matrix":
        prod = MUL[self.codes[:, None, :, None], other.codes[None, :, None, :]]
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


def gf4_rank(m: Gf4Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(rref_codes(m.codes)[1])


def gf4_row_space(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the row space, one code row per basis vector."""
    reduced, pivots = rref_codes(m.codes)
    return reduced[: len(pivots)]


def gf4_image(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the column space, one code row per basis vector."""
    return adjoint_image(*rref_codes(m.adjoint().codes))


def gf4_kernel(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the right kernel, one code row per basis vector."""
    return null_basis(*rref_codes(m.codes))


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
        self.reduction = rref_codes(delta.codes)
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
    return Gf4Element(int(matmul_codes(CONJ[f][None, :], g[:, None])[0, 0]))


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
    return not matmul_codes(CONJ[v], v.T).any()


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
                codes[j, i] = CONJ[val]
            if len(rref_codes(codes)[1]) == m:
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


@dataclass
class Gf4DistanceResult:
    """Distance, witness, and the (4^H - 1) / 3 projective homology classes covered."""

    d: int
    witness: np.ndarray
    cosets_scanned: int
    wall_time: float


def gf4_verify_witness(d: Gf4Boundary, witness) -> int:
    """Weight of `witness` after checking that it lies in ker(delta) \\ im(delta).

    Raises WitnessError when delta * witness is nonzero or the witness is
    in the image, so a returned weight is an upper bound on the distance.
    """
    v = gf4_vector(witness)
    if v.size != d.m:
        raise DimensionError(f"witness has length {v.size}, operator has m={d.m}")
    weight = gf4_weight(v)
    check_witness(d.delta.codes, v, weight, adjoint_image(*d.reduction))
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
