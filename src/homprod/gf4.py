r"""GF(4)-linear stabilizer codes from self-adjoint boundary operators.

Elements are the codes 0, 1, 2, 3 of `linalg` (0, 1, w, W = w^2).  A
`Gf4Matrix` is linalg's `CodeMatrix` on them and a `Gf4Boundary` its
`Boundary`, so the algebra and the distance front end are those of GF(2),
run with the scalars {1, w, W}.

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
from .linalg import CONJ, INV, MUL, Boundary, CodeMatrix, adjoint_image, matmul_codes, rref_codes
from .search import DEFAULT_BUDGET, boundary_cycle, verify_cycle

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


class Gf4Matrix(CodeMatrix):
    """A rows x cols matrix over GF(4): a `CodeMatrix` of codes 0..3."""

    __slots__ = ()
    field, top = "GF(4)", 3

    @classmethod
    def from_codes(cls, codes) -> "Gf4Matrix":
        """A new matrix of `codes`, integers 0..3 of any dtype; a code the cast changes raises."""
        given = np.atleast_2d(np.asarray(codes))
        if not np.array_equal(cast := given.astype(np.uint8), given):
            raise ParameterError("GF(4) codes must be integers 0..3")
        return cls(cast)

    @classmethod
    def from_symbol_rows(cls, lines) -> "Gf4Matrix":
        return cls.from_codes(np.array([gf4_vector(line) for line in lines]))

    def get(self, i: int, j: int) -> Gf4Element:
        return Gf4Element(int(self.codes[i, j]))

    def set(self, i: int, j: int, value) -> None:
        self.codes[i, j] = _code(value)

    def scale(self, s) -> "Gf4Matrix":
        return Gf4Matrix(MUL[_code(s), self.codes])

    def conjugate(self) -> "Gf4Matrix":
        return Gf4Matrix(CONJ[self.codes])


def gf4_rank(m: Gf4Matrix) -> int:
    return m.rank()


def gf4_image(m: Gf4Matrix) -> np.ndarray:
    """Canonical basis of the column space, one code row per basis vector."""
    return adjoint_image(*rref_codes(m.adjoint().codes))


# -- boundary operators --------------------------------------------------------


class Gf4Boundary(Boundary):
    """A square GF(4) matrix `delta` (= `matrix`) with delta* = delta and delta^2 = 0.

    Its image is self-orthogonal, so it is the parity-check space of a
    stabilizer code on m qubits with k = m - 2 rank = dim ker - dim im.
    `adjoint_reduction` is `reduction`, so searches eliminate nothing.
    """

    __slots__ = ()

    def __init__(self, delta: Gf4Matrix):
        if delta.rows != delta.cols:
            raise DimensionError("boundary operator must be square")
        if not (delta.adjoint() == delta):
            raise PreconditionError("operator is not self-adjoint")
        if not (delta @ delta).is_zero():
            raise PreconditionError("operator does not square to zero")
        super().__init__(delta)
        self._adjoint = self.reduction

    @property
    def delta(self) -> Gf4Matrix:
        return self.matrix


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

    `Gf4Boundary.from_checks` on the check vectors, of length `ambient_dim`
    when it is given: they must be linearly independent and span a
    self-orthogonal space, and `u` must be invertible and self-adjoint; the
    image of the result is then exactly the span of the checks.
    """
    vecs = [gf4_vector(v) for v in basis]
    if ambient_dim is None:
        ambient_dim = vecs[0].size if vecs else 0
    if any(v.size != ambient_dim for v in vecs):
        raise DimensionError(f"check vectors must all have length {ambient_dim}")
    checks = Gf4Matrix(np.array(vecs, dtype=np.uint8).reshape(len(vecs), ambient_dim))
    return Gf4Boundary.from_checks(checks, u)


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
    return Gf4Boundary(d1.matrix.tensor_sum(d2.matrix))


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

    `verify_cycle` on the witness's codes: raises WitnessError when
    delta * witness is nonzero or the witness is in the image, so a
    returned weight is an upper bound on the distance.
    """
    return verify_cycle(d, gf4_vector(witness))


def gf4_distance(
    d: Gf4Boundary, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> Gf4DistanceResult:
    """Exact minimum weight over ker(delta) \\ im(delta), by `boundary_cycle`.

    The witness is the lexicographically least lightest nontrivial cycle
    whose first nonzero entry is 1.  `threads` is ignored: it is kept only
    because the benchmark (`perfbench/workloads.py`) passes it, and the
    search runs on one thread.
    """
    t0 = time.perf_counter()
    (witness,) = boundary_cycle(d, budget)
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
    (found,) = boundary_cycle(d, budget, bound)
    return found
