"""Square boundary operators: validation, canonical form, randomness, reduction.

A boundary operator is a square GF(2) matrix d with d @ d = 0, so its image
sits inside its kernel.  The homological dimension H = dim ker - dim im counts
the logical qubits of the derived code.  Every operator of size M with
homological dimension H is conjugate to a fixed canonical matrix, which makes
uniform sampling a matter of conjugating by a uniform invertible matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError, ParameterError, PreconditionError
from .gf2 import (
    Basis,
    BitMatrix,
    extend_basis,
    image_basis,
    inverse,
    kernel_basis,
    random_invertible,
    solve,
    vector_get,
    vector_to_bits,
    zero_vector,
)


class BoundaryOperator:
    """An M x M matrix over GF(2) that squares to zero.

    Rank and homological dimension are computed once at construction;
    instances are treated as immutable afterward.
    """

    __slots__ = ("matrix", "rank", "hom_dim")

    def __init__(self, matrix: BitMatrix):
        if matrix.rows != matrix.cols:
            raise ParameterError("boundary operator must be square")
        if not (matrix @ matrix).is_zero():
            raise ParameterError("matrix does not square to zero")
        self.matrix = matrix
        self.rank = matrix.rank()
        self.hom_dim = matrix.rows - 2 * self.rank

    @property
    def m(self) -> int:
        return self.matrix.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryOperator):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"BoundaryOperator(M={self.m}, H={self.hom_dim})"


class ReducedOperator:
    """Boundary operator induced on the quotient of a truncated coordinate set.

    Keeping only the first m_prime coordinates (the projector W) and dividing
    out S^> = W d(V^>) leaves a K-dimensional space with K = 2 m_prime - M.
    `coset_lift` maps reduced coordinates back to representatives supported on
    the kept coordinates, and `project` is the forward coset map.
    """

    __slots__ = ("delta_prime", "s_gt_basis", "coset_lift", "m", "m_prime", "_pivots", "_free")

    def __init__(
        self,
        delta_prime: BitMatrix,
        s_gt_basis: Basis,
        coset_lift: BitMatrix,
        m: int,
        m_prime: int,
        pivots: list[int],
        free: list[int],
    ):
        self.delta_prime = delta_prime
        self.s_gt_basis = s_gt_basis
        self.coset_lift = coset_lift
        self.m = m
        self.m_prime = m_prime
        self._pivots = pivots
        self._free = free

    @property
    def k_dim(self) -> int:
        return self.delta_prime.rows

    def project(self, v: np.ndarray) -> np.ndarray:
        """Coset coordinates of a length-M vector: truncate, then reduce mod S^>."""
        bits = vector_to_bits(v, self.m).copy()
        bits[self.m_prime :] = 0
        r = BitMatrix.from_dense(bits.reshape(1, -1)).data[0]
        r = r[: self.s_gt_basis.matrix.data.shape[1]]
        for i, p in enumerate(self._pivots):
            if vector_get(r, p):
                r = r ^ self.s_gt_basis.matrix.data[i]
        out = zero_vector(self.k_dim)
        for j, c in enumerate(self._free):
            if vector_get(r, c):
                out[j >> 6] |= np.uint64(1) << np.uint64(j & 63)
        return out

    def lift(self, y: np.ndarray) -> np.ndarray:
        """A length-M representative of the coset with reduced coordinates y."""
        out = zero_vector(self.m)
        for j, c in enumerate(self._free):
            if vector_get(y, j):
                out[c >> 6] ^= np.uint64(1) << np.uint64(c & 63)
        return out


def canonical_boundary(h: int, l: int) -> BoundaryOperator:
    """The canonical operator with blocks of size (h, l, l).

    The only nonzero entries form an identity sending the third block of
    coordinates onto the second, so the kernel is the first two blocks and
    the image is exactly the second.
    """
    if h < 0 or l < 0:
        raise ParameterError("block sizes must be non-negative")
    m = h + 2 * l
    mat = BitMatrix.zeros(m, m)
    for i in range(l):
        mat.set(h + i, h + l + i, 1)
    return BoundaryOperator(mat)


def random_boundary(m: int, h: int, rng: np.random.Generator) -> BoundaryOperator:
    """Uniform boundary operator of size m with homological dimension h.

    Sampling conjugates the canonical operator by a uniform invertible
    matrix; every admissible operator has the same number of conjugating
    matrices (the normalizer size does not depend on the operator), so the
    result is uniform over the whole ensemble.
    """
    if h < 0 or m < h or (m - h) % 2 != 0:
        raise ParameterError("need 0 <= h <= m with m - h even")
    l = (m - h) // 2
    delta0 = canonical_boundary(h, l).matrix
    u = random_invertible(m, rng)
    return BoundaryOperator(u @ delta0 @ inverse(u))


def homology_representatives(d: BoundaryOperator) -> list[np.ndarray]:
    """Kernel vectors extending an image basis to a kernel basis.

    The returned H vectors are coset representatives of the homology group;
    selection is greedy over the canonical kernel basis, hence deterministic.
    """
    im = image_basis(d.matrix)
    ker = kernel_basis(d.matrix)
    return extend_basis(im, ker)


def canonical_witness(d: BoundaryOperator) -> BitMatrix:
    """An invertible U with d = U @ canonical_boundary(h, l) @ U^-1.

    Columns of U are: a basis of a complement of the image inside the kernel
    (first h), a basis of the image (next l), then preimages of those image
    vectors (last l).
    """
    m = d.m
    h = d.hom_dim
    im = image_basis(d.matrix)
    hvecs = homology_representatives(d)
    cols: list[np.ndarray] = []
    cols.extend(vector_to_bits(v, m) for v in hvecs)
    cols.extend(vector_to_bits(v, m) for v in im.vectors)
    for b in im.vectors:
        x = solve(d.matrix, b)
        if x is None:
            raise InvariantError("an image vector has no preimage")
        cols.append(vector_to_bits(x, m))
    u = BitMatrix.from_dense(np.array(cols, dtype=np.uint8).T) if cols else BitMatrix.zeros(m, m)
    if m and u.rank() != m:
        raise InvariantError("witness columns failed to form a basis")
    if len(hvecs) != h:
        raise InvariantError(f"found {len(hvecs)} homology representatives, expected {h}")
    return u


def is_good(d: BoundaryOperator, m_prime: int) -> bool:
    """True iff no nonzero kernel vector is supported on the last M - m_prime coordinates.

    Equivalent test: the kernel basis restricted to the first m_prime
    coordinates keeps full row rank, since a rank drop is exactly a kernel
    combination vanishing there.
    """
    if not 0 <= m_prime <= d.m:
        raise ParameterError("m_prime must lie in [0, M]")
    ker = kernel_basis(d.matrix)
    if ker.dim == 0:
        return True
    restricted = BitMatrix.from_dense(ker.matrix.to_dense()[:, :m_prime])
    return restricted.rank() == ker.dim


def reduced_boundary(d: BoundaryOperator, m_prime: int) -> ReducedOperator:
    """The operator induced on V / S^> after dropping the last M - m_prime coordinates.

    Requires goodness.  The quotient is represented concretely: echelon-reduce
    the S^> basis, keep the non-pivot coordinates among the first m_prime as a
    complement basis (lowest index first), and express the projected operator
    in those coordinates.
    """
    if not is_good(d, m_prime):
        raise PreconditionError("operator is not good at the requested truncation")
    m = d.m
    delta_dense = d.matrix.to_dense()
    span_rows = []
    for j in range(m_prime, m):
        col = delta_dense[:, j].copy()
        col[m_prime:] = 0
        span_rows.append(col)
    if span_rows:
        s_gt = BitMatrix.from_dense(np.array(span_rows, dtype=np.uint8))
        s_reduced, pivots = s_gt.rref()
        s_basis = Basis(BitMatrix(len(pivots), m, s_reduced.data[: len(pivots)].copy()))
    else:
        pivots = []
        s_basis = Basis(BitMatrix(0, m))
    if len(pivots) != m - m_prime:
        raise InvariantError("goodness must force dim S^> = M - m_prime")
    pivot_set = set(pivots)
    free = [c for c in range(m_prime) if c not in pivot_set]
    k_dim = len(free)
    if k_dim != 2 * m_prime - m:
        raise InvariantError(f"reduced dimension {k_dim} is not 2 m_prime - M = {2 * m_prime - m}")

    s_rows = s_basis.matrix.to_dense()

    def reduce_mod_s(col: np.ndarray) -> np.ndarray:
        col = col.copy()
        for i, p in enumerate(pivots):
            if col[p]:
                col ^= s_rows[i]
        return col

    prime = np.zeros((k_dim, k_dim), dtype=np.uint8)
    for jj, c in enumerate(free):
        col = delta_dense[:, c].copy()
        col[m_prime:] = 0
        col = reduce_mod_s(col)
        prime[:, jj] = col[free]
    delta_prime = BitMatrix.from_dense(prime) if k_dim else BitMatrix.zeros(0, 0)
    lift = BitMatrix.zeros(k_dim, m)
    for j, c in enumerate(free):
        lift.set(j, c, 1)
    out = ReducedOperator(delta_prime, s_basis, lift, m, m_prime, pivots, free)
    reduced_op = BoundaryOperator(delta_prime)
    if reduced_op.hom_dim != d.hom_dim:
        raise InvariantError("reduction must preserve homology")
    return out
