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
    inverse,
    preimages,
    random_invertible,
    row_space_basis,
    rref_kernel,
    rref_row_space,
    vector_from_bits,
    vector_to_bits,
)
from .linalg import Boundary, residue


class BoundaryOperator(Boundary):
    """An M x M matrix over GF(2) that squares to zero; its adjoint is its transpose."""

    __slots__ = ()

    def __init__(self, matrix: BitMatrix):
        if matrix.rows != matrix.cols:
            raise ParameterError("boundary operator must be square")
        if not (matrix @ matrix).is_zero():
            raise ParameterError("matrix does not square to zero")
        super().__init__(matrix)


class ReducedOperator:
    """Boundary operator induced on the quotient of a truncated coordinate set.

    Keeping only the first m_prime coordinates (the projector W) and dividing
    out S^> = W d(V^>) leaves a K-dimensional space with K = 2 m_prime - M.
    `lift` maps reduced coordinates back to representatives supported on the
    kept coordinates, and `project` is the forward coset map.
    """

    __slots__ = ("delta_prime", "s_gt_basis", "m", "m_prime", "_free")

    def __init__(
        self, delta_prime: BitMatrix, s_gt_basis: Basis, m: int, m_prime: int, free: list[int]
    ):
        self.delta_prime = delta_prime
        self.s_gt_basis = s_gt_basis
        self.m = m
        self.m_prime = m_prime
        self._free = free

    @property
    def k_dim(self) -> int:
        return self.delta_prime.rows

    def project(self, v: np.ndarray) -> np.ndarray:
        """Coset coordinates of a length-M vector: truncate, then reduce mod S^>."""
        bits = vector_to_bits(v, self.m)
        bits[self.m_prime :] = 0
        return vector_from_bits(residue(self.s_gt_basis.matrix.codes, bits)[self._free])

    def lift(self, y: np.ndarray) -> np.ndarray:
        """A length-M representative of the coset with reduced coordinates y."""
        bits = np.zeros(self.m, dtype=np.uint8)
        bits[self._free] = vector_to_bits(y, self.k_dim)
        return vector_from_bits(bits)


def canonical_boundary(h: int, l: int) -> BoundaryOperator:
    """The canonical operator with blocks of size (h, l, l).

    The only nonzero entries form an identity sending the third block of
    coordinates onto the second, so the kernel is the first two blocks and
    the image is exactly the second.
    """
    if h < 0 or l < 0:
        raise ParameterError("block sizes must be non-negative")
    return BoundaryOperator(_canonical_matrix(h, l))


def _canonical_matrix(h: int, l: int) -> BitMatrix:
    """The matrix of canonical_boundary(h, l), built without validation."""
    m = h + 2 * l
    dense = np.zeros((m, m), dtype=np.uint8)
    dense[h : h + l, h + l :] = np.eye(l, dtype=np.uint8)
    return BitMatrix(dense)


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
    delta0 = _canonical_matrix(h, l)
    u = random_invertible(m, rng)
    return BoundaryOperator(u @ delta0 @ inverse(u))


def homology_representatives(d: BoundaryOperator) -> list[np.ndarray]:
    """Kernel vectors extending an image basis to a kernel basis.

    The returned H vectors are coset representatives of the homology group;
    selection is greedy over the canonical kernel basis, hence deterministic.
    """
    return extend_basis(rref_row_space(*d.adjoint_reduction), rref_kernel(*d.reduction))


def canonical_witness(d: BoundaryOperator) -> BitMatrix:
    """An invertible U with d = U @ canonical_boundary(h, l) @ U^-1.

    Columns of U are: a basis of a complement of the image inside the kernel
    (first h), a basis of the image (next l), then preimages of those image
    vectors (last l).
    """
    m = d.m
    h = d.hom_dim
    im = rref_row_space(*d.adjoint_reduction)
    # homology_representatives(d), reusing this image basis
    hvecs = extend_basis(im, rref_kernel(*d.reduction))
    images = im.matrix.codes.T
    pre = preimages(d.matrix, images)
    if pre is None:
        raise InvariantError("an image vector has no preimage")
    homology = np.array([vector_to_bits(v, m) for v in hvecs], dtype=np.uint8).reshape(h, m)
    u = BitMatrix(np.hstack([homology.T, images, pre]))
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
    ker = rref_kernel(*d.reduction)
    if ker.dim == 0:
        return True
    return BitMatrix(ker.matrix.codes[:, :m_prime]).rank() == ker.dim


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
    # W d: the operator with the rows of the dropped coordinates cleared
    truncated = d.matrix.to_dense()
    truncated[m_prime:] = 0
    s_basis = row_space_basis(BitMatrix(truncated[:, m_prime:].T))
    if s_basis.dim != m - m_prime:
        raise InvariantError("goodness must force dim S^> = M - m_prime")
    s_rows = s_basis.matrix.codes
    pivots = {int(np.flatnonzero(row)[0]) for row in s_rows}
    free = [c for c in range(m_prime) if c not in pivots]
    k_dim = len(free)
    if k_dim != 2 * m_prime - m:
        raise InvariantError(f"reduced dimension {k_dim} is not 2 m_prime - M = {2 * m_prime - m}")
    delta_prime = BitMatrix(residue(s_rows, truncated[:, free].T)[:, free].T)
    out = ReducedOperator(delta_prime, s_basis, m, m_prime, free)
    reduced_op = BoundaryOperator(delta_prime)
    if reduced_op.hom_dim != d.hom_dim:
        raise InvariantError("reduction must preserve homology")
    return out
