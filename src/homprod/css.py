"""CSS codes as pairs of orthogonal GF(2) check matrices.

A boundary operator yields a code directly: X checks are the rows of the
operator and Z checks the rows of its transpose, so the Z stabilizer span is
the operator's image.  The reverse direction builds an operator whose image is
a prescribed self-orthogonal space from any invertible change of check basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator
from .errors import DimensionError, PreconditionError
from .gf2 import Basis, BitMatrix


@dataclass
class CssCode:
    """Parity-check view of a CSS code.

    `a_z` rows generate the Z stabilizers, `a_x` rows the X stabilizers.
    Rows may be dependent; `k` already accounts for that.  Distances are
    filled in lazily by the search engine and stay None until computed.
    """

    n: int
    a_z: BitMatrix
    a_x: BitMatrix
    k: int
    w: int
    d_z: int | None = None
    d_x: int | None = None

    def __post_init__(self):
        if self.a_z.cols != self.n or self.a_x.cols != self.n:
            raise DimensionError("check matrices must have n columns")
        if not (self.a_z @ self.a_x.transpose()).is_zero():
            raise PreconditionError("Z and X checks are not orthogonal")

    def params(self) -> dict:
        return {"n": self.n, "k": self.k, "w": self.w, "d_z": self.d_z, "d_x": self.d_x}


def code_from_complex(d: BoundaryOperator) -> CssCode:
    """CSS code with X checks = rows of d and Z checks = rows of d transposed."""
    a_x = d.matrix
    a_z = d.matrix.transpose()
    return CssCode(n=d.m, a_z=a_z, a_x=a_x, k=d.hom_dim, w=stabilizer_weight_of(a_x))


def stabilizer_weight_of(mat: BitMatrix) -> int:
    return max(mat.max_row_weight(), mat.max_column_weight())


def stabilizer_weight(c: CssCode) -> int:
    """Largest row or column weight over both check matrices."""
    return max(stabilizer_weight_of(c.a_z), stabilizer_weight_of(c.a_x))


def boundary_from_checks(basis: Basis, u: BitMatrix) -> BoundaryOperator:
    """Boundary operator delta = sum_{i,j} u[i,j] a_i a_j^T for check rows a_i.

    `BoundaryOperator.from_checks` on the rows of `basis`: they must be
    independent and span a self-orthogonal space, and u must be invertible;
    then delta squares to zero, and its image and coimage both equal the
    spanned space.
    """
    return BoundaryOperator.from_checks(basis.matrix, u)


def steane_check_basis() -> Basis:
    """The three weight-4 classical checks generating a [7,3] self-dual-containing code.

    Rows of the 7x3 column matrix: three unit rows, the three complementary
    pairs, then the all-ones row; every nonzero combination has weight 4.
    """
    a = np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [0, 1, 1],
            [1, 0, 1],
            [1, 1, 0],
            [1, 1, 1],
        ],
        dtype=np.uint8,
    )
    return Basis(BitMatrix.from_dense(a.T))
