"""Single-sector homological product of two boundary operators.

The product space is the tensor of the factor spaces with row-major index
i * n2 + j, and the product operator is delta1 (x) I + I (x) delta2.  It
squares to zero because the cross terms coincide over GF(2), and its homology
dimension is the product of the factor dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator, homology_representatives
from .errors import InvariantError, NoLogicalsError
from .gf2 import (
    Basis,
    BitMatrix,
    rref_kernel,
    rref_row_space,
    vector_to_bits,
)


@dataclass(frozen=True)
class ProductComplex:
    partial: BoundaryOperator
    factor1: BoundaryOperator
    factor2: BoundaryOperator

    @property
    def n(self) -> int:
        return self.partial.m


def product(d1: BoundaryOperator, d2: BoundaryOperator) -> ProductComplex:
    """delta1 (x) I + I (x) delta2 on the row-major product basis."""
    partial = BoundaryOperator(d1.matrix.tensor_sum(d2.matrix))
    return ProductComplex(partial=partial, factor1=d1, factor2=d2)


def kunneth_report(p: ProductComplex, cap: int = 400) -> dict:
    """Dimension bookkeeping for the product kernel.

    Always compares H(partial) with H(delta1) * H(delta2).  When the product
    space dimension is at most `cap`, additionally checks that the kernel is
    spanned by (ker delta1 (x) ker delta2) together with the image.
    """
    h_product = p.partial.hom_dim
    h_factors = p.factor1.hom_dim * p.factor2.hom_dim
    report = {
        "h_product": h_product,
        "h_factors": h_factors,
        "h_match": h_product == h_factors,
        "span_checked": False,
        "span_match": None,
        "dim_kernel": p.n - p.partial.rank,
        "dim_span": None,
    }
    if p.n <= cap:
        k1 = rref_kernel(*p.factor1.reduction).matrix
        k2 = rref_kernel(*p.factor2.reduction).matrix
        im = rref_row_space(*p.partial.adjoint_reduction).matrix
        dim_span = BitMatrix(np.concatenate([k1.kron(k2).codes, im.codes])).rank()
        report["span_checked"] = True
        report["dim_span"] = dim_span
        report["span_match"] = dim_span == report["dim_kernel"]
    return report


def logical_basis(p: ProductComplex) -> Basis:
    """Tensor products of factor homology representatives.

    The H1 * H2 vectors h1_i (x) h2_j represent the kernel-modulo-image
    classes of the product operator and are verified independent modulo the
    image before being returned.
    """
    if p.factor1.hom_dim == 0 or p.factor2.hom_dim == 0:
        raise NoLogicalsError("a factor has no homology, so the product encodes nothing")
    reps1, reps2 = (
        np.array([vector_to_bits(v, f.m) for v in homology_representatives(f)])
        for f in (p.factor1, p.factor2)
    )
    reps = BitMatrix(np.kron(reps1, reps2))
    im = rref_row_space(*p.partial.adjoint_reduction)
    stacked = BitMatrix(np.concatenate([im.matrix.codes, reps.codes]))
    if stacked.rank() != im.dim + reps.rows:
        raise InvariantError("logical representatives are dependent modulo the image")
    return Basis(reps)

