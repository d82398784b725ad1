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
    eye1 = BitMatrix.identity(d1.m)
    eye2 = BitMatrix.identity(d2.m)
    partial = d1.matrix.kron(eye2) ^ eye1.kron(d2.matrix)
    return ProductComplex(partial=BoundaryOperator(partial), factor1=d1, factor2=d2)


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
        k1 = rref_kernel(*p.factor1.reduction)
        k2 = rref_kernel(*p.factor2.reduction)
        rows = []
        for u in k1.vectors:
            ub = vector_to_bits(u, p.factor1.m)
            for v in k2.vectors:
                vb = vector_to_bits(v, p.factor2.m)
                rows.append(np.kron(ub, vb))
        im = rref_row_space(*p.partial.transposed_reduction)
        rows.extend(vector_to_bits(v, p.n) for v in im.vectors)
        if rows:
            span = BitMatrix.from_dense(np.array(rows, dtype=np.uint8))
            dim_span = span.rank()
        else:
            dim_span = 0
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
    reps1 = homology_representatives(p.factor1)
    reps2 = homology_representatives(p.factor2)
    rows = []
    for u in reps1:
        ub = vector_to_bits(u, p.factor1.m)
        for v in reps2:
            rows.append(np.kron(ub, vector_to_bits(v, p.factor2.m)))
    reps = BitMatrix.from_dense(np.array(rows, dtype=np.uint8))
    im = rref_row_space(*p.partial.transposed_reduction)
    stacked = BitMatrix.from_dense(
        np.concatenate([im.matrix.to_dense(), reps.to_dense()], axis=0)
    )
    expected = im.dim + len(rows)
    if stacked.rank() != expected:
        raise InvariantError("logical representatives are dependent modulo the image")
    return Basis(reps)

