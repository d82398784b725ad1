"""Exact minimum-weight search over nontrivial cycles and cocycles.

d_z is the least weight over ker(d) outside im(d), and d_x the same for the
transposed operator.  Both come from `search.min_cycle`, the search both
fields share, run on 0/1 codes with the single scalar 1.

Witnesses are the (weight, lexicographic)-least nontrivial cycles, which
makes them independent of the order of the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator
from .errors import DimensionError
from .gf2 import rref_row_space, vector_from_bits, vector_to_bits, vector_weight, zero_vector
from .linalg import Reduction
from .search import DEFAULT_BUDGET, check_witness, min_cycle


@dataclass
class DistanceResult:
    """Both distances and witnesses; `cosets_scanned` counts the nontrivial
    homology classes covered, 2^H - 1 per sector."""

    d_z: int
    d_x: int
    witness_z: np.ndarray
    witness_x: np.ndarray
    cosets_scanned: int
    wall_time: float


def _reductions(d: BoundaryOperator) -> tuple[Reduction, Reduction]:
    """The stored reduced forms and pivots of d and of d^T, as 0/1 codes."""
    pairs = d.reduction, d.transposed_reduction
    return tuple((reduced.to_dense(), pivots) for reduced, pivots in pairs)


def _min_cycle(a: np.ndarray, reduced, budget: int, limit: int | None = None) -> np.ndarray | None:
    """`search.min_cycle` on a dense 0/1 matrix, given the reduced forms of a and a^T."""
    found = min_cycle(a, reduced, (1,), budget, limit)
    return None if found is None else vector_from_bits(found)


def distance(d: BoundaryOperator, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact d_z and d_x.

    d_z is the minimum weight over ker(d) minus im(d); d_x is the same for
    the transposed operator.  Raises BudgetError before a search round
    that would visit more than `budget` vectors.  The searches start from
    d's stored reduction and eliminate only d^T, once for both: the x
    search gets the two reduced forms swapped.
    """
    t0 = time.perf_counter()
    dense = d.matrix.to_dense()
    own, transposed = _reductions(d)
    wit_z = _min_cycle(dense, (own, transposed), budget)
    wit_x = _min_cycle(dense.T, (transposed, own), budget)
    return DistanceResult(
        d_z=vector_weight(wit_z),
        d_x=vector_weight(wit_x),
        witness_z=wit_z,
        witness_x=wit_x,
        cosets_scanned=2 * ((1 << d.hom_dim) - 1),
        wall_time=time.perf_counter() - t0,
    )


def distance_parallel(
    d: BoundaryOperator, threads: int, budget: int = DEFAULT_BUDGET
) -> DistanceResult:
    """`distance(d, budget)`; `threads` is ignored.

    Kept only because the benchmark (`perfbench/workloads.py`) calls it
    with a thread count; the search runs on one thread.
    """
    return distance(d, budget)


def distance_upper_bound(
    d: BoundaryOperator, bound: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray | None:
    """The least nontrivial cycle of weight <= bound, if any.

    A None return is a proof that d_z exceeds `bound`: the search stops only
    once every cycle that light has been seen.
    """
    return _min_cycle(d.matrix.to_dense(), _reductions(d), budget, bound)


def kernel_minimum(d: BoundaryOperator, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum nonzero weight over the whole kernel of d.

    Against a 0 x m adjoint every nonzero kernel vector counts as nontrivial.
    """
    reduced, pivots = d.reduction
    empty = (np.zeros((0, d.m), np.uint8), [])
    found = min_cycle(d.matrix.to_dense(), ((reduced.to_dense(), pivots), empty), (1,), budget)
    return int(np.count_nonzero(found))


def verify_witness(d: BoundaryOperator, witness: np.ndarray) -> int:
    """Weight of `witness` after checking that it lies in ker(d) \\ im(d).

    Raises WitnessError when d * witness is nonzero or the witness is in the
    image, so a returned weight is an upper bound on d_z.
    """
    if witness.shape != zero_vector(d.m).shape:
        raise DimensionError(f"witness has {witness.size} words, operator has m={d.m}")
    weight = vector_weight(witness)
    image = rref_row_space(*d.transposed_reduction).matrix.to_dense()
    check_witness(d.matrix.to_dense(), vector_to_bits(witness, d.m), weight, image)
    return weight
