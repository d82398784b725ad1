"""Exact minimum-weight search over nontrivial cycles and cocycles.

d_z is the least weight over ker(d) outside im(d), and d_x the same for the
transposed operator.  Both come from one call of `search.boundary_cycle`,
the front end both fields share, run on 0/1 codes with the single scalar 1:
d and d^T share n, the kernel dimension and H, so the two sectors run as one
enumeration, and a symmetric d, whose sectors are one problem, is searched
once.

Witnesses are the (weight, lexicographic)-least nontrivial cycles, which
makes them independent of the order of the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator
from .errors import DimensionError
from .gf2 import vector_from_bits, vector_to_bits, vector_weight, zero_vector
from .search import DEFAULT_BUDGET, boundary_cycle, min_cycle, verify_cycle


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


def distance(d: BoundaryOperator, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact d_z and d_x.

    d_z is the minimum weight over ker(d) minus im(d); d_x is the same for
    the transposed operator.  Each sector counts its own vectors, and
    BudgetError is raised before the first search round that would take
    either past `budget`, naming the larger count.  The searches start
    from d's stored reduction and eliminate only d^T, once for both: the x
    search gets the two reduced forms swapped.
    """
    t0 = time.perf_counter()
    wit_z, wit_x = (vector_from_bits(found) for found in boundary_cycle(d, budget, both=True))
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
    (found,) = boundary_cycle(d, budget, bound)
    return None if found is None else vector_from_bits(found)


def kernel_minimum(d: BoundaryOperator, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum nonzero weight over the whole kernel of d.

    Against a 0 x m adjoint every nonzero kernel vector counts as nontrivial.
    """
    reduced, pivots = d.reduction
    empty = (np.zeros((0, d.m), np.uint8), [])
    (found,) = min_cycle([(d.matrix.codes, (reduced.codes, pivots), empty)], (1,), budget)
    return int(np.count_nonzero(found))


def verify_witness(d: BoundaryOperator, witness: np.ndarray) -> int:
    """Weight of `witness` after checking that it lies in ker(d) \\ im(d).

    `verify_cycle` on the witness's bits: raises WitnessError when d * witness
    is nonzero or the witness is in the image, so a returned weight is an
    upper bound on d_z.
    """
    if witness.shape != zero_vector(d.m).shape:
        raise DimensionError(f"witness has {witness.size} words, operator has m={d.m}")
    return verify_cycle(d, vector_to_bits(witness, d.m))
