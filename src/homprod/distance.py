"""Exact minimum-weight search over nontrivial cycles and cocycles.

d_z is the least weight over ker(d) outside im(d), and d_x the same for the
transposed operator.  Both come from the information-set search
`gf4.min_cycle`, run on 0/1 codes with the single scalar 1: GF(2) is the 0/1
subfield of GF(4), so the search, its nontriviality test and its witness
check are the GF(4) ones.

Witnesses are the (weight, lexicographic)-least nontrivial cycles, which
makes them independent of the order of the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator
from .errors import DimensionError
from .gf2 import BitMatrix, vector_from_bits, vector_to_bits, vector_weight, zero_vector
from .gf4 import DEFAULT_BUDGET, check_witness, min_cycle


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


def _min_cycle(matrix: BitMatrix, budget: int, limit: int | None = None) -> np.ndarray | None:
    found = min_cycle(matrix.to_dense(), (1,), budget, limit)
    return None if found is None else vector_from_bits(found)


def distance(d: BoundaryOperator, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact d_z and d_x.

    d_z is the minimum weight over ker(d) minus im(d); d_x is the same for
    the transposed operator.  Raises BudgetError before a search round
    that would visit more than `budget` vectors.
    """
    t0 = time.perf_counter()
    wit_z = _min_cycle(d.matrix, budget)
    wit_x = _min_cycle(d.matrix.transpose(), budget)
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
    return _min_cycle(d.matrix, budget, bound)


def verify_witness(d: BoundaryOperator, witness: np.ndarray) -> int:
    """Weight of `witness` after checking that it lies in ker(d) \\ im(d).

    Raises WitnessError when d * witness is nonzero or the witness is in the
    image, so a returned weight is an upper bound on d_z.
    """
    if witness.shape != zero_vector(d.m).shape:
        raise DimensionError(f"witness has {witness.size} words, operator has m={d.m}")
    weight = vector_weight(witness)
    check_witness(d.matrix.to_dense(), vector_to_bits(witness, d.m), weight)
    return weight
