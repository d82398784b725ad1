"""Exact big-integer counts of matrices by rank, with brute-force oracles.

Three families: the number of a x b matrices of rank exactly r, the number of
rank-R square extensions of a fixed rank-r corner, and the rank census of the
kernel of a canonical product operator.  Each closed form is an exact identity
(no asymptotic relaxation) and is paired with an exhaustive oracle that agrees
on the full small-parameter grid; the asymptotic exponent is checked only as a
logged diagnostic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator, canonical_boundary, reduced_boundary
from .errors import BudgetError, InvariantError, ParameterError
from .gf2 import BitMatrix, kernel_basis, vector_to_bits
from .product import product

logger = logging.getLogger(__name__)

ORACLE_BUDGET = 1 << 28


@dataclass(frozen=True)
class ExactCount:
    value: int
    params: tuple

    def __post_init__(self):
        if self.value < 0:
            raise ParameterError("counts are non-negative")

    def __int__(self) -> int:
        return self.value


def _gl_order(r: int) -> int:
    out = 1
    for i in range(r):
        out *= (1 << r) - (1 << i)
    return out


def count_rank_matrices(a: int, b: int, r: int) -> ExactCount:
    """Number of a x b GF(2) matrices of rank exactly r.

    Every rank-r matrix factors as F G with F of size a x r and G of size
    r x b, both full rank, uniquely up to an invertible change between them,
    so the count is (#F) (#G) / |GL(r)|.
    """
    params = (a, b, r)
    if r < 0 or r > min(a, b):
        return ExactCount(0, params)
    if r == 0:
        return ExactCount(1, params)
    num = 1
    for i in range(r):
        num *= (1 << a) - (1 << i)
    for i in range(r):
        num *= (1 << b) - (1 << i)
    den = _gl_order(r)
    if num % den:
        raise InvariantError(f"|GL({r})| = {den} does not divide the pair count {num}")
    value = num // den
    if value > 1 << (r * (a + b) - r * r + 2):
        logger.warning("rank count %s exceeds its asymptotic envelope", params)
    return ExactCount(value, params)


def count_extensions(a: int, r: int, cap_a: int, cap_r: int) -> ExactCount:
    """Number of rank-cap_r square cap_a x cap_a extensions of a rank-r a x a corner.

    The count depends only on r, never on the corner matrix itself.  It is
    assembled in two exact steps: first extend by rows (corner to cap_a x a,
    intermediate rank z), then by columns (to the full square, rank cap_r).
    Clearing the new blocks against the corner's identity part shows each step
    contributes a power of two times a rectangular rank count.
    """
    params = (a, r, cap_a, cap_r)
    big_a, big_r = cap_a, cap_r
    if not (0 <= r <= a <= big_a):
        raise ParameterError("need 0 <= r <= a <= cap_a")
    if r > big_r:
        raise ParameterError("need r <= cap_r")
    if big_r > big_a:
        return ExactCount(0, params)
    total = 0
    for z in range(r, min(big_r, a) + 1):
        rows = (1 << ((big_a - a) * r)) * count_rank_matrices(big_a - a, a - r, z - r).value
        cols = (1 << ((big_a - a) * z)) * count_rank_matrices(big_a - z, big_a - a, big_r - z).value
        total += rows * cols
    return ExactCount(total, params)


def count_kernel_by_rank(l: int, h: int, r: int) -> ExactCount:
    """Rank census of the kernel of the canonical product operator.

    For canonical factors with parameters (h, l), a kernel element written as
    an M x M matrix has the block shape [[A,B,0],[C,D,F],[0,F,0]] with the
    same L x L block F appearing twice.  Fixing F of rank f, clearing its rows
    and columns costs rank exactly 2f and frees 2f(h+l) - f^2 bits, leaving an
    arbitrary (h+l-f)-square block of rank r - 2f.
    """
    params = (l, h, r)
    if r < 0:
        return ExactCount(0, params)
    total = 0
    for f in range(min(r // 2, l) + 1):
        term = count_rank_matrices(l, l, f).value
        term *= 1 << (2 * f * (h + l) - f * f)
        term *= count_rank_matrices(h + l - f, h + l - f, r - 2 * f).value
        total += term
    return ExactCount(total, params)


def gamma_count(m: int, h: int, m_prime: int, r: int) -> ExactCount:
    """Rank census of reduced cycles: kept-coordinate matrices whose coset is a cycle.

    Composes the kernel census of the reduced product (parameters
    l' = l - (m - m_prime), same h) with the extension count from the
    K = 2 m_prime - m reduced coordinates up to the full m_prime square.
    """
    params = (m, h, m_prime, r)
    if (m - h) % 2 or h < 0 or h > m:
        raise ParameterError("need 0 <= h <= m with m - h even")
    if not m // 2 <= m_prime <= m:
        raise ParameterError("need m/2 <= m_prime <= m for a nonneg reduced space")
    l = (m - h) // 2
    l_red = l - (m - m_prime)
    if l_red < 0:
        raise ParameterError("truncation exceeds the image dimension")
    k_dim = 2 * m_prime - m
    total = 0
    for rr in range(0, min(k_dim, r) + 1):
        z = count_kernel_by_rank(l_red, h, rr).value
        if z:
            total += z * count_extensions(k_dim, rr, m_prime, r).value
    return ExactCount(total, params)


# -- oracles ------------------------------------------------------------------


def _tiny_rank(rows: list[int]) -> int:
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def _iter_matrices(rows: int, cols: int):
    for idx in range(1 << (rows * cols)):
        mask = (1 << cols) - 1
        yield [(idx >> (i * cols)) & mask for i in range(rows)]


def _check_oracle_budget(steps: int) -> None:
    if steps > ORACLE_BUDGET:
        raise BudgetError(
            f"oracle enumeration of {steps} candidates exceeds the budget {ORACLE_BUDGET}"
        )


def oracle_rank_census(a: int, b: int) -> dict[int, int]:
    _check_oracle_budget(1 << (a * b))
    census: dict[int, int] = {}
    for rows in _iter_matrices(a, b):
        r = _tiny_rank(list(rows))
        census[r] = census.get(r, 0) + 1
    return census


def oracle_extension_census(a: int, r: int, big_a: int) -> dict[int, int]:
    """Exhaustive census over all square extensions of the canonical rank-r corner."""
    if not (0 <= r <= a <= big_a):
        raise ParameterError("need 0 <= r <= a <= cap_a")
    _check_oracle_budget(1 << (big_a * big_a - a * a))
    corner = [(1 << i) if i < r else 0 for i in range(a)]
    free = big_a * big_a - a * a
    census: dict[int, int] = {}
    for idx in range(1 << free):
        bits = idx
        rows: list[int] = []
        for i in range(big_a):
            if i < a:
                row = corner[i]
                width = big_a - a
                row |= (bits & ((1 << width) - 1)) << a
                bits >>= width
            else:
                row = bits & ((1 << big_a) - 1)
                bits >>= big_a
            rows.append(row)
        rk = _tiny_rank(rows)
        census[rk] = census.get(rk, 0) + 1
    return census


def kernel_census(d1: BoundaryOperator, d2: BoundaryOperator) -> dict[int, int]:
    """Exhaustive rank census of ker(d1 x I + I x d2), reshaped to matrices."""
    p = product(d1, d2)
    ker = kernel_basis(p.partial.matrix)
    _check_oracle_budget(1 << ker.dim)
    n1, n2 = d1.m, d2.m
    if n1 * n2 == 0:
        return {0: 1}
    table = np.zeros((1, n1 * n2), dtype=np.uint8)
    for v in ker.vectors:
        bits = vector_to_bits(v, n1 * n2)
        table = np.concatenate([table, table ^ bits], axis=0)
    powers = 1 << np.arange(n2, dtype=np.int64)
    row_ints = table.reshape(-1, n1, n2).astype(np.int64) @ powers
    census: dict[int, int] = {}
    for ints in row_ints:
        rk = _tiny_rank([int(x) for x in ints])
        census[rk] = census.get(rk, 0) + 1
    return census


def gamma_census(d1: BoundaryOperator, d2: BoundaryOperator, m_prime: int) -> dict[int, int]:
    """Exhaustive census of reduced cycles for a good factor pair.

    Enumerates every matrix on the kept m_prime x m_prime coordinates, maps it
    through both quotient projections, and keeps it when the projected matrix
    is a cycle of the reduced product operator.
    """
    r1 = reduced_boundary(d1, m_prime)
    r2 = reduced_boundary(d2, m_prime)
    _check_oracle_budget(1 << (m_prime * m_prime))
    k1, k2 = r1.k_dim, r2.k_dim
    # quotient projection matrices: rows = reduced coordinates of e_j
    q1 = np.array(
        [vector_to_bits(r1.project(_unit(d1.m, j)), k1) for j in range(m_prime)], dtype=np.uint8
    ).T
    q2 = np.array(
        [vector_to_bits(r2.project(_unit(d2.m, j)), k2) for j in range(m_prime)], dtype=np.uint8
    ).T
    dp1 = r1.delta_prime.to_dense()
    dp2 = r2.delta_prime.to_dense()
    census: dict[int, int] = {}
    for rows in _iter_matrices(m_prime, m_prime):
        g = np.array(
            [[(rows[i] >> j) & 1 for j in range(m_prime)] for i in range(m_prime)], dtype=np.uint8
        )
        gp = (q1 @ g @ q2.T) & 1
        if ((dp1 @ gp) & 1 ^ (gp @ dp2.T) & 1).any():
            continue
        rk = _tiny_rank(list(rows))
        census[rk] = census.get(rk, 0) + 1
    return census


def _unit(n: int, j: int) -> np.ndarray:
    v = np.zeros((1, n), dtype=np.uint8)
    v[0, j] = 1
    return BitMatrix.from_dense(v).data[0]


def brute_count(kind: str, params: tuple) -> ExactCount:
    """Exhaustive cross-check for the closed-form counts.

    kind is one of 'rank' (a, b, r), 'ext' (a, r, cap_a, cap_r),
    'kernel' (l, h, r), or 'gamma' (m, h, m_prime, r); gamma and kernel
    enumerate canonical instances.
    """
    if kind == "rank":
        a, b, r = params
        return ExactCount(oracle_rank_census(a, b).get(r, 0), params)
    if kind == "ext":
        a, r, big_a, big_r = params
        return ExactCount(oracle_extension_census(a, r, big_a).get(big_r, 0), params)
    if kind == "kernel":
        l, h, r = params
        d = canonical_boundary(h, l)
        return ExactCount(kernel_census(d, d).get(r, 0), params)
    if kind == "gamma":
        m, h, m_prime, r = params
        d = canonical_boundary(h, (m - h) // 2)
        return ExactCount(gamma_census(d, d, m_prime).get(r, 0), params)
    raise ParameterError(f"unknown oracle kind: {kind}")
