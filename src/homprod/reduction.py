"""Stabilizer splitting steps and an iterative weight-reduction driver.

A split replaces one heavy check row by two roughly-half-weight rows that
share a fresh ancilla qubit, patching the opposite-type checks so that
orthogonality and the logical count k survive.  Row weights shrink; column
weights (qubit degrees) may grow, so the driver tracks and targets row
weights only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .css import CssCode, stabilizer_weight_of
from .errors import InvariantError, ParameterError, PreconditionError
from .gf2 import BitMatrix


@dataclass
class SplitTrace:
    """Record of a reduction run: one entry per split, post-step."""

    steps: list[tuple[str, int, tuple[int, ...]]] = field(default_factory=list)
    weight_history: list[int] = field(default_factory=list)
    n_history: list[int] = field(default_factory=list)
    reached: bool = False


def _row_support(mat: BitMatrix, i: int) -> np.ndarray:
    return np.flatnonzero(mat.codes[i])


def max_check_weight(c: CssCode) -> int:
    """Largest row weight over both check matrices (the quantity splits reduce)."""
    weights = [0]
    weights.extend(c.a_z.row_weight(i) for i in range(c.a_z.rows))
    weights.extend(c.a_x.row_weight(i) for i in range(c.a_x.rows))
    return max(weights)


def _split(c: CssCode, stab: int, t1, primary: str) -> CssCode:
    """Shared implementation: primary='Z' splits a Z row, 'X' an X row."""
    split_mat, other_mat = (c.a_z, c.a_x) if primary == "Z" else (c.a_x, c.a_z)
    if not 0 <= stab < split_mat.rows:
        raise PreconditionError(f"no {primary} check with index {stab}")
    support = set(int(q) for q in _row_support(split_mat, stab))
    chosen = set(int(q) for q in t1)
    if not chosen or not chosen < support:
        raise PreconditionError("t1 must be a nonempty proper subset of the support")

    n = c.n
    split_dense = split_mat.codes
    other_dense = other_mat.codes

    r1 = np.zeros(n + 1, dtype=np.uint8)
    r1[sorted(chosen)] = 1
    r1[n] = 1
    r2 = np.zeros(n + 1, dtype=np.uint8)
    r2[sorted(support - chosen)] = 1
    r2[n] = 1
    split_new = np.zeros((split_mat.rows + 1, n + 1), dtype=np.uint8)
    split_new[:stab, :n] = split_dense[:stab]
    split_new[stab] = r1
    split_new[stab + 1] = r2
    split_new[stab + 2 :, :n] = split_dense[stab + 1 :]

    # The opposite-type rows pick up the ancilla exactly when their overlap
    # with t1 is odd, which restores every inner product to zero.
    t1_indicator = np.zeros(n, dtype=np.uint8)
    t1_indicator[sorted(chosen)] = 1
    parity = (other_dense @ t1_indicator) & 1
    other_new = np.concatenate([other_dense, parity[:, None]], axis=1)

    split_bm = BitMatrix(split_new)
    other_bm = BitMatrix(other_new)
    a_z, a_x = (split_bm, other_bm) if primary == "Z" else (other_bm, split_bm)
    k_new = (n + 1) - a_z.rank() - a_x.rank()
    if k_new != c.k:
        raise InvariantError("split changed the logical count")
    w_new = max(stabilizer_weight_of(a_z), stabilizer_weight_of(a_x))
    return CssCode(n=n + 1, a_z=a_z, a_x=a_x, k=c.k, w=w_new)


def z_split(c: CssCode, stab: int, t1) -> CssCode:
    """Split Z check `stab` into two halves sharing a new ancilla qubit.

    The two replacement rows are t1 plus the ancilla and the complementary
    part of the support plus the ancilla; X rows with odd overlap against t1
    gain the ancilla.  Ranks shift by exactly one on the Z side and not at
    all on the X side, so k is unchanged.
    """
    return _split(c, stab, t1, "Z")


def x_split(c: CssCode, stab: int, t1) -> CssCode:
    """Mirror of z_split with the roles of the check matrices swapped."""
    return _split(c, stab, t1, "X")


def _eligible(mat: BitMatrix, w_target: int) -> list[tuple[int, int]]:
    """(weight, row) pairs with weight above target, heaviest first, ties by index."""
    out = [(mat.row_weight(i), i) for i in range(mat.rows)]
    out = [(w, i) for (w, i) in out if w > w_target]
    out.sort(key=lambda wi: (-wi[0], wi[1]))
    return out


def reduce_weights(
    c: CssCode,
    w_target: int,
    strategy: str = "round-robin",
    max_steps: int | None = None,
    seed: int | None = None,
) -> tuple[CssCode, SplitTrace]:
    """Split heavy checks until every row weight is at most w_target.

    Both strategies repeatedly split the currently heaviest eligible row
    (ties: Z side first, then lowest index).  They differ in the choice of
    t1: round-robin takes the first half of the support, random draws a
    balanced subset from the seeded generator.  Splitting one row can bump
    opposite-type rows by 1, and on dense codes those bumps can outpace
    the splits, so termination is not guaranteed: the driver stops after
    max_steps (default 64 n) and reports whether the target was reached.
    """
    if w_target < 3:
        raise ParameterError("w_target below 3 cannot terminate")
    if strategy not in ("round-robin", "random"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    if max_steps is None:
        max_steps = 64 * c.n
    rng = np.random.default_rng(seed) if strategy == "random" else None

    code = c
    trace = SplitTrace()
    while len(trace.steps) < max_steps:
        candidates = [
            (-w, 0, i) for w, i in _eligible(code.a_z, w_target)
        ] + [(-w, 1, i) for w, i in _eligible(code.a_x, w_target)]
        if not candidates:
            break
        _, side_idx, stab = min(candidates)
        side = "Z" if side_idx == 0 else "X"
        mat = code.a_z if side == "Z" else code.a_x
        support = [int(q) for q in _row_support(mat, stab)]
        half = (len(support) + 1) // 2
        if strategy == "round-robin":
            t1 = tuple(support[:half])
        else:
            t1 = tuple(sorted(int(q) for q in rng.choice(support, size=half, replace=False)))
        code = z_split(code, stab, t1) if side == "Z" else x_split(code, stab, t1)
        trace.steps.append((side, stab, t1))
        trace.weight_history.append(max_check_weight(code))
        trace.n_history.append(code.n)
    trace.reached = max_check_weight(code) <= w_target
    return code, trace
