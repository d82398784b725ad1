"""Reproduction experiments, their expected-value manifest, and Monte-Carlo runs.

Each experiment returns an ExperimentReport whose `passed` field is true
exactly when every expected value in the compiled-in MANIFEST entry
matched; a failing report carries the manifest's self-contained claim
description so the violated claim is named without external context.

The three sweeps run on one runner, `_sweep`.  Each entry gives it a
population of labelled products and a judge of its distance claim; the
runner reads each product's n, k and stabilizer weight, checks them against
the manifest entry, and collects the per-pair rows and the violations.

Randomized experiments default to seed 1105.  Rerunning any experiment
with the seed recorded in its report reproduces the report bit-exactly
apart from `wall_time`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .complexes import BoundaryOperator, is_good, random_boundary
from .css import (
    boundary_from_checks,
    code_from_complex,
    stabilizer_weight_of,
    steane_check_basis,
)
from .distance import distance, distance_upper_bound, kernel_minimum
from .errors import BudgetError, ParameterError
from .gf2 import BitMatrix, vector_weight
from .gf4 import (
    Gf4Matrix,
    enumerate_selfadjoint_invertible,
    five_qubit_check_basis,
    gf4_boundary_from_checks,
    gf4_distance,
    gf4_distance_upper_bound,
    gf4_product,
    gf4_verify_witness,
    gf4_weight,
    steane_gf4_check_basis,
    vector_symbols,
)
from .product import product

DEFAULT_SEED = 1105
_SAMPLE_BUDGET = 10**6
_MIXED_PAIR_CAP = 200

MANIFEST = {
    "steane-css-params": {
        "description": "the 7-qubit code built from the fixed check basis is "
        "[[7,1,3]] with stabilizer weight 4",
        "expect": {"n": 7, "k": 1, "w": 4, "d_z": 3, "d_x": 3},
    },
    "steane-squared": {
        "description": "product of the 7-qubit code (boundary A U At over all "
        "168 invertible 3x3 U) with its identity-U twin is [[49,1,7]] exactly "
        "when U is symmetric and [[49,1,9]] otherwise, with stabilizer weight "
        "at most 8 in every case",
        "expect": {
            "u_total": 168,
            "n": 49,
            "k": 1,
            "d_symmetric": 7,
            "d_asymmetric": 9,
            "weight_bound": 8,
        },
    },
    "fivequbit-squared": {
        "description": "product of the 5-qubit code with itself is [[25,1,5]] "
        "with stabilizer weight at most 8 for every one of the 10 x 10 "
        "choices of invertible self-adjoint 2x2 matrices",
        "expect": {"pair_total": 100, "n": 25, "k": 1, "d": 5, "weight_bound": 8},
    },
    "steane-by-fivequbit": {
        "description": "for every sampled boundary pair of the 5-qubit and "
        "7-qubit codes, the 35-qubit product is [[35,1,d]] with 7 <= d <= 9: "
        "a complete search finds no nontrivial cycle of weight at most 6, and "
        "the tensor product of the factors' weight-3 logicals is a nontrivial "
        "cycle of weight 9",
        "expect": {"n": 35, "k": 1, "bound": 6, "d_upper": 9},
    },
}


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's parameters, measurements, and verdict."""

    name: str
    params: dict
    results: dict
    passed: bool
    seed: int | None
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "results": self.results,
            "pass": self.passed,
            "seed": self.seed,
            "wall_time": self.wall_time,
        }

    def deterministic_view(self) -> dict:
        """Everything that a rerun with the same seed must reproduce."""
        out = self.to_dict()
        del out["wall_time"]
        return out


def _report(name, params, results, passed, seed, t0) -> ExperimentReport:
    return ExperimentReport(
        name=name,
        params=params,
        results=results,
        passed=passed,
        seed=seed,
        wall_time=time.perf_counter() - t0,
    )


def steane_css_params() -> ExperimentReport:
    """Parameters and both distances of the 7-qubit base code."""
    t0 = time.perf_counter()
    d = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    code = code_from_complex(d)
    r = distance(d)
    results = {"n": code.n, "k": code.k, "w": code.w, "d_z": r.d_z, "d_x": r.d_x}
    passed = results == MANIFEST["steane-css-params"]["expect"]
    return _report("steane-css-params", {}, results, passed, None, t0)


def _invertible_3x3() -> list[tuple[int, BitMatrix]]:
    """All invertible 3x3 GF(2) matrices, ordered by row-major bit encoding."""
    bits = np.arange(512)[:, None] >> np.arange(9) & 1
    mats = (BitMatrix(row.astype(np.uint8).reshape(3, 3)) for row in bits)
    return [(enc, m) for enc, m in enumerate(mats) if m.rank() == 3]


def _sweep(expect, pairs, judge) -> tuple[list, list, int]:
    """Check each labelled product against a manifest entry.

    `pairs` yields (label, p): a dict naming the pair and the product's
    boundary operator, of either field.  `judge(label, p)` returns the
    pair's record and whether its distance claim held; the pair's row is
    the label followed by that record.  A pair violates the entry when its
    claim fails, it is not an [[n, k]] code, or, where the entry has a
    `weight_bound`, its stabilizer weight w exceeds it.  Returns the rows,
    one violation per failing pair (its row with n, k and w), and the
    largest w.
    """
    rows, violations, max_weight = [], [], 0
    for label, p in pairs:
        w = stabilizer_weight_of(p.matrix)
        max_weight = max(max_weight, w)
        record, held = judge(label, p)
        row = {**label, **record}
        rows.append(row)
        if (
            not held
            or (p.m, p.hom_dim) != (expect["n"], expect["k"])
            or w > expect.get("weight_bound", w)
        ):
            violations.append({**row, "n": p.m, "k": p.hom_dim, "w": w})
    return rows, violations, max_weight


def steane_squared() -> ExperimentReport:
    """Sweep the 49-qubit product over every invertible 3x3 U (V = identity)."""
    t0 = time.perf_counter()
    expect = MANIFEST["steane-squared"]["expect"]
    basis = steane_check_basis()
    d_v = boundary_from_checks(basis, BitMatrix.identity(3))
    pairs = (
        ({"u": enc, "symmetric": u == u.transpose()},
         product(boundary_from_checks(basis, u), d_v).partial)
        for enc, u in _invertible_3x3()
    )

    def judge(label, p):
        r = distance(p)
        d = min(r.d_z, r.d_x)
        return {"d": d}, d == expect["d_symmetric" if label["symmetric"] else "d_asymmetric"]

    per_u, violations, max_weight = _sweep(expect, pairs, judge)
    results = {
        "u_total": len(per_u),
        "symmetric_total": sum(row["symmetric"] for row in per_u),
        "max_stabilizer_weight": max_weight,
        "per_u": per_u,
        "violations": violations,
    }
    passed = results["u_total"] == expect["u_total"] and not violations
    return _report("steane-squared", {}, results, passed, None, t0)


def fivequbit_squared() -> ExperimentReport:
    """Sweep the 25-qubit product over all 100 (U, V) self-adjoint pairs."""
    t0 = time.perf_counter()
    expect = MANIFEST["fivequbit-squared"]["expect"]
    basis = five_qubit_check_basis()
    factors = [gf4_boundary_from_checks(basis, u) for u in enumerate_selfadjoint_invertible(2)]
    pairs = (
        ({"u": i, "v": j}, gf4_product(d1, d2))
        for i, d1 in enumerate(factors)
        for j, d2 in enumerate(factors)
    )

    def judge(label, p):
        d = gf4_distance(p).d
        return {"d": d}, d == expect["d"]

    per_pair, violations, max_weight = _sweep(expect, pairs, judge)
    results = {
        "pair_total": len(per_pair),
        "max_stabilizer_weight": max_weight,
        "per_pair": per_pair,
        "violations": violations,
    }
    passed = results["pair_total"] == expect["pair_total"] and not violations
    return _report("fivequbit-squared", {}, results, passed, None, t0)


def steane_by_fivequbit(seed: int = DEFAULT_SEED) -> ExperimentReport:
    """Distance bounds 7 <= d <= 9 on the mixed 35-qubit product.

    Sweeps all 10 choices for the 5-qubit factor crossed with a seeded
    sample of the 280 choices for the 7-qubit factor, capped at 200 pairs.
    Each pair gets a complete bounded search at weight 6, so a missing
    witness proves that the pair's distance is at least 7.  The upper
    bound comes from the tensor product of the two factors' minimum-weight
    logicals, laid out in the row-major order of `gf4_product` and checked
    to be a nontrivial cycle of the product.  A pair violates the claim
    when its search finds a light witness, its upper witness does not have
    weight 9, or the product is not 35 qubits with one logical.
    """
    t0 = time.perf_counter()
    expect = MANIFEST["steane-by-fivequbit"]["expect"]
    bound = expect["bound"]
    u2s = enumerate_selfadjoint_invertible(2)
    u3s = enumerate_selfadjoint_invertible(3)
    rng = np.random.default_rng(seed)
    v_sample = sorted(
        int(x) for x in rng.choice(len(u3s), size=_MIXED_PAIR_CAP // len(u2s), replace=False)
    )
    basis5 = five_qubit_check_basis()
    basis7 = steane_gf4_check_basis()
    factors5 = [gf4_boundary_from_checks(basis5, u) for u in u2s]
    factors7 = {vi: gf4_boundary_from_checks(basis7, u3s[vi]) for vi in v_sample}
    # each factor's lightest logical, keyed by its boundary
    logical = {
        d: Gf4Matrix.from_codes(gf4_distance(d).witness) for d in [*factors5, *factors7.values()]
    }
    pairs = (
        ({"u": ui, "v": vi}, gf4_product(d1, d2))
        for vi, d2 in factors7.items()
        for ui, d1 in enumerate(factors5)
    )

    def judge(label, p):
        witness = gf4_distance_upper_bound(p, bound)
        upper = logical[factors5[label["u"]]].kron(logical[factors7[label["v"]]]).to_codes()[0]
        upper_weight = gf4_verify_witness(p, upper)
        found = witness is not None
        record = {
            "witness_weight": gf4_weight(witness) if found else None,
            "witness": vector_symbols(witness) if found else None,
            "lower_bound": None if found else bound + 1,
            "upper_witness": vector_symbols(upper),
            "upper_witness_weight": upper_weight,
        }
        return record, not found and upper_weight == expect["d_upper"]

    rows, violations, _ = _sweep(expect, pairs, judge)
    results = {
        "bound": bound,
        "d_upper": expect["d_upper"],
        "pair_total": len(rows),
        "witnesses_found": sum(row["witness"] is not None for row in rows),
        "v_sample": v_sample,
        "pairs": rows,
        "violations": violations,
    }
    passed = bool(rows) and not violations
    return _report(
        "steane-by-fivequbit", {"pair_cap": _MIXED_PAIR_CAP}, results, passed, seed, t0
    )


@dataclass(frozen=True)
class MonteCarloParams:
    """Sampling plan for randomized boundary-operator statistics."""

    m: int
    h: int
    m_prime: int
    c: float
    samples: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.m < 1 or self.h < 0 or self.h > self.m or (self.m - self.h) % 2:
            raise ParameterError("need 0 <= h <= m with m - h even and m >= 1")
        if not 0 < self.c < 1:
            raise ParameterError(f"c must lie strictly between 0 and 1, got {self.c}")
        if not self.m <= 2 * self.m_prime <= 2 * self.m:
            raise ParameterError("need m/2 <= m_prime <= m")
        if self.samples < 1:
            raise ParameterError("need at least one sample")
        if self.samples > _SAMPLE_BUDGET:
            raise BudgetError(
                f"sample budget is {_SAMPLE_BUDGET} kernel-minimum evaluations, "
                f"got {self.samples}"
            )

    def to_dict(self) -> dict:
        """The plan without its seed, which the report records on its own."""
        return {k: v for k, v in asdict(self).items() if k != "seed"}


def _d_z(d: BoundaryOperator) -> int:
    """d_z alone: the z sector of `distance`, the same search with the same cut M."""
    return vector_weight(distance_upper_bound(d, d.m))


def montecarlo(p: MonteCarloParams) -> ExperimentReport:
    """Randomized boundary statistics: low-weight kernels, goodness, products.

    Per sample, draws one operator and records whether its full-kernel
    minimum weight falls below c*m and whether it fails goodness at
    m_prime.  When m <= 6 and h >= 1, additionally draws a second operator
    and tabulates the exact distance of their product together with the
    factor-distance bounds max(d1, d2) <= d <= d1*d2.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(p.seed)
    track_products = p.m <= 6 and p.h >= 1
    low_weight = 0
    not_good = 0
    histogram: dict[str, int] = {}
    sandwich_violations = 0
    for _ in range(p.samples):
        d1 = random_boundary(p.m, p.h, rng)
        if kernel_minimum(d1) < p.c * p.m:
            low_weight += 1
        if not is_good(d1, p.m_prime):
            not_good += 1
        if track_products:
            d2 = random_boundary(p.m, p.h, rng)
            dp = _d_z(product(d1, d2).partial)
            f1 = _d_z(d1)
            f2 = _d_z(d2)
            histogram[str(dp)] = histogram.get(str(dp), 0) + 1
            if not max(f1, f2) <= dp <= f1 * f2:
                sandwich_violations += 1
    results = {
        "low_weight_fraction": low_weight / p.samples,
        "not_good_fraction": not_good / p.samples,
        "product_distance_histogram": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
        "sandwich_violations": sandwich_violations,
    }
    passed = sandwich_violations == 0
    return _report("montecarlo", p.to_dict(), results, passed, p.seed, t0)
