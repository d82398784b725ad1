"""Report mechanics, manifest consistency, and Monte-Carlo statistics.

The heavy sweep experiments run once in the acceptance suite; here the
orchestration around them is exercised with stubs and small instances.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from homprod import BudgetError, ParameterError
from homprod.complexes import BoundaryOperator, random_boundary
from homprod.css import boundary_from_checks, stabilizer_weight_of, steane_check_basis
from homprod.distance import kernel_minimum
from homprod.experiments import (
    DEFAULT_SEED,
    MANIFEST,
    ExperimentReport,
    MonteCarloParams,
    _invertible_3x3,
    fivequbit_squared,
    montecarlo,
    steane_by_fivequbit,
    steane_css_params,
    steane_squared,
)
from homprod.gf2 import BitMatrix
from homprod.gf4 import (
    enumerate_selfadjoint_invertible,
    five_qubit_check_basis,
    gf4_boundary_from_checks,
    gf4_product,
)
from homprod.product import product


def dense_rank(mat: np.ndarray) -> int:
    work = mat.astype(np.uint8).copy()
    rank = 0
    for col in range(work.shape[1]):
        rows = np.flatnonzero(work[rank:, col]) + rank
        if rows.size == 0:
            continue
        pivot = rows[0]
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(work.shape[0]):
            if r != rank and work[r, col]:
                work[r] ^= work[rank]
        rank += 1
        if rank == work.shape[0]:
            break
    return rank


def test_manifest_entries_are_self_contained():
    assert set(MANIFEST) == {
        "steane-css-params",
        "steane-squared",
        "fivequbit-squared",
        "steane-by-fivequbit",
    }
    for name, entry in MANIFEST.items():
        assert isinstance(entry["description"], str) and entry["description"]
        assert isinstance(entry["expect"], dict) and entry["expect"]


def test_report_dict_and_deterministic_view():
    r = ExperimentReport(
        name="x", params={"a": 1}, results={"b": 2}, passed=True,
        seed=7, wall_time=0.5,
    )
    d = r.to_dict()
    assert d["pass"] is True and d["seed"] == 7 and d["wall_time"] == 0.5
    assert "threads" not in d
    v = r.deterministic_view()
    assert "wall_time" not in v and "threads" not in v
    assert v["results"] == {"b": 2} and v["params"] == {"a": 1}


def test_steane_css_params_report():
    r = steane_css_params()
    assert r.passed
    assert r.results == {"n": 7, "k": 1, "w": 4, "d_z": 3, "d_x": 3}
    assert r.name in MANIFEST and r.seed is None


def test_invertible_3x3_census():
    mats = _invertible_3x3()
    # |GL(3, 2)| = (8-1)(8-2)(8-4)
    assert len(mats) == 7 * 6 * 4
    encs = [enc for enc, _ in mats]
    assert encs == sorted(encs) and len(set(encs)) == 168
    for enc, m in mats:
        dense = m.to_dense()
        assert dense_rank(dense) == 3
        rebuilt = sum(int(dense[i, j]) << (3 * i + j) for i in range(3) for j in range(3))
        assert rebuilt == enc
    assert sum(1 for _, m in mats if m == m.transpose()) == 28


def test_kernel_minimum_matches_whole_space_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        h = int(rng.choice(range(m % 2, m + 1, 2)))
        d = random_boundary(m, h, rng)
        dense = d.matrix.to_dense()
        best = None
        for bits in itertools.product((0, 1), repeat=m):
            v = np.array(bits, dtype=np.uint8)
            if not v.any() or ((dense @ v) & 1).any():
                continue
            w = int(v.sum())
            best = w if best is None else min(best, w)
        assert kernel_minimum(d) == best


def test_kernel_minimum_budget():
    # round 1 visits each of the 24 kernel generators of the zero operator
    d = BoundaryOperator(BitMatrix.zeros(24, 24))
    with pytest.raises(BudgetError, match="at least 24"):
        kernel_minimum(d, budget=23)
    assert kernel_minimum(d) == 1


def test_montecarlo_params_validation():
    p = MonteCarloParams(m=6, h=2, m_prime=5, c=0.25, samples=10, seed=3)
    assert p.to_dict() == {"m": 6, "h": 2, "m_prime": 5, "c": 0.25, "samples": 10}
    for bad in (
        dict(m=6, h=7, m_prime=5, c=0.1, samples=1),
        dict(m=6, h=1, m_prime=5, c=0.1, samples=1),
        dict(m=0, h=0, m_prime=0, c=0.1, samples=1),
        dict(m=6, h=2, m_prime=2, c=0.1, samples=1),
        dict(m=6, h=2, m_prime=7, c=0.1, samples=1),
        dict(m=6, h=2, m_prime=5, c=0.0, samples=1),
        dict(m=6, h=2, m_prime=5, c=1.0, samples=1),
        dict(m=6, h=2, m_prime=5, c=0.1, samples=0),
    ):
        with pytest.raises(ParameterError):
            MonteCarloParams(**bad)
    with pytest.raises(BudgetError):
        MonteCarloParams(m=6, h=2, m_prime=5, c=0.1, samples=10**6 + 1)


def test_montecarlo_small_run_tracks_products():
    p = MonteCarloParams(m=4, h=2, m_prime=3, c=0.5, samples=25, seed=11)
    r = montecarlo(p)
    assert r.name == "montecarlo" and r.seed == 11
    assert r.params == p.to_dict()
    res = r.results
    assert 0.0 <= res["low_weight_fraction"] <= 1.0
    assert 0.0 <= res["not_good_fraction"] <= 1.0
    assert sum(res["product_distance_histogram"].values()) == 25
    assert res["sandwich_violations"] == 0 and r.passed


def test_montecarlo_large_m_skips_products():
    p = MonteCarloParams(m=8, h=2, m_prime=7, c=0.1, samples=10, seed=2)
    res = montecarlo(p).results
    assert res["product_distance_histogram"] == {}
    assert res["sandwich_violations"] == 0


def test_montecarlo_tiny_threshold_never_fires():
    # every nonzero kernel vector has weight >= 1 > c*m
    p = MonteCarloParams(m=4, h=2, m_prime=3, c=0.01, samples=15, seed=9)
    assert montecarlo(p).results["low_weight_fraction"] == 0.0


def test_montecarlo_is_seed_deterministic():
    p = MonteCarloParams(m=5, h=1, m_prime=4, c=0.3, samples=12, seed=77)
    assert montecarlo(p).deterministic_view() == montecarlo(p).deterministic_view()


def test_mixed_experiment_orchestration(monkeypatch):
    calls = []

    def stub(p, bound):
        calls.append((p.m, bound))
        return None

    monkeypatch.setattr("homprod.experiments.gf4_distance_upper_bound", stub)
    r = steane_by_fivequbit(seed=5)
    assert r.passed and r.seed == 5
    res = r.results
    assert res["pair_total"] == 200 and res["witnesses_found"] == 0
    assert res["violations"] == []
    assert res["v_sample"] == sorted(res["v_sample"])
    assert len(set(res["v_sample"])) == 20
    assert all(0 <= v < 280 for v in res["v_sample"])
    assert all(c == (35, 6) for c in calls) and len(calls) == 200
    assert [row["u"] for row in res["pairs"][:10]] == list(range(10))
    assert all(row["witness"] is None for row in res["pairs"])
    assert all(
        row["lower_bound"] == 7 and row["upper_witness_weight"] == 9 for row in res["pairs"]
    )

    # same seed redraws the same sample; a light witness flips the verdict
    r2 = steane_by_fivequbit(seed=5)
    assert r2.results["v_sample"] == res["v_sample"]

    monkeypatch.setattr(
        "homprod.experiments.gf4_distance_upper_bound",
        lambda p, bound: np.array([1, 0, 2, 0, 3], dtype=np.uint8),
    )
    r3 = steane_by_fivequbit(seed=5)
    assert not r3.passed and r3.results["witnesses_found"] == 200
    first = r3.results["pairs"][0]
    assert first["witness_weight"] == 3 and first["witness"] == "10w0W"
    assert first["lower_bound"] is None
    assert len(r3.results["violations"]) == 200


def _steane_square_weights(encs) -> list[int]:
    """Stabilizer weights of the products that `steane_squared` forms for these U."""
    basis, us = steane_check_basis(), dict(_invertible_3x3())
    d_v = boundary_from_checks(basis, BitMatrix.identity(3))
    products = (product(boundary_from_checks(basis, us[enc]), d_v).partial for enc in encs)
    return [stabilizer_weight_of(p.matrix) for p in products]


def test_steane_squared_names_pairs_over_the_weight_bound(monkeypatch):
    monkeypatch.setitem(MANIFEST["steane-squared"]["expect"], "weight_bound", 7)
    r = steane_squared()
    assert not r.passed and r.results["max_stabilizer_weight"] == 8
    d_of = {row["u"]: row["d"] for row in r.results["per_u"]}
    violations = r.results["violations"]
    weights = _steane_square_weights(v["u"] for v in violations)
    assert violations and set(weights) == {8}
    for v, w in zip(violations, weights):
        assert (v["n"], v["k"], v["w"], v["d"]) == (49, 1, w, d_of[v["u"]])


def test_steane_squared_names_pairs_off_the_distance_claim(monkeypatch):
    monkeypatch.setitem(MANIFEST["steane-squared"]["expect"], "d_asymmetric", 8)
    r = steane_squared()
    assert not r.passed
    asymmetric = [row["u"] for row in r.results["per_u"] if not row["symmetric"]]
    assert [v["u"] for v in r.results["violations"]] == asymmetric
    assert len(asymmetric) == 140
    weights = _steane_square_weights(asymmetric)
    for v, w in zip(r.results["violations"], weights):
        assert (v["n"], v["k"], v["w"], v["d"]) == (49, 1, w, 9)


def test_fivequbit_squared_names_pairs_off_the_distance_claim(monkeypatch):
    monkeypatch.setitem(MANIFEST["fivequbit-squared"]["expect"], "d", 4)
    r = fivequbit_squared()
    assert not r.passed
    violations = r.results["violations"]
    assert [(v["u"], v["v"]) for v in violations] == [(i, j) for i in range(10) for j in range(10)]
    us = enumerate_selfadjoint_invertible(2)
    basis = five_qubit_check_basis()
    for v in violations[::11]:
        p = gf4_product(gf4_boundary_from_checks(basis, us[v["u"]]),
                        gf4_boundary_from_checks(basis, us[v["v"]]))
        w = stabilizer_weight_of(p.matrix)
        assert (v["n"], v["k"], v["w"], v["d"]) == (25, 1, w, 5)


# sha256 of json.dumps(deterministic_view(), sort_keys=True).  A change that alters
# a recorded view must update its constant and say why in CHANGES.md.
PINNED_VIEWS = {
    "steane-squared": "e716177de6784b5bef1e0e6a9f7688761a16d2e7f95cf9f52cb390cdb1c3448d",
    "fivequbit-squared": "accd533156202ce11e8ff3ee5b3e6674dfc7af1d25f5f28794415a42bdec197c",
    "steane-by-fivequbit cap 20 seed 4":
        "05a9ad17add4c02d040e6be63b4a747701b531bc5c6dc508377d75454989a216",
}


def test_reproduce_views_are_pinned(monkeypatch):
    def digest(report):
        view = json.dumps(report.deterministic_view(), sort_keys=True)
        return hashlib.sha256(view.encode()).hexdigest()

    monkeypatch.setattr("homprod.experiments._MIXED_PAIR_CAP", 20)
    got = {
        "steane-squared": digest(steane_squared()),
        "fivequbit-squared": digest(fivequbit_squared()),
        "steane-by-fivequbit cap 20 seed 4": digest(steane_by_fivequbit(seed=4)),
    }
    assert got == PINNED_VIEWS


def test_default_seed_is_stable():
    assert DEFAULT_SEED == 1105
