"""Report mechanics, manifest consistency, and Monte-Carlo statistics.

The heavy sweep experiments run once in the acceptance suite; here the
orchestration around them is exercised with stubs and small instances.
"""

import itertools

import numpy as np
import pytest

from homprod import BudgetError, ParameterError
from homprod.complexes import BoundaryOperator, random_boundary
from homprod.distance import kernel_minimum
from homprod.experiments import (
    DEFAULT_SEED,
    MANIFEST,
    ExperimentReport,
    MonteCarloParams,
    _invertible_3x3,
    montecarlo,
    steane_by_fivequbit,
    steane_css_params,
)
from homprod.gf2 import BitMatrix


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


def test_default_seed_is_stable():
    assert DEFAULT_SEED == 1105
