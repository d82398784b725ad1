"""Tests of the benchmark itself: its output contract and that its checks can fail.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from homprod.complexes import random_boundary  # noqa: E402
from homprod.gf2 import BitMatrix, image_basis, in_span  # noqa: E402
from homprod.gf4 import gf4_product  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_named_metric_with_its_unit(trace, key):
    out = _run("--workload", "random36-small", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC[key]] == list(result["metrics"])
    printed = {line.split()[0]: line.split()[2] for line in lines[:-2]}
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if trace == "0":
        assert printed["fail_frac"] == "fraction"
    stamp = json.loads(lines[-2].removeprefix("stamp "))
    for field in ("commit", "nproc", "python", "numpy", "threads", "seed", "samples"):
        assert field in stamp
    assert stamp["threads"] == 1
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def _first_record(w, seed=5):
    w.build(seed)
    rec = w.verify(0, Tracer(False))
    assert w.check(rec) == []
    return rec


def test_wrong_gf2_distance_or_witness_is_rejected():
    w = workloads.Css49Exact()
    rec = _first_record(w)
    r = rec["r"]
    r.d_z, r.d_x = r.d_z + 2, r.d_x + 2
    assert w.check(rec)
    r.d_z, r.d_x = r.d_z - 2, r.d_x - 2
    r.witness_z = r.witness_z ^ np.uint64(1)
    assert any("witness" in e for e in w.check(rec))
    # A stabilizer is a cycle, but a trivial one, so it must be rejected too.
    r.witness_z = image_basis(rec["op"].matrix).vectors[0]
    assert any("image" in e for e in w.check(rec))


def test_wrong_gf4_distance_or_witness_is_rejected():
    w = workloads.Gf4Exact()
    rec = _first_record(w)
    r = rec["r"]
    r.d = 4
    assert w.check(rec)
    r.d = 5
    r.witness = r.witness.copy()
    r.witness[np.flatnonzero(r.witness)[0]] ^= 1
    assert any("witness" in e for e in w.check(rec))


def test_mixed_witness_is_rejected():
    w = workloads.Mixed35Bound()
    w.build(1)
    d1, d2 = w.inputs[0]
    p = gf4_product(d1, d2)
    assert w.check({"op": p, "witness": None}) == []
    assert w.check({"op": p, "witness": np.zeros(p.m, dtype=np.uint8)})


def test_sabotaged_distance_makes_fail_frac_positive(monkeypatch):
    original = workloads.Gf4Exact.verify

    def wrong(self, i, tracer):
        rec = original(self, i, tracer)
        rec["r"].d += 1
        return rec

    monkeypatch.setattr(workloads.Gf4Exact, "verify", wrong)
    w = workloads.Gf4Exact()
    w.build(2)
    metrics, runs, _, _ = run.end_to_end(w, 0.5, 0.1)
    assert metrics["fail_frac"] == 1.0
    assert all(errors for _, errors, _ in runs)


def test_raising_code_counts_as_failed(monkeypatch):
    def boom(self, i, tracer):
        raise RuntimeError("engine failure")

    monkeypatch.setattr(workloads.Random36Small, "verify", boom)
    w = workloads.Random36Small()
    w.build(1)
    metrics, _, _, _ = run.end_to_end(w, 0.1, 0.1)
    assert metrics["fail_frac"] == 1.0


def test_oracle_matches_naive_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = random_boundary(8, 2, rng)
        im = image_basis(d.matrix)
        dense = d.matrix.to_dense()
        best = None
        for bits in itertools.product((0, 1), repeat=d.m):
            v = np.array(bits, dtype=np.uint8)
            if not v.any() or ((dense @ v) % 2).any():
                continue
            if in_span(BitMatrix.from_dense(v.reshape(1, -1)).data[0], im):
                continue
            best = int(v.sum()) if best is None else min(best, int(v.sum()))
        assert workloads.oracle_min_nontrivial(d) == best


def test_self_time_subtracts_children():
    t = Tracer(True)
    t.spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None, "code": 0},
        {"id": 1, "name": "a", "start": 1.0, "end": 5.0, "parent": 0, "code": 0},
        {"id": 2, "name": "b", "start": 2.0, "end": 3.0, "parent": 1, "code": 0},
        {"id": 3, "name": "a", "start": 6.0, "end": 7.0, "parent": 0, "code": 0},
    ]
    assert t.self_times() == {"root": (5.0, 1), "a": (4.0, 2), "b": (1.0, 1)}
    assert t.root_time() == 10.0


def test_tail_has_ten_samples_beyond_or_falls_back_to_median():
    p, v, beyond = run.tail([float(x) for x in range(1, 101)])
    assert p == 90 and beyond == 10
    p, v, beyond = run.tail([float(x) for x in range(1, 16)])
    assert p == 50 and v == 8.0


def test_run_without_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "gf4-exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
