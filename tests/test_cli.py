"""End-to-end command-line runs through main(), including file round trips."""

import json

import numpy as np
import pytest

from homprod.cli import main
from homprod.circuits import verify_encoder
from homprod.counting import count_rank_matrices, gamma_count
from homprod.css import CssCode, boundary_from_checks, code_from_complex, steane_check_basis
from homprod.distance import distance
from homprod.experiments import MANIFEST, ExperimentReport
from homprod.gf2 import BitMatrix
from homprod.gf4 import Gf4Matrix, five_qubit_check_basis, gf4_boundary_from_checks
from homprod.io import (
    parse_boundary,
    parse_circuit,
    parse_css,
    parse_gf4_matrix,
    serialize_css,
    serialize_gf4_matrix,
)
from homprod.product import product


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--json"])
    return rc, json.loads(out), err


def test_gen_random_writes_parseable_deterministic_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    rc, payload, _ = run_json(capsys, ["gen-random", "6", "2", "--seed", "3", "-o", str(a)])
    assert rc == 0 and payload["m"] == 6 and payload["h"] == 2 and payload["seed"] == 3
    d = parse_boundary(a.read_text())
    assert d.m == 6 and d.hom_dim == 2
    b = tmp_path / "b.txt"
    rc, _, _ = run(capsys, ["gen-random", "6", "2", "--seed", "3", "-o", str(b)])
    assert rc == 0 and a.read_text() == b.read_text()
    rc, out, _ = run(capsys, ["gen-random", "2", "2", "--seed", "1"])
    assert rc == 0 and "GF2 2 2" in out


def test_product_and_distance_round_trip(tmp_path, capsys):
    a, b, p = (tmp_path / n for n in ("a.txt", "b.txt", "p.txt"))
    run(capsys, ["gen-random", "4", "2", "--seed", "7", "-o", str(a)])
    run(capsys, ["gen-random", "3", "1", "--seed", "9", "-o", str(b)])
    rc, payload, _ = run_json(capsys, ["product", str(a), str(b), "-o", str(p)])
    assert rc == 0 and payload["n"] == 12 and payload["h"] == 2
    d = parse_boundary(p.read_text())
    assert d == product(parse_boundary(a.read_text()), parse_boundary(b.read_text())).partial

    rc, payload, _ = run_json(capsys, ["distance", str(p)])
    assert rc == 0
    direct = distance(d)
    assert payload["d_z"] == direct.d_z and payload["d_x"] == direct.d_x
    assert set(payload["witness_z"]) <= {"0", "1"} and len(payload["witness_z"]) == 12
    assert payload["cosets_scanned"] == direct.cosets_scanned


@pytest.mark.parametrize(
    "argv",
    [["distance", "d.txt"], ["gf4", "distance", "d.txt"], ["reproduce", "steane-css-params"]],
    ids=["distance", "gf4-distance", "reproduce"],
)
def test_threads_option_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_count_matches_library_and_validates_arity(capsys):
    rc, payload, _ = run_json(capsys, ["count", "rank", "3", "3", "3"])
    assert rc == 0 and payload["count"] == str(count_rank_matrices(3, 3, 3).value)
    assert payload["params"] == {"a": 3, "b": 3, "r": 3}
    rc, out, _ = run(capsys, ["count", "gamma", "4", "2", "3", "1"])
    assert rc == 0 and out.strip() == str(gamma_count(4, 2, 3, 1).value)
    rc, _, err = run(capsys, ["count", "rank", "3", "3"])
    assert rc == 2 and "takes 3 integers" in err
    rc, _, err = run(capsys, ["count", "extensions", "3", "2", "2", "2"])
    assert rc == 2 and err.startswith("error")


def test_encode_verifies_and_serializes(tmp_path, capsys):
    f, c = tmp_path / "op.txt", tmp_path / "circ.txt"
    run(capsys, ["gen-random", "5", "1", "--seed", "2", "-o", str(f)])
    rc, payload, _ = run_json(capsys, ["encode", str(f), "--verify", "-o", str(c)])
    assert rc == 0 and payload["verified"] is True
    circuit = parse_circuit(c.read_text())
    assert circuit.n_qubits == payload["qubits"]
    assert verify_encoder(circuit, parse_boundary(f.read_text()))


def test_reduce_lowers_weight_and_reports_params(tmp_path, capsys):
    rows_z = np.zeros((1, 12), dtype=np.uint8)
    rows_z[0, :8] = 1
    code = CssCode(n=12, a_z=BitMatrix.from_dense(rows_z), a_x=BitMatrix.zeros(0, 12), k=11, w=8)
    src, dst = tmp_path / "code.txt", tmp_path / "red.txt"
    src.write_text(serialize_css(code))
    rc, payload, _ = run_json(capsys, ["reduce", str(src), "--target", "4", "-o", str(dst)])
    assert rc == 0
    assert payload["before"]["w"] == 8 and payload["after"]["w"] <= 4
    assert payload["reached"] is True and payload["steps"] == 3
    assert set(payload["before"]) == {"n", "k", "w", "d_z", "d_x"}
    reduced = parse_css(dst.read_text())
    assert reduced.k == code.k and reduced.w <= 4


def test_reduce_honors_max_steps_on_a_dense_code(tmp_path, capsys):
    d = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    code = code_from_complex(product(d, d).partial)
    src = tmp_path / "code.txt"
    src.write_text(serialize_css(code))
    rc, payload, _ = run_json(
        capsys, ["reduce", str(src), "--target", "6", "--max-steps", "10"]
    )
    assert rc == 0
    assert payload["reached"] is False and payload["steps"] == 10
    assert payload["after"]["n"] == code.n + 10
    assert payload["after"]["k"] == code.k


def test_gf4_subcommands(tmp_path, capsys):
    fq = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    src, prod = tmp_path / "fq.txt", tmp_path / "sq.txt"
    src.write_text(serialize_gf4_matrix(fq.delta))

    rc, payload, _ = run_json(capsys, ["gf4", "product", str(src), str(src), "-o", str(prod)])
    assert rc == 0 and payload["n"] == 25 and payload["h"] == 1
    assert parse_gf4_matrix(prod.read_text()).rows == 25

    rc, payload, _ = run_json(capsys, ["gf4", "distance", str(src)])
    assert rc == 0 and payload["d"] == 3 and len(payload["witness"]) == 5

    rc, payload, _ = run_json(capsys, ["gf4", "bound", str(src), "2"])
    assert rc == 0 and payload["found"] is False and payload["witness"] is None
    rc, payload, _ = run_json(capsys, ["gf4", "bound", str(src), "3"])
    assert rc == 0 and payload["found"] is True and payload["weight"] == 3

    rc, payload, _ = run_json(capsys, ["gf4", "enumerate", "2"])
    assert rc == 0 and payload["count"] == 10 and len(payload["matrices"]) == 10
    assert all(len(rows) == 2 and len(rows[0]) == 2 for rows in payload["matrices"])


def test_reproduce_exit_code_tracks_verdict(capsys, monkeypatch):
    rc, payload, _ = run_json(capsys, ["reproduce", "steane-css-params"])
    assert rc == 0 and payload["pass"] is True and payload["name"] == "steane-css-params"

    failed = ExperimentReport(
        name="steane-css-params", params={}, results={}, passed=False,
        seed=None, wall_time=0.0,
    )
    monkeypatch.setattr("homprod.cli.steane_css_params", lambda: failed)
    rc, out, _ = run(capsys, ["reproduce", "steane-css-params"])
    assert rc == 1 and "FAIL" in out and "violated claim" in out


def test_reproduce_mixed_names_the_pairs_that_break_the_claim(capsys, monkeypatch):
    monkeypatch.setattr("homprod.experiments._MIXED_PAIR_CAP", 20)
    monkeypatch.setattr("homprod.experiments.gf4_distance_upper_bound", lambda p, bound: None)
    rc, out, _ = run(capsys, ["reproduce", "steane-by-fivequbit", "--seed", "3"])
    assert rc == 0 and "PASS" in out

    light = np.zeros(35, dtype=np.uint8)
    light[:3] = 1
    monkeypatch.setattr("homprod.experiments.gf4_distance_upper_bound", lambda p, bound: light)
    rc, out, _ = run(capsys, ["reproduce", "steane-by-fivequbit", "--seed", "3"])
    assert rc == 1 and "FAIL" in out and "violated claim" in out
    assert "20 of 20 pairs break it" in out
    assert "u=0 v=" in out and "witness_weight=3" in out


def test_reproduce_steane_squared_names_the_pairs_that_break_the_claim(capsys, monkeypatch):
    monkeypatch.setitem(MANIFEST["steane-squared"]["expect"], "d_asymmetric", 8)
    rc, out, _ = run(capsys, ["reproduce", "steane-squared"])
    assert rc == 1 and "FAIL" in out and "violated claim" in out
    assert "140 of 168 pairs break it" in out
    lines = [line for line in out.splitlines() if line.startswith("  u=")]
    assert len(lines) == 140
    assert all("symmetric=False d=9 n=49 k=1 w=" in line for line in lines)


def test_reproduce_fivequbit_squared_names_the_pairs_that_break_the_claim(capsys, monkeypatch):
    monkeypatch.setitem(MANIFEST["fivequbit-squared"]["expect"], "d", 4)
    rc, out, _ = run(capsys, ["reproduce", "fivequbit-squared"])
    assert rc == 1 and "FAIL" in out and "violated claim" in out
    assert "100 of 100 pairs break it" in out
    lines = [line for line in out.splitlines() if line.startswith("  u=")]
    assert len(lines) == 100 and lines[0].startswith("  u=0 v=0 d=5 n=25 k=1 w=")


def test_montecarlo_command(capsys):
    rc, payload, _ = run_json(
        capsys,
        ["montecarlo", "--m", "4", "--h", "2", "--m-prime", "3",
         "--c", "0.1", "--samples", "10", "--seed", "5"],
    )
    assert rc == 0 and payload["pass"] is True
    assert payload["params"] == {"m": 4, "h": 2, "m_prime": 3, "c": 0.1, "samples": 10}
    assert sum(payload["results"]["product_distance_histogram"].values()) == 10
    rc, _, err = run(capsys, ["montecarlo", "--m", "4", "--h", "1", "--m-prime", "3",
                              "--c", "0.1", "--samples", "10"])
    assert rc == 2 and "even" in err


def test_error_paths_exit_2(tmp_path, capsys):
    rc, _, err = run(capsys, ["distance", str(tmp_path / "missing.txt")])
    assert rc == 2 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("GF2 two three\n")
    rc, _, err = run(capsys, ["distance", str(bad)])
    assert rc == 2 and err.count("line 1") == 1
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("GF2 2 2\n10\n1\n")
    rc, _, err = run(capsys, ["product", str(ragged), str(ragged)])
    assert rc == 2 and err.count("line 3") == 1


def test_gen_random_rejects_bad_parity(capsys):
    rc, _, err = run(capsys, ["gen-random", "5", "2"])
    assert rc == 2 and err.startswith("error")
