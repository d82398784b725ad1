"""Witness regression: recomputed witnesses must equal the committed ones.

`tests/data/witnesses.json` holds the (weight, lex)-least witnesses of
three populations, written as symbol strings (`01` for GF(2), `01wW` for
GF(4)):

- both sectors of `distance` on all 168 Steane^2 products (U over every
  invertible 3x3 matrix, V = I), keyed by U's row-major bit encoding;
- `gf4_distance` on all 100 5-qubit^2 pairs (U, V), keyed by their indices
  in `enumerate_selfadjoint_invertible(2)`;
- `gf4_distance` on 12 fixed mixed 35-qubit products (5-qubit factor U by
  7-qubit factor V), keyed by their indices;
- both sectors of `distance` on 40 random 36-qubit products of two
  `random_boundary(6, 2)` factors and on each factor (H = 4 on the product,
  2 on a factor), keyed by the seed index i of `default_rng([11, i])`.

Any change to the search engine must leave every entry unchanged; the test
names the first entry that differs.  Regenerate the file (only when the
witness contract itself changes) with

    PYTHONPATH=src python tests/test_witnesses.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from homprod.complexes import random_boundary
from homprod.css import boundary_from_checks, steane_check_basis
from homprod.distance import distance
from homprod.gf2 import BitMatrix, vector_to_bits
from homprod.gf4 import (
    enumerate_selfadjoint_invertible,
    five_qubit_check_basis,
    gf4_boundary_from_checks,
    gf4_distance,
    gf4_product,
    steane_gf4_check_basis,
    vector_symbols,
)
from homprod.product import product

FIXTURE = Path(__file__).resolve().parent / "data" / "witnesses.json"
MIXED_PAIRS = [(i % 10, (37 * i) % 280) for i in range(12)]
RANDOM_CODES = 40


def bits(witness, m: int) -> str:
    return "".join(str(int(b)) for b in vector_to_bits(witness, m))


def invertible_3x3():
    """(encoding, matrix) for every invertible 3x3 GF(2) matrix, bit 3i+j = entry (i, j)."""
    for enc in range(512):
        dense = np.array([[(enc >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)])
        m = BitMatrix.from_dense(dense.astype(np.uint8))
        if m.rank() == 3:
            yield enc, m


def steane_squared():
    basis = steane_check_basis()
    d_v = boundary_from_checks(basis, BitMatrix.identity(3))
    for enc, u in invertible_3x3():
        p = product(boundary_from_checks(basis, u), d_v).partial
        r = distance(p)
        yield {"u": enc, "z": bits(r.witness_z, p.m), "x": bits(r.witness_x, p.m)}


def fivequbit_squared():
    basis = five_qubit_check_basis()
    factors = [gf4_boundary_from_checks(basis, u) for u in enumerate_selfadjoint_invertible(2)]
    for i, d1 in enumerate(factors):
        for j, d2 in enumerate(factors):
            yield {"u": i, "v": j, "witness": vector_symbols(gf4_distance(gf4_product(d1, d2)).witness)}


def mixed():
    u2s = enumerate_selfadjoint_invertible(2)
    u3s = enumerate_selfadjoint_invertible(3)
    for i, j in MIXED_PAIRS:
        d1 = gf4_boundary_from_checks(five_qubit_check_basis(), u2s[i])
        d2 = gf4_boundary_from_checks(steane_gf4_check_basis(), u3s[j])
        yield {"u": i, "v": j, "witness": vector_symbols(gf4_distance(gf4_product(d1, d2)).witness)}


def random36():
    for i in range(RANDOM_CODES):
        rng = np.random.default_rng([11, i])
        f1 = random_boundary(6, 2, rng)
        f2 = random_boundary(6, 2, rng)
        for name, op in (("product", product(f1, f2).partial), ("factor1", f1), ("factor2", f2)):
            r = distance(op)
            yield {"i": i, "op": name, "z": bits(r.witness_z, op.m), "x": bits(r.witness_x, op.m)}


POPULATIONS = {
    "steane_squared": steane_squared,
    "fivequbit_squared": fivequbit_squared,
    "mixed": mixed,
    "random36": random36,
}


@pytest.mark.parametrize("population", list(POPULATIONS))
def test_witnesses_match_the_committed_fixture(population):
    want = json.loads(FIXTURE.read_text())[population]
    got = list(POPULATIONS[population]())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"{population}: first differing entry, expected {w}, got {g}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: [json.dumps(e) for e in make()] for name, make in POPULATIONS.items()}
    body = ",\n".join(f'"{k}": [\n' + ",\n".join(v) + "\n]" for k, v in data.items())
    FIXTURE.write_text("{\n" + body + "\n}\n")
    print(f"wrote {FIXTURE}: " + ", ".join(f"{k} {len(v)}" for k, v in data.items()))
