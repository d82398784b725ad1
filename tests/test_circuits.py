"""Tests for encoding-circuit synthesis and tableau verification."""

from __future__ import annotations

import numpy as np
import pytest

from homprod.circuits import (
    Cnot,
    EncodingCircuit,
    PauliTableau,
    QubitInit,
    decompose_invertible,
    factor_encoder,
    gates_for_linear_map,
    initial_tableau,
    product_encoder,
    verify_encoder,
)
from homprod.complexes import BoundaryOperator, canonical_boundary, random_boundary
from homprod.css import steane_check_basis, boundary_from_checks
from homprod.errors import DimensionError, ParameterError, PreconditionError
from homprod.gf2 import BitMatrix, random_invertible
from homprod.product import product


def steane_operator() -> BoundaryOperator:
    basis = steane_check_basis()
    u = BitMatrix.identity(3)
    return boundary_from_checks(basis, u)


def dense_rref(rows: list[np.ndarray]) -> list[tuple]:
    """Row-reduce dense 0/1 vectors; returns the sorted nonzero rows as tuples."""
    work = [r.astype(np.uint8).copy() for r in rows]
    pivots: list[tuple[int, np.ndarray]] = []
    for vec in work:
        for col, prow in pivots:
            if vec[col]:
                vec ^= prow
        nz = np.flatnonzero(vec)
        if nz.size:
            pivots.append((int(nz[0]), vec))
    for i in range(len(pivots)):
        col, vec = pivots[i]
        for j in range(len(pivots)):
            if i != j and pivots[j][1][col]:
                pivots[j][1][:] ^= vec
    return sorted(tuple(int(b) for b in vec) for _, vec in pivots)


def naive_propagate(circuit: EncodingCircuit) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Independent per-bit propagation of the initial stabilizers."""
    n = circuit.n_qubits
    gens: list[tuple[np.ndarray, np.ndarray]] = []
    for q, tag in enumerate(circuit.init):
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        if tag.tag == "zero":
            z[q] = 1
            gens.append((x, z))
        elif tag.tag == "plus":
            x[q] = 1
            gens.append((x, z))
        elif tag.tag == "epr_a":
            xx = np.zeros(n, dtype=np.uint8)
            xx[q] = xx[tag.partner] = 1
            gens.append((xx, np.zeros(n, dtype=np.uint8)))
            zz = np.zeros(n, dtype=np.uint8)
            zz[q] = zz[tag.partner] = 1
            gens.append((np.zeros(n, dtype=np.uint8), zz))
    for g in circuit.gates:
        for x, z in gens:
            if x[g.control]:
                x[g.target] ^= 1
            if z[g.target]:
                z[g.control] ^= 1
    return [x for x, _ in gens], [z for _, z in gens]


def elementary(m: int, src: int, dst: int) -> BitMatrix:
    mat = BitMatrix.identity(m)
    mat.set(dst, src, 1)
    return mat


def test_decompose_identity_is_empty():
    assert decompose_invertible(BitMatrix.identity(5)) == []


def test_decompose_single_elementary_has_length_one():
    u = elementary(4, 2, 0)
    ops = decompose_invertible(u)
    assert ops == [(2, 0)]


def test_decompose_recompose_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 17))
        u = random_invertible(m, rng)
        ops = decompose_invertible(u)
        assert len(ops) <= m * m + m
        recomposed = BitMatrix.identity(m)
        for src, dst in ops:
            recomposed = recomposed @ elementary(m, src, dst)
        assert recomposed == u
        assert all(src != dst for src, dst in ops)


def test_decompose_singular_raises():
    mat = BitMatrix.zeros(3, 3)
    mat.set(0, 0, 1)
    mat.set(1, 1, 1)
    with pytest.raises(PreconditionError):
        decompose_invertible(mat)
    with pytest.raises(PreconditionError):
        decompose_invertible(BitMatrix.zeros(2, 3))


def test_cnot_action_on_tableau():
    # X on the control spreads to the target; Z on the target spreads back.
    x = BitMatrix.zeros(2, 3)
    z = BitMatrix.zeros(2, 3)
    x.set(0, 0, 1)
    z.set(1, 1, 1)
    tab = PauliTableau(x, z)
    tab.apply_cnot(0, 1)
    assert tab.x_part.to_dense().tolist() == [[1, 1, 0], [0, 0, 0]]
    assert tab.z_part.to_dense().tolist() == [[0, 0, 0], [1, 1, 0]]
    # Swap the parts and reverse the gate: the X on the control cancels the
    # target's X, and the Z on the target cancels the control's Z.
    tab2 = PauliTableau(tab.z_part, tab.x_part)
    tab2.apply_cnot(1, 0)
    assert tab2.x_part.to_dense().tolist() == [[0, 0, 0], [0, 1, 0]]
    assert tab2.z_part.to_dense().tolist() == [[1, 0, 0], [0, 0, 0]]


def random_circuit(rng: np.random.Generator, n: int, n_gates: int) -> EncodingCircuit:
    """n qubits tagged data, zero, plus or EPR pair at random, then random CNOTs."""
    tags = []
    q = 0
    while q < n:
        kind = rng.integers(0, 4)
        if kind == 3 and q + 1 < n:
            tags.append(QubitInit("epr_a", q + 1))
            tags.append(QubitInit("epr_b", q))
            q += 2
        else:
            tags.append(QubitInit(("data", "zero", "plus")[kind % 3]))
            q += 1
    gates = []
    for _ in range(n_gates):
        c, t = rng.choice(n, size=2, replace=False)
        gates.append(Cnot(int(c), int(t)))
    return EncodingCircuit(n, tuple(tags), tuple(gates))


def test_tableau_matches_naive_propagation():
    # From 63 qubits up, columns and rows cross 64-bit word boundaries.
    rng = np.random.default_rng(5)
    sizes = [int(rng.integers(3, 12)) for _ in range(10)] + [63, 64, 65, 100, 129, 140]
    most_rows = 0
    for n in sizes:
        circuit = random_circuit(rng, n, 30 if n < 12 else 4 * n)
        tab = initial_tableau(circuit)
        rows_before = tab.n_rows
        tab.apply_circuit(circuit.gates)
        assert tab.n_rows == rows_before
        assert tab.n_qubits == n
        x_ref, z_ref = naive_propagate(circuit)
        assert tab.x_part.to_dense().tolist() == [r.tolist() for r in x_ref]
        assert tab.z_part.to_dense().tolist() == [r.tolist() for r in z_ref]
        most_rows = max(most_rows, tab.n_rows)
    assert most_rows > 64


def test_tableau_neither_mutates_nor_aliases_its_inputs():
    rng = np.random.default_rng(31)
    x = BitMatrix.random(70, 67, rng)
    z = BitMatrix.random(70, 67, rng)
    x0, z0 = x.copy(), z.copy()
    tab = PauliTableau(x, z)
    assert (tab.n_rows, tab.n_qubits) == (70, 67)
    # Writing to an input leaves the tableau alone.
    x.set(0, 0, 1 - x.get(0, 0))
    z.set(69, 66, 1 - z.get(69, 66))
    assert tab.x_part == x0 and tab.z_part == z0
    # Propagating leaves the inputs alone.
    x1, z1 = x.copy(), z.copy()
    tab.apply_cnot(0, 66)
    tab.apply_circuit([Cnot(65, 1), Cnot(2, 64)])
    assert x == x1 and z == z1
    # Each read is a fresh matrix, and writing to it leaves the tableau alone.
    for read in (lambda: tab.x_part, lambda: tab.z_part):
        part = read()
        assert part is not read() and part == read()
        part.set(0, 0, 1 - part.get(0, 0))
        assert part != read()


def test_gates_for_linear_map_realizes_the_product():
    # Propagating Z generators through the gates must multiply by the factors
    # in list order, i.e. the circuit realizes exactly the composed map.
    rng = np.random.default_rng(23)
    m = 6
    u = random_invertible(m, rng)
    ops = decompose_invertible(u)
    gates = gates_for_linear_map(ops)
    # Track single-qubit Z generators on every qubit: rows of z_part start as
    # the identity, and each row ends as the image of its unit vector.
    tab = PauliTableau(BitMatrix.zeros(m, m), BitMatrix.identity(m))
    tab.apply_circuit(gates)
    # Column j of the realized map is the propagated Z vector that started
    # as the unit on qubit j; rows of z_part hold those images transposed.
    realized = tab.z_part.transpose()
    assert realized == u


def test_factor_encoder_on_canonical_operator_has_no_gates():
    d = canonical_boundary(2, 3)
    circuit = factor_encoder(d)
    assert circuit.gates == ()
    counts = circuit.tag_counts()
    assert counts["data"] == 2 and counts["zero"] == 3 and counts["plus"] == 3
    assert verify_encoder(circuit, d)


def test_factor_encoder_on_zero_operator():
    d = BoundaryOperator(BitMatrix.zeros(3, 3))
    circuit = factor_encoder(d)
    assert circuit.gates == ()
    assert circuit.tag_counts()["data"] == 3
    assert verify_encoder(circuit, d)


def test_factor_encoder_steane_spans_check_spaces():
    d = steane_operator()
    circuit = factor_encoder(d)
    assert verify_encoder(circuit, d)
    # Independent oracle: dense propagation, span comparison by echelon form.
    x_rows, z_rows = naive_propagate(circuit)
    assert dense_rref(z_rows) == dense_rref(list(d.matrix.transpose().to_dense()))
    assert dense_rref(x_rows) == dense_rref(list(d.matrix.to_dense()))


def test_factor_encoder_random_operators_verify():
    rng = np.random.default_rng(7)
    for _ in range(12):
        m = int(rng.integers(2, 11))
        h = int(rng.choice(range(m % 2, m + 1, 2)))
        d = random_boundary(m, h, rng)
        assert verify_encoder(factor_encoder(d), d)


def test_product_encoder_trivial_product():
    p = product(canonical_boundary(1, 0), canonical_boundary(1, 0))
    circuit = product_encoder(p)
    assert circuit.n_qubits == 1
    assert circuit.gates == ()
    assert circuit.tag_counts()["data"] == 1
    assert verify_encoder(circuit, p)


def test_product_encoder_steane_squared():
    d = steane_operator()
    p = product(d, d)
    circuit = product_encoder(p)
    assert circuit.n_qubits == 49
    counts = circuit.tag_counts()
    assert counts["data"] == 1
    assert counts["epr_a"] == counts["epr_b"] == 9
    assert sum(v for k, v in counts.items() if k != "data") == 48
    assert len(circuit.gates) <= 2 * 7 * (49 + 7)
    assert verify_encoder(circuit, p)


def test_product_encoder_random_products_verify():
    rng = np.random.default_rng(19)
    for _ in range(6):
        m1 = int(rng.integers(2, 7))
        h1 = int(rng.choice(range(m1 % 2, m1 + 1, 2)))
        m2 = int(rng.integers(2, 7))
        h2 = int(rng.choice(range(m2 % 2, m2 + 1, 2)))
        d1 = random_boundary(m1, h1, rng)
        d2 = random_boundary(m2, h2, rng)
        p = product(d1, d2)
        circuit = product_encoder(p)
        assert circuit.tag_counts()["data"] == h1 * h2
        bound = m1 * (m2 * m2 + m2) + m2 * (m1 * m1 + m1)
        assert len(circuit.gates) <= bound
        assert verify_encoder(circuit, p)


def spans_match_oracle(circuit: EncodingCircuit, d: BoundaryOperator) -> bool:
    """Dense independent re-implementation of the verification predicate."""
    x_rows, z_rows = naive_propagate(circuit)
    z_ok = dense_rref(z_rows) == dense_rref(list(d.matrix.transpose().to_dense()))
    x_ok = dense_rref(x_rows) == dense_rref(list(d.matrix.to_dense()))
    return z_ok and x_ok


def test_verify_agrees_with_oracle_on_every_single_gate_mutation():
    # A mutation can happen to produce an equivalent encoder; the verifier
    # must accept exactly those and reject every span-corrupting one.
    d = steane_operator()
    circuit = factor_encoder(d)
    assert len(circuit.gates) > 0
    rejected = 0
    for idx in range(len(circuit.gates)):
        g = circuit.gates[idx]
        deleted = circuit.gates[:idx] + circuit.gates[idx + 1 :]
        swapped = (
            circuit.gates[:idx] + (Cnot(g.target, g.control),) + circuit.gates[idx + 1 :]
        )
        for gates in (deleted, swapped):
            mutated = EncodingCircuit(circuit.n_qubits, circuit.init, gates)
            got = verify_encoder(mutated, d)
            assert got == spans_match_oracle(mutated, d)
            rejected += not got
    # The sweep must actually exercise the rejecting branch.
    assert rejected >= 20


def test_product_encoder_past_one_word_verifies_and_rejects_a_corrupted_gate():
    # n = 144 qubits and 140 generators: every column and row spans three words.
    rng = np.random.default_rng(12)
    p = product(random_boundary(12, 2, rng), random_boundary(12, 2, rng))
    circuit = product_encoder(p)
    assert circuit.n_qubits == 144
    assert verify_encoder(circuit, p)
    assert spans_match_oracle(circuit, p.partial)
    mutated = EncodingCircuit(circuit.n_qubits, circuit.init, circuit.gates[:-1])
    assert not spans_match_oracle(mutated, p.partial)
    assert not verify_encoder(mutated, p)


def test_verify_rejects_wrong_code():
    d = steane_operator()
    other = canonical_boundary(1, 3)
    assert not verify_encoder(factor_encoder(d), other)


def test_verify_dimension_mismatch_raises():
    d = steane_operator()
    circuit = factor_encoder(d)
    with pytest.raises(DimensionError):
        verify_encoder(circuit, canonical_boundary(1, 1))


def test_epr_partner_validation():
    with pytest.raises(ParameterError):
        EncodingCircuit(
            2, (QubitInit("epr_a", 1), QubitInit("zero")), ()
        )
    with pytest.raises(ParameterError):
        QubitInit("zero", partner=1)
    with pytest.raises(ParameterError):
        QubitInit("epr_a")
    with pytest.raises(ParameterError):
        Cnot(1, 1)


def test_circuit_init_length_validation():
    with pytest.raises(DimensionError):
        EncodingCircuit(3, (QubitInit("data"),), ())
    with pytest.raises(DimensionError):
        EncodingCircuit(1, (QubitInit("data"),), (Cnot(0, 5),))
