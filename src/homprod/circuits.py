"""Encoding circuits for factor and product codes, verified by tableau propagation.

A code whose checks come from a square boundary operator can be encoded by
initializing single qubits in |0> or |+> and applying a CNOT circuit that
realizes a canonical-form witness U as a linear map on Z-type Pauli vectors.
For a two-factor product the witness factorizes, so the circuit is the
second factor's circuit on every row of an M1 x M2 grid followed by the
first factor's circuit on every column.  ``verify_encoder`` is the arbiter
for every orientation convention in this module: it propagates the initial
stabilizer generators through the gate list and demands that the resulting
spans equal the code's check spaces exactly.  The tableau keeps each qubit's
X and Z columns as Python ints over the generators, so a CNOT is two integer
XORs, as in CHP (Aaronson and Gottesman, PRA 70, 052328, 2004).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryOperator, canonical_witness
from .errors import DimensionError, ParameterError, PreconditionError
from .gf2 import BitMatrix, row_space_basis, rref_row_space
from .product import ProductComplex

VALID_TAGS = ("data", "zero", "plus", "epr_a", "epr_b")


@dataclass(frozen=True)
class QubitInit:
    """Initialization tag for one qubit; EPR tags carry the partner index."""

    tag: str
    partner: int | None = None

    def __post_init__(self):
        if self.tag not in VALID_TAGS:
            raise ParameterError(f"unknown init tag {self.tag!r}")
        needs_partner = self.tag in ("epr_a", "epr_b")
        if needs_partner != (self.partner is not None):
            raise ParameterError("partner is required exactly for EPR tags")


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ParameterError("control and target must differ")


def check_partner(init: tuple[QubitInit, ...], q: int) -> None:
    """Raise ParameterError unless qubit q's EPR partner, if it has one, is
    another qubit of `init` whose tag pairs with q's and names q back."""
    tag, p = init[q].tag, init[q].partner
    if p is None:
        return
    if not 0 <= p < len(init) or p == q:
        raise ParameterError(f"qubit {q}: partner {p} out of range")
    expected = "epr_b" if tag == "epr_a" else "epr_a"
    if init[p].tag != expected or init[p].partner != q:
        raise ParameterError(f"qubit {q}: EPR partner mismatch")


def check_gate(n: int, gate: Cnot) -> None:
    """Raise DimensionError unless both qubits of `gate` lie in a circuit of n qubits."""
    if not (0 <= gate.control < n and 0 <= gate.target < n):
        raise DimensionError(
            f"gate CNOT {gate.control} {gate.target} touches a qubit outside 0..{n - 1}"
        )


@dataclass(frozen=True)
class EncodingCircuit:
    """Grid of initialized qubits followed by an ordered CNOT list."""

    n_qubits: int
    init: tuple[QubitInit, ...]
    gates: tuple[Cnot, ...]

    def __post_init__(self):
        if len(self.init) != self.n_qubits:
            raise DimensionError("need exactly one init tag per qubit")
        for q in range(self.n_qubits):
            check_partner(self.init, q)
        for g in self.gates:
            check_gate(self.n_qubits, g)

    def tag_counts(self) -> dict[str, int]:
        counts = {tag: 0 for tag in VALID_TAGS}
        for tag in self.init:
            counts[tag.tag] += 1
        return counts


class PauliTableau:
    """Tracked stabilizer generators: row r has X support x_part[r], Z support z_part[r].

    Each qubit's X and Z columns are Python ints, bit r for row r, so a CNOT
    is two column XORs.  Each read of `x_part` or `z_part` builds a new matrix.
    """

    __slots__ = ("_rows", "_x", "_z")

    def __init__(self, x_part: BitMatrix, z_part: BitMatrix):
        if x_part.rows != z_part.rows or x_part.cols != z_part.cols:
            raise DimensionError("X and Z parts must have identical shape")
        self._rows = x_part.rows
        self._x = _columns(x_part)
        self._z = _columns(z_part)

    @classmethod
    def _of_columns(cls, rows: int, x: list[int], z: list[int]) -> "PauliTableau":
        tableau = cls.__new__(cls)
        tableau._rows, tableau._x, tableau._z = rows, x, z
        return tableau

    @property
    def n_rows(self) -> int:
        return self._rows

    @property
    def n_qubits(self) -> int:
        return len(self._x)

    @property
    def x_part(self) -> BitMatrix:
        return _matrix(self._x, self._rows)

    @property
    def z_part(self) -> BitMatrix:
        return _matrix(self._z, self._rows)

    def apply_cnot(self, control: int, target: int) -> None:
        """Conjugate every row: X on the control spreads to the target, Z on the target to the control."""
        self._x[target] ^= self._x[control]
        self._z[control] ^= self._z[target]

    def apply_circuit(self, gates) -> None:
        x, z = self._x, self._z
        for g in gates:
            x[g.target] ^= x[g.control]
            z[g.control] ^= z[g.target]


def _columns(mat: BitMatrix) -> list[int]:
    """The columns of mat as ints, bit r holding row r."""
    packed = np.packbits(mat.codes.T, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed]


def _matrix(columns: list[int], rows: int) -> BitMatrix:
    """The rows x len(columns) matrix whose column q is the int columns[q]."""
    width = (rows + 7) // 8
    raw = b"".join(c.to_bytes(width, "little") for c in columns)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(columns), width)
    bits = np.unpackbits(packed, axis=1, count=rows, bitorder="little")
    return BitMatrix(bits.T)


def initial_tableau(circuit: EncodingCircuit) -> PauliTableau:
    """Stabilizers of the initialized state: Z on zeros, X on pluses, XX and ZZ on EPR pairs.

    Rows follow the qubits: one per zero or plus, XX then ZZ at each epr_a.
    """
    n = circuit.n_qubits
    x = [0] * n
    z = [0] * n
    rows = 0
    for q, tag in enumerate(circuit.init):
        bit = 1 << rows
        if tag.tag == "zero":
            z[q] |= bit
            rows += 1
        elif tag.tag == "plus":
            x[q] |= bit
            rows += 1
        elif tag.tag == "epr_a":
            x[q] |= bit
            x[tag.partner] |= bit
            z[q] |= bit << 1
            z[tag.partner] |= bit << 1
            rows += 2
    return PauliTableau._of_columns(rows, x, z)


def decompose_invertible(u: BitMatrix) -> list[tuple[int, int]]:
    """Factor an invertible matrix into row additions.

    Each op (src, dst) means "add row src to row dst"; multiplying the
    corresponding elementary matrices in list order reproduces u exactly.
    Zero pivots are repaired by adding a lower row instead of swapping, so
    at most M ops are spent per column and the list length is below M^2 + M.
    """
    if u.rows != u.cols:
        raise PreconditionError("only square matrices can be factored")
    m = u.rows
    work = u.to_dense()
    ops: list[tuple[int, int]] = []

    def add_row(src: int, dst: int) -> None:
        work[dst, :] ^= work[src, :]
        ops.append((src, dst))

    for c in range(m):
        if work[c, c] == 0:
            pivot = next((r for r in range(c + 1, m) if work[r, c]), None)
            if pivot is None:
                raise PreconditionError("matrix is singular")
            add_row(pivot, c)
        for r in range(m):
            if r != c and work[r, c]:
                add_row(c, r)
    return ops


def gates_for_linear_map(ops) -> tuple[Cnot, ...]:
    """The CNOT list acting on Z-type Pauli vectors as the composed row additions.

    A CNOT copies Z from target to control, so op (src, dst) becomes
    CNOT(control=dst, target=src); the factorization is emitted in reverse
    because the left-most factor must act last.
    """
    return tuple(Cnot(dst, src) for (src, dst) in reversed(ops))


def factor_encoder(d: BoundaryOperator) -> EncodingCircuit:
    """Canonical |0>/|+> init followed by the CNOT realization of a witness."""
    m, h = d.m, d.hom_dim
    l = (m - h) // 2
    gates = gates_for_linear_map(decompose_invertible(canonical_witness(d)))
    init = (
        [QubitInit("data")] * h + [QubitInit("zero")] * l + [QubitInit("plus")] * l
    )
    return EncodingCircuit(m, tuple(init), gates)


def _block(index: int, h: int, l: int) -> str:
    if index < h:
        return "h"
    if index < h + l:
        return "z"
    return "p"


def product_encoder(p: ProductComplex) -> EncodingCircuit:
    """Grid init for the canonical product code, then row circuits, then column circuits.

    Qubit (i, j) sits at row-major index i * M2 + j.  Classifying each grid
    coordinate against the canonical blocks of its factor gives the tag:
    both coordinates free of checks means a data qubit, a Z-check position
    in either factor (and no X position) means |0>, the X-check analogue
    means |+>, and the mixed Z/X corner pairs up into EPR states.
    """
    d1, d2 = p.factor1, p.factor2
    m1, h1 = d1.m, d1.hom_dim
    m2, h2 = d2.m, d2.hom_dim
    l1, l2 = (m1 - h1) // 2, (m2 - h2) // 2

    init: list[QubitInit] = []
    for i in range(m1):
        b1 = _block(i, h1, l1)
        for j in range(m2):
            b2 = _block(j, h2, l2)
            if b1 == "h" and b2 == "h":
                init.append(QubitInit("data"))
            elif "p" not in (b1, b2):
                init.append(QubitInit("zero"))
            elif "z" not in (b1, b2):
                init.append(QubitInit("plus"))
            elif (b1, b2) == ("z", "p"):
                init.append(QubitInit("epr_a", (i + l1) * m2 + (j - l2)))
            else:
                init.append(QubitInit("epr_b", (i - l1) * m2 + (j + l2)))

    row_gates = gates_for_linear_map(decompose_invertible(canonical_witness(d2)))
    col_gates = gates_for_linear_map(decompose_invertible(canonical_witness(d1)))
    gates: list[Cnot] = []
    for i in range(m1):
        base = i * m2
        gates.extend(Cnot(base + g.control, base + g.target) for g in row_gates)
    for j in range(m2):
        gates.extend(Cnot(g.control * m2 + j, g.target * m2 + j) for g in col_gates)
    return EncodingCircuit(m1 * m2, tuple(init), tuple(gates))


def verify_encoder(circuit: EncodingCircuit, target) -> bool:
    """True iff the propagated stabilizers span exactly the target's check spaces.

    The target is a boundary operator or a product complex.  The initial
    generators are conjugated through the gate list; acceptance requires the
    Z rows to span the image of the operator and the X rows the image of its
    transpose, which is its row space, compared in canonical echelon form.
    """
    op = target.partial if isinstance(target, ProductComplex) else target
    if circuit.n_qubits != op.m:
        raise DimensionError(
            f"circuit has {circuit.n_qubits} qubits but the code needs {op.m}"
        )
    tableau = initial_tableau(circuit)
    tableau.apply_circuit(circuit.gates)
    z_ok = row_space_basis(tableau.z_part) == rref_row_space(*op.adjoint_reduction)
    x_ok = row_space_basis(tableau.x_part) == rref_row_space(*op.reduction)
    return z_ok and x_ok
