"""Text formats for matrices, boundary operators, codes, and circuits.

All formats are line-oriented ASCII.  Blank lines and `#` comments are
ignored everywhere; serializers emit one canonical layout so that
parse(serialize(x)) == x bit-exactly.  Parse failures raise FormatError
carrying the 1-based line number of the offending line.

    GF2 <rows> <cols>       dense GF(2) matrix, rows of 0/1 characters
    # boundary H=<h>        comment emitted before a boundary operator
    CSS n=<n>               followed by the X block then the Z block
    GF4 <rows> <cols>       rows over the alphabet 0, 1, w, W
    QUBITS <n>              circuit: INIT lines, then CNOT lines
"""

from __future__ import annotations

import numpy as np

from .circuits import Cnot, EncodingCircuit, QubitInit, check_gate, check_partner
from .complexes import BoundaryOperator
from .css import CssCode, stabilizer_weight_of
from .errors import DimensionError, FormatError, ParameterError
from .gf2 import BitMatrix
from .gf4 import SYMBOLS, Gf4Matrix


class _Cursor:
    """Significant-line walker that remembers physical line numbers."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def _significant(self, raw: str) -> bool:
        s = raw.strip()
        return bool(s) and not s.startswith("#")

    def next(self, expect: str) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1]
            if self._significant(raw):
                return self.pos, raw.strip()
        raise FormatError(f"expected {expect}, found end of input", line=len(self.lines) + 1)

    def comments(self) -> list[tuple[int, str]]:
        out = []
        for no, raw in enumerate(self.lines, start=1):
            s = raw.strip()
            if s.startswith("#"):
                out.append((no, s))
        return out

    def expect_end(self) -> None:
        pos = self.pos
        while pos < len(self.lines):
            pos += 1
            if self._significant(self.lines[pos - 1]):
                raise FormatError("unexpected content after end of data", line=pos)


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {token!r}", line=line) from None
    if value < 0:
        raise FormatError(f"{what} must be nonnegative, got {value}", line=line)
    return value


def _parse_header(cur: _Cursor, keyword: str) -> tuple[int, int]:
    no, text = cur.next(f"{keyword} header")
    parts = text.split()
    if len(parts) != 3 or parts[0] != keyword:
        raise FormatError(f"malformed header: expected '{keyword} <rows> <cols>'", line=no)
    return _parse_int(parts[1], "row count", no), _parse_int(parts[2], "column count", no)


def _parse_rows(cur: _Cursor, rows: int, cols: int, alphabet: str) -> list[str]:
    if cols == 0:
        return [""] * rows
    out = []
    for _ in range(rows):
        no, text = cur.next("matrix row")
        if len(text) != cols:
            raise FormatError(f"row has {len(text)} entries, expected {cols}", line=no)
        bad = set(text) - set(alphabet)
        if bad:
            raise FormatError(
                f"row contains {sorted(bad)!r}, allowed characters are {alphabet!r}", line=no
            )
        out.append(text)
    return out


# Matrix blocks, keyed by header keyword and alphabet; code c prints as alphabet[c].
_GF2 = ("GF2", "01")
_GF4 = ("GF4", SYMBOLS)


def _serialize_block(field: tuple[str, str], codes: np.ndarray) -> str:
    keyword, alphabet = field
    body = "".join("".join(alphabet[c] for c in row) + "\n" for row in codes)
    return f"{keyword} {codes.shape[0]} {codes.shape[1]}\n{body}"


def _parse_block(cur: _Cursor, field: tuple[str, str]) -> np.ndarray:
    keyword, alphabet = field
    rows, cols = _parse_header(cur, keyword)
    lines = _parse_rows(cur, rows, cols, alphabet)
    lookup = np.zeros(256, dtype=np.uint8)
    lookup[list(alphabet.encode())] = range(len(alphabet))
    return lookup[np.frombuffer("".join(lines).encode(), dtype=np.uint8)].reshape(rows, cols)


def serialize_matrix(m: BitMatrix) -> str:
    return _serialize_block(_GF2, m.codes)


def _matrix_block(cur: _Cursor) -> BitMatrix:
    return BitMatrix(_parse_block(cur, _GF2))


def parse_matrix(text: str) -> BitMatrix:
    cur = _Cursor(text)
    m = _matrix_block(cur)
    cur.expect_end()
    return m


def serialize_boundary(d: BoundaryOperator) -> str:
    return f"# boundary H={d.hom_dim}\n" + serialize_matrix(d.matrix)


def parse_boundary(text: str) -> BoundaryOperator:
    cur = _Cursor(text)
    d = BoundaryOperator(_matrix_block(cur))
    cur.expect_end()
    for no, comment in cur.comments():
        tag = comment[1:].strip()
        if tag.startswith("boundary H="):
            declared = _parse_int(tag.removeprefix("boundary H="), "declared H", no)
            if declared != d.hom_dim:
                raise FormatError(
                    f"declared H={declared} but the operator has H={d.hom_dim}", line=no
                )
    return d


def serialize_css(c: CssCode) -> str:
    return f"CSS n={c.n}\n" + serialize_matrix(c.a_x) + serialize_matrix(c.a_z)


def parse_css(text: str) -> CssCode:
    cur = _Cursor(text)
    no, header = cur.next("CSS header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "CSS" or not parts[1].startswith("n="):
        raise FormatError("malformed header: expected 'CSS n=<n>'", line=no)
    n = _parse_int(parts[1][2:], "qubit count", no)
    a_x = _matrix_block(cur)
    a_z = _matrix_block(cur)
    cur.expect_end()
    if a_x.cols != n or a_z.cols != n:
        raise FormatError(
            f"check blocks have {a_x.cols} and {a_z.cols} columns, expected n={n}", line=no
        )
    k = n - a_x.rank() - a_z.rank()
    w = max(stabilizer_weight_of(a_x), stabilizer_weight_of(a_z))
    return CssCode(n=n, a_z=a_z, a_x=a_x, k=k, w=w)


def serialize_gf4_matrix(m: Gf4Matrix) -> str:
    return _serialize_block(_GF4, m.codes)


def parse_gf4_matrix(text: str) -> Gf4Matrix:
    cur = _Cursor(text)
    codes = _parse_block(cur, _GF4)
    cur.expect_end()
    return Gf4Matrix.from_codes(codes)


def serialize_circuit(c: EncodingCircuit) -> str:
    lines = [f"QUBITS {c.n_qubits}"]
    for q, tag in enumerate(c.init):
        if tag.partner is None:
            lines.append(f"INIT {q} {tag.tag}")
        else:
            lines.append(f"INIT {q} {tag.tag} {tag.partner}")
    for g in c.gates:
        lines.append(f"CNOT {g.control} {g.target}")
    return "\n".join(lines) + "\n"


def _at(line: int, build, *args):
    """`build(*args)`, with a ParameterError or DimensionError it raises
    re-raised as a FormatError at `line`."""
    try:
        return build(*args)
    except (ParameterError, DimensionError) as exc:
        raise FormatError(str(exc), line=line) from None


def parse_circuit(text: str) -> EncodingCircuit:
    cur = _Cursor(text)
    no, header = cur.next("QUBITS header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "QUBITS":
        raise FormatError("malformed header: expected 'QUBITS <n>'", line=no)
    n = _parse_int(parts[1], "qubit count", no)

    init: dict[int, QubitInit] = {}
    lines: dict[int, int] = {}
    gates: list[Cnot] = []
    while True:
        try:
            no, line = cur.next("INIT or CNOT line")
        except FormatError:
            break
        parts = line.split()
        if parts[0] == "INIT":
            if gates:
                raise FormatError("INIT lines must precede all CNOT lines", line=no)
            if len(parts) not in (3, 4):
                raise FormatError("expected 'INIT <q> <tag> [partner]'", line=no)
            q = _parse_int(parts[1], "qubit index", no)
            partner = _parse_int(parts[3], "partner index", no) if len(parts) == 4 else None
            if not 0 <= q < n:
                raise FormatError(f"qubit index {q} outside 0..{n - 1}", line=no)
            if q in init:
                raise FormatError(f"duplicate INIT for qubit {q}", line=no)
            init[q], lines[q] = _at(no, QubitInit, parts[2], partner), no
        elif parts[0] == "CNOT":
            if len(parts) != 3:
                raise FormatError("expected 'CNOT <control> <target>'", line=no)
            c = _parse_int(parts[1], "control index", no)
            t = _parse_int(parts[2], "target index", no)
            gates.append(_at(no, Cnot, c, t))
            _at(no, check_gate, n, gates[-1])
        else:
            raise FormatError(f"expected INIT or CNOT, got {parts[0]!r}", line=no)

    missing = [q for q in range(n) if q not in init]
    if missing:
        raise FormatError(f"missing INIT for qubits {missing}", line=len(cur.lines) + 1)
    inits = tuple(init[q] for q in range(n))
    for q in range(n):
        _at(lines[q], check_partner, inits, q)
    return EncodingCircuit(n_qubits=n, init=inits, gates=tuple(gates))
