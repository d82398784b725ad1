"""Round trips and parse-error line numbers for the text formats."""

import numpy as np
import pytest

from homprod.circuits import factor_encoder, product_encoder, verify_encoder
from homprod.complexes import BoundaryOperator, canonical_boundary, random_boundary
from homprod.css import CssCode, code_from_complex, steane_check_basis, boundary_from_checks
from homprod.errors import FormatError
from homprod.gf2 import BitMatrix
from homprod.gf4 import Gf4Matrix, five_qubit_check_basis, gf4_boundary_from_checks
from homprod.io import (
    parse_boundary,
    parse_circuit,
    parse_css,
    parse_gf4_matrix,
    parse_matrix,
    serialize_boundary,
    serialize_circuit,
    serialize_css,
    serialize_gf4_matrix,
    serialize_matrix,
)
from homprod.product import product


def steane_boundary():
    return boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))


# -- GF(2) matrices -----------------------------------------------------------


def test_matrix_round_trip_random():
    rng = np.random.default_rng(20)
    for rows, cols in [(1, 1), (3, 7), (7, 3), (5, 5), (0, 4), (4, 0), (0, 0)]:
        m = BitMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
        assert parse_matrix(serialize_matrix(m)) == m


def test_matrix_format_is_readable():
    m = BitMatrix.from_dense(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    assert serialize_matrix(m) == "GF2 2 2\n10\n01\n"


def test_matrix_parser_skips_comments_and_blanks():
    text = "# a comment\n\nGF2 1 2\n# another\n01\n\n"
    assert parse_matrix(text).to_dense().tolist() == [[0, 1]]


def test_matrix_header_errors_name_line_one():
    with pytest.raises(FormatError) as e:
        parse_matrix("GF3 2 2\n00\n00\n")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_matrix("GF2 two 2\n")
    assert e.value.line == 1


def test_matrix_row_errors_cite_the_row():
    with pytest.raises(FormatError) as e:
        parse_matrix("GF2 2 3\n010\n01\n")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_matrix("GF2 2 3\n010\n012\n")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_matrix("GF2 2 3\n010\n")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_matrix("GF2 1 3\n010\n111\n")
    assert e.value.line == 3


# -- boundary operators ---------------------------------------------------------


def test_boundary_round_trip_and_comment():
    rng = np.random.default_rng(21)
    d = random_boundary(8, 2, rng)
    text = serialize_boundary(d)
    assert text.startswith("# boundary H=2\n")
    assert parse_boundary(text) == d


def test_boundary_round_trip_canonical():
    for h, l in [(1, 1), (2, 0), (0, 3), (3, 2)]:
        d = canonical_boundary(h, l)
        assert parse_boundary(serialize_boundary(d)) == d


def test_boundary_comment_mismatch_is_an_error():
    d = canonical_boundary(1, 1)
    text = serialize_boundary(d).replace("H=1", "H=2")
    with pytest.raises(FormatError) as e:
        parse_boundary(text)
    assert e.value.line == 1


def test_boundary_accepts_plain_matrix_file():
    d = canonical_boundary(2, 1)
    assert parse_boundary(serialize_matrix(d.matrix)) == d


# -- CSS codes -------------------------------------------------------------------


def test_css_round_trip_parameters():
    c = code_from_complex(steane_boundary())
    text = serialize_css(c)
    assert text.startswith("CSS n=7\n")
    back = parse_css(text)
    assert back.params() == c.params()
    assert back.a_x == c.a_x and back.a_z == c.a_z


def test_css_round_trip_product_code():
    d = steane_boundary()
    c = code_from_complex(product(d, d).partial)
    back = parse_css(serialize_css(c))
    assert back.params() == c.params()


def test_css_weight_covers_both_blocks():
    # asymmetric profile: heavy Z block, empty X block
    rows_z = np.zeros((1, 6), dtype=np.uint8)
    rows_z[0, :5] = 1
    c = CssCode(n=6, a_z=BitMatrix.from_dense(rows_z), a_x=BitMatrix.zeros(0, 6), k=5, w=5)
    back = parse_css(serialize_css(c))
    assert back.w == 5 and back.k == 5
    flipped = CssCode(n=6, a_z=BitMatrix.zeros(0, 6), a_x=BitMatrix.from_dense(rows_z), k=5, w=5)
    assert parse_css(serialize_css(flipped)).w == 5


def test_css_header_and_shape_errors():
    with pytest.raises(FormatError) as e:
        parse_css("CSSn=7\n")
    assert e.value.line == 1
    c = code_from_complex(steane_boundary())
    bad = serialize_css(c).replace("CSS n=7", "CSS n=8")
    with pytest.raises(FormatError):
        parse_css(bad)


# -- GF(4) matrices -----------------------------------------------------------------


def test_gf4_round_trip_all_symbols():
    rng = np.random.default_rng(22)
    for rows, cols in [(1, 4), (4, 1), (3, 5), (2, 2)]:
        m = Gf4Matrix.from_codes(rng.integers(0, 4, size=(rows, cols), dtype=np.uint8))
        assert parse_gf4_matrix(serialize_gf4_matrix(m)) == m
    m = Gf4Matrix.from_symbol_rows(["01wW"])
    assert serialize_gf4_matrix(m) == "GF4 1 4\n01wW\n"
    assert parse_gf4_matrix(serialize_gf4_matrix(m)) == m


def test_gf4_boundary_matrix_round_trip():
    d = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    assert parse_gf4_matrix(serialize_gf4_matrix(d.delta)) == d.delta


def test_gf4_parse_errors():
    with pytest.raises(FormatError) as e:
        parse_gf4_matrix("GF2 1 2\n01\n")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_gf4_matrix("GF4 1 2\n0x\n")
    assert e.value.line == 2


# -- circuits -------------------------------------------------------------------------


def test_circuit_round_trip_factor_encoder():
    circ = factor_encoder(steane_boundary())
    back = parse_circuit(serialize_circuit(circ))
    assert back == circ
    assert verify_encoder(back, steane_boundary())


def test_circuit_round_trip_product_encoder():
    d = steane_boundary()
    p = product(d, d)
    circ = product_encoder(p)
    assert parse_circuit(serialize_circuit(circ)) == circ


def test_circuit_text_shape():
    circ = factor_encoder(canonical_boundary(1, 1))
    text = serialize_circuit(circ)
    lines = text.splitlines()
    assert lines[0] == "QUBITS 3"
    assert sum(l.startswith("INIT ") for l in lines) == 3
    assert all(l.startswith(("QUBITS", "INIT", "CNOT")) for l in lines)


def test_circuit_parse_errors_cite_lines():
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS\n")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 data\nINIT 1 nonsense\n")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 data\nINIT 1 zero\nCNOT 0 2\n")
    assert e.value.line == 4
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 data\nINIT 1 zero\nCNOT 0 0\n")
    assert e.value.line == 4
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 epr_a\nINIT 1 zero\n")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 data\nINIT 0 zero\n")
    assert e.value.line == 3
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 epr_a 5\nINIT 1 zero\n")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 epr_a 1\nINIT 1 zero\n")
    assert e.value.line == 2
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 3\nINIT 0 data\nINIT 1 zero\nINIT 2 epr_a 1\n")
    assert e.value.line == 4
    with pytest.raises(FormatError):
        parse_circuit("QUBITS 2\nINIT 0 data\n")


def test_circuit_gates_before_init_rejected():
    with pytest.raises(FormatError) as e:
        parse_circuit("QUBITS 2\nINIT 0 data\nCNOT 0 1\nINIT 1 zero\n")
    assert e.value.line == 4


def test_unexpected_trailing_content():
    m = BitMatrix.from_dense(np.array([[1]], dtype=np.uint8))
    with pytest.raises(FormatError) as e:
        parse_matrix(serialize_matrix(m) + "extra\n")
    assert e.value.line == 3
