"""The shared elimination kernel against textbook elimination on Python lists.

`BitMatrix.rref`, `Gf4Matrix.rref` and the GF(4) rank and kernel all run
through linalg's `rref_codes` and its one integer-row kernel; the GF(2)
span tests, basis extension and preimages use linalg's reduced-form helpers
on top of it.  The oracle here reduces lists of field elements column by
column with explicit tables: arithmetic mod 2 for GF(2) and the
hand-written GF(4) tables of `test_gf4`.  Column counts straddle the 64-bit
word boundaries of the packed vectors that `BitMatrix.data` returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod.errors import ParameterError
from homprod.gf2 import (
    Basis,
    BitMatrix,
    extend_basis,
    in_span,
    inverse,
    row_space_basis,
    solve,
    vector_from_bits,
    vector_to_bits,
)
from homprod.gf4 import Gf4Matrix, gf4_rank
from homprod.linalg import null_basis, rref_codes
from test_gf4 import ADD, MUL

GF2 = ([[0, 1], [1, 0]], [[0, 0], [0, 1]])
GF4 = (ADD.tolist(), MUL.tolist())
COLS = [0, 1, 2, 5, 63, 64, 65, 128, 129]


def naive_rref(rows: list[list[int]], cols: int, field) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination: leftmost pivot column, topmost row, pivots scaled to 1."""
    add, mul = field
    inv = {x: y for x in range(1, len(add)) for y in range(1, len(add)) if mul[x][y] == 1}
    m = [list(row) for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        s = inv[m[r][c]]
        m[r] = [mul[s][x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [add[x][mul[f][y]] for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def naive_null_basis(reduced: list[list[int]], pivots: list[int], cols: int) -> list[list[int]]:
    """One kernel vector per free column f: 1 at f and, at pivot i, row i's entry at f."""
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = reduced[i][f]
        basis.append(v)
    return basis


@st.composite
def matrices(draw, symbols: int):
    """(cols, rows): up to 9 rows, among them zero rows and repeated, rescaled rows."""
    cols = draw(st.sampled_from(COLS))
    lead = draw(st.integers(0, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.8]))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "repeat" and rows:
            s = draw(st.integers(1, symbols - 1))
            rows.append([MUL[s, x] for x in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            row = rng.integers(1, symbols, cols) * (rng.random(cols) < density)
            row[:lead] = 0
            rows.append(row.tolist())
    return cols, rows


def as_array(rows: list[list[int]], cols: int) -> np.ndarray:
    return np.array(rows, dtype=np.uint8).reshape(len(rows), cols)


@settings(max_examples=200, deadline=None)
@given(matrices(2))
def test_bitmatrix_rref_matches_naive_elimination(drawn):
    cols, rows = drawn
    m = BitMatrix.from_dense(as_array(rows, cols))
    before = m.data.copy()
    reduced, pivots = m.rref()
    expected, expected_pivots = naive_rref(rows, cols, GF2)
    assert pivots == expected_pivots
    assert (reduced.rows, reduced.cols) == (len(rows), cols)
    # equal words: the oracle's packed rows, with every pad bit zero
    assert np.array_equal(reduced.data, BitMatrix.from_dense(as_array(expected, cols)).data)
    assert reduced.data.dtype == np.uint64 and reduced.data.shape == before.shape
    assert reduced.data.flags.writeable
    assert not np.shares_memory(reduced.data, m.data)
    assert np.array_equal(m.data, before)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(matrices))
def test_gf4_row_space_rank_and_kernel_match_naive_elimination(drawn):
    cols, rows = drawn
    codes = as_array(rows, cols)
    m = Gf4Matrix(codes.copy())
    expected, pivots = naive_rref(rows, cols, GF4)
    reduced, got = rref_codes(m.codes)
    assert got == pivots and reduced[: len(got)].tolist() == expected[: len(pivots)]
    assert gf4_rank(m) == len(pivots)
    kernel = null_basis(reduced, got)
    assert kernel.dtype == np.uint8 and kernel.shape == (cols - len(pivots), cols)
    assert kernel.tolist() == naive_null_basis(expected, pivots, cols)
    assert np.array_equal(m.codes, codes)


def check_rref_codes(codes: np.ndarray, symbols: int) -> None:
    """rref_codes hands back a fresh writable uint8 array, leaves its input be,
    and matches the oracle."""
    before = codes.copy()
    reduced, pivots = rref_codes(codes)
    assert reduced.dtype == np.uint8 and reduced.shape == codes.shape
    assert reduced.flags.writeable
    assert not np.shares_memory(reduced, codes)
    assert np.array_equal(codes, before)
    expected, expected_pivots = naive_rref(codes.tolist(), codes.shape[1], GF2 if symbols == 2 else GF4)
    assert pivots == expected_pivots
    assert reduced.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda q: st.tuples(st.just(q), matrices(q))))
def test_rref_codes_contract(drawn):
    symbols, (cols, rows) = drawn
    check_rref_codes(as_array(rows, cols), symbols)


@pytest.mark.parametrize("symbols", [2, 4])
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (5, 0), (9, 7), (9, 8), (9, 9), (9, 16)])
def test_rref_codes_contract_at_byte_and_plane_boundaries(symbols, rows, cols):
    # 0/1 codes pack as one plane, others as two; 8 and 16 columns fill whole bytes
    codes = np.random.default_rng([21, symbols, cols]).integers(0, symbols, (rows, cols), dtype=np.uint8)
    if rows:
        codes[1], codes[2] = MUL[symbols - 1, codes[0]], 0
    check_rref_codes(codes, symbols)


@settings(max_examples=100, deadline=None)
@given(matrices(2))
def test_fields_agree_on_zero_one_matrices(drawn):
    # 0/1 matrices reduce alike over GF(2) and GF(4): one kernel serves both
    cols, rows = drawn
    dense = as_array(rows, cols)
    packed, codes = BitMatrix.from_dense(dense), Gf4Matrix(dense.copy())
    reduced, pivots = codes.rref()
    assert np.array_equal(row_space_basis(packed).matrix.to_dense(), reduced.codes[: len(pivots)])
    assert packed.rank() == gf4_rank(codes)


def naive_rank(rows: list[list[int]], cols: int) -> int:
    return len(naive_rref(rows, cols, GF2)[1])


def naive_solve(rows: list[list[int]], b: list[int], cols: int) -> list[int] | None:
    """The solution of rows x = b that is zero on every free column, or None."""
    reduced, pivots = naive_rref([row + [bit] for row, bit in zip(rows, b)], cols + 1, GF2)
    if cols in pivots:
        return None
    x = [0] * cols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][cols]
    return x


@st.composite
def gf2_spans(draw):
    """(cols, base, candidates, vector, square): candidates mix random rows, rows
    of the base's span and repeats; the square matrix may repeat a row."""
    cols = draw(st.sampled_from([1, 63, 64, 65, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.8]))

    def random_row(width=cols):
        return (rng.random(width) < density).astype(int).tolist()

    base = [random_row() for _ in range(draw(st.integers(0, 4)))]

    def in_base_span():
        picked = [row for row in base if rng.integers(2)]
        return [sum(col) % 2 for col in zip(*picked)] if picked else [0] * cols

    candidates: list[list[int]] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "span", "repeat"]))
        if kind == "repeat" and candidates:
            candidates.append(list(draw(st.sampled_from(candidates))))
        else:
            candidates.append(in_base_span() if kind == "span" else random_row())
    vector = in_base_span() if draw(st.booleans()) else random_row()
    n = draw(st.sampled_from([0, 1, 2, 5, 32, 33]))
    square = [random_row(n) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        square[-1] = list(square[0])
    return cols, base, candidates, vector, square


def bits(v: np.ndarray, n: int) -> list[int]:
    return vector_to_bits(v, n).tolist()


@settings(max_examples=200, deadline=None)
@given(gf2_spans())
def test_gf2_span_helpers_match_naive_elimination(drawn):
    cols, base_rows, candidates, vector, square = drawn
    base = row_space_basis(BitMatrix.from_dense(as_array(base_rows, cols)))
    reduced_base = base.matrix.to_dense().tolist()

    # extend_basis keeps what the greedy rank scan keeps, as rows of the candidates
    picked, stack = [], list(reduced_base)
    for c in candidates:
        if naive_rank(stack + [c], cols) > len(stack):
            picked.append(c)
            stack.append(c)
    extra = extend_basis(base, Basis(BitMatrix.from_dense(as_array(candidates, cols))))
    assert [bits(v, cols) for v in extra] == picked

    # in_span is a rank test
    expected = naive_rank(reduced_base + [vector], cols) == base.dim
    assert in_span(vector_from_bits(vector), base) == expected

    # solve on the stacked rows and on their transpose, consistent or not
    rows = base_rows + candidates
    mat = BitMatrix.from_dense(as_array(rows, cols))
    for a, b in ((mat, vector[: len(rows)]), (mat.transpose(), vector)):
        a_rows = a.to_dense().tolist()
        b = b + [0] * (a.rows - len(b))
        x = solve(a, vector_from_bits(b))
        want = naive_solve(a_rows, b, a.cols)
        assert (None if x is None else bits(x, a.cols)) == want

    # inverse is Gauss-Jordan on [A | I]; a singular A raises
    n = len(square)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots = naive_rref([r + e for r, e in zip(square, identity)], 2 * n, GF2)
    a = BitMatrix.from_dense(as_array(square, n))
    if pivots[:n] != list(range(n)):
        with pytest.raises(ParameterError):
            inverse(a)
    else:
        assert inverse(a).to_dense().tolist() == [row[n:] for row in reduced]


def many_rows(rng: np.random.Generator, symbols: int, rows: int, cols: int) -> list[list[int]]:
    """A rank-deficient matrix: combinations of a few random rows, some repeated
    and rescaled, some zero, over leading zero columns."""
    rank = int(rng.integers(1, 25))
    base = rng.integers(0, symbols, (rank, cols), dtype=np.uint8)
    base[:, : int(rng.integers(0, 10))] = 0
    coefficients = rng.integers(0, symbols, (rows, rank), dtype=np.uint8)
    m = np.bitwise_xor.reduce(MUL[coefficients[:, :, None], base[None]], axis=1)
    for i in rng.choice(rows, rows // 4, replace=False):
        m[i] = MUL[rng.integers(1, symbols), m[rng.integers(rows)]]
    m[rng.choice(rows, rows // 8, replace=False)] = 0
    return m.tolist()


@pytest.mark.parametrize("symbols", [2, 4])
def test_more_rows_than_a_word_match_naive_elimination(symbols):
    # the kernel's masks span every row of the matrix, so draw past 64 rows
    rng = np.random.default_rng([7, symbols])
    for rows, cols in ((65, 70), (100, 129), (130, 65), (128, 200)):
        drawn = many_rows(rng, symbols, rows, cols)
        expected, pivots = naive_rref(drawn, cols, GF2 if symbols == 2 else GF4)
        if symbols == 2:
            reduced, got = BitMatrix.from_dense(as_array(drawn, cols)).rref()
            assert got == pivots
            assert reduced.to_dense().tolist() == expected
        else:
            reduced, got = rref_codes(as_array(drawn, cols))
            assert reduced[: len(got)].tolist() == expected[: len(pivots)]
            assert null_basis(reduced, got).tolist() == naive_null_basis(expected, pivots, cols)
