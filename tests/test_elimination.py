"""The shared elimination kernel against textbook elimination on Python lists.

`BitMatrix.rref` (GF(2)) and the GF(4) row space, rank and kernel all run
through one integer-row kernel.  The oracle here reduces lists of field
elements column by column with explicit tables: arithmetic mod 2 for GF(2)
and the hand-written GF(4) tables of `test_gf4`.  Column counts straddle
the 64-bit word boundaries of the packed layout.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod.gf2 import BitMatrix, row_space_basis
from homprod.gf4 import Gf4Matrix, gf4_kernel, gf4_rank, gf4_row_space
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
    assert gf4_row_space(m).tolist() == expected[: len(pivots)]
    assert gf4_rank(m) == len(pivots)
    kernel = gf4_kernel(m)
    assert kernel.dtype == np.uint8 and kernel.shape == (cols - len(pivots), cols)
    assert kernel.tolist() == naive_null_basis(expected, pivots, cols)
    assert np.array_equal(m.codes, codes)


@settings(max_examples=100, deadline=None)
@given(matrices(2))
def test_fields_agree_on_zero_one_matrices(drawn):
    # 0/1 matrices reduce alike over GF(2) and GF(4): one kernel serves both
    cols, rows = drawn
    dense = as_array(rows, cols)
    packed, codes = BitMatrix.from_dense(dense), Gf4Matrix(dense.copy())
    assert np.array_equal(row_space_basis(packed).matrix.to_dense(), gf4_row_space(codes))
    assert packed.rank() == gf4_rank(codes)
