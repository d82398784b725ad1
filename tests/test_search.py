"""The distance search's enumeration tables and rounds against an itertools reference, for both fields."""

import functools
import itertools
import math

import numpy as np
import pytest

from homprod import search


@functools.cache
def reference_order(k: int, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators and scalar indices of each column of table s, in table order.

    Every s-subset of the k generators with every choice of m scalars for
    all but the highest, which takes scalar index 0 (the scalar 1).  Columns
    are ordered by lowest generator descending, then by its scalar, then by
    the order of the rest, which is table s - 1's.
    """
    subsets = np.array(list(itertools.combinations(range(k), s)), dtype=np.intp).reshape(-1, s)
    lower = np.array(list(itertools.product(range(m), repeat=s - 1)), dtype=np.intp)
    lower = lower.reshape(len(lower), s - 1)
    gens = np.repeat(subsets, len(lower), axis=0)
    scalars = np.zeros_like(gens)
    scalars[:, :-1] = np.tile(lower, (len(subsets), 1))
    keys = [key for j in range(s) for key in (-gens[:, j], scalars[:, j])]
    order = np.lexsort(keys[::-1])
    return gens[order], scalars[order]


@pytest.mark.parametrize("narrow", [0, search._GATHER_WIDTH, 1 << 40])
@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("m, planes", [(1, 1), (3, 2)], ids=["GF(2)", "GF(4)"])
@pytest.mark.parametrize("k", [1, 2, 3, 13, 25])
def test_tables_match_an_itertools_reference(k, m, planes, rows, narrow, monkeypatch):
    # gens[i, c] stands for generator i times scalar c, packed: random words
    # for `rows` stacked sets, so any column built from the wrong generator
    # or scalar differs.  Every table up to _TABLE_BYTES is checked, with
    # the table blocks all XORed, split as the search splits them, or all
    # gathered
    monkeypatch.setattr("homprod.search._GATHER_WIDTH", narrow)
    size = rows * planes
    rng = np.random.default_rng([k, m, rows])
    gens = rng.integers(0, 1 << 64, size=(k, m, size), dtype=np.uint64)
    table = (np.ascontiguousarray(gens[::-1, 0].T), tuple(range(k, -1, -1)))
    s = 1
    while True:
        order, scalars = reference_order(k, m, s)
        assert np.array_equal(table[0], np.bitwise_xor.reduce(gens[order, scalars], axis=1).T), s
        assert list(table[1]) == [int(np.count_nonzero(order[:, 0] >= i)) for i in range(k + 1)], s
        if s == k or math.comb(k, s + 1) * m**s * 8 * size > search._TABLE_BYTES:
            break
        table = search._extend(gens, table)
        s += 1
    assert s >= min(k, 2)


@pytest.mark.parametrize("s, t", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)])
@pytest.mark.parametrize("m, planes", [(1, 1), (3, 2)], ids=["GF(2)", "GF(4)"])
def test_rounds_match_an_itertools_reference(s, t, m, planes, monkeypatch):
    # _TABLE_BYTES holds table s but not table s + 1, so round t runs heads of
    # t - s generators over table s; in whatever order and blocks, its columns
    # must be every t-combination whose highest coefficient is 1, once each
    k, size = 7, 2 * planes
    monkeypatch.setattr("homprod.search._TABLE_BYTES", math.comb(k, s) * m ** (s - 1) * 8 * size)
    rng = np.random.default_rng([k, m, s, t])
    gens = rng.integers(0, 1 << 64, size=(k, m, size), dtype=np.uint64)
    tables = [None, (np.ascontiguousarray(gens[::-1, 0].T), tuple(range(k, -1, -1)))]
    # each block is a view of a buffer that the next one overwrites
    got = np.concatenate([block.copy() for block in search._round(gens, t, tables)], axis=1)
    assert len(tables) == s + 1
    order, scalars = reference_order(k, m, t)
    want = np.bitwise_xor.reduce(gens[order, scalars], axis=1)
    assert sorted(c.tobytes() for c in got.T) == sorted(c.tobytes() for c in want)


@pytest.mark.parametrize("cap", [8, None], ids=["one sum per block", "default"])
@pytest.mark.parametrize("e, t", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
@pytest.mark.parametrize("m, planes", [(1, 1), (3, 2)], ids=["GF(2)", "GF(4)"])
def test_tie_rounds_match_an_itertools_reference(e, t, m, planes, cap, monkeypatch):
    # a tie round runs, from cached table t - e, every t-combination that
    # holds all e extras, generators 0 to e - 1, and whose highest
    # coefficient is 1, once each, in whatever order and blocks
    if cap is not None:
        monkeypatch.setattr("homprod.search._TABLE_BYTES", cap)
    k, size = 7, 2 * planes
    rng = np.random.default_rng([k, m, e, t])
    gens = rng.integers(0, 1 << 64, size=(k, m, size), dtype=np.uint64)
    table = (np.ascontiguousarray(gens[::-1, 0].T), tuple(range(k, -1, -1)))
    for _ in range(t - e - 1):
        table = search._extend(gens, table)
    vecs, starts = table
    blocks = list(search._tie_round(gens[:e], vecs[:, : starts[e]]))
    got = np.concatenate(blocks, axis=1)
    order, scalars = reference_order(k, m, t)
    holds = (order[:, :e] == np.arange(e)).all(axis=1)
    want = np.bitwise_xor.reduce(gens[order[holds], scalars[holds]], axis=1)
    assert len(got.T) == math.comb(k - e, t - e) * m ** (t - 1)
    assert sorted(c.tobytes() for c in got.T) == sorted(c.tobytes() for c in want)
    assert len(blocks) == (m**e if cap is not None else 1)
