"""The distance search's enumeration tables against an itertools reference, for both fields."""

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
