"""Core GF(2) linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod import BitMatrix, DimensionError
from homprod.complexes import BoundaryOperator, random_boundary
from homprod.gf2 import (
    extend_basis,
    image_basis,
    in_span,
    inverse,
    kernel_basis,
    random_invertible,
    row_space_basis,
    solve,
    vector_from_bits,
    vector_from_support,
    vector_to_bits,
    vector_weight,
)
from homprod.product import product


def dense(m: BitMatrix) -> np.ndarray:
    return m.to_dense()


def test_pack_round_trip():
    rng = np.random.default_rng(7)
    for rows, cols in [(1, 1), (3, 64), (5, 65), (4, 130), (2, 200)]:
        d = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        m = BitMatrix.from_dense(d)
        assert m.data.shape == (rows, max(1, (cols + 63) // 64))
        assert np.array_equal(m.to_dense(), d)


def test_arrays_passed_in_or_handed_out_share_no_storage():
    # the canonical operator with blocks (0, 2, 2): rows 0 and 1 map onto columns 2 and 3
    dense = np.zeros((4, 4), dtype=np.uint8)
    dense[[0, 1], [2, 3]] = 1
    m = BitMatrix.from_dense(dense)
    d = BoundaryOperator(m)
    reduced, pivots = d.reduction
    kept = (m.copy(), reduced.copy(), list(pivots), d.rank)
    dense[:] = 1
    m.to_dense()[:] = 1
    m.data[:] = np.uint64(1)
    d.matrix.to_dense()[:] = 1
    reduced.to_dense()[:] = 1
    assert m == kept[0] and d.matrix == kept[0]
    assert d.reduction[0] == kept[1] and d.reduction[1] == kept[2] and d.rank == kept[3]
    assert d.hom_dim == 0


def test_get_set_and_weights():
    m = BitMatrix.zeros(3, 70)
    m.set(1, 69, 1)
    m.set(1, 0, 1)
    m.set(2, 69, 1)
    assert m.get(1, 69) == 1
    assert m.row_weight(1) == 2
    assert m.max_row_weight() == 2
    assert m.max_column_weight() == 2
    m.set(1, 69, 0)
    assert m.get(1, 69) == 0


def test_matmul_matches_dense():
    rng = np.random.default_rng(3)
    a = BitMatrix.random(6, 9, rng)
    b = BitMatrix.random(9, 5, rng)
    expect = (dense(a).astype(int) @ dense(b).astype(int)) % 2
    assert np.array_equal(dense(a @ b), expect)


def test_matmul_past_255_columns_matches_int64_product():
    # the uint8 sums of these products wrap; their parity must not change
    rng = np.random.default_rng(11)
    cases = [rng.integers(0, 2, size=(5, 300)), np.ones((1, 300), dtype=int)]
    cases += [np.ones((2, 257), dtype=int), rng.integers(0, 2, size=(3, 512))]
    for a in cases:
        b = rng.integers(0, 2, size=(a.shape[1], 4))
        for right in (b, a.T):
            got = BitMatrix.from_dense(a) @ BitMatrix.from_dense(right)
            assert np.array_equal(dense(got), (a.astype(np.int64) @ right) % 2)


def test_matmul_past_one_blas_thread_matches_int64_product():
    # the seeded n = 400 product of two M = 20 random boundaries: 400^3 is far
    # past the 64^3 that OpenBLAS keeps on one thread
    rng = np.random.default_rng([5, 20, 0])
    d = product(random_boundary(20, 2, rng), random_boundary(20, 2, rng)).partial.matrix
    assert d.rows == 400
    for right in (d, d.transpose()):
        assert np.array_equal(dense(d @ right), (dense(d).astype(np.int64) @ dense(right)) % 2)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        BitMatrix.zeros(2, 3) @ BitMatrix.zeros(4, 2)


def test_transpose_and_kron():
    rng = np.random.default_rng(5)
    a = BitMatrix.random(4, 70, rng)
    assert np.array_equal(dense(a.transpose()), dense(a).T)
    b = BitMatrix.random(3, 2, rng)
    assert np.array_equal(dense(a.kron(b)), np.kron(dense(a), dense(b)))


def test_rref_canonical_and_rank():
    m = BitMatrix.from_dense([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    reduced, pivots = m.rref()
    assert pivots == [0, 2]
    assert m.rank() == 2
    # rref leaves the original untouched
    assert dense(m)[1, 0] == 1
    assert np.array_equal(dense(reduced)[:2], [[1, 1, 0], [0, 0, 1]])


def test_kernel_image_dimensions():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = BitMatrix.random(7, 10, rng)
        k = kernel_basis(m)
        im = image_basis(m)
        r = m.rank()
        assert k.dim == 10 - r
        assert im.dim == r
        # every kernel vector annihilates
        md = dense(m)
        for v in k.vectors:
            bits = vector_to_bits(v, 10)
            assert not ((md @ bits) % 2).any()


def test_kernel_basis_is_canonical():
    # two row-equivalent matrices share the same kernel basis object
    a = BitMatrix.from_dense([[1, 0, 1, 1], [0, 1, 1, 0]])
    b = BitMatrix.from_dense([[1, 1, 0, 1], [0, 1, 1, 0]])
    assert kernel_basis(a) == kernel_basis(b)


def test_in_span_and_extend():
    m = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 1, 0]])
    basis = row_space_basis(m)
    assert in_span(vector_from_bits([1, 1, 0, 0]), basis)
    assert not in_span(vector_from_bits([0, 0, 0, 1]), basis)
    bigger = row_space_basis(BitMatrix.identity(4))
    extra = extend_basis(basis, bigger)
    assert len(extra) == 2


def test_solve_consistent_and_inconsistent():
    m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    b = vector_from_bits([1, 1, 0])
    x = solve(m, b)
    assert x is not None
    assert np.array_equal((dense(m) @ vector_to_bits(x, 3)) % 2, [1, 1, 0])
    assert solve(m, vector_from_bits([1, 1, 1])) is None


def test_inverse_round_trip():
    rng = np.random.default_rng(13)
    for n in [1, 2, 5, 12, 70]:
        u = random_invertible(n, rng)
        w = inverse(u)
        assert u @ w == BitMatrix.identity(n)
        assert w @ u == BitMatrix.identity(n)


def test_random_invertible_deterministic():
    a = random_invertible(9, np.random.default_rng(42))
    b = random_invertible(9, np.random.default_rng(42))
    assert a == b


def test_vector_helpers():
    v = vector_from_support(70, [0, 64, 69])
    assert vector_weight(v) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_rank_matches_kernel_dimension(rows, cols, seed):
    m = BitMatrix.random(rows, cols, np.random.default_rng(seed))
    assert m.rank() + kernel_basis(m).dim == cols
    assert m.rank() == m.transpose().rank()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_image_vectors_are_reachable(n, seed):
    rng = np.random.default_rng(seed)
    m = BitMatrix.random(n, n, rng)
    im = image_basis(m)
    for v in im.vectors:
        assert solve(m, v) is not None
