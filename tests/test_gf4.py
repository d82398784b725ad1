"""GF(4) arithmetic, self-adjoint boundaries, products, and exact distance.

Oracles here are independent of the package's own tables: literal
field tables written out from the defining relations, dense table-driven
matrix algebra, GF(2)-rank doubling for GF(4) ranks, and full enumeration
of small kernels for distances.
"""

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod.css import boundary_from_checks, steane_check_basis
from homprod.distance import distance
from homprod.errors import (
    BudgetError,
    DimensionError,
    NoLogicalsError,
    ParameterError,
    PreconditionError,
    WitnessError,
)
from homprod.gf2 import BitMatrix, vector_to_bits
from homprod.gf4 import (
    OMEGA,
    OMEGA2,
    ONE,
    ZERO,
    Gf4Boundary,
    Gf4Element,
    Gf4Matrix,
    enumerate_selfadjoint_invertible,
    five_qubit_check_basis,
    gf4_boundary_from_checks,
    gf4_distance,
    gf4_distance_upper_bound,
    gf4_image,
    gf4_product,
    gf4_rank,
    gf4_vector,
    gf4_verify_witness,
    gf4_weight,
    is_self_orthogonal,
    steane_gf4_check_basis,
    vector_symbols,
)
from homprod.linalg import matmul_codes, null_basis, rref_codes
from homprod.product import product

# Codes: 0, 1, w, W with W = w^2.  Both tables follow from 1 + w + W = 0,
# x + x = 0, and w^3 = 1, written out by hand as the oracle.
ADD = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=np.uint8
)
MUL = np.array(
    [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.uint8
)
CONJ = np.array([MUL[x, x] for x in range(4)], dtype=np.uint8)


def naive_add(a, b):
    return ADD[a, b]


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = ADD[acc, MUL[a[i, k], b[k, j]]]
            out[i, j] = acc
    return out


def naive_adjoint(a):
    return CONJ[a.T]


def naive_inner(f, g):
    acc = 0
    for x, y in zip(f, g):
        acc = ADD[acc, MUL[CONJ[x], y]]
    return int(acc)


def doubled_gf2_rank(codes):
    """GF(4) rank via GF(2): span of {v, w v} doubles the dimension."""
    rows = []
    for r in codes:
        for s in (r, MUL[2, r]):
            rows.append(np.concatenate([s & 1, s >> 1]))
    if not rows:
        return 0
    return BitMatrix.from_dense(np.array(rows, dtype=np.uint8)).rank() // 2


def random_codes(rng, rows, cols):
    return rng.integers(0, 4, size=(rows, cols), dtype=np.uint8)


def singleton_boundary(symbols):
    return gf4_boundary_from_checks([gf4_vector(symbols)], Gf4Matrix.identity(1))


def naive_min_nontrivial(d):
    """Full enumeration of the kernel, minimum weight outside the image.

    Returns the minimum weight and, among the nontrivial cycles of that
    weight scaled to a leading 1, the lexicographically least code tuple.
    The image test is skipped only for vectors heavier than the best so far.
    """
    ker = null_basis(*rref_codes(d.delta.codes))
    im = gf4_image(d.delta)
    best = None
    for coeffs in itertools.product(range(4), repeat=ker.shape[0]):
        v = np.zeros(d.m, dtype=np.uint8)
        for c, row in zip(coeffs, ker):
            v = ADD[v, MUL[c, row]]
        if not v.any():
            continue
        w = gf4_weight(v)
        if best is not None and w > best[0]:
            continue
        if doubled_gf2_rank(np.vstack([im, v[None, :]])) == im.shape[0]:
            continue
        lead = v[np.flatnonzero(v)[0]]
        inverse = next(s for s in range(1, 4) if MUL[s, lead] == 1)
        cand = (w, tuple(MUL[inverse, v].tolist()))
        if best is None or cand < best:
            best = cand
    return best


def found(witness):
    return gf4_weight(witness), tuple(np.asarray(witness).tolist())


def random_gf4_boundary(rng, m, checks):
    """delta = A A* for random independent, mutually orthogonal check vectors."""
    basis = []
    while len(basis) < checks:
        v = random_codes(rng, 1, m)[0]
        trial = basis + [v]
        if is_self_orthogonal(trial) and doubled_gf2_rank(np.array(trial)) == len(trial):
            basis = trial
    return gf4_boundary_from_checks(basis, Gf4Matrix.identity(checks), ambient_dim=m)


# -- field laws ---------------------------------------------------------------


def test_field_tables_match_defining_relations():
    one, w, w2 = ONE, OMEGA, OMEGA2
    assert (one + w + w2) == ZERO
    for x in map(Gf4Element, range(4)):
        assert (x + x) == ZERO
    assert w * w * w == ONE
    assert w * w == w2


def test_all_sixteen_pairs_match_hand_tables():
    for a in range(4):
        for b in range(4):
            assert (Gf4Element(a) + Gf4Element(b)).value == ADD[a, b]
            assert (Gf4Element(a) * Gf4Element(b)).value == MUL[a, b]


def test_distributivity_over_all_triples():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                left = Gf4Element(a) * (Gf4Element(b) + Gf4Element(c))
                right = Gf4Element(a) * Gf4Element(b) + Gf4Element(a) * Gf4Element(c)
                assert left == right


def test_conjugation_is_an_order_two_automorphism():
    for a in range(4):
        x = Gf4Element(a)
        assert x.conjugate().conjugate() == x
        for b in range(4):
            y = Gf4Element(b)
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert ZERO.conjugate() == ZERO and ONE.conjugate() == ONE
    assert OMEGA.conjugate() == OMEGA2 and OMEGA2.conjugate() == OMEGA


def test_element_inverse_and_validation():
    assert ONE.inverse() == ONE
    assert OMEGA.inverse() == OMEGA2
    assert OMEGA2.inverse() == OMEGA
    with pytest.raises(ParameterError):
        ZERO.inverse()
    with pytest.raises(ParameterError):
        Gf4Element(4)


def test_vector_parsing_round_trip():
    v = gf4_vector("01wW")
    assert v.tolist() == [0, 1, 2, 3]
    assert vector_symbols(v) == "01wW"
    assert gf4_vector([OMEGA, ZERO]).tolist() == [2, 0]
    with pytest.raises(ParameterError):
        gf4_vector("01x")
    with pytest.raises(ParameterError):
        gf4_vector([0, 5])


# -- matrices -----------------------------------------------------------------


def test_matrix_codes_round_trip_and_access():
    rng = np.random.default_rng(1)
    codes = random_codes(rng, 5, 9)
    m = Gf4Matrix.from_codes(codes)
    assert np.array_equal(m.to_codes(), codes)
    assert m.get(2, 3).value == codes[2, 3]
    m.set(2, 3, OMEGA)
    assert m.get(2, 3) == OMEGA
    with pytest.raises(ParameterError):
        m.set(2, 3, 4)
    with pytest.raises(ParameterError):
        m.scale(4)


def test_matrix_addition_matches_table_oracle():
    rng = np.random.default_rng(2)
    a = random_codes(rng, 4, 6)
    b = random_codes(rng, 4, 6)
    got = (Gf4Matrix.from_codes(a) + Gf4Matrix.from_codes(b)).to_codes()
    assert np.array_equal(got, naive_add(a, b))


def test_matrix_product_matches_table_oracle():
    rng = np.random.default_rng(3)
    # inner dimensions of 256 and more make uint8 sums wrap; empty shapes too
    shapes = [(3, 4, 5), (1, 7, 2), (6, 1, 6), (4, 4, 4), (2, 256, 3), (3, 300, 2)]
    shapes += [(0, 3, 4), (3, 0, 4), (3, 4, 0)]
    for rows, mid, cols in shapes:
        # GF(4) and 0/1 operands on either side
        for a_top, b_top in [(4, 4), (2, 2), (2, 4), (4, 2)]:
            a = rng.integers(0, a_top, size=(rows, mid), dtype=np.uint8)
            b = rng.integers(0, b_top, size=(mid, cols), dtype=np.uint8)
            got = (Gf4Matrix.from_codes(a) @ Gf4Matrix.from_codes(b)).to_codes()
            assert got.shape == (rows, cols)
            assert np.array_equal(got, naive_matmul(a, b))
    for mid in (256, 257, 300):
        for s in range(1, 4):
            a = np.full((1, mid), s, dtype=np.uint8)
            got = (Gf4Matrix.from_codes(a) @ Gf4Matrix.from_codes(a.T)).to_codes()
            assert np.array_equal(got, naive_matmul(a, a.T))


def test_scale_conjugate_transpose_adjoint_match_tables():
    rng = np.random.default_rng(4)
    a = random_codes(rng, 5, 7)
    m = Gf4Matrix.from_codes(a)
    for s in range(4):
        assert np.array_equal(m.scale(s).to_codes(), MUL[s, a])
    assert np.array_equal(m.conjugate().to_codes(), CONJ[a])
    assert np.array_equal(m.transpose().to_codes(), a.T)
    assert np.array_equal(m.adjoint().to_codes(), naive_adjoint(a))
    assert m.adjoint().adjoint() == m


def test_kron_matches_table_oracle():
    rng = np.random.default_rng(5)
    a = random_codes(rng, 2, 3)
    b = random_codes(rng, 3, 2)
    got = Gf4Matrix.from_codes(a).kron(Gf4Matrix.from_codes(b)).to_codes()
    expect = np.zeros((6, 6), dtype=np.uint8)
    for i in range(2):
        for j in range(3):
            expect[3 * i : 3 * i + 3, 2 * j : 2 * j + 2] = MUL[a[i, j], b]
    assert np.array_equal(got, expect)


def test_matrix_weights():
    m = Gf4Matrix.from_symbol_rows(["0w0W", "0000", "11w0"])
    assert m.row_weight(0) == 2
    assert m.max_row_weight() == 3
    assert m.max_column_weight() == 2
    assert not m.is_zero()
    assert Gf4Matrix.zeros(3, 4).is_zero()


# Both fields' matrices are linalg's CodeMatrix; the contracts below hold for each.
MATRIX_CLASSES = [BitMatrix, Gf4Matrix]
FROM_CODES = {BitMatrix: BitMatrix.from_dense, Gf4Matrix: Gf4Matrix.from_codes}


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
def test_matrix_operations_reject_mismatched_shapes(cls):
    a = cls.zeros(2, 3)
    with pytest.raises(DimensionError):
        a + cls.zeros(1, 3)
    with pytest.raises(DimensionError):
        a + cls.zeros(2, 1)
    with pytest.raises(DimensionError):
        a ^ cls.zeros(2, 1)
    with pytest.raises(DimensionError):
        a @ cls.zeros(2, 3)
    with pytest.raises(DimensionError):
        a @ cls.zeros(1, 3)


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
def test_negative_sizes_are_rejected(cls):
    with pytest.raises(ParameterError):
        cls.zeros(-1, 2)
    with pytest.raises(ParameterError):
        cls.zeros(2, -1)


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
def test_shared_operations_return_the_callers_class(cls):
    m = FROM_CODES[cls](np.random.default_rng(11).integers(0, cls.top + 1, (3, 3)))
    results = [
        m + m, m ^ m, m @ m, m.kron(m), m.tensor_sum(m),
        m.transpose(), m.adjoint(), m.copy(), m.rref()[0],
    ]
    assert [type(r) for r in results] == [cls] * len(results)
    assert cls.__slots__ == () and not hasattr(m, "__dict__")


def test_fields_never_compare_equal():
    codes = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    bits, gf4 = BitMatrix(codes.copy()), Gf4Matrix(codes.copy())
    assert bits != gf4 and gf4 != bits
    assert len({bits, gf4}) == 2


@pytest.mark.parametrize("codes", [[[1, 0], [1, 1]], [[1, 2], [3, 1]]])
def test_fields_never_mix_in_arithmetic(codes):
    codes = np.array(codes, dtype=np.uint8)
    gf4 = Gf4Matrix(codes.copy())
    bits = BitMatrix(codes & 1)
    for a, b in ((bits, gf4), (gf4, bits)):
        for op in (operator.add, operator.xor, operator.matmul, type(a).kron):
            with pytest.raises(TypeError):
                op(a, b)


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
def test_kron_and_tensor_sum_are_numpy_kron_on_zero_one_codes(cls):
    rng = np.random.default_rng(12)
    a, b = rng.integers(0, 2, (3, 3), dtype=np.uint8), rng.integers(0, 2, (2, 2), dtype=np.uint8)
    got = cls(a.copy()).kron(cls(b.copy())).to_codes()
    assert np.array_equal(got, np.kron(a, b))
    total = cls(a.copy()).tensor_sum(cls(b.copy())).to_codes()
    eye2, eye3 = np.eye(2, dtype=np.uint8), np.eye(3, dtype=np.uint8)
    assert np.array_equal(total, np.kron(a, eye2) ^ np.kron(eye3, b))


def test_from_codes_validates_its_input():
    with pytest.raises(DimensionError):
        Gf4Matrix.from_codes(np.zeros((2, 2, 2), dtype=np.uint8))
    for bad in ([[0, 4]], np.array([[256, 1]]), [[-1, 1]], [[1.5, 1]]):
        with pytest.raises(ParameterError):
            Gf4Matrix.from_codes(bad)


def test_constructor_takes_uint8_codes_only():
    # == compares values but hash reads bytes, so a wider dtype would split equal matrices
    with pytest.raises(ParameterError):
        Gf4Matrix(np.array([[1, 2]], dtype=np.int64))
    wide = Gf4Matrix.from_codes(np.array([[1, 2], [3, 0]], dtype=np.int64))
    narrow = Gf4Matrix.from_codes(np.array([[1, 2], [3, 0]], dtype=np.uint8))
    assert wide == narrow and hash(wide) == hash(narrow)
    assert len({wide, narrow}) == 1


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
def test_matrix_shares_no_storage_with_callers(cls):
    codes = np.array([[0, 1], [cls.top, 1]], dtype=np.uint8)
    m = FROM_CODES[cls](codes)
    codes[0, 0] = 1
    m.to_codes()[1, 1] = 0
    assert np.array_equal(m.to_codes(), [[0, 1], [cls.top, 1]])
    t = m.transpose()
    t.set(0, 1, 0)
    m.copy().set(1, 0, 0)
    assert m.to_codes()[1, 0] == cls.top


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(cls, rows, cols):
    m = cls.zeros(rows, cols)
    assert (m.rows, m.cols) == (rows, cols)
    assert (m @ cls.zeros(cols, 2)).to_codes().shape == (rows, 2)
    assert (cls.zeros(2, rows) @ m) == cls.zeros(2, cols)
    k = m.kron(cls.identity(2))
    assert (k.rows, k.cols) == (2 * rows, 2 * cols)
    assert m.max_row_weight() == 0
    assert m.max_column_weight() == 0


# -- elimination ----------------------------------------------------------------


def test_rank_matches_gf2_doubling_oracle():
    rng = np.random.default_rng(6)
    for rows, cols in [(4, 4), (3, 7), (7, 3), (5, 5), (1, 1)]:
        for _ in range(20):
            codes = random_codes(rng, rows, cols)
            assert gf4_rank(Gf4Matrix.from_codes(codes)) == doubled_gf2_rank(codes)


def test_row_space_is_canonical_and_spans():
    rng = np.random.default_rng(7)
    codes = random_codes(rng, 5, 6)
    reduced, pivots = rref_codes(codes)
    basis = reduced[: len(pivots)]
    assert basis.shape[0] == gf4_rank(Gf4Matrix.from_codes(codes))
    # same span: stacking either way does not grow the rank
    assert doubled_gf2_rank(np.vstack([basis, codes])) == basis.shape[0]
    # scaling a row leaves the canonical basis unchanged
    scaled = codes.copy()
    scaled[2] = MUL[2, scaled[2]]
    assert np.array_equal(rref_codes(scaled)[0][: len(pivots)], basis)


def test_kernel_annihilates_and_has_right_dimension():
    rng = np.random.default_rng(8)
    for rows, cols in [(4, 6), (6, 4), (5, 5)]:
        codes = random_codes(rng, rows, cols)
        ker = null_basis(*rref_codes(codes))
        assert ker.shape[0] == cols - gf4_rank(Gf4Matrix.from_codes(codes))
        assert doubled_gf2_rank(ker) == ker.shape[0]
        for v in ker:
            assert not naive_matmul(codes, v[:, None]).any()


def test_image_spans_the_column_space():
    rng = np.random.default_rng(9)
    codes = random_codes(rng, 5, 3)
    im = gf4_image(Gf4Matrix.from_codes(codes))
    assert im.shape == (gf4_rank(Gf4Matrix.from_codes(codes)), 5)
    assert doubled_gf2_rank(np.vstack([im, codes.T])) == im.shape[0]


# -- hermitian products -----------------------------------------------------------


# The Hermitian products (f, g) of rows f of F and g of G are the Gram product
# conj(F) G^T, the one `is_self_orthogonal` forms with linalg's `matmul_codes`.


def test_hermitian_inner_fixed_values():
    w, zeros, mixed = gf4_vector("w"), gf4_vector("0000"), gf4_vector("01wW")
    assert matmul_codes(CONJ[w][None], w[:, None]).item() == ONE.value
    assert matmul_codes(CONJ[zeros][None], mixed[:, None]).item() == ZERO.value
    checks = np.array(five_qubit_check_basis())
    assert not matmul_codes(CONJ[checks], checks.T).any()
    with pytest.raises(DimensionError):
        is_self_orthogonal(["01", "0"])


def test_hermitian_inner_matches_naive_and_is_sesquilinear():
    rng = np.random.default_rng(10)
    f, g, h = (rng.integers(0, 4, size=(30, 8), dtype=np.uint8) for _ in range(3))
    fg = matmul_codes(CONJ[f], g.T)
    assert fg.tolist() == [[naive_inner(x, y) for y in g] for x in f]
    assert np.array_equal(matmul_codes(CONJ[f], ADD[g, h].T), ADD[fg, matmul_codes(CONJ[f], h.T)])
    assert np.array_equal(matmul_codes(CONJ[MUL[2, f]], g.T), MUL[CONJ[2], fg])
    assert np.array_equal(fg, CONJ[matmul_codes(CONJ[g], f.T).T])


def test_self_orthogonality_of_fixed_bases():
    assert is_self_orthogonal(five_qubit_check_basis())
    assert is_self_orthogonal(steane_gf4_check_basis())
    assert not is_self_orthogonal([gf4_vector("1")])
    assert is_self_orthogonal([gf4_vector("011")])
    assert is_self_orthogonal([])


def test_self_orthogonality_extends_to_the_whole_span():
    basis = five_qubit_check_basis()
    span = []
    for c1 in range(4):
        for c2 in range(4):
            span.append(ADD[MUL[c1, basis[0]], MUL[c2, basis[1]]])
    for f in span:
        for g in span:
            assert naive_inner(f, g) == 0


# -- boundary construction ---------------------------------------------------------


def test_five_qubit_boundary_shape_and_parameters():
    d = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    assert d.m == 5 and d.rank == 2 and d.hom_dim == 1
    assert d.delta.max_row_weight() <= 4
    assert d.delta.max_column_weight() <= 4
    # image equals the span of the checks, canonically
    checks = np.array(five_qubit_check_basis())
    reduced, pivots = rref_codes(checks)
    assert np.array_equal(gf4_image(d.delta), reduced[: len(pivots)])


def test_boundary_operator_invariants():
    d = gf4_boundary_from_checks(steane_gf4_check_basis(), Gf4Matrix.identity(3))
    assert d.delta.adjoint() == d.delta
    assert (d.delta @ d.delta).is_zero()
    assert d.hom_dim == 7 - 2 * 3
    assert is_self_orthogonal(list(gf4_image(d.delta)))


def test_selfadjointness_of_square_is_equivalent_to_orthogonal_image():
    # im delta self-orthogonal iff adjoint(delta) @ delta == 0
    d = singleton_boundary("0ww")
    star = d.delta.adjoint() @ d.delta
    assert star.is_zero()
    bad = Gf4Matrix.from_symbol_rows(["1"])
    assert not (bad.adjoint() @ bad).is_zero()
    assert not is_self_orthogonal([gf4_vector("1")])


def test_boundary_from_checks_error_contracts():
    checks = five_qubit_check_basis()
    with pytest.raises(PreconditionError):
        gf4_boundary_from_checks([gf4_vector("10000")], Gf4Matrix.identity(1))
    with pytest.raises(PreconditionError):
        gf4_boundary_from_checks(checks, Gf4Matrix.zeros(2, 2))
    asym = Gf4Matrix.from_symbol_rows(["01", "w0"])
    with pytest.raises(PreconditionError):
        gf4_boundary_from_checks(checks, asym)
    with pytest.raises(DimensionError):
        gf4_boundary_from_checks(checks, Gf4Matrix.identity(3))
    with pytest.raises(DimensionError):
        gf4_boundary_from_checks([gf4_vector("011"), gf4_vector("0w")], Gf4Matrix.identity(2))
    dup = [gf4_vector("011"), gf4_vector("011")]
    with pytest.raises(PreconditionError):
        gf4_boundary_from_checks(dup, Gf4Matrix.from_symbol_rows(["01", "10"]))


def test_empty_basis_gives_zero_operator():
    d = gf4_boundary_from_checks([], Gf4Matrix.zeros(0, 0))
    assert d.m == 0
    d3 = gf4_boundary_from_checks([], Gf4Matrix.zeros(0, 0), ambient_dim=3)
    assert d3.m == 3 and d3.delta.is_zero() and d3.hom_dim == 3


def test_gf4_boundary_validation():
    with pytest.raises(DimensionError):
        Gf4Boundary(Gf4Matrix.zeros(2, 3))
    with pytest.raises(PreconditionError):
        Gf4Boundary(Gf4Matrix.from_symbol_rows(["01", "w0"]))
    with pytest.raises(PreconditionError):
        Gf4Boundary(Gf4Matrix.identity(2))


# -- enumeration of self-adjoint invertible matrices ---------------------------------


def test_enumeration_small_sizes():
    assert len(enumerate_selfadjoint_invertible(0)) == 1
    ones = enumerate_selfadjoint_invertible(1)
    assert len(ones) == 1
    assert np.array_equal(ones[0].to_codes(), [[1]])


def test_enumeration_two_by_two_has_exactly_ten():
    got = enumerate_selfadjoint_invertible(2)
    assert len(got) == 10
    seen = set()
    for u in got:
        assert u.adjoint() == u
        assert gf4_rank(u) == 2
        seen.add(u.to_codes().tobytes())
    assert len(seen) == 10
    # independent census: filter the full 4^4 matrix space
    count = 0
    for entries in itertools.product(range(4), repeat=4):
        codes = np.array(entries, dtype=np.uint8).reshape(2, 2)
        if np.array_equal(naive_adjoint(codes), codes) and doubled_gf2_rank(codes) == 2:
            count += 1
    assert count == 10


def test_enumeration_three_by_three():
    got = enumerate_selfadjoint_invertible(3)
    assert len(got) == 280
    seen = set()
    for u in got:
        assert u.adjoint() == u
        assert gf4_rank(u) == 3
        seen.add(u.to_codes().tobytes())
    assert len(seen) == 280


def test_enumeration_error_contracts():
    with pytest.raises(BudgetError):
        enumerate_selfadjoint_invertible(4)
    with pytest.raises(ParameterError):
        enumerate_selfadjoint_invertible(-1)


# -- products ----------------------------------------------------------------------


def test_product_of_tiny_boundaries():
    s1 = singleton_boundary("011")
    s2 = singleton_boundary("0ww")
    p = gf4_product(s1, s2)
    assert p.m == 9
    assert p.hom_dim == s1.hom_dim * s2.hom_dim
    assert p.delta.adjoint() == p.delta
    assert (p.delta @ p.delta).is_zero()


def test_product_of_zero_boundaries_is_zero():
    z = Gf4Boundary(Gf4Matrix.zeros(2, 2))
    p = gf4_product(z, z)
    assert p.m == 4 and p.delta.is_zero()


def test_product_check_weight_at_most_doubled():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    p = gf4_product(d5, d5)
    assert p.m == 25 and p.hom_dim == 1
    assert p.delta.max_row_weight() <= 8
    assert p.delta.max_column_weight() <= 8


def test_product_kunneth_on_mixed_sizes():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    d7 = gf4_boundary_from_checks(steane_gf4_check_basis(), Gf4Matrix.identity(3))
    p = gf4_product(d5, d7)
    assert p.m == 35
    assert p.hom_dim == 1
    assert p.rank == 17


# -- distance ----------------------------------------------------------------------


def test_distance_of_fixed_codes():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    r = gf4_distance(d5)
    assert r.d == 3
    assert gf4_weight(r.witness) == 3
    d7 = gf4_boundary_from_checks(steane_gf4_check_basis(), Gf4Matrix.identity(3))
    assert gf4_distance(d7).d == 3


def test_five_qubit_squared_single_pair():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    p = gf4_product(d5, d5)
    r = gf4_distance(p)
    assert (p.m, p.hom_dim, r.d) == (25, 1, 5)


def test_distance_matches_naive_enumeration():
    cases = [
        singleton_boundary("011"),
        singleton_boundary("0ww"),
        singleton_boundary("1w1Ww1"),
        gf4_product(singleton_boundary("011"), singleton_boundary("0ww")),
        gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2)),
    ]
    for u in enumerate_selfadjoint_invertible(2):
        cases.append(gf4_boundary_from_checks(five_qubit_check_basis(), u))
    for d in cases:
        r = gf4_distance(d)
        assert found(r.witness) == naive_min_nontrivial(d) and r.d == gf4_weight(r.witness)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_engine_matches_naive_enumeration_on_random_operators(m, data):
    checks = data.draw(st.integers(max(0, m - 5), (m - 1) // 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = random_gf4_boundary(rng, m, checks)
    assert d.hom_dim == m - 2 * checks
    r = gf4_distance(d)
    assert found(r.witness) == naive_min_nontrivial(d)
    assert gf4_distance_upper_bound(d, r.d - 1) is None
    assert np.array_equal(gf4_distance_upper_bound(d, r.d), r.witness)


def test_engine_matches_naive_enumeration_when_information_sets_join_together():
    # H = 1 operators on 7 qubits have k = 4 and information sets of ranks
    # 4 and 3, which both join in round 1 and share one stacked table
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = random_gf4_boundary(rng, 7, 3)
        assert d.hom_dim == 1
        r = gf4_distance(d)
        assert found(r.witness) == naive_min_nontrivial(d)


def test_budget_counts_the_vectors_of_every_information_set():
    # this 5-qubit^2 product has k = 13 kernel generators, 3 scalars and two
    # information sets, of ranks 13 and 12, so the lower bound before round
    # t is t + (t - 1).  Rounds 1 and 2 run both sets, 2 (13 + C(13,2) 3) =
    # 494 vectors; round 3 starts at bound 5 = d and needs one finished set
    # to exceed it, so it runs only the first: 494 + C(13,3) 3^2 = 3,068
    u = enumerate_selfadjoint_invertible(2)
    d1 = gf4_boundary_from_checks(five_qubit_check_basis(), u[0])
    d2 = gf4_boundary_from_checks(five_qubit_check_basis(), u[1])
    p = gf4_product(d1, d2)
    with pytest.raises(BudgetError, match=r"at least 494$"):
        gf4_distance(p, budget=100)
    with pytest.raises(BudgetError, match=r"at least 3068$"):
        gf4_distance(p, budget=3_067)
    assert gf4_distance(p, budget=3_068).d == 5


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.sampled_from([(3, 1), (4, 1), (5, 2)]), st.integers(0, 2**32 - 1))
def test_ties_break_to_the_weight_lex_least_cycle(zeros, shape, seed):
    # many classes tie at the least weight: every unit vector of a zero
    # operator, and each lightest class of d, once in each copy, in d + d;
    # every candidate is scaled to a leading 1 before the ties are broken
    zero = direct_sum(np.zeros((zeros, zeros), dtype=np.uint8))
    assert found(gf4_distance(zero).witness) == naive_min_nontrivial(zero)
    d = random_gf4_boundary(np.random.default_rng(seed), *shape)
    twice = direct_sum(d.delta.codes, d.delta.codes)
    assert found(gf4_distance(twice).witness) == naive_min_nontrivial(twice)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.data())
def test_witness_check_rejects_every_boundary_and_accepts_its_shifts(m, data):
    # H >= 2, so the image basis the check reduces against varies in shape
    # and the witness classes are many: every nonzero delta x is trivial, and
    # every scalar multiple of the engine's witness plus a boundary is not
    checks = data.draw(st.integers(max(0, m - 5), (m - 2) // 2))
    d = random_gf4_boundary(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), m, checks)
    assert d.hom_dim >= 2
    xs = np.array(list(itertools.product(range(4), repeat=m)), dtype=np.uint8)
    delta = d.delta.to_codes()
    images = np.unique(np.bitwise_xor.reduce(MUL[delta[None], xs[:, None, :]], axis=2), axis=0)
    assert len(images) == 4**checks
    for b in images[1:]:
        with pytest.raises(WitnessError, match="trivial cycle"):
            gf4_verify_witness(d, b)
    w = gf4_distance(d).witness
    for s in (1, 2, 3):
        for b in images:
            shifted = ADD[MUL[s, w], b]
            assert gf4_verify_witness(d, shifted) == gf4_weight(shifted)


def test_mixed_product_exact_distance():
    # 35 qubits, 18 kernel generators: the last round is too large for one
    # cached table, so it is enumerated as prefixes over a smaller one
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    d7 = gf4_boundary_from_checks(steane_gf4_check_basis(), Gf4Matrix.identity(3))
    p = gf4_product(d5, d7)
    r = gf4_distance(p)
    assert (p.m, p.hom_dim, r.d) == (35, 1, 9)
    assert gf4_verify_witness(p, r.witness) == 9
    assert gf4_distance_upper_bound(p, 8) is None


def direct_sum(*blocks: np.ndarray) -> Gf4Boundary:
    m = sum(len(b) for b in blocks)
    codes = np.zeros((m, m), dtype=np.uint8)
    i = 0
    for b in blocks:
        codes[i : i + len(b), i : i + len(b)] = b
        i += len(b)
    return Gf4Boundary(Gf4Matrix.from_codes(codes))


@pytest.mark.parametrize("copies", [30, 31])
@pytest.mark.parametrize("small_first", [True, False])
def test_direct_sum_past_one_word_pads_the_witness(copies, small_first):
    # 65 or 67 qubits plus one syndrome column: every plane takes two words.
    # The 2x2 blocks have no homology, so the 5-qubit witness stands, padded
    # by zeros in place.
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    filler = [Gf4Matrix.from_symbol_rows(["1w", "W1"]).codes] * copies
    blocks = [d5.delta.codes, *filler] if small_first else [*filler, d5.delta.codes]
    d = direct_sum(*blocks)
    assert (d.m, d.hom_dim) == (5 + 2 * copies, 1)
    padded = np.zeros(d.m, dtype=np.uint8)
    offset = 0 if small_first else d.m - 5
    padded[offset : offset + 5] = gf4_distance(d5).witness
    r = gf4_distance(d)
    assert r.d == 3
    assert np.array_equal(r.witness, padded)
    assert gf4_distance_upper_bound(d, 2) is None


def test_witnesses_do_not_depend_on_the_block_size(monkeypatch):
    # 8 bytes is one column, so even the table of single generators exceeds
    # it and every later round loops heads over that table; 640 bytes hold
    # the single generators of both fields and blocks of 40-80 candidates
    # flush many times per round.  The nine 5-qubit^2 pairs run GF(4) head
    # loops, where a head missing a coefficient loses classes.
    basis = steane_check_basis()
    twin = boundary_from_checks(basis, BitMatrix.identity(3))
    asymmetric = BitMatrix.from_dense(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.uint8))
    css = [
        product(boundary_from_checks(basis, u), twin).partial
        for u in (BitMatrix.identity(3), asymmetric)
    ]
    us = enumerate_selfadjoint_invertible(2)
    fives = [gf4_boundary_from_checks(five_qubit_check_basis(), u) for u in us[:3]]
    squares = [gf4_product(a, b) for a in fives for b in fives]

    def witnesses():
        out = []
        for p in css:
            r = distance(p)
            for d, w in ((r.d_z, r.witness_z), (r.d_x, r.witness_x)):
                out.append((d, vector_to_bits(w, p.m).tolist()))
        return out + [found(gf4_distance(p).witness) for p in squares]

    default = witnesses()
    assert [w for w, _ in default] == [7, 7, 9, 9] + [5] * 9
    for cap in (8, 640):
        monkeypatch.setattr("homprod.search._TABLE_BYTES", cap)
        assert witnesses() == default, cap


def block_size_witnesses():
    """Every witness of the block-size test's operators: both sectors of two
    css49 products and nine 5-qubit^2 products."""
    basis = steane_check_basis()
    twin = boundary_from_checks(basis, BitMatrix.identity(3))
    asymmetric = BitMatrix.from_dense(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.uint8))
    out = []
    for u in (BitMatrix.identity(3), asymmetric):
        p = product(boundary_from_checks(basis, u), twin).partial
        r = distance(p)
        for d, w in ((r.d_z, r.witness_z), (r.d_x, r.witness_x)):
            out.append((d, vector_to_bits(w, p.m).tolist()))
    us = enumerate_selfadjoint_invertible(2)
    fives = [gf4_boundary_from_checks(five_qubit_check_basis(), u) for u in us[:3]]
    return out + [found(gf4_distance(gf4_product(a, b)).witness) for a in fives for b in fives]


@pytest.mark.parametrize("narrow", [0, 1 << 40], ids=["all XORed", "all gathered"])
def test_witnesses_do_not_depend_on_the_table_split(monkeypatch, narrow):
    # the search writes table blocks narrower than _GATHER_WIDTH columns by
    # gathers and wider ones by one XOR per generator; forcing either way
    # for every block must leave every witness as it is
    default = block_size_witnesses()
    monkeypatch.setattr("homprod.search._GATHER_WIDTH", narrow)
    assert block_size_witnesses() == default


def test_distance_is_thread_count_independent():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    p = gf4_product(d5, d5)
    serial = gf4_distance(p)
    threaded = gf4_distance(p, threads=3)
    assert serial.d == threaded.d
    assert np.array_equal(serial.witness, threaded.witness)


def test_distance_scans_projective_cosets_only():
    # block diagonal pair of five-qubit operators: H = 2, so (4^2-1)/3 = 5
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    codes = d5.delta.to_codes()
    block = np.zeros((10, 10), dtype=np.uint8)
    block[:5, :5] = codes
    block[5:, 5:] = codes
    d = Gf4Boundary(Gf4Matrix.from_codes(block))
    assert d.hom_dim == 2
    r = gf4_distance(d)
    assert r.cosets_scanned == 5
    assert found(r.witness) == naive_min_nontrivial(d)
    assert r.d == 3


def test_scalar_multiples_preserve_weight():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.integers(0, 4, size=17, dtype=np.uint8)
        for s in (2, 3):
            assert gf4_weight(MUL[s, v]) == gf4_weight(v)


def test_distance_error_contracts():
    no_logical = Gf4Boundary(Gf4Matrix.from_symbol_rows(["1w", "W1"]))
    assert no_logical.hom_dim == 0
    with pytest.raises(NoLogicalsError):
        gf4_distance(no_logical)
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    with pytest.raises(BudgetError):
        gf4_distance(d5, budget=4)


def test_upper_bound_search_contracts():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    wit = gf4_distance_upper_bound(d5, 3)
    assert wit is not None and 1 <= gf4_weight(wit) <= 3
    # found vectors are cycles outside the image
    codes = d5.delta.to_codes()
    assert not naive_matmul(codes, wit[:, None]).any()
    im = gf4_image(d5.delta)
    assert doubled_gf2_rank(np.vstack([im, wit[None, :]])) == im.shape[0] + 1
    assert gf4_distance_upper_bound(d5, 2) is None
    assert gf4_distance_upper_bound(d5, 0) is None


def test_upper_bound_search_is_deterministic():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    p = gf4_product(d5, d5)
    first = gf4_distance_upper_bound(p, 5)
    second = gf4_distance_upper_bound(p, 5)
    assert first is not None
    assert np.array_equal(first, second)
    assert gf4_distance_upper_bound(p, 4) is None


def test_upper_bound_agrees_with_exact_distance():
    cases = [
        singleton_boundary("011"),
        gf4_product(singleton_boundary("011"), singleton_boundary("0ww")),
        gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2)),
        gf4_boundary_from_checks(steane_gf4_check_basis(), Gf4Matrix.identity(3)),
    ]
    for d in cases:
        exact = gf4_distance(d).d
        for bound in range(0, exact + 2):
            wit = gf4_distance_upper_bound(d, bound)
            if bound < exact:
                assert wit is None
            else:
                assert wit is not None and 1 <= gf4_weight(wit) <= bound


def test_upper_bound_finds_witnesses_at_the_distance():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    p = gf4_product(d5, d5)
    wit = gf4_distance_upper_bound(p, 5)
    assert wit is not None and gf4_weight(wit) == 5
    codes = p.delta.to_codes()
    assert not naive_matmul(codes, wit[:, None]).any()
    im = gf4_image(p.delta)
    assert doubled_gf2_rank(np.vstack([im, wit[None, :]])) == im.shape[0] + 1


def test_witness_verification_rejects_non_cycles_and_trivial_cycles():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    logical = gf4_distance(d5).witness
    assert gf4_verify_witness(d5, logical) == 3
    assert gf4_verify_witness(d5, vector_symbols(logical)) == 3
    non_cycle = gf4_vector("10000")
    assert naive_matmul(d5.delta.to_codes(), non_cycle[:, None]).any()
    with pytest.raises(WitnessError, match="not a cycle"):
        gf4_verify_witness(d5, non_cycle)
    stabilizer = five_qubit_check_basis()[0]
    with pytest.raises(WitnessError, match="trivial cycle"):
        gf4_verify_witness(d5, stabilizer)
    with pytest.raises(DimensionError):
        gf4_verify_witness(d5, "0000")


def test_upper_bound_budget_error():
    d5 = gf4_boundary_from_checks(five_qubit_check_basis(), Gf4Matrix.identity(2))
    p = gf4_product(d5, d5)
    with pytest.raises(BudgetError):
        gf4_distance_upper_bound(p, 5, budget=10)
