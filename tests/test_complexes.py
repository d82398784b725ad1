"""Boundary operators, canonical form, goodness, and reduction."""

import numpy as np
import pytest

from homprod import BitMatrix, ParameterError, PreconditionError
from homprod.complexes import (
    BoundaryOperator,
    canonical_boundary,
    canonical_witness,
    homology_representatives,
    is_good,
    random_boundary,
    reduced_boundary,
)
from homprod.gf2 import (
    in_span,
    inverse,
    kernel_basis,
    vector_from_bits,
    vector_from_support,
    vector_to_bits,
)
from homprod.css import boundary_from_checks, steane_check_basis
from homprod.gf4 import (
    Gf4Boundary,
    Gf4Matrix,
    enumerate_selfadjoint_invertible,
    five_qubit_check_basis,
    gf4_boundary_from_checks,
    gf4_product,
    steane_gf4_check_basis,
)
from homprod.product import product


def test_canonical_small_shapes():
    assert np.array_equal(canonical_boundary(0, 1).matrix.to_dense(), [[0, 1], [0, 0]])
    z = canonical_boundary(2, 0)
    assert z.matrix.is_zero() and z.hom_dim == 2
    d = canonical_boundary(1, 1)
    dense = d.matrix.to_dense()
    assert dense[1, 2] == 1 and dense.sum() == 1
    assert d.rank == 1


def test_rejects_non_nilpotent():
    with pytest.raises(ParameterError):
        BoundaryOperator(BitMatrix.identity(2))
    with pytest.raises(ParameterError):
        BoundaryOperator(BitMatrix.zeros(2, 3))


def test_random_boundary_parity_check():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        random_boundary(5, 2, rng)
    with pytest.raises(ParameterError):
        random_boundary(3, 5, rng)


def test_random_boundary_properties():
    rng = np.random.default_rng(1)
    for m, h in [(2, 2), (2, 0), (6, 2), (9, 3), (10, 0)]:
        d = random_boundary(m, h, rng)
        assert d.m == m
        assert d.hom_dim == h
        assert (d.matrix @ d.matrix).is_zero()


def test_random_boundary_m2_h0_is_rank_one_nilpotent():
    # conjugates of [[0,1],[0,0]]: exactly the three nonzero 2x2 with d^2=0
    seen = set()
    rng = np.random.default_rng(2)
    for _ in range(60):
        d = random_boundary(2, 0, rng)
        assert d.rank == 1
        seen.add(d.matrix)
    assert len(seen) == 3


def test_canonical_witness_round_trip():
    rng = np.random.default_rng(3)
    for m, h in [(2, 0), (4, 2), (6, 0), (7, 1), (8, 2), (9, 3)]:
        d = random_boundary(m, h, rng)
        u = canonical_witness(d)
        l = (m - h) // 2
        d0 = canonical_boundary(h, l).matrix
        assert u @ d0 @ inverse(u) == d.matrix


def test_homology_representatives_span_quotient():
    rng = np.random.default_rng(4)
    d = random_boundary(8, 2, rng)
    reps = homology_representatives(d)
    assert len(reps) == 2
    ker = kernel_basis(d.matrix)
    for v in reps:
        assert in_span(v, ker)


def test_is_good_examples():
    d = canonical_boundary(1, 1)
    assert is_good(d, 3)
    assert is_good(d, 2)
    assert not is_good(d, 1)
    z = canonical_boundary(2, 0)
    assert not is_good(z, 1)
    assert is_good(z, 2)


def test_reduced_boundary_identity_case():
    d = canonical_boundary(1, 2)
    r = reduced_boundary(d, d.m)
    assert r.delta_prime == d.matrix
    assert r.s_gt_basis.dim == 0


def test_reduced_boundary_minimal_case():
    d = canonical_boundary(1, 1)
    r = reduced_boundary(d, 2)
    assert r.delta_prime.rows == 1
    assert r.delta_prime.is_zero()
    assert BoundaryOperator(r.delta_prime).hom_dim == 1


def test_reduced_boundary_requires_goodness():
    with pytest.raises(PreconditionError):
        reduced_boundary(canonical_boundary(1, 1), 1)


def _good_random(m, h, m_prime, rng):
    while True:
        d = random_boundary(m, h, rng)
        if is_good(d, m_prime):
            return d


def test_reduced_boundary_random_good_cases():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = _good_random(8, 2, 6, rng)
        r = reduced_boundary(d, 6)
        assert r.delta_prime.rows == 4
        assert BoundaryOperator(r.delta_prime).hom_dim == 2


def test_project_and_lift_are_inverse_on_cosets():
    rng = np.random.default_rng(6)
    d = _good_random(8, 2, 6, rng)
    r = reduced_boundary(d, 6)
    for _ in range(30):
        bits = rng.integers(0, 2, size=8, dtype=np.uint8)
        bits[6:] = 0
        v = BitMatrix.from_dense(bits.reshape(1, -1)).data[0]
        y = r.project(v)
        w = r.lift(y)
        # lift(project(v)) differs from truncated v by an element of S^>
        assert in_span(v ^ w, r.s_gt_basis)
        assert np.array_equal(r.project(w), y)


@pytest.mark.parametrize("m_prime", [40, 64, 65])
def test_reduced_operator_past_one_word(m_prime):
    # M = 70 coordinates take two 64-bit words; M - m_prime <= l = 34 keeps goodness likely
    m = 70
    rng = np.random.default_rng(m_prime)
    d = _good_random(m, 2, m_prime, rng)
    r = reduced_boundary(d, m_prime)
    assert r.k_dim == 2 * m_prime - m
    dense, delta_prime = d.matrix.to_dense(), r.delta_prime.to_dense()
    for j in range(r.k_dim):
        # column j of delta' is the coset of d applied to the lift of e_j
        lifted = vector_to_bits(r.lift(vector_from_support(r.k_dim, [j])), m)
        image = vector_from_bits(dense @ lifted & 1)
        assert np.array_equal(vector_to_bits(r.project(image), r.k_dim), delta_prime[:, j])
    for _ in range(20):
        y = vector_from_bits(rng.integers(0, 2, r.k_dim, dtype=np.uint8))
        assert np.array_equal(r.project(r.lift(y)), y)
        bits = rng.integers(0, 2, m, dtype=np.uint8)
        v = vector_from_bits(bits)
        bits[m_prime:] = 0
        assert in_span(vector_from_bits(bits) ^ r.lift(r.project(v)), r.s_gt_basis)


def test_reduced_kernel_matches_projected_kernel():
    # the kernel of the reduced operator equals the projection of the kernel
    from homprod.gf2 import row_space_basis

    rng = np.random.default_rng(7)
    for _ in range(20):
        d = _good_random(6, 2, 5, rng)
        r = reduced_boundary(d, 5)
        projected = np.array(
            [vector_to_bits(r.project(v), r.k_dim) for v in kernel_basis(d.matrix).vectors],
            dtype=np.uint8,
        )
        assert row_space_basis(BitMatrix.from_dense(projected)) == row_space_basis(
            kernel_basis(r.delta_prime).matrix
        )


def test_transposed_reduction_is_the_stored_rref_of_the_transpose():
    rng = np.random.default_rng(7)
    ops = [random_boundary(m, h, rng) for m, h in ((1, 1), (6, 2), (9, 3), (20, 0), (70, 2))]
    ops.append(product(ops[1], ops[2]).partial)
    for d in ops:
        reduced, pivots = d.adjoint_reduction
        expected, expected_pivots = d.matrix.transpose().rref()
        assert reduced == expected and pivots == expected_pivots
        assert d.adjoint_reduction is d.adjoint_reduction


def test_adjoint_reduction_is_the_reduction_of_a_symmetric_operator():
    d = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    assert d.matrix.transpose() == d.matrix
    assert d.adjoint_reduction is d.reduction
    square = product(d, d).partial
    assert square.adjoint_reduction is square.reduction


def test_every_gf4_boundary_keeps_one_reduction_for_its_adjoint():
    # delta* = delta is checked on construction, so no second elimination is kept
    fq = [
        gf4_boundary_from_checks(five_qubit_check_basis(), u)
        for u in enumerate_selfadjoint_invertible(2)
    ]
    steane = gf4_boundary_from_checks(steane_gf4_check_basis(), Gf4Matrix.identity(3))
    zero = Gf4Boundary(Gf4Matrix.zeros(2, 2))
    for d in [*fq, steane, gf4_product(fq[0], fq[1]), gf4_product(steane, fq[2]), zero]:
        assert d.adjoint_reduction is d.reduction
        assert d.matrix.adjoint() == d.matrix
