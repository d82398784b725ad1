"""CSS bridge: codes from operators and operators from check bases."""

import numpy as np
import pytest

from homprod import BitMatrix, DimensionError, PreconditionError
from homprod.complexes import canonical_boundary, random_boundary
from homprod.css import (
    CssCode,
    boundary_from_checks,
    code_from_complex,
    stabilizer_weight,
    steane_check_basis,
)
from homprod.gf2 import Basis, image_basis, random_invertible, row_space_basis
from homprod.gf4 import Gf4Matrix, gf4_boundary_from_checks


def test_code_from_canonical():
    c = code_from_complex(canonical_boundary(1, 1))
    assert (c.n, c.k, c.w) == (3, 1, 1)
    z = code_from_complex(canonical_boundary(5, 0))
    assert (z.n, z.k, z.w) == (5, 5, 0)


def test_orthogonality_enforced():
    with pytest.raises(PreconditionError):
        CssCode(n=2, a_z=BitMatrix.from_dense([[1, 0]]), a_x=BitMatrix.from_dense([[1, 1]]), k=0, w=1)


def test_steane_code_parameters():
    basis = steane_check_basis()
    d = boundary_from_checks(basis, BitMatrix.identity(3))
    c = code_from_complex(d)
    assert (c.n, c.k) == (7, 1)
    assert stabilizer_weight(c) == 4
    assert c.w == 4
    assert d.rank == 3
    # every nonzero row is a weight-4 codeword
    for i in range(7):
        assert d.matrix.row_weight(i) == 4


def test_boundary_from_checks_image_is_u_independent():
    basis = steane_check_basis()
    rng = np.random.default_rng(0)
    target = row_space_basis(basis.matrix)
    for _ in range(10):
        u = random_invertible(3, rng)
        d = boundary_from_checks(basis, u)
        assert image_basis(d.matrix) == target
        assert image_basis(d.matrix.transpose()) == target
        assert code_from_complex(d).k == 1


def test_boundary_from_checks_rejects_bad_inputs():
    basis = steane_check_basis()
    with pytest.raises(PreconditionError):
        boundary_from_checks(basis, BitMatrix.zeros(3, 3))
    odd = Basis(BitMatrix.from_dense([[1, 1, 1]]))
    with pytest.raises(PreconditionError):
        boundary_from_checks(odd, BitMatrix.identity(1))


# Either field's construction from 0/1 check rows and a 0/1 change of basis u.
FROM_CHECKS = {
    "GF(2)": lambda rows, u: boundary_from_checks(
        Basis(BitMatrix.from_dense([[int(c) for c in r] for r in rows])), BitMatrix.from_dense(u)
    ),
    "GF(4)": lambda rows, u: gf4_boundary_from_checks(rows, Gf4Matrix.from_codes(u)),
}
STEANE_ROWS = ["1000111", "0101011", "0011101"]


@pytest.mark.parametrize("field", FROM_CHECKS)
def test_boundary_from_checks_rejects_bad_inputs_in_both_fields(field):
    build = FROM_CHECKS[field]
    assert build(STEANE_ROWS, np.eye(3, dtype=np.uint8)).hom_dim == 1
    bad = [
        (STEANE_ROWS, np.zeros((3, 3), dtype=np.uint8), PreconditionError),  # u singular
        (["111"], [[1]], PreconditionError),  # not self-orthogonal
        (["10000"], [[1]], PreconditionError),
        (STEANE_ROWS[:2], np.eye(3, dtype=np.uint8), DimensionError),  # u of the wrong size
        (["011", "011"], [[0, 1], [1, 0]], PreconditionError),  # dependent checks
        (["1111000", "1111000"], np.eye(2, dtype=np.uint8), PreconditionError),
    ]
    for rows, u, error in bad:
        with pytest.raises(error):
            build(rows, u)


def test_boundary_from_checks_empty_basis():
    empty = Basis(BitMatrix.zeros(0, 4))
    d = boundary_from_checks(empty, BitMatrix.zeros(0, 0))
    assert d.m == 4 and d.hom_dim == 4


def test_random_self_orthogonal_bases():
    # duplicated-block rows [R | R] are self-orthogonal for any R
    rng = np.random.default_rng(1)
    count = 0
    while count < 100:
        half = int(rng.integers(2, 6))
        m = int(rng.integers(1, half + 1))
        r = rng.integers(0, 2, size=(m, half), dtype=np.uint8)
        basis = row_space_basis(BitMatrix.from_dense(np.concatenate([r, r], axis=1)))
        if basis.dim == 0:
            continue
        u = random_invertible(basis.dim, rng)
        d = boundary_from_checks(basis, u)
        assert d.m == 2 * half
        assert image_basis(d.matrix) == basis
        assert image_basis(d.matrix.transpose()) == basis
        count += 1


def test_params_dict():
    c = code_from_complex(canonical_boundary(1, 1))
    assert c.params() == {"n": 3, "k": 1, "w": 1, "d_z": None, "d_x": None}
