"""Distance engine: oracle equivalence, determinism, bounds, budget."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod import BitMatrix, BudgetError, DimensionError, NoLogicalsError, WitnessError, search
from homprod.complexes import BoundaryOperator, canonical_boundary, random_boundary
from homprod.css import boundary_from_checks, steane_check_basis
from homprod.distance import distance, distance_parallel, distance_upper_bound, verify_witness
from homprod.gf2 import (
    image_basis,
    kernel_basis,
    vector_from_bits,
    vector_from_support,
    vector_to_bits,
    vector_weight,
)
from homprod.product import product
from homprod.search import min_cycle


def naive_min_nontrivial(mat: BitMatrix) -> tuple[int, tuple]:
    """Oracle: scan all kernel vectors, reject image members pointwise.

    Returns the minimum weight and the lexicographically least coordinate
    sequence among the nontrivial cycles of that weight.
    """
    ker = kernel_basis(mat)
    im = image_basis(mat)
    im_set = set()
    for m in range(1 << im.dim):
        acc = np.zeros_like(im.matrix.data[0]) if im.dim else np.zeros(1, dtype=np.uint64)
        for i in range(im.dim):
            if (m >> i) & 1:
                acc = acc ^ im.vectors[i]
        im_set.add(acc.tobytes())
    best = None
    for m in range(1, 1 << ker.dim):
        acc = np.zeros_like(ker.matrix.data[0])
        for i in range(ker.dim):
            if (m >> i) & 1:
                acc = acc ^ ker.vectors[i]
        if acc.tobytes() in im_set:
            continue
        cand = (vector_weight(acc), tuple(vector_to_bits(acc, mat.cols).tolist()))
        if best is None or cand < best:
            best = cand
    return best


def found(witness, n: int) -> tuple[int, tuple]:
    return vector_weight(witness), tuple(vector_to_bits(witness, n).tolist())


def assert_matches_oracle(d: BoundaryOperator):
    res = distance(d)
    assert found(res.witness_z, d.m) == naive_min_nontrivial(d.matrix)
    assert found(res.witness_x, d.m) == naive_min_nontrivial(d.matrix.transpose())
    assert (res.d_z, res.d_x) == (vector_weight(res.witness_z), vector_weight(res.witness_x))
    return res


def test_steane_distance():
    d = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    res = distance(d)
    assert res.d_z == 3 and res.d_x == 3
    assert vector_weight(res.witness_z) == 3
    assert res.cosets_scanned == 2


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    done = 0
    while done < 40:
        m = int(rng.integers(2, 9))
        h = int(rng.integers(1, m + 1))
        if (m - h) % 2:
            continue
        assert_matches_oracle(random_boundary(m, h, rng))
        done += 1


def test_matches_oracle_when_information_sets_join_late():
    # with H = 2 the second information set has rank at most k - 2, so it
    # joins the search in round 2 and must first catch up on round 1
    for seed in range(30):
        assert_matches_oracle(random_boundary(16, 2, np.random.default_rng(seed)))


def test_matches_oracle_when_information_sets_join_together():
    # with H = 1 and odd m most sectors have two information sets of ranks
    # k and k - 1, which both join in round 1 and share one stacked table
    for m in range(9, 16, 2):
        for seed in range(30):
            assert_matches_oracle(random_boundary(m, 1, np.random.default_rng(seed)))


@pytest.mark.parametrize("cap", [8, 640, None], ids=["8 bytes", "640 bytes", "default"])
def test_tie_rounds_match_the_oracle_at_every_block_size(cap, monkeypatch):
    # these H = 1 operators of odd m end, in one sector or both, in a tie
    # round: the bound before it equals the best weight, so it runs only the
    # second information set's combinations that hold its extras.  Most tie
    # in round 2 from table 1, cached at every size; m = 17 seed 51 and
    # m = 19 seeds 15 and 20 have d_x = 5 and tie in round 3 from table 2,
    # which 8 and 640 bytes do not cache, so there the round runs in full
    if cap is not None:
        monkeypatch.setattr("homprod.search._TABLE_BYTES", cap)
    for m in (9, 11, 13, 15):
        for seed in range(8):
            assert_matches_oracle(random_boundary(m, 1, np.random.default_rng(seed)))
    for m, seed in ((17, 51), (19, 15), (19, 20)):
        assert assert_matches_oracle(random_boundary(m, 1, np.random.default_rng(seed))).d_x == 5


def test_budget_counts_the_vectors_of_every_information_set():
    # each sector of this asymmetric css49 product has k = 25 kernel
    # generators and two information sets, of ranks 25 and 24, so the lower
    # bound before round t is t + (t - 1).  Rounds 1 to 4 run both sets.
    # Round 5 starts at bound 9 = d, so it is a tie round: an unseen cycle
    # of weight 9 takes exactly 5 generators of the second set, its one
    # extra among them, and the round runs only those, C(24,4) of them:
    # 2 (C(25,1) + C(25,2) + C(25,3) + C(25,4)) + C(24,4) = 41,176 vectors
    u = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    d_u = boundary_from_checks(steane_check_basis(), u)
    d_v = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    p = product(d_u, d_v).partial
    with pytest.raises(BudgetError, match=r"at least 41176$"):
        distance(p, budget=41_175)
    res = distance(p, budget=41_176)
    assert (res.d_z, res.d_x) == (9, 9)


def test_budget_counts_the_tie_round_of_a_symmetric_operator():
    # the symmetric Steane^2 product is one problem with k = 25 and sets of
    # ranks 25 and 24.  Rounds 1 to 3 run both sets; round 4 starts at bound
    # 7 = d and is a tie round on the second set:
    # 2 (C(25,1) + C(25,2) + C(25,3)) + C(24,3) = 2 (25 + 300 + 2,300) + 2,024 = 7,274
    steane = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    p = product(steane, steane).partial
    with pytest.raises(BudgetError, match=r"at least 7274$"):
        distance(p, budget=7_273)
    res = distance(p, budget=7_274)
    assert (res.d_z, res.d_x) == (7, 7)


def test_budget_counts_only_the_information_sets_that_join():
    # this random product has d = (1, 4); its x sector has k = 20 kernel
    # generators and information sets of ranks 20, 10 and 4, which would
    # join in rounds 1, 10 and 16.  Round 5 starts at bound 5 > d_x = 4, so
    # only the first set runs: C(20,1) + ... + C(20,4) = 6,195 vectors
    rng = np.random.default_rng([1, 5])
    p = product(random_boundary(6, 2, rng), random_boundary(6, 2, rng)).partial
    with pytest.raises(BudgetError, match=r"at least 6195$"):
        distance(p, budget=6_194)
    res = distance(p, budget=6_195)
    assert (res.d_z, res.d_x) == (1, 4)


def test_budget_error_names_the_first_round_any_sector_passes():
    # this random product has n = 35, H = 1, d = (2, 4) and k = 18 kernel
    # generators per sector.  The z sector runs one information set, 18
    # vectors through round 1 and 18 + C(18,2) = 171 through round 2; the x
    # sector runs two sets that both join in round 1, 36 and then 342.  Both
    # sectors pass a budget of 35, the x sector first, in round 1; both pass
    # a budget of 170 in round 2, where the error names the larger count
    rng = np.random.default_rng([1, 7, 5])
    p = product(random_boundary(7, 1, rng), random_boundary(5, 1, rng)).partial
    with pytest.raises(BudgetError, match=r"through round 1,.* at least 36$"):
        distance(p, budget=35)
    with pytest.raises(BudgetError, match=r"through round 2,.* at least 342$"):
        distance(p, budget=170)
    res = distance(p, budget=342)
    assert (res.d_z, res.d_x) == (2, 4)


def sector_operators():
    rng = np.random.default_rng(6)
    ops = [random_boundary(m, h, rng) for m, h in ((8, 2), (9, 1), (10, 2), (12, 4)) * 3]
    for seed, (m1, h1, m2, h2) in (([1, 5], (6, 2, 6, 2)), ([1, 7, 5], (7, 1, 5, 1))):
        rng = np.random.default_rng(seed)
        ops.append(product(random_boundary(m1, h1, rng), random_boundary(m2, h2, rng)).partial)
    return ops


def test_joint_sectors_match_separate_searches_and_the_transpose():
    # distance searches both sectors in one enumeration.  Each sector must
    # give what a search of that sector alone gives (distance_upper_bound
    # with the bound m returns the same least cycle), and the transposed
    # operator must give the same two sectors swapped.  The two products
    # have sectors that end in different rounds: d = (1, 4) and (2, 4)
    for d in sector_operators():
        transposed = BoundaryOperator(d.matrix.transpose())
        res, swapped = distance(d), distance(transposed)
        alone = distance_upper_bound(d, d.m), distance_upper_bound(transposed, d.m)
        for got, other, want in (
            (res.witness_z, swapped.witness_x, alone[0]),
            (res.witness_x, swapped.witness_z, alone[1]),
        ):
            assert np.array_equal(got, want) and np.array_equal(other, want)
        assert (res.d_z, res.d_x) == (swapped.d_x, swapped.d_z)
        assert (res.d_z, res.d_x) == tuple(vector_weight(w) for w in alone)


def test_symmetric_operator_is_searched_once(monkeypatch):
    # a symmetric operator is its own transpose, so its two sectors are one
    # problem: the search runs it once and returns its witness for both
    steane = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    p = product(steane, steane).partial
    assert p.adjoint_reduction is p.reduction
    sizes = []

    def counted(problems, *args):
        sizes.append(len(problems))
        return min_cycle(problems, *args)

    monkeypatch.setattr("homprod.search.min_cycle", counted)
    res = distance(p)
    assert sizes == [1]
    assert (res.d_z, res.d_x) == (7, 7)
    assert np.array_equal(res.witness_z, res.witness_x)


def test_joint_problems_must_share_their_shape():
    # one enumeration serves problems of one length, kernel dimension and
    # syndrome count only
    problems = []
    for d in (canonical_boundary(2, 1), canonical_boundary(3, 1)):
        reduced, pivots = d.reduction
        adjoint, adjoint_pivots = d.adjoint_reduction
        problems.append((d.matrix.codes, (reduced.codes, pivots), (adjoint.codes, adjoint_pivots)))
    with pytest.raises(DimensionError, match="differ"):
        min_cycle(problems, (1,), 1 << 20)


def test_matches_oracle_on_small_products():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d1 = random_boundary(3, 1, rng)
        d2 = random_boundary(4, 2, rng)
        assert_matches_oracle(product(d1, d2).partial)


def test_distance_sandwich_on_products():
    rng = np.random.default_rng(2)
    for _ in range(12):
        while True:
            m1 = int(rng.integers(2, 6))
            h1 = int(rng.integers(1, m1 + 1))
            if (m1 - h1) % 2 == 0:
                break
        d1 = random_boundary(m1, h1, rng)
        while True:
            m2 = int(rng.integers(2, 6))
            h2 = int(rng.integers(1, m2 + 1))
            if (m2 - h2) % 2 == 0:
                break
        d2 = random_boundary(m2, h2, rng)
        r1, r2 = distance(d1), distance(d2)
        rp = distance(product(d1, d2).partial)
        assert max(r1.d_z, r2.d_z) <= rp.d_z <= r1.d_z * r2.d_z
        assert max(r1.d_x, r2.d_x) <= rp.d_x <= r1.d_x * r2.d_x


def test_zero_operator_distance_one():
    res = distance(canonical_boundary(4, 0))
    assert res.d_z == 1 and res.d_x == 1
    assert res.cosets_scanned == 2 * (2**4 - 1)


def test_no_logicals_error():
    with pytest.raises(NoLogicalsError):
        distance(canonical_boundary(0, 2))


def test_budget_error_mentions_requirement():
    d = canonical_boundary(2, 2)
    with pytest.raises(BudgetError, match=r"at least \d+") as err:
        distance(d, budget=1)
    need = int(re.search(r"at least (\d+)", str(err.value)).group(1))
    assert need > 1
    assert distance(d, budget=need).d_z == distance(d).d_z == 1


def test_upper_bound_modes():
    d = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    w = distance_upper_bound(d, 3)
    assert w is not None and vector_weight(w) == 3
    assert distance_upper_bound(d, 2) is None
    assert distance_upper_bound(d, 0) is None


def test_upper_bound_witness_is_nontrivial_cycle():
    from homprod.gf2 import in_span

    rng = np.random.default_rng(3)
    d = random_boundary(8, 2, rng)
    exact = distance(d).d_z
    w = distance_upper_bound(d, exact)
    assert w is not None
    assert vector_weight(w) <= exact
    bits = vector_to_bits(w, 8)
    assert not ((d.matrix.to_dense() @ bits) % 2).any()
    assert not in_span(w, image_basis(d.matrix))


def test_parallel_matches_serial():
    rng = np.random.default_rng(4)
    for _ in range(6):
        d = random_boundary(8, 2, rng)
        base = distance(d)
        for threads in (2, 4, 8):
            par = distance_parallel(d, threads)
            assert par.d_z == base.d_z and par.d_x == base.d_x
            assert np.array_equal(par.witness_z, base.witness_z)
            assert np.array_equal(par.witness_x, base.witness_x)
            assert par.cosets_scanned == base.cosets_scanned


def test_witness_tie_break_is_lex_smallest():
    # zero operator: all weight-1 vectors are nontrivial cycles; comparing
    # coordinate sequences, (0,0,1) precedes (0,1,0) and (1,0,0)
    res = distance(canonical_boundary(3, 0))
    assert vector_to_bits(res.witness_z, 3).tolist() == [0, 0, 1]


def direct_sum(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.uint8)
    out[: a.rows, : a.cols] = a.to_dense()
    out[a.rows :, a.cols :] = b.to_dense()
    return BitMatrix.from_dense(out)


def test_multiword_upper_bound_path():
    # a 65-coordinate operator exercises the two-word representation; the
    # second summand has no homology, so the distance is the Steane block's
    steane = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    filler = canonical_boundary(0, 29)
    big = BoundaryOperator(direct_sum(steane.matrix, filler.matrix))
    assert big.m == 65 and big.hom_dim == 1
    w = distance_upper_bound(big, 3, budget=1 << 34)
    assert w is not None and vector_weight(w) <= 3


def test_witness_verification_rejects_non_cycles_and_trivial_cycles():
    d = boundary_from_checks(steane_check_basis(), BitMatrix.identity(3))
    logical = distance(d).witness_z
    assert verify_witness(d, logical) == 3
    non_cycle = vector_from_support(7, [0])
    assert ((d.matrix.to_dense() @ vector_to_bits(non_cycle, 7)) % 2).any()
    with pytest.raises(WitnessError, match="not a cycle"):
        verify_witness(d, non_cycle)
    stabilizer = steane_check_basis().vectors[0]
    with pytest.raises(WitnessError, match="trivial cycle"):
        verify_witness(d, stabilizer)
    with pytest.raises(DimensionError):
        verify_witness(d, np.zeros(2, dtype=np.uint64))


@st.composite
def operators(draw, max_m=10, min_h=1):
    m = draw(st.integers(min_h, max_m))
    h = draw(st.sampled_from([h for h in range(min_h, m + 1) if (m - h) % 2 == 0]))
    return random_boundary(m, h, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=80, deadline=None)
@given(operators())
def test_engine_matches_naive_enumeration(d):
    res = assert_matches_oracle(d)
    assert distance_upper_bound(d, res.d_z - 1) is None
    assert np.array_equal(distance_upper_bound(d, res.d_z), res.witness_z)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), operators(max_m=5))
def test_ties_break_to_the_weight_lex_least_cycle(zeros, d):
    # many cycles tie at the least weight: every unit vector of a zero
    # operator, and each lightest cycle of d, once in each copy, in d + d.
    # distance runs both sectors of d + d in one min_cycle, so each
    # sector's ties must be broken among its own candidates.  At 8 bytes
    # the ties are split over many blocks and each pool of them is cut to
    # its lex-least candidate as soon as it holds two
    for cap in (8, search._TABLE_BYTES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homprod.search._TABLE_BYTES", cap)
            assert_matches_oracle(BoundaryOperator(BitMatrix.zeros(zeros, zeros)))
            assert_matches_oracle(BoundaryOperator(direct_sum(d.matrix, d.matrix)))


@settings(max_examples=25, deadline=None)
@given(operators(max_m=8, min_h=2))
def test_witness_check_accepts_exactly_the_nontrivial_cycles(d):
    # every nonzero vector of both sectors, against an oracle of its own:
    # a cycle is trivial when it is some a x, with x over the whole space
    vs = np.array(list(itertools.product((0, 1), repeat=d.m)), dtype=np.int64)
    res = distance(d)
    transposed = BoundaryOperator(d.matrix.transpose())
    for op, witness in ((d, res.witness_z), (transposed, res.witness_x)):
        a = op.matrix.to_dense().astype(np.int64)
        images = {tuple(b) for b in (vs @ a.T) % 2}
        for v in vs[1:]:
            packed = vector_from_bits(v.astype(np.uint8))
            if ((a @ v) % 2).any():
                with pytest.raises(WitnessError, match="not a cycle"):
                    verify_witness(op, packed)
            elif tuple(v) in images:
                with pytest.raises(WitnessError, match="trivial cycle"):
                    verify_witness(op, packed)
            else:
                assert verify_witness(op, packed) == int(v.sum())
        assert verify_witness(op, witness) == vector_weight(witness)


@settings(max_examples=15, deadline=None)
@given(operators(max_m=8), st.booleans(), st.integers(0, 2**32 - 1))
def test_direct_sum_with_homology_free_block_pads_the_witness(small, small_first, seed):
    # past 64 coordinates, where vectors take two words: the summand without
    # homology adds no cycle classes, so the small operator's witnesses stand
    big = random_boundary(66 - small.m - small.m % 2, 0, np.random.default_rng(seed))
    blocks = (small.matrix, big.matrix) if small_first else (big.matrix, small.matrix)
    summed = BoundaryOperator(direct_sum(*blocks))
    assert summed.m > 64
    res, ref = distance(summed), distance(small)
    assert (res.d_z, res.d_x) == (ref.d_z, ref.d_x)
    offset = 0 if small_first else big.m
    for got, want in ((res.witness_z, ref.witness_z), (res.witness_x, ref.witness_x)):
        padded = np.zeros(summed.m, dtype=np.uint8)
        padded[offset : offset + small.m] = vector_to_bits(want, small.m)
        assert np.array_equal(vector_to_bits(got, summed.m), padded)
