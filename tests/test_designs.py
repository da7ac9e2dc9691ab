from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdd.algebra import IntMatrix
from sgdd.designs import (
    GddParams,
    IncidenceMatrix,
    check_bose,
    check_k_commutation,
    companion_params,
    group_labels,
    lambda_formulas,
    partial_complement,
    partial_complement_params,
    verify_gdd,
)
from sgdd.errors import DegenerateDesignError, ParameterError
from block_route import pattern


def test_complete_design_degenerate_check():
    p = GddParams(4, 3, 2, 2, 2, 2)
    a = IncidenceMatrix(IntMatrix(1 - np.eye(4, dtype=np.int64)), 2, 2)
    assert verify_gdd(a, p).ok


def test_single_bit_flip_locates_violation():
    p = GddParams(4, 3, 2, 2, 2, 2)
    arr = 1 - np.eye(4, dtype=np.int64)
    arr[0, 1] = 0
    cert = verify_gdd(IncidenceMatrix(IntMatrix(arr), 2, 2), p)
    assert not cert.ok
    assert all(v.position is not None for v in cert.violations)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("source", ["sys16", "sys45"])
def test_single_flip_fails_verify_gdd_on_blas_lane(source, seed, request, corrupt_system, matmul_lanes):
    sys, pair = corrupt_system(request.getfixturevalue(source), seed)
    cert = verify_gdd(sys.blocks[pair], sys.params.base)
    assert not cert.ok
    assert {v.identity.split(" ")[0] for v in cert.violations} == {"A", "A^T"}
    assert matmul_lanes and set(matmul_lanes) == {np.float32}


def test_tilde_block_certifies(sys16):
    cert = verify_gdd(sys16.blocks[(1, 2)], sys16.params.base)
    assert cert.ok


def test_tilde_block_against_brute_force_inner_products(sys16):
    # independent oracle: row inner products by explicit summation, compared
    # cell by cell with k I + l1 (K - I) + l2 (J - K)
    blk = sys16.blocks[(1, 2)]
    p = sys16.params.base
    rows = [blk.mat.row(i) for i in range(p.v)]
    for x in range(p.v):
        for y in range(p.v):
            inner = sum(a * b for a, b in zip(rows[x], rows[y]))
            same_group = x // p.n == y // p.n
            if x == y:
                expected = p.k
            elif same_group:
                expected = p.lambda1
            else:
                expected = p.lambda2
            assert inner == expected


def test_eq2_enforced_at_construction():
    with pytest.raises(ParameterError):
        GddParams(16, 6, 4, 4, 2, 3)
    with pytest.raises(DegenerateDesignError):
        GddParams(16, 4, 4, 4, 4, 1)


def test_bose_identity_on_certified_designs(conference12, gcm24):
    for mat, params in (conference12, gcm24):
        assert params.lambda1 != params.lambda2
        assert check_bose(mat, params)


def test_bose_requires_distinct_lambdas(sys16):
    with pytest.raises(ParameterError):
        check_bose(sys16.blocks[(1, 2)], sys16.params.base)


def test_bose_negative_control():
    rng = np.random.default_rng(7)
    p = GddParams(12, 5, 6, 2, 0, 2)
    a = IncidenceMatrix(IntMatrix(rng.integers(0, 2, size=(12, 12))), 6, 2)
    assert not check_bose(a, p)


def test_partial_complement_params_formulas():
    p = partial_complement_params(GddParams(16, 6, 4, 4, 2, 2))
    assert (p.v, p.k, p.lambda1, p.lambda2) == (16, 6, 2, 2)
    p45 = partial_complement_params(GddParams(45, 12, 5, 9, 3, 3))
    assert (p45.v, p45.k, p45.m, p45.n, p45.lambda1, p45.lambda2) == (45, 24, 5, 9, 15, 12)


def test_partial_complement_involution(sys16, sys45):
    for system in (sys16, sys45):
        blk = system.blocks[(1, 2)]
        comp, cp = partial_complement(blk, system.params.base)
        back, bp = partial_complement(comp, cp)
        assert back.mat == blk.mat
        assert bp == system.params.base


def test_partial_complement_rejects_diagonal_support():
    p = GddParams(4, 3, 2, 2, 2, 2)
    a = IncidenceMatrix(IntMatrix(1 - np.eye(4, dtype=np.int64)), 2, 2)
    with pytest.raises(ParameterError):
        partial_complement(a, p)


def test_k_commutation_classification(conference12, sys16):
    mat, _ = conference12
    out = check_k_commutation(mat)
    assert out.kind == "multiple_of_J_minus_K" and out.factor == 1
    out16 = check_k_commutation(sys16.blocks[(1, 2)])
    assert out16.kind == "multiple_of_J_minus_K" and out16.factor == Fraction(6, 3)
    k_itself = IncidenceMatrix(IntMatrix((group_labels(3, 2) > 0).astype(np.int64)), 3, 2)
    assert check_k_commutation(k_itself).kind == "other"


def test_lambda_formulas_closed_form():
    assert lambda_formulas(6, 4, 4) == (Fraction(2), Fraction(2))
    assert lambda_formulas(24, 13, 4) == (Fraction(8), Fraction(11))
    assert lambda_formulas(12, 5, 9) == (Fraction(3), Fraction(3))


def test_lambda_formulas_reproduce_certified_parameters(sys16, sys45, gcm24):
    for base in (sys16.params.base, sys45.params.base, gcm24[1]):
        l1, l2 = lambda_formulas(base.k, base.m, base.n)
        assert (l1, l2) == (base.lambda1, base.lambda2)


def test_companion_params(conference12):
    _, p12 = conference12
    comp = companion_params(p12)
    assert (comp.k, comp.lambda1, comp.lambda2) == (7, 2, 4)


@st.composite
def group_permutation(draw, m, n):
    """Permutation respecting the group partition: permute groups, then
    points inside each group."""
    rng_groups = draw(st.permutations(range(m)))
    inner = [draw(st.permutations(range(n))) for _ in range(m)]
    return [rng_groups[g] * n + inner[g][x] for g in range(m) for x in range(n)]


@given(group_permutation(4, 4), group_permutation(4, 4))
@settings(max_examples=25, deadline=None)
def test_verification_invariant_under_group_permutations(sys16_blocks, row_perm, col_perm):
    mat, params = sys16_blocks
    arr = mat.mat.a[np.ix_(row_perm, col_perm)]
    cert = verify_gdd(IncidenceMatrix(IntMatrix(arr), params.m, params.n), params)
    assert cert.ok


@pytest.fixture(scope="module")
def sys16_blocks(sys16):
    return sys16.blocks[(1, 2)], sys16.params.base


def test_verify_gdd_dimension_mismatch_reported():
    p = GddParams(4, 3, 2, 2, 2, 2)
    big = IncidenceMatrix(IntMatrix(1 - np.eye(6, dtype=np.int64)), 3, 2)
    cert = verify_gdd(big, p)
    assert not cert.ok


def test_verify_gdd_is_exact_past_int64():
    # lambda2 = (k^2 - k)/2 lies in [2^63, 2^64): its coefficient needs Python
    # integers, and a float64 table would report "expected 4294967298.0"
    k = 2**32 + 2
    p = GddParams(4, k, 2, 2, 0, (k * k - k) // 2)
    assert 2**63 <= p.lambda2 < 2**64
    perm = IncidenceMatrix(IntMatrix(np.eye(4, dtype=np.int64)[[1, 0, 3, 2]]), 2, 2)
    cert = verify_gdd(perm, p)
    tail = "equals k I + l1 (K - I) + l2 (J - K) at (0, 0) (expected 4294967298, got 1)"
    assert [str(v) for v in cert.violations] == [f"A A^T {tail}", f"A^T A {tail}"]
    assert all(type(v.expected) is int and type(v.actual) is int for v in cert.violations)
    expected = pattern(group_labels(2, 2), (p.lambda2, p.lambda1, p.k))
    assert expected[0, 2] == p.lambda2 and type(expected[0, 2]) is int
