import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.designs import (
    GddParams,
    check_bose,
    check_k_commutation,
    companion_params,
    group_labels,
    lambda_formulas,
    partial_complement,
    partial_complement_params,
    verify_gdd,
)
from sgdd.errors import DegenerateDesignError, FormatError, ParameterError
from sgdd.latin import pair_index
from sgdd.linked import LinkedParams, LinkedSystemII, pair_system
from block_route import pattern


def test_complete_design_degenerate_check():
    p = GddParams(4, 3, 2, 2, 2, 2)
    a = 1 - np.eye(4, dtype=np.int64)
    assert verify_gdd(a, p).ok


def test_single_bit_flip_locates_violation():
    p = GddParams(4, 3, 2, 2, 2, 2)
    arr = 1 - np.eye(4, dtype=np.int64)
    arr[0, 1] = 0
    cert = verify_gdd(arr, p)
    assert not cert.ok
    assert all(v.position is not None for v in cert.violations)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("source", ["sys16", "sys45"])
def test_single_flip_fails_verify_gdd_on_blas_lane(source, seed, request, corrupt_system, matmul_lanes):
    sys, pair = corrupt_system(request.getfixturevalue(source), seed)
    cert = verify_gdd(sys.stack[pair_index(sys.f, *pair)], sys.params.base)
    assert not cert.ok
    assert {v.identity.split(" ")[0] for v in cert.violations} == {"A", "A^T"}
    assert matmul_lanes and set(matmul_lanes) == {np.float32}


def test_tilde_block_certifies(sys16):
    cert = verify_gdd(sys16.stack[pair_index(sys16.f, 1, 2)], sys16.params.base)
    assert cert.ok


def test_tilde_block_against_brute_force_inner_products(sys16):
    # independent oracle: row inner products by explicit summation, compared
    # cell by cell with k I + l1 (K - I) + l2 (J - K)
    blk = sys16.stack[pair_index(sys16.f, 1, 2)]
    p = sys16.params.base
    rows = [blk[i].tolist() for i in range(p.v)]
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


def test_bose_widens_no_product(conference12, gcm24, monkeypatch):
    """(A G)(A G)^T is formed from A G as its lane holds it: the transpose
    is a view, and no product is widened to int64 on the way."""
    from sgdd.classical import paley_conference_matrix
    from sgdd.linked import conference_to_gdd

    conference28 = conference_to_gdd(paley_conference_matrix(14))
    widened, read = [], IntMatrix.a.fget

    def spy(self):
        if self._a is None:
            widened.append(self.lane.dtype)
        return read(self)

    monkeypatch.setattr(IntMatrix, "a", property(spy))
    for mat, params in (conference12, conference28, gcm24):
        assert check_bose(mat, params)
    assert widened == []


def test_transpose_keeps_the_lane():
    prod = IntMatrix([[1, 2], [3, 4]]) @ IntMatrix([[1, 0], [1, 1]])
    assert prod.lane.dtype == np.float32
    flip = prod.T
    assert flip.lane.dtype == np.float32 and flip.lane.base is prod.lane
    assert flip.entries() == [3, 7, 2, 4]
    held = IntMatrix([[1, 2], [3, 4]])
    assert held.T.a.base is held.a and held.T.a.dtype == np.int64


def test_bose_requires_distinct_lambdas(sys16):
    with pytest.raises(ParameterError):
        check_bose(sys16.stack[pair_index(sys16.f, 1, 2)], sys16.params.base)


def test_bose_negative_control():
    rng = np.random.default_rng(7)
    p = GddParams(12, 5, 6, 2, 0, 2)
    a = rng.integers(0, 2, size=(12, 12))
    assert not check_bose(a, p)


def test_partial_complement_params_formulas():
    p = partial_complement_params(GddParams(16, 6, 4, 4, 2, 2))
    assert (p.v, p.k, p.lambda1, p.lambda2) == (16, 6, 2, 2)
    p45 = partial_complement_params(GddParams(45, 12, 5, 9, 3, 3))
    assert (p45.v, p45.k, p45.m, p45.n, p45.lambda1, p45.lambda2) == (45, 24, 5, 9, 15, 12)


def test_partial_complement_involution(sys16, sys45):
    for system in (sys16, sys45):
        blk = system.stack[pair_index(system.f, 1, 2)]
        comp, cp = partial_complement(blk, system.params.base)
        back, bp = partial_complement(comp, cp)
        assert np.array_equal(back, blk)
        assert bp == system.params.base


def test_partial_complement_rejects_diagonal_support():
    p = GddParams(4, 3, 2, 2, 2, 2)
    a = 1 - np.eye(4, dtype=np.int64)
    with pytest.raises(ParameterError):
        partial_complement(a, p)


def test_k_commutation_classification(conference12, sys16):
    mat, p12 = conference12
    out = check_k_commutation(mat, p12)
    assert out.kind == "multiple_of_J_minus_K" and out.factor == 1
    out16 = check_k_commutation(sys16.stack[pair_index(sys16.f, 1, 2)], sys16.params.base)
    assert out16.kind == "multiple_of_J_minus_K" and out16.factor == Fraction(6, 3)
    # any parameters with three groups of two points: only m and n are read
    k_itself = (group_labels(3, 2) > 0).astype(np.int64)
    assert check_k_commutation(k_itself, GddParams(6, 3, 3, 2, 2, 1)).kind == "other"


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
    arr = mat[np.ix_(row_perm, col_perm)]
    cert = verify_gdd(arr, params)
    assert cert.ok


@pytest.fixture(scope="module")
def sys16_blocks(sys16):
    return sys16.stack[pair_index(sys16.f, 1, 2)], sys16.params.base


def test_verify_gdd_dimension_mismatch_reported():
    p = GddParams(4, 3, 2, 2, 2, 2)
    big = 1 - np.eye(6, dtype=np.int64)
    with pytest.raises(ParameterError, match=r"^order 6 != m\*n = 4$"):
        verify_gdd(big, p)


def test_verify_gdd_is_exact_past_int64():
    # lambda2 = (k^2 - k)/2 lies in [2^63, 2^64): its coefficient needs Python
    # integers, and a float64 table would report "expected 4294967298.0"
    k = 2**32 + 2
    p = GddParams(4, k, 2, 2, 0, (k * k - k) // 2)
    assert 2**63 <= p.lambda2 < 2**64
    perm = np.eye(4, dtype=np.int64)[[1, 0, 3, 2]]
    cert = verify_gdd(perm, p)
    tail = "equals k I + l1 (K - I) + l2 (J - K) at (0, 0) (expected 4294967298, got 1)"
    assert [str(v) for v in cert.violations] == [f"A A^T {tail}", f"A^T A {tail}"]
    assert all(type(v.expected) is int and type(v.actual) is int for v in cert.violations)
    expected = pattern(group_labels(2, 2), (p.lambda2, p.lambda1, p.k))
    assert expected[0, 2] == p.lambda2 and type(expected[0, 2]) is int


REFUSAL_BASE = GddParams(4, 2, 2, 2, 0, 1)


def _system_file(a: np.ndarray) -> bytes:
    """A two-index linked-system file on REFUSAL_BASE whose blocks are
    both ``a``, written token by token."""
    block = f"{a.shape[0]} {a.shape[1]}\n" + "".join(" ".join(map(str, row)) + "\n" for row in a.tolist())
    return ("2 4 2 2 2 0 1 - - -\n" + 2 * block).encode()


# every entry point that takes a design or a stack of blocks as an array
DESIGN_ENTRY_POINTS = {
    "verify_gdd": lambda a: verify_gdd(a, REFUSAL_BASE),
    "check_bose": lambda a: check_bose(a, REFUSAL_BASE),
    "check_k_commutation": lambda a: check_k_commutation(a, REFUSAL_BASE),
    "partial_complement": lambda a: partial_complement(a, REFUSAL_BASE),
    "pair_system": lambda a: pair_system(a, REFUSAL_BASE),
    "LinkedSystemII": lambda a: LinkedSystemII(LinkedParams(REFUSAL_BASE, 2, None, None, None), np.stack([a, a])),
    "read_linked_system": lambda a: fileio.read_linked_system(io.BytesIO(_system_file(a))),
}


def _with_entry(value: int) -> np.ndarray:
    arr = np.eye(4, dtype=np.int64)
    arr[0, 1] = value
    return arr


@pytest.mark.parametrize("entry", sorted(DESIGN_ENTRY_POINTS))
@pytest.mark.parametrize(
    "arr, message",
    [
        (np.zeros((4, 3), dtype=np.uint8), "incidence matrix must be square"),
        (np.eye(3, dtype=np.uint8), r"order 3 != m\*n = 4"),
        (_with_entry(2), "incidence matrix entries must be 0 or 1"),
        # 256 is refused before the entries are narrowed, where it would wrap to 0
        (_with_entry(256), "incidence matrix entries must be 0 or 1"),
        (np.eye(4), "IntMatrix.view takes a matrix or a stack of int64, object, uint8 or bool entries"),
    ],
    ids=["non-square", "wrong-order", "entry-2", "entry-256", "float"],
)
def test_design_entry_points_refuse_what_is_not_a_design(entry, arr, message):
    """Each entry point refuses a non-square array, one of the wrong order,
    an entry of 2 or of 256, and a float array, with the message of
    ``designs.incidence``; a file has no float dtype, so the reader refuses
    a token "1.0" as not an integer."""
    if entry == "read_linked_system" and arr.dtype.kind == "f":
        error, message = FormatError, "linked system: non-integer token on line 3"
    else:
        error = ParameterError
    with pytest.raises(error, match=f"^{message}$"):
        DESIGN_ENTRY_POINTS[entry](arr)
