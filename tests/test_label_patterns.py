"""Differential tests of the label-pattern certifiers against dense
right-hand sides.

The reference builds every right-hand side as a dense matrix from I, J and
K = I_m (x) J_n with elementwise numpy arithmetic, the way the certifiers
did before they looked coefficients up on a label pattern, and reports the
first row-major difference itself.  Both routes must give equal checks,
violations (identity, position, expected, actual), report text and
K-commutation classes, on the certified objects and on seeded single-entry
flips of them in every label class.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from block_route import first_difference, pattern
from sgdd.algebra import IntMatrix
from sgdd.classical import (
    hadamard_matrix,
    is_hadamard,
    is_weighing,
    paley_conference_matrix,
    signed_permutation_weighing_set,
)
from sgdd.designs import (
    Certificate,
    GddParams,
    IncidenceMatrix,
    KCommutation,
    check_bose,
    check_k_commutation,
    companion_params,
    group_labels,
    verify_gdd,
)
from sgdd.errors import ParameterError
from sgdd.linked import LinkedSystemII, build_from_mub_bush, build_twin, is_conference, pair_index, verify_linked_system
from sgdd.resolvable import AuxiliarySet, aux_from_affine_geometry, aux_from_hadamard, verify_auxiliary

# -- dense reference ------------------------------------------------------------


def _eye(v):
    return np.eye(v, dtype=np.int64)


def _ones(v):
    return np.ones((v, v), dtype=np.int64)


def _k(m, n):
    return np.kron(_eye(m), np.ones((n, n), dtype=np.int64))


def _ref_compare(cert, label, actual: IntMatrix, expected: np.ndarray):
    diff = np.argwhere(actual.a != expected)
    if diff.size == 0:
        cert.passed(label)
    else:
        pos = (int(diff[0][0]), int(diff[0][1]))
        cert.failed(label, pos, int(expected[pos]), int(actual.a[pos]))


def ref_expected_gram(p: GddParams) -> np.ndarray:
    i, j, k = _eye(p.v), _ones(p.v), _k(p.m, p.n)
    return p.k * i + p.lambda1 * (k - i) + p.lambda2 * (j - k)


def ref_verify_gdd(a: IncidenceMatrix, p: GddParams) -> Certificate:
    cert = Certificate(f"symmetric GDD {p}")
    if (a.v, a.m, a.n) != (p.v, p.m, p.n):
        cert.failed("dimension/group structure matches parameters", (0, 0))
        return cert
    gram = ref_expected_gram(p)
    _ref_compare(cert, "A A^T equals k I + l1 (K - I) + l2 (J - K)", a.mat @ a.mat.T, gram)
    _ref_compare(cert, "A^T A equals k I + l1 (K - I) + l2 (J - K)", a.mat.T @ a.mat, gram)
    return cert


def ref_check_k_commutation(a: IncidenceMatrix) -> KCommutation:
    kb = _k(a.m, a.n)
    ak, ka = a.mat.a @ kb, kb @ a.mat.a
    if not (ak == ka).all():
        return KCommutation("other")
    if not ak.any():
        return KCommutation("zero", Fraction(0))
    j = _ones(a.v)
    for cand, kind in ((j, "multiple_of_J"), (j - kb, "multiple_of_J_minus_K")):
        vals = ak[cand != 0]
        if vals.size and (vals == vals[0]).all():
            c = int(vals[0])
            if (ak == c * cand).all():
                return KCommutation(kind, Fraction(c))
    return KCommutation("other")


def ref_check_bose(a: IncidenceMatrix, p: GddParams) -> bool:
    kb = _k(a.m, a.n)
    lhs = a.mat @ IntMatrix(kb) @ a.mat.T
    coeff = p.n * (p.lambda1 - p.lambda2) + p.k - p.lambda1
    return bool((lhs.a == coeff * kb + p.n * p.lambda2 * _ones(p.v)).all())


def ref_verify_linked_system(sys: LinkedSystemII) -> Certificate:
    p = sys.params
    base = p.base
    cert = Certificate(f"linked system f={p.f} on {base}")
    pairs = [(i, j) for i in range(1, p.f + 1) for j in range(1, p.f + 1) if i != j]
    if set(sys.blocks) != set(pairs):
        cert.failed("blocks cover all ordered index pairs")
        return cert
    k_v, j_v = _k(base.m, base.n), _ones(base.v)
    for pair in pairs:
        blk = sys.blocks[pair]
        sub = ref_verify_gdd(blk, base)
        if sub.ok:
            cert.passed(f"block {pair} is a symmetric GDD")
        else:
            for v in sub.violations:
                cert.failed(f"block {pair}: {v.identity}", v.position, v.expected, v.actual)
        if IntMatrix(blk.mat.a + k_v).is_zero_one():
            cert.passed(f"block {pair}: A + K is a 0/1 matrix")
        else:
            cert.failed(f"block {pair}: A + K is a 0/1 matrix")
        comm = ref_check_k_commutation(blk)
        want = Fraction(base.k, base.m - 1)
        if comm.kind == "multiple_of_J_minus_K" and comm.factor == want:
            cert.passed(f"block {pair}: A K = K A = {want} (J - K)")
        else:
            cert.failed(f"block {pair}: A K = K A = k/(m-1) (J - K)")
    untransposed = [(i, j) for i, j in pairs if i < j and sys.blocks[(j, i)].mat != sys.blocks[(i, j)].mat.T]
    cert.notes.append(f"transpose-consistent blocks: {'no' if untransposed else 'yes'}")
    for i, j in untransposed:
        pos = first_difference(sys.blocks[(j, i)].mat, sys.blocks[(i, j)].mat.T)
        cert.failed(f"block {(j, i)} is the transpose of block {(i, j)}", pos)
    if p.f == 2:
        # A + K holds a 2 where A has a 1 inside K: its Gram identities are
        # checked on the integer matrix, which is no incidence matrix then
        comp = companion_params(base)
        plus = IntMatrix(sys.blocks[(1, 2)].mat.a + k_v)
        gram = ref_expected_gram(comp)
        sub = Certificate("")
        _ref_compare(sub, "A A^T equals k I + l1 (K - I) + l2 (J - K)", plus @ plus.T, gram)
        _ref_compare(sub, "A^T A equals k I + l1 (K - I) + l2 (J - K)", plus.T @ plus, gram)
        if sub.ok:
            cert.passed(f"pair: A + K is a symmetric GDD with {comp}")
        else:
            for v in sub.violations:
                cert.failed(f"pair companion: {v.identity}", v.position, v.expected, v.actual)
        return cert
    expected = {}
    for i, l in pairs:
        ail = sys.blocks[(i, l)].mat.a
        expected[(i, l)] = p.sigma * ail + p.tau * (j_v - ail - k_v) + p.rho * k_v
    for i, j in pairs:
        for l in range(1, p.f + 1):
            if l not in (i, j):
                prod = sys.blocks[(i, j)].mat @ sys.blocks[(j, l)].mat
                _ref_compare(cert, f"triple product ({i},{j},{l})", prod, expected[(i, l)])
    return cert


def ref_verify_auxiliary_matrices(aux: AuxiliarySet) -> Certificate:
    """The matrix axioms of ``verify_auxiliary``, without its arithmetic
    relations among the parameters."""
    cert = Certificate(f"auxiliary matrices {aux.params}")
    v, r, p = aux.order, aux.r, aux.params
    mats = [IntMatrix(c) for c in aux.stack]  # int64 copies
    total = sum(c.a for c in mats)
    rhs = (p.r - p.lam) * _eye(v) + p.lam * _ones(v)
    _ref_compare(cert, "sum C_i equals (r - lambda) I + lambda J", IntMatrix(total), rhs)
    for idx, c in enumerate(mats):
        _ref_compare(cert, f"C_{idx + 1} C_{idx + 1}^T = k C_{idx + 1}", c @ c.T, p.k * c.a)
    for a in range(r):
        for b in range(r):
            if a != b:
                prod = mats[a] @ mats[b].T
                _ref_compare(cert, f"C_{a + 1} C_{b + 1}^T = mu J", prod, p.mu * _ones(v))
    return cert


# -- comparison helpers ------------------------------------------------------------


def _outcome(fn, *args):
    """A certificate's checks, violations, notes and report text; a plain
    result; or the type and message of the exception raised."""
    try:
        out = fn(*args)
    except ParameterError as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(out, Certificate):
        kinds = [(type(v.expected), type(v.actual)) for v in out.violations]
        return (out.checks, out.violations, out.notes, str(out), kinds)
    return out


def _flip(mat: IncidenceMatrix, kind: str, rng: random.Random) -> IncidenceMatrix:
    """Flip one entry: on the diagonal, elsewhere in the row's group, or in
    another group."""
    v, n = mat.v, mat.n
    row = rng.randrange(v)
    if kind == "diagonal":
        col = row
    elif kind == "same group":
        col = rng.choice([c for c in range(v) if c // n == row // n and c != row])
    else:
        col = rng.choice([c for c in range(v) if c // n != row // n])
    arr = mat.mat.a.copy()
    arr[row, col] = 1 - arr[row, col]
    return IncidenceMatrix(IntMatrix(arr), mat.m, mat.n)


def _flip_block(sys: LinkedSystemII, kind: str, rng: random.Random) -> LinkedSystemII:
    pair = rng.choice(sorted(sys.blocks))
    stack = sys.stack.copy()
    stack[pair_index(sys.f, *pair)] = _flip(sys.blocks[pair], kind, rng).mat.a
    return LinkedSystemII(sys.params, stack)


KINDS = ("diagonal", "same group", "other group")


@pytest.fixture(scope="module")
def pair16(bush_pair):
    """An f = 2 system, so the companion A + K is certified."""
    return build_from_mub_bush(bush_pair[:1])


@pytest.fixture(scope="module")
def twin16():
    return build_twin(hadamard_matrix(4), signed_permutation_weighing_set(4))


# -- linked systems ----------------------------------------------------------------


@pytest.mark.parametrize("source, seeds", [("sys16", 3), ("sys45", 2), ("sys64", 1), ("pair16", 2)])
def test_linked_system_matches_dense_reference(source, seeds, request):
    sys = request.getfixturevalue(source)
    assert _outcome(verify_linked_system, sys) == _outcome(ref_verify_linked_system, sys)
    assert verify_linked_system(sys).ok
    for kind in KINDS:
        for seed in range(seeds):
            bad = _flip_block(sys, kind, random.Random(f"{source}-{kind}-{seed}"))
            new = _outcome(verify_linked_system, bad)
            assert new == _outcome(ref_verify_linked_system, bad)
            if new[0] != "raised":
                assert new[1], "a single flip must be reported"


# -- single designs ----------------------------------------------------------------


def test_designs_match_dense_reference(conference12, gcm24, twin16):
    cases = [
        ("conf12", *conference12),
        ("gcm24", *gcm24),
        ("twin16+", twin16.plus, twin16.params),
        ("twin16-", twin16.minus, twin16.params),
    ]
    for name, mat, params in cases:
        variants = [mat] + [_flip(mat, kind, random.Random(f"{name}-{kind}-{s}")) for kind in KINDS for s in range(3)]
        for a in variants:
            assert _outcome(verify_gdd, a, params) == _outcome(ref_verify_gdd, a, params)
            assert check_k_commutation(a) == ref_check_k_commutation(a)
            if params.lambda1 != params.lambda2:
                assert check_bose(a, params) == ref_check_bose(a, params)
        assert verify_gdd(mat, params).ok and not verify_gdd(variants[-1], params).ok


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 2), (4, 4)])
def test_k_commutation_classes_match_dense_reference(m, n):
    v = m * n
    k = _k(m, n)
    rng = np.random.default_rng(m * 10 + n)
    shapes = [np.zeros((v, v), dtype=np.int64), _ones(v), _ones(v) - k, k, _eye(v), _ones(v) - _eye(v)]
    shapes += [rng.integers(0, 2, size=(v, v)) for _ in range(4)]
    kinds = set()
    for arr in shapes:
        a = IncidenceMatrix(IntMatrix(arr), m, n)
        out = check_k_commutation(a)
        assert out == ref_check_k_commutation(a)
        kinds.add(out.kind)
    # with one group J - K is zero
    assert kinds == {"zero", "multiple_of_J", "other"} | ({"multiple_of_J_minus_K"} if m > 1 else set())


def test_group_labels_partition_the_group_pattern():
    labels = group_labels(3, 2)
    k = _k(3, 2)
    assert ((labels == 2) == _eye(6).astype(bool)).all()
    assert ((labels == 1) == (k - _eye(6)).astype(bool)).all()
    assert ((labels == 0) == (_ones(6) - k).astype(bool)).all()
    assert (pattern(labels, (5, 7, 11)) == 11 * _eye(6) + 7 * (k - _eye(6)) + 5 * (_ones(6) - k)).all()


# -- auxiliary sets ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: aux_from_hadamard(hadamard_matrix(8)), lambda: aux_from_affine_geometry(3, 1)], ids=["had8", "ag3"]
)
def test_auxiliary_matches_dense_reference(make):
    aux = make()
    matrix_axiom = ("sum C_i", "C_")

    def matrix_part(cert):
        return (
            [c for c in cert.checks if c.startswith(matrix_axiom)],
            [v for v in cert.violations if v.identity.startswith(matrix_axiom)],
        )

    assert matrix_part(verify_auxiliary(aux)) == matrix_part(ref_verify_auxiliary_matrices(aux))
    rng = random.Random(aux.order)
    aux_kinds = ("diagonal", "inside C_i", "outside C_i")

    def check_flip(kind, idx):
        c = aux.stack[idx]
        x = rng.randrange(aux.order)
        if kind == "diagonal":
            y = x
        else:
            want = 1 if kind == "inside C_i" else 0
            y = rng.choice([t for t in range(aux.order) if t != x and c[x, t] == want])
        stack = aux.stack.copy()
        stack[idx, x, y] ^= 1
        bad = AuxiliarySet(stack, aux.params)
        checks, violations = matrix_part(verify_auxiliary(bad))
        assert violations
        assert (checks, violations) == matrix_part(ref_verify_auxiliary_matrices(bad))
        assert all(type(v.expected) is int and type(v.actual) is int for v in violations)

    for kind in aux_kinds:
        for _ in range(3):
            check_flip(kind, rng.randrange(aux.r))
    # one seeded flip in every C_i
    for idx in range(aux.r):
        check_flip(rng.choice(aux_kinds), idx)


# -- weighing predicates -----------------------------------------------------------


def ref_is_weighing(arr: np.ndarray, weight=None) -> bool:
    if arr.shape[0] != arr.shape[1] or not np.isin(arr, (-1, 0, 1)).all():
        return False
    gram = arr @ arr.T
    weight = gram[0, 0] if weight is None else weight
    return bool((gram == weight * _eye(len(arr))).all())


def _predicates(arr: np.ndarray):
    mat = IntMatrix(arr)
    n = len(arr)
    ours = (is_hadamard(mat), is_weighing(mat), is_weighing(mat, n - 1), is_conference(mat))
    ref = (
        bool((arr != 0).all()) and ref_is_weighing(arr, n),
        ref_is_weighing(arr),
        ref_is_weighing(arr, n - 1),
        not np.diagonal(arr).any() and ref_is_weighing(arr, n - 1),
    )
    assert ours == ref
    return ours


@pytest.mark.parametrize(
    "name, make",
    [
        *((f"hadamard{n}", lambda n=n: hadamard_matrix(n)) for n in (4, 8, 12)),
        ("weighing5", lambda: signed_permutation_weighing_set(5)[1]),
        *((f"paley{n}", lambda n=n: paley_conference_matrix(n)) for n in (6, 10, 14)),
    ],
)
def test_weighing_predicates_match_dense_reference(name, make):
    arr = make().a
    assert any(_predicates(arr))
    rng = random.Random(name)
    for _ in range(6):
        # one seeded sign flip: an entry negated, a zero entry set to 1
        x, y = rng.randrange(len(arr)), rng.randrange(len(arr))
        bad = arr.copy()
        bad[x, y] = -bad[x, y] if bad[x, y] else 1
        hadamard, _, weight_n1, conference = _predicates(bad)
        # a signed permutation stays one under a sign flip: is_weighing(bad) may hold
        assert not (hadamard or weight_n1 or conference)
    # a column shift keeps every weight but moves the zeros off the diagonal
    assert _predicates(np.roll(arr, 1, axis=1))[2:] == ("paley" in name, False)
    # a non-square matrix is none of them
    assert not any((is_hadamard(IntMatrix(arr[:-1])), is_weighing(IntMatrix(arr[:-1])), is_conference(IntMatrix(arr[:-1]))))
