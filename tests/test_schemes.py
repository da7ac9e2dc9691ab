import random
from fractions import Fraction

import numpy as np
import pytest

from sgdd.algebra import IntMatrix, Surd, SurdMatrix
from sgdd.designs import Certificate
from sgdd.errors import CertificationError
from sgdd.linked import pair_system
import sgdd.schemes
from sgdd.schemes import (
    CLASSES,
    FUSION_PARTITION,
    SchemeParams,
    assemble_scheme,
    check_fusion,
    closed_form_krein_b2,
    coeff_mul,
    compute_intersection_numbers,
    extract_linked_system,
    fuse_classes,
    load_scheme,
)


def test_48_vertex_scheme_basics(scheme48):
    assert scheme48.size == 48
    assert scheme48.valencies() == [1, 3, 12, 12, 12, 8]
    p = scheme48.p
    assert p[1][1][0] == 3
    assert p[3][3][0] == 12
    # lambda recovery from the design class products
    f = scheme48.params.f
    assert p[3][3][1] // (f - 1) == 2
    assert p[3][3][2] // (f - 1) == 2
    # the cross-fiber leftover coefficient carries (f-2) tau, not lambda2
    assert p[3][3][4] == (f - 2) * 1


def test_48_vertex_spectra(scheme48):
    spectra = scheme48.spectra
    assert [spectra.P[0, i] for i in range(CLASSES)] == [Surd.of(x) for x in (1, 3, 12, 12, 12, 8)]
    assert spectra.multiplicities == [1, 12, 3, 6, 24, 2]
    assert sum(spectra.multiplicities) == 48
    prod = spectra.P @ spectra.Q
    assert prod == SurdMatrix.identity(CLASSES).scalar_mul(48)
    # discriminant collapses to a rational square here
    assert spectra.radicand == 0
    assert spectra.P[1, 3] == Surd.of(4)


def test_48_vertex_krein(scheme48):
    q = scheme48.krein
    assert q[2][1][1] == Surd.of(Fraction(1, 3))
    assert q[2][0][2] == Surd.of(1)
    b2 = closed_form_krein_b2(scheme48.params)
    assert all(q[2][j][k] == b2[j][k] for j in range(CLASSES) for k in range(CLASSES))
    assert all(
        q[i][j][k].sign() >= 0 for i in range(CLASSES) for j in range(CLASSES) for k in range(CLASSES)
    )


def test_degenerate_degrees_rejected():
    with pytest.raises(Exception):
        SchemeParams(k=0, m=4, n=4, f=3)      # empty cross-fiber design class
    with pytest.raises(Exception):
        SchemeParams(k=12, m=4, n=4, f=3)     # k = (m-1)n empties the leftover class


def test_krein_closed_form_flags_excess_fibers():
    # m/f - 1 < 0 exactly when f > m; the bound f <= m in closed form
    b2 = closed_form_krein_b2(SchemeParams(k=6, m=4, n=4, f=3))
    assert b2[1][1].sign() >= 0
    bad = closed_form_krein_b2(SchemeParams(k=6, m=4, n=4, f=5))
    assert bad[1][1].sign() < 0


def test_dense_idempotents_cross_check(scheme48):
    # dual route: dense matrix arithmetic for two idempotents at 48 vertices
    e1 = scheme48.idempotent_matrix(1)
    e4 = scheme48.idempotent_matrix(4)
    assert e1 @ e1 == e1
    prod = e1 @ e4
    zero = SurdMatrix.zeros(48)
    assert prod == zero
    assert e1.trace() == Surd.of(12)
    # Krein value by the literal trace formula:
    # q_{1,4}^k needs tr((E_1 o E_4) E_k); check one entry against the tensor
    had = e1.hadamard(e4)
    e2 = scheme48.idempotent_matrix(2)
    trace = (had @ e2).trace()
    val = trace * Fraction(48, scheme48.spectra.multiplicities[2])
    assert val == scheme48.krein[1][4][2]


def test_135_vertex_scheme(scheme135):
    assert scheme135.size == 135
    assert scheme135.valencies() == [1, 8, 36, 24, 48, 18]
    assert scheme135.certificate.ok


def test_f2_scheme_with_genuine_surds(conference12):
    mat, params = conference12
    scheme = assemble_scheme(pair_system(mat, params))
    assert scheme.size == 24
    assert scheme.spectra.radicand == 5
    assert scheme.spectra.P[1, 3] == Surd.of(0, 1, 5)
    prod = scheme.spectra.P @ scheme.spectra.Q
    assert prod == SurdMatrix.identity(CLASSES).scalar_mul(24)
    assert scheme.krein[2][1][1] == Surd.of(Fraction(6, 2) - 1)


def test_f2_scheme_from_gcm(gcm24):
    mat, params = gcm24
    scheme = assemble_scheme(pair_system(mat, params))
    assert scheme.size == 48
    assert scheme.spectra.radicand == 5
    rep = extract_linked_system(scheme.matrices)
    assert rep.primary.system.blocks[(1, 2)].mat == mat.mat


def test_extract_roundtrip(scheme48, sys16):
    rep = extract_linked_system(scheme48.matrices)
    primary = rep.primary
    assert primary.labels == (0, 1, 2, 3, 4, 5)
    assert primary.triple == (3, 1, 3)
    assert primary.spectra_match
    for pair, blk in sys16.blocks.items():
        assert primary.system.blocks[pair].mat == blk.mat


def test_extract_reports_both_readings(scheme48):
    rep = extract_linked_system(scheme48.matrices)
    assert len(rep.candidates) == 2
    alt = [c for c in rep.candidates if c is not rep.primary][0]
    assert alt.triple == (1, 3, 3)
    assert not alt.spectra_match  # mirrored branch fails the closed forms
    assert alt.certified          # but certifies as a linked system


def test_extract_swapped_labels(scheme48):
    mats = list(scheme48.matrices)
    mats[3], mats[4] = mats[4], mats[3]
    rep = extract_linked_system(mats)
    primary = rep.primary
    assert primary.labels == (0, 1, 2, 4, 3, 5)
    assert primary.triple == (3, 1, 3)
    assert primary.spectra_match and primary.certified


def test_load_scheme_certifies_once(scheme48, monkeypatch):
    calls = []
    dense = sgdd.schemes.compute_intersection_numbers

    def counted(mats):
        calls.append(len(mats))
        return dense(mats)

    monkeypatch.setattr(sgdd.schemes, "compute_intersection_numbers", counted)
    mats = list(scheme48.matrices)
    mats[3], mats[4] = mats[4], mats[3]
    scheme, primary = load_scheme(mats)
    assert calls == [CLASSES]
    assert primary.labels == (0, 1, 2, 4, 3, 5)
    assert scheme.matrices == scheme48.matrices
    assert scheme.p == scheme48.p
    assert scheme.krein == scheme48.krein
    cert = scheme.certificate
    assert cert.ok
    assert "all products A_i A_j decompose with constant class coefficients" in cert.checks
    assert "P Q = |X| I" in cert.checks
    assert "all Krein parameters are non-negative" in cert.checks
    assert cert.checks == scheme48.certificate.checks


def test_extract_rejects_non_scheme(scheme48):
    mats = list(scheme48.matrices)
    arr = mats[3].a.copy()
    arr[0, 1] ^= 1
    arr[1, 0] ^= 1
    mats[3] = IntMatrix(arr)
    arr4 = mats[4].a.copy()
    arr4[0, 1] ^= 1
    arr4[1, 0] ^= 1
    mats[4] = IntMatrix(arr4)
    with pytest.raises(CertificationError):
        extract_linked_system(mats)


def test_fusion_at_16(scheme48):
    report = check_fusion(scheme48)
    assert report.fusable and report.predicted and report.consistent
    assert report.eigenspace_partition == ((0,), (1, 2), (3, 4), (5,))
    # the fused classes satisfy the axioms on their own, and the dense
    # route agrees with the fused p that check_fusion derives from scheme.p
    p, cert = compute_intersection_numbers(report.fused_matrices)
    assert cert.ok and p is not None
    assert p == fuse_classes(scheme48.p, FUSION_PARTITION)


def test_fusion_fails_off_locus(scheme135):
    report = check_fusion(scheme135)
    assert not report.fusable and not report.predicted and report.consistent


def test_trivial_fusion_always_works(scheme48):
    fused = fuse_classes(scheme48.p, ((0,), (1, 2, 3, 4, 5)))
    assert fused is not None


def test_pair_extraction_f2(conference12):
    mat, params = conference12
    scheme = assemble_scheme(pair_system(mat, params))
    rep = extract_linked_system(scheme.matrices)
    primary = rep.primary
    assert primary.params.f == 2
    assert primary.triple is None
    assert primary.certified


def test_extract_under_arbitrary_vertex_permutation(scheme48):
    rng = np.random.default_rng(11)
    perm = rng.permutation(48)
    mats = [IntMatrix(m.a[np.ix_(perm, perm)]) for m in scheme48.matrices]
    rep = extract_linked_system(mats)
    primary = rep.primary
    assert primary.spectra_match and primary.certified
    assert primary.triple == (3, 1, 3)
    assert primary.params == scheme48.params


def test_maximal_systems_attain_krein_bound():
    from sgdd.classical import hadamard_matrix
    from sgdd.latin import search_linked_mols
    from sgdd.linked import build_tilde_l
    from sgdd.resolvable import aux_from_affine_geometry, aux_from_hadamard

    fam4 = search_linked_mols(4, 4)
    scheme64 = assemble_scheme(build_tilde_l(aux_from_hadamard(hadamard_matrix(4)), fam4))
    assert scheme64.params.f == scheme64.params.m == 4
    assert scheme64.krein[2][1][1] == Surd.of(0)  # m/f - 1 vanishes at the bound

    fam5 = search_linked_mols(5, 5)
    scheme225 = assemble_scheme(build_tilde_l(aux_from_affine_geometry(3, 1), fam5))
    assert scheme225.params.f == scheme225.params.m == 5
    assert scheme225.krein[2][1][1] == Surd.of(0)


def test_minimal_scheme_from_degenerate_conference():
    from sgdd.linked import conference_to_gdd, pair_system

    mat, params = conference_to_gdd(IntMatrix([[0, 1], [1, 0]]))
    scheme = assemble_scheme(pair_system(mat, params))
    assert scheme.size == 8
    assert scheme.valencies() == [1, 1, 2, 1, 1, 2]
    rep = extract_linked_system(scheme.matrices)
    # at m = n = 2 every structural role is interchangeable: all four
    # readings certify, and the primary one reproduces the input blocks
    assert len(rep.candidates) == 4
    assert all(c.certified and c.spectra_match for c in rep.candidates)
    assert rep.primary.system.blocks[(1, 2)].mat == mat.mat
    fusion = check_fusion(scheme)
    assert fusion.fusable and fusion.predicted


# -- differential checks against the full routes ------------------------------------


def _intersection_numbers_all_products(mats):
    """Reference route: all (d+1)^2 products A_i A_j, then the lower-index
    symmetry of p compared entry by entry."""
    cert = Certificate("association scheme axioms")
    d1 = len(mats)
    size = mats[0].rows
    if mats[0] != IntMatrix.identity(size):
        cert.failed("A_0 = I", (0, 0))
    else:
        cert.passed("A_0 = I")
    total = IntMatrix.zeros(size)
    for idx, mat in enumerate(mats):
        if not (mat.is_square and mat.rows == size and mat.is_zero_one()):
            cert.failed(f"A_{idx} is a square 0/1 matrix of order {size}")
            return None, cert
        if not mat.is_symmetric():
            cert.failed(f"A_{idx} is symmetric")
        total = total + mat
    cert.compare("sum A_i = J", total, IntMatrix.ones(size))
    if idx_zero := [i for i, mat in enumerate(mats) if mat == IntMatrix.zeros(size)]:
        cert.failed(f"classes {idx_zero} are empty")
    if not cert.ok:
        return None, cert
    masks = [mat.a.astype(bool) for mat in mats]
    p = [[[0] * d1 for _ in range(d1)] for _ in range(d1)]
    for i in range(d1):
        for j in range(d1):
            prod = (mats[i] @ mats[j]).a
            for k in range(d1):
                vals = prod[masks[k]]
                v0 = int(vals[0])
                if not (vals == v0).all():
                    cert.failed(f"A_{i} A_{j} is not constant on class {k}")
                    return None, cert
                p[i][j][k] = v0
    for i in range(d1):
        for j in range(d1):
            for k in range(d1):
                if p[i][j][k] != p[j][i][k]:
                    cert.failed(f"p_{i}{j}^{k} != p_{j}{i}^{k}")
                    return None, cert
    cert.passed("all products A_i A_j decompose with constant class coefficients")
    cert.passed("intersection numbers are symmetric in the lower indices")
    return p, cert


def _krein_by_coefficient_algebra(scheme):
    """Reference route: q_{i,j}^k = |X| tr((E_i o E_j) E_k) / m_k, with the
    product E_i o E_j times E_k taken in the coefficient algebra of p."""
    size = scheme.size
    inv = Surd.of(Fraction(1, size))
    e = [[scheme.spectra.Q[i, j] * inv for i in range(CLASSES)] for j in range(CLASSES)]
    mult = scheme.spectra.multiplicities
    q = [[[Surd.of(0)] * CLASSES for _ in range(CLASSES)] for _ in range(CLASSES)]
    for i in range(CLASSES):
        for j in range(i, CLASSES):
            had = [e[i][c] * e[j][c] for c in range(CLASSES)]
            for k in range(CLASSES):
                w = coeff_mul(scheme.p, had, e[k])
                q[i][j][k] = q[j][i][k] = w[0] * size * Fraction(size, mult[k])
    return q


@pytest.fixture(scope="module")
def conference24(conference12):
    return assemble_scheme(pair_system(*conference12))


@pytest.fixture(scope="module")
def gcm48(gcm24):
    return assemble_scheme(pair_system(*gcm24))


def _swapped(mats):
    mats = list(mats)
    mats[3], mats[4] = mats[4], mats[3]
    return mats


def _permuted(mats):
    perm = np.random.default_rng(11).permutation(mats[0].rows)
    return [IntMatrix(m.a[np.ix_(perm, perm)]) for m in mats]


@pytest.mark.parametrize(
    "source, transform",
    [("scheme48", list), ("scheme135", list), ("conference24", list), ("scheme48", _swapped), ("scheme48", _permuted)],
    ids=["scheme48", "scheme135", "conference24", "scheme48-swapped", "scheme48-permuted"],
)
def test_intersection_numbers_match_all_products(source, transform, request):
    mats = transform(request.getfixturevalue(source).matrices)
    p, cert = compute_intersection_numbers(mats)
    ref_p, ref_cert = _intersection_numbers_all_products(mats)
    assert cert.ok and ref_cert.ok
    assert p == ref_p
    assert cert.checks == ref_cert.checks


def test_intersection_numbers_form_one_product_per_unordered_pair(scheme48, monkeypatch):
    calls = []
    matmul = IntMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    p, _ = compute_intersection_numbers(scheme48.matrices)
    d = CLASSES - 1
    assert len(calls) == d * (d + 1) // 2
    assert p == scheme48.p


def test_intersection_numbers_negative_control(scheme48):
    # move one symmetric pair of entries from class 3 to class 4: every class
    # stays 0/1 and symmetric and the sum stays J, so only p can catch it
    rng = random.Random(5)
    mats = list(scheme48.matrices)
    a3, a4 = mats[3].a.copy(), mats[4].a.copy()
    x, y = rng.choice([(x, y) for x, y in zip(*np.nonzero(a3)) if x < y])
    for r, c in ((x, y), (y, x)):
        a3[r, c], a4[r, c] = 0, 1
    mats[3], mats[4] = IntMatrix(a3), IntMatrix(a4)
    p, cert = compute_intersection_numbers(mats)
    ref_p, ref_cert = _intersection_numbers_all_products(mats)
    assert p is None and ref_p is None
    assert cert.violations == ref_cert.violations
    assert cert.violations[0].identity.startswith("A_1 A_3 is not constant")


@pytest.mark.parametrize("seed", range(6))
def test_intersection_numbers_seeded_negative_controls(scheme48, seed):
    # move one symmetric pair of entries between two random classes >= 1
    rng = random.Random(seed)
    src, dst = rng.sample(range(1, CLASSES), 2)
    mats = list(scheme48.matrices)
    a_src, a_dst = mats[src].a.copy(), mats[dst].a.copy()
    x, y = rng.choice([(x, y) for x, y in zip(*np.nonzero(a_src)) if x < y])
    for r, c in ((x, y), (y, x)):
        a_src[r, c], a_dst[r, c] = 0, 1
    mats[src], mats[dst] = IntMatrix(a_src), IntMatrix(a_dst)
    p, cert = compute_intersection_numbers(mats)
    ref_p, ref_cert = _intersection_numbers_all_products(mats)
    assert p is None and ref_p is None
    assert cert.violations == ref_cert.violations


@pytest.mark.parametrize("source, radicand", [("scheme48", 0), ("scheme135", 0), ("conference24", 5), ("gcm48", 5)])
def test_krein_matches_coefficient_algebra(source, radicand, request):
    scheme = request.getfixturevalue(source)
    assert scheme.spectra.radicand == radicand
    assert scheme.krein == _krein_by_coefficient_algebra(scheme)
