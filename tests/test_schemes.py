import random
from fractions import Fraction

import numpy as np
import pytest

from sgdd.algebra import IntMatrix, Surd
from sgdd.designs import Certificate, GddParams, equivalence_classes
from sgdd.errors import CertificationError, ParameterError
from sgdd.linked import LinkedParams, LinkedSystemII, pair_system, verify_linked_system
import sgdd.schemes
from sgdd import fileio
from sgdd.cli import main
from sgdd.schemes import (
    CLASSES,
    FUSION_PARTITION,
    _DECOMPOSITION,
    Eigenmatrix,
    SchemeParams,
    _canonical_vertex_order,
    _identify_labelings,
    _relabel_p,
    assemble_scheme,
    certify_classes,
    check_fusion,
    closed_form_krein_b2,
    closed_form_multiplicities,
    closed_form_p_matrix,
    closed_form_q_matrix,
    compute_intersection_numbers,
    compute_spectra,
    extract_linked_system,
    fuse_classes,
    load_scheme,
    relation_from_classes,
    scheme_matrices_from_system,
)
import block_route
from class_list_route import class_matrices, classes_of
from surd_route import (
    SurdMatrix,
    as_surd_matrix,
    as_surd_tensor,
    krein_by_surds,
    spectra_by_surds,
    surd_p_matrix,
    surd_q_matrix,
)
from conftest import text_of


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
    pm, qm = as_surd_matrix(spectra.P), as_surd_matrix(spectra.Q)
    assert [pm[0, i] for i in range(CLASSES)] == [Surd.of(x) for x in (1, 3, 12, 12, 12, 8)]
    assert spectra.multiplicities == [1, 12, 3, 6, 24, 2]
    assert sum(spectra.multiplicities) == 48
    prod = pm @ qm
    assert prod == SurdMatrix.identity(CLASSES).scalar_mul(48)
    # discriminant collapses to a rational square here
    assert spectra.radicand == 0
    assert pm[1, 3] == Surd.of(4)


def test_48_vertex_krein(scheme48):
    q = as_surd_tensor(scheme48.krein)
    assert q[2][1][1] == Surd.of(Fraction(1, 3))
    assert q[2][0][2] == Surd.of(1)
    b2, f = closed_form_krein_b2(scheme48.params), scheme48.params.f
    assert all(q[2][j][k] == Fraction(b2[j][k], f) for j in range(CLASSES) for k in range(CLASSES))
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
    assert b2[1][1] >= 0
    bad = closed_form_krein_b2(SchemeParams(k=6, m=4, n=4, f=5))
    assert bad[1][1] < 0


def _scaled_idempotents(scheme, cols):
    """c and {j: (R_j, S_j)} with c E_j = R_j + S_j sqrt(D), where c = c_Q |X|
    and R_j, S_j are integer combinations of the A_i:
    E_j = (1/|X|) sum_i Q_{i,j} A_i with Q = (Q_r + Q_s sqrt(D)) / c_Q."""
    qm = scheme.spectra.Q
    parts = {}
    for j in cols:
        r = np.array([int(x) for x in qm.rational[:, j]])[scheme.relation]
        s = np.array([int(x) for x in qm.irrational[:, j]])[scheme.relation]
        parts[j] = (IntMatrix(r), IntMatrix(s))
    return qm.den * scheme.size, parts


def _surd_product(x, y, d):
    """(R + S sqrt(d)) (R' + S' sqrt(d)) = (R R' + d S S') + (R S' + S R') sqrt(d)."""
    (r, s), (r2, s2) = x, y
    return IntMatrix((r @ r2).a + d * (s @ s2).a), IntMatrix((r @ s2).a + (s @ r2).a)


def _surd_hadamard(x, y, d):
    (r, s), (r2, s2) = x, y
    return IntMatrix(r.a * r2.a + d * s.a * s2.a), IntMatrix(r.a * s2.a + s.a * r2.a)


def test_dense_idempotents_cross_check(scheme48, conference24):
    # dual route: dense integer matrix arithmetic for idempotents of order |X|,
    # at D = 0 (48 vertices) and D = 5 (24 vertices)
    for scheme, radicand in ((scheme48, 0), (conference24, 5)):
        d = scheme.spectra.radicand
        assert d == radicand
        c, e = _scaled_idempotents(scheme, (1, 2, 4))
        size = scheme.size
        zero = IntMatrix(np.zeros((size, size), dtype=np.int64))
        # E_1^2 = E_1: c^2 E_1^2 = c (c E_1)
        assert _surd_product(e[1], e[1], d) == (IntMatrix(c * e[1][0].a), IntMatrix(c * e[1][1].a))
        assert _surd_product(e[1], e[4], d) == (zero, zero)
        mult = scheme.spectra.multiplicities
        assert Surd.of(Fraction(int(np.trace(e[1][0].a)), c), Fraction(int(np.trace(e[1][1].a)), c), d) == Surd.of(mult[1])
        # Krein value by the literal trace formula:
        # q_{1,4}^2 = |X| tr((E_1 o E_4) E_2) / m_2, with c^3 (E_1 o E_4) E_2
        # formed as integer matrices
        rational, irrational = _surd_product(_surd_hadamard(e[1], e[4], d), e[2], d)
        trace = Surd.of(Fraction(int(np.trace(rational.a)), c**3), Fraction(int(np.trace(irrational.a)), c**3), d)
        assert trace * Fraction(size, mult[2]) == as_surd_tensor(scheme.krein)[1][4][2]


def test_135_vertex_scheme(scheme135):
    assert scheme135.size == 135
    assert scheme135.valencies() == [1, 8, 36, 24, 48, 18]
    assert scheme135.certificate.ok


def test_f2_scheme_with_genuine_surds(conference12):
    mat, params = conference12
    scheme = assemble_scheme(pair_system(mat, params))
    assert scheme.size == 24
    assert scheme.spectra.radicand == 5
    pm = as_surd_matrix(scheme.spectra.P)
    assert pm[1, 3] == Surd.of(0, 1, 5)
    prod = pm @ as_surd_matrix(scheme.spectra.Q)
    assert prod == SurdMatrix.identity(CLASSES).scalar_mul(24)
    assert as_surd_tensor(scheme.krein)[2][1][1] == Surd.of(Fraction(6, 2) - 1)


def test_f2_scheme_from_gcm(gcm24):
    mat, params = gcm24
    scheme = assemble_scheme(pair_system(mat, params))
    assert scheme.size == 48
    assert scheme.spectra.radicand == 5
    rep = extract_linked_system(classes_of(scheme.relation))
    assert rep.primary.system.blocks[(1, 2)].mat == mat.mat


def test_extract_roundtrip(scheme48, sys16):
    rep = extract_linked_system(classes_of(scheme48.relation))
    primary = rep.primary
    assert primary.labels == (0, 1, 2, 3, 4, 5)
    assert primary.triple == (3, 1, 3)
    assert primary.spectra_match
    for pair, blk in sys16.blocks.items():
        assert primary.system.blocks[pair].mat == blk.mat


def test_extract_reports_both_readings(scheme48):
    rep = extract_linked_system(classes_of(scheme48.relation))
    assert len(rep.candidates) == 2
    alt = [c for c in rep.candidates if c is not rep.primary][0]
    assert alt.triple == (1, 3, 3)
    assert not alt.spectra_match  # mirrored branch fails the closed forms
    assert alt.certified          # but certifies as a linked system
    # only the eigenvalue equations are listed, not the idempotent products
    # that follow from them
    assert [v.identity for v in alt.spectra_certificate.violations] == [
        "A_3 E_1 = P[1,3] E_1", "A_3 E_4 = P[4,3] E_4", "A_4 E_1 = P[1,4] E_1", "A_4 E_4 = P[4,4] E_4",
    ]


def test_extract_swapped_labels(scheme48):
    rep = extract_linked_system(classes_of(_swapped(scheme48.relation)))
    primary = rep.primary
    assert primary.labels == (0, 1, 2, 4, 3, 5)
    assert primary.triple == (3, 1, 3)
    assert primary.spectra_match and primary.certified


def test_load_scheme_certifies_once(scheme48, monkeypatch):
    calls = []
    dense = sgdd.schemes._constant_on_classes

    def counted(relation, p, cert):
        calls.append(len(p))
        return dense(relation, p, cert)

    monkeypatch.setattr(sgdd.schemes, "_constant_on_classes", counted)
    scheme, primary = load_scheme(classes_of(_swapped(scheme48.relation)))
    assert calls == []  # certified through the linked system: no dense route
    assert primary.labels == (0, 1, 2, 4, 3, 5)
    assert scheme.relation.dtype == np.uint8
    assert np.array_equal(scheme.relation, scheme48.relation)
    assert scheme.p == scheme48.p
    assert as_surd_tensor(scheme.krein) == as_surd_tensor(scheme48.krein)
    cert = scheme.certificate
    assert cert.ok
    assert "all products A_i A_j decompose with constant class coefficients" in cert.checks
    assert "P Q = |X| I" in cert.checks
    assert "all Krein parameters are non-negative" in cert.checks
    assert cert.checks == scheme48.certificate.checks


# sha256 of the CLI's stdout on the written 225- and 448-vertex schemes
_STDOUT_SHA256 = {
    ("scheme225", "analyze"): "9d9bfe3bcd554fc7407935b3af47a9db98b005b2bf9c8f2b519dab316b38ac24",
    ("scheme225", "fusion"): "d777e8b717d7e57a6d23db896dbbc766e624d9d5fa212f5e4e665441a66f9870",
    ("scheme225", "extract"): "7c11740189dbc3d0e8712f7a12c04b9aaabc6a1323ef72ffe6c5a4658937b09b",
    ("scheme448", "analyze"): "672334e6f9e582693fff28094c1d6252c2a7676ba1e8cc6e4b8221723e5d8cf9",
    ("scheme448", "fusion"): "d9073dbb2369e795f005493d9c92fb7414e6158709f62759369e13df13cce11e",
    ("scheme448", "extract"): "3b20a8a79843ceccc2fb5b59c1f46ac634d35e693877ffd7e0c40a54862d6ec1",
}


@pytest.mark.parametrize("source, candidates", [("scheme225", 4), ("scheme448", 2)])
def test_load_scheme_certifies_only_the_primary_labeling(source, candidates, request, tmp_path, capsys, monkeypatch):
    # extract certifies every candidate and prints each certified= value;
    # analyze and fusion stop at the primary one, which sorts first
    import hashlib

    from sgdd import fileio
    from sgdd.cli import main

    calls = []

    def counted(system):
        calls.append(system.params.f)
        return verify_linked_system(system)

    monkeypatch.setattr(sgdd.schemes, "verify_linked_system", counted)
    scm = tmp_path / "s.scm"
    scm.write_text(text_of(fileio.scheme_chunks(request.getfixturevalue(source).relation)))
    for verb, certified in (("extract", candidates), ("analyze", 1), ("fusion", 1)):
        calls.clear()
        capsys.readouterr()
        assert main(["scheme", verb, "--in", str(scm)]) == 0
        out = capsys.readouterr().out
        assert len(calls) == certified, verb
        assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[source, verb]


def test_extract_rejects_non_scheme(scheme48):
    classes = classes_of(scheme48.relation)
    for c in (3, 4):
        classes[c][0, 1] ^= 1
        classes[c][1, 0] ^= 1
    with pytest.raises(CertificationError):
        extract_linked_system(classes)


def test_fusion_at_16(scheme48):
    report = check_fusion(scheme48)
    assert report.fusable and report.predicted and report.consistent
    assert report.eigenspace_partition == ((0,), (1, 2), (3, 4), (5,))
    # the fused classes satisfy the axioms on their own, and the dense
    # route agrees with the fused p that check_fusion derives from scheme.p
    p, cert = compute_intersection_numbers(classes_of(report.fused_relation))
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
    rep = extract_linked_system(classes_of(scheme.relation))
    primary = rep.primary
    assert primary.params.f == 2
    assert primary.triple is None
    assert primary.certified


def test_extract_under_arbitrary_vertex_permutation(scheme48):
    rng = np.random.default_rng(11)
    perm = rng.permutation(48)
    rep = extract_linked_system(classes_of(scheme48.relation[np.ix_(perm, perm)]))
    primary = rep.primary
    assert primary.spectra_match and primary.certified
    assert primary.triple == (3, 1, 3)
    assert primary.params == scheme48.params


def test_maximal_systems_attain_krein_bound(scheme225):
    from sgdd.classical import hadamard_matrix
    from sgdd.latin import search_linked_mols
    from sgdd.linked import build_tilde_l
    from sgdd.resolvable import aux_from_hadamard

    fam4 = search_linked_mols(4, 4)
    scheme64 = assemble_scheme(build_tilde_l(aux_from_hadamard(hadamard_matrix(4)), fam4))
    assert scheme64.params.f == scheme64.params.m == 4
    assert as_surd_tensor(scheme64.krein)[2][1][1] == Surd.of(0)  # m/f - 1 vanishes at the bound

    assert scheme225.params.f == scheme225.params.m == 5
    assert as_surd_tensor(scheme225.krein)[2][1][1] == Surd.of(0)


def test_minimal_scheme_from_degenerate_conference():
    from sgdd.linked import conference_to_gdd, pair_system

    mat, params = conference_to_gdd(IntMatrix([[0, 1], [1, 0]]))
    scheme = assemble_scheme(pair_system(mat, params))
    assert scheme.size == 8
    assert scheme.valencies() == [1, 1, 2, 1, 1, 2]
    rep = extract_linked_system(classes_of(scheme.relation))
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
    if mats[0] != IntMatrix(np.eye(size, dtype=np.int64)):
        cert.failed("A_0 = I", (0, 0))
    else:
        cert.passed("A_0 = I")
    total = np.zeros((size, size), dtype=np.int64)
    for idx, mat in enumerate(mats):
        if not (mat.is_square and mat.rows == size and mat.is_zero_one()):
            cert.failed(f"A_{idx} is a square 0/1 matrix of order {size}")
            return None, cert
        if not (mat.a == mat.a.T).all():
            cert.failed(f"A_{idx} is symmetric")
        total += mat.a
    block_route.compare(cert, "sum A_i = J", IntMatrix(total), np.ones((size, size), dtype=np.int64))
    if idx_zero := [i for i, mat in enumerate(mats) if (mat.a == 0).all()]:
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


def coeff_mul(p, x: list[Surd], y: list[Surd]) -> list[Surd]:
    """Product in the adjacency algebra, on class-coefficient vectors."""
    d1 = len(x)
    out = [Surd.of(0)] * d1
    for i in range(d1):
        xi = x[i]
        if xi.sign() == 0:
            continue
        for j in range(d1):
            yj = y[j]
            if yj.sign() == 0:
                continue
            prod = xi * yj
            row = p[i][j]
            for k in range(d1):
                if row[k]:
                    out[k] = out[k] + prod * row[k]
    return out


def _spectra_by_coefficient_algebra(p, params, pm=None, qm=None):
    """Reference route: every identity of E_j = (1/|X|) sum_i Q_{i,j} A_i,
    idempotency and orthogonality included, multiplied out in the
    coefficient algebra of p, on the Surd closed forms of P and Q unless
    other surd matrices are given."""
    cert = Certificate(f"closed-form spectra at (k,m,n,f)=({params.k},{params.m},{params.n},{params.f})")
    size = params.size
    pm = surd_p_matrix(params) if pm is None else pm
    qm = surd_q_matrix(params) if qm is None else qm
    mult = closed_form_multiplicities(params)
    if sum(mult) != size:
        cert.failed("multiplicities sum to |X|")
        return cert
    cert.passed("multiplicities sum to |X|")

    if pm @ qm == SurdMatrix.identity(CLASSES).scalar_mul(size):
        cert.passed("P Q = |X| I")
    else:
        cert.failed("P Q = |X| I")

    e = [[qm[i, j] * Surd.of(Fraction(1, size)) for i in range(CLASSES)] for j in range(CLASSES)]
    total = [Surd.of(0)] * CLASSES
    for j in range(CLASSES):
        for c in range(CLASSES):
            total[c] = total[c] + e[j][c]
    if total == [Surd.of(1)] + [Surd.of(0)] * (CLASSES - 1):
        cert.passed("sum E_j = I")
    else:
        cert.failed("sum E_j = I")

    ok_idem = True
    for j in range(CLASSES):
        for l in range(j, CLASSES):
            got = coeff_mul(p, e[j], e[l])
            want = e[j] if j == l else [Surd.of(0)] * CLASSES
            if got != want:
                ok_idem = False
                cert.failed(f"E_{j} E_{l} = {'E_' + str(j) if j == l else 'O'}")
    if ok_idem:
        cert.passed("E_j are pairwise orthogonal idempotents")

    ok_eig = True
    for i in range(CLASSES):
        delta = [Surd.of(1 if c == i else 0) for c in range(CLASSES)]
        for j in range(CLASSES):
            got = coeff_mul(p, delta, e[j])
            want = [pm[j, i] * e[j][c] for c in range(CLASSES)]
            if got != want:
                ok_eig = False
                cert.failed(f"A_{i} E_{j} = P[{j},{i}] E_{j}")
    if ok_eig:
        cert.passed("A_i E_j = P_{j,i} E_j for all i, j")

    ok_mult = True
    for j in range(CLASSES):
        if qm[0, j] != Surd.of(mult[j]):
            ok_mult = False
            cert.failed(f"m_{j} = Q[0,{j}]")
        if e[j][0] * size != Surd.of(mult[j]):
            ok_mult = False
            cert.failed(f"trace E_{j} = m_{j}")
    if ok_mult:
        cert.passed("multiplicities match Q row 0 and the idempotent traces")

    valencies = [p[i][i][0] for i in range(CLASSES)]
    if all(pm[0, i] == Surd.of(valencies[i]) for i in range(CLASSES)):
        cert.passed("P row 0 equals the valencies")
    else:
        cert.failed("P row 0 equals the valencies")
    return cert


def _krein_by_coefficient_algebra(scheme):
    """Reference route: q_{i,j}^k = |X| tr((E_i o E_j) E_k) / m_k, with the
    product E_i o E_j times E_k taken in the coefficient algebra of p."""
    size = scheme.size
    inv = Surd.of(Fraction(1, size))
    qm = as_surd_matrix(scheme.spectra.Q)
    e = [[qm[i, j] * inv for i in range(CLASSES)] for j in range(CLASSES)]
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


@pytest.fixture(scope="module")
def scheme225(aux_ag23):
    from sgdd.latin import search_linked_mols
    from sgdd.linked import build_tilde_l

    return assemble_scheme(build_tilde_l(aux_ag23, search_linked_mols(5, 5)))


def _as_built(relation):
    return relation


def _swapped(relation):
    """Classes 3 and 4 trade labels."""
    return np.array([0, 1, 2, 4, 3, 5], dtype=np.uint8)[relation]


def _permuted(relation):
    perm = np.random.default_rng(11).permutation(relation.shape[0])
    return relation[np.ix_(perm, perm)]


@pytest.mark.parametrize(
    "source, transform",
    [
        ("scheme48", _as_built), ("scheme135", _as_built), ("conference24", _as_built),
        ("scheme48", _swapped), ("scheme48", _permuted),
    ],
    ids=["scheme48", "scheme135", "conference24", "scheme48-swapped", "scheme48-permuted"],
)
def test_intersection_numbers_match_all_products(source, transform, request):
    classes = classes_of(transform(request.getfixturevalue(source).relation))
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
    assert cert.ok and ref_cert.ok
    assert p == ref_p
    assert cert.checks == ref_cert.checks


def test_intersection_numbers_form_one_product_per_pair_of_cross_fiber_classes(scheme48, monkeypatch):
    """A_1 (the groups), A_2 (the fibers less the groups) and A_5 (the
    aligned groups less the groups) multiply as class sums, so the kernel
    forms only A_3 A_3, A_3 A_4 and A_4 A_4, of the 15 pairs i <= j."""
    calls = []
    matmul = IntMatrix.__matmul__
    relation = scheme48.relation

    def counted(a, b):
        calls.append(tuple(int(relation[tuple(np.argwhere(m.lane)[0])]) for m in (a, b)))
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    p, _ = compute_intersection_numbers(classes_of(relation))
    assert calls == [(3, 3), (3, 4), (4, 4)]
    assert p == scheme48.p


def test_intersection_numbers_negative_control(scheme48):
    # move one symmetric pair of entries from class 3 to class 4: every class
    # stays 0/1 and symmetric and the sum stays J, so only p can catch it
    rng = random.Random(5)
    relation = scheme48.relation
    pair = rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == 3)) if x < y])
    classes = classes_of(_pair_moved(relation, 3, 4, pair))
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
    assert p is None and ref_p is None
    assert cert.violations == ref_cert.violations
    assert cert.violations[0].identity.startswith("A_1 A_3 is not constant")


@pytest.mark.parametrize("seed", range(6))
def test_intersection_numbers_seeded_negative_controls(scheme48, seed):
    # move one symmetric pair of entries between two random classes >= 1
    rng = random.Random(seed)
    src, dst = rng.sample(range(1, CLASSES), 2)
    relation = scheme48.relation
    pair = rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == src)) if x < y])
    classes = classes_of(_pair_moved(relation, src, dst, pair))
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
    assert p is None and ref_p is None
    assert cert.violations == ref_cert.violations


def test_dense_route_past_255_vertices(scheme448):
    """At 448 vertices the intersection numbers pass 127 (the valencies
    p_33^0 = p_44^0 = 168): the dense route, which looks the expected entries
    up in the smallest dtype that holds |X|, still certifies the scheme and
    names the first failing class of a moved pair as the all-products route
    does."""
    p, cert = compute_intersection_numbers(classes_of(scheme448.relation))
    assert cert.ok and p == scheme448.p
    relation = scheme448.relation
    pair = random.Random(448).choice([(x, y) for x, y in zip(*np.nonzero(relation == 4)) if x < y])
    classes = classes_of(_pair_moved(relation, 4, 3, pair))
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
    assert p is None and ref_p is None
    assert cert.violations == ref_cert.violations


@pytest.mark.parametrize("seed", range(3))
def test_a_moved_cross_fiber_pair_fails_with_no_kernel_product(scheme448, seed, monkeypatch):
    """A pair of the 448-vertex scheme moved from A_3 to A_4, as the
    benchmark's scheme controls do: the row sums of A_3 and A_4 are no
    longer constant, so no labeling is tried, and the dense check stops at
    A_1 A_3, a class-sum product, so no kernel product is formed.  (``test_dense_route_past_255_vertices`` compares such a
    move with the all-products route.)"""
    relation = scheme448.relation
    pair = random.Random(seed).choice([(x, y) for x, y in zip(*np.nonzero(relation == 3)) if x < y])
    classes = classes_of(_pair_moved(relation, 3, 4, pair))
    shapes = []
    matmul = IntMatrix.__matmul__

    def spied(a, b):
        shapes.append((a.rows, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", spied)
    report = certify_classes(classes)
    monkeypatch.undo()
    assert shapes == [] and report.candidates == []
    assert [v.identity for v in report.certificate.violations] == ["A_1 A_3 is not constant on class 3"]


@pytest.fixture
def class_sums(monkeypatch):
    """(i, j) for every product A_i A_j, or its transpose, that the dense
    check forms as class sums while the test runs, and, for every kernel
    product, the first entry of each factor that is 1 (``_kernel_classes``
    names their classes), as two lists."""
    sums, kernel = [], []
    sum_rows, matmul = sgdd.schemes._class_sum_rows, IntMatrix.__matmul__

    def summed(relation, j, big, small, dtype):
        # the class of B - B' is that of a pair in B and in no class of B'
        x, y = big[0][:2] if small is None else (small[0][0], next(z for z in big[0] if z not in set(small[0])))
        sums.append((int(relation[x, y]), j))
        return sum_rows(relation, j, big, small, dtype)

    def counted(a, b):
        kernel.append(tuple(np.unravel_index(int(np.argmax(m.lane)), m.lane.shape) for m in (a, b)))
        return matmul(a, b)

    monkeypatch.setattr(sgdd.schemes, "_class_sum_rows", summed)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return sums, kernel


def _kernel_classes(relation: np.ndarray, kernel) -> list[tuple[int, int]]:
    """The classes of the factors of the kernel products ``class_sums`` saw."""
    return sorted(tuple(int(relation[at]) for at in pair) for pair in kernel)


def _relabelled(relation: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """R under a seeded vertex permutation and a seeded relabelling of the
    classes 1..5 that moves class 1 (the groups), so groups are not
    consecutive and class 1 is not the group class; with the new label of
    each old class."""
    rng = np.random.default_rng(seed)
    labels = np.arange(CLASSES, dtype=np.uint8)
    while labels[1] == 1:
        labels[1:] = 1 + rng.permutation(CLASSES - 1)
    perm = rng.permutation(len(relation))
    return labels[relation][np.ix_(perm, perm)], labels


@pytest.mark.parametrize("seed", range(4))
def test_class_sums_match_all_products_on_a_relabelled_scheme(scheme48, seed, class_sums):
    """The groups, fibers and aligned groups are found on R in any vertex
    and class order: the kernel forms only the products of the two
    cross-fiber classes, p is that of the all-products route, and a pair
    moved between the cross-fiber classes either way names the same first
    failing pair and class."""
    sums, kernel = class_sums
    relation, labels = _relabelled(scheme48.relation, seed)
    p, cert = compute_intersection_numbers(classes_of(relation))
    cross = sorted(int(labels[c]) for c in (3, 4))
    assert {c for pair in sums for c in pair} == set(range(1, CLASSES))
    assert len(sums) == 12 and _kernel_classes(relation, kernel) == [(x, y) for x in cross for y in cross if x <= y]
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes_of(relation)))
    assert cert.ok and p == ref_p and cert.checks == ref_cert.checks
    rng = random.Random(seed)
    for src, dst in ((labels[3], labels[4]), (labels[4], labels[3])):
        pair = rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == src)) if x < y])
        classes = classes_of(_pair_moved(relation, src, dst, pair))
        p, cert = compute_intersection_numbers(classes)
        ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
        assert p is None and ref_p is None
        assert cert.violations == ref_cert.violations


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("src, dst", [(1, 2), (2, 1)])
def test_a_pair_moved_between_groups_and_fibers_takes_the_kernel(scheme48, seed, src, dst, class_sums):
    """With a pair moved between classes 1 and 2, {0, 1} is no equivalence,
    so no class is a difference of equivalences and every product goes to
    the kernel; the first failing pair and class are those of the
    all-products route."""
    sums, kernel = class_sums
    relation = scheme48.relation
    pair = random.Random(seed).choice([(x, y) for x, y in zip(*np.nonzero(relation == src)) if x < y])
    classes = classes_of(_pair_moved(relation, src, dst, pair))
    p, cert = compute_intersection_numbers(classes)
    assert sums == [] and kernel
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
    assert p is None and ref_p is None
    assert cert.violations == ref_cert.violations


def test_the_fused_scheme_multiplies_its_fibers_as_class_sums(scheme48, class_sums):
    """The 4-class fusion {A_0, A_1 + A_2, A_3 + A_5, A_4}: its class 1 is
    the fibers less I, so the products with it are class sums and the other
    three go to the kernel; p is the fused p of the all-products route, and
    a pair moved between its classes 2 and 3 names the same failing pair and
    class."""
    sums, kernel = class_sums
    fused = check_fusion(scheme48).fused_relation
    p, cert = compute_intersection_numbers(classes_of(fused))
    assert sums == [(1, 1), (1, 2), (1, 3)] and _kernel_classes(fused, kernel) == [(2, 2), (2, 3), (3, 3)]
    ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes_of(fused)))
    assert cert.ok and p == ref_p == fuse_classes(scheme48.p, FUSION_PARTITION)
    for src, dst, seed in ((2, 3, 0), (3, 2, 1)):
        pair = random.Random(seed).choice([(x, y) for x, y in zip(*np.nonzero(fused == src)) if x < y])
        classes = classes_of(_pair_moved(fused, src, dst, pair))
        p, cert = compute_intersection_numbers(classes)
        ref_p, ref_cert = _intersection_numbers_all_products(class_matrices(classes))
        assert p is None and ref_p is None
        assert cert.violations == ref_cert.violations


@pytest.mark.parametrize("source, radicand", [("scheme48", 0), ("scheme135", 0), ("conference24", 5), ("gcm48", 5)])
def test_krein_matches_coefficient_algebra(source, radicand, request):
    scheme = request.getfixturevalue(source)
    assert scheme.spectra.radicand == radicand
    assert as_surd_tensor(scheme.krein) == _krein_by_coefficient_algebra(scheme)


def _eigenvalue_lines(cert):
    return [v.identity for v in cert.violations if v.identity.startswith("A_")]


_READING_IDS = {_as_built: "as-built", _swapped: "swapped", _permuted: "permuted"}
_FIXTURE_READINGS = [
    (source, transform)
    for source in ("scheme48", "scheme135", "scheme225", "scheme448", "conference24", "gcm48")
    for transform in (_as_built, _swapped, _permuted)
    if transform is not _permuted or source not in ("scheme225", "scheme448")
]


@pytest.mark.parametrize(
    "source, transform", _FIXTURE_READINGS, ids=[f"{s}-{_READING_IDS[t]}" for s, t in _FIXTURE_READINGS]
)
def test_spectra_match_coefficient_algebra(source, transform, request):
    # every extraction candidate, failing labelings included, against the
    # coefficient algebra of p and against the entrywise Surd route
    report = extract_linked_system(classes_of(transform(request.getfixturevalue(source).relation)))
    for cand in report.candidates:
        pp = _relabel_p(report.p, cand.labels)
        ref = _spectra_by_coefficient_algebra(pp, cand.params)
        cert = cand.spectra_certificate
        assert cert.ok == ref.ok
        assert cert.checks == ref.checks
        assert _eigenvalue_lines(cert) == _eigenvalue_lines(ref)
        assert cert.ok or _eigenvalue_lines(cert)
        surds = spectra_by_surds(pp, cand.params, surd_p_matrix(cand.params), surd_q_matrix(cand.params))
        assert cert.report_lines() == surds.report_lines()


def _moved(matrix, i, j, delta):
    """The eigenmatrix with entry (i, j) moved by the integer delta."""
    rational = matrix.rational.copy()
    rational[i, j] += delta * matrix.den
    return Eigenmatrix(rational, matrix.irrational, matrix.den, matrix.radicand)


def _column_doubled(matrix, j):
    scale = np.array([2 if c == j else 1 for c in range(CLASSES)], dtype=object)
    return Eigenmatrix(matrix.rational * scale, matrix.irrational * scale, matrix.den, matrix.radicand)


def test_spectra_corrupted_q_matches_coefficient_algebra(conference24, monkeypatch):
    # a doubled column of Q keeps every eigenvalue equation and breaks only
    # P Q = |X| I, sum E_j = I and the multiplicities: idempotency must not be
    # recorded.  Seeded single entries of Q moved by +-1 break more.
    params, p = conference24.params, conference24.p
    q0 = closed_form_q_matrix(params)
    rng = random.Random(3)
    corrupted = [_column_doubled(q0, j) for j in range(CLASSES)]
    corrupted += [_moved(q0, rng.randrange(CLASSES), rng.randrange(CLASSES), rng.choice((-1, 1))) for _ in range(6)]
    for n, qm in enumerate(corrupted):
        monkeypatch.setattr(sgdd.schemes, "closed_form_q_matrix", lambda _params, qm=qm: qm)
        _, cert = compute_spectra(p, params)
        ref = _spectra_by_coefficient_algebra(p, params, qm=as_surd_matrix(qm))
        assert cert.report_lines() == spectra_by_surds(p, params, surd_p_matrix(params), as_surd_matrix(qm)).report_lines()
        assert not cert.ok and not ref.ok
        assert cert.checks == ref.checks
        assert _eigenvalue_lines(cert) == _eigenvalue_lines(ref)
        assert "E_j are pairwise orthogonal idempotents" not in cert.checks
        assert n >= CLASSES or "A_i E_j = P_{j,i} E_j for all i, j" in cert.checks


def test_spectra_reject_single_entry_corruptions(conference24, monkeypatch):
    # every entry of P and of Q, and seeded entries of p, moved by +-1, at
    # D = 5 where P and Q hold genuine surds
    params, p = conference24.params, conference24.p
    assert compute_spectra(p, params)[1].ok
    rng = random.Random(7)
    for name, closed_form in (("closed_form_p_matrix", closed_form_p_matrix), ("closed_form_q_matrix", closed_form_q_matrix)):
        for i in range(CLASSES):
            for j in range(CLASSES):
                moved = _moved(closed_form(params), i, j, rng.choice((-1, 1)))
                monkeypatch.setattr(sgdd.schemes, name, lambda _params, moved=moved: moved)
                spectra, cert = compute_spectra(p, params)
                assert not cert.ok, (name, i, j)
                ref = spectra_by_surds(p, params, as_surd_matrix(spectra.P), as_surd_matrix(spectra.Q))
                assert cert.report_lines() == ref.report_lines()
        monkeypatch.undo()
    for _ in range(24):
        i, l, k = (rng.randrange(CLASSES) for _ in range(3))
        bad = [[list(row) for row in mat] for mat in p]
        bad[i][l][k] += rng.choice((-1, 1))
        cert = compute_spectra(bad, params)[1]
        assert not cert.ok, (i, l, k)
        assert cert.report_lines() == spectra_by_surds(bad, params, surd_p_matrix(params), surd_q_matrix(params)).report_lines()


# -- the integer closed forms against the Surd closed forms ------------------------------

# every (k, m, n) with 2 <= m, n <= 6 and 0 < k < (m-1)n, at f = 2, 3 and
# m + 1: D = 1 folds at (6, 4, 4), D = 5 at (5, 6, 2) and (5, 6, 4)
_GRID = [
    SchemeParams(k=k, m=m, n=n, f=f)
    for m in range(2, 7)
    for n in range(2, 7)
    for k in range(1, (m - 1) * n)
    for f in sorted({2, 3, m + 1})
]


def test_integer_closed_forms_match_surd_closed_forms():
    radicands = set()
    for params in _GRID:
        pm, qm = closed_form_p_matrix(params), closed_form_q_matrix(params)
        assert pm.radicand == qm.radicand
        radicands.add(pm.radicand)
        assert as_surd_matrix(pm) == surd_p_matrix(params), params
        assert as_surd_matrix(qm) == surd_q_matrix(params), params
        assert closed_form_multiplicities(params) == [surd_q_matrix(params)[0, j] for j in range(CLASSES)]
    assert {0, 2, 5} <= radicands


# (k, m, n, f): D = 0 after folding, D = 5, D = 2 and D = 3, and f > m, where
# q_21^1 = m/f - 1 is negative
_KREIN_PARAMS = [
    (6, 4, 4, 3), (6, 4, 4, 5), (5, 6, 2, 2), (5, 6, 2, 8), (5, 6, 4, 2), (15, 6, 4, 2),
    (12, 5, 9, 3), (1, 2, 3, 4), (2, 3, 2, 4), (4, 3, 3, 2), (3, 4, 2, 7), (6, 3, 4, 3),
]


@pytest.mark.parametrize("k, m, n, f", _KREIN_PARAMS)
def test_krein_matches_surd_route(k, m, n, f):
    params = SchemeParams(k=k, m=m, n=n, f=f)
    pm = closed_form_p_matrix(params)
    spectra = sgdd.schemes.Spectra(pm, closed_form_q_matrix(params), closed_form_multiplicities(params), pm.radicand)
    q, cert = sgdd.schemes.compute_krein(spectra, params)
    ref_q, ref_cert = krein_by_surds(surd_p_matrix(params), surd_q_matrix(params), params)
    assert as_surd_tensor(q) == ref_q
    assert cert.report_lines() == ref_cert.report_lines()
    if f > m:  # q_12^1 = q_21^1 = m/f - 1 < 0
        assert as_surd_tensor(q)[1][2][1] == Fraction(m, f) - 1
        assert "Krein parameter q_12^1 is negative" in [v.identity for v in cert.violations]


@pytest.mark.parametrize("source", ["scheme48", "scheme135", "scheme225", "scheme448", "conference24", "gcm48"])
def test_scheme_krein_matches_surd_route(source, request):
    scheme = request.getfixturevalue(source)
    q, cert = krein_by_surds(as_surd_matrix(scheme.spectra.P), as_surd_matrix(scheme.spectra.Q), scheme.params)
    assert as_surd_tensor(scheme.krein) == q
    assert cert.checks == scheme.certificate.checks[-len(cert.checks):]


# -- certification through the linked system, against the dense route ------------------


def _order_aligned_at_first_points(relation, labels, m, n):
    """Reference canonical order: the groups of each later fiber aligned by
    the A_5-neighbours of the first point of each group of fiber 0 only;
    A_5 is not compared with its pattern."""
    c0, c1, c2, _, _, c5 = labels
    fibers = sorted(equivalence_classes(np.isin(relation, (c0, c1, c2))), key=min)
    group_of = {x: g for g in equivalence_classes(np.isin(relation, (c0, c1))) for x in g}
    a5 = relation == c5
    ref_groups = sorted({group_of[x] for x in fibers[0]}, key=min)
    order = []
    for t, fib in enumerate(fibers):
        aligned = ref_groups
        if t:
            aligned = []
            for g in ref_groups:
                linked = [y for y in fib if a5[g[0], y]]
                if len(linked) != n or set(linked) != set(group_of[linked[0]]):
                    return None
                aligned.append(group_of[linked[0]])
            if len(set(aligned)) != m:
                return None
        for g in aligned:
            order.extend(sorted(g))
    return order


def _extract_by_dense_route(classes):
    """Reference route: the dense axioms and p first, then every labeling
    certified by the linked system read off the permuted A_3 alone.  Returns
    p, the axiom certificate and (labels, spectra_match, certified) per
    candidate, in report order."""
    p, cert = compute_intersection_numbers(classes)
    if p is None:
        raise CertificationError("input fails the scheme axioms", cert)
    relation = relation_from_classes(classes)[0]
    rows = []
    for lab in _identify_labelings(relation, p):
        labels, m, n, f = lab["labels"], lab["m"], lab["n"], lab["f"]
        pp = _relabel_p(p, labels)
        if any(pp[3][3][c] % (f - 1) for c in (0, 1, 2)):
            continue
        k, l1, l2 = (pp[3][3][c] // (f - 1) for c in (0, 1, 2))
        if f >= 3 and any(pp[3][3][c] % (f - 2) for c in (3, 4, 5)):
            continue
        triple = tuple(pp[3][3][c] // (f - 2) for c in (3, 4, 5)) if f >= 3 else (None, None, None)
        if not l1 < k < (m - 1) * n:
            continue
        try:
            params = SchemeParams(k=k, m=m, n=n, f=f)
        except ParameterError:
            continue
        certified = False
        order = _order_aligned_at_first_points(relation, labels, m, n)
        if order is not None:
            perm = np.array(order)
            a3 = (relation == labels[3])[np.ix_(perm, perm)].astype(np.int64)
            mn = m * n
            try:
                blocks = [a3[i * mn : (i + 1) * mn, j * mn : (j + 1) * mn] for i in range(f) for j in range(f) if i != j]
                system = LinkedSystemII(LinkedParams(GddParams(mn, k, m, n, l1, l2), f, *triple), np.array(blocks))
                certified = verify_linked_system(system).ok
            except ParameterError:
                pass
        rows.append((labels, compute_spectra(pp, params)[1].ok, certified))
    if not rows:
        raise CertificationError("no class labeling exhibits the fiber structure")
    rows.sort(key=lambda row: (not row[1], row[0]))
    return p, cert, rows


@pytest.mark.parametrize("transform", [_as_built, _swapped, _permuted], ids=["as-built", "swapped", "permuted"])
@pytest.mark.parametrize("source", ["scheme48", "scheme135", "scheme225", "conference24", "gcm48"])
def test_extract_matches_dense_route(source, transform, request):
    classes = classes_of(transform(request.getfixturevalue(source).relation))
    report = extract_linked_system(classes)
    p, cert, rows = _extract_by_dense_route(classes)
    assert report.p == p
    assert report.certificate.report_lines() == cert.report_lines()
    assert [(c.labels, c.spectra_match, c.certified) for c in report.candidates] == rows
    assert report.primary.certified


def _pair_moved(relation, src, dst, pair):
    """Move the symmetric pair of entries ``pair`` from class src to dst,
    which keeps every class 0/1 and symmetric and their sum J."""
    relation = relation.copy()
    x, y = pair
    for r, c in ((x, y), (y, x)):
        assert relation[r, c] == src
        relation[r, c] = dst
    return relation


def _switched(relation):
    """Trade two A_5 pairs {a, b}, {c, d} for the A_4 pairs {a, d}, {c, b},
    away from the first fiber of the 48-vertex scheme, whose points align
    the groups: every row sum of every class stays, so only the pattern of
    A_5 or the dense route tells."""
    edges = [(a, b) for a, b in zip(*np.nonzero(np.triu(relation == 5))) if a >= 16]
    a, b, c, d = next(
        (a, b, c, d) for a, b in edges for c, d in edges
        if len({a, b, c, d}) == 4 and relation[a, d] == 4 and relation[c, b] == 4
    )
    relation = _pair_moved(_pair_moved(relation, 5, 4, (a, b)), 5, 4, (c, d))
    return _pair_moved(_pair_moved(relation, 4, 5, (a, d)), 4, 5, (c, b))


def _control(name, scheme48, non_transposed_pair):
    if name == "non-transposed":
        return scheme_matrices_from_system(non_transposed_pair)
    if name == "move54-17-33":
        return _pair_moved(scheme48.relation, 5, 4, (17, 33))
    if name == "switch54":
        return _switched(scheme48.relation)
    rng = random.Random(int(name.rsplit("-", 1)[1]))
    pairs = [(x, y) for x, y in zip(*np.nonzero(scheme48.relation == 3)) if x < y]
    return _pair_moved(scheme48.relation, 3, 4, rng.choice(pairs))


@pytest.mark.parametrize("name", [f"move34-{seed}" for seed in range(6)] + ["move54-17-33", "switch54", "non-transposed"])
def test_negative_controls_fail_as_on_the_dense_route(name, scheme48, non_transposed_pair):
    classes = classes_of(_control(name, scheme48, non_transposed_pair))
    with pytest.raises(CertificationError) as ref:
        _extract_by_dense_route(classes)
    for route in (extract_linked_system, load_scheme):
        with pytest.raises(CertificationError) as exc:
            route(classes)
        assert str(exc.value) == str(ref.value) == "input fails the scheme axioms"
        assert exc.value.report.report_lines() == ref.value.report.report_lines()


@pytest.mark.parametrize("name", ["move54-17-33", "switch54"])
def test_a5_pattern_is_checked(name, scheme48, sys16):
    # moving (17, 33) from A_5 to A_4, or trading two A_5 pairs for two A_4
    # pairs, keeps the groups, the fibers, the first-point alignment and A_3,
    # so the system read off A_3 is sys16 and certifies; only A_5's pattern,
    # or the dense route, tells
    relation = _control(name, scheme48, None)
    p, cert = compute_intersection_numbers(classes_of(relation))
    assert p is None and not cert.ok
    if name == "move54-17-33":
        assert [v.identity for v in cert.violations] == ["A_1 A_3 is not constant on class 4"]
    labels = tuple(range(CLASSES))
    assert _order_aligned_at_first_points(relation, labels, 4, 4) == list(range(48))
    assert np.array_equal(scheme_matrices_from_system(sys16) == 3, relation == 3)
    for source, order in ((scheme48.relation, list(range(48))), (relation, None)):
        structure = equivalence_classes(np.isin(source, (0, 1))), equivalence_classes(np.isin(source, (0, 1, 2)))
        assert _canonical_vertex_order(source, labels, 4, 4, *structure) == order


@pytest.mark.parametrize("source", ["sys16", "sys45", "conference12", "gcm24"])
def test_no_product_of_order_x_on_certifying_inputs(source, request, monkeypatch, tmp_path, capsys):
    system = request.getfixturevalue(source)
    if isinstance(system, tuple):
        system = pair_system(*system)
    shapes = []
    matmul = IntMatrix.__matmul__

    def spied(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    dense = []
    constant_on_classes = sgdd.schemes._constant_on_classes

    def spied_dense(relation, p, cert):
        dense.append(relation.shape)
        return constant_on_classes(relation, p, cert)

    monkeypatch.setattr(IntMatrix, "__matmul__", spied)
    monkeypatch.setattr(sgdd.schemes, "_constant_on_classes", spied_dense)
    scheme = assemble_scheme(system)
    size = scheme.size
    scm = tmp_path / "s.scm"
    for relation in (scheme.relation, _swapped(scheme.relation), _permuted(scheme.relation)):
        classes = classes_of(relation)
        assert extract_linked_system(classes).primary.certified
        assert load_scheme(classes)[0].certificate.checks == scheme.certificate.checks
        scm.write_text(text_of(fileio.scheme_chunks(relation)))
        assert main(["verify", "scheme", str(scm)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [f"  ok: {line}" for line in _DECOMPOSITION]
    assert shapes and (size, size, size) not in shapes
    assert max(rows for rows, _, _ in shapes) < size
    assert dense == []


@pytest.mark.parametrize("size", [1, 5, 128, 130, 300])
def test_tiled_symmetry_check_matches_the_transpose(size):
    """The tile-by-tile test of a = a^T against the whole transpose, on
    symmetric 0/1 arrays and on each with one entry flipped, in the first
    and last (partial) tiles too."""
    rng = np.random.default_rng(size)
    a = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
    a = a | a.T
    assert sgdd.schemes._symmetric(a)
    for x, y in [(0, size - 1), (size - 1, 0), tuple(rng.integers(size, size=2))]:
        bad = a.copy()
        bad[x, y] ^= 1
        assert sgdd.schemes._symmetric(bad) == bool((bad == bad.T).all())
