"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s or look at captured output on failure).
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sgdd import fileio
from sgdd.algebra import IntMatrix, Surd
from sgdd.classical import (
    hadamard_matrix,
    paley_conference_matrix,
    signed_permutation_weighing_set,
)
from sgdd.designs import (
    check_bose,
    check_k_commutation,
    lambda_formulas,
    partial_complement,
    verify_gdd,
)
from sgdd.gf import gf_make
from sgdd.latin import linked_mols_from_gf, search_linked_mols, verify_linked
from sgdd.linked import (
    build_from_mub_bush,
    bush_search,
    build_tilde_l,
    build_twin,
    conference_to_gdd,
    gcm_to_gdd,
    bgw_generate,
    is_bush_type,
    sigma_tau_rho,
    verify_gcm,
    verify_linked_system,
)
from sgdd.resolvable import aux_from_affine_geometry, aux_from_hadamard, verify_auxiliary
from sgdd.scanner import rows_to_csv, scan_table1, scan_table2
from sgdd.schemes import (
    CLASSES,
    assemble_scheme,
    check_fusion,
    extract_linked_system,
)
from surd_route import SurdMatrix, as_surd_matrix, as_surd_tensor
from conftest import read_text, text_of

GOLDEN = Path(__file__).parent / "golden"


def report(num: int, label: str, seconds: float):
    print(f"criterion {num}: PASS ({seconds:.2f}s) - {label}")


def test_criterion_1_table1_reproduction():
    t0 = time.monotonic()
    rows = scan_table1(1000)
    csv = rows_to_csv(rows, 1)
    dt = time.monotonic() - t0
    assert len(rows) == 20
    assert csv == (GOLDEN / "table1.csv").read_text()
    assert dt < 1.0
    report(1, "scan table1 --vmax 1000 reproduces the 20 golden tuples byte-identically", dt)


def test_criterion_2_table2_reproduction():
    t0 = time.monotonic()
    rows = scan_table2(500)
    csv = rows_to_csv(rows, 2)
    dt = time.monotonic() - t0
    golden = (GOLDEN / "table2.csv").read_text()
    if csv != golden:
        got, want = csv.splitlines(), golden.splitlines()
        diff = [f"-{a}" for a in want if a not in got] + [f"+{b}" for b in got if b not in want]
        pytest.fail("table2 diff vs golden rows:\n" + "\n".join(diff))
    assert len(rows) == 32
    assert dt < 1.0
    report(2, "scan table2 --vmax 500 reproduces the 32 golden rows (both sign variants)", dt)


def test_criterion_3_end_to_end_16(scheme48, sys16):
    t0 = time.monotonic()
    aux = aux_from_hadamard(hadamard_matrix(4))
    assert verify_auxiliary(aux).ok
    fam = linked_mols_from_gf(gf_make(2, 2))
    assert fam.f == 3 and verify_linked(fam).ok
    system = build_tilde_l(aux, fam)
    p = system.params
    assert (p.base.v, p.base.k, p.base.m, p.base.n, p.base.lambda1, p.base.lambda2) == (16, 6, 4, 4, 2, 2)
    assert (p.sigma, p.tau, p.rho) == (3, 1, 3)
    scheme = assemble_scheme(system)
    assert scheme.certificate.ok  # all scheme axioms
    pm, qm = as_surd_matrix(scheme.spectra.P), as_surd_matrix(scheme.spectra.Q)
    assert [pm[0, i] for i in range(CLASSES)] == [Surd.of(x) for x in (1, 3, 12, 12, 12, 8)]
    assert pm @ qm == SurdMatrix.identity(CLASSES).scalar_mul(48)
    krein = as_surd_tensor(scheme.krein)
    assert all(
        krein[i][j][k].sign() >= 0
        for i in range(CLASSES)
        for j in range(CLASSES)
        for k in range(CLASSES)
    )
    assert krein[2][1][1] == Surd.of(Fraction(1, 3))
    fusion = check_fusion(scheme)
    assert fusion.fusable and fusion.predicted
    assert Fraction((4 - 1) * 4 * (4 - 1), 4 + 4 - 2) == 6
    dt = time.monotonic() - t0
    assert dt < 5.0
    report(3, "(16,6,2) pipeline: aux -> linked MOLS -> system (3,1,3) -> 48-vertex scheme", dt)


def test_criterion_4_end_to_end_45():
    t0 = time.monotonic()
    aux = aux_from_affine_geometry(3, 1)
    fam = search_linked_mols(5, 3)
    if fam is None:
        pytest.fail(
            "search exhausted: no order-5 zero-diagonal linked family with f=3 "
            "(reportable oracle outcome: the family is expected to exist)"
        )
    system = build_tilde_l(aux, fam)
    p = system.params
    assert (p.base.v, p.base.k, p.base.m, p.base.n) == (45, 12, 5, 9)
    assert (p.sigma, p.tau, p.rho) == (5, 2, 4)
    scheme = assemble_scheme(system)
    assert scheme.size == 135 and scheme.certificate.ok
    dt = time.monotonic() - t0
    assert dt < 600
    report(4, "(45,12,3) pipeline: AG(2,3) aux + searched order-5 family -> 135-vertex scheme", dt)


def test_criterion_5_conference_path():
    t0 = time.monotonic()
    c = paley_conference_matrix(6)
    mat, params = conference_to_gdd(c)
    assert (params.v, params.k, params.m, params.n, params.lambda1, params.lambda2) == (12, 5, 6, 2, 0, 2)
    assert verify_gdd(mat, params).ok
    comm = check_k_commutation(mat)
    assert comm.kind == "multiple_of_J_minus_K" and comm.factor == 1
    dt = time.monotonic() - t0
    report(5, "Paley conference order 6 -> certified (12,5,6,2,0,2) with AK = KA = J - K", dt)


def test_criterion_6_gcm_path():
    t0 = time.monotonic()
    gcm = bgw_generate(5)
    assert gcm.order == 6 and gcm.g == 4 and gcm.lam == 1
    assert verify_gcm(gcm).ok
    mat, params = gcm_to_gdd(gcm)
    assert (params.v, params.k, params.m, params.n, params.lambda1, params.lambda2) == (24, 5, 6, 4, 0, 1)
    assert verify_gdd(mat, params).ok
    cands = sigma_tau_rho(params.k, params.m, params.n)
    assert all(not c.integral for c in cands)
    assert all(c.rho == Fraction(5, 4) for c in cands)
    dt = time.monotonic() - t0
    report(6, "BGW(6,5,4) -> certified (24,5,6,4,0,1); rho = 5/4 flags non-extendability", dt)


def test_criterion_7_twin_path():
    t0 = time.monotonic()
    twin = build_twin(hadamard_matrix(4), signed_permutation_weighing_set(4))
    p = twin.params
    assert (p.v, p.k, p.m, p.n, p.lambda1, p.lambda2) == (16, 6, 4, 4, 2, 2)
    k = np.kron(np.eye(p.m, dtype=np.int64), np.ones((p.n, p.n), dtype=np.int64))
    assert (twin.plus.mat.a + twin.minus.mat.a + k == 1).all()
    dt = time.monotonic() - t0
    report(7, "weight-1 signed permutations -> certified twin (16,6,4,4,2,2) with A+ + A- + K = J", dt)


def test_criterion_8_bush_type(sys16):
    t0 = time.monotonic()
    for blk in sys16.blocks.values():
        h = IntMatrix(1 - 2 * blk.mat.a.astype(np.int64))
        assert is_bush_type(h)  # +-1, H H^T = 16 I, diag blocks J, off-diag zero sums
    pair = bush_search(2, 2)
    assert pair is not None and len(pair) == 2
    system = build_from_mub_bush(pair)
    assert system.params == sys16.params
    dt = time.monotonic() - t0
    assert dt < 600
    report(8, "J - 2A blocks are Bush-type; searched unbiased pair re-certifies with equal parameters", dt)


def _certified_gdd_objects(sys16, sys45, conference12, gcm24):
    objs = []
    for system in (sys16, sys45):
        for blk in system.blocks.values():
            objs.append((blk, system.params.base))
    objs.append(conference12)
    objs.append(gcm24)
    twin = build_twin(hadamard_matrix(4), signed_permutation_weighing_set(4))
    objs.append((twin.plus, twin.params))
    objs.append((twin.minus, twin.params))
    return objs


def test_criterion_9_property_suites(sys16, sys45, scheme48, scheme135, conference12, gcm24, bush_pair):
    t0 = time.monotonic()
    # degree identity k^2 = k + l1(n-1) + l2(v-n) on every certified object
    for mat, params in _certified_gdd_objects(sys16, sys45, conference12, gcm24):
        assert params.k**2 == params.k + params.lambda1 * (params.n - 1) + params.lambda2 * (
            params.v - params.n
        )
        assert verify_gdd(mat, params).ok
        if params.lambda1 != params.lambda2:
            assert check_bose(mat, params)
        comm = check_k_commutation(mat)
        if comm.kind == "multiple_of_J_minus_K" and mat.diagonal_blocks_zero():
            # closed-form lambdas apply exactly on this class
            l1, l2 = lambda_formulas(params.k, params.m, params.n)
            assert (l1, l2) == (params.lambda1, params.lambda2)
            comp, comp_params = partial_complement(mat, params)
            back, back_params = partial_complement(comp, comp_params)
            assert back.mat == mat.mat and back_params == params

    # linked-system identities, recomputed from the certified parameters
    mub = build_from_mub_bush(bush_pair)
    for system in (sys16, sys45, mub):
        p = system.params
        base = p.base
        assert (p.sigma - p.tau) ** 2 == base.k - base.lambda1
        assert (p.sigma - p.tau) * (p.rho - p.tau) + (p.sigma - p.tau + base.k) * p.tau == base.k * base.lambda2
        assert Fraction((p.rho - p.tau - base.lambda1 + base.lambda2) * base.k, base.m - 1) == (
            p.sigma - p.tau
        ) * (p.rho - p.tau)
        assert Fraction(base.k**2, base.n * (base.m - 1)) == p.rho
        assert verify_linked_system(system).ok
        cands = {(c.sigma, c.tau, c.rho) for c in sigma_tau_rho(base.k, base.m, base.n) if c.integral}
        assert (p.sigma, p.tau, p.rho) in cands

    # extract(assemble(system)) reproduces the blocks exactly
    for scheme, system in ((scheme48, sys16), (scheme135, sys45)):
        text = text_of(fileio.scheme_chunks(scheme.relation))
        primary = extract_linked_system(read_text(fileio.read_scheme, text)).primary
        for pair, blk in system.blocks.items():
            assert primary.system.blocks[pair].mat == blk.mat

    dt = time.monotonic() - t0
    report(9, "invariant suite over every certified object (designs, systems, schemes)", dt)
