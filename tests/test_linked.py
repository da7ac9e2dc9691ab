import hashlib
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import sgdd.linked
import sgdd.schemes
from block_route import first_difference
from surd_route import sigma_tau_rho_by_surds
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.classical import (
    hadamard_matrix,
    is_hadamard,
    paley_conference_matrix,
    signed_permutation_weighing_set,
)
from sgdd.cli import main
from sgdd.designs import Certificate, GddParams, check_k_commutation, verify_gdd, verify_grams
from sgdd.errors import BudgetExceededError, CertificationError, InfeasibleParameterError, ParameterError
from sgdd.latin import ordered_pairs, pair_index
from sgdd.linked import (
    GcmMatrix,
    LinkedParams,
    LinkedSystemII,
    bgw_generate,
    build_from_mub_bush,
    build_tilde_l,
    build_twin,
    bush_search,
    conference_to_gdd,
    gcm_to_gdd,
    is_bush_type,
    pair_system,
    sigma_tau_rho,
    symmetric_design_numerators,
    twin_params,
    verify_gcm,
    verify_linked_system,
)
from sgdd.scanner import scan_table1, scan_table2
from conftest import read_text, text_of


def test_triple_candidates_16():
    cands = sigma_tau_rho(6, 4, 4)
    triples = {(c.sigma, c.tau, c.rho) for c in cands if c.integral}
    assert triples == {(3, 1, 3), (1, 3, 3)}
    *nums, den = symmetric_design_numerators(4, 4)
    assert [Fraction(x, den) for x in nums] == [3, 1, 3]


def test_triple_candidates_52():
    cands = sigma_tau_rho(24, 13, 4)
    assert all(c.integral for c in cands)
    assert {(c.sigma, c.tau, c.rho) for c in cands} == {(13, 9, 12), (9, 13, 12)}


def test_triple_candidates_gcm_shape_flagged():
    cands = sigma_tau_rho(5, 6, 4)
    assert all(not c.integral for c in cands)
    assert all(c.rho == Fraction(5, 4) for c in cands)
    assert all(c.sigma is None and c.tau is None for c in cands)  # D = 1125 is no square


def test_triple_rejects_out_of_range():
    for route in (sigma_tau_rho, sigma_tau_rho_by_surds):
        with pytest.raises(ParameterError):
            route(30, 4, 4)  # k > (m-1)n gives a negative discriminant


def test_triples_match_the_surd_route():
    # every table row with v <= 5000 (D a square), the GCM shape (5, 6, 4)
    # and a grid of small (k, m, n), most of them with D no square
    rows = {(r.k, r.m, r.n) for r in scan_table1(5000) + scan_table2(5000)}
    grid = {(k, m, n) for m in range(2, 9) for n in range(2, 9) for k in range(1, (m - 1) * n)}
    assert len(rows) > 100 and (5, 6, 4) in grid
    irrational = 0
    for k, m, n in sorted(rows | grid):
        ref = sigma_tau_rho_by_surds(k, m, n)
        for c, (sigma, tau, rho, integral) in zip(sigma_tau_rho(k, m, n), ref, strict=True):
            assert (c.rho, c.integral) == (rho, integral)
            if sigma.is_rational and tau.is_rational:
                assert (c.sigma, c.tau) == (sigma, tau)
            else:
                assert c.sigma is None and c.tau is None and not sigma.is_rational and not tau.is_rational
                irrational += 1
    assert irrational > 100


def test_tilde_l_16(sys16):
    p = sys16.params
    assert (p.base.v, p.base.k, p.base.m, p.base.n) == (16, 6, 4, 4)
    assert (p.base.lambda1, p.base.lambda2) == (2, 2)
    assert (p.sigma, p.tau, p.rho) == (3, 1, 3)
    assert verify_linked_system(sys16).ok


def test_tilde_l_45(sys45):
    p = sys45.params
    assert (p.base.v, p.base.k, p.base.m, p.base.n) == (45, 12, 5, 9)
    assert (p.sigma, p.tau, p.rho) == (5, 2, 4)


def test_tilde_l_64_from_gf8(sys64):
    p = sys64.params
    assert (p.base.v, p.base.k, p.base.lambda1) == (64, 28, 12)
    assert (p.sigma, p.tau, p.rho) == (14, 10, 14)
    assert p.f == 7


def test_single_block_is_symmetric_design(aux_had4, fam_gf4):
    system = build_tilde_l(aux_had4, fam_gf4)
    params = system.params.base
    assert params.lambda1 == params.lambda2
    assert all(verify_gdd(mat, params).ok for mat in system.stack)


def test_verifier_catches_swapped_blocks(sys16):
    broken = LinkedSystemII(sys16.params, sys16.stack[[1, 0, 2, 3, 4, 5]])  # A_12 and A_13 trade places
    cert = verify_linked_system(broken)
    assert not cert.ok
    assert any("triple product" in str(v) for v in cert.violations)


def test_verifier_requires_transposed_blocks(sys16, non_transposed_pair):
    # the note line keeps its text; the failed check is now the only violation
    assert verify_linked_system(sys16).notes == ["transpose-consistent blocks: yes"]
    cert = verify_linked_system(non_transposed_pair)
    assert cert.notes == ["transpose-consistent blocks: no"]
    assert [v.identity for v in cert.violations] == ["block (2, 1) is the transpose of block (1, 2)"]
    pos = cert.violations[0].position
    a12, a21 = (non_transposed_pair.stack[pair_index(2, *pair)] for pair in ((1, 2), (2, 1)))
    assert a21[pos] != a12.T[pos]


def _triple_lines_per_triple(sys):
    """Reference route for the triple-product law: one product and one
    expected matrix per ordered triple (i, j, l)."""
    p = sys.params
    base = p.base
    cert = Certificate("triple products")
    j_v = np.ones((base.v, base.v), dtype=np.int64)
    k_v = np.kron(np.eye(base.m, dtype=np.int64), np.ones((base.n, base.n), dtype=np.int64))
    mats = {pair: IntMatrix.view(blk) for pair, blk in zip(ordered_pairs(p.f), sys.stack)}
    for i, j in sorted(mats):
        for l in range(1, p.f + 1):
            if l in (i, j):
                continue
            prod = mats[(i, j)] @ mats[(j, l)]
            ail = mats[(i, l)].a
            expected = IntMatrix(p.sigma * ail + p.tau * (j_v - ail - k_v) + p.rho * k_v)
            pos = first_difference(prod, expected)
            if pos is None:
                cert.passed(f"triple product ({i},{j},{l})")
            else:
                cert.failed(f"triple product ({i},{j},{l})", pos, expected[pos], prod[pos])
    return cert.checks, cert.violations


def _triple_lines(cert):
    return (
        [c for c in cert.checks if c.startswith("triple product")],
        [v for v in cert.violations if v.identity.startswith("triple product")],
    )


@pytest.mark.parametrize(
    "source, seed",
    [("sys16", None), ("sys45", None), ("sys64", None), ("sys16", 3), ("sys45", 4), ("sys64", 7)],
)
def test_batched_triple_products_match_per_triple(source, seed, request, corrupt_system):
    sys = request.getfixturevalue(source)
    if seed is not None:
        sys, _ = corrupt_system(sys, seed)
    checks, violations = _triple_lines(verify_linked_system(sys))
    f = sys.params.f
    assert len(checks) + len(violations) == f * (f - 1) * (f - 2)
    assert (checks, violations) == _triple_lines_per_triple(sys)
    assert bool(violations) == (seed is not None)


def _recorded_shapes(monkeypatch) -> list:
    """The operand shapes of every kernel product formed from here on."""
    shapes = []
    matmul = IntMatrix.__matmul__

    def recorded(a, b):
        shapes.append((a.a.shape, b.a.shape))
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", recorded)
    return shapes


def _product_shapes(sys, monkeypatch):
    shapes = _recorded_shapes(monkeypatch)
    assert verify_linked_system(sys).ok
    return shapes


def test_linked_system_takes_one_stacked_product(sys64, monkeypatch):
    """The 42 blocks of the GF(8) system are certified in 1 kernel call:
    the grids of all f middle indices as one stacked product, whose cells
    A_ij A_ji give both Gram identities of every block once the transposes
    hold; A K = K A is read from the sums of each block's rows and columns
    over each group, with no product.  The GF(8) translations fix every
    block and move group 0 onto every group, so the product is formed on
    the n rows of group 0 alone."""
    shapes = _product_shapes(sys64, monkeypatch)
    base, f = sys64.params.base, sys64.params.f
    v, n = base.v, base.n
    assert shapes == [((f, (f - 1) * n, v), (f, v, (f - 1) * v))]


@pytest.mark.parametrize("source, rows", [("pair16", 16), ("pair24", 6)])
def test_a_pair_takes_one_grid_product_and_its_companion_products(source, rows, request, monkeypatch):
    """A pair (f = 2) has no triple: its grid is the cells A_12 A_21 and
    A_21 A_12, which give the Gram identities of both blocks, as one stacked
    product; A K = K A takes no product, and the companion A + K its two
    Gram products, each the one cell of a 1 x 1 grid, multiplied as a
    matrix.  pair16 has no translation; the point shifts of pair24's groups
    of 2 fix it, so it is formed on one point of each of its 6 groups."""
    system = request.getfixturevalue(source)
    shapes = _product_shapes(system, monkeypatch)
    v = system.params.base.v
    assert shapes == [((2, rows, v), (2, v, v)), ((rows, v), (v, v)), ((rows, v), (v, v))]


def test_gram_pairs_of_a_stack_of_two_form_only_their_gram_products(conference12, monkeypatch):
    """``verify_grams`` on a stack of two, the conference design of order 12
    twice, forms A A^T and then A^T A of both members as one batch of two
    1 x 1 grids: ((2, v, v), (2, v, v)), 6 912 multiply-adds in all, half
    the 13 824 of the whole 2 x 2 grid, ((24, 12), (12, 24)) per identity."""
    mat, params = conference12
    stack = np.stack([mat] * 2)
    shapes = _recorded_shapes(monkeypatch)
    assert all(c.ok for c in verify_grams(stack, params))
    v = params.v
    assert shapes == [((2, v, v), (2, v, v))] * 2


def test_a_system_with_no_translation_takes_one_full_product(bush_pair, monkeypatch):
    """The MUB-Bush system has no group permutation fixing its blocks, so
    its one product has full-height operands."""
    system = build_from_mub_bush(bush_pair)
    shapes = _product_shapes(system, monkeypatch)
    base, f = system.params.base, system.params.f
    v = base.v
    assert shapes == [((f, (f - 1) * v, v), (f, v, (f - 1) * v))]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("source", ["sys16", "sys45"])
def test_single_flip_fails_linked_system_on_blas_lane(source, seed, request, corrupt_system, matmul_lanes):
    sys, pair = corrupt_system(request.getfixturevalue(source), seed)
    cert = verify_linked_system(sys)
    assert not cert.ok
    assert any(v.identity.startswith(f"block {pair}: A A^T") for v in cert.violations)
    assert _triple_lines(cert)[1]
    assert matmul_lanes and set(matmul_lanes) == {np.float32}


def test_linked_params_identities_enforced():
    base = GddParams(16, 6, 4, 4, 2, 2)
    with pytest.raises(ParameterError):
        LinkedParams(base=base, f=3, sigma=3, tau=2, rho=3)
    with pytest.raises(ParameterError):
        LinkedParams(base=base, f=3, sigma=3, tau=1, rho=4)
    with pytest.raises(ParameterError):
        LinkedParams(base=base, f=2, sigma=3, tau=1, rho=3)


def test_conference_paley6(conference12):
    mat, params = conference12
    assert (params.v, params.k, params.m, params.n, params.lambda1, params.lambda2) == (12, 5, 6, 2, 0, 2)
    comm = check_k_commutation(mat, params)
    assert comm.kind == "multiple_of_J_minus_K" and comm.factor == 1


def test_conference_order2_degenerate():
    mat, params = conference_to_gdd(IntMatrix([[0, 1], [1, 0]]))
    assert (params.v, params.k, params.m, params.n, params.lambda1, params.lambda2) == (4, 1, 2, 2, 0, 0)


def test_conference_order10_via_gf9():
    mat, params = conference_to_gdd(paley_conference_matrix(10))
    assert (params.v, params.k, params.m, params.n, params.lambda1, params.lambda2) == (20, 9, 10, 2, 0, 4)


def test_non_conference_rejected():
    with pytest.raises(ParameterError):
        conference_to_gdd(IntMatrix(np.ones((4, 4), dtype=np.int64)))


@pytest.mark.parametrize("q,g", [(3, 2), (4, 3), (5, 4)])
def test_bgw_generate(q, g):
    gcm = bgw_generate(q)
    assert gcm.order == q + 1
    assert gcm.g == g
    assert gcm.lam == 1
    assert verify_gcm(gcm).ok


def test_gcm_to_gdd_bgw5(gcm24):
    mat, params = gcm24
    assert (params.v, params.k, params.m, params.n, params.lambda1, params.lambda2) == (24, 5, 6, 4, 0, 1)
    comm = check_k_commutation(mat, params)
    assert comm.kind == "multiple_of_J_minus_K" and comm.factor == 1


def test_conference_as_c2_gcm_agrees(conference12):
    # entries of a conference matrix, read over the order-2 group
    c = paley_conference_matrix(6)
    entries = [
        [(-1 if c[i, j] == 0 else (0 if c[i, j] == 1 else 1)) for j in range(6)]
        for i in range(6)
    ]
    gcm = GcmMatrix(2, entries)
    assert verify_gcm(gcm).ok
    mat, params = gcm_to_gdd(gcm)
    assert params == conference12[1]
    assert np.array_equal(mat, conference12[0])


@pytest.mark.parametrize("entries", [[], [[-1]]])
def test_gcm_refuses_order_below_two(entries):
    """Order 0 would pass every line of verify_gcm vacuously (lambda = -1
    over C_2) and leave nothing to gather."""
    with pytest.raises(ParameterError, match="^matrix order must be at least 2$"):
        GcmMatrix(2, entries)


@pytest.mark.parametrize("text", ["0 2\n", "-4 2\n"], ids=["order-0", "order-minus-4"])
def test_cli_refuses_an_empty_gcm(text, tmp_path, capsys):
    """A header of order 0, or of a negative order, which no writer writes,
    is refused by the reader as a format error (exit status 2), not a
    traceback."""
    gcm = tmp_path / "empty.gcm"
    gcm.write_text(text)
    assert main(["construct", "gcm-gdd", "--in", str(gcm)]) == 2
    assert capsys.readouterr() == ("", "error: group-entry matrix: matrix order must be at least 2\n")


def test_gcm_violation_detected():
    entries = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    bad = GcmMatrix(2, entries)
    with pytest.raises(ParameterError):
        bad.lam  # order - 2 = 1 not divisible by 2
    gcm = bgw_generate(5)
    gcm.entries[0][1] = (gcm.entries[0][1] + 1) % gcm.g
    assert not verify_gcm(gcm).ok


def test_twin_16():
    twin = build_twin(hadamard_matrix(4), signed_permutation_weighing_set(4))
    p = twin.params
    assert (p.v, p.k, p.m, p.n, p.lambda1, p.lambda2) == (16, 6, 4, 4, 2, 2)
    k = np.kron(np.eye(4, dtype=np.int64), np.ones((4, 4), dtype=np.int64))
    assert (twin.plus + twin.minus + k == 1).all()


def test_twin_112_parameters():
    p = twin_params(4, 9)
    assert (p.v, p.k, p.m, p.n, p.lambda1, p.lambda2) == (112, 54, 28, 4, 18, 26)
    with pytest.raises(InfeasibleParameterError):
        twin_params(3, 1)


def test_twin_rejects_mismatched_weighing_set():
    ws = signed_permutation_weighing_set(4)
    with pytest.raises(ParameterError):
        build_twin(hadamard_matrix(4), ws[:2])
    bad = [IntMatrix(w.a.copy()) for w in ws]
    bad[0].a[0, 1] = 0
    with pytest.raises(ParameterError):
        build_twin(hadamard_matrix(4), bad)


def test_bush_search_trivial_and_pair(bush_pair):
    single = bush_search(2, 1)
    assert single and is_bush_type(single[0])
    h1, h2 = bush_pair
    assert is_bush_type(h1) and is_bush_type(h2)


def test_bush_search_stops_at_the_node_budget(monkeypatch):
    # (2, 3) places 48 rows: sixteen per matrix, none taken back
    monkeypatch.setattr(sgdd.linked, "BUSH_MAX_NODES", 48)
    assert len(bush_search(2, 3)) == 3
    monkeypatch.setattr(sgdd.linked, "BUSH_MAX_NODES", 47)
    with pytest.raises(BudgetExceededError, match=r"^search stopped at its budget: 47 nodes expanded"):
        bush_search(2, 3)


def test_cli_bush_search_stops_at_the_node_budget(monkeypatch, capsys):
    # no four unbiased Bush-type matrices of order 16 exist; the real budget
    # stops this search in seconds, a small one here
    monkeypatch.setattr(sgdd.linked, "BUSH_MAX_NODES", 200)
    assert main(["oracle", "bush", "--n", "2", "--f", "4"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: search stopped at its budget: 200 nodes expanded (one node is one row placed)\n",
    )


def test_bush_search_degenerate_n1():
    with pytest.raises(ParameterError):
        bush_search(1, 1)


def test_mub_system_matches_tilde_params(bush_pair, sys16):
    system = build_from_mub_bush(bush_pair)
    assert system.params == sys16.params
    assert system.f == 3


def test_mub_pair_from_single_matrix(bush_pair):
    system = build_from_mub_bush(bush_pair[:1])
    assert system.f == 2
    assert verify_linked_system(system).ok


def test_mub_rejects_biased_input(bush_pair):
    h1, _ = bush_pair
    with pytest.raises(ParameterError):
        build_from_mub_bush([h1, h1])  # H H^T = 16 I is not +-4-valued


def test_pair_system_from_conference(conference12):
    mat, params = conference12
    pair = pair_system(mat, params)
    assert verify_linked_system(pair).ok


def test_parameter_identities_on_certified_systems(sys16, sys45):
    for system in (sys16, sys45):
        p = system.params
        base = p.base
        assert (p.sigma - p.tau) ** 2 == base.k - base.lambda1
        assert (p.sigma - p.tau) * (p.rho - p.tau) + (p.sigma - p.tau + base.k) * p.tau == base.k * base.lambda2
        assert Fraction((p.rho - p.tau - base.lambda1 + base.lambda2) * base.k, base.m - 1) == (
            (p.sigma - p.tau) * (p.rho - p.tau)
        )
        assert Fraction(base.k**2, base.n * (base.m - 1)) == p.rho
        cands = {(c.sigma, c.tau, c.rho) for c in sigma_tau_rho(base.k, base.m, base.n) if c.integral}
        assert (p.sigma, p.tau, p.rho) in cands


def test_bush_type_of_symmetric_design_blocks(sys16):
    for blk in sys16.stack:
        assert is_bush_type(IntMatrix(1 - 2 * blk.astype(np.int64)))


def _bush_type_by_blocks(h: IntMatrix) -> bool:
    """The block-by-block loop ``is_bush_type`` replaced."""
    if not is_hadamard(h):
        return False
    b = isqrt(h.rows)
    if b * b != h.rows:
        return False
    arr = h.a
    for br in range(b):
        for bc in range(b):
            blk = arr[br * b : (br + 1) * b, bc * b : (bc + 1) * b]
            if br == bc:
                if not (blk == 1).all():
                    return False
            elif blk.sum(axis=0).any() or blk.sum(axis=1).any():
                return False
    return True


def test_bush_type_matches_block_loop(bush_pair):
    """The reshaped test against the loop on the pair, its transposes, and
    seeded changes of each: one entry, one row, one column or one block row
    negated (the last leaves every off-diagonal sum zero), block rows
    permuted, and block rows and columns permuted alike (still Bush-type)."""
    rng = np.random.default_rng(16)
    cases = []
    for h in bush_pair:
        for arr in (h.a, h.a.T):
            cases.append(arr)
            for _ in range(4):
                x, y = (int(t) for t in rng.integers(16, size=2))
                entry, row, col, band = arr.copy(), arr.copy(), arr.copy(), arr.copy()
                entry[x, y] *= -1
                row[x] *= -1
                col[:, y] *= -1
                band[x // 4 * 4 : x // 4 * 4 + 4] *= -1
                perm = (4 * rng.permutation(4))[:, None] + np.arange(4)
                cases += [entry, row, col, band, arr[perm.ravel()], arr[perm.ravel()][:, perm.ravel()]]
    verdicts = [(is_bush_type(IntMatrix(c)), _bush_type_by_blocks(IntMatrix(c))) for c in cases]
    assert all(new == old for new, old in verdicts)
    assert {new for new, _ in verdicts} == {True, False}


def test_bush_search_deterministic():
    """The searched families by their ``.hset`` bytes; f = 2 is the digest of
    ``oracle bush --n 2 --f 2``'s output."""
    pins = {
        1: "e53577e3ef027d7d3fd4887f9aa763041683252280c93be166ddaf1430a87a6c",
        2: "c876a1ee9fe2ba6386182526aaca70ef3ac2d21da00868b6cc7408566a0af73b",
        3: "e3370405894065c9043efb573ee2e777d18538758f032cd3035af9e38a3f25fd",
    }
    for f, digest in pins.items():
        assert hashlib.sha256(b"".join(fileio.matrix_set_chunks(bush_search(2, f)))).hexdigest() == digest, f


def test_search_linked_mols_deterministic(fam_order5):
    from sgdd.latin import search_linked_mols

    again = search_linked_mols(5, 3)
    assert again == fam_order5


def test_bush_search_finds_three_member_family():
    trio = bush_search(2, 3)
    assert trio is not None and len(trio) == 3
    system = build_from_mub_bush(trio)
    # four indices: the Krein bound f <= m is attained
    assert system.params.f == 4
    assert (system.params.sigma, system.params.tau, system.params.rho) == (3, 1, 3)


def test_a_certified_system_is_read_only(sys16, scheme48):
    """Constructions and a certifying extraction seal the system: its
    certificate is recorded, and neither the stack nor a block view of it
    takes a write."""
    extracted = sgdd.schemes.extract_linked_system([scheme48.relation == i for i in range(6)]).primary.system
    for system in (sys16, extracted):
        assert system.certificate.ok
        with pytest.raises(ValueError):
            system.stack[0, 0, 0] = 1
        with pytest.raises(ValueError):
            system.stack[pair_index(system.f, 1, 2)][0, 0] = 1


def test_assemble_verifies_only_an_unsealed_system(sys16, scheme48, corrupt_system, monkeypatch):
    """assemble_scheme trusts the certificate of a sealed system and
    certifies a parsed one, which carries none, so a corrupted file is still
    refused."""
    calls = []
    verify = sgdd.schemes.verify_linked_system
    monkeypatch.setattr(sgdd.schemes, "verify_linked_system", lambda sys: calls.append(sys) or verify(sys))
    assert np.array_equal(sgdd.schemes.assemble_scheme(sys16).relation, scheme48.relation)
    assert calls == []
    parsed = read_text(fileio.read_linked_system, text_of(fileio.linked_system_chunks(sys16)))
    assert parsed.certificate is None and parsed.stack.flags.writeable
    assert np.array_equal(sgdd.schemes.assemble_scheme(parsed).relation, scheme48.relation)
    assert calls == [parsed]
    for seed in range(5):
        bad, _ = corrupt_system(parsed, seed)
        with pytest.raises(CertificationError, match="input system fails certification"):
            sgdd.schemes.assemble_scheme(bad)
    assert len(calls) == 6
