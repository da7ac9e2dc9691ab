import random
from itertools import permutations

import pytest

import sgdd.latin
from sgdd.designs import Certificate
from sgdd.errors import BudgetExceededError, CertificationError, ParameterError
from sgdd.gf import gf_from_order, gf_make
from sgdd.latin import (
    LatinSquare,
    LinkedMolsFamily,
    _solve_second,
    compose,
    is_orthogonal,
    linked_mols_from_gf2n,
    mols_from_gf,
    search_linked_mols,
    verify_linked,
)


def test_field_squares_pairwise_orthogonal(gf4, gf5):
    for ctx in (gf4, gf5):
        squares = mols_from_gf(ctx)
        assert len(squares) == ctx.q - 1
        for i, a in enumerate(squares):
            for b in squares[i + 1 :]:
                assert is_orthogonal(a, b)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_field_squares_exhaustive_orthogonality(q):
    from sgdd.gf import gf_from_order

    squares = mols_from_gf(gf_from_order(q))
    for i, a in enumerate(squares):
        for b in squares[i + 1 :]:
            assert is_orthogonal(a, b)
            assert is_orthogonal(b, a)


def test_field_square_diagonals_zero(gf4):
    for sq in mols_from_gf(gf4):
        assert sq.zero_diagonal


def test_self_orthogonality_fails():
    sq = LatinSquare.of([[0, 1], [1, 0]])
    assert not is_orthogonal(sq, sq)


def test_row_shifted_copy_is_never_orthogonal():
    # distinct rows of one Latin square never agree in a column, so a square
    # and its row-shifted copy coincide in 0 or n positions, never exactly 1
    l1 = LatinSquare.of([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    l2 = LatinSquare.of([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert not is_orthogonal(l1, l2)


def test_compose_order3_by_enumeration():
    squares = mols_from_gf(gf_make(3, 1))
    l1, l2 = squares
    assert is_orthogonal(l1, l2)
    out = compose(l1, l2)
    # brute-force oracle: entry (i, j) is the unique common value of the rows
    for i in range(3):
        for j in range(3):
            common = {l1.grid[i][a] for a in range(3) if l1.grid[i][a] == l2.grid[j][a]}
            assert common == {out.grid[i][j]}


def test_compose_rejects_non_orthogonal():
    sq = LatinSquare.of([[0, 1], [1, 0]])
    with pytest.raises(ParameterError):
        compose(sq, sq)


@pytest.mark.parametrize("q", [4, 5, 8])
def test_compose_field_square_with_composition_recovers_partner(q):
    from sgdd.gf import gf_from_order

    squares = mols_from_gf(gf_from_order(q))
    for i, a in enumerate(squares):
        for j, b in enumerate(squares):
            if i != j:
                assert compose(a, compose(a, b)) == b


def test_triple_closure_exhaustive_gf4(gf4):
    squares = mols_from_gf(gf4)
    for a, b, c in permutations(squares, 3):
        ab, cb = compose(a, b), compose(c, b)
        assert is_orthogonal(ab, cb)
        assert compose(ab, cb) == compose(a, c)


def test_linked_family_gf4(fam_gf4):
    assert fam_gf4.f == 3 and fam_gf4.order == 4
    assert fam_gf4.zero_diagonal
    assert verify_linked(fam_gf4).ok


def test_linked_family_gf8():
    fam = linked_mols_from_gf2n(gf_make(2, 3))
    assert fam.f == 7 and fam.order == 8
    assert verify_linked(fam).ok


def test_gf2_rejected():
    with pytest.raises(ParameterError):
        linked_mols_from_gf2n(gf_make(2, 1))


def test_odd_characteristic_family_certifies():
    for p, d in ((5, 1), (7, 1), (3, 2)):
        fam = linked_mols_from_gf2n(gf_make(p, d))
        assert fam.f == p**d - 1 and fam.order == p**d
        assert verify_linked(fam).ok


def _tampered(fam):
    # field squares in characteristic 2 are symmetric, so transposition is
    # invisible; relabel two symbols in one square instead
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    squares = dict(fam.squares)
    squares[(1, 2)] = LatinSquare.of([[swap[x] for x in row] for row in squares[(1, 2)].grid])
    return LinkedMolsFamily(f=fam.f, order=fam.order, squares=squares)


def test_verifier_catches_tampered_square(fam_gf4):
    broken = _tampered(fam_gf4)
    assert not verify_linked(broken).ok


def test_verifier_returns_a_design_certificate(fam_gf4):
    cert = verify_linked(_tampered(fam_gf4))
    assert isinstance(cert, Certificate)
    assert [str(v) for v in cert.violations] == [
        "triple (1, 2, 3): composition does not reproduce the pair square",
        "triple (1, 3, 2): squares sharing the third index are not orthogonal",
        "triple (3, 1, 2): squares sharing the third index are not orthogonal",
    ]
    assert verify_linked(fam_gf4).ok and verify_linked(fam_gf4).checks


def test_cli_reports_a_failing_field_family(monkeypatch, capsys):
    # a field family that fails the linked property reaches the CLI as a
    # CertificationError carrying its certificate, which is printed
    from sgdd.cli import main

    family = sgdd.latin.LinkedMolsFamily
    monkeypatch.setattr(sgdd.latin, "LinkedMolsFamily", lambda **kw: _tampered(family(**kw)))
    assert main(["construct", "linked-mols", "--q", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "certificate: linked family f=3 order=4: VIOLATED",
        "  violation: triple (1, 2, 3): composition does not reproduce the pair square",
        "  violation: triple (1, 3, 2): squares sharing the third index are not orthogonal",
        "  violation: triple (3, 1, 2): squares sharing the third index are not orthogonal",
    ]
    assert err == "error: field-derived family fails the linked property\n"
    with pytest.raises(CertificationError):
        sgdd.latin.linked_mols_from_gf2n(gf_make(2, 2))


def _solve_first(l2: LatinSquare, target: LatinSquare) -> LatinSquare | None:
    """Reference route: Y with compose(Y, l2) = target, or None, solved
    cell by cell."""
    n = l2.order
    pos = l2.positions()
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b = target.grid[i][j]
            a = pos[j][b]
            if grid[i][a] is None:
                grid[i][a] = b
            elif grid[i][a] != b:
                return None
    if any(x is None for row in grid for x in row):
        return None
    try:
        y = LatinSquare(tuple(tuple(row) for row in grid))
    except ParameterError:
        return None
    if not is_orthogonal(y, l2) or compose(y, l2) != target:
        return None
    return y


def _relabeled(sq: LatinSquare, rows, cols, symbols) -> LatinSquare:
    return LatinSquare.of([[symbols[sq.grid[r][c]] for c in cols] for r in rows])


@pytest.mark.parametrize("q", [4, 5])
def test_solve_second_on_the_transpose_matches_solve_first(q):
    # compose(A, B)^T = compose(B, A), so Y with compose(Y, L) = T is X with
    # compose(L, X) = T^T; seeded orthogonal pairs (field squares under a
    # shared column and symbol relabeling and their own row orders) give
    # solvable targets, relabeled single squares mostly unsolvable ones
    rng = random.Random(q)
    squares = mols_from_gf(gf_from_order(q))

    def perm():
        return rng.sample(range(q), q)

    solved = 0
    for _ in range(60):
        a, b = rng.sample(squares, 2)
        cols, symbols = perm(), perm()
        y, l2 = _relabeled(a, perm(), cols, symbols), _relabeled(b, perm(), cols, symbols)
        for target in (compose(y, l2), _relabeled(rng.choice(squares), perm(), perm(), perm())):
            want = _solve_first(l2, target)
            assert _solve_second(l2, target.transpose()) == want
            solved += want is not None
    assert solved >= 60


def test_search_order4_finds_family():
    fam = search_linked_mols(4, 3)
    assert fam is not None
    assert verify_linked(fam).ok and fam.zero_diagonal
    assert fam.squares[(1, 2)].grid[0] == (0, 1, 2, 3)


def test_search_order2_exhausts():
    assert search_linked_mols(2, 3) is None


def test_search_order5(fam_order5):
    assert fam_order5.f == 3 and fam_order5.order == 5
    assert verify_linked(fam_order5).ok and fam_order5.zero_diagonal


def test_search_budget_guard():
    with pytest.raises(BudgetExceededError):
        search_linked_mols(9, 3)
    with pytest.raises(ParameterError):
        search_linked_mols(5, 2)


def test_search_is_independent_of_field_construction(fam_gf4):
    # the searched order-4 family need not equal the field one, but both
    # certify against the same verifier (independent code paths)
    fam = search_linked_mols(4, 3)
    assert verify_linked(fam).ok and verify_linked(fam_gf4).ok
