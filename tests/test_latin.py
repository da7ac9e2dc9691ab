import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdd.latin
from sgdd.cli import main
from sgdd.designs import Certificate
from sgdd.errors import BudgetExceededError, CertificationError, ParameterError
from sgdd import fileio
from sgdd.gf import gf_from_order, gf_make
from sgdd.latin import (
    LatinSquare,
    LinkedMolsFamily,
    _extend_family,
    _RowSearch,
    _solve_second,
    compose,
    is_orthogonal,
    linked_mols_from_gf,
    mols_from_gf,
    ordered_pairs,
    pair_index,
    search_linked_mols,
    verify_linked,
)
from block_route import verify_linked as verify_linked_by_reference
from conftest import text_of


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
    fam = linked_mols_from_gf(gf_make(2, 3))
    assert fam.f == 7 and fam.order == 8
    assert verify_linked(fam).ok


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16])
def test_field_family_equals_the_composed_family(q, monkeypatch):
    ctx = gf_from_order(q)
    base = mols_from_gf(ctx)
    composed = {(i, j): compose(base[i - 1], base[j - 1]) for i in range(1, q) for j in range(1, q) if i != j}

    def refuse(*args):
        raise AssertionError("compose called")

    monkeypatch.setattr(sgdd.latin, "compose", refuse)
    assert np.array_equal(linked_mols_from_gf(ctx).stack, [composed[pair].grid for pair in ordered_pairs(q - 1)])


def test_gf2_rejected():
    with pytest.raises(ParameterError):
        linked_mols_from_gf(gf_make(2, 1))


def test_odd_characteristic_family_certifies():
    for p, d in ((5, 1), (7, 1), (3, 2)):
        fam = linked_mols_from_gf(gf_make(p, d))
        assert fam.f == p**d - 1 and fam.order == p**d
        assert verify_linked(fam).ok


def _tampered(fam):
    # field squares in characteristic 2 are symmetric, so transposition is
    # invisible; relabel two symbols in one square instead
    swap, stack, at = np.array([0, 2, 1, 3]), fam.stack.copy(), pair_index(fam.f, 1, 2)
    stack[at] = swap[stack[at]]
    return LinkedMolsFamily(f=fam.f, stack=stack)


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
        sgdd.latin.linked_mols_from_gf(gf_make(2, 2))


_SQUARE_ORDER = "latin square: order n must be at least 1"
_FAMILY_ORDER = "linked family: order n must be at least 1"


@pytest.mark.parametrize(
    "text, error",
    [
        ("0\n", _SQUARE_ORDER),
        ("-1\n", _SQUARE_ORDER),
        ("3 0\n", _FAMILY_ORDER),
        ("3 -1\n", _FAMILY_ORDER),
        ("2 3\n", "linked family: index count f must be at least 3"),
    ],
    ids=["order-0", "order-minus-1", "family-0", "family-minus-1", "family-f-2"],
)
def test_cli_refuses_a_latin_square_of_order_below_one(text, error, tmp_path, capsys):
    """A square or family header of order 0, or of a negative order, which
    reads as no rows, and a family header of fewer than three indices, are
    format errors (exit status 2) that name the header field, not a vacuous
    OK or a traceback: no writer writes such a header."""
    path = tmp_path / "empty.lat"
    path.write_text(text)
    assert main(["verify", "latin", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_cli_oracle_finds_the_order_one_family(tmp_path, capsys):
    """Every square of order 1 is [[0]], with a zero diagonal, and any f of
    them form a linked family: the search finds it and it certifies."""
    path = tmp_path / "one.fam"
    assert main(["oracle", "linked-mols", "--order", "1", "--f", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "latin", str(path)]) == 0
    assert capsys.readouterr() == ("linked family f=4 order=1: OK\n", "")
    for f in (3, 5):
        fam = search_linked_mols(1, f)
        assert fam.f == f and fam.zero_diagonal and verify_linked(fam).ok


@pytest.mark.parametrize("order", ["0", "-2"])
def test_cli_oracle_refuses_an_order_below_one(order, capsys):
    """No square has order 0 or less: an error line with exit status 1,
    not "exhausted" and not a traceback."""
    assert main(["oracle", "linked-mols", "--order", order, "--f", "3"]) == 1
    assert capsys.readouterr() == ("", "error: Latin square order must be at least 1\n")
    with pytest.raises(ParameterError, match="order must be at least 1"):
        search_linked_mols(-1, 3)


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


def _base_squares(n: int) -> list[LatinSquare]:
    """The field squares of order n, or the cyclic square where no field of
    order n exists (orders 1 and 6)."""
    try:
        return mols_from_gf(gf_from_order(n))
    except ParameterError:
        return [LatinSquare.of([[(r + c) % n for c in range(n)] for r in range(n)])]


@st.composite
def _solve_cases(draw):
    """(L, T) of an order 1..6: L a relabeled base square and T either the
    composition of L with a partner under a shared column and symbol
    relabeling, when they are orthogonal, or another relabeled square."""
    n = draw(st.integers(1, 6))
    squares = _base_squares(n)

    def perm():
        return draw(st.permutations(range(n)))

    a, b, c = (draw(st.sampled_from(squares)) for _ in range(3))
    cols, symbols = perm(), perm()
    l1, partner = _relabeled(a, perm(), cols, symbols), _relabeled(b, perm(), cols, symbols)
    if draw(st.booleans()) and is_orthogonal(l1, partner):
        return l1, compose(l1, partner)
    return l1, _relabeled(c, perm(), perm(), perm())


@given(_solve_cases())
@settings(max_examples=200, deadline=None)
def test_a_solved_second_square_is_orthogonal_and_composes_to_the_target(case):
    # _solve_second checks neither after filling X with no clash: its
    # docstring argues both hold, and this checks the argument
    l1, target = case
    x = _solve_second(l1, target)
    if x is not None:
        assert is_orthogonal(l1, x)
        assert compose(l1, x) == target


def test_search_order4_finds_family():
    fam = search_linked_mols(4, 3)
    assert fam is not None
    assert verify_linked(fam).ok and fam.zero_diagonal
    assert fam.stack[pair_index(fam.f, 1, 2), 0].tolist() == [0, 1, 2, 3]


def test_search_order2_exhausts():
    assert search_linked_mols(2, 3) is None


@pytest.mark.parametrize("order", [2, 6])
def test_orders_with_no_orthogonal_pair_are_answered_before_the_search(order, monkeypatch, capsys):
    """No node is placed: the search returns None at once, for every f and
    either diagonal, and the CLI gives its reason with exit status 1."""
    monkeypatch.setattr(sgdd.latin, "SEARCH_MAX_NODES", 0)
    for f, zero_diagonal in ((3, True), (3, False), (5, True)):
        assert search_linked_mols(order, f, zero_diagonal) is None
    assert main(["oracle", "linked-mols", "--order", str(order), "--f", "3", "--any-diagonal"]) == 1
    assert capsys.readouterr() == (f"exhausted: {sgdd.latin.NO_FAMILY[order]}\n", "")


@pytest.mark.parametrize("n, pairs", [(3, 144), (4, 331_776)])
def test_row_orthogonality_is_classical_orthogonality_of_row_symbol_conjugates(n, pairs):
    """On every ordered pair of Latin squares of order n: row a of L and row
    b of M agree in exactly one column, for all a and b, exactly when the
    cells of the conjugates L'(s, c) = a iff L(a, c) = s, overlaid, hold
    every ordered pair of symbols once.  This is the argument behind
    NO_FAMILY."""
    squares = np.array(list(_latin_candidates(n, False)))
    assert len(squares) ** 2 == pairs
    left, right = squares[:, None, :, None, :], squares[None, :, None, :, :]
    rows = ((left == right).sum(axis=-1, dtype=np.uint8) == 1).all(axis=(-2, -1))
    conj = np.argsort(squares, axis=-2).reshape(len(squares), n * n)
    cells = np.sort(conj[:, None] * n + conj[None, :], axis=-1)
    classical = (cells == np.arange(n * n)).all(axis=-1)
    assert rows.any() and np.array_equal(rows, classical)
    if n == 3:
        assert rows.tolist() == [[is_orthogonal(LatinSquare(a), LatinSquare(b)) for b in squares] for a in squares]


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


def _latin_candidates(n: int, zero_diagonal: bool, first_row=None):
    """Reference generator: every Latin square, cell by cell in lexicographic
    order, with no pruning."""
    rows: list[tuple[int, ...]] = []
    col_used = [0] * n  # bitmask of used symbols per column

    def place(r: int):
        if r == n:
            yield tuple(rows)
            return
        if r == 0 and first_row is not None:
            row = first_row
            if zero_diagonal and row[0] != 0:
                return
            rows.append(row)
            for j, s in enumerate(row):
                col_used[j] |= 1 << s
            yield from place(1)
            rows.pop()
            for j, s in enumerate(row):
                col_used[j] &= ~(1 << s)
            return
        row = [0] * n
        row_used = 0

        def cell(c: int):
            nonlocal row_used
            if c == n:
                rows.append(tuple(row))
                for j, s in enumerate(row):
                    col_used[j] |= 1 << s
                yield from place(r + 1)
                rows.pop()
                for j, s in enumerate(row):
                    col_used[j] &= ~(1 << s)
                return
            options = (0,) if (zero_diagonal and c == r) else range(n)
            for s in options:
                bit = 1 << s
                if row_used & bit or col_used[c] & bit:
                    continue
                row[c] = s
                row_used |= bit
                yield from cell(c + 1)
                row_used &= ~bit

        yield from cell(0)

    yield from place(0)


def _family(squares: dict) -> LinkedMolsFamily:
    """The family of a search's squares on the indices 1..f they name."""
    f = max(map(max, squares))
    return LinkedMolsFamily(f=f, stack=np.array([squares[pair].grid for pair in ordered_pairs(f)]))


def _search_by_reference(order: int, f: int, zero_diagonal: bool) -> LinkedMolsFamily | None:
    """search_linked_mols over the unpruned reference generator, each stage
    certified on the indices 1..u by the triple-by-triple reference
    ``block_route.verify_linked``."""

    def extend_to(squares: dict, t: int):
        if t == f:
            fam = _family(squares)
            return fam if not zero_diagonal or fam.zero_diagonal else None
        u = t + 1
        for cand in _latin_candidates(order, zero_diagonal):
            new = _extend_family(squares, t, u, LatinSquare(cand), zero_diagonal)
            if new is None or not verify_linked_by_reference(_family(new)).ok:
                continue
            found = extend_to(new, u)
            if found is not None:
                return found
        return None

    for first in _latin_candidates(order, zero_diagonal, first_row=tuple(range(order))):
        found = extend_to({(1, 2): LatinSquare(first)}, 2)
        if found is not None:
            return found
    return None


@pytest.mark.parametrize(
    "order, f, zero_diagonal",
    [(4, 3, True), (4, 4, True), (5, 3, True), (5, 4, True), (5, 5, True), (3, 3, False), (4, 3, False)],
)
def test_search_matches_unpruned_reference(order, f, zero_diagonal):
    fam = search_linked_mols(order, f, zero_diagonal=zero_diagonal)
    want = _search_by_reference(order, f, zero_diagonal)
    assert fam is not None and want is not None
    assert text_of(fileio.linked_family_chunks(fam)) == text_of(fileio.linked_family_chunks(want))


def _clashes(cand, targets) -> bool:
    """Two rows of cand write one cell of a square that _solve_second(cand, T)
    forces, for some T in targets."""
    for target in targets:
        written = set()
        for i, row in enumerate(cand):
            for j, s in enumerate(target.grid[i]):
                cell = (j, row.index(s))
                if cell in written:
                    return True
                written.add(cell)
    return False


def _candidate_cases():
    """(family on {1..t}, zero_diagonal): every zero-diagonal order-4 target,
    seeded samples of any-diagonal order-4 and zero-diagonal order-5 ones,
    and the two targets L_12, L_13 of the searched (5, 5) family."""
    rng = random.Random(9)
    for zero_diagonal in (True, False):
        squares = [LatinSquare(g) for g in _latin_candidates(4, zero_diagonal)]
        if not zero_diagonal:
            squares = rng.sample(squares, 48)
        yield from (({(1, 2): sq}, zero_diagonal) for sq in squares)
    for sq in rng.sample(list(_latin_candidates(5, True)), 6):
        yield {(1, 2): LatinSquare(sq)}, True
    fam = search_linked_mols(5, 5)
    yield {pair: LatinSquare.of(sq) for pair, sq in zip(ordered_pairs(fam.f), fam.stack) if max(pair) <= 3}, True


def test_pruned_candidates_are_the_clash_free_reference_candidates():
    """For each family on {1..t}, the pruned generator yields exactly the
    reference candidates for L_{1,t+1} with no clash against any L_{1,s}, in
    the reference order, and so every candidate _extend_family accepts."""
    total_accepted = 0
    for squares, zero_diagonal in _candidate_cases():
        t = max(map(max, squares))
        targets = [squares[(1, s)] for s in range(2, t + 1)]
        order = targets[0].order
        reference = list(_latin_candidates(order, zero_diagonal))
        pruned = list(_RowSearch(order, zero_diagonal, 10**9).squares(targets))
        assert pruned == [c for c in reference if not _clashes(c, targets)]
        accepted = [
            c for c in reference if _extend_family(squares, t, t + 1, LatinSquare(c), zero_diagonal) is not None
        ]
        chosen = set(accepted)
        assert [c for c in pruned if c in chosen] == accepted
        total_accepted += len(accepted)
    assert total_accepted == 350


def test_search_stops_at_the_node_budget(monkeypatch):
    # the order-4 search places 13 rows: four for L_12, the first of them
    # pinned, and nine while it builds the L_13 that completes the family
    monkeypatch.setattr(sgdd.latin, "SEARCH_MAX_NODES", 13)
    assert search_linked_mols(4, 3) is not None
    monkeypatch.setattr(sgdd.latin, "SEARCH_MAX_NODES", 12)
    with pytest.raises(BudgetExceededError, match=r"^search stopped at its budget: 12 nodes expanded"):
        search_linked_mols(4, 3)


def test_cli_order7_search_stops_at_the_node_budget(monkeypatch, capsys):
    # no theorem decides order 7; the real budget stops this search in about
    # 20 s, a small one here
    assert main(["oracle", "linked-mols", "--order", "9", "--f", "3"]) == 1
    capsys.readouterr()
    monkeypatch.setattr(sgdd.latin, "SEARCH_MAX_NODES", 2000)
    assert main(["oracle", "linked-mols", "--order", "7", "--f", "3"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: search stopped at its budget: 2000 nodes expanded (one node is one row placed)\n",
    )
