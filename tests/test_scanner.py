from collections import Counter, defaultdict
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_route as route
from sgdd import scanner
from sgdd.designs import GddParams, partial_complement_params
from sgdd.errors import ParameterError
from sgdd.linked import LinkedParams
from sgdd.scanner import FeasibleRow, rows_to_csv, rows_to_text, scan_table1, scan_table2
from scan_route import _table2_cell

GOLDEN = Path(__file__).parent / "golden"


def test_table1_matches_golden():
    rows = scan_table1(1000)
    assert len(rows) == 20
    assert rows_to_csv(rows, 1) == (GOLDEN / "table1.csv").read_text()


def test_table2_matches_golden():
    rows = scan_table2(500)
    assert len(rows) == 32
    assert rows_to_csv(rows, 2) == (GOLDEN / "table2.csv").read_text()


def test_small_window_has_single_row():
    rows = scan_table1(16)
    assert len(rows) == 1
    assert rows[0].table1_tuple() == (16, 6, 2, 4, 4, 3, 1, 3)


def test_every_row_validates_linked_identities():
    for rows in (scan_table1(1000), scan_table2(500)):
        for r in rows:
            base = GddParams(r.v, r.k, r.m, r.n, r.lambda1, r.lambda2)
            LinkedParams(base=base, f=3, sigma=r.sigma, tau=r.tau, rho=r.rho)


def test_table2_closed_under_partial_complement():
    rows = scan_table2(500)
    keys = {(r.v, r.k) for r in rows}
    for r in rows:
        comp = partial_complement_params(GddParams(r.v, r.k, r.m, r.n, r.lambda1, r.lambda2))
        assert (comp.v, comp.k) in keys


def test_text_rendering_is_aligned():
    text = rows_to_text(scan_table1(100), 1)
    lines = text.splitlines()
    assert len(lines) == len(scan_table1(100)) + 1
    assert len({len(line) for line in lines}) == 1


def test_vmax_guard():
    with pytest.raises(ParameterError):
        scan_table1(3)


def test_table1_witnesses_backed_by_certified_constructions(aux_certifications):
    from sgdd.scanner import table1_witnesses

    rows = scan_table1(1000)
    wit = table1_witnesses(rows)
    # each auxiliary set is certified once, by its construction, and
    # build_tilde_l trusts its seal
    assert aux_certifications == [4, 9, 8, 25, 49]
    assert wit[(16, 6, 2)].startswith("f=4")   # Krein bound f = m attained
    assert wit[(45, 12, 3)].startswith("f=5")  # Krein bound f = m attained
    assert wit[(64, 28, 12)].startswith("f=7")
    # field families of odd order: GF(7) with AG(1, 5), GF(9) with AG(1, 7)
    assert wit[(175, 30, 5)].startswith("f=6")
    assert wit[(441, 56, 7)].startswith("f=8")
    assert len(wit) == 5
    # budget-gated shapes stay blank rather than claiming unverified witnesses
    assert (96, 20, 4) not in wit
    assert (256, 120, 56) not in wit
    assert (891, 90, 9) not in wit  # GF(11) lies past the order-9 field budget


def test_scan_monotone_in_window():
    small = {r.table2_tuple() for r in scan_table2(300)}
    large = {r.table2_tuple() for r in scan_table2(500)}
    assert small <= large
    assert {r.table1_tuple() for r in scan_table1(300)} <= {r.table1_tuple() for r in scan_table1(1000)}


def test_table1_against_independent_enumeration():
    """Brute-force oracle: instead of the closed-form degree, walk every k
    and keep rows with equal integral lambdas and an integral non-negative
    triple; must agree with the scanner on a 200-point window."""
    from sgdd.designs import lambda_formulas
    from sgdd.linked import symmetric_design_triple

    expected = set()
    for m in range(3, 101):
        for n in range(2, 201):
            if m * n > 200:
                continue
            for k in range(1, (m - 1) * n):
                l1, l2 = lambda_formulas(k, m, n)
                if l1.denominator != 1 or l2.denominator != 1 or l1 != l2:
                    continue
                lam = int(l1)
                if not 0 < lam < k:
                    continue
                s, t, r = symmetric_design_triple(m, n)
                if any(x.denominator != 1 or x < 0 for x in (s, t, r)):
                    continue
                expected.add((m * n, k, lam, m, n, int(s), int(t), int(r)))
    got = {r.table1_tuple() for r in scan_table1(200)}
    assert got == expected


def test_scan_scale_guard():
    with pytest.raises(ParameterError):
        scan_table2(200_000)


def _table2_cell_brute(m, n):
    """Brute-force oracle for the proper/proper cell: walk every degree
    k in 1 .. (m-1)n - 1 and apply every check."""
    v = m * n
    rows = []
    l1_den = (m - 1) * (n - 1)
    l2_den = n * (m - 1) ** 2
    for k in range(1, (m - 1) * n):
        l1_num = k * (k - m + 1)
        if l1_num < 0 or l1_num % l1_den:
            continue
        l2_num = k * k * (m - 2)
        if l2_num % l2_den:
            continue
        l1, l2 = l1_num // l1_den, l2_num // l2_den
        if l1 == l2 or not l1 < k:
            continue
        if (2 * k) % (m - 1):
            continue
        try:
            base = GddParams(v, k, m, n, l1, l2)
            comp = partial_complement_params(base)
        except ParameterError:
            continue
        if comp.lambda1 == comp.lambda2 or comp.lambda1 >= comp.k:
            continue
        disc = k * (m - 1) * (n - 1) * (v - k - n)
        root = isqrt(disc)
        if root * root != disc:
            continue
        rho_f = Fraction(k * k, n * (m - 1))
        if rho_f.denominator != 1 or rho_f < 0:
            continue
        rho = int(rho_f)
        head = k * k * (m - 2) * (n - 1)
        den = (m - 1) ** 2 * (n - 1) * n
        for sign in (1, -1):
            s_num = head + sign * (v - k - n) * root
            t_num = head - sign * k * root
            if s_num % den or t_num % den:
                continue
            sigma, tau = s_num // den, t_num // den
            if sigma < 0 or tau < 0 or sigma > k or tau > k:
                continue
            rows.append(FeasibleRow(v, k, m, n, l1, l2, sigma, tau, rho, "proper-proper"))
    return rows


@pytest.fixture(scope="module")
def brute_cells_1500():
    return {
        (m, n): _table2_cell_brute(m, n)
        for m in range(3, 1500 // 2 + 1)
        for n in range(2, 1500 // m + 1)
    }


def test_table2_stride_matches_brute_force_on_every_small_cell(brute_cells_1500):
    mismatched = [cell for cell, rows in brute_cells_1500.items() if _table2_cell(*cell) != rows]
    assert mismatched == []
    assert sum(len(rows) for rows in brute_cells_1500.values()) > 0


def test_table2_csv_matches_brute_force(brute_cells_1500):
    rows = sorted(
        (r for cell_rows in brute_cells_1500.values() for r in cell_rows),
        key=lambda r: (r.v, r.k, r.sigma),
    )
    assert rows_to_csv(scan_table2(1500), 2) == rows_to_csv(rows, 2)


# n with square factors, where the stride s*d differs most from n
_SQUAREFUL = (4, 8, 9, 12, 16, 18, 25, 27, 32, 36, 48, 49, 72, 81, 100, 144, 243, 256, 512, 1024)


@st.composite
def _cells(draw, v_max=100_000):
    """(m, n) with mn <= v_max, leaning toward square factors in n and
    toward n sharing factors with m - 2."""
    n = draw(st.one_of(st.sampled_from(_SQUAREFUL), st.integers(2, 2000)))
    m_max = v_max // n
    shared = [g for g in range(2, min(n, m_max - 2) + 1) if n % g == 0]
    if shared and draw(st.booleans()):
        g = draw(st.sampled_from(shared))
        return 2 + g * draw(st.integers(1, (m_max - 2) // g)), n
    return draw(st.integers(3, m_max)), n


@settings(max_examples=150, deadline=None)
@given(_cells())
def test_table2_stride_matches_brute_force_on_sampled_cells(cell):
    m, n = cell
    assert _table2_cell(m, n) == _table2_cell_brute(m, n)


def test_table1_matches_grid_route():
    """The divisor walk against the full (m, n) grid, at every small window
    (each moves the bounds of both walks) and at a few large ones."""
    windows = [*range(4, 401), 1000, 5000, 20000, 100_000]
    assert [v for v in windows if scan_table1(v) != route.scan_table1(v)] == []


def test_table2_matches_grid_route():
    windows = [*range(4, 401), 1500, 5000, 20000]
    assert [v for v in windows if scan_table2(v) != route.scan_table2(v)] == []


def test_scans_evaluate_only_admitted_cells(monkeypatch):
    """The grid route evaluates 916 752 table1 cells at v <= 100000 and
    29 596 table2 degrees over 30 878 cells at v <= 5000; the walks
    evaluate 5 184 cells and 1 628 degrees."""
    calls = Counter()
    for name in ("_table1_cell", "_table2_degree"):
        real = getattr(scanner, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(scanner, name, spy)
    assert len(scan_table1(100_000)) == 266
    assert len(scan_table2(5000)) == 318
    assert calls["_table1_cell"] <= 6000
    assert calls["_table2_degree"] <= 2000


_WALK_V = 100_000


@pytest.fixture(scope="module")
def walks():
    cells = list(scanner._table1_cells(_WALK_V))
    degrees = list(scanner._table2_degrees(_WALK_V))
    assert len(set(cells)) == len(cells) and len(set(degrees)) == len(degrees)
    assert all(m >= 3 and n >= 2 and m * n <= _WALK_V for m, n in cells)
    assert all(m >= 3 and n >= 2 and m * n <= _WALK_V and 0 < k < (m - 1) * n for m, n, k in degrees)
    by_cell = defaultdict(set)
    for m, n, k in degrees:
        by_cell[m, n].add(k)
    return set(cells), by_cell


@st.composite
def _seam_cells(draw, v_max=_WALK_V):
    """(m, n) with m near isqrt(v_max), where the two table1 walks meet,
    and n anywhere up to v_max // m or among the n table1 admits there."""
    root = isqrt(v_max)
    m = draw(st.one_of(st.sampled_from((root, root + 1)), st.integers(root - 30, root + 30)))
    top = v_max // m
    admitted = [n for n in range(2, top + 1) if n * (m - 1) ** 2 % (m + n - 2) == 0]
    any_n = st.integers(2, top)
    return m, draw(st.one_of(any_n, st.sampled_from(admitted)) if admitted else any_n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_seam_cells(), _cells()))
def test_walks_visit_exactly_the_admitted_cells(walks, cell):
    m, n = cell
    table1, table2 = walks
    assert ((m, n) in table1) == (n * (m - 1) ** 2 % (m + n - 2) == 0)
    # (m-1)sd | k with n = s^2 d and d square-free: k = (m-1)j with n | j^2
    admitted = {
        (m - 1) * j
        for j in range(1, n)
        if j * j % n == 0 and (m - 1) ** 2 * j * (j - 1) % ((m - 1) * (n - 1)) == 0
    }
    assert table2.get((m, n), set()) == admitted
