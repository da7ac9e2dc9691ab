from collections import Counter, defaultdict
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

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


def test_sieve_matches_trial_division():
    """Every n <= 33 334, the most table2 factors at v_max = 100000: the
    sieve's least prime factor and the (s, d) the walk reads off it."""
    from sgdd.algebra import square_free_decomposition

    spf = scanner._least_prime_factors(33_334)

    def least_prime_factor(x):
        return next((p for p in range(2, isqrt(x) + 1) if x % p == 0), x)

    assert [spf[x] or x for x in range(2, 33_335)] == [least_prime_factor(x) for x in range(2, 33_335)]
    assert [scanner._square_free(n, spf) for n in range(1, 33_335)] == [square_free_decomposition(n) for n in range(1, 33_335)]


def test_table1_divisor_walks_match_brute_force():
    """Both table1 walks at v_max = 100000 (r = 316), for every m or n up to
    317, against every t in the walk's window that divides the product."""
    v_max, root = 100_000, 316
    spf = scanner._least_prime_factors(317)
    windows = [(m - 2, m - 1, m, m - 2 + v_max // m) for m in range(3, 318)]
    windows += [(n, n - 1, root + n - 1, v_max // n + n - 2) for n in range(2, 318)]
    for a, b, lo, hi in windows:
        want = [t for t in range(lo, hi + 1) if a * b * b % t == 0]
        assert sorted(scanner._divisors_in(a, b, lo, hi, spf)) == want, (a, b)


def test_full_range_outputs_are_pinned():
    """The digests of both tables at v_max = 100000, as the grid route's
    scanner emitted them before the integer walks."""
    import hashlib

    table1, table2 = scan_table1(100_000), scan_table2(100_000)
    assert (len(table1), len(table2)) == (266, 3258)
    digests = [hashlib.sha256(rows_to_csv(rows, t).encode()).hexdigest() for rows, t in ((table1, 1), (table2, 2))]
    assert digests == [
        "2d101303238a20f572d860fce1bf91948b872d387ce3e30ce700e07598953c72",
        "c5aecea25bab5880eaff91cd77ec7149bde4ca020471ac3f99599530b8261877",
    ]


def test_scans_validate_only_emitted_rows_and_build_no_fraction(monkeypatch):
    """Each emitted row builds one GddParams (in FeasibleRow); no visited
    degree builds one, and neither scan builds a Fraction."""
    built = Counter()
    real_post_init = GddParams.__post_init__

    def count_gdd(self):
        built["GddParams"] += 1
        real_post_init(self)

    def count_fraction(cls, *args, **kwargs):
        built["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    real_new = Fraction.__new__
    monkeypatch.setattr(GddParams, "__post_init__", count_gdd)
    monkeypatch.setattr(Fraction, "__new__", count_fraction)
    assert len(scan_table2(5000)) == 318
    assert built == Counter(GddParams=318)
    assert len(scan_table1(100_000)) == 266
    assert len(scan_table2(100_000)) == 3258
    assert built == Counter(GddParams=318 + 266 + 3258)
    Fraction(1, 2)
    assert built["Fraction"] == 1  # the spy sees a Fraction built outside the scans


def _refusal(base, f, sigma, tau, rho):
    try:
        LinkedParams(base, f, sigma, tau, rho)
    except ParameterError as exc:
        return str(exc)
    return None


def _near_misses():
    """(k, m, n, l1, l2, sigma, tau, rho) meeting the first two identities
    with (rho-tau-l1+l2)k = (sigma-tau)(rho-tau)(m-1) + e, e in {-1, 0, 1}:
    the numerator of the third identity's Fraction off by one, or exact.
    With sigma = tau, l1 = k and rho = k the third holds at every m, and
    k = 1, m = n = 2 misses the fourth, k^2 = rho n(m-1), by one."""
    out = [(1, 2, 2, 1, t, t, t, 1) for t in range(3)]
    for t in range(4):
        for a in range(1, 4):  # sigma - tau
            for r in range(12):
                for k in range(1, 25):
                    if a * r % k:
                        continue
                    # (sigma-tau)^2 = k - l1 and k l2 = a(r-t) + (a+k)t = ar + kt
                    l1, l2 = k - a * a, a * r // k + t
                    miss = [(r - t - l1 + l2) * k - a * (r - t) * (m - 1) for m in range(2, 12)]
                    out += [(k, m, 2 + k % 3, l1, l2, t + a, t, r) for m, e in zip(range(2, 12), miss) if abs(e) <= 1]
    return out


_NEAR_MISSES = _near_misses()
_FEASIBLE = [
    (r.k, r.m, r.n, r.lambda1, r.lambda2, r.sigma, r.tau, r.rho) for r in scan_table1(1000) + scan_table2(500)
]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.sampled_from(_NEAR_MISSES), st.sampled_from(_FEASIBLE)),
    st.integers(0, 7),
    st.integers(-1, 1),
    st.sampled_from((3, 3, 3, 2, 1)),
    st.sampled_from((False, False, False, True)),
)
def test_linked_params_integer_checks_match_fraction_route(values, field, shift, f, drop_rho):
    """LinkedParams reads only k, m, n, lambda1 and lambda2 of its base, so a
    namespace carries tuples GddParams would refuse: feasible rows and near
    misses, with one field moved by at most one (m and n kept >= 2)."""
    k, m, n, l1, l2, sigma, tau, rho = (x + shift * (i == field) for i, x in enumerate(values))
    base = SimpleNamespace(k=k, m=max(m, 2), n=max(n, 2), lambda1=l1, lambda2=l2)
    rho = None if drop_rho else rho
    assert _refusal(base, f, sigma, tau, rho) == route.linked_params_refusal(base, f, sigma, tau, rho)


def test_linked_params_differential_reaches_every_verdict():
    """The near-miss tuples reach the third and fourth identities and pass
    them too, so the differential test compares every branch."""
    verdicts = {
        route.linked_params_refusal(SimpleNamespace(k=k, m=m, n=n, lambda1=l1, lambda2=l2), 3, s, t, r)
        for k, m, n, l1, l2, s, t, r in _NEAR_MISSES + _FEASIBLE
    }
    assert {"commutation identity for (rho - tau) fails", "rho = 1 != k^2/(n(m-1))", None} <= verdicts
