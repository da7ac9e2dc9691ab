from pathlib import Path

import pytest

import sgdd.scanner
from sgdd.designs import GddParams, partial_complement_params
from sgdd.errors import ParameterError
from sgdd.linked import LinkedParams
from sgdd.scanner import rows_to_csv, rows_to_text, scan_table1, scan_table2

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


def test_jobs_do_not_change_output():
    assert rows_to_csv(scan_table2(300, jobs=2), 2) == rows_to_csv(scan_table2(300), 2)
    assert rows_to_csv(scan_table1(300, jobs=2), 1) == rows_to_csv(scan_table1(300), 1)


class _FakePool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize=1):
        return [func(x) for x in items]


@pytest.mark.parametrize("cores, pools", [(3, [3]), (1, []), (None, [])])
def test_jobs_capped_at_cpu_count(monkeypatch, cores, pools):
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(sgdd.scanner, "Pool", _FakePool)
    monkeypatch.setattr(sgdd.scanner.os, "cpu_count", lambda: cores)
    rows = scan_table2(300, jobs=100_000)
    assert _FakePool.sizes == pools
    assert rows_to_csv(rows, 2) == rows_to_csv(scan_table2(300), 2)


def test_text_rendering_is_aligned():
    text = rows_to_text(scan_table1(100), 1)
    lines = text.splitlines()
    assert len(lines) == len(scan_table1(100)) + 1
    assert len({len(line) for line in lines}) == 1


def test_vmax_guard():
    with pytest.raises(ParameterError):
        scan_table1(3)


def test_table1_witnesses_backed_by_certified_constructions():
    from sgdd.scanner import table1_witnesses

    rows = scan_table1(1000)
    wit = table1_witnesses(rows)
    assert wit[(16, 6, 2)].startswith("f=4")   # Krein bound f = m attained
    assert wit[(45, 12, 3)].startswith("f=5")  # Krein bound f = m attained
    assert wit[(64, 28, 12)].startswith("f=7")
    # budget-gated shapes stay blank rather than claiming unverified witnesses
    assert (96, 20, 4) not in wit
    assert (256, 120, 56) not in wit


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
