"""Reference route for the feasible-parameter scans: every group shape
(m, n) with m >= 3, n >= 2 and mn <= v_max is a cell, and each cell runs
all of its checks, table1's degree test through ``Fraction`` included.
The tests compare ``sgdd.scanner``, which visits only the cells (and, for
table2, the degrees) that the divisibility laws admit, against it.

``linked_params_refusal`` is the check of ``sgdd.linked.LinkedParams``
with its two rational identities in ``Fraction``, the form the integer
cross-multiplication replaced."""

from fractions import Fraction
from math import isqrt

from sgdd.algebra import square_free_decomposition
from sgdd.designs import GddParams, lambda_formulas, partial_complement_params
from sgdd.errors import ParameterError
from sgdd.linked import symmetric_design_triple
from sgdd.scanner import FeasibleRow


def _integral(x: Fraction) -> bool:
    return x.denominator == 1


def _table1_cell(m: int, n: int) -> list[FeasibleRow]:
    num = n * (m - 1) ** 2
    den = m + n - 2
    if num % den:
        return []
    k = num // den
    l1, l2 = lambda_formulas(k, m, n)
    if not (_integral(l1) and _integral(l2)) or l1 != l2:
        return []
    lam = int(l1)
    if not 0 < lam < k:
        return []
    sigma, tau, rho = symmetric_design_triple(m, n)
    if not all(_integral(x) and x >= 0 for x in (sigma, tau, rho)):
        return []
    return [
        FeasibleRow(
            v=m * n,
            k=k,
            m=m,
            n=n,
            lambda1=lam,
            lambda2=lam,
            sigma=int(sigma),
            tau=int(tau),
            rho=int(rho),
            kind="symmetric-design",
        )
    ]


def _table2_cell(m: int, n: int) -> list[FeasibleRow]:
    v = m * n
    rows = []
    l1_den = (m - 1) * (n - 1)
    l2_den = n * (m - 1) ** 2
    s, d = square_free_decomposition(n)
    step = (m - 1) * s * d
    for k in range(step, (m - 1) * n, step):
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
        if not _integral(rho_f) or rho_f < 0:
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
            rows.append(
                FeasibleRow(
                    v=v,
                    k=k,
                    m=m,
                    n=n,
                    lambda1=l1,
                    lambda2=l2,
                    sigma=sigma,
                    tau=tau,
                    rho=rho,
                    kind="proper-proper",
                )
            )
    return rows


def _run_cells(cell, v_max: int) -> list[FeasibleRow]:
    return [
        row
        for m in range(3, v_max // 2 + 1)
        for n in range(2, v_max // m + 1)
        for row in cell(m, n)
    ]


def scan_table1(v_max: int) -> list[FeasibleRow]:
    rows = _run_cells(_table1_cell, v_max)
    rows.sort(key=lambda r: (r.v, r.k, r.m))
    return rows


def scan_table2(v_max: int) -> list[FeasibleRow]:
    rows = _run_cells(_table2_cell, v_max)
    rows.sort(key=lambda r: (r.v, r.k, r.sigma))
    return rows


def linked_params_refusal(base, f, sigma, tau, rho) -> str | None:
    """The message ``LinkedParams(base, f, sigma, tau, rho)`` refuses with,
    or None when it accepts; reads k, m, n, lambda1, lambda2 of ``base``."""
    if f < 2:
        return "need at least two indices"
    have = [x is not None for x in (sigma, tau, rho)]
    if any(have) and not all(have):
        return "sigma, tau, rho must be given together"
    if f == 2:
        return "a two-index pair carries no triple-product coefficients" if any(have) else None
    if not all(have):
        return "f >= 3 requires sigma, tau, rho"
    p, s, t, r = base, sigma, tau, rho
    if min(s, t, r) < 0:
        return "sigma, tau, rho must be non-negative"
    if (s - t) ** 2 != p.k - p.lambda1:
        return f"(sigma-tau)^2 = {(s - t) ** 2} != k - l1 = {p.k - p.lambda1}"
    if (s - t) * (r - t) + (s - t + p.k) * t != p.k * p.lambda2:
        return "second triple-product identity fails"
    if Fraction((r - t - p.lambda1 + p.lambda2) * p.k, p.m - 1) != (s - t) * (r - t):
        return "commutation identity for (rho - tau) fails"
    if Fraction(p.k * p.k, p.n * (p.m - 1)) != r:
        return f"rho = {r} != k^2/(n(m-1))"
    return None
