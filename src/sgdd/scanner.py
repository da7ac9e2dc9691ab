"""Feasible-parameter enumeration.

Both scans cover the group shapes m >= 3 (since 3 <= f <= m), n >= 2 with
mn <= v_max, and keep parameter sets where every derived quantity is a
non-negative integer.  Neither walks that grid: each visits only the cells
its divisibility law admits, and every visited cell runs all of its checks.

* The symmetric-design scan (table 1) fixes k = n(m-1)^2/t with t = m+n-2,
  the unique degree at which lambda1 = lambda2, and takes the closed-form
  triple.  As n = -(m-2) (mod t), t | n(m-1)^2 exactly when
  t | (m-2)(m-1)^2; as m-1 = -(n-1) (mod t), exactly when t | n(n-1)^2.
  So for m <= r = isqrt(v_max) the scan walks the divisors t of
  (m-2)(m-1)^2 in [m, m-2+v_max//m], and for m > r, where
  n <= v_max//(r+1), the divisors t of n(n-1)^2 in
  [r+n-1, v_max//n+n-2].  Each product is factored from two coprime
  numbers of at most r + 1.
* The proper/proper scan (table 2) walks the degrees k < (m-1)n in
  multiples of (m-1)*s*d, where n = s^2*d with d square-free: lambda2 and
  rho are both integral exactly when n(m-1)^2 | k^2(m-2) and n(m-1) | k^2,
  and as gcd(m-1, m-2) = 1 that holds exactly when k = (m-1)j with
  n | j^2.  lambda1 is integral when (m-1)(n-1) | k(k-m+1) =
  (m-1)^2 j(j-1), that is when g | m-1 with g = (n-1)/gcd(n-1, j(j-1)).
  So the scan takes n outermost, then j, and lets m-1 >= 2 walk the
  multiples of g.  It demands that design and partial complement are both
  proper (lambda1 != lambda2 on each side), that the triple discriminant is
  a perfect square, and emits each admissible sign choice as its own row,
  requiring sigma, tau <= k (entries of a product of two 0/1 matrices with
  row sums k).
"""

from __future__ import annotations

import csv
import io
from contextlib import suppress
from dataclasses import dataclass
from math import gcd, isqrt

from .algebra import square_free_decomposition
from .designs import GddParams, partial_complement_params
from .errors import CertificationError, ParameterError
from .linked import LinkedParams, symmetric_design_triple

TABLE1_COLUMNS = ("v", "k", "lambda", "m", "n", "sigma", "tau", "rho")
TABLE2_COLUMNS = ("v", "k", "m", "n", "lambda1", "lambda2", "sigma", "tau", "rho")


@dataclass(frozen=True)
class FeasibleRow:
    v: int
    k: int
    m: int
    n: int
    lambda1: int
    lambda2: int
    sigma: int
    tau: int
    rho: int
    kind: str  # "symmetric-design" | "proper-proper"

    def __post_init__(self):
        base = GddParams(self.v, self.k, self.m, self.n, self.lambda1, self.lambda2)
        LinkedParams(base=base, f=3, sigma=self.sigma, tau=self.tau, rho=self.rho)
        if self.m < 3:
            raise ParameterError("need m >= 3 so that 3 <= f <= m is possible")

    def table1_tuple(self):
        return (self.v, self.k, self.lambda1, self.m, self.n, self.sigma, self.tau, self.rho)

    def table2_tuple(self):
        return (
            self.v,
            self.k,
            self.m,
            self.n,
            self.lambda1,
            self.lambda2,
            self.sigma,
            self.tau,
            self.rho,
        )


def _prime_powers(x: int) -> dict[int, int]:
    """The factorisation of x >= 1 by trial division, as {prime: exponent}."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def _divisors_in(a: int, b: int, lo: int, hi: int) -> list[int]:
    """The divisors of a*b^2 in [lo, hi], for coprime a, b >= 1."""
    powers = _prime_powers(a)
    powers.update((p, 2 * e) for p, e in _prime_powers(b).items())
    divisors = [1]
    for p, e in powers.items():
        steps = [p**i for i in range(e + 1)]
        divisors = [d * q for d in divisors for q in steps if d * q <= hi]
    return [d for d in divisors if d >= lo]


def _table1_cells(v_max: int):
    """Yield every (m, n) with m >= 3, n >= 2, mn <= v_max and
    (m+n-2) | n(m-1)^2."""
    root = isqrt(v_max)
    for m in range(3, root + 1):
        for t in _divisors_in(m - 2, m - 1, m, m - 2 + v_max // m):
            yield m, t - m + 2
    for n in range(2, v_max // (root + 1) + 1):
        for t in _divisors_in(n, n - 1, root + n - 1, v_max // n + n - 2):
            yield t - n + 2, n


def _table1_cell(m: int, n: int) -> list[FeasibleRow]:
    num = n * (m - 1) ** 2
    den = m + n - 2
    if num % den:
        return []
    k = num // den
    l1_num, l1_den = k * (k - m + 1), (m - 1) * (n - 1)
    l2_num, l2_den = k * k * (m - 2), n * (m - 1) ** 2
    if l1_num % l1_den or l2_num % l2_den or l1_num // l1_den != l2_num // l2_den:
        return []
    lam = l1_num // l1_den
    if not 0 < lam < k:
        return []
    sigma, tau, rho = symmetric_design_triple(m, n)
    if not all(x.denominator == 1 and x >= 0 for x in (sigma, tau, rho)):
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


def _table2_degrees(v_max: int):
    """Yield every (m, n, k) with m >= 3, n >= 2, mn <= v_max, 0 < k < (m-1)n,
    (m-1)sd | k and (m-1)(n-1) | k(k-m+1), n = s^2*d with d square-free."""
    for n in range(2, v_max // 3 + 1):
        s, d = square_free_decomposition(n)
        top = v_max // n - 1
        for j in range(s * d, n, s * d):
            g = (n - 1) // gcd(n - 1, j * (j - 1))
            for m1 in range(max(g, 2), top + 1, g):
                yield m1 + 1, n, m1 * j


def _table2_degree(m: int, n: int, k: int) -> list[FeasibleRow]:
    v = m * n
    l1_num, l1_den = k * (k - m + 1), (m - 1) * (n - 1)
    if l1_num < 0 or l1_num % l1_den:
        return []
    l2_num, l2_den = k * k * (m - 2), n * (m - 1) ** 2
    if l2_num % l2_den:
        return []
    l1, l2 = l1_num // l1_den, l2_num // l2_den
    if l1 == l2 or not l1 < k:
        return []
    if (2 * k) % (m - 1):
        return []
    try:
        base = GddParams(v, k, m, n, l1, l2)
        comp = partial_complement_params(base)
    except ParameterError:
        return []
    if comp.lambda1 == comp.lambda2 or comp.lambda1 >= comp.k:
        return []
    disc = k * (m - 1) * (n - 1) * (v - k - n)
    root = isqrt(disc)
    if root * root != disc:
        return []
    rho_num, rho_den = k * k, n * (m - 1)
    if rho_num % rho_den:
        return []
    rho = rho_num // rho_den
    head = k * k * (m - 2) * (n - 1)
    den = (m - 1) ** 2 * (n - 1) * n
    rows = []
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


SCAN_MAX_V = 100_000


def scan_table1(v_max: int) -> list[FeasibleRow]:
    """All symmetric-design parameter tuples with v <= v_max, sorted by v."""
    if not 4 <= v_max <= SCAN_MAX_V:
        raise ParameterError(f"v_max must lie in [4, {SCAN_MAX_V}]")
    rows = [row for m, n in _table1_cells(v_max) for row in _table1_cell(m, n)]
    rows.sort(key=lambda r: (r.v, r.k, r.m))
    return rows


def scan_table2(v_max: int) -> list[FeasibleRow]:
    """All proper/proper parameter rows with v <= v_max, sorted by
    (v, k, sigma), and by m among rows that tie there."""
    if not 4 <= v_max <= SCAN_MAX_V:
        raise ParameterError(f"v_max must lie in [4, {SCAN_MAX_V}]")
    rows = [row for m, n, k in _table2_degrees(v_max) for row in _table2_degree(m, n, k)]
    rows.sort(key=lambda r: (r.v, r.k, r.sigma, r.m))
    return rows


def table1_witnesses(
    rows: list[FeasibleRow],
    max_family_order: int = 9,
    max_search_order: int = 5,
) -> dict[tuple[int, int, int], str]:
    """Construct and certify a linked system for every row the desk-scale
    recipes reach, and return one annotation per witnessed row.

    Two recipes are tried: Hadamard auxiliary matrices when m = n is a
    multiple of 4, and affine-geometry auxiliary matrices when
    n = q^(d+1) and m - 1 = (n - 1)/(q - 1); either takes a searched linked
    family of order m, or the field family when m is a prime power.  Rows
    whose construction would exceed the order budgets are left
    unannotated; nothing is annotated without a certified object behind it.
    """
    from .classical import hadamard_matrix
    from .gf import gf_from_order
    from .latin import linked_mols_from_gf, search_linked_mols
    from .linked import build_tilde_l
    from .resolvable import aux_from_affine_geometry, aux_from_hadamard

    out: dict[tuple[int, int, int], str] = {}
    family_cache: dict[int, object] = {}

    def family_for(order: int):
        """Best linked family of the given order within the search budget:
        the searcher walks f downward from the Krein bound f = m = order,
        and the field family supplies f = order - 1 for prime-power orders
        beyond the search budget."""
        if order in family_cache:
            return family_cache[order]
        fam = None
        if order <= max_search_order:
            for ff in range(order, 2, -1):
                fam = search_linked_mols(order, ff)
                if fam is not None:
                    break
        elif order <= max_family_order:
            with suppress(ParameterError):  # not a prime power
                fam = linked_mols_from_gf(gf_from_order(order))
        family_cache[order] = fam
        return fam

    for r in rows:
        key = (r.v, r.k, r.lambda1)
        fam = family_for(r.m)
        if fam is None:
            continue
        aux = None
        if r.m == r.n and r.n % 4 == 0:
            try:
                aux = aux_from_hadamard(hadamard_matrix(r.n))
            except ParameterError:
                aux = None
        if aux is None and (r.n - 1) % (r.m - 1) == 0:
            # affine-geometry shape: n = q^(d+1) with q - 1 = (n-1)/(m-1)
            q_cand = (r.n - 1) // (r.m - 1) + 1
            power, height = 1, 0
            while power < r.n:
                power *= q_cand
                height += 1
            if power == r.n and height >= 2:
                try:
                    aux = aux_from_affine_geometry(q_cand, height - 1)
                except ParameterError:
                    aux = None
        if aux is None or aux.params.r + 1 != fam.order:
            continue
        try:
            system = build_tilde_l(aux, fam)
        except (ParameterError, CertificationError):
            continue
        out[key] = f"f={system.params.f} achieved (block construction), f <= m = {r.m}"
    return out


def rows_to_csv(rows: list[FeasibleRow], table: int, annotations=None) -> str:
    columns = TABLE1_COLUMNS if table == 1 else TABLE2_COLUMNS
    if annotations is not None:
        columns = columns + ("witness",)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        row = r.table1_tuple() if table == 1 else r.table2_tuple()
        if annotations is not None:
            row = row + (annotations.get((r.v, r.k, r.lambda1), ""),)
        writer.writerow(row)
    return buf.getvalue()


def rows_to_text(rows: list[FeasibleRow], table: int, annotations=None) -> str:
    columns = TABLE1_COLUMNS if table == 1 else TABLE2_COLUMNS
    if annotations is not None:
        columns = columns + ("witness",)
    data = [columns]
    for r in rows:
        row = tuple(str(x) for x in (r.table1_tuple() if table == 1 else r.table2_tuple()))
        if annotations is not None:
            row = row + (annotations.get((r.v, r.k, r.lambda1), ""),)
        data.append(row)
    widths = [max(len(str(row[i])) for row in data) for i in range(len(columns))]
    lines = ["  ".join(str(x).rjust(w) for x, w in zip(row, widths)).rstrip() for row in data]
    return "\n".join(lines) + "\n"
