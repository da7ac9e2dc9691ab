"""Feasible-parameter enumeration.

Both scans cover the group shapes m >= 3 (since 3 <= f <= m), n >= 2 with
mn <= v_max, and keep parameter sets where every derived quantity is a
non-negative integer.  Neither walks that grid: each visits only the cells
its divisibility law admits, and every visited cell runs all of its checks
in integers, with one least-prime-factor sieve per scan.

* The symmetric-design scan (table 1) fixes k = n(m-1)^2/t with t = m+n-2,
  the unique degree at which lambda1 = lambda2.  As n = -(m-2) (mod t),
  t | n(m-1)^2 exactly when t | (m-2)(m-1)^2; as m-1 = -(n-1) (mod t),
  exactly when t | n(n-1)^2.  So for m <= r = isqrt(v_max) the scan walks
  the divisors t of (m-2)(m-1)^2 in [m, m-2+v_max//m], and for m > r,
  where n <= v_max//(r+1), those of n(n-1)^2 in [r+n-1, v_max//n+n-2]
  (a sieve to r).  It keeps the closed-form triple when t^2 divides its
  three numerators.
* The proper/proper scan (table 2) walks the degrees k < (m-1)n in
  multiples of (m-1)*s*d, where n = s^2*d with d square-free (a sieve to
  v_max//3): lambda2 and rho are both integral exactly when
  n(m-1)^2 | k^2(m-2) and n(m-1) | k^2, and as gcd(m-1, m-2) = 1 that
  holds exactly when k = (m-1)j with n | j^2.  lambda1 is integral when
  (m-1)(n-1) | k(k-m+1) = (m-1)^2 j(j-1), that is when g | m-1 with
  g = (n-1)/gcd(n-1, j(j-1)).  The triple discriminant is
  (m-1)^3 j(n-1)(n-j), a perfect square exactly when m-1 = q r^2, q the
  square-free part of j(n-1)(n-j).  So the scan takes n outermost, then
  j, and lets m-1 >= 2 walk the q r^2 that are multiples of g.  Each
  degree demands a design and partial complement that meet the
  conditions of ``GddParams`` and are proper (lambda1 != lambda2), and
  emits each admissible sign choice as its own row, requiring
  sigma, tau <= k (entries of a product of two 0/1 matrices with row
  sums k).
"""

from __future__ import annotations

import csv
import io
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import gcd, isqrt

from .designs import GddParams
from .errors import CertificationError, ParameterError
from .linked import LinkedParams, symmetric_design_numerators

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
        LinkedParams(GddParams(self.v, self.k, self.m, self.n, self.lambda1, self.lambda2), 3, self.sigma, self.tau, self.rho)
        if self.m < 3:
            raise ParameterError("need m >= 3 so that 3 <= f <= m is possible")

    def table1_tuple(self):
        return (self.v, self.k, self.lambda1, self.m, self.n, self.sigma, self.tau, self.rho)

    def table2_tuple(self):
        return (self.v, self.k, self.m, self.n, self.lambda1, self.lambda2, self.sigma, self.tau, self.rho)


def _least_prime_factors(limit: int) -> bytearray:
    """The least prime factor spf[x] of each composite x <= limit < 2^16 (a
    byte), 0 at primes, 0 and 1: each p from isqrt(limit) down to 2 writes
    itself over its multiples from p^2, so the last write to x is its least
    divisor >= 2."""
    spf = bytearray(limit + 1)
    for p in range(isqrt(limit), 1, -1):
        spf[p * p :: p] = bytes((p,)) * ((limit - p * p) // p + 1)
    return spf


def _square_free(x: int, spf: bytearray) -> tuple[int, int]:
    """``square_free_decomposition(x)`` for 1 <= x < len(spf): each prime
    factor p in turn joins d, or moves from d to s if d holds it."""
    s = d = 1
    while x > 1:
        p = spf[x] or x
        x //= p
        if d % p:
            d *= p
        else:
            d //= p
            s *= p
    return s, d


def _divisors_in(a: int, b: int, lo: int, hi: int, spf: bytearray) -> list[int]:
    """The divisors of a*b^2 in [lo, hi], for coprime 1 <= a, b < len(spf)."""
    divisors = [1]
    for x, times in ((a, 1), (b, 2)):
        while x > 1:
            p, e = spf[x] or x, 0
            while x % p == 0:
                x //= p
                e += times
            layer, top = divisors, hi // p
            for _ in range(e):
                layer = [d * p for d in layer if d <= top]
                divisors += layer
    return [d for d in divisors if d >= lo]


def _table1_cells(v_max: int):
    """Yield every (m, n) with m >= 3, n >= 2, mn <= v_max and
    (m+n-2) | n(m-1)^2."""
    root = isqrt(v_max)
    spf = _least_prime_factors(root)
    for m in range(3, root + 1):
        for t in _divisors_in(m - 2, m - 1, m, m - 2 + v_max // m, spf):
            yield m, t - m + 2
    for n in range(2, v_max // (root + 1) + 1):
        for t in _divisors_in(n, n - 1, root + n - 1, v_max // n + n - 2, spf):
            yield t - n + 2, n


def _table1_cell(m: int, n: int) -> list[FeasibleRow]:
    t = m + n - 2
    k, rem = divmod(n * (m - 1) ** 2, t)
    if rem or k * (m - 1) % t:  # rho = k(m-1)/t: the commonest refusal
        return []
    lam, l1_rem = divmod(k * (k - m + 1), (m - 1) * (n - 1))
    l2, l2_rem = divmod(k * k * (m - 2), n * (m - 1) ** 2)
    s_num, t_num, r_num, den = symmetric_design_numerators(m, n)
    if l1_rem or l2_rem or lam != l2 or not 0 < lam < k or s_num % den or t_num % den or r_num % den or min(s_num, t_num, r_num) < 0:
        return []
    return [FeasibleRow(m * n, k, m, n, lam, lam, s_num // den, t_num // den, r_num // den, "symmetric-design")]


def _table2_degrees(v_max: int):
    """Yield every (m, n, k) with m >= 3, n >= 2, mn <= v_max, 0 < k < (m-1)n,
    (m-1)sd | k and (m-1)(n-1) | k(k-m+1), n = s^2*d with d square-free,
    whose triple discriminant k(m-1)(n-1)(v-k-n) is a perfect square.

    With k = (m-1)j, v - k - n = (m-1)(n-j), so the discriminant is
    (m-1)^3 j(n-1)(n-j).  It is a square exactly when (m-1) q is, q the
    square-free part of j(n-1)(n-j), that is when m - 1 = q r^2.  So m - 1
    walks the q r^2, keeping the multiples of g, and an (n, j) whose g
    exceeds v_max//n - 1 is passed over before q is formed.  A square-free
    n (s = 1) leaves no j < n, so only n with a square factor are factored."""
    limit = v_max // 3
    spf = _least_prime_factors(limit)
    squared = bytearray(limit + 1)
    for p in range(2, isqrt(limit) + 1):
        squared[p * p :: p * p] = b"\x01" * (limit // (p * p))
    for n in compress(range(limit + 1), squared):
        s, d = _square_free(n, spf)
        top = v_max // n - 1
        for j in range(s * d, n, s * d):
            g = (n - 1) // gcd(n - 1, j * (j - 1))
            if g > top:
                continue
            q = _square_free_product(*(_square_free(x, spf)[1] for x in (j, n - 1, n - j)))
            for r in range(1, isqrt(top // q) + 1):
                m1 = q * r * r
                if m1 > 1 and m1 % g == 0:
                    yield m1 + 1, n, m1 * j


def _square_free_product(*parts: int) -> int:
    """The square-free part of a product of square-free integers: a prime
    of two of them leaves it."""
    q = 1
    for x in parts:
        common = gcd(q, x)
        q = (q // common) * (x // common)
    return q


def _is_gdd(v: int, k: int, n: int, l1: int, l2: int) -> bool:
    """Whether GddParams accepts (v, k, v/n, n, l1, l2) for m, n >= 2."""
    return k > l1 >= 0 and l2 >= 0 and k * k == k + l1 * (n - 1) + l2 * (v - n)


def _table2_degree(m: int, n: int, k: int) -> list[FeasibleRow]:
    v = m * n
    l1, l1_rem = divmod(k * (k - m + 1), (m - 1) * (n - 1))
    l2, l2_rem = divmod(k * k * (m - 2), n * (m - 1) ** 2)
    if l1 < 0 or l1_rem or l2_rem or l1 == l2 or not l1 < k or (2 * k) % (m - 1) or k > v - n:
        return []
    ck = v - k - n
    disc = k * (m - 1) * (n - 1) * ck
    root = isqrt(disc)
    if root * root != disc or k * k % (n * (m - 1)):
        return []
    # J - K - A by partial_complement_params
    cl1, cl2 = v - n - 2 * k + l1, v - 2 * n - 2 * k + l2 + 2 * k // (m - 1)
    if cl1 == cl2 or not (_is_gdd(v, k, n, l1, l2) and _is_gdd(v, ck, n, cl1, cl2)):
        return []
    rho = k * k // (n * (m - 1))
    head = k * k * (m - 2) * (n - 1)
    den = (m - 1) ** 2 * (n - 1) * n
    rows = []
    for sign in (1, -1):
        s_num = head + sign * ck * root
        t_num = head - sign * k * root
        if s_num % den or t_num % den:
            continue
        sigma, tau = s_num // den, t_num // den
        if 0 <= sigma <= k and 0 <= tau <= k:
            rows.append(FeasibleRow(v, k, m, n, l1, l2, sigma, tau, rho, "proper-proper"))
    return rows


SCAN_MAX_V = 100_000


def _check_vmax(v_max: int):
    if not 4 <= v_max <= SCAN_MAX_V:
        raise ParameterError(f"v_max must lie in [4, {SCAN_MAX_V}]")


def scan_table1(v_max: int) -> list[FeasibleRow]:
    """All symmetric-design parameter tuples with v <= v_max, sorted by v."""
    _check_vmax(v_max)
    rows = [row for m, n in _table1_cells(v_max) for row in _table1_cell(m, n)]
    rows.sort(key=lambda r: (r.v, r.k, r.m))
    return rows


def scan_table2(v_max: int) -> list[FeasibleRow]:
    """All proper/proper parameter rows with v <= v_max, sorted by
    (v, k, sigma), and by m among rows that tie there."""
    _check_vmax(v_max)
    rows = [row for m, n, k in _table2_degrees(v_max) for row in _table2_degree(m, n, k)]
    rows.sort(key=lambda r: (r.v, r.k, r.sigma, r.m))
    return rows


MAX_SEARCH_ORDER = 5
MAX_FAMILY_ORDER = 9


def table1_witnesses(rows: list[FeasibleRow]) -> dict[tuple[int, int, int], str]:
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

    @cache
    def family_for(order: int):
        """Best linked family of the given order within the search budget:
        the searcher walks f downward from the Krein bound f = m = order,
        and the field family supplies f = order - 1 for prime-power orders
        beyond the search budget."""
        fam = None
        if order <= MAX_SEARCH_ORDER:
            for ff in range(order, 2, -1):
                fam = search_linked_mols(order, ff)
                if fam is not None:
                    break
        elif order <= MAX_FAMILY_ORDER:
            with suppress(ParameterError):  # not a prime power
                fam = linked_mols_from_gf(gf_from_order(order))
        return fam

    for r in rows:
        fam = family_for(r.m)
        if fam is None:
            continue
        aux = None
        if r.m == r.n and r.n % 4 == 0:
            with suppress(ParameterError):
                aux = aux_from_hadamard(hadamard_matrix(r.n))
        if aux is None and (r.n - 1) % (r.m - 1) == 0:
            # affine-geometry shape: n = q^(d+1) with q - 1 = (n-1)/(m-1)
            q_cand = (r.n - 1) // (r.m - 1) + 1
            power, height = 1, 0
            while power < r.n:
                power *= q_cand
                height += 1
            if power == r.n and height >= 2:
                with suppress(ParameterError):
                    aux = aux_from_affine_geometry(q_cand, height - 1)
        if aux is None or aux.params.r + 1 != fam.order:
            continue
        try:
            system = build_tilde_l(aux, fam)
        except (ParameterError, CertificationError):
            continue
        out[r.v, r.k, r.lambda1] = f"f={system.params.f} achieved (block construction), f <= m = {r.m}"
    return out


def _table(rows: list[FeasibleRow], table: int, annotations):
    """Columns and row tuples, lazily, with witnesses given ``annotations``."""
    columns = TABLE1_COLUMNS if table == 1 else TABLE2_COLUMNS
    data = (r.table1_tuple() if table == 1 else r.table2_tuple() for r in rows)
    if annotations is None:
        return columns, data
    return columns + ("witness",), (row + (annotations.get((r.v, r.k, r.lambda1), ""),) for r, row in zip(rows, data))


def rows_to_csv(rows: list[FeasibleRow], table: int, annotations=None) -> str:
    columns, data = _table(rows, table, annotations)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(data)
    return buf.getvalue()


def rows_to_text(rows: list[FeasibleRow], table: int, annotations=None) -> str:
    columns, data = _table(rows, table, annotations)
    data = [columns] + [tuple(map(str, row)) for row in data]
    widths = [max(map(len, column)) for column in zip(*data)]
    lines = ["  ".join(x.rjust(w) for x, w in zip(row, widths)).rstrip() for row in data]
    return "\n".join(lines) + "\n"
