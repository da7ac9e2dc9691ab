"""Linked systems of symmetric GDDs of type II, and every construction
feeding them: block matrices over linked MOLS and auxiliary matrices,
mutually unbiased Bush-type Hadamard matrices, conference and generalized
conference matrices, and twin designs from disjoint weighing matrices.

A linked system with parameters (v, k, m, n, l1, l2) and (sigma, tau, rho)
is a family {A_{i,j}} of symmetric GDDs over ordered index pairs such that
A_{i,j} + K is 0/1 and, for all mutually distinct i, j, l,

    A_{i,j} A_{j,l} = sigma A_{i,l} + tau (J - A_{i,l} - K) + rho K.

A system holds its blocks as one uint8 stack, block (i, j) at
``stack[pair_index(f, i, j)]``, and each construction of a single design
returns it as a uint8 array (``designs.incidence``).  Its certifier forms
each identity on one row per orbit of the digit shifts of the groups and
points that fix every block it uses; ``designs`` writes their masks and
reads their rows (``translation_masks``, ``on_orbits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

import numpy as np

from .algebra import IntMatrix
from .classical import is_hadamard, is_weighing
from .designs import (
    GRAM_IDENTITIES,
    Certificate,
    GddParams,
    Gathered,
    Violation,
    cell_differences,
    certified_design,
    check_k_commutation,
    companion_params,
    group_labels,
    incidence,
    k_commutations,
    on_orbits,
    translation_masks,
    verify_grams,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    InfeasibleParameterError,
    ParameterError,
)
from .gf import gf_from_order
from .latin import LinkedMolsFamily, ordered_pairs, pair_index
from .resolvable import AuxiliarySet, aux_from_hadamard, verify_auxiliary


@dataclass(frozen=True)
class LinkedParams:
    """Block parameters plus the triple-product coefficients.

    For f = 2 there is no triple product and the triple must be absent.
    For f >= 3 the triple is required and the defining identities are
    enforced in integers:
        (sigma - tau)^2 = k - l1
        (sigma - tau)(rho - tau) + (sigma - tau + k) tau = k l2
        (rho - tau - l1 + l2) k = (sigma - tau)(rho - tau)(m-1)
        k^2 = rho n (m-1)
    """

    base: GddParams
    f: int
    sigma: int | None
    tau: int | None
    rho: int | None

    def __post_init__(self):
        if self.f < 2:
            raise ParameterError("need at least two indices")
        have = [x is not None for x in (self.sigma, self.tau, self.rho)]
        if any(have) and not all(have):
            raise ParameterError("sigma, tau, rho must be given together")
        if self.f == 2:
            if any(have):
                raise ParameterError("a two-index pair carries no triple-product coefficients")
            return
        if not all(have):
            raise ParameterError("f >= 3 requires sigma, tau, rho")
        p = self.base
        s, t, r = self.sigma, self.tau, self.rho
        if min(s, t, r) < 0:
            raise ParameterError("sigma, tau, rho must be non-negative")
        if (s - t) ** 2 != p.k - p.lambda1:
            raise ParameterError(f"(sigma-tau)^2 = {(s - t) ** 2} != k - l1 = {p.k - p.lambda1}")
        if (s - t) * (r - t) + (s - t + p.k) * t != p.k * p.lambda2:
            raise ParameterError("second triple-product identity fails")
        if (r - t - p.lambda1 + p.lambda2) * p.k != (s - t) * (r - t) * (p.m - 1):
            raise ParameterError("commutation identity for (rho - tau) fails")
        if p.k * p.k != r * p.n * (p.m - 1):
            raise ParameterError(f"rho = {r} != k^2/(n(m-1))")
        # rho = tau is admissible: partial complements of symmetric-design
        # systems at self-complementary degree realize it exactly.


@dataclass(eq=False)
class LinkedSystemII:
    """The blocks A_ij as one (f(f-1), v, v) uint8 stack, in the order of
    ``ordered_pairs`` (A_ij is ``stack[pair_index(f, i, j)]``); any other
    shape, or an entry not 0 or 1, is refused (``designs.incidence``).
    A sealed system (``seal``) carries its certificate and a read-only stack."""

    params: LinkedParams
    stack: np.ndarray
    certificate: Certificate | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        base, count = self.params.base, self.params.f * (self.params.f - 1)
        if len(self.stack) != count:
            raise ParameterError(f"a linked system on {self.params.f} indices has {count} blocks, not {len(self.stack)}")
        self.stack = incidence(self.stack, base.m, base.n)

    @property
    def f(self) -> int:
        return self.params.f

    def seal(self, cert: Certificate) -> LinkedSystemII:
        """Record the passing certificate and make the stack read-only."""
        self.certificate = cert
        self.stack.flags.writeable = False
        return self


@dataclass(frozen=True)
class CandidateTriple:
    sigma: Fraction | None  # None when irrational, as then is tau
    tau: Fraction | None
    rho: Fraction
    integral: bool


def sigma_tau_rho(k: int, m: int, n: int) -> list[CandidateTriple]:
    """Both sign choices of the closed-form triple for given (k, m, n):

        sigma = (k^2 (m-2)(n-1) +- (mn-k-n) sqrt(D)) / ((m-1)^2 (n-1) n)
        tau   = (k^2 (m-2)(n-1) -+ k sqrt(D))        / ((m-1)^2 (n-1) n)
        rho   = k^2 / (n (m-1))

    with D = k (m-1)(n-1)(mn-k-n), each with its integrality flag.  sigma
    and tau are rational exactly when D is a perfect square (D = 0 when
    mn-k-n = 0, and k > 0), and are None otherwise.
    """
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    w = m * n - k - n
    disc = k * (m - 1) * (n - 1) * w
    if disc < 0:
        raise ParameterError("k outside the admissible range: negative discriminant")
    root = isqrt(disc)
    denom = (m - 1) ** 2 * (n - 1) * n
    head = k * k * (m - 2) * (n - 1)
    rho = Fraction(k * k, n * (m - 1))
    rational = root * root == disc
    out = []
    for sign in (1, -1):
        sigma = Fraction(head + sign * w * root, denom) if rational else None
        tau = Fraction(head - sign * k * root, denom) if rational else None
        integral = rational and sigma.denominator == tau.denominator == rho.denominator == 1
        out.append(CandidateTriple(sigma, tau, rho, integral))
    return out


def symmetric_design_numerators(m: int, n: int) -> tuple[int, int, int, int]:
    """The unique admissible triple when lambda1 = lambda2, as numerators
    over the last entry: ((m-1)n(m^2-3m+1+n), (m-3)(m-1)^2 n, (m-1)^3 n) / (m+n-2)^2."""
    return (m - 1) * n * (m * m - 3 * m + 1 + n), (m - 3) * (m - 1) ** 2 * n, (m - 1) ** 3 * n, (m + n - 2) ** 2


# -- certification -----------------------------------------------------------


def verify_linked_system(sys: LinkedSystemII) -> Certificate:
    """Certify every block, the 0/1 condition on A + K, the commutation
    A K = K A = k/(m-1) (J - K), A_{j,i} = A_{i,j}^T, the full triple-product
    law over all ordered distinct triples (f >= 3), and for f = 2 that the
    companion A + K is a design.

    The system's stack is certified as it is held.  One banded pass over
    it reads the transposes with the shift masks (``translation_masks``).
    A K = K A of every block is read from group sums of its
    rows and columns (``k_commutations``), with no product, and A + K is
    0/1 exactly when each row of A sums to 0 over its own group.  The
    triples and the Gram identities are the cells of the grid of one middle
    index j (``_grid_differences``): A_ij A_jl for a triple and A_ij A_ji
    for i = l.  Once A_ji = A_ij^T, the cell A_ij A_ji is both A_ij A_ij^T and
    A_ji^T A_ji, so it gives a Gram verdict of both blocks; the Gram pair is
    formed on its own (``verify_grams``) only for the two blocks of a pair
    that is no transpose.  The grids of every middle index are one batch of
    kernel products, formed in slices of whole blocks past STACK_ENTRIES and
    reduced to verdicts and first positions before the next: one product
    for a system of order v <= 64 with f <= 7, and for a pair.  The lines
    come out block by block, as a per-block walk would print them.

    Each identity is formed on one row per orbit of the group and point
    digit shifts that fix every block it uses (``translation_masks``,
    ``on_orbits``): the identities that share those shifts are one batch,
    and an identity is formed on every row when no shift fixes its blocks
    or when it fails on its orbit rows.  A block damaged in one entry thus
    sends only its own identities to every row.  Every block's rows of a
    batch are gathered once, for the commutation and grid checks formed on
    them."""
    p = sys.params
    base, stack, f = p.base, sys.stack, p.f
    cert = Certificate(f"linked system f={f} on {base}")
    pairs = ordered_pairs(f)
    shape = base.m, base.n
    mirror = [pair_index(f, j, i) for i, j in pairs]  # the position of A_ji, for each A_ij
    # A_{j,i} = A_{i,j}^T is what makes the scheme's class A_3 symmetric
    upper = [(b, c) for b, c in enumerate(mirror) if b < c]
    masks, diffs = translation_masks(stack, *shape, upper)
    untransposed = [(b, c, pos) for (b, c), pos in zip(upper, diffs) if pos is not None]

    # the blocks whose Gram verdicts no grid cell gives
    alone = np.array(sorted(x for b, c, _ in untransposed for x in (b, c)), dtype=np.intp)
    faults = [None] * len(stack)
    grams = on_orbits(lambda members, rows: verify_grams(stack[alone[members]], base, rows), masks[alone], shape, lambda c: c.ok)
    for b, sub in zip(alone.tolist(), grams):
        faults[b] = sub.violations

    held = {}

    def on_rows(rows) -> np.ndarray:  # every block on a batch's rows, gathered once for the commutation and grid checks on them
        key = None if isinstance(rows, slice) else rows.tobytes()
        if key not in held:
            held[key] = stack[:, rows]
        return held[key]

    comms = on_orbits(
        lambda members, rows: k_commutations(stack, on_rows(rows), base.m, base.n, members, rows),
        masks,
        shape,
        lambda c: c[0].kind != "other",
    )

    cells, uses = _grid_cells(f)
    triples = len(cells) - len(pairs)  # then the Gram cells, in pair order
    keep = np.ones(len(cells), dtype=bool)
    keep[triples + alone] = False  # not np.setdiff1d: its np.unique imports numpy.ma, 15 ms on first use
    ids = np.flatnonzero(keep)
    found = dict(zip(ids.tolist(), on_orbits(
        lambda members, rows: _grid_differences(stack, on_rows(rows), p, cells[ids[members]], rows),
        np.bitwise_and.reduce(masks[uses[:, ids]]),
        shape,
        lambda d: d is None,
    )))
    for b, c in enumerate(mirror):
        if faults[b] is None:
            gram = found[triples + b], found[triples + c]  # A_ij A_ij^T, then A_ij^T A_ij = A_ji A_ij
            faults[b] = [Violation(label, *diff) for label, diff in zip(GRAM_IDENTITIES, gram) if diff is not None]

    names, triple_labels = _line_labels(f)
    for name, fault, (comm, zero_one) in zip(names, faults, comms):
        if not fault:
            cert.passed(f"{name} is a symmetric GDD")
        for v in fault:
            cert.failed(f"{name}: {v.identity}", v.position, v.expected, v.actual)
        cert.check(f"{name}: A + K is a 0/1 matrix", zero_one)
        if comm.kind == "multiple_of_J_minus_K" and comm.factor * (base.m - 1) == base.k:
            cert.passed(f"{name}: A K = K A = {comm.factor} (J - K)")
        else:
            cert.failed(f"{name}: A K = K A = k/(m-1) (J - K)")

    cert.notes.append(f"transpose-consistent blocks: {'no' if untransposed else 'yes'}")
    for b, c, pos in untransposed:
        cert.failed(f"block {pairs[c]} is the transpose of block {pairs[b]}", pos)

    for t, label in enumerate(triple_labels):
        cert.record(label, found[t])
    if f == 2:
        comp = companion_params(base)
        companion = stack[:1] + (group_labels(base.m, base.n) > 0)
        [sub] = on_orbits(lambda members, rows: verify_grams(companion, comp, rows), masks[:1], shape, lambda c: c.ok)
        if sub.ok:
            cert.passed(f"pair: A + K is a symmetric GDD with {comp}")
        else:
            for v in sub.violations:
                cert.failed(f"pair companion: {v.identity}", v.position, v.expected, v.actual)
    return cert


@lru_cache(maxsize=8)
def _grid_cells(f: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the grids of every middle index j as the rows (i, j, l)
    of a (count, 3) array: the ordered triples of distinct indices, in the
    order of their lines (none for f = 2), then the cells (i, j, i),
    A_ij A_ji, in the order of the pairs (i, j).  With the positions of the
    blocks each uses, A_ij, A_jl and A_il (A_ij in place of A_ii, which is
    not there), as a (3, count) array; both read-only."""
    i, j, l = np.indices((f, f, f)).reshape(3, -1) + 1
    distinct = (i != j) & (j != l) & (l != i)
    first, second = np.array(ordered_pairs(f)).T
    i, j, l = (np.concatenate([x[distinct], y]) for x, y in ((i, first), (j, second), (l, first)))
    ij = pair_index(f, i, j)
    uses = np.stack([ij, pair_index(f, j, l), np.where(l != i, pair_index(f, i, l), ij)])
    cells = np.stack([i, j, l], axis=1)
    cells.flags.writeable = uses.flags.writeable = False
    return cells, uses


@lru_cache(maxsize=8)
def _line_labels(f: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """What the report lines of a system on f indices name, formatted once:
    "block (i, j)" for each pair, in pair order, and "triple product
    (i,j,l)" for each triple, in the order of ``_grid_cells``."""
    cells, _ = _grid_cells(f)
    triples = cells[: f * (f - 1) * (f - 2)].tolist()
    return tuple(f"block {pair}" for pair in ordered_pairs(f)), tuple(f"triple product ({i},{j},{l})" for i, j, l in triples)


def _grid_differences(stack: np.ndarray, on_rows: np.ndarray, p: LinkedParams, cells: np.ndarray, rows) -> list:
    """For each row (i, j, l) of ``cells`` (``_grid_cells``), the first
    difference on the given rows (all of them, or one per orbit), or None,
    of A_ij A_jl from sigma A_il + tau (J - A_il - K) + rho K (l != i), or
    of A_ij A_ji from the Gram pattern k I + l1 (K - I) + l2 (J - K)
    (l = i).

    The products are the cells of one ``block_differences`` grid per middle
    index j, all f as one batch (``cell_differences``): the A_ij (i != j)
    against the A_jl (l != j), on the labels A_il + 2K, and 4 +
    ``group_labels`` where i = l.  Label 3 (a 1 of A_il inside K, which the
    0/1 check on A + K has already reported) reads sigma - tau + rho, the
    value of the formula there.  A pair (f = 2) has only the cells i = l,
    so labels 0..3 are never read, and its absent sigma, tau, rho stand in
    as 0.  The A_ij and A_il are read from ``on_rows``, every block on the
    rows, gathered once for the batch; a band's label matrices are formed
    once for each block A_il it reads, however many of its cells share it,
    and looked up once each (``Gathered``)."""
    f, count = p.f, len(stack)
    gram = group_labels(p.base.m, p.base.n)[rows]
    twice_k = np.where(gram > 0, 2, 0).astype(np.uint8)
    gram = (4 + gram).astype(np.uint8)
    sigma, tau, rho = (x or 0 for x in (p.sigma, p.tau, p.rho))
    coeffs = (tau, sigma, rho, sigma - tau + rho, p.base.lambda2, p.base.lambda1, p.base.k)
    # ends[j - 1] are the indices other than j, in increasing order
    ends = np.array([[x for x in range(1, f + 1) if x != j] for j in range(1, f + 1)])

    def labels(c, a, b):
        i, l = ends[c, a], ends[c, b]
        at = np.where(i == l, count, pair_index(f, i, l))  # count: the Gram labels, for the A_ii that is not there
        used = np.flatnonzero(np.bincount(at.ravel(), minlength=count + 1))
        place = np.empty(count + 1, dtype=np.intp)
        place[used] = np.arange(len(used))
        blocks = on_rows[used[used < count]] + twice_k
        return Gathered(np.concatenate([blocks, gram[None]]) if used[-1] == count else blocks, place[at])

    # left[j - 1] are the A_ij on the rows, gathered where indexed; the A_jl of each j are consecutive in the stack
    left = Gathered(on_rows, pair_index(f, ends, np.arange(1, f + 1)[:, None]))
    i, j, l = cells.T
    # the position of an end x among ends[j - 1]
    grid = j - 1, i - 1 - (i > j), l - 1 - (l > j)
    return cell_differences(left, stack.reshape(f, f - 1, *stack.shape[1:]), labels, coeffs, grid)


def make_linked_system(params: LinkedParams, stack: np.ndarray) -> LinkedSystemII:
    """Assemble and certify; constructions never return uncertified systems,
    and the system returned is sealed with its certificate."""
    sys = LinkedSystemII(params, stack)
    cert = verify_linked_system(sys)
    if not cert.ok:
        raise CertificationError("linked system fails certification", cert)
    return sys.seal(cert)


def pair_system(a: np.ndarray, params: GddParams) -> LinkedSystemII:
    """The two-index system {A, A^T} of a single design whose group-blown-up
    companion A + K is again a design; certified."""
    lp = LinkedParams(base=params, f=2, sigma=None, tau=None, rho=None)
    a = incidence(a, params.m, params.n)
    return make_linked_system(lp, np.stack([a, a.T]))


# -- construction: block matrices over linked MOLS ----------------------------


def build_tilde_l(aux: AuxiliarySet, fam: LinkedMolsFamily) -> LinkedSystemII:
    """Linked system with A_{i,j} = (C_{L_{i,j}(a,b)})_{a,b} and
    (sigma, tau, rho) = (k + (r-2) mu, (r-2) mu, r mu)."""
    p = aux.params
    if fam.order != p.r + 1:
        raise ParameterError(f"family symbol count {fam.order} != r + 1 = {p.r + 1}")
    if not fam.zero_diagonal:
        raise ParameterError("every square must carry the empty symbol on its diagonal")
    if aux.certificate is None and not (aux_cert := verify_auxiliary(aux)).ok:
        raise CertificationError("auxiliary set fails certification", aux_cert)
    big = GddParams(
        v=(p.r + 1) * p.v,
        k=p.k * p.r,
        m=p.r + 1,
        n=p.v,
        lambda1=p.k * p.lam,
        lambda2=p.k * p.lam,
    )
    params = LinkedParams(
        base=big,
        f=fam.f,
        sigma=p.k + (p.r - 2) * p.mu,
        tau=(p.r - 2) * p.mu,
        rho=p.r * p.mu,
    )
    # C_0 = 0 for the empty symbol, then the certified 0/1 matrices C_1..C_r
    cells = np.zeros((p.r + 1, p.v, p.v), dtype=np.uint8)
    cells[1:] = aux.stack
    # block (a, b) of A_ij, the view [a, :, b, :], is C_{L_ij(a, b)}: its row x
    # is row x of C_s, at x (r + 1) + s among the rows of every C_s, x first,
    # gathered at once straight into the stack, with no copy of its size
    rows, at = cells.swapaxes(0, 1).reshape(-1, p.v), np.arange(p.v)[:, None] * (p.r + 1) + fam.stack[:, :, None]
    stack = np.empty((len(fam.stack), big.v, big.v), dtype=np.uint8)
    np.take(rows, at, axis=0, out=stack.reshape(*at.shape, p.v), mode="clip")
    return make_linked_system(params, stack)


# -- construction: mutually unbiased Bush-type Hadamard matrices ---------------


def is_bush_type(h: IntMatrix) -> bool:
    """Hadamard with square order, all-ones diagonal blocks, and zero row
    and column sums on every off-diagonal block."""
    if not is_hadamard(h):
        return False
    order = h.rows
    b = isqrt(order)
    if b * b != order:
        return False
    # No off-diagonal sum needs a check: for the b columns C of block
    # column c, |H 1_C|^2 = 1_C^T H^T H 1_C = b^3, which the b entries b of
    # H 1_C on the all-ones block (c, c) use up, so every other block of
    # column c has zero row sums; H^T, also Hadamard, gives the column sums.
    return bool((h.lane.reshape(b, b, b, b).swapaxes(1, 2)[np.eye(b, dtype=bool)] == 1).all())


def are_unbiased(h1: IntMatrix, h2: IntMatrix) -> bool:
    """(1/2n) H1 H2^T is again a Hadamard matrix."""
    if h1.rows != h2.rows:
        return False
    order = h1.rows
    b = isqrt(order)
    prod = h1 @ h2.T
    if not bool((np.abs(prod.lane) == b).all()):
        return False
    return is_hadamard(IntMatrix(np.where(prod.lane > 0, 1, -1)))


def build_from_mub_bush(hs: list[IntMatrix]) -> LinkedSystemII:
    """System on f+1 indices from f mutually unbiased Bush-type Hadamard
    matrices of order 4n^2; parameters (4n^2, 2n^2-n, 2n, 2n, n^2-n, n^2-n)
    and (sigma, tau, rho) = (n^2-n/2, n^2-3n/2, n^2-n/2).

    Blocks are A_{i,j} = (J + H_{i,j})/2 - K with H_{i,j} = (1/2n) H_i H_j^T
    (and H_i itself against the reference index); the sign is fixed by the
    triple above -- the mirrored choice (J - H_{i,j})/2 realizes the other
    branch (n^2-3n/2, n^2-n/2, n^2-n/2)."""
    if not hs:
        raise ParameterError("need at least one matrix")
    order = hs[0].rows
    b = isqrt(order)
    if b * b != order or b % 2:
        raise ParameterError("order must be 4n^2")
    n = b // 2
    if n % 2:
        raise InfeasibleParameterError(
            f"n = {n} odd: tau = n^2 - 3n/2 is not an integer"
        )
    for idx, h in enumerate(hs):
        if h.rows != order or not is_bush_type(h):
            raise ParameterError(f"matrix {idx + 1} is not Bush-type of order {order}")
    for a in range(len(hs)):
        for c in range(a + 1, len(hs)):
            if not are_unbiased(hs[a], hs[c]):
                raise ParameterError(f"matrices {a + 1} and {c + 1} are not unbiased")

    base = GddParams(
        v=order,
        k=2 * n * n - n,
        m=2 * n,
        n=2 * n,
        lambda1=n * n - n,
        lambda2=n * n - n,
    )
    f_sys = len(hs) + 1
    in_k = group_labels(base.m, base.n) > 0
    stack = np.empty((f_sys * (f_sys - 1), order, order), dtype=np.uint8)

    def half_plus(i: int, j: int, h: np.ndarray):
        # (J + H)/2 - K for H = +-1: a -1 of H inside K wraps to 255 in
        # uint8, which LinkedSystemII refuses as not 0/1
        stack[pair_index(f_sys, i, j)] = (h > 0).view(np.uint8) - in_k

    for i, h in enumerate(hs, start=2):
        half_plus(1, i, h.lane.T)
        half_plus(i, 1, h.lane)
    for a in range(len(hs)):
        for c in range(len(hs)):
            if a != c:  # H_a H_c^T is +-2n everywhere, as the pair is unbiased
                half_plus(a + 2, c + 2, (hs[a] @ hs[c].T).lane)

    if f_sys == 2:
        params = LinkedParams(base=base, f=2, sigma=None, tau=None, rho=None)
    else:
        params = LinkedParams(
            base=base,
            f=f_sys,
            sigma=n * n - n // 2,
            tau=n * n - 3 * n // 2,
            rho=n * n - n // 2,
        )
    return make_linked_system(params, stack)


# rows one bush_search may place.  (n, f) = (2, 2) places 32 and (2, 3) 48,
# sixteen per matrix with no backtracking; (2, 4), which the Krein bound
# rules out, stops here after 1.2-1.6 s on a 2-vCPU machine; unbounded, it
# was still searching after 100 000 rows.
BUSH_MAX_NODES = 5_000


def bush_search(n: int, f: int) -> list[IntMatrix] | None:
    """Backtracking search for f mutually unbiased Bush-type Hadamard
    matrices of order 4n^2; desk-scale budget 4n^2 <= 16.

    A row is one integer of 4n^2 bits, a set bit a +1, with block bc in
    bits bc*b .. bc*b + b - 1 (b = 2n).  The candidates for the next row
    are the product of each block's masks, walked lexicographically: all
    ones on the diagonal block, the first balanced mask on the first row of
    the first matrix, else the balanced masks that keep every column of the
    block within n ones and n minus ones over its block row (on the last
    row of a block row that leaves one mask, the forced one).  A candidate
    is kept when it differs from every row above it in order/2 bits
    (orthogonal) and from every row of each earlier matrix in order/2 +- n
    (inner product +-2n).  Matrices are filled in turn, and a matrix with
    no completion takes the search back into the one before.  Every row
    placed is one node; raises BudgetExceededError once BUSH_MAX_NODES rows
    have been placed."""
    if n < 1 or f < 1:
        raise ParameterError("need n >= 1 and f >= 1")
    if n == 1:
        raise ParameterError("n = 1 is degenerate: tau = n^2 - 3n/2 is not an integer")
    order = 4 * n * n
    if order > 16:
        raise BudgetExceededError("search limited to order 4n^2 <= 16")
    b, half = 2 * n, order // 2
    balanced = [m for m in range(1 << b) if m.bit_count() == n]
    nodes = 0

    def masks(found: list, rows: list[int], bc: int) -> list[int]:
        br, lr = divmod(len(rows), b)
        if bc == br:
            return [(1 << b) - 1]
        if not found and not rows:
            return balanced[:1]
        ones = [sum(x >> (bc * b + c) & 1 for x in rows[len(rows) - lr :]) for c in range(b)]
        return [m for m in balanced if all(lr + 1 - n <= ones[c] + (m >> c & 1) <= n for c in range(b))]

    def search(found: list[list[int]], rows: list[int]) -> list[list[int]] | None:
        nonlocal nodes
        if len(rows) == order:
            found, rows = found + [rows], []
            if len(found) == f:
                return found
        for blocks in product(*(masks(found, rows, bc) for bc in range(b))):
            x = sum(m << (bc * b) for bc, m in enumerate(blocks))
            if any((x ^ y).bit_count() != half for y in rows):
                continue
            if any(abs((x ^ y).bit_count() - half) != n for h in found for y in h):
                continue
            if nodes == BUSH_MAX_NODES:
                raise BudgetExceededError(
                    f"search stopped at its budget: {nodes} nodes expanded (one node is one row placed)"
                )
            nodes += 1
            res = search(found, rows + [x])
            if res is not None:
                return res
        return None

    found = search([], [])
    if found is None:
        return None
    result = [IntMatrix([[1 if x >> j & 1 else -1 for j in range(order)] for x in h]) for h in found]
    for h in result:
        if not is_bush_type(h):
            raise CertificationError("search produced a non-Bush-type matrix")
    for a in range(len(result)):
        for c in range(a + 1, len(result)):
            if not are_unbiased(result[a], result[c]):
                raise CertificationError("search produced a biased pair")
    return result


# -- construction: conference matrices -----------------------------------------


def is_conference(c: IntMatrix) -> bool:
    """A weighing matrix of weight n - 1 with zero diagonal."""
    return c.is_square and not np.diagonal(c.lane).any() and is_weighing(c, c.rows - 1)


def conference_to_gdd(c: IntMatrix) -> tuple[np.ndarray, GddParams]:
    """Replace 1 -> I_2, -1 -> J_2 - I_2, 0 -> O_2; the result is a GDD with
    parameters (2n, n-1, n, 2, 0, n/2-1)."""
    if not is_conference(c):
        raise ParameterError("input is not a conference matrix")
    order = c.rows
    if order % 2:
        raise ParameterError("conference matrix order must be even")
    # J_2 - I_2, O_2 and I_2 for the entries -1, 0 and 1
    table = np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 1]]], dtype=np.uint8)
    big = table[c.lane.astype(np.intp) + 1].swapaxes(1, 2).reshape(2 * order, 2 * order)
    params = GddParams(2 * order, order - 1, order, 2, 0, order // 2 - 1)
    return certified_design(big, params, "conference replacement fails certification"), params


# -- construction: generalized conference matrices ------------------------------


@dataclass
class GcmMatrix:
    """Square matrix over G union {0} for the cyclic group G of order g,
    written additively mod g: entries are group elements 0..g-1, -1 marks
    the zero entry."""

    g: int
    entries: list[list[int]]

    def __post_init__(self):
        if self.g < 2:
            raise ParameterError("group order must be at least 2")
        self.order = len(self.entries)
        if self.order < 2:
            raise ParameterError("matrix order must be at least 2")
        for row in self.entries:
            if len(row) != self.order:
                raise ParameterError("matrix must be square")
            for x in row:
                if x != -1 and not (0 <= x < self.g):
                    raise ParameterError(f"entry {x} is neither a group element nor zero")

    @property
    def lam(self) -> int:
        if (self.order - 2) % self.g:
            raise ParameterError("order - 2 is not a multiple of the group order")
        return (self.order - 2) // self.g


def verify_gcm(gcm: GcmMatrix) -> Certificate:
    """Diagonal zero, all off-diagonal entries in G, and every quotient
    multiset between two rows covering G exactly lambda times."""
    g = gcm.g
    cert = Certificate(f"generalized conference matrix over C_{g}, order {gcm.order}")
    try:
        lam = gcm.lam
    except ParameterError:
        cert.failed("order = g lambda + 2 for integral lambda")
        return cert
    size = gcm.order
    diag_ok = all(gcm.entries[i][i] == -1 for i in range(size))
    cert.check("zero diagonal", diag_ok)
    support_ok = all(
        gcm.entries[i][j] != -1 for i in range(size) for j in range(size) if i != j
    )
    cert.check("each row has g lambda + 1 nonzero entries", support_ok)
    if not (diag_ok and support_ok):
        return cert
    for i in range(size):
        for h in range(size):
            if i == h:
                continue
            counts = [0] * g
            for j in range(size):
                if j in (i, h):
                    continue
                counts[(gcm.entries[i][j] - gcm.entries[h][j]) % g] += 1
            if any(c != lam for c in counts):
                cert.failed(f"rows ({i},{h}): quotients do not cover the group {lam} times")
    if cert.ok:
        cert.passed(f"all row pairs cover the group exactly lambda = {lam} times")
    return cert


def gcm_to_gdd(gcm: GcmMatrix) -> tuple[np.ndarray, GddParams]:
    """Apply the regular permutation representation entrywise; the image is
    a GDD with parameters (g(g lam + 2), g lam + 1, g lam + 2, g, 0, lam)."""
    cert = verify_gcm(gcm)
    if not cert.ok:
        raise CertificationError("input fails the generalized conference property", cert)
    g = gcm.g
    lam = gcm.lam
    size = gcm.order
    # x acts as the shift a -> a + x mod g; the zero block after the shifts is index -1
    table = np.zeros((g + 1, g, g), dtype=np.uint8)
    table[:g] = [np.roll(np.eye(g, dtype=np.uint8), x, axis=1) for x in range(g)]
    big = table[np.array(gcm.entries, dtype=np.intp)].swapaxes(1, 2).reshape(g * size, g * size)
    params = GddParams(g * size, g * lam + 1, size, g, 0, lam)
    return certified_design(big, params, "representation image fails certification"), params


def bgw_generate(q: int) -> GcmMatrix:
    """Balanced generalized weighing matrix with parameters
    (q+1, q, q-1) over the cyclic group of order q-1.

    Rows and columns are indexed by the projective line over GF(q); the
    entry for distinct points is the discrete logarithm of the bilinear
    form ad - bc evaluated on fixed representatives ([x:1] for finite
    points, [1:0] for the point at infinity).  The generalized conference
    verifier gates the output."""
    if q < 3:
        raise ParameterError("need a prime power q >= 3")
    ctx = gf_from_order(q)
    log, add, neg = ctx.log, ctx.add, ctx.neg
    minus_one = log[neg[ctx.one]]
    entries = [[-1 if i == j else log[add[i][neg[j]]] for j in range(q)] + [minus_one] for i in range(q)]
    entries.append([log[ctx.one]] * q + [-1])
    gcm = GcmMatrix(q - 1, entries)
    cert = verify_gcm(gcm)
    if not cert.ok:
        raise CertificationError("projective-line construction fails verification", cert)
    return gcm


# -- construction: twin designs from disjoint weighing matrices -----------------


@dataclass
class TwinPair:
    plus: np.ndarray
    minus: np.ndarray
    params: GddParams


def twin_params(n: int, m: int) -> GddParams:
    """Parameters (n l, n(n-1)m/2, l, n, n(n-2)m/4, n((n-1)m-1)/4) with
    l = (n-1)m + 1; integrality of the indices is enforced."""
    ell = (n - 1) * m + 1
    if (n * (n - 1) * m) % 2 or (n * (n - 2) * m) % 4 or (n * ((n - 1) * m - 1)) % 4:
        raise InfeasibleParameterError(f"twin parameters are not integral at (n, m) = ({n}, {m})")
    return GddParams(
        v=n * ell,
        k=n * (n - 1) * m // 2,
        m=ell,
        n=n,
        lambda1=n * (n - 2) * m // 4,
        lambda2=n * ((n - 1) * m - 1) // 4,
    )


def build_twin(h: IntMatrix, ws: list[IntMatrix]) -> TwinPair:
    """A+ = sum W_{i,1} (x) C_i + W_{i,2} (x) (J - C_i) and its twin, from a
    normalized Hadamard matrix of order n and n-1 disjoint weighing matrices
    of order (n-1)m + 1 and weight m."""
    n = h.rows
    if not is_hadamard(h) or any(h[0, j] != 1 for j in range(n)):
        raise ParameterError("first input must be a normalized Hadamard matrix")
    if len(ws) != n - 1:
        raise ParameterError(f"need exactly n - 1 = {n - 1} weighing matrices")
    ell = ws[0].rows
    m = sum(x * x for x in ws[0].row(0))  # (W_1 W_1^T)[0, 0]
    if ell != (n - 1) * m + 1:
        raise ParameterError(f"weighing order {ell} != (n-1)m + 1 = {(n - 1) * m + 1}")
    total = np.zeros((ell, ell), dtype=np.int64)
    for idx, w in enumerate(ws):
        if w.rows != ell or not is_weighing(w, m):
            raise ParameterError(f"matrix {idx + 1} is not a weighing matrix of weight {m}")
        total += np.abs(w.a)
    if not (total == (np.ones((ell, ell)) - np.eye(ell)).astype(np.int64)).all():
        raise ParameterError("absolute values of the weighing matrices must sum to J - I")

    params = twin_params(n, m)
    aux = aux_from_hadamard(h)
    # the supports of the W_i are disjoint, so each sum stays 0/1 in uint8
    plus = np.zeros((ell * n, ell * n), dtype=np.uint8)
    minus = np.zeros((ell * n, ell * n), dtype=np.uint8)
    for w, c in zip(ws, aux.stack):
        pos, neg = w.lane == 1, w.lane == -1
        plus += np.kron(pos, c) + np.kron(neg, 1 - c)
        minus += np.kron(pos, 1 - c) + np.kron(neg, c)

    pair = []
    for label, arr in (("A+", plus), ("A-", minus)):
        mat = certified_design(arr, params, f"{label} fails design certification")
        comm = check_k_commutation(mat, params)
        if comm.kind != "multiple_of_J_minus_K" or 2 * comm.factor != n:
            raise CertificationError(f"{label} does not commute with K as n/2 (J - K)")
        pair.append(mat)
    if not np.array_equal(plus + minus, group_labels(params.m, params.n) == 0):
        raise CertificationError("A+ + A- + K != J")
    return TwinPair(*pair, params)
