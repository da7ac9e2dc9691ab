"""Symmetric group divisible designs: parameter containers, exact
certification of the defining matrix identity, partial complements, and the
closed-form lambda parameters forced on designs whose group-blown-up
companion is again a design.

A symmetric GDD with parameters (v, k, m, n, lambda1, lambda2) is a square
0/1 matrix A of order v = m*n with

    A A^T = A^T A = k I + lambda1 (K - I) + lambda2 (J - K),

where K = I_m (x) J_n marks the m groups of n points.

Every identity of this package has that shape: a product equals a sum of
integer coefficients times 0/1 patterns that partition the matrix.  The
patterns are given once as a label array (``group_labels``: 0 on J - K, 1
on K - I, 2 on I; other checks use I, a class matrix, or A + 2K), the
expected matrix is the exact lookup of the coefficients on the labels, and
the first row-major entry where the product differs from it is reported
by ``stack_differences``, which compares a stack of products in their
lane's dtype; ``Certificate.record`` enters its verdict.  No right-hand
side is built from a dense I, J or K, and no dense K enters a product: a
product with K goes through the v x m group indicator G
(``group_columns``), K = G G^T.

The Gram and K-commutation checks take a stack of matrices, shape
(count, v, v), and form each identity's products for the whole stack in
one kernel call (or a few, ``stack_slices``); a single design is a stack of
one, so every design and every block of a linked system is certified by the
same code.  An identity on every product of two stacks (the triple law of a
linked system, the auxiliary axioms, orthogonality and composition of a
linked family) is a grid of block products, formed and compared by the one
routine ``block_differences``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import IntMatrix, first_differences, lane_table
from .errors import CertificationError, DegenerateDesignError, InfeasibleParameterError, ParameterError
from .gf import factor_prime_power


@dataclass(frozen=True)
class GddParams:
    v: int
    k: int
    m: int
    n: int
    lambda1: int
    lambda2: int

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ParameterError("need at least two groups of at least two points")
        if self.v != self.m * self.n:
            raise ParameterError(f"v = {self.v} != m*n = {self.m * self.n}")
        if min(self.k, self.lambda1, self.lambda2) < 0:
            raise ParameterError("parameters must be non-negative")
        if self.k == self.lambda1:
            raise DegenerateDesignError(
                "k = lambda1: the design is a symmetric design blown up by groups"
            )
        if self.k < self.lambda1:
            raise ParameterError("k must exceed lambda1")
        lhs = self.k * self.k
        rhs = self.k + self.lambda1 * (self.n - 1) + self.lambda2 * (self.v - self.n)
        if lhs != rhs:
            raise ParameterError(
                f"row-sum consistency fails: k^2 = {lhs} but "
                f"k + l1(n-1) + l2(v-n) = {rhs}"
            )


# entries one stacked product may hold (4 MB as int64): a stack is
# multiplied in slices whose operands and result each stay below this, and
# each slice is reduced to verdicts before the next is formed.  A GF(8)
# system's 42 blocks of order 64 take one slice.
STACK_ENTRIES = 2**19


def stack_slices(count: int, entries: int) -> list[slice]:
    """Consecutive slices of a stack of ``count`` members, each member
    ``entries`` entries of a kernel operand or result: as many members per
    slice as fit in STACK_ENTRIES, and at least one."""
    step = max(1, STACK_ENTRIES // max(entries, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def digit_shifts(v: int) -> list[np.ndarray]:
    """For v = p^e, the e permutations of 0..v-1 that each add 1 mod p to
    one base-p digit of an index, none for any other v: with field elements
    and points numbered lexicographically, they generate GF(q)^d's translations."""
    try:
        p, e = factor_prime_power(v)
    except ParameterError:
        return []
    x = np.arange(v)
    return [x + np.where(x // p**s % p == p - 1, 1 - p, 1) * p**s for s in range(e)]


def orbit_rows(stack: np.ndarray, perms) -> np.ndarray | None:
    """The least index of each orbit of the group generated by those of the
    permutations ``perms`` of 0..v-1 that fix every matrix M of the
    (count, v, v) ``stack`` exactly, M[perm][:, perm] = M, found by
    union-find; None when they leave every index alone in its orbit.
    ``perms`` is read lazily and no further once one orbit is left.

    One row per orbit certifies an identity whose matrices all come from
    the stack, or are I, J, or K with each index a whole group: if a
    permutation matrix P fixes each of them, P M P^T = M, it fixes the
    difference E of the two sides, so row perm(x) of E is row x permuted,
    and E = 0 exactly when it vanishes on the rows returned."""
    v = stack.shape[-1]
    root = list(range(v))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    orbits = v
    for perm in perms:
        perm = np.asarray(perm)
        if not np.array_equal(np.sort(perm), np.arange(v)):
            continue
        if not all(np.array_equal(stack[part][:, perm][:, :, perm], stack[part]) for part in stack_slices(len(stack), v * v)):
            continue
        for x, y in enumerate(perm.tolist()):
            x, y = find(x), find(y)
            if x != y:  # a root is its orbit's least index
                root[max(x, y)] = min(x, y)
                orbits -= 1
        if orbits == 1:
            break
    return None if orbits == v else np.array([x for x in range(v) if root[x] == x])


def on_orbits(check, rows: np.ndarray | None, passed):
    """``check(rows)``, when ``rows`` (``orbit_rows``) is not None and that
    result ``passed``; otherwise ``check`` on every row, ``check(slice(None))``,
    so a failure is reported with the lines and first positions of the full
    check."""
    if rows is not None:
        out = check(rows)
        if passed(out):
            return out
    return check(slice(None))


def stack_differences(actual: np.ndarray, labels: np.ndarray, coeffs) -> list[tuple | None]:
    """For each matrix of the stack ``actual``, a product's lane array
    (``IntMatrix.lane``; any leading shape, matrices in row-major order),
    None where it equals the pattern sum_t coeffs[t] [labels == t]
    (``labels`` broadcasts against the stack), else its first row-major
    difference as (position, expected entry, actual entry), Python integers.

    The pattern is looked up in the lane's dtype (``lane_table``), so the
    comparison is exact with no int64 copy of either side.  ``labels`` are
    integers (``uint8``, ``int8``): indexing casts them in buffered chunks,
    where ``np.take`` would first copy them whole as ``intp``.  Only a
    stack that differs somewhere is reduced matrix by matrix."""
    coeffs = [int(c) for c in coeffs]
    diff = actual != lane_table(coeffs, actual.dtype)[labels]
    if not diff.any():
        return [None] * int(np.prod(diff.shape[:-2]))
    labels = np.broadcast_to(labels, actual.shape)
    out = []
    for t, pos in enumerate(first_differences(diff, False)):
        at = np.unravel_index(t, actual.shape[:-2]) + pos if pos is not None else None
        out.append(None if at is None else (pos, coeffs[labels[at]], int(actual[at])))
    return out


def block_differences(left: np.ndarray, right: np.ndarray, labels, coeffs) -> list:
    """The s x t grid of ``stack_differences`` verdicts of every block
    left[a] @ right[b], for an (s, h, v) stack ``left`` and a (t, v, w)
    stack ``right``, against the pattern of ``coeffs`` on ``labels(a, b)``;
    with a leading batch axis, (B, s, h, v) and (B, t, v, w), the
    B x s x t grid of left[c, a] @ right[c, b] on ``labels(c, a, b)``.

    Member c's blocks are those of (vstack_a left[c, a])
    (hstack_b right[c, b]), the members one stacked product, formed in bands
    of whole blocks within STACK_ENTRIES (``stack_slices``) of columns,
    members, then rows; each is reduced and freed before the next.
    ``labels`` gets each band's indices as arrays along its (members, rows,
    columns) axes, and broadcasts against its (.., h, w) blocks."""
    if left.ndim == 3:
        return block_differences(left[None], right[None], lambda c, a, b: labels(a, b), coeffs)[0]
    size, s, h, v = left.shape
    t, w = right.shape[1], right.shape[-1]
    grid = [[[None] * t for _ in range(s)] for _ in range(size)]
    for cols in stack_slices(t, v * w):
        band = np.arange(t)[cols]
        width = len(band) * w
        for batch in stack_slices(size, max(v, s * h) * width):
            members = np.arange(size)[batch]
            # one member is multiplied as a matrix, several as a stack
            one = 0 if len(members) == 1 else slice(None)
            wide = IntMatrix.view(right[batch, cols].transpose(0, 2, 1, 3).reshape(len(members), v, width)[one])
            for part in stack_slices(s, len(members) * h * width):
                group = np.arange(s)[part]
                prod = (IntMatrix.view(left[batch, part].reshape(len(members), -1, v)[one]) @ wide).lane
                # block (c, a, b) of the band's product, as a view [c, a, b]
                blocks = prod.reshape(len(members), len(group), h, len(band), w).swapaxes(2, 3)
                at = np.ix_(members, group, band)
                diffs = iter(stack_differences(blocks, labels(*at), coeffs))
                del prod, blocks  # reduced: free them before the next product is formed
                for c in members:
                    for a in group:
                        grid[c][a][cols] = [next(diffs) for _ in band]
    return grid


def group_labels(m: int, n: int) -> np.ndarray:
    """The label array of the group pattern of order m*n: 0 on J - K, 1 on
    K - I, 2 on I, with K = I_m (x) J_n."""
    group = np.arange(m * n) // n
    labels = (group[:, None] == group[None, :]).astype(np.int8)
    np.fill_diagonal(labels, 2)
    return labels


def group_columns(m: int, n: int) -> np.ndarray:
    """G = I_m (x) 1_n, the v x m boolean group indicator: K = G G^T."""
    return np.repeat(np.eye(m, dtype=bool), n, axis=0)


def equivalence_classes(mask: np.ndarray) -> list[tuple[int, ...]] | None:
    """The classes of the relation ``mask`` (square, boolean), by least
    point, or None unless it is an equivalence with classes of one size: it
    is one exactly when it relates the points of equal least relative."""
    least = mask.argmax(axis=1)
    if not np.array_equal(mask, least[:, None] == least):
        return None
    # a class's least point is its own least relative; np.unique would import numpy.ma
    count = np.count_nonzero(least == np.arange(len(least)))
    if len(least) % count or np.bincount(least).max() != len(least) // count:
        return None
    # ordered by least point, the points of each class come out together, ascending
    return [tuple(c) for c in np.argsort(least, kind="stable").reshape(count, -1).tolist()]


def partial_complement_params(p: GddParams) -> GddParams:
    """Parameters of J - K - A for a design A with the given parameters."""
    twice_k, m1 = 2 * p.k, p.m - 1
    if twice_k % m1:
        raise InfeasibleParameterError(f"2k/(m-1) = {twice_k}/{m1} is not an integer")
    return GddParams(
        v=p.v,
        k=p.v - p.k - p.n,
        m=p.m,
        n=p.n,
        lambda1=p.v - p.n - 2 * p.k + p.lambda1,
        lambda2=p.v - 2 * p.n - 2 * p.k + p.lambda2 + twice_k // m1,
    )


def companion_params(p: GddParams) -> GddParams:
    """Parameters of A + K when A has the given parameters and commutes with
    K as k/(m-1) times the off-group indicator."""
    twice_k, m1 = 2 * p.k, p.m - 1
    if twice_k % m1:
        raise InfeasibleParameterError(f"2k/(m-1) = {twice_k}/{m1} is not an integer")
    return GddParams(
        v=p.v,
        k=p.k + p.n,
        m=p.m,
        n=p.n,
        lambda1=p.lambda1 + p.n,
        lambda2=p.lambda2 + twice_k // m1,
    )


def zero_one(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as uint8, refusing any entry not 0 or 1 before it is
    narrowed, so that 256 cannot wrap to 0: the one place a 0/1 matrix or
    stack (a design, a block, an auxiliary set) is checked and narrowed."""
    if not IntMatrix.view(arr).is_zero_one():
        raise ParameterError(f"{what} entries must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


class IncidenceMatrix:
    """A square 0/1 matrix together with its (m, n) group structure, held
    as a uint8 view (``zero_one``): a copy only when given wider entries."""

    __slots__ = ("mat", "m", "n")

    def __init__(self, mat: IntMatrix, m: int, n: int):
        if not mat.is_square:
            raise ParameterError("incidence matrix must be square")
        if mat.rows != m * n:
            raise ParameterError(f"order {mat.rows} != m*n = {m * n}")
        # .a, not .lane: a product held in a float lane is widened for the check
        self.mat = IntMatrix.view(zero_one(mat.a, "incidence matrix"))
        self.m = m
        self.n = n

    @property
    def v(self) -> int:
        return self.mat.rows

    def diagonal_blocks_zero(self) -> bool:
        """A has no 1 inside K, so A + K is 0/1."""
        return not self.mat.lane[group_labels(self.m, self.n) > 0].any()

    def __eq__(self, other):
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.mat == other.mat

    def __hash__(self):
        return hash((self.m, self.n, self.mat))

    def __repr__(self):
        return f"IncidenceMatrix(v={self.v}, groups={self.m}x{self.n})"


@dataclass(frozen=True)
class Violation:
    identity: str
    position: tuple[int, int] | None
    expected: int | None = None
    actual: int | None = None

    def __str__(self):
        loc = f" at {self.position}" if self.position is not None else ""
        detail = ""
        if self.expected is not None:
            detail = f" (expected {self.expected}, got {self.actual})"
        return f"{self.identity}{loc}{detail}"


@dataclass
class Certificate:
    subject: str
    checks: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def passed(self, label: str):
        self.checks.append(label)

    def failed(self, identity: str, position=None, expected=None, actual=None):
        self.violations.append(Violation(identity, position, expected, actual))

    def check(self, label: str, ok: bool):
        """Pass or fail under one label."""
        if ok:
            self.passed(label)
        else:
            self.failed(label)

    def record(self, label: str, diff: tuple | None):
        """Pass on a ``stack_differences`` verdict of None, else record its
        first difference (position, expected entry, actual entry)."""
        if diff is None:
            self.passed(label)
        else:
            self.failed(label, *diff)

    def report_lines(self) -> list[str]:
        lines = [f"certificate: {self.subject}: {'OK' if self.ok else 'VIOLATED'}"]
        lines += [f"  ok: {c}" for c in self.checks]
        lines += [f"  note: {n}" for n in self.notes]
        lines += [f"  violation: {v}" for v in self.violations]
        return lines

    def __str__(self):
        return "\n".join(self.report_lines())


def verify_gdd(a: IncidenceMatrix, p: GddParams) -> Certificate:
    """Certify A A^T = A^T A = kI + l1(K-I) + l2(J-K) entrywise."""
    if (a.v, a.m, a.n) != (p.v, p.m, p.n):
        cert = Certificate(f"symmetric GDD {p}")
        cert.failed("dimension/group structure matches parameters", (0, 0))
        return cert
    return verify_grams(a.mat.lane[None], p)[0]


def verify_grams(stack: np.ndarray, p: GddParams, rows=slice(None)) -> list[Certificate]:
    """The Gram identities of ``verify_gdd`` for every matrix of a
    (count, v, v) stack, 0/1 or not (such as A + K for a block A with a 1
    inside K), one certificate each: A A^T and A^T A as one stacked
    product apiece, on the given rows of each (all of them, or one per
    orbit: ``orbit_rows``).  Each slice is converted to the lane once; the
    rows of A A^T are read as columns of A (A[rows])^T, so that no operand
    is a transposed whole slice, which numpy multiplies without BLAS."""
    certs = [Certificate(f"symmetric GDD {p}") for _ in range(len(stack))]
    labels, coeffs = group_labels(p.m, p.n)[rows], (p.lambda2, p.lambda1, p.k)
    for part in stack_slices(len(stack), stack[0].size):
        top = IntMatrix.view(stack[part]).max_abs()
        held = IntMatrix.in_lane(stack[part], top, p.v)
        flip = np.swapaxes(held.lane, 1, 2)

        def operand(arr: np.ndarray) -> IntMatrix:  # a view of the held slice, laid out as rows
            return IntMatrix.in_lane(np.ascontiguousarray(arr), top, p.v)

        for label, prod in (
            ("A A^T equals k I + l1 (K - I) + l2 (J - K)", lambda: (held @ operand(flip[..., rows])).lane.swapaxes(1, 2)),
            ("A^T A equals k I + l1 (K - I) + l2 (J - K)", lambda: (operand(flip[:, rows]) @ held).lane),
        ):
            for cert, diff in zip(certs[part], stack_differences(prod(), labels, coeffs)):
                cert.record(label, diff)
    return certs


def check_bose(a: IncidenceMatrix, p: GddParams) -> bool:
    """The rank-argument identity for designs with lambda1 != lambda2:
    A K A^T = (n(l1 - l2) + k - l1) K + n l2 J, formed as (A G)(A G)^T
    with G the v x m group indicator, so K is never formed."""
    if p.lambda1 == p.lambda2:
        raise ParameterError("identity only applies when lambda1 != lambda2")
    ag = a.mat @ IntMatrix.view(group_columns(a.m, a.n))
    on_k = p.n * (p.lambda1 - p.lambda2) + p.k - p.lambda1 + p.n * p.lambda2
    return stack_differences((ag @ ag.T).lane, group_labels(a.m, a.n), (p.n * p.lambda2, on_k, on_k)) == [None]


def certified_design(arr: np.ndarray, p: GddParams, message: str) -> IncidenceMatrix:
    """A constructed 0/1 array as a design with parameters p, returned only
    once ``verify_gdd`` certifies it (a CertificationError with ``message``
    otherwise): constructions never return uncertified designs."""
    mat = IncidenceMatrix(IntMatrix.view(arr), p.m, p.n)
    cert = verify_gdd(mat, p)
    if not cert.ok:
        raise CertificationError(message, cert)
    return mat


def partial_complement(a: IncidenceMatrix, p: GddParams) -> tuple[IncidenceMatrix, GddParams]:
    """J - K - A, certified with its derived parameters."""
    if not a.diagonal_blocks_zero():
        raise ParameterError("partial complement needs zero diagonal blocks (A + K must be 0/1)")
    cp = partial_complement_params(p)
    # A has no 1 inside K, so J - K - A is 1 exactly off K where A is 0
    comp = (group_labels(a.m, a.n) == 0) & (a.mat.lane == 0)
    out = IncidenceMatrix(IntMatrix.view(comp), p.m, p.n)
    cert = verify_gdd(out, cp)
    if not cert.ok:
        raise ParameterError(
            "input is not a symmetric GDD with the stated parameters: "
            + "; ".join(str(v) for v in cert.violations)
        )
    return out, cp


@dataclass(frozen=True)
class KCommutation:
    kind: str  # "zero" | "multiple_of_J" | "multiple_of_J_minus_K" | "other"
    factor: Fraction | None = None


def check_k_commutation(a: IncidenceMatrix) -> KCommutation:
    """Classify A K = K A against the two canonical right-hand sides, from
    the constant A K takes on K and the one it takes off K."""
    return k_commutations(a.mat.lane[None], a.m, a.n)[0]


def k_commutations(stack: np.ndarray, m: int, n: int, rows=slice(None)) -> list[KCommutation]:
    """``check_k_commutation`` for every matrix of a (count, v, v) stack, on
    the given rows (all, or one per orbit: ``orbit_rows``).

    A K = K A has a class exactly when both are d K + c (J - K).  With G the
    v x m group indicator, K = G G^T, (A K)[x, y] = (A G)[x, group(y)] and
    (K A)[y, x] = (A^T G)[x, group(y)]: both are that pattern when A[rows] G
    and A[:, rows]^T G are d in the row's group and c elsewhere, d and c read
    at the first row.  A permutation fixing A and K fixes both differences,
    so one row per orbit decides as every row does."""
    groups = np.arange(m * n)[rows] // n
    first, own = int(groups[0]), groups[:, None] == np.arange(m)  # own: the column is the row's group
    g = IntMatrix.view(group_columns(m, n))
    out = []
    for part in stack_slices(len(stack), stack[0].size):
        # compared with each other in their lane, exactly; read out as Python integers
        ag = (IntMatrix.view(stack[part][:, rows]) @ g).lane
        ta = (IntMatrix.view(stack[part][:, :, rows].swapaxes(1, 2)) @ g).lane
        d = ag[:, 0, first]
        c = ag[:, 0, (first + 1) % m] if m > 1 else d
        want = np.where(own, d[:, None, None], c[:, None, None])
        ok = (ag == want).all(axis=(1, 2)) & (ta == want).all(axis=(1, 2))
        out += [_k_class(int(x), int(y)) if good else KCommutation("other") for good, x, y in zip(ok, d, c)]
    return out


def _k_class(d: int, c: int) -> KCommutation:
    """The class of A K = K A when it is d on K and c off K."""
    if d == 0:
        return KCommutation("multiple_of_J_minus_K", Fraction(c)) if c else KCommutation("zero", Fraction(0))
    return KCommutation("multiple_of_J", Fraction(c)) if c == d else KCommutation("other")


def lambda_formulas(k: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    """The unique (lambda1, lambda2) compatible with A and A + K both being
    designs: l1 = k(k-m+1)/((m-1)(n-1)), l2 = k^2(m-2)/(n(m-1)^2)."""
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    l1 = Fraction(k * (k - m + 1), (m - 1) * (n - 1))
    l2 = Fraction(k * k * (m - 2), n * (m - 1) * (m - 1))
    return l1, l2
