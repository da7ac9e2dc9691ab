"""Latin squares with the row-superimposition notion of orthogonality.

Two squares are orthogonal here when superimposing any row of the first on
any row of the second matches in exactly one position; the matched value is
then a function of the two row indices and fills a new Latin square (the
composition).  A family {L_{i,j}} over ordered index pairs is *linked* when
for all distinct i, j, k the squares L_{i,k}, L_{j,k} are orthogonal and
compose to L_{i,j}.

This differs from the classical cell-superimposition notion of MOLS: there,
two squares are orthogonal if all ordered symbol pairs appear once when the
squares are overlaid cell by cell.  Row-superimposition orthogonality is the
variant needed by the block constructions in this package; squares obtained
from finite fields satisfy both.

A family is one stack of its squares in the order of ``ordered_pairs``, the
order every pair-indexed object of the package keeps (a linked system's
blocks too); this module owns that layout (``ordered_pairs``,
``pair_index``), and one vectorised Latin rule (``require_latin``) checks a
single square, a family and a square read from a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .designs import Certificate, block_differences, stack_slices
from .errors import BudgetExceededError, CertificationError, ParameterError
from .gf import GFContext

SEARCH_MAX_ORDER = 8
# rows placed across one search: the any-diagonal order-5 search needs about
# 247k; the zero-diagonal order-7 search stops after about 20 s (a fresh
# `oracle linked-mols --order 7 --f 3` on a 2-vCPU x86-64 host)
SEARCH_MAX_NODES = 500_000

# the orders at which no linked family exists, and why: it would hold the
# orthogonal pair L_13, L_23, and no two Latin squares of these orders are
# orthogonal.  Row-superimposition orthogonality of L and M is classical
# orthogonality of their row-symbol conjugates, L'(s, c) = a exactly when
# L(a, c) = s: the columns where row a of L and row b of M agree are the
# cells (s, c) where L' = a and M' = b.
NO_FAMILY = {
    2: "no linked family of order 2: L_13 and L_23 would be orthogonal, and two rows of order 2 agree in no column or in both",
    6: "no linked family of order 6: L_13 and L_23 would be orthogonal, and no two Latin squares of order 6 are (Tarry, 1900)",
}


def ordered_pairs(f: int) -> list[tuple[int, int]]:
    """The ordered pairs (i, j) of distinct indices 1..f in lexicographic
    order: the order of the squares of a family's stack and of the blocks
    of a linked system's stack and file."""
    return [(i, j) for i in range(1, f + 1) for j in range(1, f + 1) if i != j]


def pair_index(f: int, i, j):
    """The position of pair (i, j) in ``ordered_pairs(f)``, for integers or arrays."""
    return (i - 1) * (f - 1) + j - 1 - (j > i)


def require_latin(squares: np.ndarray):
    """Refuse a (count, n, n) stack of integers unless each row, and then
    each column, of each square holds 0..n-1 once: the first square that
    does not, in stack order, names its rows when one of them fails.  The
    entries are read as given, before any narrowing."""
    symbols = np.arange(squares.shape[-1])
    rows = (np.sort(squares, axis=2) != symbols).any(axis=(1, 2))
    bad = rows | (np.sort(squares, axis=1) != symbols[:, None]).any(axis=(1, 2))
    if bad.any():
        which = "row" if rows[bad.argmax()] else "column"
        raise ParameterError(f"each {which} must contain every symbol exactly once")


@dataclass(frozen=True)
class LatinSquare:
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.grid)
        if n < 1:
            raise ParameterError("Latin square order must be at least 1")
        if any(len(row) != n for row in self.grid):
            raise ParameterError("each row must contain every symbol exactly once")
        require_latin(np.array(self.grid)[None])

    @staticmethod
    def of(rows) -> "LatinSquare":
        return LatinSquare(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.grid)

    @property
    def zero_diagonal(self) -> bool:
        return all(self.grid[i][i] == 0 for i in range(self.order))

    def positions(self) -> tuple[tuple[int, ...], ...]:
        """positions()[i][s] = the column of symbol s in row i."""
        return tuple(map(tuple, np.argsort(self.grid, axis=1).tolist()))

    def transpose(self) -> "LatinSquare":
        return LatinSquare(tuple(zip(*self.grid)))


def _agreements(l1: LatinSquare, l2: LatinSquare) -> np.ndarray:
    """[a, b, c]: row a of l1 and row b of l2 agree at column c."""
    if l1.order != l2.order:
        raise ParameterError("orders differ")
    return np.array(l1.grid)[:, None] == np.array(l2.grid)


def is_orthogonal(l1: LatinSquare, l2: LatinSquare) -> bool:
    """Every row of l1 superimposed on every row of l2 agrees in exactly one
    position."""
    return bool((_agreements(l1, l2).sum(axis=2) == 1).all())


def compose(l1: LatinSquare, l2: LatinSquare) -> LatinSquare:
    """(i, j) entry = the unique common value of row i of l1 and row j of l2."""
    agree = _agreements(l1, l2)
    if (agree.sum(axis=2) != 1).any():
        raise ParameterError("rows do not share exactly one common value; squares not orthogonal")
    return LatinSquare.of((agree * np.array(l1.grid)[:, None]).sum(axis=2))


def mols_from_gf(ctx: GFContext) -> list[LatinSquare]:
    """The q-1 squares with (i, j) entry c*(a_i - a_j), one per nonzero
    scalar c, on symbols = element indices (zero element = symbol 0)."""
    sub = np.array(ctx.add)[:, ctx.neg]
    return [LatinSquare.of(grid) for grid in np.array(ctx.mul)[1:, sub]]


@dataclass(frozen=True, eq=False)
class LinkedMolsFamily:
    """The squares L_ij as one (f(f-1), n, n) stack in the order of
    ``ordered_pairs``, as a linked system holds its blocks, narrowed to
    ``np.min_scalar_type(n - 1)`` once ``require_latin`` passes it; any
    other shape is refused.  Two families are equal when their stacks are."""

    f: int
    stack: np.ndarray

    def __post_init__(self):
        if self.f < 3:
            raise ParameterError("a linked family needs at least three indices")
        count, shape = self.f * (self.f - 1), np.shape(self.stack)
        if len(shape) != 3 or shape[0] != count or not 0 < shape[1] == shape[2]:
            raise ParameterError(f"a linked family on {self.f} indices is a ({count}, n, n) stack with n >= 1, not {shape}")
        require_latin(self.stack)
        object.__setattr__(self, "stack", self.stack.astype(np.min_scalar_type(shape[1] - 1), copy=False))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinkedMolsFamily) and self.f == other.f and np.array_equal(self.stack, other.stack)

    @property
    def order(self) -> int:
        return self.stack.shape[1]

    @property
    def zero_diagonal(self) -> bool:
        return not self.stack.diagonal(axis1=1, axis2=2).any()


def verify_linked(fam: LinkedMolsFamily) -> Certificate:
    """Check orthogonality and composition closure on every ordered triple.

    With X_ik[a, (c, s)] = [L_ik(a, c) = s], the one-hot rows of L_ik, row
    a of L_ik and row b of L_jk agree in (X_ik X_jk^T)[a, b] columns, and
    weighting each column (c, s) by s sums the symbols they agree on: the
    composition's (a, b) entry where they agree once.  For each third index
    k these are two ``block_differences`` grids over the L_ik, i != k, those
    of each kind one batch for as many k as keep their float32 operands and
    products within STACK_ENTRIES bytes (all f up to order 9, one k at a
    time from order 13): the agreement counts against the constant 1,
    and the weighted sums against L_ij itself.  A square against itself
    (i = j) is compared with n I and (n(n-1)/2) I, as its rows agree with
    themselves only, so a linked family's grids pass whole.  The failures
    are reported triple by triple in (i, j, k) order."""
    cert = Certificate(f"linked family f={fam.f} order={fam.order}")
    f, n = fam.f, fam.order
    # symbols, labels and weights in the narrowest dtype that holds 0..n
    grids = np.zeros((f + 1, f + 1, n, n), dtype=np.min_scalar_type(n))
    grids[tuple(np.array(ordered_pairs(f)).T)] = fam.stack
    weights = np.tile(np.arange(n, dtype=np.uint8 if n <= 256 else np.int64), n)  # the symbol s of column (c, s)
    eye = np.eye(n, dtype=grids.dtype)
    # ends[k - 1] are the indices other than k; rows[k - 1, a] the one-hot rows of L_ik, i = ends[k - 1, a]
    ends = np.array([[x for x in range(1, f + 1) if x != k] for k in range(1, f + 1)])
    rows = (grids[ends, np.arange(1, f + 1)[:, None]][..., None] == np.arange(n)).reshape(f, f - 1, n, n * n)

    def agreements(c, a, b):  # 1; for i = j, 0 (label 1) and n (label 2) on the diagonal
        return np.where((a == b)[..., None, None], 1 + eye, 0)

    def compositions(c, a, b):  # L_ij; for i = j, n(n-1)/2 (label n) on the diagonal
        return np.where((a == b)[..., None, None], n * eye, grids[ends[c, a], ends[c, b]])

    # third indices a few at a time: each one's two operands and its product,
    # as float32, counted in bytes against the STACK_ENTRIES budget
    hits, common = [], []
    for part in stack_slices(f, 4 * (f - 1) * n * (2 * n * n + (f - 1) * n)):
        third, left, right = np.arange(f)[part], rows[part], rows[part].swapaxes(2, 3)
        hits += block_differences(left, right, agreements, (1, 0, n))
        common += block_differences(left * weights, right, lambda c, a, b: compositions(third[c], a, b), (*range(n), n * (n - 1) // 2))
    failed = np.zeros((f + 1,) * 3, dtype=np.int8)  # 1: not orthogonal, 2: bad composition
    for k, row_ends, hit, comp in zip(range(1, f + 1), ends, hits, common):
        wrong = [np.array([[d is not None for d in row] for row in grid]) for grid in (hit, comp)]
        failed[np.ix_(row_ends, row_ends, [k])] = np.where(wrong[0], 1, np.where(wrong[1], 2, 0))[..., None]
    for i, j, k in np.argwhere(failed):
        if i == j:
            continue
        if failed[i, j, k] == 1:
            cert.failed(f"triple {(int(i), int(j), int(k))}: squares sharing the third index are not orthogonal")
        else:
            cert.failed(f"triple {(int(i), int(j), int(k))}: composition does not reproduce the pair square")
    if cert.ok:
        cert.passed("on every ordered triple (i, j, k), L_ik and L_jk are orthogonal and compose to L_ij")
    return cert


def linked_mols_from_gf(ctx: GFContext) -> LinkedMolsFamily:
    """Linked family of all pairwise compositions of the field squares, in
    any finite field with f = q - 1 >= 3.

    For L_c(x, y) = c(x - y), compose(L_a, L_b) = L_c with 1/c = 1/a - 1/b,
    so L_ij = compose(L_i, L_j) has 1/c_ij = 1/c_i - 1/c_j and
    compose(L_ik, L_jk) has 1/c_ik - 1/c_jk = 1/c_ij: the family is linked
    in every characteristic.  Every L_ij is gathered from the field tables
    at once, as the square of c_ij, and the family is certified before it
    is returned."""
    f = ctx.q - 1  # square i has c_i = element i
    if f < 3:
        raise ParameterError(f"field with {ctx.q} elements yields only f = {f} < 3")
    add, mul, neg, inv = (np.array(t) for t in (ctx.add, ctx.mul, ctx.neg, (0, *ctx.inv[1:])))
    i, j = np.array(ordered_pairs(f)).T
    c = inv[add[inv[i], neg[inv[j]]]]
    fam = LinkedMolsFamily(f=f, stack=mul[c[:, None, None], add[:, neg]])
    cert = verify_linked(fam)
    if not cert.ok:
        raise CertificationError("field-derived family fails the linked property", cert)
    return fam


# -- search oracle ---------------------------------------------------------

class _RowSearch:
    """Candidate squares of one search, built a row at a time from the n!
    permutations in lexicographic order, so they come out in the order of
    a cell-by-cell lexicographic walk.  Every row placed is one node, and
    the nodes of the whole search share one budget."""

    def __init__(self, n: int, zero_diagonal: bool, max_nodes: int):
        self.n = n
        self.perms = list(permutations(range(n)))
        # inverse[k][s] = the column of symbol s in perms[k]
        self.inverse = [tuple(sorted(range(n), key=p.__getitem__)) for p in self.perms]
        # row r of a zero-diagonal square has symbol 0 in column r
        self.allowed = [
            [k for k, p in enumerate(self.perms) if not zero_diagonal or p[r] == 0] for r in range(n)
        ]
        # bit c*n + s: column c holds symbol s
        self.cells = [sum(1 << (c * n + s) for c, s in enumerate(p)) for p in self.perms]
        self.max_nodes = max_nodes
        self.nodes = 0

    def squares(self, targets=(), first_row=None):
        """Yield every Latin square L, as a tuple of rows, for which no pair
        of rows clashes in the square X that _solve_second(L, T) forces, for
        each T in targets.

        _solve_second writes X[j][pos_i[T[i][j]]] = T[i][j], pos_i being the
        column map of row i of L.  Column j of T holds distinct symbols, so
        two rows that send the same j to the same column of X write two
        different symbols into one cell, and no such L extends the family.
        Each row's key holds the bits of the cells it fills in L and, per
        target, the cells (j, pos_i[T[i][j]]) it writes in X; a row is placed
        only when its key misses every bit the rows above it have set."""
        n = self.n
        targets = [t.grid for t in targets]

        def row_keys(r: int) -> list:
            opts = self.allowed[r]
            if r == 0 and first_row is not None:
                opts = [k for k in opts if self.perms[k] == first_row]
            out = []
            for k in opts:
                pos = self.inverse[k]
                bits = self.cells[k]
                for t, grid in enumerate(targets, 1):
                    base = t * n * n
                    for j, s in enumerate(grid[r]):
                        bits |= 1 << (base + j * n + pos[s])
                out.append((self.perms[k], bits))
            return out

        keys = [row_keys(r) for r in range(n)]
        rows: list[tuple[int, ...]] = []

        def place(r: int, used: int):
            if r == n:
                yield tuple(rows)
                return
            for perm, bits in keys[r]:
                if used & bits:
                    continue
                if self.nodes == self.max_nodes:
                    raise BudgetExceededError(
                        f"search stopped at its budget: {self.nodes} nodes expanded (one node is one row placed)"
                    )
                self.nodes += 1
                rows.append(perm)
                yield from place(r + 1, used | bits)
                rows.pop()

        yield from place(0, 0)


def _solve_second(l1: LatinSquare, target: LatinSquare) -> LatinSquare | None:
    """X with compose(l1, X) = target, or None if no X exists.

    Row i of l1 holds target[i][j] at column pos_i(target[i][j]) alone, which
    forces X[j][pos_i(target[i][j])] = target[i][j].  No two rows write one
    symbol into one cell (a column of l1 holds distinct symbols), so a cell
    written twice is a clash, and with none the n^2 writes fill X.  Nothing
    is left to check: if row i of l1 and row j of X agree at column c on s,
    X[j][c] was written by the row i' with l1[i'][c] = s = l1[i][c], so
    i' = i.  So X is orthogonal to l1 and composes with it to target; its
    rows and columns hold distinct symbols, as target's columns and rows do."""
    n = l1.order
    pos = l1.positions()
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b = target.grid[i][j]
            a = pos[i][b]
            if grid[j][a] is not None:
                return None
            grid[j][a] = b
    return LatinSquare(tuple(tuple(row) for row in grid))


def _extend_family(squares: dict, t: int, u: int, l1u: LatinSquare, zero_diagonal: bool) -> dict | None:
    """Given a complete family on {1..t} and a candidate L_{1,u} (u = t+1),
    derive every square touching u; None when the constraints clash."""
    new = dict(squares)
    new[(1, u)] = l1u
    # L_{s,u} from: compose(L_{1,u}, L_{s,u}) = L_{1,s}
    for s in range(2, t + 1):
        x = _solve_second(l1u, new[(1, s)])
        if x is None or (zero_diagonal and not x.zero_diagonal):
            return None
        new[(s, u)] = x
    if t == 2:
        # first triple: L_{2,1} = compose(L_{2,3}, L_{1,3})
        try:
            new[(2, 1)] = compose(new[(2, u)], new[(1, u)])
        except ParameterError:
            return None
        if zero_diagonal and not new[(2, 1)].zero_diagonal:
            return None
    # L_{u,1} from: compose(L_{2,1}, L_{u,1}) = L_{2,u}
    x = _solve_second(new[(2, 1)], new[(2, u)])
    if x is None or (zero_diagonal and not x.zero_diagonal):
        return None
    new[(u, 1)] = x
    # L_{u,s} from: compose(L_{u,s}, L_{1,s}) = L_{u,1}, that is
    # compose(L_{1,s}, L_{u,s}) = L_{u,1}^T, as compose(A, B)^T = compose(B, A)
    for s in range(2, t + 1):
        y = _solve_second(new[(1, s)], new[(u, 1)].transpose())
        if y is None or (zero_diagonal and not y.zero_diagonal):
            return None
        new[(u, s)] = y
    return new


def search_linked_mols(order: int, f: int, zero_diagonal: bool = True) -> LinkedMolsFamily | None:
    """Depth-first search for a linked family; deterministic lexicographic
    exploration, first square's first row pinned to identity order.

    Only L_{1,2..f} are free: every other square is forced cell by cell by
    composition closure, so each stage propagates the forced squares and
    certifies the family on the indices 1..u joined so far with
    ``verify_linked`` before branching deeper; the squares are held as
    ``LatinSquare`` tuples and packed into a stack only for that
    certification, and the family returned is the one certified at stage
    f.  Each candidate L_{1,u} is built a row at a time, and a row is
    dropped as soon as it clashes with a row above it in
    a square that L_{1,u} forces (see _RowSearch.squares); this skips only
    candidates _extend_family would refuse, in the same order, so the first
    family found is unchanged.  Returns None when the search space is exhausted (a
    reportable result), and at once at the orders of NO_FAMILY;
    raises BudgetExceededError above the desk-scale order limit, or once
    SEARCH_MAX_NODES rows have been placed.  Order 1 has its family of [[0]]
    squares; no square has order below 1.
    """
    if order > SEARCH_MAX_ORDER:
        raise BudgetExceededError(f"search limited to order <= {SEARCH_MAX_ORDER}")
    if order < 1:
        raise ParameterError("Latin square order must be at least 1")
    if f < 3:
        raise ParameterError("a linked family needs f >= 3")
    if order in NO_FAMILY:
        return None
    rows = _RowSearch(order, zero_diagonal, SEARCH_MAX_NODES)

    def extend_to(squares: dict, t: int):
        u = t + 1
        targets = [squares[(1, s)] for s in range(2, u)]
        for cand in rows.squares(targets):
            new = _extend_family(squares, t, u, LatinSquare(cand), zero_diagonal)
            if new is None:
                continue
            fam = LinkedMolsFamily(f=u, stack=np.array([new[pair].grid for pair in ordered_pairs(u)]))
            if not verify_linked(fam).ok:
                continue
            found = fam if u == f else extend_to(new, u)
            if found is not None:
                return found
        return None

    for first in rows.squares(first_row=tuple(range(order))):
        l12 = LatinSquare(first)
        found = extend_to({(1, 2): l12}, 2)
        if found is not None:
            return found
    return None
