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
side is built from a dense I, J or K, and no K enters a product: A K, with
K = G G^T for the v x m group indicator G, is read from A G, the sums of
A's rows over each group's n points.

The Gram and K-commutation checks take a stack of matrices, shape
(count, v, v): the Gram check forms A A^T and A^T A of the members as a
batch of 1 x 1 grids, and the K-commutation check sums rows and columns
with no product, and reads from the same sums whether A has a 1 inside K.
A design is a uint8 array, taken with the ``GddParams`` whose groups it
has: ``incidence`` is the one check that an array is square, of order
m n and 0/1, for a design and for a linked system's blocks alike.  A
single design is a stack of one, so every design and every block of a
linked system is certified by the same code.  An identity on every product
of two stacks (the Gram pairs, the triple law of a linked system, the
auxiliary axioms, orthogonality and composition of a linked family) is a
grid of block products, or some of its cells, formed and compared by the
one routine ``block_differences``.

An identity whose matrices are each fixed by some digit shifts of the
groups and points of its index set is decided on one row per orbit of the
group they generate.  This module alone lays out their masks: it writes
them (``shift_masks``, ``translation_masks``) and reads their orbit rows
(``orbit_rows``); ``on_orbits`` batches the identities of a family by
those shifts and forms on every row only those that no shift fixes or that
fail on their orbit rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import IntMatrix, all_zero_one, first_differences, lane_table
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


def _digits(v: int) -> tuple[int, int]:
    """(p, e) with v = p^e, whose e base-p digits each have a shift; (v, 0)
    for any other v, which has none."""
    try:
        return factor_prime_power(v)
    except ParameterError:
        return v, 0


def shift_masks(stack: np.ndarray) -> np.ndarray:
    """For each matrix M of the (count, v, v) stack, the bit mask of the
    digit shifts of v = p^e that fix it exactly, M[perm][:, perm] = M: the
    s-th shift adds 1 mod p to the base-p digit of weight p^s of an index,
    and sets bit s, as an int64 (count,) array; all 0 when v is not a prime
    power.  With field elements and points numbered lexicographically, the
    shifts generate GF(q)^d's translations.

    With v = p^e, a matrix reshaped to (p,) * 2e has one row axis and one
    column axis per digit, and the s-th shift of its rows and columns is a
    roll by one along both axes of digit s: each shift is two ``take``s of
    p slices, which cost half what a roll by slicing does on small stacks,
    and one comparison of a slice of the stack within STACK_ENTRIES, with
    no index array of the matrices' order."""
    count, v = len(stack), stack.shape[-1]
    masks = np.zeros(count, dtype=np.int64)
    p, e = _digits(v)
    if not e:
        return masks
    back = np.arange(-1, p - 1)  # rolled by one: digit x reads digit x - 1
    bits = np.left_shift(1, np.arange(e, dtype=np.int64))
    for part in stack_slices(count, v * v):
        # axis 1 + t of the reshape is the row digit of weight p^(e-1-t), axis 1 + e + t its column digit
        digits = stack[part].reshape(-1, *(p,) * (2 * e))
        fixed = [(digits.take(back, axis=e - s).take(back, axis=2 * e - s) == digits).reshape(len(digits), -1).all(axis=1) for s in range(e)]
        masks[part] = bits @ np.array(fixed)
    return masks


def _sub_block_keys(stack: np.ndarray, m: int, n: int) -> np.ndarray:
    """One exact key for each n x n sub-block (a, b) of the matrices c of a
    0/1 (count, m n, m n) stack, in (c, a, b) order: its entries packed
    eight to a byte, as one uint64 when they fit in 8 bytes (which sorts
    several times faster), else as one void scalar, so no Python object is
    made per sub-block.  When n is a multiple of 8 each row of a sub-block
    is whole bytes of its packed row, so the rows are packed first and the
    sub-blocks gathered from an eighth of the bytes."""
    count = len(stack)
    if n % 8:
        cells = np.packbits(stack.reshape(count, m, n, m, n).swapaxes(2, 3).reshape(count * m * m, n * n), axis=-1)
    else:
        cells = np.packbits(stack, axis=-1).reshape(count, m, n, m, n // 8).swapaxes(2, 3).reshape(count * m * m, -1)
    width = cells.shape[1]
    if width < 8:
        cells = np.concatenate([cells, np.zeros((len(cells), 8 - width), dtype=np.uint8)], axis=1)
    return cells.view(np.uint64)[:, 0] if width <= 8 else cells.view(np.dtype((np.void, width)))[:, 0]


def translation_masks(stack: np.ndarray, m: int, n: int, transposes) -> tuple[np.ndarray, list]:
    """For each matrix of a (count, m n, m n) 0/1 stack on m groups of n
    points, the mask of the digit shifts that fix it, laid out as
    ``orbit_rows`` reads it; and for each pair (b, c) of positions in
    ``transposes``, the first row-major position where stack[c] differs
    from stack[b]^T, or None.

    The stack is read once, a band of matrices within STACK_ENTRIES at a
    time: each band's n x n sub-blocks are keyed (``_sub_block_keys``), and
    only a key not seen in an earlier band is kept, with one copy of its
    sub-block, so each sub-block gets the id of its content.  Bits 0..e-1
    are the e shifts of the m groups (``shift_masks``), read on the
    (count, m, m) ids, and the bits above those of the n points of every
    group, read on the distinct sub-blocks alone, a matrix fixed when each
    of its sub-blocks is.  Both kinds fix K, and the orbits of the group
    they generate are products of theirs: one row for every block of
    ``build_tilde_l`` over a field family and an AG set.  Sub-block (x, y)
    of stack[b]^T is sub-block (y, x) of stack[b] transposed, so stack[c]
    is stack[b]^T exactly when the ids of its sub-blocks are those of the
    transposes of stack[b]'s, keyed from the distinct sub-blocks; only a
    pair that is not is compared entry by entry, for its first position."""
    count = len(stack)
    ids = np.empty((count, m, m), dtype=np.intp)
    known, known_ids, distinct = None, np.empty(0, dtype=np.intp), []  # known: the keys seen, sorted, with their ids
    for part in stack_slices(count, stack[0].size):
        band = stack[part]
        keys = _sub_block_keys(band, m, n)
        if known is None:
            new = np.arange(len(keys))
        else:
            new = np.flatnonzero(known[np.minimum(np.searchsorted(known, keys), len(known) - 1)] != keys)
        if len(new):
            order = new[np.argsort(keys[new])]
            first = order[np.concatenate(([True], keys[order[1:]] != keys[order[:-1]]))]  # one position of each new key
            c, a, b = np.unravel_index(first, (len(band), m, m))
            distinct.append(band.reshape(-1, m, n, m, n)[c, a, :, b])
            known = keys[first] if known is None else np.concatenate([known, keys[first]])
            known_ids = np.concatenate([known_ids, len(known_ids) + np.arange(len(first))])
            order = np.argsort(known)
            known, known_ids = known[order], known_ids[order]
        ids[part] = known_ids[np.searchsorted(known, keys)].reshape(-1, m, m)
    distinct = np.concatenate(distinct)  # by id
    # a matrix is fixed by a point shift when every one of its sub-blocks is
    points = np.bitwise_and.reduce(shift_masks(distinct)[ids].reshape(count, -1), axis=1)
    masks = shift_masks(ids.astype(np.min_scalar_type(len(distinct)))) | points << _digits(m)[1]
    keys = _sub_block_keys(distinct.swapaxes(1, 2), 1, n)
    at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    # the id of each distinct sub-block's transpose, or one that no sub-block has
    flipped = np.where(known[at] == keys, known_ids[at], len(distinct) + np.arange(len(distinct)))
    b, c = np.array(transposes, dtype=np.intp).reshape(-1, 2).T
    same = (ids[c] == flipped[ids[b]].swapaxes(1, 2)).all(axis=(1, 2))
    return masks, [None if ok else first_differences(stack[y][None], stack[x].T[None])[0] for x, y, ok in zip(b, c, same)]


@lru_cache(maxsize=64)
def orbit_rows(m: int, n: int, mask: int) -> np.ndarray | None:
    """The least index of each orbit of the group generated by the digit
    shifts whose bits are set in ``mask`` (``translation_masks``), on the
    indices g n + x of m groups of n points: bits 0..e-1 for the shifts of
    the group g, with m = p^e, and the bits above for those of the point x.
    The shifts commute and each cycles its digit through 0..p-1, so these
    are the indices whose digits at those places are 0, as a read-only
    array that depends on (m, n, mask) alone, so it is kept for the next
    call.  None when ``mask`` is 0, every index alone in its orbit.  The v
    points of one set are (v, 1): v groups of one point.

    One row per orbit certifies an identity whose matrices are each fixed
    by every one of the shifts, or are I, J, or K with each index a whole
    group: if a permutation matrix P fixes each of them, P M P^T = M, it
    fixes the difference E of the two sides, so row perm(x) of E is row x
    permuted, and E = 0 exactly when it vanishes on the rows returned."""
    if not mask:
        return None
    (p, e), (r, h) = _digits(m), _digits(n)
    x = np.arange(m * n)
    # digit b of an index: of its group below e, of its point from e on
    digits = [x // n // p**s % p for s in range(e)] + [x % n // r**s % r for s in range(h)]
    rows = x[np.all([digits[b] == 0 for b in range(e + h) if mask >> b & 1], axis=0)]
    rows.flags.writeable = False
    return rows


def on_orbits(check, masks: np.ndarray, shape: tuple[int, int], passed) -> list:
    """The verdicts of the identities 0..len(masks)-1, each formed on the
    orbit rows of shifts that fix every matrix it uses.

    ``check(members, rows)`` returns, in order, the verdicts of the
    identities ``members`` (an int array, ascending) formed on ``rows``
    (slice(None) for every row); masks[t] is the mask of the shifts that
    fix every matrix identity t uses, on indices of the (m, n) ``shape``,
    and ``orbit_rows(m, n, mask)`` their rows, None when they join no two
    indices.

    The batches are taken greedily: the nonzero mask most identities left
    have (of two as common, the one with more shifts) takes, as one batch on
    its rows, every identity left whose mask contains it (each is fixed by
    its shifts); mask 0, which every mask contains, comes last.  So a system
    fixed by one group of shifts is one batch, and damaged blocks leave the
    others on their rows and send only their own identities to every row.
    An identity whose verdict has not ``passed`` on orbit rows is formed
    again on every row, with those whose batch has no rows, as the last
    batch: so a failure is reported with the lines and first positions of
    the full check."""
    masks = np.asarray(masks)
    batches, left = [], np.arange(len(masks))
    while len(left):
        counts = Counter(masks[left].tolist())
        mask = max(counts, key=lambda mk: (mk != 0, counts[mk], mk.bit_count()))
        take = masks[left] & mask == mask
        batches.append((orbit_rows(*shape, mask), left[take]))
        left = left[~take]
    out, full = [None] * len(masks), []
    for rows, ids in sorted((b for b in batches if b[0] is not None), key=lambda b: len(b[0])):
        for t, verdict in zip(ids.tolist(), check(ids, rows)):
            out[t] = verdict
            if not passed(verdict):
                full.append(t)
    full += [t for rows, ids in batches if rows is None for t in ids.tolist()]
    if full:
        full.sort()
        for t, verdict in zip(full, check(np.array(full), slice(None))):
            out[t] = verdict
    return out


# labels one lookup takes at a time: np.take copies its indices as intp, 8 bytes each
LOOKUP_LABELS = 2**16


def looked_up(table: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """table[labels] for integer ``labels`` (``uint8``, ``int8``) below
    len(table), by ``np.take`` a slice of at most LOOKUP_LABELS labels at a
    time: twice as fast as indexing, which casts them in buffered chunks,
    with the intp copy that ``np.take`` makes of its indices bounded.  The
    labels are bounded once, so each slice is taken unbuffered.  Labels
    held as ``Gathered`` are looked up once for each matrix of its stack,
    then gathered where indexed; when the index names no matrix twice, they
    are gathered first, so that no looked-up copy of the whole stack is
    formed beside the result."""
    if isinstance(labels, Gathered):
        if np.bincount(labels.index.ravel()).max(initial=0) <= 1:
            return looked_up(table, labels[...])
        return looked_up(table, labels.stack)[labels.index]
    out = np.empty(labels.shape, dtype=table.dtype)
    flat, into = labels.reshape(-1), out.reshape(-1)
    if flat.size and int(flat.max()) >= len(table):
        raise IndexError(f"label {int(flat.max())} past a table of {len(table)}")
    for start in range(0, flat.size, LOOKUP_LABELS):
        np.take(table, flat[start : start + LOOKUP_LABELS], out=into[start : start + LOOKUP_LABELS], mode="wrap")
    return out


def grid_masks(masks: np.ndarray, size: int) -> np.ndarray:
    """The masks by which ``on_orbits`` batches identities that are cells
    of one ``cell_differences`` grid of ``size`` cells: as given, unless
    the cells that no shift fixes (mask 0) are at least half the grid.
    ``cell_differences`` then forms the whole grid on every row for them,
    which holds the verdict of every other cell too, so every mask becomes
    0 and no cell is formed on its orbit rows first."""
    return np.zeros_like(masks) if 2 * np.count_nonzero(masks == 0) >= size else masks


def stack_differences(actual: np.ndarray, labels: np.ndarray, coeffs) -> list[tuple | None]:
    """For each matrix of the stack ``actual``, a product's lane array
    (``IntMatrix.lane``; any leading shape, matrices in row-major order),
    None where it equals the pattern sum_t coeffs[t] [labels == t]
    (``labels`` broadcasts against the stack, or is ``Gathered`` in its
    shape), else its first row-major
    difference as (position, expected entry, actual entry), Python integers.

    The pattern is looked up in the lane's dtype (``lane_table``,
    ``looked_up``), so the comparison is exact with no int64 copy of either
    side.  Only a stack that differs somewhere is reduced matrix by
    matrix."""
    coeffs = [int(c) for c in coeffs]
    diff = actual != looked_up(lane_table(coeffs, actual.dtype), labels)
    if not diff.any():
        return [None] * int(np.prod(diff.shape[:-2]))
    labels = np.broadcast_to(labels[...], actual.shape)
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
                # the verdicts of each (c, a) of the band, as one tuple
                diffs = zip(*[iter(stack_differences(blocks, labels(*at), coeffs))] * len(band))
                del prod, blocks  # reduced: free them before the next product is formed
                for c in members.tolist():
                    for a in group.tolist():
                        grid[c][a][cols] = next(diffs)
    return grid


class Gathered:
    """The matrices ``stack[index]``, an array of shape index.shape +
    stack.shape[1:] that is gathered only where indexed: a band, or a
    cell's blocks, at a time, never the whole of it at once, as
    ``block_differences`` and ``cell_differences`` index their left
    operand; and label matrices that many blocks of a band share, each
    looked up once (``looked_up``)."""

    def __init__(self, stack: np.ndarray, index: np.ndarray):
        self.stack, self.index = stack, index
        self.shape = index.shape + stack.shape[1:]
        self.ndim = len(self.shape)

    def __getitem__(self, key) -> np.ndarray:
        return self.stack[self.index[key]]


def cell_differences(left: np.ndarray, right: np.ndarray, labels, coeffs, cells) -> list:
    """The ``block_differences`` verdicts of the listed cells of its grid,
    in order: ``cells`` is (a, b), or (c, a, b) with a batch axis, arrays
    of equal length.  When they are at least half the grid, it is formed
    whole and read at the cells; fewer cells are each one member of a batch
    of 1 x 1 grids, their operands gathered a slice within STACK_ENTRIES at
    a time."""
    if left.ndim == 3:
        return cell_differences(left[None], right[None], lambda c, a, b: labels(a, b), coeffs, (np.zeros_like(cells[0]), *cells))
    c, a, b = (np.asarray(x, dtype=np.intp) for x in cells)
    if 2 * len(c) >= left.shape[0] * left.shape[1] * right.shape[1]:
        grid = block_differences(left, right, labels, coeffs)
        return [grid[x][y][z] for x, y, z in zip(c.tolist(), a.tolist(), b.tolist())]
    out = []
    for part in stack_slices(len(c), right[0, 0].size):
        at = c[part], a[part], b[part]
        picked = block_differences(
            left[at[0], at[1]][:, None], right[at[0], at[2]][:, None], lambda t, _a, _b: labels(*(x[t] for x in at)), coeffs
        )
        out += [member[0][0] for member in picked]
    return out


def group_labels(m: int, n: int) -> np.ndarray:
    """The label array of the group pattern of order m*n: 0 on J - K, 1 on
    K - I, 2 on I, with K = I_m (x) J_n."""
    group = np.arange(m * n) // n
    labels = (group[:, None] == group[None, :]).astype(np.int8)
    np.fill_diagonal(labels, 2)
    return labels


def equivalence_classes(mask: np.ndarray) -> list[tuple[int, ...]] | None:
    """The classes of the relation ``mask`` (square, boolean), by least
    point, or None unless it is an equivalence with classes of one size: it
    is one exactly when it relates the points of equal least relative and
    no others.  With the points grouped by least relative into classes of
    one size w, that is read on the w entries of each point's own class
    alone, and a count of the relation's pairs, |X| w exactly when it holds
    no others: no outer comparison of order |X| is formed."""
    size = len(mask)
    least = mask.argmax(axis=1)
    counts = np.bincount(least, minlength=size)  # np.unique would import numpy.ma
    width = int(counts.max())
    if size % width or np.count_nonzero(counts) * width != size:
        return None
    # ordered by least point, the points of each class come out together, ascending
    classes = np.argsort(least, kind="stable").reshape(-1, width)
    if np.count_nonzero(mask) != size * width or not mask[classes[:, :, None], classes[:, None, :]].all():
        return None
    return [tuple(c) for c in classes.tolist()]


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
    if not all_zero_one(arr):
        raise ParameterError(f"{what} entries must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def incidence(arr: np.ndarray, m: int, n: int) -> np.ndarray:
    """``arr``, a square 0/1 matrix of order m n or a stack of them, as
    uint8 (``zero_one``): ``arr`` itself when it is uint8, else a copy.
    The one check of a design or of a system's blocks, refusing, in this
    order, a dtype or shape ``IntMatrix.view`` refuses, a matrix that is
    not square, an order other than m n, and an entry not 0 or 1."""
    IntMatrix.view(arr)
    if arr.shape[-2] != arr.shape[-1]:
        raise ParameterError("incidence matrix must be square")
    if arr.shape[-1] != m * n:
        raise ParameterError(f"order {arr.shape[-1]} != m*n = {m * n}")
    return zero_one(arr, "incidence matrix")


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


def verify_gdd(a: np.ndarray, p: GddParams) -> Certificate:
    """Certify A A^T = A^T A = kI + l1(K-I) + l2(J-K) entrywise, once
    ``incidence`` takes A with p's groups."""
    return verify_grams(incidence(a, p.m, p.n)[None], p)[0]


# the two identities of ``verify_grams``, in the order it records them
GRAM_IDENTITIES = ("A A^T equals k I + l1 (K - I) + l2 (J - K)", "A^T A equals k I + l1 (K - I) + l2 (J - K)")


def verify_grams(stack: np.ndarray, p: GddParams, rows=slice(None)) -> list[Certificate]:
    """The Gram identities of ``verify_gdd`` for every matrix of a
    (count, v, v) stack, 0/1 or not (such as A + K for a block A with a 1
    inside K), one certificate each, on the given rows of each (all of
    them, or one per orbit: ``orbit_rows``).  A A^T, then A^T A, is one
    ``block_differences`` batch of 1 x 1 grids, one per member, so only the
    Gram products are formed, the left operand on the rows alone."""
    certs = [Certificate(f"symmetric GDD {p}") for _ in range(len(stack))]
    labels, coeffs = group_labels(p.m, p.n)[rows], (p.lambda2, p.lambda1, p.k)
    flip = np.swapaxes(stack, 1, 2)
    for label, left, right in zip(GRAM_IDENTITIES, (stack, flip), (flip, stack)):
        grid = block_differences(left[:, rows][:, None], right[:, None], lambda *_: labels, coeffs)
        for cert, [[diff]] in zip(certs, grid):
            cert.record(label, diff)
    return certs


def check_bose(a: np.ndarray, p: GddParams) -> bool:
    """The rank-argument identity for designs with lambda1 != lambda2:
    A K A^T = (n(l1 - l2) + k - l1) K + n l2 J, formed as (A G)(A G)^T
    with G the v x m group indicator, K = G G^T.  A G is read as the sums
    of A's rows over each group, so (A G)(A G)^T is the one product formed,
    and neither K nor G enters it."""
    a = incidence(a, p.m, p.n)
    if p.lambda1 == p.lambda2:
        raise ParameterError("identity only applies when lambda1 != lambda2")
    ag = IntMatrix.view(a.reshape(p.v, p.m, p.n).sum(axis=-1, dtype=np.int64))
    on_k = p.n * (p.lambda1 - p.lambda2) + p.k - p.lambda1 + p.n * p.lambda2
    return stack_differences((ag @ ag.T).lane, group_labels(p.m, p.n), (p.n * p.lambda2, on_k, on_k)) == [None]


def certified_design(arr: np.ndarray, p: GddParams, message: str) -> np.ndarray:
    """A constructed 0/1 array as a uint8 design with parameters p
    (``incidence``), returned only once ``verify_gdd`` certifies it (a
    CertificationError with ``message`` otherwise): constructions never
    return uncertified designs."""
    mat = incidence(arr, p.m, p.n)
    cert = verify_gdd(mat, p)
    if not cert.ok:
        raise CertificationError(message, cert)
    return mat


def partial_complement(a: np.ndarray, p: GddParams) -> tuple[np.ndarray, GddParams]:
    """J - K - A, certified with its derived parameters."""
    a, off_k = incidence(a, p.m, p.n), group_labels(p.m, p.n) == 0
    if a[~off_k].any():
        raise ParameterError("partial complement needs zero diagonal blocks (A + K must be 0/1)")
    cp = partial_complement_params(p)
    # A has no 1 inside K, so J - K - A is 1 exactly off K where A is 0
    out = incidence(off_k & (a == 0), p.m, p.n)
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
    factor: int | None = None  # a sum of 0/1 entries


def check_k_commutation(a: np.ndarray, p: GddParams) -> KCommutation:
    """Classify A K = K A, for A with p's groups (``incidence``), against
    the two canonical right-hand sides, from the constant A K takes on K
    and the one it takes off K."""
    lane = incidence(a, p.m, p.n)[None]
    return k_commutations(lane, lane, p.m, p.n, np.zeros(1, dtype=np.intp))[0][0]


def k_commutations(stack: np.ndarray, on_rows: np.ndarray, m: int, n: int, members: np.ndarray, rows=slice(None)) -> list[tuple[KCommutation, bool]]:
    """``check_k_commutation`` for the matrices stack[members] of a
    (count, v, v) 0/1 stack, on the given rows (all, or one per orbit:
    ``orbit_rows``), each with whether A has no 1 inside K (A + K is 0/1):
    the one place either is decided.  ``on_rows`` is stack[:, rows], every
    matrix on the rows, gathered once by the caller for every check formed
    on them (the stack itself for every row).

    A K = K A has a class exactly when both are d K + c (J - K).  With G the
    v x m group indicator, K = G G^T, (A K)[x, y] = (A G)[x, group(y)] and
    (K A)[y, x] = (A^T G)[x, group(y)]: both are that pattern when A[rows] G
    and A[:, rows]^T G are d in the row's group and c elsewhere, d and c read
    at the first row.  A[rows] G is the sums of those rows over each group's
    n points, and A[:, rows]^T G those of the columns, so no product is
    formed; only the columns are gathered, a slice of members within
    STACK_ENTRIES at a time; A has no 1 inside K when each row sums to
    0 over its own group.  A permutation fixing A and K fixes both
    differences and those sums, so one row per orbit decides as every row does."""
    rows = np.arange(stack.shape[-1])[rows]
    groups = rows // n
    first, own = int(groups[0]), groups[:, None] == np.arange(m)  # own: the column is the row's group

    def sums(x: np.ndarray) -> np.ndarray:  # over each group's points; einsum sums a short last axis about twice as fast as .sum
        return np.einsum("crgx->crg", x.reshape(*x.shape[:2], m, n), dtype=np.int64)

    out = []
    for part in stack_slices(len(members), rows.size * stack.shape[-1]):
        at = members[part, None]
        ag, ta = sums(on_rows[members[part]]), sums(stack[at, :, rows])
        d = ag[:, 0, first]
        c = ag[:, 0, (first + 1) % m] if m > 1 else d
        want = np.where(own, d[:, None, None], c[:, None, None])
        ok = (ag == want).all(axis=(1, 2)) & (ta == want).all(axis=(1, 2))
        zero_one = ~(ag * own).any(axis=(1, 2))
        out += [(_k_class(int(x), int(y)) if good else KCommutation("other"), bool(z)) for good, x, y, z in zip(ok, d, c, zero_one)]
    return out


def _k_class(d: int, c: int) -> KCommutation:
    """The class of A K = K A when it is d on K and c off K."""
    if d == 0:
        return KCommutation("multiple_of_J_minus_K", c) if c else KCommutation("zero", 0)
    return KCommutation("multiple_of_J", c) if c == d else KCommutation("other")


def lambda_formulas(k: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    """The unique (lambda1, lambda2) compatible with A and A + K both being
    designs: l1 = k(k-m+1)/((m-1)(n-1)), l2 = k^2(m-2)/(n(m-1)^2)."""
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    l1 = Fraction(k * (k - m + 1), (m - 1) * (n - 1))
    l2 = Fraction(k * k * (m - 2), n * (m - 1) * (m - 1))
    return l1, l2
