"""The stacked certifiers against the block-by-block route they replaced
(``block_route``): equal report lines, violation values and value types on
the fixture systems and families, and on seeded corruptions of each kind of
identity they certify."""

import random

import numpy as np
import pytest

import block_route
import sgdd.designs
from sgdd.algebra import IntMatrix
from sgdd.designs import (
    IncidenceMatrix,
    block_differences,
    cell_differences,
    check_bose,
    check_k_commutation,
    companion_params,
    group_labels,
    k_commutations,
    orbit_rows,
    stack_differences,
    translation_masks,
    verify_gdd,
    verify_grams,
)
from sgdd.gf import gf_from_order
from sgdd.latin import LatinSquare, LinkedMolsFamily, linked_mols_from_gf, verify_linked
from sgdd.errors import ParameterError
from sgdd.linked import LinkedSystemII, ordered_pairs, pair_index, verify_linked_system


def _outcome(cert):
    return cert.report_lines(), [(type(v.expected), type(v.actual)) for v in cert.violations]


def _with_block(sys: LinkedSystemII, pair, arr) -> LinkedSystemII:
    stack = sys.stack.copy()
    stack[pair_index(sys.f, *pair)] = arr
    return LinkedSystemII(sys.params, stack)


def _entry(blk: IncidenceMatrix, rng: random.Random, where: str):
    """A seeded entry of the block: off the group pattern, inside a group off
    the diagonal, or on the diagonal."""
    row = rng.randrange(blk.v)
    same = [c for c in range(blk.v) if c // blk.n == row // blk.n and c != row]
    other = [c for c in range(blk.v) if c // blk.n != row // blk.n]
    return row, {"off K": rng.choice(other), "inside K": rng.choice(same), "diagonal": row}[where]


def corrupt(sys: LinkedSystemII, kind: str, seed: int) -> tuple[LinkedSystemII, str]:
    """One seeded corruption and the start of a violation it must cause."""
    rng = random.Random(f"{kind}-{seed}")
    pair = rng.choice(sorted(sys.blocks))
    blk = sys.blocks[pair]
    arr = blk.mat.a.astype(np.int64)
    if kind in ("gram", "commutation"):  # one entry off K: A + K stays 0/1
        x, y = _entry(blk, rng, "off K")
        arr[x, y] ^= 1
        return _with_block(sys, pair, arr), f"block {pair}: " + ("A A^T" if kind == "gram" else "A K = K A")
    if kind == "K A":  # a 1 moves along its row inside another group: A K holds, K A does not
        x = rng.randrange(blk.v)
        moves = [(y, z) for y in range(blk.v) for z in range(blk.v)
                 if y // blk.n == z // blk.n != x // blk.n and arr[x, y] == 1 and arr[x, z] == 0]
        y, z = rng.choice(moves)
        arr[x, y], arr[x, z] = 0, 1
        return _with_block(sys, pair, arr), f"block {pair}: A K = K A"
    if kind in ("inside K", "diagonal"):  # a 1 inside K: A + K is not 0/1
        x, y = _entry(blk, rng, kind)
        arr[x, y] = 1
        return _with_block(sys, pair, arr), f"block {pair}: A + K"
    if kind == "transpose":  # A_ji = P A_ij^T, P swapping two rows of one group: still a block
        i, j = pair
        flip = arr.T.copy()
        x, y = _entry(blk, rng, "inside K")
        while (flip[x] == flip[y]).all():
            x, y = _entry(blk, rng, "inside K")
        flip[[x, y]] = flip[[y, x]]
        lo, hi = sorted(pair)
        return _with_block(sys, (j, i), flip), f"block {(hi, lo)} is the transpose of block {(lo, hi)}"
    if kind == "triple":  # two blocks trade places: every block stays a design
        other = rng.choice([q for q in sorted(sys.blocks) if q != pair[::-1] and sys.blocks[q] != blk])
        stack = sys.stack.copy()
        swap = [pair_index(sys.f, *pair), pair_index(sys.f, *other)]
        stack[swap] = stack[swap[::-1]]
        return LinkedSystemII(sys.params, stack), "triple product"
    if kind == "companion":  # a 1 inside K of an f = 2 pair
        x, y = _entry(blk, rng, "inside K")
        arr[x, y] = 1
        return _with_block(sys, pair, arr), "pair companion"
    raise ValueError(kind)


SYSTEM_KINDS = ("gram", "inside K", "diagonal", "commutation", "K A", "transpose", "triple")
PAIR_KINDS = ("gram", "inside K", "diagonal", "commutation", "K A", "transpose", "companion")


@pytest.mark.parametrize("source, kinds", [
    ("sys16", SYSTEM_KINDS), ("sys45", SYSTEM_KINDS), ("sys64", SYSTEM_KINDS),
    ("pair16", PAIR_KINDS), ("pair24", PAIR_KINDS),
])
def test_linked_system_matches_block_route(source, kinds, request):
    sys = request.getfixturevalue(source)
    assert _outcome(verify_linked_system(sys)) == _outcome(block_route.verify_linked_system(sys))
    assert verify_linked_system(sys).ok
    for kind in kinds:
        for seed in range(2):
            bad, caught = corrupt(sys, kind, seed)
            got = verify_linked_system(bad)
            assert _outcome(got) == _outcome(block_route.verify_linked_system(bad)), (kind, seed)
            assert any(v.identity.startswith(caught) for v in got.violations), (kind, seed)


def test_every_single_flip_of_sys16_is_rejected(sys16):
    """Each of the 6 x 256 single-entry flips of sys16 fails
    ``verify_linked_system``, with the block route's report lines."""
    for b, x, y in np.ndindex(sys16.stack.shape):
        stack = sys16.stack.copy()
        stack[b, x, y] ^= 1
        bad = LinkedSystemII(sys16.params, stack)
        got = verify_linked_system(bad)
        assert not got.ok and _outcome(got) == _outcome(block_route.verify_linked_system(bad)), (b, x, y)


@pytest.mark.parametrize("source", ["sys16", "sys45", "sys64", "pair24"])
def test_sliced_stacks_match_block_route(source, request, monkeypatch):
    """With a stack budget of 512 entries every stacked product is formed in
    slices of one to three blocks, and the triple products in bands of rows
    and of columns, as large systems are: the lines stay the same."""
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", 2**9)
    sys = request.getfixturevalue(source)
    kinds = SYSTEM_KINDS if sys.params.f > 2 else PAIR_KINDS
    for bad in [sys] + [corrupt(sys, kind, 0)[0] for kind in kinds]:
        assert _outcome(verify_linked_system(bad)) == _outcome(block_route.verify_linked_system(bad))


def test_column_swap_is_caught_by_commutation_not_gram(sys64):
    """Two columns of one block in different groups trade places: both Gram
    identities still hold (l1 = l2), and A K = K A catches the swap."""
    rng = random.Random(64)
    pair = rng.choice(sorted(sys64.blocks))
    blk = sys64.blocks[pair]
    x, y = _entry(blk, rng, "off K")
    arr = blk.mat.a.astype(np.int64)
    arr[:, [x, y]] = arr[:, [y, x]]
    bad = _with_block(sys64, pair, arr)
    cert = verify_linked_system(bad)
    assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))
    lines = [v.identity for v in cert.violations]
    assert f"block {pair}: A K = K A = k/(m-1) (J - K)" in lines
    assert not any(line.startswith(f"block {pair}: A A^T") or line.startswith(f"block {pair}: A^T A") for line in lines)


def test_mismatched_blocks_fail_closed(sys16):
    """A stack of blocks of another order, or of another count, is refused
    when the system is built, so no certifier ever sees one."""
    with pytest.raises(ParameterError, match=r"order 8 != m\*n = 16"):
        LinkedSystemII(sys16.params, sys16.stack[:, :8, :8])
    with pytest.raises(ParameterError, match="has 6 blocks, not 5"):
        LinkedSystemII(sys16.params, sys16.stack[:5])


def test_designs_match_block_route(conference12, gcm24, sys16):
    rng = random.Random(12)
    for mat, params in (conference12, gcm24, (sys16.blocks[(1, 2)], sys16.params.base)):
        variants = [mat]
        for where in ("off K", "inside K", "diagonal"):
            arr = mat.mat.a.astype(np.int64)
            x, y = _entry(mat, rng, where)
            arr[x, y] ^= 1
            variants.append(IncidenceMatrix(IntMatrix(arr), mat.m, mat.n))
        for a in variants:
            assert _outcome(verify_gdd(a, params)) == _outcome(block_route.verify_gdd(a, params))
            assert check_k_commutation(a) == block_route.check_k_commutation(a)


def _families(fam_gf4, fam_order5):
    """(family, whether it is linked): the fixture families, and per family
    two symbols relabelled in one square, two rows of one square exchanged
    (neither linked) and two squares traded (linked or not)."""
    gf8 = linked_mols_from_gf(gf_from_order(8))
    out = []
    for fam in (fam_gf4, fam_order5, gf8):
        out.append((fam, True))
        rng = random.Random(fam.order)
        pairs = sorted(fam.squares)
        pair = rng.choice(pairs)
        a, b = rng.sample(range(fam.order), 2)
        swap = {a: b, b: a}
        squares = dict(fam.squares)
        squares[pair] = LatinSquare.of([[swap.get(x, x) for x in row] for row in squares[pair].grid])
        out.append((LinkedMolsFamily(f=fam.f, order=fam.order, squares=squares), False))
        pair = rng.choice(pairs)
        rows = list(fam.squares[pair].grid)
        x, y = rng.sample(range(fam.order), 2)
        rows[x], rows[y] = rows[y], rows[x]
        squares = dict(fam.squares)
        squares[pair] = LatinSquare.of(rows)
        out.append((LinkedMolsFamily(f=fam.f, order=fam.order, squares=squares), False))
        p, q = rng.sample(pairs, 2)
        squares = dict(fam.squares)
        squares[p], squares[q] = squares[q], squares[p]
        out.append((LinkedMolsFamily(f=fam.f, order=fam.order, squares=squares), None))
    return out


def test_linked_families_match_block_route(fam_gf4, fam_order5):
    for fam, linked in _families(fam_gf4, fam_order5):
        got = verify_linked(fam)
        assert got.report_lines() == block_route.verify_linked(fam).report_lines()
        assert linked is None or got.ok == linked


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("count", [1, 2, 3, "companion"], ids=["1x1-grid", "2x2-grid", "per-cell", "companion"])
def test_gram_pairs_match_block_route_on_single_flips(count, seed, sys16, pair24):
    """``verify_grams`` against the block route's ``verify_gram`` on a stack
    with one seeded entry flipped in one seeded member: 1, 2 or 3 blocks of
    sys16, which reach the whole 1 x 1 grid, the whole 2 x 2 grid and the
    per-cell batch of ``cell_differences``, and the f = 2 companion A + K
    of pair24 with a 1 put inside K, an entry 2.  On all rows and on one
    row per orbit of the shifts that fix the clean system, the verdicts,
    first positions and entries are equal.  An odd seed flips an entry on
    an orbit row, which A A^T then fails on the orbit rows too."""
    rng = random.Random(f"gram-{count}-{seed}")
    system = pair24 if count == "companion" else sys16
    base = system.params.base
    v, n = base.v, base.n
    masks, _ = translation_masks(system.stack, base.m, n, ())
    orbit = orbit_rows(base.m, n, int(np.bitwise_and.reduce(masks)))
    assert orbit is not None and len(orbit) < v
    x = int(rng.choice(orbit)) if seed % 2 else rng.randrange(v)
    if count == "companion":
        params = companion_params(base)
        stack = system.stack[:1] + (group_labels(base.m, n) > 0)
        stack[0, x, rng.choice([c for c in range(v) if c // n == x // n and c != x])] = 2
    else:
        params = base
        stack = system.stack[rng.sample(range(len(system.stack)), count)]
        stack[rng.randrange(count), x, rng.randrange(v)] ^= 1
    for rows in (slice(None), orbit):
        got = verify_grams(stack, params, rows)
        want = [block_route.verify_gram(IntMatrix(mat.astype(np.int64)), params, rows) for mat in stack]
        assert [_outcome(c) for c in got] == [_outcome(c) for c in want]
        if rows is not orbit or seed % 2:
            assert not all(c.ok for c in got)


def _shift_orbit(point: tuple[int, int], mask: int, m: int, n: int) -> set[tuple[int, int]]:
    """The entries (perm[x], perm[y]) of ``point`` = (x, y) for every perm
    of the group generated by the shifts of a ``translation_masks`` mask
    (``block_route.lifted_shifts``)."""
    gens = [shift for s, shift in enumerate(block_route.lifted_shifts(m, n)) if mask >> s & 1]
    seen, todo = {point}, [point]
    while todo:
        a, b = todo.pop()
        for g in gens:
            image = int(g[a]), int(g[b])
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


_MASK_SOURCES = ["sys16", "sys45", "sys64", "pair16", "pair24"]


@pytest.mark.parametrize("flipped", [False, True], ids=["clean", "flipped"])
@pytest.mark.parametrize(
    "source, budget",
    [(source, sgdd.designs.STACK_ENTRIES) for source in _MASK_SOURCES] + [(source, 2**9) for source in _MASK_SOURCES],
    ids=_MASK_SOURCES + [f"{source}-banded" for source in _MASK_SOURCES],
)
def test_translation_masks_match_the_lifted_gather(source, budget, flipped, request, corrupt_system, monkeypatch):
    """``translation_masks``, read from sub-block ids and distinct
    sub-blocks, against every lifted group and point shift applied to each
    whole block by a gather (``block_route.translation_masks``), and its
    transposes against each block and its mirror compared whole: on the
    clean system and with one seeded entry flipped, in one band and in
    bands of at most 512 entries, which split the stack between blocks.
    sys45 has m = 5 and n = 9, two primes."""
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", budget)
    system = request.getfixturevalue(source)
    if flipped:
        system, _ = corrupt_system(system, 0)
    m, n, f = system.params.base.m, system.params.base.n, system.f
    mirrors = [(pair_index(f, i, j), pair_index(f, j, i)) for i, j in ordered_pairs(f)]
    masks, firsts = translation_masks(system.stack, m, n, mirrors)
    assert masks.tolist() == block_route.translation_masks(system.stack, m, n).tolist()
    assert firsts == [block_route.first_difference(IntMatrix.view(system.stack[c]), system.stack[b].T) for b, c in mirrors]
    assert (firsts.count(None) < len(firsts)) == flipped


@pytest.mark.parametrize("source", ["sys16", "sys45", "sys64", "pair16", "pair24"])
def test_inside_k_verdict_of_the_group_sums_matches_the_block_route(source, request):
    """Each block's "A + K is 0/1" verdict from ``k_commutations``, on every
    row and on one row per orbit of the shifts that fix the block, equals
    ``IncidenceMatrix.diagonal_blocks_zero``: on the clean system, and with
    one seeded block given a 1 inside K at every entry of one orbit of its
    shifts, so that the same shifts fix it and its batch stays on orbit
    rows.  On the damaged systems the report lines are the block route's."""
    system = request.getfixturevalue(source)
    base = system.params.base
    m, n, v = base.m, base.n, base.v
    masks, _ = translation_masks(system.stack, m, n, ())
    rng = random.Random(f"inside-K-{source}")
    damaged = []
    for b in rng.sample(range(len(system.stack)), 2):
        row = rng.randrange(v)
        col = rng.choice([c for c in range(v) if c // n == row // n])
        stack = system.stack.copy()
        for x, y in _shift_orbit((row, col), int(masks[b]), m, n):
            stack[b, x, y] = 1
        damaged.append((LinkedSystemII(system.params, stack), b))
    for bad, b in [(system, None)] + damaged:
        bad_masks, _ = translation_masks(bad.stack, m, n, ())
        if b is not None:
            assert bad_masks[b] & masks[b] == masks[b]
            assert not bad.blocks[ordered_pairs(bad.f)[b]].diagonal_blocks_zero()
        for t, blk in enumerate(bad.blocks[pair] for pair in ordered_pairs(bad.f)):
            orbit = orbit_rows(m, n, int(bad_masks[t]))
            for rows in (slice(None), slice(None) if orbit is None else orbit):
                [(_, zero_one)] = k_commutations(bad.stack, bad.stack[:, rows], m, n, np.array([t]), rows)
                assert zero_one == blk.diagonal_blocks_zero(), (t, rows)
        if b is not None:
            assert _outcome(verify_linked_system(bad)) == _outcome(block_route.verify_linked_system(bad))


def _product_count(monkeypatch) -> list[int]:
    """A one-item list counting the kernel products formed from here on."""
    count = [0]
    matmul = IntMatrix.__matmul__

    def counted(a, b):
        count[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return count


def test_k_commutation_forms_no_product_and_bose_forms_one(conference12, gcm24, sys16, sys64, monkeypatch):
    """A K = K A is read from the group sums of rows and columns with no
    kernel product, in the class the block route reads off the products
    A K and K A: on every block of sys16 and sys64, on 0, K itself, J - K
    and J blown up from m x m patterns, and on seeded random 0/1 matrices.
    ``check_bose`` forms (A G)(A G)^T and no other product."""
    rng = np.random.default_rng(34)
    designs = [blk for system in (sys16, sys64) for blk in system.blocks.values()]
    for m, n in ((3, 2), (4, 4), (5, 3)):
        patterns = (np.zeros((m, m)), np.eye(m), 1 - np.eye(m), np.ones((m, m)))
        blown = [np.kron(pattern, np.ones((n, n))) for pattern in patterns]
        random01 = [rng.integers(0, 2, size=(m * n, m * n)) for _ in range(3)]
        designs += [IncidenceMatrix(IntMatrix(arr.astype(np.int64)), m, n) for arr in blown + random01]
    count = _product_count(monkeypatch)
    classes = [check_k_commutation(a) for a in designs]
    assert count == [0]
    monkeypatch.undo()
    assert classes == [block_route.check_k_commutation(a) for a in designs]
    assert {c.kind for c in classes} == {"zero", "multiple_of_J", "multiple_of_J_minus_K", "other"}
    count = _product_count(monkeypatch)
    for mat, params in (conference12, gcm24):
        count[0] = 0
        assert check_bose(mat, params)
        assert count == [1]
    bad = IncidenceMatrix(IntMatrix(rng.integers(0, 2, size=(12, 12))), 6, 2)
    count[0] = 0
    assert not check_bose(bad, conference12[1])
    assert count == [1]


@pytest.mark.parametrize("budget", [sgdd.designs.STACK_ENTRIES, 70, 1], ids=["one-band", "cut", "one-block"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64], ids=["zero-one", "weighted"])
def test_block_differences_match_one_product_per_block(budget, dtype, monkeypatch):
    """Every block left[a] @ right[b] formed alone and compared with
    ``stack_differences`` gives the grid's verdict: on (5, 3, 7) rows
    against a (4, 7, 5) stack, 0/1 or with rows weighted up to 6, formed in
    one band, in column bands of two blocks and row bands of two, or block
    by block.  Labels name each block's true entries, and a seeded few
    entries are relabelled, so some blocks pass and some fail."""
    rng = np.random.default_rng(7)
    left = rng.integers(0, 7 if dtype is np.int64 else 2, size=(5, 3, 7)).astype(dtype)
    right = rng.integers(0, 2, size=(4, 7, 5)).astype(np.uint8)
    true = np.einsum("ahv,bvw->abhw", left.astype(np.int64), right.astype(np.int64))
    coeffs, labels = np.unique(true, return_inverse=True)
    labels = labels.reshape(true.shape).astype(np.uint8)
    for a, b, x, y in zip(*(rng.integers(0, n, size=6) for n in labels.shape)):
        labels[a, b, x, y] = (labels[a, b, x, y] + 1) % len(coeffs)
    want = [
        [stack_differences((IntMatrix.view(left[a]) @ IntMatrix.view(right[b])).lane[None], labels[a, b], coeffs)[0] for b in range(4)]
        for a in range(5)
    ]
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", budget)
    count = _product_count(monkeypatch)
    assert block_differences(left, right, lambda a, b: labels[a, b], coeffs) == want
    assert count[0] == {70: 2 * 3, 1: 4 * 5}.get(budget, 1)
    assert any(d is None for row in want for d in row) and any(d is not None for row in want for d in row)


@pytest.mark.parametrize("budget", [sgdd.designs.STACK_ENTRIES, 1], ids=["one-band", "one-block"])
def test_cell_differences_read_the_grid_at_its_cells(budget, monkeypatch):
    """A few cells of a (5, 3, 7) x (4, 7, 5) grid are formed one block
    each, half of it or more as the whole grid, and a batch of two grids
    the same way: the verdicts are the grid's at those cells, in order."""
    rng = np.random.default_rng(11)
    left = rng.integers(0, 2, size=(2, 5, 3, 7)).astype(np.uint8)
    right = rng.integers(0, 2, size=(2, 4, 7, 5)).astype(np.uint8)
    true = np.einsum("cahv,cbvw->cabhw", left.astype(np.int64), right.astype(np.int64))
    coeffs, labels = np.unique(true, return_inverse=True)
    labels = labels.reshape(true.shape).astype(np.uint8)
    for c, a, b, x, y in zip(*(rng.integers(0, n, size=12) for n in labels.shape)):
        labels[c, a, b, x, y] = (labels[c, a, b, x, y] + 1) % len(coeffs)
    grid = block_differences(left, right, lambda c, a, b: labels[c, a, b], coeffs)
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", budget)
    count = _product_count(monkeypatch)
    for cells in (rng.integers(0, [2, 5, 4], size=(3, 3)), np.array(np.unravel_index(rng.permutation(40)[:25], (2, 5, 4))).T):
        count[0] = 0
        c, a, b = cells.T
        assert cell_differences(left, right, lambda c, a, b: labels[c, a, b], coeffs, (c, a, b)) == [grid[x][y][z] for x, y, z in cells]
        assert cell_differences(left[0], right[0], lambda a, b: labels[0, a, b], coeffs, (a, b)) == [grid[0][y][z] for y, z in cells[:, 1:]]
        if len(cells) == 3:  # one block per cell, in one product when the budget allows
            assert count[0] == (2 if budget > 1 else 2 * 3)
    assert any(d is None for member in grid for row in member for d in row)
    assert any(d is not None for member in grid for row in member for d in row)


def test_banded_linked_families_match_block_route(fam_gf4, fam_order5, monkeypatch):
    """With a stack budget of 64 entries the agreement and composition
    products of ``verify_linked`` are formed in bands of one to a few
    squares: the lines stay the block route's."""
    families = _families(fam_gf4, fam_order5)
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", 2**6)
    count = _product_count(monkeypatch)
    for fam, _ in families:
        assert verify_linked(fam).report_lines() == block_route.verify_linked(fam).report_lines()
    assert count[0] > sum(2 * fam.f for fam, _ in families)


def test_linked_family_forms_two_products(fam_gf4, monkeypatch):
    """The agreement and composition grids of every third index are one
    batch each: a desk-scale family takes two kernel products."""
    gf8 = linked_mols_from_gf(gf_from_order(8))
    count = _product_count(monkeypatch)
    for fam in (fam_gf4, gf8):
        count[0] = 0
        assert verify_linked(fam).ok
        assert count[0] == 2
