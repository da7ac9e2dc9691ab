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
from sgdd.designs import IncidenceMatrix, block_differences, cell_differences, check_k_commutation, stack_differences, verify_gdd
from sgdd.gf import gf_from_order
from sgdd.latin import LatinSquare, LinkedMolsFamily, linked_mols_from_gf, verify_linked
from sgdd.errors import ParameterError
from sgdd.linked import LinkedSystemII, build_from_mub_bush, pair_index, pair_system, verify_linked_system


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


@pytest.fixture(scope="module")
def pair16(bush_pair):
    return build_from_mub_bush(bush_pair[:1])


@pytest.fixture(scope="module")
def pair24(conference12):
    """The D = 5 pair: the conference design of order 12 and its transpose."""
    return pair_system(*conference12)


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


def _product_count(monkeypatch) -> list[int]:
    """A one-item list counting the kernel products formed from here on."""
    count = [0]
    matmul = IntMatrix.__matmul__

    def counted(a, b):
        count[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return count


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
