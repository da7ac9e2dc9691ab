"""The orbit route of the linked-system and auxiliary-set certifiers: each
Gram, commutation, triple and auxiliary identity is formed on one row per
orbit of the digit shifts (``block_route.digit_shifts``) that fix every
matrix it uses (``designs.translation_masks``, ``designs.orbit_rows``), the identities
sharing those shifts as one batch (``designs.on_orbits``); on every row when
no shift fixes its matrices or when it fails on its orbit rows.  Either way
the report lines are those of the block route (``block_route``), which
forms every row."""

import random

import numpy as np
import pytest

import block_route
import sgdd.designs
import sgdd.linked
import sgdd.resolvable
from sgdd import fileio
from block_route import digit_shifts, lifted_shifts
from sgdd.designs import orbit_rows, shift_masks
from sgdd.gf import gf_from_order
from sgdd.latin import linked_mols_from_gf
from sgdd.linked import LinkedSystemII, build_from_mub_bush, build_tilde_l, ordered_pairs, pair_index, verify_linked_system
from sgdd.resolvable import AuxiliarySet, aux_from_affine_geometry, verify_auxiliary
from conftest import read_text, text_of


def _outcome(cert):
    return cert.report_lines(), [(type(v.expected), type(v.actual)) for v in cert.violations]


@pytest.fixture
def routes(monkeypatch):
    """(function, rows, identities) for every batch of Gram, commutation,
    grid and auxiliary identities the certifiers form while the test runs:
    the number of rows of a transversal, or "all", and the number of
    blocks, grid cells or pairs in the batch."""
    seen = []
    for module, name, members in (
        (sgdd.linked, "verify_grams", 0),
        (sgdd.linked, "k_commutations", 4),
        (sgdd.linked, "_grid_differences", 3),
        (sgdd.resolvable, "_product_differences", 2),
    ):

        def recorded(*args, _name=name, _fn=getattr(module, name), _members=members):
            seen.append((_name, "all" if isinstance(args[-1], slice) else len(args[-1]), len(args[_members])))
            return _fn(*args)

        monkeypatch.setattr(module, name, recorded)
    return seen


def _system_routes(rows, system, damaged: int = 0, transposed: bool = False) -> list[tuple]:
    """The batches of a system's certification when every identity not
    touching its ``damaged`` blocks (0 or 1) is formed on ``rows``, and the
    damaged block's identities on every row.

    ``k_commutations`` takes every block, and the grid cells are the
    f(f-1)(f-2) triples and the f(f-1) cells A_ij A_ji.  A damaged block
    whose transpose is not its partner's (a flip in one block) sends the
    Gram checks of both to ``verify_grams``, the partner on ``rows``, and
    their 2 cells leave the grid; one flipped with its mirror
    (``transposed``) keeps them in the grid, on every row with the triples
    of both blocks, and sends the commutation checks of both blocks to
    every row.  ``on_orbits`` takes a nonzero mask first, so the clean
    cells stay on ``rows`` even when the damaged ones outnumber them
    (f = 3)."""
    f = system.f
    cells = f * (f - 1) * (f - 2) + f * (f - 1)
    out, hit, worse = [], damaged * 3 * (f - 2), damaged
    if damaged and transposed:
        hit, worse = 2 * hit + 2, 2
    elif damaged:
        cells -= 2
        out += [("verify_grams", rows, 1), ("verify_grams", "all", 1)]
    out += [("k_commutations", rows, f * (f - 1) - worse)] + [("k_commutations", "all", worse)] * bool(worse)
    return out + [("_grid_differences", rows, cells - hit)] + [("_grid_differences", "all", hit)] * bool(hit)


@pytest.fixture(scope="module")
def ag32():
    return aux_from_affine_geometry(3, 2)


@pytest.fixture(scope="module")
def ag3_gf5():
    """v = 45, f = 4: the group shifts of GF(5) and the point shifts of
    AG(3, 1) both fix it, so it certifies on one row."""
    return build_tilde_l(aux_from_affine_geometry(3, 1), linked_mols_from_gf(gf_from_order(5)))


def _group(gens) -> dict[bytes, np.ndarray]:
    """Every element of the permutation group ``gens`` generate, keyed by
    its bytes."""
    gens = [np.asarray(g, dtype=np.intp) for g in gens]
    start = np.arange(len(gens[0]))
    seen, todo = {start.tobytes(): start}, [start]
    while todo:
        perm = todo.pop()
        for g in gens:
            img = g[perm]
            if (key := img.tobytes()) not in seen:
                seen[key] = img
                todo.append(img)
    return seen


@pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (11, 2), (3, 6)])
def test_digit_shifts_are_bijections_of_order_p(p, e):
    v = p**e
    shifts = digit_shifts(v)
    assert len(shifts) == e
    for shift in shifts:
        assert np.array_equal(np.sort(shift), np.arange(v))
        power = shift
        for _ in range(p - 1):
            assert not np.array_equal(power, np.arange(v))
            power = shift[power]
        assert np.array_equal(power, np.arange(v))


@pytest.mark.parametrize("v", [0, 1, 6, 12, 45, 100])
def test_a_non_prime_power_has_no_digit_shift(v):
    assert digit_shifts(v) == []


# the affine-geometry sets of order at most 729 that the tests, scripts and
# scanner witnesses build, and those the README and ROADMAP time
@pytest.mark.parametrize(
    "q, d", [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1), (11, 1), (2, 2), (3, 2), (4, 2), (7, 2), (9, 2)]
)
def test_digit_shifts_are_the_affine_translations(q, d):
    """The shifts fix every C_a and join all points in one orbit, and they
    generate the group the field's translations generate."""
    aux = aux_from_affine_geometry(q, d)
    shifts = digit_shifts(aux.order)
    every = 2 ** len(shifts) - 1
    assert (shift_masks(aux.stack) == every).all()
    assert orbit_rows(aux.order, 1, every).tolist() == [0]
    assert _group(shifts).keys() == _group(block_route.affine_translations(q, d + 1)).keys()


def test_translation_invariant_systems_take_the_orbit_route(sys16, sys45, sys64, ag3_gf5, routes):
    """sys16: both shifts hold; sys45: the point shifts of AG(3, 1) but no
    group shift of its searched family, so 5 groups; sys64: the group shifts
    of GF(8) but no point shift of its order-8 Hadamard set, so 8 points."""
    for system, rows in ((sys16, 1), (sys45, 5), (sys64, 8), (ag3_gf5, 1)):
        routes.clear()
        assert verify_linked_system(system).ok
        assert routes == _system_routes(rows, system)


def test_an_affine_geometry_set_takes_the_orbit_route(ag32, ag3_gf5, routes):
    """Built or parsed from its file, an AG set takes one row, and so does a
    system built on one over a field family, parsed or not."""
    aux = aux_from_affine_geometry(4, 1)
    assert aux.certificate.ok
    assert routes == [("_product_differences", 1, 5 * 5)]
    assert verify_auxiliary(aux).report_lines() == block_route.verify_auxiliary(aux).report_lines()
    parsed = read_text(fileio.read_auxiliary_set, text_of(fileio.auxiliary_set_chunks(ag32)))
    routes.clear()
    assert verify_auxiliary(parsed).ok
    assert routes == [("_product_differences", 1, 13 * 13)]
    system = read_text(fileio.read_linked_system, text_of(fileio.linked_system_chunks(ag3_gf5)))
    routes.clear()
    assert verify_linked_system(system).ok
    assert routes == _system_routes(1, system)


def _joint_shifts(n: int, q_groups: int, q_points: int, dim: int) -> list[np.ndarray]:
    """Every vertex permutation that translates the groups by an element of
    GF(q_groups) and the n points of every group by one of GF(q_points)^dim."""
    groups = _group(block_route.affine_translations(q_groups, 1)).values()
    points = _group(block_route.affine_translations(q_points, dim)).values()
    return [(g[:, None] * n + x).ravel() for g in groups for x in points]


@pytest.mark.parametrize("seed", range(3))
def test_a_corruption_that_keeps_the_translations_is_rejected(ag3_gf5, seed, routes):
    """One entry of a block flipped at every image under the joint group of
    the group and point translations: the system is still fixed by every
    shift, so every identity runs on one row, and only the flipped block's
    Gram and commutation checks and its triples fail there and run again on
    every row, reporting the lines of the block route."""
    rng = random.Random(seed)
    v, n = ag3_gf5.params.base.v, ag3_gf5.params.base.n
    pair = rng.choice(ordered_pairs(ag3_gf5.f))
    x = rng.randrange(v)
    y = rng.choice([c for c in range(v) if c // n != x // n])
    stack = ag3_gf5.stack.copy()
    for shift in _joint_shifts(n, 5, 3, 2):
        stack[pair_index(ag3_gf5.f, *pair), shift[x], shift[y]] ^= 1
    bad = LinkedSystemII(ag3_gf5.params, stack)
    routes.clear()
    cert = verify_linked_system(bad)
    assert not cert.ok
    cells = 24 + 12 - 2  # the pair's Gram cells go to verify_grams
    assert routes == [
        ("verify_grams", 1, 2), ("verify_grams", "all", 1),
        ("k_commutations", 1, 12), ("k_commutations", "all", 1),
        ("_grid_differences", 1, cells), ("_grid_differences", "all", 3 * 2),
    ]
    assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


@pytest.mark.parametrize("seed", range(3))
def test_a_corruption_that_keeps_the_group_shifts_runs_on_the_group_rows(ag3_gf5, seed, routes):
    """One entry of a block flipped at every image under the group
    translations alone: that block keeps the group shifts and loses the
    point shifts, so its identities form a batch on the 9 points of one
    group, the others stay on one row, and those that fail on the 9 rows
    run again on every row, reporting the lines of the block route."""
    rng = random.Random(seed)
    v, n = ag3_gf5.params.base.v, ag3_gf5.params.base.n
    pair = rng.choice(ordered_pairs(ag3_gf5.f))
    x = rng.randrange(v)
    y = rng.choice([c for c in range(v) if c // n != x // n])
    stack = ag3_gf5.stack.copy()
    for g in _group(block_route.affine_translations(5, 1)).values():
        shift = (g[:, None] * n + np.arange(n)).ravel()
        stack[pair_index(ag3_gf5.f, *pair), shift[x], shift[y]] ^= 1
    bad = LinkedSystemII(ag3_gf5.params, stack)
    routes.clear()
    cert = verify_linked_system(bad)
    assert not cert.ok
    cells = 24 + 12 - 2
    assert routes == [
        ("verify_grams", 1, 1), ("verify_grams", 9, 1), ("verify_grams", "all", 1),
        ("k_commutations", 1, 11), ("k_commutations", 9, 1), ("k_commutations", "all", 1),
        ("_grid_differences", 1, cells - 6), ("_grid_differences", 9, 6), ("_grid_differences", "all", 6),
    ]
    assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


def _flip_every_block(system, rows, transposed: bool, routes, corrupt_system):
    """One entry flipped in each block of ``system`` in turn, with its mirror
    in the transposed block when ``transposed``: the batches are those of
    ``_system_routes`` and the lines those of the block route."""
    for index, pair in enumerate(ordered_pairs(system.f)):
        bad, _ = corrupt_system(system, index, pair, transposed)
        routes.clear()
        cert = verify_linked_system(bad)
        assert not cert.ok
        assert routes == _system_routes(rows, system, damaged=1, transposed=transposed), pair
        assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


@pytest.mark.parametrize("source, rows", [("sys16", 1), ("sys64", 8), ("ag3_gf5", 1)])
def test_a_flip_in_any_block_sends_only_its_identities_to_every_row(source, rows, request, routes, corrupt_system):
    """One entry flipped in each block in turn: the shifts that fix every
    other block still do, so the other blocks' identities and the triples
    that avoid the flipped block stay on their orbit rows, and only the
    flipped block's checks and its 3 (f - 2) triples are formed on every
    row; the lines are those of the block route."""
    _flip_every_block(request.getfixturevalue(source), rows, False, routes, corrupt_system)


@pytest.mark.parametrize("source, rows", [("sys16", 1), ("sys64", 8), ("ag3_gf5", 1)])
def test_a_flip_with_its_mirror_sends_only_its_grid_cells_to_every_row(source, rows, request, routes, corrupt_system):
    """One entry flipped in each block in turn together with its mirror in
    the transposed block, so every transpose holds: the Gram verdicts of
    both blocks come from their grid cells, which with their triples and
    the commutation checks of both blocks are formed on every row, and the
    lines are those of the block route."""
    _flip_every_block(request.getfixturevalue(source), rows, True, routes, corrupt_system)


@pytest.mark.parametrize("source", ["sys16", "sys45", "sys64", "ag3_gf5", "pair16", "pair24"])
def test_seeded_flips_match_the_block_route(source, request, corrupt_system):
    """Seeded flips of one entry, which break a transpose, so the damaged
    pair's Gram verdicts come from ``verify_grams``, and of one entry with
    its mirror, which keep every transpose, so they come from the grid: for
    a pair (f = 2) too, whose grid holds its Gram cells alone."""
    for seed in range(4):
        for transposed in (False, True):
            bad, pair = corrupt_system(request.getfixturevalue(source), seed, transposed=transposed)
            cert = verify_linked_system(bad)
            assert not cert.ok
            assert (cert.notes == ["transpose-consistent blocks: yes"]) == transposed
            assert any(v.identity.startswith(f"block {pair}: A A^T") for v in cert.violations)
            assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", ["sys16", "sys64", "ag3_gf5"])
def test_a_swap_that_keeps_a_k_and_breaks_k_a_matches_the_block_route(source, seed, request):
    """A 1 of A_ij moved along its row to another column of the same group,
    and the mirror move in A_ji, so every transpose holds: A_ij K is
    unchanged, K A_ij is not, and only the column sums of A_ij over a group
    tell it; the lines are those of the block route."""
    system = request.getfixturevalue(source)
    rng = random.Random(seed)
    f, v, n = system.f, system.params.base.v, system.params.base.n
    pair = rng.choice(ordered_pairs(f))
    stack = system.stack.copy()
    block, mirror = stack[pair_index(f, *pair)], stack[pair_index(f, *pair[::-1])]
    x = rng.randrange(v)
    y = rng.choice(np.flatnonzero(block[x]).tolist())
    z = rng.choice([c for c in range(y - y % n, y - y % n + n) if not block[x, c]])
    block[x, y], block[x, z] = 0, 1
    mirror[y, x], mirror[z, x] = 0, 1
    bad = LinkedSystemII(system.params, stack)
    cert = verify_linked_system(bad)
    assert cert.notes == ["transpose-consistent blocks: yes"]
    assert f"block {pair}: A K = K A = k/(m-1) (J - K)" in [v.identity for v in cert.violations]
    assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


def _aux_orbit(perms, x: int, y: int) -> set[tuple[int, int]]:
    """The images of (x, y) under the group the permutations generate."""
    orbit, todo = {(x, y)}, [(x, y)]
    while todo:
        a, b = todo.pop()
        for perm in perms:
            img = (int(perm[a]), int(perm[b]))
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    return orbit


@pytest.mark.parametrize("seed", range(4))
def test_seeded_flips_of_an_affine_geometry_set_match_the_block_route(ag32, seed, routes):
    """A single flipped entry of C_a breaks the digit shifts of C_a alone:
    the products of the other pairs stay on one row, and the 2r - 1 products
    with C_a are formed on every row.  The same entry flipped at every
    translate keeps every shift, so every product is formed on one row, and
    those with C_a fail there and run again on every row.  Both report the
    lines of the block route."""
    rng = random.Random(seed)
    idx, x, y = rng.randrange(ag32.r), rng.randrange(ag32.order), rng.randrange(ag32.order)
    r = ag32.r
    for cells, first in (({(x, y)}, (r - 1) ** 2), (_aux_orbit(block_route.affine_translations(3, 3), x, y), r * r)):
        stack = ag32.stack.copy()
        for a, b in cells:
            stack[idx, a, b] ^= 1
        bad = AuxiliarySet(stack, ag32.params)
        routes.clear()
        cert = verify_auxiliary(bad)
        assert not cert.ok
        assert routes == [("_product_differences", 1, first), ("_product_differences", "all", 2 * r - 1)]
        assert _outcome(cert) == _outcome(block_route.verify_auxiliary(bad))


def test_a_flip_in_any_auxiliary_matrix_sends_only_its_products_to_every_row(ag32, routes):
    """One seeded entry of each C_a in turn: the (r - 1)^2 products without
    C_a stay on one row, the 2r - 1 with it are formed on every row, and the
    lines are those of the block route."""
    r = ag32.r
    for idx in range(r):
        rng = random.Random(idx)
        stack = ag32.stack.copy()
        stack[idx, rng.randrange(ag32.order), rng.randrange(ag32.order)] ^= 1
        bad = AuxiliarySet(stack, ag32.params)
        routes.clear()
        cert = verify_auxiliary(bad)
        assert not cert.ok
        assert routes == [("_product_differences", 1, (r - 1) ** 2), ("_product_differences", "all", 2 * r - 1)]
        assert _outcome(cert) == _outcome(block_route.verify_auxiliary(bad))


def test_systems_without_verified_translations_take_the_full_route(bush_pair, sys64, routes):
    """The MUB-Bush system and sys64 with the points of each group permuted
    by a different permutation (K is kept, the translations are lost)
    certify on every row."""
    rng = np.random.default_rng(64)
    n = sys64.params.base.n
    order = np.concatenate([g * n + rng.permutation(n) for g in range(sys64.params.base.m)])
    shuffled = LinkedSystemII(sys64.params, sys64.stack[:, order][:, :, order])
    for system in (build_from_mub_bush(bush_pair), shuffled):
        routes.clear()
        assert verify_linked_system(system).ok
        assert routes == _system_routes("all", system)


def test_the_masks_of_every_stack_are_checked_against_the_gather(checked_shift_masks):
    """The session's check (``checked_shift_masks``) sees the stacks a
    certification computes masks of: the auxiliary set's matrices, then a
    system's distinct n x n sub-blocks and its m x m sub-block ids."""
    before = len(checked_shift_masks)
    aux = aux_from_affine_geometry(3, 1)
    assert checked_shift_masks[before:] == [aux.order]
    build_tilde_l(aux, linked_mols_from_gf(gf_from_order(5)))
    assert checked_shift_masks[before + 1 :] == [aux.order, 5]


def test_shift_masks_mark_the_shifts_that_fix_each_matrix():
    """Bit s of a matrix's mask is set exactly when the s-th digit shift
    fixes it: on v = 8, a matrix that depends on x xor y only (every
    shift), one that depends on the high digits of x and y only (the shift
    of the low digit), and one with a single 1 (none)."""
    x = np.arange(8)
    stack = np.array([(x[:, None] ^ x) % 3 == 0, (x[:, None] >> 1) < (x >> 1), np.eye(8, k=3) == 1], dtype=np.uint8)
    assert shift_masks(stack).tolist() == [0b111, 0b001, 0]
    assert shift_masks(np.ones((2, 6, 6), dtype=np.uint8)).tolist() == [0, 0]


@pytest.mark.parametrize("v", [8, 9, 25, 27])
def test_orbit_rows_are_the_least_points_of_the_orbits(v):
    """For every set of digit shifts of one set of v points, (v, 1), the
    least point of each orbit of the group they generate (``_group``);
    None for no shift."""
    shifts = digit_shifts(v)
    assert orbit_rows(v, 1, 0) is None
    for mask in range(1, 2 ** len(shifts)):
        group = _group([s for bit, s in enumerate(shifts) if mask >> bit & 1]).values()
        least = sorted({min(int(g[x]) for g in group) for x in range(v)})
        assert orbit_rows(v, 1, mask).tolist() == least


@pytest.mark.parametrize("m, n", [(4, 4), (8, 8), (5, 9), (9, 3), (6, 4), (7, 1)])
def test_orbit_rows_are_the_least_points_of_the_lifted_orbits(m, n):
    """For every mask of m groups of n points, the least point of each
    orbit of the group the lifted group and point shifts of its bits
    generate (``block_route.lifted_shifts``, ``_group``); None for mask 0.
    m = 6 has no group shift, n = 1 no point shift."""
    shifts = lifted_shifts(m, n)
    assert orbit_rows(m, n, 0) is None
    for mask in range(1, 2 ** len(shifts)):
        group = _group([s for bit, s in enumerate(shifts) if mask >> bit & 1]).values()
        rows = orbit_rows(m, n, mask)
        assert not rows.flags.writeable
        assert rows.tolist() == sorted({min(int(g[x]) for g in group) for x in range(m * n)}), mask


@pytest.mark.parametrize("m, n", [(8, 8), (5, 9), (4, 3), (3, 17), (2, 16)])
def test_sub_block_ids_are_equal_exactly_where_the_sub_blocks_are(m, n):
    """The keys that give sub-blocks their ids, against the sub-blocks'
    bytes, on random 0/1 stacks with many equal sub-blocks and some that
    differ in one entry, past the first byte of their packed rows too; n
    = 8 and 16 pack whole rows before the sub-blocks are gathered."""
    rng = np.random.default_rng(m * n)
    pool = rng.integers(0, 2, size=(3, n, n), dtype=np.uint8)
    pool[1] = pool[0]
    pool[1, -1, -1] ^= 1
    picks = rng.integers(0, 3, size=(4, m, m))
    stack = pool[picks].swapaxes(2, 3).reshape(4, m * n, m * n)
    ids = sgdd.designs._sub_block_keys(stack, m, n)
    blocks = [bytes(b) for b in stack.reshape(4, m, n, m, n).swapaxes(2, 3).reshape(-1, n * n)]
    assert len(set(blocks)) == 3
    assert all((ids[a] == ids[b]) == (blocks[a] == blocks[b]) for a in range(len(ids)) for b in range(len(ids)))
