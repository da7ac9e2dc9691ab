"""The orbit route of the linked-system and auxiliary-set certifiers: the
Gram, triple and auxiliary products are formed on one row per orbit of the
digit shifts (``designs.digit_shifts``) that fix every matrix
(``designs.orbit_rows``), and on every row when they fail there or none is
verified.  Either way the report lines are those of the block route
(``block_route``), which forms every row."""

import random

import numpy as np
import pytest

import block_route
import sgdd.linked
import sgdd.resolvable
from sgdd import fileio
from sgdd.designs import digit_shifts, orbit_rows
from sgdd.gf import gf_from_order
from sgdd.latin import linked_mols_from_gf
from sgdd.linked import LinkedSystemII, build_from_mub_bush, build_tilde_l, pair_index, verify_linked_system
from sgdd.resolvable import AuxiliarySet, aux_from_affine_geometry, verify_auxiliary


def _outcome(cert):
    return cert.report_lines(), [(type(v.expected), type(v.actual)) for v in cert.violations]


@pytest.fixture
def routes(monkeypatch):
    """(function, rows) for every Gram, triple and auxiliary product family
    the certifiers form while the test runs: the number of rows of a
    transversal, or "all"."""
    seen = []
    for module, name in (
        (sgdd.linked, "verify_grams"),
        (sgdd.linked, "_triple_differences"),
        (sgdd.resolvable, "_product_differences"),
    ):

        def recorded(*args, _name=name, _fn=getattr(module, name)):
            seen.append((_name, "all" if isinstance(args[-1], slice) else len(args[-1])))
            return _fn(*args)

        monkeypatch.setattr(module, name, recorded)
    return seen


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
    assert orbit_rows(aux.stack, shifts).tolist() == [0]
    assert _group(shifts).keys() == _group(block_route.affine_translations(q, d + 1)).keys()


def test_translation_invariant_systems_take_the_orbit_route(sys16, sys45, sys64, ag3_gf5, routes):
    """sys16: both shifts hold; sys45: the point shifts of AG(3, 1) but no
    group shift of its searched family, so 5 groups; sys64: the group shifts
    of GF(8) but no point shift of its order-8 Hadamard set, so 8 points."""
    for system, rows in ((sys16, 1), (sys45, 5), (sys64, 8), (ag3_gf5, 1)):
        routes.clear()
        assert verify_linked_system(system).ok
        assert routes == [("verify_grams", rows), ("_triple_differences", rows)]


def test_an_affine_geometry_set_takes_the_orbit_route(ag32, ag3_gf5, routes):
    """Built or parsed from its file, an AG set takes one row, and so does a
    system built on one over a field family, parsed or not."""
    aux = aux_from_affine_geometry(4, 1)
    assert aux.certificate.ok
    assert routes == [("_product_differences", 1)]
    assert verify_auxiliary(aux).report_lines() == block_route.verify_auxiliary(aux).report_lines()
    parsed = fileio.parse_auxiliary_set(fileio.format_auxiliary_set(ag32).encode())
    routes.clear()
    assert verify_auxiliary(parsed).ok
    assert routes == [("_product_differences", 1)]
    system = fileio.parse_linked_system(fileio.format_linked_system(ag3_gf5).encode())
    routes.clear()
    assert verify_linked_system(system).ok
    assert routes == [("verify_grams", 1), ("_triple_differences", 1)]


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
    shift, so the orbit route runs on one row, fails, and the full route
    reports the lines of the block route."""
    rng = random.Random(seed)
    v, n = ag3_gf5.params.base.v, ag3_gf5.params.base.n
    pair = rng.choice(sorted(ag3_gf5.blocks))
    x = rng.randrange(v)
    y = rng.choice([c for c in range(v) if c // n != x // n])
    stack = ag3_gf5.stack.copy()
    for shift in _joint_shifts(n, 5, 3, 2):
        stack[pair_index(ag3_gf5.f, *pair), shift[x], shift[y]] ^= 1
    bad = LinkedSystemII(ag3_gf5.params, stack)
    routes.clear()
    cert = verify_linked_system(bad)
    assert not cert.ok
    assert routes == [("verify_grams", 1), ("verify_grams", "all"), ("_triple_differences", 1), ("_triple_differences", "all")]
    assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


@pytest.mark.parametrize("source", ["sys16", "sys45", "sys64", "ag3_gf5"])
def test_seeded_flips_match_the_block_route(source, request, corrupt_system):
    for seed in range(4):
        bad, _ = corrupt_system(request.getfixturevalue(source), seed)
        cert = verify_linked_system(bad)
        assert not cert.ok
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
    """A single flipped entry breaks the digit shifts, which are then not
    verified; the same entry flipped at every translate keeps them, and the
    orbit route fails.  Both report the lines of the block route."""
    rng = random.Random(seed)
    idx, x, y = rng.randrange(ag32.r), rng.randrange(ag32.order), rng.randrange(ag32.order)
    for cells, first in (({(x, y)}, []), (_aux_orbit(block_route.affine_translations(3, 3), x, y), [("_product_differences", 1)])):
        stack = ag32.stack.copy()
        for a, b in cells:
            stack[idx, a, b] ^= 1
        bad = AuxiliarySet(stack, ag32.params)
        routes.clear()
        cert = verify_auxiliary(bad)
        assert not cert.ok
        assert routes == first + [("_product_differences", "all")]
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
        assert routes == [("verify_grams", "all"), ("_triple_differences", "all")]


def test_orbit_rows_keeps_only_verified_permutations():
    """A permutation that fixes every matrix joins its orbits; one that does
    not, or a map that is not a permutation (a constant map fixes a constant
    matrix), is dropped; candidates are read no further than one orbit."""
    shift = np.roll(np.arange(6), 1)
    circulant = np.array([np.roll([0, 1, 1, 0, 0, 1], k) for k in range(6)])[None]
    assert orbit_rows(circulant, [shift]).tolist() == [0]
    assert orbit_rows(circulant, [np.array([1, 0, 2, 3, 4, 5])]) is None
    assert orbit_rows(np.zeros((1, 6, 6), dtype=np.uint8), [np.zeros(6, dtype=np.intp)]) is None
    assert orbit_rows(circulant, [shift[shift[shift]]]).tolist() == [0, 1, 2]

    def candidates():
        yield shift
        raise AssertionError("read past one orbit")

    assert orbit_rows(circulant, candidates()).tolist() == [0]


@pytest.mark.parametrize("m, n", [(8, 8), (5, 9), (4, 3), (3, 17)])
def test_sub_block_ids_are_equal_exactly_where_the_sub_blocks_are(m, n):
    """Against the sub-blocks' bytes, on random 0/1 stacks with many equal
    sub-blocks and some that differ in one entry, past the first byte of
    their packed rows too."""
    rng = np.random.default_rng(m * n)
    pool = rng.integers(0, 2, size=(3, n, n), dtype=np.uint8)
    pool[1] = pool[0]
    pool[1, -1, -1] ^= 1
    picks = rng.integers(0, 3, size=(4, m, m))
    stack = pool[picks].swapaxes(2, 3).reshape(4, m * n, m * n)
    ids = sgdd.linked._sub_block_ids(stack, m, n).ravel()
    blocks = [bytes(b) for b in stack.reshape(4, m, n, m, n).swapaxes(2, 3).reshape(-1, n * n)]
    assert len(set(blocks)) == 3
    assert all((ids[a] == ids[b]) == (blocks[a] == blocks[b]) for a in range(len(ids)) for b in range(len(ids)))
