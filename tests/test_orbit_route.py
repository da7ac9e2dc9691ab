"""The orbit route of the linked-system and auxiliary-set certifiers: the
Gram, triple and auxiliary products are formed on one row per orbit of the
translations that fix every matrix (``designs.orbit_rows``), and on every row
when they fail there or none is verified.  Either way the report lines are
those of the block route (``block_route``), which forms every row."""

import random

import numpy as np
import pytest

import block_route
import sgdd.linked
import sgdd.resolvable
from sgdd import fileio
from sgdd.designs import orbit_rows
from sgdd.gf import gf_from_order
from sgdd.linked import LinkedSystemII, build_from_mub_bush, pair_index, verify_linked_system
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


def test_translation_invariant_systems_take_the_orbit_route(sys16, sys45, sys64, routes):
    for system in (sys16, sys45, sys64):
        routes.clear()
        assert verify_linked_system(system).ok
        n = system.params.base.n
        assert routes == [("verify_grams", n), ("_triple_differences", n)]


def test_an_affine_geometry_set_takes_the_orbit_route(routes):
    aux = aux_from_affine_geometry(4, 1)
    assert aux.certificate.ok
    assert routes == [("_product_differences", 1)]
    assert verify_auxiliary(aux).report_lines() == block_route.verify_auxiliary(aux).report_lines()


def _gf8_shifts(n: int) -> list[np.ndarray]:
    """The vertex permutations of the GF(8) system that add t to the group
    of each vertex, for every field element t."""
    add = np.array(gf_from_order(8).add)
    return [(add[t][:, None] * n + np.arange(n)).ravel() for t in range(8)]


@pytest.mark.parametrize("seed", range(3))
def test_a_corruption_that_keeps_the_translations_is_rejected(sys64, seed, routes):
    """One entry of a block flipped at every translate of its position: the
    system is still translation-invariant, so the orbit route runs, fails,
    and the full route reports the lines of the block route."""
    rng = random.Random(seed)
    n = sys64.params.base.n
    pair = rng.choice(sorted(sys64.blocks))
    x = rng.randrange(64)
    y = rng.choice([c for c in range(64) if c // n != x // n])
    stack = sys64.stack.copy()
    for shift in _gf8_shifts(n):
        stack[pair_index(sys64.f, *pair), shift[x], shift[y]] ^= 1
    bad = LinkedSystemII(sys64.params, stack)
    cert = verify_linked_system(bad)
    assert not cert.ok
    assert routes == [("verify_grams", n), ("verify_grams", "all"), ("_triple_differences", n), ("_triple_differences", "all")]
    assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


@pytest.mark.parametrize("source", ["sys16", "sys45", "sys64"])
def test_seeded_flips_match_the_block_route(source, request, corrupt_system):
    for seed in range(4):
        bad, _ = corrupt_system(request.getfixturevalue(source), seed)
        cert = verify_linked_system(bad)
        assert not cert.ok
        assert _outcome(cert) == _outcome(block_route.verify_linked_system(bad))


def _aux_orbit(aux: AuxiliarySet, x: int, y: int) -> set[tuple[int, int]]:
    """The images of (x, y) under the group the set's translations generate."""
    orbit, todo = {(x, y)}, [(x, y)]
    while todo:
        a, b = todo.pop()
        for perm in aux.translations:
            img = (int(perm[a]), int(perm[b]))
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    return orbit


@pytest.mark.parametrize("seed", range(4))
def test_seeded_flips_of_an_affine_geometry_set_match_the_block_route(ag32, seed, routes):
    """A single flipped entry breaks the translations, which are then not
    verified; the same entry flipped at every translate keeps them, and the
    orbit route fails.  Both report the lines of the block route."""
    rng = random.Random(seed)
    idx, x, y = rng.randrange(ag32.r), rng.randrange(ag32.order), rng.randrange(ag32.order)
    for cells, first in (({(x, y)}, []), (_aux_orbit(ag32, x, y), [("_product_differences", 1)])):
        stack = ag32.stack.copy()
        for a, b in cells:
            stack[idx, a, b] ^= 1
        bad = AuxiliarySet(stack, ag32.params, ag32.translations)
        routes.clear()
        cert = verify_auxiliary(bad)
        assert not cert.ok
        assert routes == first + [("_product_differences", "all")]
        assert _outcome(cert) == _outcome(block_route.verify_auxiliary(bad))


def test_systems_without_verified_translations_take_the_full_route(bush_pair, sys64, ag32, routes):
    """The MUB-Bush system, sys64 with the points of each group permuted by
    a different permutation (K is kept, the translations are lost) and a
    parsed auxiliary file (no candidates) certify on every row."""
    rng = np.random.default_rng(64)
    n = sys64.params.base.n
    order = np.concatenate([g * n + rng.permutation(n) for g in range(sys64.params.base.m)])
    shuffled = LinkedSystemII(sys64.params, sys64.stack[:, order][:, :, order])
    for system in (build_from_mub_bush(bush_pair), shuffled):
        routes.clear()
        assert verify_linked_system(system).ok
        assert routes == [("verify_grams", "all"), ("_triple_differences", "all")]
    parsed = fileio.parse_auxiliary_set(fileio.format_auxiliary_set(ag32).encode())
    routes.clear()
    assert verify_auxiliary(parsed).ok
    assert routes == [("_product_differences", "all")]


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
