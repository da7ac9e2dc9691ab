import random

import pytest

import sgdd.algebra
from sgdd.algebra import IntMatrix
from sgdd.classical import hadamard_matrix, paley_conference_matrix
from sgdd.designs import IncidenceMatrix
from sgdd.gf import gf_make
from sgdd.latin import linked_mols_from_gf2n, search_linked_mols
from sgdd.linked import (
    LinkedSystemII,
    bgw_generate,
    build_tilde_l,
    bush_search,
    conference_to_gdd,
    gcm_to_gdd,
    pair_system,
)
from sgdd.resolvable import aux_from_affine_geometry, aux_from_hadamard
from sgdd.schemes import assemble_scheme


@pytest.fixture(scope="session")
def gf4():
    return gf_make(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return gf_make(5, 1)


@pytest.fixture(scope="session")
def aux_had4():
    return aux_from_hadamard(hadamard_matrix(4))


@pytest.fixture(scope="session")
def aux_ag23():
    return aux_from_affine_geometry(3, 1)


@pytest.fixture(scope="session")
def fam_gf4(gf4):
    return linked_mols_from_gf2n(gf4)


@pytest.fixture(scope="session")
def fam_order5():
    fam = search_linked_mols(5, 3)
    assert fam is not None, "order-5 linked family not found (reportable oracle outcome)"
    return fam


@pytest.fixture(scope="session")
def sys16(aux_had4, fam_gf4):
    return build_tilde_l(aux_had4, fam_gf4)


@pytest.fixture(scope="session")
def sys45(aux_ag23, fam_order5):
    return build_tilde_l(aux_ag23, fam_order5)


@pytest.fixture(scope="session")
def sys64():
    return build_tilde_l(aux_from_hadamard(hadamard_matrix(8)), linked_mols_from_gf2n(gf_make(2, 3)))


def _flip_off_group_entry(sys: LinkedSystemII, seed: int):
    """Flip one entry of one block A_{i,j} that lies in an off-diagonal group
    block, so A + K stays 0/1; return the corrupted system and (i, j)."""
    rng = random.Random(seed)
    pair = rng.choice(sorted(sys.blocks))
    blk = sys.blocks[pair]
    row = rng.randrange(blk.v)
    col = rng.choice([c for c in range(blk.v) if c // blk.n != row // blk.n])
    arr = blk.mat.a.copy()
    arr[row, col] = 1 - arr[row, col]
    blocks = dict(sys.blocks)
    blocks[pair] = IncidenceMatrix(IntMatrix(arr), blk.m, blk.n)
    return LinkedSystemII(params=sys.params, blocks=blocks), pair


@pytest.fixture(scope="session")
def non_transposed_pair(sys16):
    """The pair system {A_12, A_12^T} of sys16 with its (2, 1) block replaced
    by A_13: both blocks are designs whose companions are designs, but
    A_21 != A_12^T, so the assembled class A_3 is not symmetric."""
    pair = pair_system(sys16.blocks[(1, 2)], sys16.params.base)
    return LinkedSystemII(params=pair.params, blocks={(1, 2): pair.blocks[(1, 2)], (2, 1): sys16.blocks[(1, 3)]})


@pytest.fixture(scope="session")
def corrupt_system():
    return _flip_off_group_entry


@pytest.fixture
def matmul_lanes(monkeypatch):
    """The lane of every IntMatrix product made while the test runs."""
    lanes = []
    lane_of = sgdd.algebra.matmul_lane

    def recorded(bound):
        lanes.append(lane_of(bound))
        return lanes[-1]

    monkeypatch.setattr(sgdd.algebra, "matmul_lane", recorded)
    return lanes


@pytest.fixture(scope="session")
def scheme48(sys16):
    return assemble_scheme(sys16)


@pytest.fixture(scope="session")
def scheme135(sys45):
    return assemble_scheme(sys45)


@pytest.fixture(scope="session")
def scheme448(sys64):
    return assemble_scheme(sys64)


@pytest.fixture(scope="session")
def conference12():
    return conference_to_gdd(paley_conference_matrix(6))


@pytest.fixture(scope="session")
def bgw5():
    return bgw_generate(5)


@pytest.fixture(scope="session")
def gcm24(bgw5):
    return gcm_to_gdd(bgw5)


@pytest.fixture(scope="session")
def bush_pair():
    pair = bush_search(2, 2)
    assert pair is not None
    return pair
