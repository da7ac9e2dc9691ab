import io
import random

import numpy as np
import pytest

import block_route
import sgdd.algebra
import sgdd.designs
import sgdd.linked
import sgdd.resolvable
from sgdd.classical import hadamard_matrix, paley_conference_matrix
from sgdd.gf import gf_make
from sgdd.latin import linked_mols_from_gf, search_linked_mols
from sgdd.linked import (
    LinkedSystemII,
    bgw_generate,
    build_from_mub_bush,
    build_tilde_l,
    bush_search,
    conference_to_gdd,
    gcm_to_gdd,
    ordered_pairs,
    pair_index,
    pair_system,
)
from sgdd.resolvable import aux_from_affine_geometry, aux_from_hadamard
from sgdd.schemes import assemble_scheme


def text_of(chunks) -> str:
    """The text of a writer's byte chunks (``sgdd.fileio``'s ``*_chunks``)."""
    return b"".join(chunks).decode("ascii")


def read_text(reader, text: str | bytes):
    """What a ``sgdd.fileio`` reader reads from ``text`` as a binary stream."""
    return reader(io.BytesIO(text.encode() if isinstance(text, str) else text))


@pytest.fixture(scope="session", autouse=True)
def checked_shift_masks():
    """Every stack whose shift masks a test computes, checked against the
    gather route (``block_route.shift_masks``): the orders of the stacks
    checked, in order.  ``designs.translation_masks`` reads the patched
    name of its own module, and ``resolvable`` imports its own."""
    checked = []
    masks_of = sgdd.designs.shift_masks

    def checked_masks(stack):
        masks = masks_of(stack)
        assert np.array_equal(masks, block_route.shift_masks(stack)), stack.shape
        checked.append(stack.shape[-1])
        return masks

    with pytest.MonkeyPatch.context() as patch:
        for module in (sgdd.designs, sgdd.resolvable):
            patch.setattr(module, "shift_masks", checked_masks)
        yield checked


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
    return linked_mols_from_gf(gf4)


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
    return build_tilde_l(aux_from_hadamard(hadamard_matrix(8)), linked_mols_from_gf(gf_make(2, 3)))


def _flip_off_group_entry(sys: LinkedSystemII, seed: int, pair: tuple[int, int] | None = None, transposed: bool = False):
    """Flip one entry of one block A_{i,j} (``pair``, or a seeded one) that
    lies in an off-diagonal group block, so A + K stays 0/1, and with
    ``transposed`` the mirror entry of A_{j,i} too, so A_{j,i} = A_{i,j}^T
    still holds; return the corrupted system and (i, j)."""
    rng = random.Random(seed)
    pair = pair or rng.choice(ordered_pairs(sys.f))
    v, n = sys.params.base.v, sys.params.base.n
    row = rng.randrange(v)
    col = rng.choice([c for c in range(v) if c // n != row // n])
    stack = sys.stack.copy()
    stack[pair_index(sys.f, *pair), row, col] ^= 1
    if transposed:
        stack[pair_index(sys.f, *pair[::-1]), col, row] ^= 1
    return LinkedSystemII(sys.params, stack), pair


@pytest.fixture(scope="session")
def non_transposed_pair(sys16):
    """The pair system {A_12, A_12^T} of sys16 with its (2, 1) block replaced
    by A_13: both blocks are designs whose companions are designs, but
    A_21 != A_12^T, so the assembled class A_3 is not symmetric."""
    return LinkedSystemII(pair_system(sys16.stack[pair_index(sys16.f, 1, 2)], sys16.params.base).params, sys16.stack[:2])


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


@pytest.fixture
def aux_certifications(monkeypatch):
    """The order of every auxiliary set ``verify_auxiliary`` certifies while
    the test runs, through either module that calls it."""
    calls = []
    verify = sgdd.resolvable.verify_auxiliary

    def counted(aux):
        calls.append(aux.order)
        return verify(aux)

    for module in (sgdd.resolvable, sgdd.linked):
        monkeypatch.setattr(module, "verify_auxiliary", counted)
    return calls


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
def scheme225(aux_ag23):
    return assemble_scheme(build_tilde_l(aux_ag23, search_linked_mols(5, 5)))


@pytest.fixture(scope="session")
def conference24(conference12):
    return assemble_scheme(pair_system(*conference12))


@pytest.fixture(scope="session")
def gcm48(gcm24):
    return assemble_scheme(pair_system(*gcm24))


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


@pytest.fixture(scope="session")
def pair16(bush_pair):
    """The f = 2 system of one Bush-type Hadamard matrix of order 16."""
    return build_from_mub_bush(bush_pair[:1])


@pytest.fixture(scope="session")
def pair24(conference12):
    """The D = 5 pair: the conference design of order 12 and its transpose."""
    return pair_system(*conference12)
