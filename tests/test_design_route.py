"""The single-design constructions, each one gather into a uint8 array,
against the int64 block-by-block route they replaced (``design_route``):
equal entries, equal parameters, and a uint8 design every time."""

import numpy as np
import pytest

import design_route
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.classical import hadamard_matrix, paley_conference_matrix, signed_permutation_weighing_set
from sgdd.designs import IncidenceMatrix, partial_complement
from sgdd.errors import ParameterError
from sgdd.linked import bgw_generate, build_twin, conference_to_gdd, gcm_to_gdd
from conftest import read_text, text_of

CONFERENCE_ORDERS = (6, 10, 14, 18, 26, 30)
BGW_Q = (3, 4, 5, 7, 8, 9)
TWIN_ORDERS = (4, 8)


def _holds(mat: IncidenceMatrix, want: np.ndarray):
    assert mat.mat.lane.dtype == np.uint8 and mat.mat.a.dtype == np.uint8
    assert np.array_equal(mat.mat.lane, want)


@pytest.mark.parametrize("order", CONFERENCE_ORDERS)
def test_conference_design_matches_block_route(order):
    c = paley_conference_matrix(order)
    mat, params = conference_to_gdd(c)
    _holds(mat, design_route.conference_design(c))
    assert (params.v, params.m, params.n) == (2 * order, order, 2)


@pytest.mark.parametrize("q", BGW_Q)
def test_gcm_design_matches_block_route(q):
    gcm = bgw_generate(q)
    mat, params = gcm_to_gdd(gcm)
    _holds(mat, design_route.gcm_design(gcm))
    assert (params.v, params.m, params.n) == ((q - 1) * (q + 1), q + 1, q - 1)


@pytest.mark.parametrize("order", TWIN_ORDERS)
def test_twin_designs_match_kronecker_route(order):
    h, ws = hadamard_matrix(order), signed_permutation_weighing_set(order)
    twin = build_twin(h, ws)
    plus, minus = design_route.twin_designs(h, ws)
    _holds(twin.plus, plus)
    _holds(twin.minus, minus)


def _designs(sys16):
    out = [conference_to_gdd(paley_conference_matrix(order)) for order in CONFERENCE_ORDERS]
    out += [gcm_to_gdd(bgw_generate(q)) for q in BGW_Q]
    for order in TWIN_ORDERS:
        twin = build_twin(hadamard_matrix(order), signed_permutation_weighing_set(order))
        out += [(twin.plus, twin.params), (twin.minus, twin.params)]
    return out + [(blk, sys16.params.base) for blk in sys16.blocks.values()]


def test_partial_complement_matches_difference_route(sys16):
    """J - K - A as a mask against the int64 difference, on every design
    above and the blocks of sys16."""
    for mat, params in _designs(sys16):
        comp, _ = partial_complement(mat, params)
        _holds(comp, design_route.partial_complement(mat))


def test_an_incidence_matrix_is_a_uint8_view():
    """Given uint8 entries, the design holds them as they are; given int64
    entries, a uint8 copy; given a product in a float lane, its entries."""
    arr = np.eye(4, dtype=np.uint8)[[1, 0, 3, 2]]
    assert IncidenceMatrix(IntMatrix.view(arr), 2, 2).mat.lane is arr
    wide = IncidenceMatrix(IntMatrix(arr.astype(np.int64)), 2, 2)
    assert wide.mat.lane.dtype == np.uint8 and np.array_equal(wide.mat.lane, arr)
    prod = IntMatrix.view(arr) @ IntMatrix.view(np.eye(4, dtype=np.uint8))
    assert prod.lane.dtype == np.float32
    assert np.array_equal(IncidenceMatrix(prod, 2, 2).mat.lane, arr)


def test_a_parsed_design_holds_the_parsers_uint8_array():
    """conf30.mat, the conference design of order 60, as ``verify gdd``
    reads it: the design holds the digit array the parser made, with no
    int64 round trip."""
    mat, params = conference_to_gdd(paley_conference_matrix(30))
    parsed = read_text(fileio.read_matrix, text_of(fileio.matrix_chunks(mat.mat)))
    assert parsed.lane.dtype == np.uint8 and parsed.a is parsed.lane
    design = IncidenceMatrix(parsed, params.m, params.n)
    assert design.mat.lane is parsed.lane
    assert np.array_equal(design.mat.lane, mat.mat.lane)


@pytest.mark.parametrize("bad", [2, 256, -1])
def test_an_incidence_matrix_refuses_an_entry_not_zero_or_one(bad):
    arr = np.eye(4, dtype=np.int64)
    arr[0, 1] = bad
    with pytest.raises(ParameterError, match="^incidence matrix entries must be 0 or 1$"):
        IncidenceMatrix(IntMatrix(arr), 2, 2)
