"""Products compared in their lane against the int64 route they replaced:
``designs.stack_differences`` looks the expected pattern up in the dtype of
the product's lane array, ``block_route.stack_differences`` compares the
product widened to int64 with ``pattern``.  Both must name the same first
differences with the same Python-integer values, at the lane edges, for
coefficients no entry can take, and inside the certifiers on seeded
corruptions of the GF(8) system and of its 448-vertex scheme."""

import random

import numpy as np
import pytest

import block_route
import class_list_route as ref
import sgdd.designs
from class_list_route import class_matrices, classes_of
from sgdd.algebra import IntMatrix, lane_table, matmul_lane
from block_route import pattern
from sgdd.designs import stack_differences
from sgdd.linked import verify_linked_system
from sgdd.schemes import assemble_scheme, compute_intersection_numbers, extract_linked_system, load_scheme
from test_block_route import SYSTEM_KINDS, corrupt

# (max|A|, max|B|) of an outer product (inner 1), and the dtype the product
# is held in: float32 below the bound 2**24, else int64 while its entries are
# below 2**62, else Python integers
LANE_EDGES = [
    (4095, 4097, np.float32),  # bound 2**24 - 1
    (4096, 4096, np.int64),  # bound 2**24
    (2**27, 2**26 - 1, np.int64),  # bound 2**53 - 2**27
    (2**27, 2**26, np.int64),  # bound 2**53
    (2**31, 2**31 - 1, np.int64),  # bound 2**62 - 2**31
    (2**31, 2**31, None),  # bound 2**62: an entry of 2**62
]

# coefficients at and past the limits of float32, float64 and int64,
# negative, and past int64
EDGE_COEFFS = [
    2**24 - 1, 2**24, 2**24 + 1, -(2**24 - 1), -(2**24), -7,
    2**53 - 1, 2**53, 2**53 + 1, -(2**53),
    2**62 - 1, 2**62, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**70, -(2**70),
]


def _int64_route(actual: np.ndarray, labels, coeffs):
    """The comparison as it was: the lane array widened to int64 (Python
    integers stay), against ``pattern``."""
    wide = actual.astype(np.int64) if actual.dtype.kind == "f" else actual
    return block_route.stack_differences(wide, pattern(labels, coeffs))


def _typed(diffs):
    return [None if d is None else (d, type(d[1]), type(d[2])) for d in diffs]


def _outer_stack(amax: int, bmax: int, seed: int):
    """A (3, 4, 4) stack of outer products whose bound is exactly amax * bmax,
    with few distinct entries, so that an exact label pattern exists."""
    rng = random.Random(seed)
    a = [[[rng.choice([amax, -amax, 1, 0])] for _ in range(4)] for _ in range(3)]
    b = [[[rng.choice([bmax, -bmax, 1]) for _ in range(4)]] for _ in range(3)]
    a[0][0][0], b[0][0][0] = amax, bmax
    return IntMatrix(a) @ IntMatrix(b)


@pytest.mark.parametrize("amax, bmax, lane", LANE_EDGES)
def test_lane_route_matches_int64_route_at_lane_edges(amax, bmax, lane):
    assert matmul_lane(amax * bmax) is (np.float32 if lane is np.float32 else None)
    for seed in range(3):
        prod = _outer_stack(amax, bmax, seed)
        assert prod.lane.dtype == np.dtype(lane or object)
        values, labels = np.unique(prod.a[0], return_inverse=True)
        labels = labels.reshape(4, 4).astype(np.uint8)
        exact = [int(x) for x in values]
        # member 0 is the pattern exactly; the others differ somewhere
        got = stack_differences(prod.lane, labels, exact)
        assert got[0] is None
        assert _typed(got) == _typed(_int64_route(prod.lane, labels, exact))
        for t in range(len(exact)):
            for c in EDGE_COEFFS + [exact[t] + 1, exact[t] - 1, -exact[t]]:
                coeffs = exact[:t] + [c] + exact[t + 1:]
                want = _int64_route(prod.lane, labels, coeffs)
                assert _typed(stack_differences(prod.lane, labels, coeffs)) == _typed(want), (t, c)
                assert (want[0] is None) == (c == exact[t])


@pytest.mark.parametrize("lane", [np.float32, np.int64, None])
def test_lane_table_maps_each_coefficient_exactly_or_to_no_entry(lane):
    dtype = np.dtype(lane or object)
    table = lane_table(EDGE_COEFFS, dtype)
    assert table.dtype == dtype
    limit = {np.float32: 2**24, np.int64: 2**62}.get(lane)
    for c, x in zip(EDGE_COEFFS, table.tolist()):
        if limit is None or abs(c) < limit:
            assert x == c and int(x) == c
        else:  # no entry of the lane, all of magnitude below the limit, equals it
            assert x != x if dtype.kind == "f" else x == -(2**63)


def test_every_product_is_int64_below_2_62(sys64, monkeypatch):
    """``.a`` of a product is int64 whenever its entries are below 2**62,
    whichever lane computed it, and holds the lane array's integers: the
    certifiers' products are float32, the exact products past 2**24 int64."""
    products = []
    matmul = IntMatrix.__matmul__

    def kept(a, b):
        products.append(matmul(a, b))
        return products[-1]

    monkeypatch.setattr(IntMatrix, "__matmul__", kept)
    scheme = assemble_scheme(sys64)
    classes = classes_of(scheme.relation)
    extract_linked_system(classes)
    load_scheme(classes)
    compute_intersection_numbers(classes)
    verify_linked_system(corrupt(sys64, "triple", 0)[0])
    for amax, bmax, lane in LANE_EDGES[:-1]:
        _outer_stack(amax, bmax, 0)
    assert {prod.lane.dtype for prod in products} == {np.dtype(np.float32), np.dtype(np.int64)}
    for prod in products:
        assert prod.a.dtype == np.int64 and prod.max_abs() < 2**62
        assert prod.a.shape == prod.lane.shape
        assert np.array_equal(prod.a, prod.lane)
    big = IntMatrix([[2**40]]) @ IntMatrix([[2**30]])
    assert big.a.dtype == object and big.entries() == [2**70]


@pytest.fixture
def int64_route(monkeypatch):
    """Certifiers compare their products as int64 against ``pattern``."""

    def route(actual, labels, coeffs):
        return _int64_route(actual, labels, coeffs)

    monkeypatch.setattr(sgdd.designs, "stack_differences", route)


def _outcome(cert):
    return cert.report_lines(), [(type(v.expected), type(v.actual)) for v in cert.violations]


@pytest.fixture(scope="module")
def gf8_corruptions(sys64):
    return [sys64] + [corrupt(sys64, kind, seed)[0] for kind in SYSTEM_KINDS for seed in range(3)]


def test_gf8_system_corruptions_certify_alike_on_both_routes(gf8_corruptions, request):
    lane = [_outcome(verify_linked_system(sys)) for sys in gf8_corruptions]
    request.getfixturevalue("int64_route")
    assert lane == [_outcome(verify_linked_system(sys)) for sys in gf8_corruptions]
    assert lane[0][0][0].endswith("OK")
    assert all(lines[0].endswith("VIOLATED") for lines, _ in lane[1:])


def _moved(relation, src, dst, seed):
    """One seeded symmetric pair of class src moved to class dst."""
    rng = random.Random(f"{src}->{dst}:{seed}")
    x, y = rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == src)) if x < y])
    out = relation.copy()
    out[x, y] = out[y, x] = dst
    return out


@pytest.mark.parametrize("src, dst, seed", [(3, 4, 0), (3, 4, 1), (5, 4, 0), (4, 3, 0), (1, 2, 0)])
def test_448_scheme_corruptions_match_int64_route(scheme448, src, dst, seed):
    classes = classes_of(_moved(scheme448.relation, src, dst, seed))
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = ref.intersection_numbers(class_matrices(classes))
    assert p is None and ref_p is None
    assert cert.report_lines() == ref_cert.report_lines()


def test_448_scheme_matches_int64_route(scheme448):
    classes = classes_of(scheme448.relation)
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = ref.intersection_numbers(class_matrices(classes))
    assert p == ref_p == scheme448.p
    assert cert.report_lines() == ref_cert.report_lines()
