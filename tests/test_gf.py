import ast
import sys
from pathlib import Path

import pytest

from sgdd.classical import _jacobsthal
from sgdd.errors import ParameterError
from sgdd.gf import factor_prime_power, gf_from_order, gf_make, is_prime
from sgdd.latin import mols_from_gf
from sgdd.linked import bgw_generate

from gf_route import tuple_field

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_gf4_modulus_is_lowest_lex_irreducible():
    ctx = gf_make(2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1


def test_gf4_product_by_manual_reduction():
    # independent oracle: multiply (x) * (x + 1) as polynomials over Z_2 and
    # reduce by x^2 + x + 1 with explicit coefficient arithmetic
    raw = [0, 0, 0]
    for i, a in enumerate((0, 1)):        # x
        for j, b in enumerate((1, 1)):    # x + 1
            raw[i + j] = (raw[i + j] + a * b) % 2
    assert raw == [0, 1, 1]               # x^2 + x
    # subtract x^2 + x + 1 once: (x^2 + x) - (x^2 + x + 1) = -1 = 1 over Z_2
    reduced = [(raw[0] - 1) % 2, (raw[1] - 1) % 2, (raw[2] - 1) % 2]
    assert reduced == [1, 0, 0]
    # tuples (c0, c1) in lexicographic order: x = (0, 1) is index 1,
    # x + 1 = (1, 1) index 3 and 1 = (1, 0) index 2
    ctx = gf_make(2, 2)
    assert ctx.mul[1][3] == 2 == ctx.one


def test_gf5_inverse():
    ctx = gf_make(5)
    assert ctx.inv[2] == 3
    assert ctx.inv[0] is None


def test_enumeration_zero_first():
    ctx = gf_make(2, 2)
    els = tuple_field(ctx).elements
    assert len(els) == ctx.q == 4
    assert els[0] == (0, 0) and els == sorted(els)
    # index 0 is the zero of the tables
    assert ctx.add[0] == (0, 1, 2, 3) and ctx.mul[0] == (0, 0, 0, 0) and ctx.neg[0] == 0


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_multiplicative_group(p, d):
    ctx = gf_make(p, d)
    q = ctx.q
    for x in range(1, q):
        y = ctx.one
        for _ in range(q - 1):
            y = ctx.mul[y][x]
        assert y == ctx.one
    # the generator, of log 1 (or 0 in GF(2)), runs through every nonzero element
    g = ctx.log.index(1 % (q - 1))
    y = ctx.one
    for t in range(q - 1):
        assert ctx.log[y] == t
        y = ctx.mul[y][g]
    assert y == ctx.one and sorted(ctx.log[1:]) == list(range(q - 1))


@pytest.mark.parametrize("p,d", [(2, 2), (3, 1), (2, 3), (5, 1)])
def test_operation_tables_are_latin(p, d):
    ctx = gf_make(p, d)
    full = set(range(ctx.q))
    for x in full:
        assert set(ctx.add[x]) == full
        assert {row[x] for row in ctx.add} == full
    for x in full - {0}:
        assert ctx.mul[x][0] == 0
        assert {ctx.mul[x][y] for y in full - {0}} == full - {0}


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_match_tuple_arithmetic(q):
    ctx = gf_from_order(q)
    ref = tuple_field(ctx)
    els, index = ref.elements, ref.index
    assert ctx.add == tuple(tuple(index(ref.add(x, y)) for y in els) for x in els)
    assert ctx.mul == tuple(tuple(index(ref.mul(x, y)) for y in els) for x in els)
    assert ctx.neg == tuple(index(ref.neg(x)) for x in els)
    assert ctx.one == index(ref.one)
    assert ctx.inv == (None,) + tuple(index(ref.inv(x)) for x in els[1:])
    log = ref.discrete_log_table(ref.primitive_element())
    assert ctx.log == (None,) + tuple(log[x] for x in els[1:])


def test_not_prime_rejected():
    with pytest.raises(ParameterError):
        gf_make(6)
    assert not is_prime(1)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    with pytest.raises(ParameterError):
        factor_prime_power(12)
    assert gf_from_order(9).q == 9


def test_gf_module_imports_only_the_standard_library():
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "sgdd" / "gf.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("sgdd." * (node.level > 0) + (node.module or ""))
    assert imported
    outside = [name for name in imported if name != "sgdd.errors" and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_field_constructions_match_tuple_arithmetic(q):
    # each construction that reads the tables, against its definition on
    # coefficient tuples: the squares c (x - y), the BGW logarithms of
    # x - y, and the quadratic character of x - y
    ref = tuple_field(gf_from_order(q))
    els, index, sub = ref.elements, ref.index, ref.sub
    squares = [tuple(map(tuple, sq)) for sq in mols_from_gf(gf_from_order(q)).tolist()]
    assert squares == [tuple(tuple(index(ref.mul(c, sub(x, y))) for y in els) for x in els) for c in els[1:]]
    log = ref.discrete_log_table(ref.primitive_element())
    entries = bgw_generate(q).entries
    assert [row[:q] for row in entries[:q]] == [[-1 if x == y else log[sub(x, y)] for y in els] for x in els]
    assert [row[q] for row in entries[:q]] == [log[ref.neg(ref.one)]] * q and entries[q] == [0] * q + [-1]
    residues = ref.squares()
    chi = [[0 if x == y else 1 if sub(x, y) in residues else -1 for y in els] for x in els]
    assert _jacobsthal(q).tolist() == chi
