import ast
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdd.algebra
from sgdd.algebra import IntMatrix, Surd, first_differences, matmul_lane, square_free_decomposition, surd_sign
from sgdd.designs import group_labels
from sgdd.errors import ParameterError
from surd_route import fraction_sign

small_int = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n).map(IntMatrix)


def test_all_ones_product():
    j2 = IntMatrix(np.ones((2, 2), dtype=np.int64))
    assert j2 @ j2 == IntMatrix([[2, 2], [2, 2]])


def test_group_indicator_square():
    k22 = IntMatrix((group_labels(2, 2) > 0).astype(np.int64))
    assert k22 == IntMatrix(np.kron(np.eye(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64)))
    assert k22 @ k22 == IntMatrix(2 * k22.a)


def test_dimension_mismatch():
    with pytest.raises(ParameterError):
        IntMatrix(np.ones((2, 2), dtype=np.int64)) @ IntMatrix(np.ones((3, 3), dtype=np.int64))


@given(square(3), square(3), square(3))
@settings(max_examples=60)
def test_matmul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@given(square(2), square(2), square(2), square(2))
@settings(max_examples=60)
def test_kron_mixed_product(a, b, c, d):
    def kron(x, y):
        return IntMatrix(np.kron(x.a, y.a))

    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_huge_entries_stay_exact():
    big = 10**30
    m = IntMatrix([[big, 1], [0, big]])
    out = m @ m
    assert out[0, 0] == big * big
    assert out[0, 1] == 2 * big


# -- matrix-product lanes -----------------------------------------------------

LANE_EDGES = (2**24, 2**53, 2**62)


def test_matmul_lane_thresholds():
    assert matmul_lane(1) is np.float32
    assert matmul_lane(2**24 - 1) is np.float32
    assert matmul_lane(2**24) is np.float64
    assert matmul_lane(2**53 - 1) is np.float64
    assert matmul_lane(2**53) is np.int64
    assert matmul_lane(2**62 - 1) is np.int64
    assert matmul_lane(2**62) is None


def _lane_choosers(node: ast.AST, scope: tuple = ()) -> list[tuple]:
    """The enclosing class and function names of every reference to
    ``matmul_lane`` under ``node``, by name or as an attribute."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out += _lane_choosers(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Name) and child.id == "matmul_lane") or (
            isinstance(child, ast.Attribute) and child.attr == "matmul_lane"
        ):
            out.append(scope)
        out += _lane_choosers(child, scope)
    return out


def test_a_lane_is_chosen_only_in_the_product():
    """Every module of the package is walked: ``matmul_lane`` is used only
    inside ``IntMatrix.__matmul__``, the one place a product's lane is
    chosen."""
    package = Path(sgdd.algebra.__file__).parent
    scopes = {
        (path.name, *scope)
        for path in sorted(package.glob("*.py"))
        for scope in _lane_choosers(ast.parse(path.read_text(), str(path)))
    }
    assert scopes == {("algebra.py", "IntMatrix", "__matmul__")}


def _reference_product(a: IntMatrix, b: IntMatrix) -> list[int]:
    """Big-integer route: object-dtype np.dot over Python integers."""
    return [int(x) for x in np.dot(a.a.astype(object), b.a.astype(object)).ravel()]


@st.composite
def near_lane_edge(draw):
    """(A, B, bound) with max|A| * max|B| * inner just below or just above one
    of the lane edges; entries lean to +-max so sums reach the bound."""
    edge = draw(st.sampled_from(LANE_EDGES))
    above = draw(st.booleans())
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    slack = draw(st.integers(min_value=0, max_value=1000))
    target = edge + slack if above else edge - 1 - slack
    amax = draw(st.integers(min_value=1, max_value=isqrt(target // inner)))
    if above:
        bmax = -(-target // (amax * inner))
    else:
        bmax = target // (amax * inner)

    def matrix(r, c, top):
        entry = st.one_of(st.sampled_from([top, -top, top - 1]), st.integers(min_value=-top, max_value=top))
        data = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        data[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(st.sampled_from([top, -top]))
        return IntMatrix(data)

    a, b = matrix(rows, inner, amax), matrix(inner, cols, bmax)
    bound = amax * bmax * inner
    assert (bound >= edge) == above
    return a, b, bound


@given(near_lane_edge())
@settings(max_examples=300, deadline=None)
def test_every_lane_matches_big_integer_reference(case):
    a, b, bound = case
    assert a.max_abs() * b.max_abs() * a.cols == bound
    out = a @ b
    assert out.entries() == _reference_product(a, b)
    if matmul_lane(bound) is not None:
        assert out.a.dtype == np.int64


# (A, B, lane below): the exact product rounds or wraps in the lane below the
# one the bound picks
ROUNDING_CASES = [
    ([[2**12, 1]], [[2**12], [1]], np.float32),  # 2^24 + 1, bound 2^25
    ([[2**23, 2**23, 1]], [[1], [1], [1]], np.float32),  # 2^24 + 1, bound 3 * 2^23
    ([[2**26, 1]], [[2**27], [1]], np.float64),  # 2^53 + 1, bound 2^55
    ([[2**52, 2**52, -1]], [[1], [1], [-1]], np.float64),  # 2^53 + 1, bound 3 * 2^52
    ([[2**31, 2**31]], [[2**32], [2**32]], np.int64),  # 2^64
    ([[2**62, 2**62]], [[1], [1]], np.int64),  # 2^63
    ([[-(2**62), -(2**62), -1]], [[1], [1], [1]], np.int64),  # -2^63 - 1
]


@pytest.mark.parametrize("a, b, below", ROUNDING_CASES)
def test_lane_edge_results_stay_exact(a, b, below):
    a, b = IntMatrix(a), IntMatrix(b)
    lanes = [np.float32, np.float64, np.int64, None]
    assert matmul_lane(a.max_abs() * b.max_abs() * a.cols) is lanes[lanes.index(below) + 1]
    exact = _reference_product(a, b)
    with np.errstate(over="ignore"):
        wrong = (a.a.astype(below) @ b.a.astype(below)).astype(object)
    assert [int(x) for x in wrong.ravel()] != exact
    assert (a @ b).entries() == exact


def test_min_int64_entry_keeps_its_magnitude():
    m = IntMatrix([[-(2**63)]])
    assert m.a.dtype == np.int64
    assert m.max_abs() == 2**63
    assert (m @ IntMatrix([[2]])).entries() == [-(2**64)]
    assert (m @ IntMatrix([[-1]])).entries() == [2**63]


@pytest.mark.parametrize("data", [[[2**63]], [[2**63, 1]], [[2**64 - 1, -1]], [[-(2**63) - 1, 0]]])
def test_entries_past_int64_are_kept_as_python_integers(data):
    m = IntMatrix(data)
    assert m.a.dtype == object
    assert [m.row(i) for i in range(m.rows)] == data


def test_surd_conjugate_product():
    x = Surd.of(1, 1, 2) * Surd.of(1, -1, 2)
    assert x == Surd.of(-1)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@given(rationals, rationals)
@settings(max_examples=80)
def test_surd_norm_identity(a, b):
    x = Surd.of(a, b, 5) * Surd.of(a, -b, 5)
    assert x == Surd.of(a * a - b * b * 5)


def test_surd_normalization():
    assert Surd.of(0, 1, 4) == Surd.of(2)          # sqrt(4) folds
    assert Surd.of(0, 1, 12) == Surd.of(0, 2, 3)   # square part extracted
    assert Surd.sqrt(Fraction(36, 9)) == Surd.of(2)
    assert Surd.sqrt(125) == Surd.of(0, 5, 5)


def test_surd_sign_and_order():
    assert Surd.of(1, -1, 2).sign() == -1          # 1 - sqrt(2) < 0
    assert Surd.of(3, -2, 2).sign() == 1           # 3 - 2 sqrt(2) > 0
    assert Surd.of(0, 1, 2) > Surd.of(1)
    assert (Surd.of(2, -1, 4)).sign() == 0         # 2 - sqrt(4)


@given(st.integers(-(10**12), 10**12), st.integers(-(10**6), 10**6), st.integers(0, 60))
@settings(max_examples=300)
def test_integer_surd_sign_matches_fraction_sign(a, b, d):
    # any radicand, square factors and 0/1 included; a**2 = b**2 d is
    # reachable only when d is a perfect square
    x = Surd.of(a, b, d)
    assert surd_sign(a, b, d) == x.sign() == fraction_sign(x)
    s = isqrt(d)
    if s * s == d:
        assert surd_sign(-b * s, b, d) == 0


@given(rationals, rationals, st.integers(0, 60))
@settings(max_examples=150)
def test_surd_sign_on_fractions_matches_fraction_sign(a, b, d):
    x = Surd.of(a, b, d)
    assert x.sign() == fraction_sign(x)


def test_surd_division():
    x = Surd.of(0, 1, 5) / Surd.of(0, 1, 5)
    assert x == Surd.of(1)
    y = Surd.of(1, 1, 5) / Surd.of(2)
    assert y == Surd.of(Fraction(1, 2), Fraction(1, 2), 5)


def test_surd_incompatible_radicands():
    with pytest.raises(ParameterError):
        Surd.of(0, 1, 2) + Surd.of(0, 1, 3)


@given(st.integers(min_value=0, max_value=100000))
@settings(max_examples=80)
def test_square_free_decomposition(n):
    s, d = square_free_decomposition(n)
    assert s * s * d == n
    for f in range(2, 40):
        if f * f > d:
            break
        assert d % (f * f)


def test_float_entries_rejected():
    with pytest.raises((ParameterError, TypeError)):
        IntMatrix([[1.5, 0], [0, 1]])
    import numpy as np

    with pytest.raises(ParameterError):
        IntMatrix(np.array([[0.5]]))


# (bound, max|A| for a uint8 or bool A, inner, lane): max|B| is bound / (max|A| inner)
STACKED_EDGES = [
    (2**24 - 1, 255, 3, np.float32),
    (2**24, 128, 4, np.float64),
    (2**53 - 1, 1, 6361, np.float64),
    (2**53, 128, 4, np.int64),
]


def _reference_stack(a: np.ndarray, b: np.ndarray) -> list[int]:
    """Big-integer route: object-dtype products, matrix by matrix."""
    return [int(x) for x in np.matmul(a.astype(object), b.astype(object)).ravel()]


@pytest.mark.parametrize("bound, amax, inner, lane", STACKED_EDGES)
def test_stacked_small_dtype_operands_match_big_integer_reference(bound, amax, inner, lane, monkeypatch):
    """Stacks and uint8/bool operands, held by IntMatrix.view without a copy,
    take the lane of max|A| * max|B| * inner over the whole stack and stay
    exact at its edges, in every broadcast form of a stacked product."""
    bmax = bound // (amax * inner)
    assert amax * bmax * inner == bound and matmul_lane(bound) is lane
    rng = np.random.default_rng(bound % 1000)
    count, rows, cols = 3, 2, 2
    a = rng.integers(0, amax + 1, size=(count, rows, inner), dtype=np.int64)
    a[1] = amax  # full rows, so the sums reach the bound
    b = rng.integers(-bmax, bmax + 1, size=(count, inner, cols), dtype=np.int64)
    b[1, :, 0] = bmax
    b[2, :, 1] = -bmax
    small = a.astype(np.bool_ if amax == 1 else np.uint8)
    lanes = []
    monkeypatch.setattr("sgdd.algebra.matmul_lane", lambda x: lanes.append(matmul_lane(x)) or lanes[-1])
    for left, right in ((small, b), (small, b[1]), (small[1], b), (b.swapaxes(1, 2), small.swapaxes(1, 2))):
        out = IntMatrix.view(left) @ IntMatrix.view(right)
        assert out.a.dtype == np.int64
        assert out.a.ravel().tolist() == _reference_stack(left, right)
    assert max(abs(x) for x in _reference_stack(small, b)) == bound
    assert lanes == [lane] * 4


def test_view_holds_small_dtypes_without_a_copy():
    mask = np.eye(3, dtype=bool)
    digits = np.arange(9, dtype=np.uint8).reshape(3, 3)
    assert IntMatrix.view(mask).a is mask and IntMatrix.view(digits).a is digits
    assert IntMatrix(digits).a.dtype == np.int64  # the constructor still copies to int64
    stack = np.stack([digits, digits.T])
    assert (IntMatrix.view(stack) @ IntMatrix.view(mask)).a.tolist() == stack.astype(np.int64).tolist()
    assert IntMatrix.view(stack).T.a.tolist() == stack.swapaxes(1, 2).tolist()
    with pytest.raises(ParameterError):
        IntMatrix.view(digits.astype(np.float64))
    with pytest.raises(ParameterError):
        IntMatrix.view(stack[None])
    with pytest.raises(ParameterError):
        IntMatrix.view(stack) @ IntMatrix.view(np.stack([digits] * 3))


def test_first_difference_is_row_major():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 0], [0, 4]])
    assert first_differences(a.a, b.a) == [(0, 1)]
    assert first_differences(a.a, a.a) == [None]
    assert first_differences(a.a, np.array([[1, 2], [3, 5]], dtype=object)) == [(1, 1)]
    assert first_differences(IntMatrix([[2**64, 0], [1, 1]]).a, a.a) == [(0, 0)]
    assert first_differences(a.a, 1) == [(0, 1)]
    assert first_differences(IntMatrix([[1, 2, 3], [4, 5, 6]]).a, IntMatrix([[1, 2, 3], [0, 5, 0]]).a) == [(1, 0)]
    # per member of a stack, against one matrix or a stack of them
    stack = np.array([[[1, 2], [3, 4]], [[1, 0], [0, 4]], [[0, 2], [3, 0]]])
    assert first_differences(stack, a.a) == [None, (0, 1), (0, 0)]
    assert first_differences(stack, stack[::-1]) == [(0, 0), None, (0, 0)]
    assert first_differences(stack.reshape(3, 1, 2, 2), b.a) == [(0, 1), None, (0, 0)]


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=60)
def test_surd_division_inverts_multiplication(a, b, c, d):
    x = Surd.of(a, b, 7)
    y = Surd.of(c, d, 7)
    if y.sign() == 0:
        return
    assert (x * y) / y == x


def test_rational_surd_hashes_like_its_fraction():
    assert Surd.of(3) == 3
    assert hash(Surd.of(3)) == hash(3)
    assert hash(Surd.of(Fraction(-2, 7))) == hash(Fraction(-2, 7))
    assert len({Surd.of(3), 3}) == 1
    assert Surd.of(0, 1, 4) in {2}                 # sqrt(4) folds to 2


def _is_normal(x: Surd) -> bool:
    if not (isinstance(x.a, Fraction) and isinstance(x.b, Fraction)):
        return False
    if x.b == 0:
        return x.d == 0
    return x.d > 1 and square_free_decomposition(x.d) == (1, x.d)


SURD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


@st.composite
def surd_operands(draw):
    # any radicand, square factors and 0/1 included, normalised by Surd.of;
    # the other operand shares it or is rational
    d = draw(st.integers(min_value=0, max_value=60))
    x = Surd.of(draw(rationals), draw(rationals), d)
    y = draw(st.one_of(st.builds(Surd.of, rationals, rationals, st.just(d)), rationals, small_int))
    return x, y


@given(surd_operands(), st.sampled_from(SURD_OPERATORS))
@settings(max_examples=150)
def test_surd_operators_return_normal_form(operands, op):
    x, y = operands
    divisor = x if op == "__rtruediv__" else y
    if op.endswith("truediv__") and divisor == 0:
        return
    out = getattr(x, op)(y)
    assert _is_normal(out)
    assert out == Surd.of(out.a, out.b, out.d)
