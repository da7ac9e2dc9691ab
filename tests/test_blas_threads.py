"""The BLAS thread rule of float-lane products (``algebra.blas_threads``):
one thread below ``SERIAL_MADDS`` multiply-adds, the library's count at or
above it, with OpenBLAS's thread-count calls looked up on the first
float-lane product and the caller's count restored after each one."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgdd.algebra as algebra
from sgdd.algebra import SERIAL_MADDS, IntMatrix, blas_threads
from sgdd.cli import main
from sgdd.linked import verify_linked_system
from sgdd.schemes import CLASSES, compute_intersection_numbers

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def madds(monkeypatch):
    """The multiply-adds of every float-lane product made while the test
    runs, as handed to ``blas_threads``."""
    seen = []
    rule = algebra.blas_threads

    def recorded(count):
        seen.append(count)
        return rule(count)

    monkeypatch.setattr(algebra, "blas_threads", recorded)
    return seen


@pytest.fixture
def thread_calls(monkeypatch):
    """A spy pair in place of OpenBLAS's (get, set): the caller's count is
    ``state["count"]``, and every set is logged."""
    state = {"count": 3, "set": []}

    def put(n):
        state["set"].append(n)
        state["count"] = n

    monkeypatch.setattr(algebra, "_blas_thread_calls", (lambda: state["count"], put))
    return state


def _zero_one(rng, *shape):
    return IntMatrix.view(rng.integers(0, 2, size=shape, dtype=np.uint8))


def test_threshold_edges():
    assert SERIAL_MADDS == 2**27
    assert blas_threads(SERIAL_MADDS - 1) == 1
    assert blas_threads(SERIAL_MADDS) is None
    assert blas_threads(0) == 1


def test_stacked_products_count_every_member(madds):
    rng = np.random.default_rng(1)
    stack_a, stack_b = _zero_one(rng, 3, 4, 5), _zero_one(rng, 3, 5, 6)
    one_a, one_b = _zero_one(rng, 4, 5), _zero_one(rng, 5, 6)
    for left, right in ((stack_a, stack_b), (stack_a, one_b), (one_a, stack_b)):
        left @ right
    one_a @ one_b
    assert madds == [3 * 4 * 5 * 6] * 3 + [4 * 5 * 6]


def test_int64_and_object_lanes_take_no_thread_rule(madds):
    wide = IntMatrix([[2**26, 1], [1, 2**26]])
    assert (wide @ wide).lane.dtype == np.int64
    huge = IntMatrix([[2**62, 1], [1, 1]])
    assert (huge @ huge).lane.dtype == object
    assert madds == []


def test_product_below_threshold_runs_on_one_thread_and_restores(thread_calls):
    rng = np.random.default_rng(2)
    _zero_one(rng, 8, 8) @ _zero_one(rng, 8, 8)
    assert thread_calls["set"] == [1, 3]
    assert thread_calls["count"] == 3


def test_product_at_threshold_keeps_the_callers_count(thread_calls, monkeypatch):
    monkeypatch.setattr(algebra, "SERIAL_MADDS", 8 * 8 * 8)
    rng = np.random.default_rng(3)
    _zero_one(rng, 8, 8) @ _zero_one(rng, 8, 8)
    _zero_one(rng, 8, 7) @ _zero_one(rng, 7, 8)
    assert thread_calls["set"] == [1, 3]


def test_caller_on_one_thread_is_left_alone(thread_calls):
    thread_calls["count"] = 1
    rng = np.random.default_rng(4)
    _zero_one(rng, 8, 8) @ _zero_one(rng, 8, 8)
    assert thread_calls["set"] == []


def test_missing_symbol_calls_nothing(monkeypatch):
    """A library with the get call but no set call is no thread control:
    neither is called, and products stay exact."""
    called = []

    class OneSymbol:
        def __init__(self, path):
            self.scipy_openblas_get_num_threads64_ = lambda: called.append("get") or 2

        def __getattr__(self, name):
            raise AttributeError(name)

    monkeypatch.setattr(ctypes, "CDLL", OneSymbol)
    monkeypatch.setattr(algebra, "_blas_thread_calls", None)
    rng = np.random.default_rng(5)
    a, b = _zero_one(rng, 6, 7), _zero_one(rng, 7, 5)
    assert np.array_equal((a @ b).a, a.a @ b.a)
    assert algebra._blas_thread_calls == ()
    assert called == []


def test_unloadable_library_is_no_thread_control(monkeypatch):
    def refused(path):
        raise OSError(path)

    monkeypatch.setattr(ctypes, "CDLL", refused)
    assert algebra._find_blas_thread_calls() == ()


def test_real_library_count_is_restored():
    calls = algebra._find_blas_thread_calls()
    if not calls:
        pytest.skip("numpy's BLAS exposes no thread-count calls")
    get, put = calls
    before = get()
    rng = np.random.default_rng(6)
    try:
        for caller in {1, before}:
            put(caller)
            _zero_one(rng, 64, 64) @ _zero_one(rng, 64, 64)
            assert get() == caller
    finally:
        put(before)


def _operands(rng, lane):
    """2-D and stacked operands whose products take ``lane``: 0/1 for
    float32, entries up to 2**14 for float64."""
    if lane is np.float32:
        return [(_zero_one(rng, 96, 96), _zero_one(rng, 96, 96)), (_zero_one(rng, 3, 64, 96), _zero_one(rng, 3, 96, 80))]
    big = lambda *shape: IntMatrix(rng.integers(-(2**14), 2**14, size=shape))  # noqa: E731
    return [(big(96, 96), big(96, 96)), (big(3, 64, 96), big(3, 96, 80))]


@pytest.mark.parametrize("lane", [np.float32, np.float64])
def test_one_thread_and_default_count_agree_with_object_lane(lane, monkeypatch):
    rng = np.random.default_rng(7)
    for left, right in _operands(rng, lane):
        reference = np.matmul(left.a.astype(object), right.a.astype(object))
        lanes = []
        for serial in (2**62, 0):  # every product on one thread, then on the library's count
            monkeypatch.setattr(algebra, "SERIAL_MADDS", serial)
            prod = left @ right
            assert prod.lane.dtype == lane
            lanes.append(prod.lane)
        assert np.array_equal(lanes[0], lanes[1])
        assert np.array_equal(lanes[0].astype(np.int64).astype(object), reference)


def test_gf8_448_products_stay_on_one_thread(madds, sys64, scheme448, corrupt_system):
    """The GF(8) certifiers, on the orbit route and the full one, and the
    dense check of order |X| = 448, the largest product of the gf8-448
    pipeline (448**3 = 89 915 392 multiply-adds)."""
    assert verify_linked_system(sys64).ok
    assert not verify_linked_system(corrupt_system(sys64, 7)[0]).ok
    classes = [scheme448.relation == i for i in range(CLASSES)]
    assert compute_intersection_numbers(classes)[0] == scheme448.p
    assert max(madds) == 448**3 == 89_915_392
    assert all(blas_threads(count) == 1 for count in madds)


def test_import_scan_and_help_look_up_no_blas():
    """In a fresh interpreter, importing the CLI and running ``scan`` and
    ``-h`` leave the lookup undone."""
    code = (
        "import contextlib, io\n"
        "import sgdd.algebra as algebra\n"
        "from sgdd.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = main(['scan', 'table1', '--vmax', '1000']), main(['-h'])\n"
        "print(codes, algebra._blas_thread_calls)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "(0, 0) None"


def test_lookup_runs_once_on_the_first_float_lane_product(monkeypatch, capsys):
    lookups = []
    monkeypatch.setattr(algebra, "_blas_thread_calls", None)
    monkeypatch.setattr(algebra, "_find_blas_thread_calls", lambda: lookups.append(1) or ())
    assert main(["scan", "table1", "--vmax", "1000"]) == 0
    assert main(["-h"]) == 0
    assert lookups == []
    rng = np.random.default_rng(8)
    for _ in range(2):
        _zero_one(rng, 4, 4) @ _zero_one(rng, 4, 4)
    assert lookups == [1]
