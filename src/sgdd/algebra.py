"""Exact scalar and matrix arithmetic.

Scalars are Python integers and :class:`fractions.Fraction`.  The Krein
parameters are integer numerators a + b*sqrt(D) signed by ``surd_sign``,
which decides the sign by integer comparison, and the closed-form triples
are Fractions; the 6x6 eigenmatrix algebra of ``sgdd.schemes`` runs on
such integer numerators.  :class:`Surd` (elements a + b*sqrt(D) of a real
quadratic extension) has no caller in the package: it stays only while
``perfbench/tracer.py`` patches its operators (ROADMAP item 1, step c).
Matrices are :class:`IntMatrix` (dense integer matrices).  Every operation is
exact.

IntMatrix is the package's one exact matrix-product kernel for matrices of
order |X|.  The 6x6 algebra of ``sgdd.schemes`` holds its numerators as
object arrays of Python integers and runs each of its checks in one of two
lanes, chosen by ``int_lane`` from an a-priori bound on every entry and
partial sum, formed from the operands' largest magnitudes: int64 below
2**62, else the Python integers themselves, the reference.  IntMatrix is
backed by a numpy array: int64 while the entries fit, an object-dtype array
of Python integers otherwise (entries read from files may be arbitrarily
large).  ``IntMatrix.view`` holds an array as given, with no copy, such as
0/1 masks and digit blocks as ``bool`` or ``uint8``.  The array is one
matrix or a stack of them, shape (p, r, c): a product of two stacks
multiplies them member by member, and a single matrix against a stack
multiplies it with every member, so a certifier forms a whole family of
products in one call.  Its only arithmetic is the product; the right-hand
sides of identities are not built from it elementwise but looked up on a
label array in the product's lane (``lane_table``,
``sgdd.designs.stack_differences``).

A matrix product takes one of two lanes, chosen by the bound
max|A| * max|B| * inner on every entry and every partial sum, over the
whole stack: float32 BLAS GEMM below 2**24, else Python integers (object
dtype), the exact reference.  Every certified identity is a product of
0/1, +-1 or one-hot blocks, far below 2**24.  The float32 lane is exact:
every operand, every product of two entries and every partial sum that any
summation order (or fused multiply-add) can form is an integer of
magnitude at most the bound, which float32 represents, so no step rounds
(FFLAS-FFPACK; Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).  A float32
product is thus the same on any number of BLAS threads; it runs on one
below SERIAL_MADDS multiply-adds (``blas_threads``).

A product keeps the array its lane produced as ``IntMatrix.lane``: float32,
or from the Python-integer lane int64 below 2**62 (``_wrap``) and Python
integers past it.  ``.a`` widens a float32 array to int64 on first read, so
a caller that computes with a product below 2**62 sees int64.  Certifiers
compare the lane array itself with their coefficients cast to its dtype by
``lane_table``, exactly in any of these dtypes, with no int64 copy; int64
is also the dtype of the sums some certifiers compare, such as the Sigma C_i
of an auxiliary set.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import ParameterError

# int64 products are exact below this; leave headroom for accumulation.
_INT64_SAFE = 2**62

# what IntMatrix.view holds as given: 0/1 masks and digit blocks need no
# int64 copy to be multiplied
_VIEWABLE = (np.dtype(np.int64), np.dtype(object), np.dtype(np.uint8), np.dtype(np.bool_))

# float32 holds every integer below this exactly
_FLOAT32_EXACT = 2**24

# a lane dtype -> the exclusive bound on the magnitude of its entries, and a
# value no entry in that lane takes
_LANE_LIMIT = {np.dtype(np.float32): (_FLOAT32_EXACT, np.nan), np.dtype(np.int64): (_INT64_SAFE, np.iinfo(np.int64).min)}

_ZERO = Fraction(0)


def int_lane(bound: int) -> np.dtype:
    """The dtype of exact integer arithmetic whose every entry and partial
    sum is at most ``bound`` in magnitude: int64 below 2**62, else object
    (Python integers), the reference."""
    return np.dtype(np.int64) if bound < _INT64_SAFE else np.dtype(object)


def matmul_lane(bound: int):
    """The dtype an IntMatrix product with the given a-priori bound is
    computed in: float32 below 2**24, ``None`` for Python integers."""
    return np.float32 if bound < _FLOAT32_EXACT else None


# float-lane products below this many multiply-adds run on one BLAS thread:
# a desk-scale product is done before a parked second thread wakes, so
# handing it over only costs time (a fresh gf8-448 pass after 25 s idle:
# 1.05-1.35 s on two threads, 0.19-0.28 s under this rule)
SERIAL_MADDS = 2**27

# OpenBLAS's (get, set) thread-count calls: None until the first float-lane
# product looks them up, () when numpy's BLAS has none
_blas_thread_calls = None


def blas_threads(madds: int) -> int | None:
    """The BLAS thread count of a float-lane product of ``madds``
    multiply-adds (every member of a stack counted): 1 below SERIAL_MADDS,
    None at or above it, for the count the library holds."""
    return 1 if madds < SERIAL_MADDS else None


def _find_blas_thread_calls() -> tuple:
    """OpenBLAS's thread-count calls, found through the numpy extension that
    links it (the 64-bit-integer and scipy-openblas builds rename them), or
    () for another BLAS or numpy build."""
    import ctypes
    import sys

    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get("numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return ()
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get, put = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                put.restype, put.argtypes = None, (ctypes.c_int,)
                return get, put
    return ()


def _float_matmul(left: np.ndarray, right: np.ndarray, madds: int) -> np.ndarray:
    """``np.matmul`` on ``blas_threads(madds)`` BLAS threads, the caller's
    count restored after."""
    global _blas_thread_calls
    if _blas_thread_calls is None:
        _blas_thread_calls = _find_blas_thread_calls()
    threads = blas_threads(madds)
    if threads is None or not _blas_thread_calls:
        return np.matmul(left, right)
    get, put = _blas_thread_calls
    before = get()
    if before == threads:
        return np.matmul(left, right)
    put(threads)
    try:
        return np.matmul(left, right)
    finally:
        put(before)


def lane_table(coeffs, dtype) -> np.ndarray:
    """The integers ``coeffs`` as an array of ``dtype``, the dtype of a
    product's lane array (``IntMatrix.lane``), so that the lane array can be
    compared with a lookup in it exactly.

    Every entry of a float32 product is an integer of magnitude at most the
    product's bound, below 2**24; an exact product held as int64 (and an
    int64 sum) has every entry below 2**62.  The dtype holds every integer
    below that limit exactly.  A coefficient below the limit is cast
    exactly, so it equals an entry exactly when the integers agree.  One at
    or past the limit can equal no entry, so it becomes a value that no
    entry takes: NaN for float32, -2**63 for int64.  Past 2**62 the lane
    holds Python integers, and so does the table."""
    coeffs = [int(c) for c in coeffs]
    dtype = np.dtype(dtype)
    if dtype not in _LANE_LIMIT:
        table = np.empty(len(coeffs), dtype=object)
        table[:] = coeffs
        return table
    limit, no_entry = _LANE_LIMIT[dtype]
    return np.array([c if abs(c) < limit else no_entry for c in coeffs], dtype=dtype)


def first_differences(actual: np.ndarray, expected) -> list[tuple[int, int] | None]:
    """For each matrix of the stack ``actual`` (shape (..., r, c), matrices
    in row-major order), the row-major first coordinate where it differs
    from ``expected`` (an array that broadcasts against the stack), or None
    where it agrees everywhere."""
    rows, cols = actual.shape[-2:]
    diff = (actual != expected).reshape(-1, rows * cols)
    return [divmod(int(at), cols) if bad else None for at, bad in zip(diff.argmax(axis=1), diff.any(axis=1))]


def all_zero_one(arr: np.ndarray) -> bool:
    """Whether every entry of the integer or boolean array ``arr`` is 0 or
    1, an empty array included: by two reductions, ``min() >= 0`` (not read
    for an unsigned or boolean dtype) and ``max() <= 1``, where
    ``(arr == 0) | (arr == 1)`` would form three temporaries of its size."""
    return arr.size == 0 or bool((arr.dtype.kind in "bu" or arr.min() >= 0) and arr.max() <= 1)


def square_free_decomposition(value: int) -> tuple[int, int]:
    """Write ``value`` = s**2 * d with d square-free; return ``(s, d)``."""
    if value < 0:
        raise ParameterError("square_free_decomposition needs a non-negative integer")
    if value == 0:
        return 0, 0
    r = isqrt(value)
    if r * r == value:
        return r, 1
    s, d, rest = 1, 1, value
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * rest


def surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and d >= 0, by integer
    comparison: when a and b have opposite signs, the larger of a**2 and
    b**2 * d decides (Cohen, A Course in Computational Algebraic Number
    Theory, GTM 138, ch. 5)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or d == 0:
        return sa
    if sa in (0, sb):
        return sb
    lhs, rhs = a * a, b * b * d
    return sa if lhs > rhs else sb if lhs < rhs else 0


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


@dataclass(frozen=True)
class Surd:
    """Exact element a + b*sqrt(d) with rational a, b and square-free d >= 0.

    Normal form: b == 0 implies d == 0, and d is never 0 or 1 when b != 0.
    Two surds interoperate when their radicands agree or one side is rational.
    """

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def of(a, b=0, d: int = 0) -> "Surd":
        a = _as_fraction(a)
        b = _as_fraction(b)
        if d < 0:
            raise ParameterError("negative radicand: only real quadratic extensions are supported")
        if b == 0:
            return Surd(a, Fraction(0), 0)
        s, d0 = square_free_decomposition(d)
        b = b * s
        if d0 in (0, 1):
            return Surd(a + b * (1 if d0 == 1 else 0), Fraction(0), 0)
        return Surd(a, b, d0)

    @staticmethod
    def sqrt(value) -> "Surd":
        """Exact square root of a non-negative rational, as s*sqrt(d)."""
        value = _as_fraction(value)
        if value < 0:
            raise ParameterError("cannot take a real square root of a negative rational")
        num, den = value.numerator, value.denominator
        sn, dn = square_free_decomposition(num * den)
        return Surd.of(0, Fraction(sn, den), dn)

    # -- predicates ------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ParameterError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        # a and b over one positive denominator
        return surd_sign(self.a.numerator * self.b.denominator, self.b.numerator * self.a.denominator, self.d)

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _coerce(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        return Surd.of(_as_fraction(x))

    @staticmethod
    def _reduced(a: Fraction, b: Fraction, d: int) -> "Surd":
        """a + b*sqrt(d) in normal form, for a radicand d taken from a
        normal-form operand: d is already square-free, so only b == 0 is
        collapsed."""
        return Surd(a, b, d) if b else Surd(a, _ZERO, 0)

    def _common_d(self, other: "Surd") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ParameterError(f"incompatible radicands: sqrt({self.d}) vs sqrt({other.d})")
        return self.d

    def __add__(self, other):
        other = Surd._coerce(other)
        d = self._common_d(other)
        return Surd._reduced(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-Surd._coerce(other))

    def __rsub__(self, other):
        return Surd._coerce(other) + (-self)

    def __mul__(self, other):
        other = Surd._coerce(other)
        d = self._common_d(other)
        return Surd._reduced(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Surd._coerce(other)
        if other.sign() == 0:
            raise ZeroDivisionError("surd division by zero")
        d = self._common_d(other)
        norm = other.a * other.a - other.b * other.b * d
        num = self * Surd._reduced(other.a, -other.b, d)
        return Surd._reduced(num.a / norm, num.b / norm, d)

    def __rtruediv__(self, other):
        return Surd._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, np.integer, Fraction)):
            other = Surd._coerce(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __lt__(self, other):
        return (self - Surd._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - Surd._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - Surd._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - Surd._coerce(other)).sign() >= 0

    def __hash__(self):
        # equal values hash alike: a rational surd equals its Fraction
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.b == 0:
            return f"Surd({self.a})"
        return f"Surd({self.a} + {self.b}*sqrt({self.d}))"


class IntMatrix:
    """Dense exact integer matrix.

    ``lane`` is the array the entries are held in: as built or viewed, or,
    for a product, as its lane computed it.  ``a`` is the same array, except
    that a product held in the float32 lane is widened to int64 on first read."""

    __slots__ = ("lane", "_a")

    def __init__(self, data):
        if isinstance(data, IntMatrix):
            arr = data.a
        else:
            arr = self._build_array(data)
        if arr.ndim not in (2, 3):
            raise ParameterError("IntMatrix must be a matrix or a stack of matrices")
        self.lane = self._a = arr

    @staticmethod
    def view(arr: np.ndarray) -> "IntMatrix":
        """An IntMatrix over ``arr`` itself, with no copy and no check of its
        entries: a matrix or a stack of int64, Python-integer, uint8 or bool
        entries, such as 0/1 masks, digit blocks and slices of a stack."""
        if arr.dtype not in _VIEWABLE or arr.ndim not in (2, 3):
            raise ParameterError("IntMatrix.view takes a matrix or a stack of int64, object, uint8 or bool entries")
        return IntMatrix._held(arr, arr)

    @staticmethod
    def _held(lane: np.ndarray, a: np.ndarray | None) -> "IntMatrix":
        m = IntMatrix.__new__(IntMatrix)
        m.lane, m._a = lane, a
        return m

    @property
    def a(self) -> np.ndarray:
        """The entries: int64 for a product below 2**62, widened from its
        lane array on first read and kept; otherwise the array as held."""
        if self._a is None:
            self._a = self.lane.astype(np.int64)
        return self._a

    @staticmethod
    def _build_array(data) -> np.ndarray:
        arr = np.asarray(data)
        if arr.dtype.kind == "f" and not isinstance(data, np.ndarray):
            # numpy reads Python integers past int64 as float64 when they sit
            # beside small ones; rebuild from the Python objects.
            arr = np.array(data, dtype=object)
        if arr.dtype.kind == "u" and arr.size and int(arr.max()) > np.iinfo(np.int64).max:
            arr = arr.astype(object)
        if arr.dtype == np.int64 or arr.dtype == object:
            pass
        elif arr.dtype.kind in "biu":
            arr = arr.astype(np.int64)
        else:
            raise ParameterError("IntMatrix entries must be integers")
        if arr.dtype == object:
            out = np.empty(arr.shape, dtype=object)
            try:
                for idx in np.ndindex(*arr.shape):
                    out[idx] = operator.index(arr[idx])
            except TypeError as exc:
                raise ParameterError("IntMatrix entries must be integers") from exc
            arr = out
        return arr

    # -- shape and access -------------------------------------------------
    @property
    def rows(self) -> int:
        return self.lane.shape[-2]

    @property
    def cols(self) -> int:
        return self.lane.shape[-1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, idx):
        return int(self.lane[idx])

    def row(self, i: int) -> list[int]:
        return [int(x) for x in self.lane[i]]

    def entries(self) -> list[int]:
        """Row-major entry list."""
        return [int(x) for x in self.lane.ravel()]

    def max_abs(self) -> int:
        if self.lane.size == 0:
            return 0
        # not np.abs: it wraps -2**63 to itself in int64
        return max(-int(self.lane.min()), int(self.lane.max()))

    # -- arithmetic -------------------------------------------------------
    @staticmethod
    def _wrap(arr: np.ndarray) -> "IntMatrix":
        """A product of Python integers, held as int64 when every entry is
        below 2**62."""
        if not arr.size or int(np.abs(arr).max()) < _INT64_SAFE:
            arr = arr.astype(np.int64)
        return IntMatrix(arr)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        stacks = {len(m.lane) for m in (self, other) if m.lane.ndim == 3}
        if self.cols != other.rows or len(stacks) > 1:
            raise ParameterError("dimension mismatch in matrix product")
        bound = max(self.max_abs(), 1) * max(other.max_abs(), 1) * max(self.cols, 1)
        if matmul_lane(bound) is None:
            return self._wrap(np.matmul(self.a.astype(object, copy=False), other.a.astype(object, copy=False)))
        left, right = self.lane.astype(np.float32, copy=False), other.lane.astype(np.float32, copy=False)
        members = stacks.pop() if stacks else 1
        return IntMatrix._held(_float_matmul(left, right, members * self.rows * self.cols * other.cols), None)

    @property
    def T(self) -> "IntMatrix":
        """The transpose of the matrix, or of every matrix of a stack: a view
        of the held arrays, so a product's lane is kept, not widened."""
        wide = None if self._a is None else np.swapaxes(self._a, -1, -2)
        return IntMatrix._held(np.swapaxes(self.lane, -1, -2), wide)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.a.shape == other.a.shape and bool((self.a == other.a).all())

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"
