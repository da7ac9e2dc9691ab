"""Classical matrix families used as raw material by the constructions:
Hadamard matrices (Sylvester doubling and quadratic-residue borders),
Paley conference matrices, and signed-permutation weighing matrices.  None
is checked where it is made: each construction checks what it consumes
(``is_hadamard``, ``is_weighing``, ``linked.is_conference``).
"""

from __future__ import annotations

import numpy as np

from .algebra import IntMatrix
from .designs import stack_differences
from .errors import ParameterError
from .gf import factor_prime_power, gf_from_order


def is_hadamard(h: IntMatrix) -> bool:
    """A weighing matrix of full weight: H H^T = n I leaves no row room
    for a zero entry."""
    return is_weighing(h, h.rows)


def is_scaled_identity(prod: IntMatrix, c: int) -> bool:
    """prod = c I, compared in the product's lane."""
    return stack_differences(prod.lane, np.eye(prod.rows, dtype=np.uint8), (0, c)) == [None]


def normalize_hadamard(h: IntMatrix) -> IntMatrix:
    """Negate columns, then rows, so the first row and column are all-ones."""
    arr = h.a.copy()
    arr = arr * arr[0:1, :]          # column signs from row 0
    arr = arr * arr[:, 0:1]          # row signs from column 0
    return IntMatrix(arr)


def _jacobsthal(q: int) -> np.ndarray:
    """The quadratic character of a_i - a_j over GF(q): 1 on a nonzero
    square, -1 on a non-square, 0 on the diagonal."""
    ctx = gf_from_order(q)
    square = np.zeros(q, dtype=bool)
    square[[ctx.mul[x][x] for x in range(1, q)]] = True
    arr = np.where(square[np.array(ctx.add)[:, ctx.neg]], 1, -1)
    np.fill_diagonal(arr, 0)
    return arr


def paley_conference_matrix(order: int) -> IntMatrix:
    """Symmetric conference matrix of the given order (q = order-1 a prime
    power with q = 1 mod 4), bordered quadratic-residue construction."""
    if order == 2:
        return IntMatrix([[0, 1], [1, 0]])
    q = order - 1
    if q % 4 != 1:
        raise ParameterError(f"no Paley conference matrix of order {order}: {q} != 1 mod 4")
    qm = _jacobsthal(q)
    arr = np.zeros((order, order), dtype=np.int64)
    arr[0, 1:] = 1
    arr[1:, 0] = 1
    arr[1:, 1:] = qm
    return IntMatrix(arr)


def _paley_hadamard(order: int) -> IntMatrix:
    q = order - 1
    arr = np.zeros((order, order), dtype=np.int64)
    arr[0, 1:] = 1
    arr[1:, 0] = -1
    arr[1:, 1:] = _jacobsthal(q)
    return IntMatrix(arr + np.eye(order, dtype=np.int64))


def _catalog_hadamard(order: int) -> IntMatrix | None:
    if order == 1:
        return IntMatrix([[1]])
    if order == 2:
        return IntMatrix([[1, 1], [1, -1]])
    if order < 1 or order % 4 != 0:
        return None
    try:
        factor_prime_power(order - 1)  # order - 1 = 3 mod 4
    except ParameterError:
        half = _catalog_hadamard(order // 2)
        return None if half is None else normalize_hadamard(IntMatrix(np.kron([[1, 1], [1, -1]], half.a)))
    return normalize_hadamard(_paley_hadamard(order))


def hadamard_matrix(order: int) -> IntMatrix:
    """A normalized Hadamard matrix from the small catalog: Paley I at
    order q + 1 for a prime power q = 3 mod 4, else Sylvester doubling of
    order / 2.  Raises if the catalog has no recipe; externally supplied
    matrices can be used instead."""
    h = _catalog_hadamard(order)
    if h is None:
        raise ParameterError(f"no Hadamard matrix of order {order}")
    return h


def is_weighing(w: IntMatrix, weight: int | None = None) -> bool:
    """Square with entries 0, 1, -1 and W W^T = weight I (the weight read
    off W W^T when not given)."""
    if not w.is_square:
        return False
    if not bool(((w.a == 0) | (w.a == 1) | (w.a == -1)).all()):
        return False
    prod = w @ w.T
    if weight is None:
        weight = prod[0, 0]
    return is_scaled_identity(prod, weight)


def signed_permutation_weighing_set(order: int) -> list[IntMatrix]:
    """order-1 disjoint weight-1 weighing matrices summing (in absolute
    value) to J - I: the nonzero powers of the full cycle."""
    if order < 2:
        raise ParameterError("need order >= 2")
    base = np.roll(np.eye(order, dtype=np.int64), 1, axis=1)
    out = []
    cur = np.eye(order, dtype=np.int64)
    for _ in range(order - 1):
        cur = cur @ base
        out.append(IntMatrix(cur.copy()))
    return out
