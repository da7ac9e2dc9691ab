"""Reference route for the single-design constructions: each design built
block by block with ``np.block`` (conference, generalized conference) or
by Kronecker sums (twin pair) as an int64 array, and the partial
complement as the int64 difference J - K - A.  The tests compare ``sgdd``,
which builds each design as uint8 by one gather, against it; certification
is not repeated here.
"""

import numpy as np

from sgdd.algebra import IntMatrix
from sgdd.designs import GddParams, group_labels
from sgdd.linked import GcmMatrix
from sgdd.resolvable import aux_from_hadamard


def conference_design(c: IntMatrix) -> np.ndarray:
    """Replace 1 -> I_2, -1 -> J_2 - I_2, 0 -> O_2."""
    i2 = np.eye(2, dtype=np.int64)
    lut = {1: i2, -1: np.ones((2, 2), dtype=np.int64) - i2, 0: np.zeros((2, 2), dtype=np.int64)}
    return np.block([[lut[c[i, j]] for j in range(c.cols)] for i in range(c.rows)])


def gcm_design(gcm: GcmMatrix) -> np.ndarray:
    """Entry x -> the shift a -> a + x mod g, -1 -> O_g."""
    g = gcm.g
    rep = {x: np.roll(np.eye(g, dtype=np.int64), x, axis=1) for x in range(g)}
    rep[-1] = np.zeros((g, g), dtype=np.int64)
    return np.block([[rep[x] for x in row] for row in gcm.entries])


def twin_designs(h: IntMatrix, ws: list[IntMatrix]) -> tuple[np.ndarray, np.ndarray]:
    """A+ = sum W_{i,1} (x) C_i + W_{i,2} (x) (J - C_i) and A-, the same
    with C_i and J - C_i swapped."""
    ell, n = ws[0].rows, h.rows
    plus = np.zeros((ell * n, ell * n), dtype=np.int64)
    minus = np.zeros((ell * n, ell * n), dtype=np.int64)
    for w, c in zip(ws, aux_from_hadamard(h).stack.astype(np.int64)):
        pos, neg = (w.a == 1).astype(np.int64), (w.a == -1).astype(np.int64)
        plus += np.kron(pos, c) + np.kron(neg, 1 - c)
        minus += np.kron(pos, 1 - c) + np.kron(neg, c)
    return plus, minus


def partial_complement(a: np.ndarray, p: GddParams) -> np.ndarray:
    """J - K - A."""
    return (group_labels(p.m, p.n) == 0) - a.astype(np.int64)
