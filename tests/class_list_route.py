"""Reference route for the partition axioms and the first-pair intersection
numbers: a scheme held as a list of 0/1 ``IntMatrix`` classes, one int64
matrix per class, and the classes of a linked system's scheme assembled as
int64 Kronecker products.  The tests compare ``sgdd.schemes``, which holds a
scheme as one class-label array R, against it."""

import numpy as np

from block_route import compare
from sgdd.algebra import IntMatrix
from sgdd.designs import Certificate, group_labels
from sgdd.linked import LinkedSystemII


def classes_of(relation: np.ndarray) -> list[np.ndarray]:
    """The class matrices [R == i] of a label array, as uint8 arrays: the
    form a scheme file's classes are read into."""
    return [(relation == i).astype(np.uint8) for i in range(int(relation.max()) + 1)]


def class_matrices(classes) -> list[IntMatrix]:
    return [IntMatrix(a) for a in classes]


def partition_certificate(mats: list[IntMatrix]) -> Certificate:
    """A_0 = I, every class a symmetric square 0/1 matrix, sum A_i = J and
    no class empty, checked class by class on int64 matrices."""
    cert = Certificate("association scheme axioms")
    size = mats[0].rows
    if mats[0] != IntMatrix(np.eye(size, dtype=np.int64)):
        cert.failed("A_0 = I", (0, 0))
    else:
        cert.passed("A_0 = I")
    for idx, mat in enumerate(mats):
        if not (mat.is_square and mat.rows == size and mat.is_zero_one()):
            cert.failed(f"A_{idx} is a square 0/1 matrix of order {size}")
            return cert
        if not (mat.a == mat.a.T).all():
            cert.failed(f"A_{idx} is symmetric")
    total = IntMatrix(sum(mat.a for mat in mats))
    compare(cert, "sum A_i = J", total, np.broadcast_to(1, (size, size)))
    if idx_zero := [i for i, mat in enumerate(mats) if not mat.a.any()]:
        cert.failed(f"classes {idx_zero} are empty")
    return cert


def first_pair_numbers(mats: list[IntMatrix]) -> list[list[list[int]]]:
    """p_{i,j}^k = (A_i A_j)[x, y] at class k's first pair (x, y), as dot
    products of row x of A_i with row y of A_j."""
    xs, ys = np.divmod([int(mat.a.argmax()) for mat in mats], mats[0].rows)
    at = np.einsum("ikz,jkz->ijk", np.stack([mat.a[xs] for mat in mats]), np.stack([mat.a[ys] for mat in mats]))
    return at.tolist()


def constant_on_classes(mats: list[IntMatrix], p, cert: Certificate) -> bool:
    """A_i A_j = sum_k p_{i,j}^k A_k entrywise for 1 <= i <= j, against the
    labels rebuilt as sum_k k A_k; the first failing pair and class go to
    ``cert``."""
    d1 = len(mats)
    labels = sum(k * mat.a for k, mat in enumerate(mats))
    for i in range(1, d1):
        for j in range(i, d1):
            prod = (mats[i] @ mats[j]).a
            coeffs = np.array(p[i][j])
            if not (prod == coeffs[labels]).all():
                k = next(k for k in range(d1) if not (prod[mats[k].a == 1] == coeffs[k]).all())
                cert.failed(f"A_{i} A_{j} is not constant on class {k}")
                return False
    return True


def intersection_numbers(mats: list[IntMatrix]):
    """The dense route on a class list: the partition axioms, p at the first
    pairs, then every product checked against p."""
    cert = partition_certificate(mats)
    if not cert.ok:
        return None, cert
    p = first_pair_numbers(mats)
    if not constant_on_classes(mats, p, cert):
        return None, cert
    cert.passed("all products A_i A_j decompose with constant class coefficients")
    cert.passed("intersection numbers are symmetric in the lower indices")
    return p, cert


def scheme_matrices_from_system(sys: LinkedSystemII) -> list[IntMatrix]:
    """The six classes of the scheme of ``sys`` with K = I_m (x) J_n, A_4
    taken as (J_f - I_f) (x) J - A_3 - A_5."""
    base = sys.params.base
    f, mn = sys.params.f, base.v
    eye_f, eye_mn = np.eye(f, dtype=np.int64), np.eye(mn, dtype=np.int64)
    k, j = (group_labels(base.m, base.n) > 0).astype(np.int64), np.ones((mn, mn), dtype=np.int64)
    zero = np.zeros_like(j)
    a3 = np.block([[zero if i == l else sys.blocks[(i, l)].mat.a for l in range(1, f + 1)] for i in range(1, f + 1)])
    a5 = np.kron(1 - eye_f, k)
    a4 = np.kron(1 - eye_f, j) - a3 - a5
    classes = (np.eye(f * mn, dtype=np.int64), np.kron(eye_f, k - eye_mn), np.kron(eye_f, j - k), a3, a4, a5)
    return [IntMatrix(x) for x in classes]
