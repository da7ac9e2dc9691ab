import numpy as np
import pytest

import sgdd.designs
from sgdd.algebra import IntMatrix
from sgdd.classical import hadamard_matrix
from sgdd.errors import CertificationError, ParameterError
from sgdd.resolvable import (
    AuxiliarySet,
    aux_from_affine_geometry,
    aux_from_hadamard,
    aux_to_parallel_classes,
    auxiliary_set,
    verify_auxiliary,
)


def test_hadamard4_axioms(aux_had4):
    assert aux_had4.r == 3
    total = sum(c.a for c in aux_had4.matrices)
    assert (total == 2 * np.eye(4, dtype=np.int64) + 1).all()
    for c in aux_had4.matrices:
        assert c @ c.T == IntMatrix(2 * c.a)
    for i, a in enumerate(aux_had4.matrices):
        for j, b in enumerate(aux_had4.matrices):
            if i != j:
                assert ((a @ b.T).a == 1).all()


def test_hadamard4_derived_parameters(aux_had4):
    p = aux_had4.params
    assert (p.v, p.k, p.r, p.lam, p.mu, p.n) == (4, 2, 3, 1, 1, 2)
    assert verify_auxiliary(aux_had4).ok


def test_hadamard_rejects_unnormalized():
    h = hadamard_matrix(4).a.copy()
    h[:, 0] *= -1
    with pytest.raises(ParameterError):
        aux_from_hadamard(IntMatrix(h))


def test_ag23_certified(aux_ag23):
    p = aux_ag23.params
    assert (p.v, p.k, p.r, p.lam, p.mu, p.n) == (9, 3, 4, 1, 1, 3)
    assert verify_auxiliary(aux_ag23).ok
    total = sum(c.a for c in aux_ag23.matrices)
    # sum C_i = (r - lam) I + lam J = 3I + J at q = 3, d = 1
    assert (total == 3 * np.eye(9, dtype=np.int64) + 1).all()
    for c in aux_ag23.matrices:
        assert c @ c.T == IntMatrix(3 * c.a)  # q^d C_i
    # sum C_i C_i^T = q^{2d} I + (r-1) q^{d-1} J = 9I + 3J
    gram_total = sum((c @ c.T).a for c in aux_ag23.matrices)
    assert (gram_total == 9 * np.eye(9, dtype=np.int64) + 3).all()


def test_ag22_matches_hadamard4(aux_had4):
    aux = aux_from_affine_geometry(2, 1)
    lhs = sorted(tuple(c.entries()) for c in aux.matrices)
    rhs = sorted(tuple(c.entries()) for c in aux_had4.matrices)
    assert lhs == rhs


def test_parallel_classes_hadamard4(aux_had4):
    classes = aux_to_parallel_classes(aux_had4)
    assert len(classes) == 3
    flat = sorted(tuple(sorted(b)) for cls in classes for b in cls)
    assert flat == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]  # 3 perfect matchings of K4


def test_parallel_classes_ag23(aux_ag23):
    classes = aux_to_parallel_classes(aux_ag23)
    assert len(classes) == 4
    assert sum(len(c) for c in classes) == 12  # the 12 lines
    for cls in classes:
        assert sorted(x for b in cls for x in b) == list(range(9))


def test_parallel_class_roundtrip(aux_ag23):
    classes = aux_to_parallel_classes(aux_ag23)
    for c, cls in zip(aux_ag23.matrices, classes):
        rebuilt = np.zeros((9, 9), dtype=np.int64)
        for block in cls:
            rebuilt[np.ix_(block, block)] = 1
        assert IntMatrix(rebuilt) == c


def test_violation_when_matrix_replaced():
    aux = aux_from_affine_geometry(2, 1)
    broken = list(aux.matrices)
    broken[0] = IntMatrix(np.ones((4, 4), dtype=np.int64))
    assert not verify_auxiliary(auxiliary_set(4, broken)).ok


def test_external_import_certifies(aux_had4):
    rebuilt = auxiliary_set(4, list(aux_had4.matrices))
    assert verify_auxiliary(rebuilt).ok
    assert rebuilt.params == aux_had4.params


def test_prime_power_required():
    with pytest.raises(ParameterError):
        aux_from_affine_geometry(6, 1)


def test_matrices_symmetric_with_unit_diagonal(aux_had4, aux_ag23):
    for aux in (aux_had4, aux_ag23):
        for c in aux.matrices:
            assert (c.a == c.a.T).all()
            assert all(c[i, i] == 1 for i in range(aux.order))


def test_identity_only_set_rejected():
    with pytest.raises(CertificationError):
        auxiliary_set(3, [IntMatrix(np.eye(3, dtype=np.int64))] * 2)


def _product_shapes(monkeypatch) -> list[tuple]:
    """The shape of every kernel product formed from here on."""
    shapes = []
    matmul = IntMatrix.__matmul__

    def counted(a, b):
        prod = matmul(a, b)
        shapes.append(prod.lane.shape)
        return prod

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return shapes


def _flipped(aux, idx, x, y):
    mats = list(aux.matrices)
    arr = mats[idx].a.copy()
    arr[x, y] = 1 - arr[x, y]
    mats[idx] = IntMatrix(arr)
    return AuxiliarySet(aux.order, mats, aux.params)


def test_auxiliary_forms_one_product_per_matrix(monkeypatch):
    aux = aux_from_hadamard(hadamard_matrix(8))
    shapes = _product_shapes(monkeypatch)
    assert verify_auxiliary(aux).ok
    # C_a (hstack_b C_b^T) for a = 1..7, not one product per pair (a, b)
    assert shapes == [(8, 56)] * 7


def test_auxiliary_certificate_is_the_same_in_narrow_bands(monkeypatch):
    aux = aux_from_hadamard(hadamard_matrix(8))
    sets = [aux, _flipped(aux, 0, 0, 0), _flipped(aux, 3, 2, 5), _flipped(aux, 6, 7, 1)]
    wide = [verify_auxiliary(s).report_lines() for s in sets]
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", 64)
    shapes = _product_shapes(monkeypatch)
    assert [verify_auxiliary(s).report_lines() for s in sets] == wide
    assert wide[0][0].endswith("OK") and all(lines[0].endswith("VIOLATED") for lines in wide[1:])
    assert len(shapes) == 4 * 49 and max(rows * cols for rows, cols in shapes) <= 64
