import numpy as np
import pytest

from sgdd.algebra import IntMatrix
from sgdd.classical import hadamard_matrix
from sgdd.errors import CertificationError, ParameterError
from sgdd.resolvable import (
    aux_from_affine_geometry,
    aux_from_hadamard,
    aux_to_parallel_classes,
    make_auxiliary_set,
    parallel_classes_to_matrix,
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
        assert parallel_classes_to_matrix(9, cls) == c


def test_violation_when_matrix_replaced():
    aux = aux_from_affine_geometry(2, 1)
    broken = list(aux.matrices)
    broken[0] = IntMatrix(np.ones((4, 4), dtype=np.int64))
    with pytest.raises(CertificationError):
        make_auxiliary_set(4, broken)


def test_external_import_certifies(aux_had4):
    rebuilt = make_auxiliary_set(4, list(aux_had4.matrices))
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
    with pytest.raises((ParameterError, CertificationError)):
        make_auxiliary_set(3, [IntMatrix(np.eye(3, dtype=np.int64))] * 2)
