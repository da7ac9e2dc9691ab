from itertools import product

import numpy as np
import pytest

import sgdd.designs
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.classical import hadamard_matrix, is_hadamard
from sgdd.cli import main
from sgdd.errors import CertificationError, ParameterError
from sgdd.gf import gf_from_order
from sgdd.latin import linked_mols_from_gf
from sgdd.linked import build_tilde_l
from sgdd.resolvable import (
    AuxiliarySet,
    aux_from_affine_geometry,
    aux_from_hadamard,
    aux_to_parallel_classes,
    auxiliary_set,
    verify_auxiliary,
)

from gf_route import tuple_field
from conftest import read_text, text_of


def test_hadamard4_axioms(aux_had4):
    assert aux_had4.r == 3
    mats = [IntMatrix(c) for c in aux_had4.stack]
    total = sum(c.a for c in mats)
    assert (total == 2 * np.eye(4, dtype=np.int64) + 1).all()
    for c in mats:
        assert c @ c.T == IntMatrix(2 * c.a)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
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
    mats = [IntMatrix(c) for c in aux_ag23.stack]
    total = sum(c.a for c in mats)
    # sum C_i = (r - lam) I + lam J = 3I + J at q = 3, d = 1
    assert (total == 3 * np.eye(9, dtype=np.int64) + 1).all()
    for c in mats:
        assert c @ c.T == IntMatrix(3 * c.a)  # q^d C_i
    # sum C_i C_i^T = q^{2d} I + (r-1) q^{d-1} J = 9I + 3J
    gram_total = sum((c @ c.T).a for c in mats)
    assert (gram_total == 9 * np.eye(9, dtype=np.int64) + 3).all()


def test_ag22_matches_hadamard4(aux_had4):
    aux = aux_from_affine_geometry(2, 1)
    lhs = sorted(tuple(c.ravel().tolist()) for c in aux.stack)
    rhs = sorted(tuple(c.ravel().tolist()) for c in aux_had4.stack)
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
    for c, cls in zip(aux_ag23.stack, classes):
        rebuilt = np.zeros((9, 9), dtype=np.int64)
        for block in cls:
            rebuilt[np.ix_(block, block)] = 1
        assert (rebuilt == c).all()


def test_violation_when_matrix_replaced():
    aux = aux_from_affine_geometry(2, 1)
    broken = aux.stack.copy()
    broken[0] = 1
    assert not verify_auxiliary(auxiliary_set(broken)).ok


def test_external_import_certifies(aux_had4):
    rebuilt = auxiliary_set(aux_had4.stack.copy())
    assert verify_auxiliary(rebuilt).ok
    assert rebuilt.params == aux_had4.params


def test_prime_power_required():
    with pytest.raises(ParameterError):
        aux_from_affine_geometry(6, 1)


def test_matrices_symmetric_with_unit_diagonal(aux_had4, aux_ag23):
    for aux in (aux_had4, aux_ag23):
        for c in aux.stack:
            assert (c == c.T).all()
            assert (np.diagonal(c) == 1).all()


def test_identity_only_set_rejected():
    with pytest.raises(CertificationError):
        auxiliary_set(np.stack([np.eye(3, dtype=np.int64)] * 2))


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
    stack = aux.stack.copy()
    stack[idx, x, y] ^= 1
    return AuxiliarySet(stack, aux.params)


def test_auxiliary_forms_one_product_per_band(monkeypatch):
    aux = aux_from_hadamard(hadamard_matrix(8))
    shapes = _product_shapes(monkeypatch)
    assert verify_auxiliary(aux).ok
    # C_0, C_1 and C_3 are each fixed by one digit shift (masks 4, 1, 2), so
    # each C_a C_a^T is formed first on its 4 orbit rows; no shift fixes the
    # other 46 pairs, most of the grid, so (vstack_a C_a) (hstack_b C_b^T),
    # the 7 x 7 blocks C_a C_b^T, is then one product
    assert shapes == [(4, 8)] * 3 + [(56, 56)]
    # an AG set on its orbit route: row 0 of every C_a against one band
    ag = aux_from_affine_geometry(3, 2)
    shapes.clear()
    assert verify_auxiliary(ag).ok
    assert shapes == [(13, 13 * 27)]


def test_auxiliary_certificate_is_the_same_in_narrow_bands(monkeypatch):
    aux = aux_from_hadamard(hadamard_matrix(8))
    sets = [aux, _flipped(aux, 0, 0, 0), _flipped(aux, 3, 2, 5), _flipped(aux, 6, 7, 1)]
    wide = [verify_auxiliary(s).report_lines() for s in sets]
    monkeypatch.setattr(sgdd.designs, "STACK_ENTRIES", 64)
    shapes = _product_shapes(monkeypatch)
    assert [verify_auxiliary(s).report_lines() for s in sets] == wide
    assert wide[0][0].endswith("OK") and all(lines[0].endswith("VIOLATED") for lines in wide[1:])
    # one product per block, and first the C_a C_a^T on orbit rows of the
    # blocks a shift fixes: 3, 2 (C_0 flipped), 2 (C_3 flipped) and 3
    assert len(shapes) == 4 * 49 + 3 + 2 + 2 + 3 and max(rows * cols for rows, cols in shapes) <= 64


def _ag_reference(q: int, d: int) -> list[np.ndarray]:
    """C_a of AG(d+1, q) from its pairwise definition, x ~ y when
    f_a(x) = f_a(y), with the field operations on coefficient tuples."""
    ctx = tuple_field(gf_from_order(q))
    points = [tuple(ctx.element(i) for i in idx) for idx in product(range(q), repeat=d + 1)]
    functionals = [cs for cs in points if next((c for c in cs if c != ctx.zero), None) == ctx.one]
    out = []
    for coeffs in functionals:
        values = []
        for pt in points:
            acc = ctx.zero
            for c, x in zip(coeffs, pt):
                acc = ctx.add(acc, ctx.mul(c, x))
            values.append(acc)
        out.append(np.array([[values[x] == values[y] for y in range(len(points))] for x in range(len(points))]))
    return out


@pytest.mark.parametrize("q, d", [(2, 1), (3, 1), (4, 1), (8, 1), (9, 1), (2, 2), (3, 2), (4, 2)])
def test_affine_geometry_matches_pairwise_definition(q, d):
    aux = aux_from_affine_geometry(q, d)
    ref = _ag_reference(q, d)
    assert aux.stack.dtype == np.uint8 and aux.stack.shape == (len(ref), q ** (d + 1), q ** (d + 1))
    for c, want in zip(aux.stack, ref):
        assert np.array_equal(c, want)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_hadamard_set_matches_definition(order):
    h = hadamard_matrix(order)
    aux = aux_from_hadamard(h)
    assert aux.stack.dtype == np.uint8 and aux.r == order - 1
    for i, c in enumerate(aux.stack, start=1):
        row = np.array(h.row(i))
        assert np.array_equal(c, (np.outer(row, row) + 1) // 2)


def test_paley_hadamard_of_a_prime_power_order_certifies():
    # 27 = 3^3 = 3 mod 4: Paley I over GF(27), the one catalog route to 28
    h = hadamard_matrix(28)
    assert is_hadamard(h) and (h.a[0] == 1).all() and (h.a[:, 0] == 1).all()
    aux = aux_from_hadamard(h)
    assert aux.certificate.ok and aux.r == 27


@pytest.mark.parametrize("order", [0, 6, 36, 52, 92])
def test_a_missing_hadamard_order_is_named(order, tmp_path, capsys):
    # Sylvester doubling of 36 reaches 18, which is not named
    with pytest.raises(ParameterError, match=f"^no Hadamard matrix of order {order}$"):
        hadamard_matrix(order)
    assert main(["construct", "hadamard-aux", "--order", str(order), "-o", str(tmp_path / "h.aux")]) == 1
    assert capsys.readouterr().err == f"error: no Hadamard matrix of order {order}\n"


@pytest.mark.parametrize("entry", [2, 256, -1])
def test_stack_refuses_an_entry_not_zero_or_one(aux_had4, entry):
    # checked before narrowing to uint8, where 256 would wrap to 0
    stack = aux_had4.stack.astype(np.int64)
    stack[1, 2, 3] = entry
    for make in (lambda: AuxiliarySet(stack, aux_had4.params), lambda: auxiliary_set(stack)):
        with pytest.raises(ParameterError, match="^auxiliary matrix entries must be 0 or 1$"):
            make()


def test_stack_refuses_a_wrong_shape_or_one_matrix(aux_had4):
    for stack in (aux_had4.stack[:, :, :3], aux_had4.stack[0], np.zeros((2, 0, 0), dtype=np.uint8)):
        with pytest.raises(ParameterError, match=r"^auxiliary matrices must be square, of one order: got a stack of shape "):
            AuxiliarySet(stack, aux_had4.params)
    for make in (lambda: AuxiliarySet(aux_had4.stack[:1], aux_had4.params), lambda: auxiliary_set(aux_had4.stack[:1])):
        with pytest.raises(ParameterError, match="^need at least two auxiliary matrices$"):
            make()


def test_parse_and_derive_form_no_product(monkeypatch):
    built = aux_from_affine_geometry(3, 1)
    text = text_of(fileio.auxiliary_set_chunks(built)).encode()
    shapes = _product_shapes(monkeypatch)
    aux = read_text(fileio.read_auxiliary_set, text)
    # k and mu are read off rows 0 of C_1 and C_2
    assert shapes == [] and aux.params == built.params and aux.certificate is None


def test_tilde_l_certifies_only_an_unsealed_set(aux_had4, fam_gf4, aux_certifications):
    calls = aux_certifications
    sealed = build_tilde_l(aux_had4, fam_gf4)
    assert aux_had4.certificate.ok and calls == []
    parsed = read_text(fileio.read_auxiliary_set, text_of(fileio.auxiliary_set_chunks(aux_had4)))
    assert np.array_equal(build_tilde_l(parsed, fam_gf4).stack, sealed.stack)
    assert calls == [4] and parsed.certificate is None
    with pytest.raises(ValueError):
        aux_had4.stack[0, 0, 0] = 0
    # a sealed set was certified once, by its construction
    aux = aux_from_affine_geometry(3, 1)
    assert calls == [4, 9] and not aux.stack.flags.writeable
    build_tilde_l(aux, linked_mols_from_gf(gf_from_order(5)))
    assert calls == [4, 9]
