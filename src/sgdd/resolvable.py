"""Affine resolvable designs encoded by their auxiliary matrices C_1..C_r.

The three axioms are
    (i)   sum C_i = (r - lambda) I + lambda J,
    (ii)  C_i C_i^T = k C_i,
    (iii) C_i C_j^T = mu J for i != j,
and they force v = n^2 mu, k = n mu, lambda = (n mu - 1)/(n - 1),
r = (n^2 mu - 1)/(n - 1) with n = k/mu.  Each C_i is the block-diagonal
equivalence relation of one parallel class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import IntMatrix
from .classical import is_hadamard
from .designs import Certificate, Violation, pattern
from .errors import CertificationError, ParameterError
from .gf import factor_prime_power, gf_make


@dataclass(frozen=True)
class AuxParams:
    v: int
    k: int
    r: int
    lam: int
    mu: int
    n: int


@dataclass
class AuxiliarySet:
    order: int
    matrices: list[IntMatrix]
    params: AuxParams

    @property
    def r(self) -> int:
        return len(self.matrices)


def _underivable(order: int, reason: str) -> CertificationError:
    return CertificationError(reason, Certificate(f"auxiliary matrices of order {order}", violations=[Violation(reason, None)]))


def _derive_params(order: int, matrices: list[IntMatrix]) -> AuxParams:
    r = len(matrices)
    k = sum(matrices[0][0, j] for j in range(order))
    mu = (matrices[0] @ matrices[1].T)[0, 0]
    if mu <= 0 or k % mu:
        raise _underivable(order, "cannot derive integral n = k/mu from the matrices")
    n = k // mu
    if n <= 1 or (n * mu - 1) % (n - 1):
        raise _underivable(order, "derived lambda = (n mu - 1)/(n - 1) is not an integer")
    lam = (n * mu - 1) // (n - 1)
    return AuxParams(v=order, k=k, r=r, lam=lam, mu=mu, n=n)


def verify_auxiliary(aux: AuxiliarySet) -> Certificate:
    """Check axioms (i)-(iii) by exact multiplication, then re-derive the
    parameters and confirm the four arithmetic relations they must satisfy."""
    cert = Certificate(f"auxiliary matrices {aux.params}")
    v, r = aux.order, aux.r
    p = aux.params
    for idx, c in enumerate(aux.matrices):
        if not (c.is_square and c.rows == v and c.is_zero_one()):
            cert.failed(f"C_{idx + 1} is a v x v 0/1 matrix", (0, 0))
            return cert
    total = IntMatrix(sum(c.a for c in aux.matrices))
    cert.compare("sum C_i equals (r - lambda) I + lambda J", total, pattern(np.eye(v, dtype=np.int8), (p.lam, p.r)))
    for idx, c in enumerate(aux.matrices):
        cert.compare(f"C_{idx + 1} C_{idx + 1}^T = k C_{idx + 1}", c @ c.T, pattern(c.a, (0, p.k)))
    mu_j = pattern(np.zeros((v, v), dtype=np.int8), (p.mu,))
    for a in range(r):
        for b in range(r):
            if a != b:
                cert.compare(f"C_{a + 1} C_{b + 1}^T = mu J", aux.matrices[a] @ aux.matrices[b].T, mu_j)
    # arithmetic relations among the derived parameters
    if p.r * p.k != p.r - p.lam + p.lam * p.v:
        cert.failed("r k = r - lambda + lambda v")
    else:
        cert.passed("r k = r - lambda + lambda v")
    if p.k * p.k != p.mu * p.v:
        cert.failed("k^2 = mu v")
    else:
        cert.passed("k^2 = mu v")
    if p.k + p.lam - p.r != 0:
        cert.failed("k + lambda - r = 0")
    else:
        cert.passed("k + lambda - r = 0")
    if p.k * p.lam - (p.r - 1) * p.mu != 0:
        cert.failed("k lambda - (r - 1) mu = 0")
    else:
        cert.passed("k lambda - (r - 1) mu = 0")
    if p.v != p.n * p.n * p.mu or p.k != p.n * p.mu:
        cert.failed("v = n^2 mu and k = n mu")
    else:
        cert.passed("v = n^2 mu and k = n mu")
    return cert


def auxiliary_set(order: int, matrices: list[IntMatrix]) -> AuxiliarySet:
    """Wrap externally supplied matrices and derive their parameters,
    uncertified: ``verify_auxiliary`` certifies where the set is used."""
    if len(matrices) < 2:
        raise ParameterError("need at least two auxiliary matrices")
    return AuxiliarySet(order, matrices, _derive_params(order, matrices))


def make_auxiliary_set(order: int, matrices: list[IntMatrix]) -> AuxiliarySet:
    """Wrap externally supplied matrices, deriving and certifying parameters."""
    aux = auxiliary_set(order, matrices)
    cert = verify_auxiliary(aux)
    if not cert.ok:
        raise CertificationError("auxiliary axioms fail", cert)
    return aux


def aux_from_hadamard(h: IntMatrix) -> AuxiliarySet:
    """C_i = (r_i^T r_i + J)/2 from the non-principal rows of a normalized
    Hadamard matrix."""
    order = h.rows
    if order < 4:
        raise ParameterError("need a Hadamard matrix of order at least 4")
    if not is_hadamard(h):
        raise ParameterError("input is not a Hadamard matrix")
    if any(h[0, j] != 1 for j in range(order)):
        raise ParameterError("Hadamard matrix must be normalized (all-ones first row)")
    mats = []
    for i in range(1, order):
        row = np.array(h.row(i), dtype=np.int64)
        mats.append(IntMatrix((np.outer(row, row) + 1) // 2))
    params = AuxParams(v=order, k=order // 2, r=order - 1, lam=(order - 2) // 2, mu=order // 4, n=2)
    aux = AuxiliarySet(order, mats, params)
    cert = verify_auxiliary(aux)
    if not cert.ok:
        raise CertificationError("Hadamard auxiliary set fails certification", cert)
    return aux


def aux_from_affine_geometry(q: int, d: int) -> AuxiliarySet:
    """Difference matrices of the hyperplane parallel classes of the
    (d+1)-dimensional affine space over GF(q).

    Hyperplanes through the origin are kernels of nonzero linear
    functionals; functionals are normalized so their first nonzero
    coordinate is one and enumerated lexicographically, which makes the
    construction reproducible.
    """
    if d < 1:
        raise ParameterError("dimension parameter d must be at least 1")
    p_char, e = factor_prime_power(q)
    ctx = gf_make(p_char, e)
    dim = d + 1
    points = [tuple(ctx.element(i) for i in idx) for idx in product(range(q), repeat=dim)]
    v = q**dim

    functionals = []
    for idx in product(range(q), repeat=dim):
        coeffs = tuple(ctx.element(i) for i in idx)
        nz = next((c for c in coeffs if c != ctx.zero), None)
        if nz is None or nz != ctx.one:
            continue
        functionals.append(coeffs)
    functionals.sort(key=lambda cs: tuple(ctx.index(c) for c in cs))

    mats = []
    for coeffs in functionals:
        arr = np.zeros((v, v), dtype=np.int64)
        # evaluate the functional on every point once; (x, y) is incident
        # when f(y) - f(x) = 0
        values = []
        for pt in points:
            acc = ctx.zero
            for c, x in zip(coeffs, pt):
                acc = ctx.add(acc, ctx.mul(c, x))
            values.append(acc)
        for a in range(v):
            for b in range(v):
                if values[a] == values[b]:
                    arr[a, b] = 1
        mats.append(IntMatrix(arr))

    r = (q ** (d + 1) - 1) // (q - 1)
    params = AuxParams(
        v=v,
        k=q**d,
        r=r,
        lam=(q**d - 1) // (q - 1),
        mu=q ** (d - 1),
        n=q,
    )
    aux = AuxiliarySet(v, mats, params)
    cert = verify_auxiliary(aux)
    if not cert.ok:
        raise CertificationError("affine geometry auxiliary set fails certification", cert)
    return aux


def aux_to_parallel_classes(aux: AuxiliarySet) -> list[list[tuple[int, ...]]]:
    """Blocks of each parallel class, read off the equivalence relation
    encoded by each C_i; verifies equivalence-relation structure."""
    out = []
    v, k = aux.order, aux.params.k
    for idx, c in enumerate(aux.matrices):
        seen: dict[int, tuple[int, ...]] = {}
        blocks = []
        for x in range(v):
            if x in seen:
                continue
            members = tuple(y for y in range(v) if c[x, y] == 1)
            if x not in members or len(members) != k:
                raise CertificationError(
                    f"C_{idx + 1}: row {x} does not define a block of size k"
                )
            for y in members:
                if tuple(z for z in range(v) if c[y, z] == 1) != members:
                    raise CertificationError(
                        f"C_{idx + 1}: rows {x} and {y} disagree; not an equivalence relation"
                    )
                seen[y] = members
            blocks.append(members)
        if len(blocks) != v // k:
            raise CertificationError(f"C_{idx + 1}: expected {v // k} blocks")
        out.append(blocks)
    return out


def parallel_classes_to_matrix(order: int, blocks: list[tuple[int, ...]]) -> IntMatrix:
    """Rebuild the equivalence-relation matrix of one parallel class."""
    arr = np.zeros((order, order), dtype=np.int64)
    for block in blocks:
        for x in block:
            for y in block:
                arr[x, y] = 1
    return IntMatrix(arr)
