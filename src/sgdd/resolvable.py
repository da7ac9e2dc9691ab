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

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .algebra import IntMatrix
from .classical import is_hadamard
from .designs import Certificate, Violation, cell_differences, equivalence_classes, grid_masks, on_orbits, shift_masks, stack_differences, zero_one
from .errors import CertificationError, ParameterError
from .gf import gf_from_order


@dataclass(frozen=True)
class AuxParams:
    v: int
    k: int
    r: int
    lam: int
    mu: int
    n: int


def _checked_stack(stack: np.ndarray) -> np.ndarray:
    if len(stack) < 2:
        raise ParameterError("need at least two auxiliary matrices")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ParameterError(f"auxiliary matrices must be square, of one order: got a stack of shape {stack.shape}")
    return zero_one(stack, "auxiliary matrix")


@dataclass
class AuxiliarySet:
    """C_1..C_r as one (r, v, v) uint8 stack; any other shape, r < 2, or an
    entry not 0 or 1, is refused.  A sealed set (``seal``) carries its
    certificate and a read-only stack."""

    stack: np.ndarray
    params: AuxParams
    certificate: Certificate | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.stack = _checked_stack(self.stack)

    @property
    def order(self) -> int:
        return self.stack.shape[1]

    @property
    def r(self) -> int:
        return len(self.stack)

    def seal(self, cert: Certificate) -> AuxiliarySet:
        """Record the passing certificate and make the stack read-only."""
        self.certificate = cert
        self.stack.flags.writeable = False
        return self


def _underivable(order: int, reason: str) -> CertificationError:
    return CertificationError(reason, Certificate(f"auxiliary matrices of order {order}", violations=[Violation(reason, None)]))


def _derive_params(stack: np.ndarray) -> AuxParams:
    """k and mu = (C_1 C_2^T)[0, 0] from row 0 of C_1 and C_2; no product."""
    r, order = stack.shape[:2]
    k = int(np.count_nonzero(stack[0, 0]))
    mu = int(np.count_nonzero(stack[0, 0] & stack[1, 0]))
    if mu <= 0 or k % mu:
        raise _underivable(order, "cannot derive integral n = k/mu from the matrices")
    n = k // mu
    if n <= 1 or (n * mu - 1) % (n - 1):
        raise _underivable(order, "derived lambda = (n mu - 1)/(n - 1) is not an integer")
    lam = (n * mu - 1) // (n - 1)
    return AuxParams(v=order, k=k, r=r, lam=lam, mu=mu, n=n)


def verify_auxiliary(aux: AuxiliarySet) -> Certificate:
    """Check axioms (i)-(iii) by exact multiplication, (ii) and (iii) as one
    grid of products C_a C_b^T (``_product_differences``), then re-derive
    the parameters and confirm the four arithmetic relations they must satisfy.
    Each product C_a C_b^T is formed on one row per orbit of the point
    digit shifts that fix both C_a and C_b (``shift_masks``, ``on_orbits``
    with the v points as v groups of one), and on every row when none does or it fails there."""
    cert = Certificate(f"auxiliary matrices {aux.params}")
    stack, v, r, p = aux.stack, aux.order, aux.r, aux.params
    total = stack.sum(axis=0, dtype=np.int64)
    [diff] = stack_differences(total[None], np.eye(v, dtype=np.uint8), (p.lam, p.r))
    cert.record("sum C_i equals (r - lambda) I + lambda J", diff)
    masks = shift_masks(stack)
    pairs = np.stack(np.divmod(np.arange(r * r), r), axis=1)
    found = on_orbits(
        lambda members, rows: _product_differences(stack, p, pairs[members], rows),
        grid_masks(masks[pairs[:, 0]] & masks[pairs[:, 1]], r * r),
        (v, 1),
        lambda d: d is None,
    )
    for a in range(r):
        cert.record(f"C_{a + 1} C_{a + 1}^T = k C_{a + 1}", found[a * r + a])
    for a in range(r):
        for b in range(r):
            if a != b:
                cert.record(f"C_{a + 1} C_{b + 1}^T = mu J", found[a * r + b])
    # arithmetic relations among the derived parameters
    cert.check("r k = r - lambda + lambda v", p.r * p.k == p.r - p.lam + p.lam * p.v)
    cert.check("k^2 = mu v", p.k * p.k == p.mu * p.v)
    cert.check("k + lambda - r = 0", p.k + p.lam - p.r == 0)
    cert.check("k lambda - (r - 1) mu = 0", p.k * p.lam - (p.r - 1) * p.mu == 0)
    cert.check("v = n^2 mu and k = n mu", p.v == p.n * p.n * p.mu and p.k == p.n * p.mu)
    return cert


def _product_differences(stack: np.ndarray, p: AuxParams, pairs: np.ndarray, rows) -> list:
    """For each row (a, b) of ``pairs``, the first difference of C_a C_b^T,
    on the given rows (all of them, or one per orbit), from k C_a (a = b)
    or mu J, or None: cells of the grid of ``block_differences``
    (``cell_differences``) on the labels C_a on block (a, a) (0 or k) and
    2 elsewhere (mu)."""
    left = stack[:, rows]
    return cell_differences(
        left,
        stack.swapaxes(1, 2),
        lambda a, b: np.where((a == b)[..., None, None], left[a], np.uint8(2)),
        (0, p.k, p.mu),
        pairs.T,
    )


def auxiliary_set(stack: np.ndarray) -> AuxiliarySet:
    """Wrap an externally supplied (r, v, v) stack of 0/1 matrices and derive
    its parameters, uncertified: ``verify_auxiliary`` certifies where the
    set is used."""
    stack = _checked_stack(stack)
    return AuxiliarySet(stack, _derive_params(stack))


def _certified(aux: AuxiliarySet, what: str) -> AuxiliarySet:
    cert = verify_auxiliary(aux)
    if not cert.ok:
        raise CertificationError(f"{what} auxiliary set fails certification", cert)
    return aux.seal(cert)


def aux_from_hadamard(h: IntMatrix) -> AuxiliarySet:
    """C_i = (r_i^T r_i + J)/2 from the non-principal rows of a normalized
    Hadamard matrix: 1 where row r_i has equal entries."""
    order = h.rows
    if order < 4:
        raise ParameterError("need a Hadamard matrix of order at least 4")
    if not is_hadamard(h):
        raise ParameterError("input is not a Hadamard matrix")
    if any(h[0, j] != 1 for j in range(order)):
        raise ParameterError("Hadamard matrix must be normalized (all-ones first row)")
    rows = h.lane[1:]
    stack = (rows[:, :, None] == rows[:, None, :]).view(np.uint8)
    params = AuxParams(v=order, k=order // 2, r=order - 1, lam=(order - 2) // 2, mu=order // 4, n=2)
    return _certified(AuxiliarySet(stack, params), "Hadamard")


def aux_from_affine_geometry(q: int, d: int) -> AuxiliarySet:
    """Difference matrices of the hyperplane parallel classes of the
    (d+1)-dimensional affine space over GF(q).

    Hyperplanes through the origin are kernels of nonzero linear
    functionals; functionals are normalized so their first nonzero
    coordinate is one and enumerated lexicographically, which makes the
    construction reproducible.  C_a relates x and y when f_a(x) = f_a(y).
    """
    if d < 1:
        raise ParameterError("dimension parameter d must be at least 1")
    ctx = gf_from_order(q)
    dim = d + 1
    els = range(q)
    add, mul = np.array(ctx.add), np.array(ctx.mul)
    points = np.array(list(product(els, repeat=dim)))
    functionals = np.array([c for c in product(els, repeat=dim) if next((x for x in c if x), None) == ctx.one])
    # f_a(x) for every functional a and point x, as an (r, v) index array
    values = np.zeros((len(functionals), len(points)), dtype=np.intp)
    for t in range(dim):
        values = add[values, mul[functionals[:, t, None], points[:, t]]]
    stack = (values[:, :, None] == values[:, None, :]).view(np.uint8)
    params = AuxParams(
        v=q**dim,
        k=q**d,
        r=(q**dim - 1) // (q - 1),
        lam=(q**d - 1) // (q - 1),
        mu=q ** (d - 1),
        n=q,
    )
    return _certified(AuxiliarySet(stack, params), "affine geometry")


def aux_to_parallel_classes(aux: AuxiliarySet) -> list[list[tuple[int, ...]]]:
    """Blocks of each parallel class, by least point, read off the
    equivalence relation each C_i encodes; a C_i that is not an equivalence
    with classes of size k is refused."""
    out = []
    for idx, c in enumerate(aux.stack):
        blocks = equivalence_classes(c.view(bool))
        if blocks is None or len(blocks[0]) != aux.params.k:
            raise CertificationError(f"C_{idx + 1} is not an equivalence relation with classes of size k = {aux.params.k}")
        out.append(blocks)
    return out
