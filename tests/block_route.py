"""Reference route for the design, linked-system, linked-family and
auxiliary-set certifiers: one block, one square or one triple at a time, two
products per block for its Gram identities and two more for A K = K A with a
dense K (``group_indicator``), one wide product per ordered pair (i, j) for
the triple law, and one product per ordered pair of auxiliary matrices, each
product compared as int64 (``compare``, ``first_difference``) on every row
with an expected array built by ``pattern``.  The tests compare ``sgdd``,
which certifies a system's blocks as one stacked array, compares each
product in its lane, and forms products on one row per orbit of verified
digit shifts, against it.  The shifts are permutations here
(``digit_shifts``, lifted to groups and points by ``lifted_shifts``), and
``affine_translations``, built from the field's addition table, is their
oracle; ``shift_masks`` and ``translation_masks`` apply them by a gather,
the oracles of the masks of the shifts that fix each matrix
(``designs.shift_masks``, ``designs.translation_masks``).
"""

from fractions import Fraction
from itertools import product

import numpy as np

from sgdd.algebra import IntMatrix, first_differences
from sgdd.designs import (
    Certificate,
    GddParams,
    KCommutation,
    companion_params,
    group_labels,
)
from sgdd.errors import ParameterError
from sgdd.gf import factor_prime_power, gf_from_order
from sgdd.latin import LinkedMolsFamily, compose, is_orthogonal, ordered_pairs, pair_index
from sgdd.linked import LinkedSystemII
from sgdd.resolvable import AuxiliarySet

_SIGNED = (np.int8, np.int16, np.int32, np.int64)


def pattern(labels: np.ndarray, coeffs) -> np.ndarray:
    """The matrix sum_t coeffs[t] [labels == t], exactly: in the smallest
    signed integer dtype that holds every coefficient while all are below
    2**62 in magnitude, Python integers otherwise.

    The table is built with an explicit dtype: numpy reads a list holding an
    integer past int64 as float64."""
    coeffs = [int(c) for c in coeffs]
    top = max(abs(c) for c in coeffs)
    if top < 2**62:
        table = np.array(coeffs, dtype=next(t for t in _SIGNED if top <= np.iinfo(t).max))
    else:
        table = np.empty(len(coeffs), dtype=object)
        table[:] = coeffs
    return np.take(table, labels)


def first_difference(mat: IntMatrix, other) -> tuple[int, int] | None:
    """Row-major first coordinate where ``mat`` differs from ``other``, an
    IntMatrix or an array of expected entries; (0, 0) when the shapes
    differ."""
    other = other.a if isinstance(other, IntMatrix) else other
    if mat.a.shape != other.shape:
        return (0, 0)
    return first_differences(mat.a[None], other[None])[0]


def compare(cert: Certificate, label: str, actual: IntMatrix, expected: np.ndarray):
    """Pass, or record the first row-major entry where ``actual`` differs
    from the expected array (int64 or Python integers, as ``pattern``
    builds)."""
    pos = first_difference(actual, expected)
    if pos is None:
        cert.passed(label)
    else:
        cert.failed(label, pos, expected.item(pos), actual[pos])


def group_indicator(p: GddParams) -> IntMatrix:
    """K = I_m (x) J_n, dense."""
    return IntMatrix((group_labels(p.m, p.n) > 0).astype(np.int64))


def stack_differences(actual: np.ndarray, expected: np.ndarray) -> list[tuple | None]:
    """The int64 route for a stack of products: ``actual`` as int64 (or
    Python integers past 2**62) against ``expected`` built by ``pattern``;
    for each matrix None, or its first row-major difference as (position,
    expected entry, actual entry)."""
    wants = np.broadcast_to(expected, actual.shape)
    out = []
    for t, pos in enumerate(first_differences(actual, expected)):
        at = np.unravel_index(t, actual.shape[:-2]) + pos if pos is not None else None
        out.append(None if at is None else (pos, wants.item(at), int(actual[at])))
    return out


def affine_translations(q: int, dim: int) -> list[np.ndarray]:
    """Translations generating those of GF(q)^dim, as permutations of its
    points numbered lexicographically: adding b to coordinate t moves point
    x by (add[x_t, b] - x_t) q^(dim - 1 - t), and b runs over the elements
    p^s, the unit vectors of GF(p)^e, which span GF(q) additively."""
    ctx = gf_from_order(q)
    add = np.array(ctx.add)
    points = np.array(list(product(range(q), repeat=dim)))
    weights = q ** np.arange(dim - 1, -1, -1)
    return [
        np.arange(q**dim) + (add[points[:, t], ctx.p**s] - points[:, t]) * weights[t] for t in range(dim) for s in range(ctx.d)
    ]


def digit_shifts(v: int) -> list[np.ndarray]:
    """For v = p^e, the e permutations of 0..v-1 that each add 1 mod p to
    one base-p digit of an index, the s-th to the digit of weight p^s; none
    for any other v.  With field elements and points numbered
    lexicographically, they generate GF(q)^d's translations."""
    try:
        p, e = factor_prime_power(v)
    except ParameterError:
        return []
    x = np.arange(v)
    return [x + np.where(x // p**s % p == p - 1, 1 - p, 1) * p**s for s in range(e)]


def lifted_shifts(m: int, n: int) -> list[np.ndarray]:
    """The digit shifts of the m groups, then those of the n points of
    every group, as permutations of the indices g n + x: the bits of a
    ``designs.translation_masks`` mask, in order."""
    x = np.arange(m * n)
    return [shift[x // n] * n + x % n for shift in digit_shifts(m)] + [x // n * n + shift[x % n] for shift in digit_shifts(n)]


def _fixed_by(stack: np.ndarray, shifts: list[np.ndarray]) -> np.ndarray:
    """Bit s of each matrix's mask set when shifts[s] fixes it: the shift
    applied to its rows and columns by one fancy index and the moved
    matrix compared whole, one matrix at a time."""
    shifts = np.array(shifts, dtype=np.intp).reshape(-1, stack.shape[-1])
    bits = 1 << np.arange(len(shifts), dtype=np.int64)
    return np.array([(mat[shifts[:, :, None], shifts[:, None, :]] == mat).all(axis=(1, 2)) @ bits for mat in stack], dtype=np.int64)


def shift_masks(stack: np.ndarray) -> np.ndarray:
    """The gather route for ``designs.shift_masks``: the digit shifts of
    the matrices' order."""
    return _fixed_by(stack, digit_shifts(stack.shape[-1]))


def translation_masks(stack: np.ndarray, m: int, n: int) -> np.ndarray:
    """The gather route for ``designs.translation_masks``: the lifted
    shifts tried on each whole matrix, with no sub-block."""
    return _fixed_by(stack, lifted_shifts(m, n))


def verify_gram(mat: IntMatrix, p: GddParams, rows=slice(None)) -> Certificate:
    """The two Gram identities, each formed as a whole product and compared
    on the given rows of it."""
    cert = Certificate(f"symmetric GDD {p}")
    gram = pattern(group_labels(p.m, p.n)[rows], (p.lambda2, p.lambda1, p.k))
    compare(cert, "A A^T equals k I + l1 (K - I) + l2 (J - K)", IntMatrix((mat @ mat.T).a[rows]), gram)
    compare(cert, "A^T A equals k I + l1 (K - I) + l2 (J - K)", IntMatrix((mat.T @ mat).a[rows]), gram)
    return cert


def verify_gdd(a: np.ndarray, p: GddParams) -> Certificate:
    return verify_gram(IntMatrix(a), p)


def check_k_commutation(a: np.ndarray, p: GddParams) -> KCommutation:
    kb, mat = group_indicator(p), IntMatrix(a)
    ak = mat @ kb
    if ak != kb @ mat:
        return KCommutation("other")
    in_k = kb.a != 0
    on, off = ak.a[in_k], ak.a[~in_k]
    d = int(on[0])
    c = int(off[0]) if off.size else d
    if not ((on == d).all() and (off == c).all()):
        return KCommutation("other")
    if d == 0:
        return KCommutation("multiple_of_J_minus_K", Fraction(c)) if c else KCommutation("zero", Fraction(0))
    return KCommutation("multiple_of_J", Fraction(c)) if c == d else KCommutation("other")


def verify_linked_system(sys: LinkedSystemII) -> Certificate:
    p = sys.params
    base = p.base
    cert = Certificate(f"linked system f={p.f} on {base}")
    pairs = [(i, j) for i in range(1, p.f + 1) for j in range(1, p.f + 1) if i != j]
    blocks = dict(zip(ordered_pairs(p.f), sys.stack))
    if set(blocks) != set(pairs):
        cert.failed("blocks cover all ordered index pairs")
        return cert
    mats = {pair: IntMatrix(blk) for pair, blk in blocks.items()}

    for pair in pairs:
        blk = blocks[pair]
        sub = verify_gdd(blk, base)
        if sub.ok:
            cert.passed(f"block {pair} is a symmetric GDD")
        else:
            for v in sub.violations:
                cert.failed(f"block {pair}: {v.identity}", v.position, v.expected, v.actual)
        if not blk[group_labels(base.m, base.n) > 0].any():
            cert.passed(f"block {pair}: A + K is a 0/1 matrix")
        else:
            cert.failed(f"block {pair}: A + K is a 0/1 matrix")
        comm = check_k_commutation(blk, base)
        want = Fraction(base.k, base.m - 1)
        if comm.kind == "multiple_of_J_minus_K" and comm.factor == want:
            cert.passed(f"block {pair}: A K = K A = {want} (J - K)")
        else:
            cert.failed(f"block {pair}: A K = K A = k/(m-1) (J - K)")

    untransposed = [(i, j) for i, j in pairs if i < j and mats[(j, i)] != mats[(i, j)].T]
    cert.notes.append(f"transpose-consistent blocks: {'no' if untransposed else 'yes'}")
    for i, j in untransposed:
        pos = first_difference(mats[(j, i)], mats[(i, j)].a.T)
        cert.failed(f"block {(j, i)} is the transpose of block {(i, j)}", pos)

    in_k = group_labels(base.m, base.n) > 0
    if p.f == 2:
        comp = companion_params(base)
        sub = verify_gram(IntMatrix(mats[(1, 2)].a + in_k), comp)
        if sub.ok:
            cert.passed(f"pair: A + K is a symmetric GDD with {comp}")
        else:
            for v in sub.violations:
                cert.failed(f"pair companion: {v.identity}", v.position, v.expected, v.actual)
        return cert

    twice_k = 2 * in_k
    coeffs = (p.tau, p.sigma, p.rho, p.sigma - p.tau + p.rho)
    v = base.v
    for i, j in pairs:
        ls = [l for l in range(1, p.f + 1) if l not in (i, j)]
        wide = mats[(i, j)] @ IntMatrix(np.hstack([mats[(j, l)].a for l in ls]))
        for t, l in enumerate(ls):
            prod = IntMatrix(wide.a[:, t * v : (t + 1) * v])
            expected = pattern(mats[(i, l)].a + twice_k, coeffs)
            compare(cert, f"triple product ({i},{j},{l})", prod, expected)
    return cert


def verify_linked(fam: LinkedMolsFamily) -> Certificate:
    cert = Certificate(f"linked family f={fam.f} order={fam.order}")
    idx = range(1, fam.f + 1)

    def square(i: int, j: int) -> np.ndarray:
        return fam.stack[pair_index(fam.f, i, j)]

    for i in idx:
        for j in idx:
            for k in idx:
                if len({i, j, k}) != 3:
                    continue
                lik, ljk = square(i, k), square(j, k)
                if not is_orthogonal(lik, ljk):
                    cert.failed(f"triple {(i, j, k)}: squares sharing the third index are not orthogonal")
                    continue
                if not np.array_equal(compose(lik, ljk), square(i, j)):
                    cert.failed(f"triple {(i, j, k)}: composition does not reproduce the pair square")
    if cert.ok:
        cert.passed("on every ordered triple (i, j, k), L_ik and L_jk are orthogonal and compose to L_ij")
    return cert


def verify_auxiliary(aux: AuxiliarySet) -> Certificate:
    p, v = aux.params, aux.order
    cert = Certificate(f"auxiliary matrices {p}")
    mats = [IntMatrix(c.astype(np.int64)) for c in aux.stack]
    total = IntMatrix(sum(c.a for c in mats))
    compare(cert, "sum C_i equals (r - lambda) I + lambda J", total, pattern(np.eye(v, dtype=np.int64), (p.lam, p.r)))
    for a, c in enumerate(mats):
        compare(cert, f"C_{a + 1} C_{a + 1}^T = k C_{a + 1}", c @ c.T, pattern(c.a, (0, p.k)))
    for a, c in enumerate(mats):
        for b, d in enumerate(mats):
            if a != b:
                compare(cert, f"C_{a + 1} C_{b + 1}^T = mu J", c @ d.T, pattern(np.zeros((v, v), dtype=np.int64), (p.mu,)))
    for label, holds in (
        ("r k = r - lambda + lambda v", p.r * p.k == p.r - p.lam + p.lam * p.v),
        ("k^2 = mu v", p.k * p.k == p.mu * p.v),
        ("k + lambda - r = 0", p.k + p.lam - p.r == 0),
        ("k lambda - (r - 1) mu = 0", p.k * p.lam - (p.r - 1) * p.mu == 0),
        ("v = n^2 mu and k = n mu", p.v == p.n * p.n * p.mu and p.k == p.n * p.mu),
    ):
        if holds:
            cert.passed(label)
        else:
            cert.failed(label)
    return cert
