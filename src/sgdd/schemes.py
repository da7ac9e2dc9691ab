"""5-class association schemes attached to linked systems.

Assembly places the block designs in one cross-fiber class A_3 next to the
within-fiber classes (A_1 within group, A_2 across groups), the cross-fiber
group indicator A_5 and the leftover class A_4.  A scheme is held as one
uint8 class-label array R, R[x, y] the class of (x, y), built from a system
by ``scheme_matrices_from_system`` or read from a file, and checked against
the partition axioms by ``relation_from_classes``, which also builds R from
a list of class matrices.  Certification is exact and layered:

* the scheme axioms hold for the scheme of a certified linked system (see
  ``assemble_scheme``), so assembly and every load certify through the
  system and read p_{i,j}^k at one pair per class; inputs no system
  certifies take the dense check of ``compute_intersection_numbers``;
* the eigenmatrices P and Q are closed forms over Q(sqrt(D)),
  D = squarefree(k(m-1)(n-1)(mn-k-n)), held as integer numerators over one
  denominator each and verified against p by integer 6x6 identities:
  P Q = |X| I, the row sums of Q and the eigenvalue equations
  B_i Q = Q diag(P[:, i]), (B_i)_{k,l} = p_{i,l}^k (see ``compute_spectra``);
* Krein parameters are integer triple sums over one denominator, checked
  non-negative and against their closed form.

Every certificate derives from one certified p-tensor.  ``assemble_scheme``
certifies a scheme built from a linked system; ``certify_classes`` is the
one path that certifies loaded class matrices, shared by the CLI's
``verify scheme``, ``extract``, ``analyze`` and ``fusion``: it computes the
axioms and p once and certifies them through a labeling's system.
``load_scheme`` reuses the primary labeling's spectra and adds the Krein
parameters.  Fusion is decided from the certified p alone.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import IntMatrix, first_differences, lane_table, square_free_decomposition, surd_sign
from .designs import Certificate, GddParams, equivalence_classes, group_labels, looked_up, stack_slices
from .errors import CertificationError, ParameterError
from .linked import LinkedParams, LinkedSystemII, verify_linked_system

CLASSES = 6


@dataclass(frozen=True)
class SchemeParams:
    k: int
    m: int
    n: int
    f: int

    @property
    def size(self) -> int:
        return self.f * self.m * self.n

    def __post_init__(self):
        if self.m < 2 or self.n < 2 or self.f < 2:
            raise ParameterError("need m, n, f >= 2")
        mn = self.m * self.n
        if not 0 < self.k < (self.m - 1) * self.n:
            raise ParameterError(f"k = {self.k} outside (0, (m-1)n) for v = {mn}")


@dataclass(frozen=True)
class Eigenmatrix:
    """The 6x6 matrix, or the 6x6x6 Krein tensor, (rational + irrational
    sqrt(radicand)) / den: numerators in object arrays of Python integers of
    that shape, one positive denominator, and a square-free radicand, or 0
    when every entry is rational."""

    rational: np.ndarray
    irrational: np.ndarray
    den: int
    radicand: int


@dataclass
class Spectra:
    P: Eigenmatrix
    Q: Eigenmatrix
    multiplicities: list[int]
    radicand: int


@dataclass
class AssociationScheme:
    relation: np.ndarray             # uint8 label array: R[x, y] is the class of (x, y)
    p: list[list[list[int]]]
    params: SchemeParams
    spectra: Spectra
    krein: Eigenmatrix               # q_{i,j}^k at [i, j, k]
    certificate: Certificate

    @property
    def size(self) -> int:
        return self.relation.shape[0]

    def valencies(self) -> list[int]:
        return [self.p[i][i][0] for i in range(CLASSES)]


# -- axioms and intersection numbers ------------------------------------------

# recorded once every product A_i A_j is known to be constant on every class
_DECOMPOSITION = (
    "all products A_i A_j decompose with constant class coefficients",
    "intersection numbers are symmetric in the lower indices",
)


def _symmetric(a: np.ndarray) -> bool:
    """a = a^T for a square array, compared 128 x 128 tile by tile: a
    transposed tile stays in cache, where a transposed row of a large array
    strides across all of it (8 ms in place of 95 ms at order 3840)."""
    tile, n = 128, len(a)
    return all(np.array_equal(a[r : r + tile, c : c + tile], a[c : c + tile, r : r + tile].T) for r in range(0, n, tile) for c in range(r, n, tile))


class ClassLabels:
    """The classes A_0, ..., A_{count-1}: ``extra[i]``, a block, for each
    class i that a uint8 label array R does not hold, else (R == i) as
    uint8, R as ``fileio.read_scheme`` writes it or ``assemble_scheme``
    builds it, a label of ``count`` or more marking a pair in no class.
    Indexing gives them, so it stands wherever a class list does."""

    def __init__(self, relation: np.ndarray | None, count: int):
        self.relation, self.count, self.extra = relation, count, {}

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, idx: int) -> np.ndarray:
        idx = range(self.count)[idx]
        return self.extra[idx] if idx in self.extra else (self.relation == idx).view(np.uint8)

    def claim(self, label: int, digits: np.ndarray) -> bool:
        """Whether ``label`` went into R, which holds only labels below it
        and 255 (no class yet), wherever the 0/1 ``digits`` hold a 1 and no
        pair is claimed twice; else R is left as it was.  A 1 adds label + 1
        mod 256 in place: 255 becomes the label and a label c < 255 never
        does: the label count, taken band by band, falls short exactly then."""
        relation, ones = self.relation, np.count_nonzero(digits)
        np.multiply(digits, label + 1, out=digits)
        np.add(relation, digits, out=relation, dtype=np.uint8, casting="unsafe")  # digits <= 255, sum mod 256
        if ones == sum(np.count_nonzero(relation[rows] == label) for rows in stack_slices(len(relation), len(relation))):
            return True
        np.subtract(relation, digits, out=relation, dtype=np.uint8, casting="unsafe")
        np.minimum(digits, 1, out=digits)
        return False


def relation_from_classes(classes) -> tuple[np.ndarray | None, Certificate]:
    """R[x, y] = i for (x, y) in class i of the integer or boolean arrays
    A_0, ..., A_d, with the certificate of the O(|X|^2) axioms: A_0 = I,
    every class a symmetric square 0/1 matrix, sum A_i = J and no class
    empty.  R is None unless they hold; it is uint8 up to 255 classes.

    ``ClassLabels`` with no ``extra`` are checked once on their own R,
    which is returned as it is when they hold: every pair in a class,
    R = R^T, R = 0 exactly on the diagonal (A_0 = I) and no label missing
    make every class symmetric 0/1 and sum A_i = J.  Any other input, and
    one that fails, is checked class by class, as a list is."""
    cert = Certificate("association scheme axioms")
    if isinstance(classes, ClassLabels) and not classes.extra:
        relation, size = classes.relation, len(classes.relation)
        if (
            int(relation.max()) < len(classes)
            and not relation.diagonal().any()
            and np.count_nonzero(relation) == size * (size - 1)
            and _symmetric(relation)
            and all((relation == i).any() for i in range(1, len(classes)))
        ):
            cert.passed("A_0 = I")
            cert.passed("sum A_i = J")
            return relation, cert
    size = classes[0].shape[0]
    relation = np.zeros((size, size), dtype=np.min_scalar_type(len(classes)))
    count, term = np.zeros_like(relation), np.empty_like(relation)
    if np.array_equal(classes[0], np.eye(size, dtype=np.uint8)):
        cert.passed("A_0 = I")
    else:
        cert.failed("A_0 = I", (0, 0))
    for idx, a in enumerate(classes):
        # two reductions, where == 0 | == 1 would form three |X|^2 boolean arrays
        if not (a.shape == (size, size) and (a.dtype == np.bool_ or (a.min() >= 0 and a.max() <= 1))):
            cert.failed(f"A_{idx} is a square 0/1 matrix of order {size}")
            return None, cert
        if not _symmetric(a):
            cert.failed(f"A_{idx} is symmetric")
        # a is 0/1: count += a and relation += idx a, in the labels' dtype;
        # where classes overlap the count exceeds 1 and R is not returned
        np.add(count, a, out=count, casting="unsafe")
        np.multiply(a, relation.dtype.type(idx), out=term, casting="unsafe")
        relation += term
    pos = first_differences(count[None], 1)[0]
    cert.record("sum A_i = J", None if pos is None else (pos, 1, int(count[pos])))
    if idx_zero := [i for i, a in enumerate(classes) if not a.any()]:
        cert.failed(f"classes {idx_zero} are empty")
    return (relation if cert.ok else None), cert


def _first_pair_numbers(relation: np.ndarray) -> list[list[list[int]]]:
    """p_{i,j}^k = (A_i A_j)[x, y] at class k's first pair (x, y) in
    row-major order: the number of z with R[x, z] = i and R[y, z] = j, for
    R symmetric.  These are the intersection numbers exactly when every
    A_i A_j is constant on every class."""
    d1 = int(relation.max()) + 1
    firsts = [divmod(int(np.argmax(relation == k)), relation.shape[0]) for k in range(d1)]
    counts = [np.bincount(relation[x].astype(np.intp) * d1 + relation[y], minlength=d1 * d1) for x, y in firsts]
    return np.stack(counts, axis=-1).reshape(d1, d1, d1).tolist()


def _constant_on_classes(relation: np.ndarray, p, cert: Certificate) -> bool:
    """The dense check: A_i A_j = sum_k p_{i,j}^k A_k entrywise for
    1 <= i <= j, each pair compared band by band of rows of at most
    STACK_ENTRIES entries; the first failing pair, and the least class where
    it differs, go to ``cert``.

    A class that is a difference of uniform equivalences found on R
    (``_equivalence_differences``) multiplies as class sums, with no kernel
    product: (B - B') A_j has in row x the sum of A_j's rows over x's class
    of B less that over its class of B' (``_class_sum_rows``).  When only
    A_j is such a class, A_j A_i is formed: it is the transpose of A_i A_j,
    so it differs from p_{i,j} looked up on the symmetric R on the same
    classes.  Any other pair is one kernel product of order |X| of the
    classes as boolean masks of R, compared in its lane with p_{i,j} looked
    up there (``lane_table``).  For a scheme's six classes in any order,
    only the products among the two cross-fiber classes A_3 and A_4 go to
    the kernel."""
    d1, size = len(p), len(relation)
    bands = stack_slices(size, size)
    counts = np.min_scalar_type(-size - 1)  # a signed dtype that holds every count of |X| terms
    differences = _equivalence_differences(relation, p)
    for i in range(1, d1):
        a_i = None
        for j in range(i, d1):
            if differences.keys() & {i, j}:
                s, t = (i, j) if i in differences else (j, i)
                band_of, coeffs = _class_sum_rows(relation, t, *differences[s], counts), np.array(p[i][j], dtype=counts)
            else:
                a_i = IntMatrix.view(relation == i) if a_i is None else a_i
                prod = (a_i @ IntMatrix.view(relation == j)).lane
                band_of, coeffs = prod.__getitem__, lane_table(p[i][j], prod.dtype)
            # the classes of the entries where the product differs, band by band
            wrong = [relation[rows][band_of(rows) != looked_up(coeffs, relation[rows])] for rows in bands]
            if any(len(w) for w in wrong):
                cert.failed(f"A_{i} A_{j} is not constant on class {min(int(w.min()) for w in wrong if len(w))}")
                return False
    return True


def _equivalence(relation: np.ndarray, p, labels) -> list[tuple[int, ...]] | None:
    """The classes of "R[x, y] is in ``labels``" (0 among them), by least
    point, when it is a uniform equivalence (``equivalence_classes``); else
    None, with no scan of R when p is not closed on the labels (``_closed``)."""
    if not _closed(p, labels):
        return None
    mask = relation == labels[0]  # not np.isin, which indexes a table by a wide copy of R
    for c in labels[1:]:
        mask |= relation == c
    return equivalence_classes(mask)


def _equivalence_differences(relation: np.ndarray, p) -> dict[int, tuple]:
    """Class i -> (the classes of B, those of B' or None) for each class
    A_i = B - B' of uniform equivalences B and B' found on R: B of {0, i}
    and B' = I, or else B of {0, c, i} and B' of {0, c} for a class c whose
    {0, c} is one.  For a scheme's six classes: the groups A_1, the fibers
    less the groups A_2, and the aligned groups less the groups A_5."""
    def points(labels) -> np.ndarray | None:
        classes = _equivalence(relation, p, labels)
        return None if classes is None else np.array(classes, dtype=np.intp)

    alone = {i: points((0, i)) for i in range(1, len(p))}
    found = {i: (classes, None) for i, classes in alone.items() if classes is not None}
    for i in [i for i in alone if i not in found]:
        for c in [c for c in found if found[c][1] is None]:
            if (classes := points((0, c, i))) is not None:
                found[i] = (classes, alone[c])
                break
    return found


def _class_sum_rows(relation: np.ndarray, j: int, big: np.ndarray, small: np.ndarray | None, dtype):
    """The rows of (B - B') A_j, as a function of a band of rows, for the
    equivalences B and B' with the classes ``big`` and ``small`` ((count,
    size) arrays of points; None for B' = I).  Row x of B A_j is the sum of
    A_j's rows over x's class of B: exact counts in ``dtype``, read from one
    gather of R's rows in class order, a slice of classes within
    STACK_ENTRIES at a time, reshaped to a class per row and summed.  (A
    reshape and sum, not ``np.add.reduceat``, which is many times slower.)"""
    size = len(relation)

    def sums(classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count, width = classes.shape
        out = np.empty((count, size), dtype=dtype)
        for part in stack_slices(count, width * size):
            out[part] = (relation[classes[part].ravel()] == j).reshape(-1, width, size).sum(axis=1, dtype=dtype)
        owner = np.empty(size, dtype=np.intp)  # owner[x] is the class of x
        owner[classes] = np.arange(count)[:, None]
        return out, owner

    total, owner = sums(big)
    if small is None:
        return lambda rows: total[owner[rows]] - (relation[rows] == j)
    inner, inner_owner = sums(small)
    return lambda rows: total[owner[rows]] - inner[inner_owner[rows]]


def compute_intersection_numbers(classes) -> tuple[list[list[list[int]]] | None, Certificate]:
    """Exhaustive axiom check for any number of classes: the partition
    axioms, p read at one pair per class, then every product A_i A_j with
    1 <= i <= j checked entrywise against p (``_constant_on_classes``: as
    class sums where a factor is a difference of uniform equivalences on R,
    as a kernel product of order |X| otherwise).  ``certify_classes`` runs
    the same check when no labeling certifies through a linked system."""
    relation, cert = relation_from_classes(classes)
    if relation is None:
        return None, cert
    p = _first_pair_numbers(relation)
    if not _constant_on_classes(relation, p, cert):
        return None, cert
    cert.checks += _DECOMPOSITION
    return p, cert


# -- closed-form spectra --------------------------------------------------------


def _eigenmatrix(rational, root, den: int, params: SchemeParams) -> Eigenmatrix:
    """(rational + s root sqrt(D)) / den with s^2 D = k w (m-1)(n-1),
    w = mn - k - n and D square-free (w > 0, so D >= 1); D = 1 is folded
    into the rational part and recorded as radicand 0."""
    k, m, n = params.k, params.m, params.n
    s, d = square_free_decomposition(k * (m * n - k - n) * (m - 1) * (n - 1))
    rational, irrational = np.array(rational, dtype=object), s * np.array(root, dtype=object)
    if d == 1:
        return Eigenmatrix(rational + irrational, 0 * irrational, den, 0)
    return Eigenmatrix(rational, irrational, den, d)


def closed_form_p_matrix(params: SchemeParams) -> Eigenmatrix:
    """P over c_P = (m-1)(n-1); the irrational entries are
    +-sqrt(k w / c_P) = +-s sqrt(D) / c_P, times f - 1 in row 1."""
    k, m, n, f = params.k, params.m, params.n, params.f
    w = m * n - k - n
    c = (m - 1) * (n - 1)
    rational = [
        [c, c * (n - 1), c * (m - 1) * n, c * (f - 1) * k, c * (f - 1) * w, c * (f - 1) * n],
        [c, -c, 0, 0, 0, 0],
        [c, c * (n - 1), -c * n, -(f - 1) * k * (n - 1), -(f - 1) * w * (n - 1), c * (f - 1) * n],
        [c, c * (n - 1), -c * n, k * (n - 1), c * n - k * (n - 1), -c * n],
        [c, -c, 0, 0, 0, 0],
        [c, c * (n - 1), c * (m - 1) * n, -c * k, -c * w, -c * n],
    ]
    z = [0] * CLASSES
    root = [z, [0, 0, 0, f - 1, 1 - f, 0], z, z, [0, 0, 0, -1, 1, 0], z]
    return _eigenmatrix(rational, root, c, params)


def closed_form_q_matrix(params: SchemeParams) -> Eigenmatrix:
    """Q over c_Q = k w (m-1); the irrational entries are
    +-m sqrt((n-1) w / (k (m-1))) = +-m w s sqrt(D) / c_Q in row 3 and
    +-m sqrt(k (n-1) / ((m-1) w)) = +-m k s sqrt(D) / c_Q in row 4."""
    k, m, n, f = params.k, params.m, params.n, params.f
    w = m * n - k - n
    c = k * w * (m - 1)
    rational = [
        [c, c * m * (n - 1), c * (m - 1), c * (f - 1) * (m - 1), c * (f - 1) * m * (n - 1), c * (f - 1)],
        [c, -c * m, c * (m - 1), c * (f - 1) * (m - 1), -c * (f - 1) * m, c * (f - 1)],
        [c, 0, -c, -c * (f - 1), 0, c * (f - 1)],
        [c, 0, -c, c, 0, -c],
        [c, 0, -c, c, 0, -c],
        [c, 0, c * (m - 1), -c * (m - 1), 0, -c],
    ]
    z = [0] * CLASSES
    root = [z, z, z, [0, m * w, 0, 0, -m * w, 0], [0, -m * k, 0, 0, m * k, 0], z]
    return _eigenmatrix(rational, root, c, params)


def closed_form_multiplicities(params: SchemeParams) -> list[int]:
    m, n, f = params.m, params.n, params.f
    return [1, m * (n - 1), m - 1, (f - 1) * (m - 1), (f - 1) * m * (n - 1), f - 1]


def closed_form_krein_b2(params: SchemeParams) -> list[list[int]]:
    """f q_{2,j}^k, the entrywise-product structure constants of E_2 times f,
    in integers; q_21^1 = m/f - 1 sits at [1][1]."""
    m, f = params.m, params.f
    return [
        [0, 0, f, 0, 0, 0],
        [0, m - f, 0, 0, m, 0],
        [f * (m - 1), 0, f * (m - 2), 0, 0, 0],
        [0, 0, 0, f * (m - 2), 0, f * (m - 1)],
        [0, (f - 1) * m, 0, 0, f * (m - 1) - m, 0],
        [0, 0, 0, f, 0, 0],
    ]


def _times(x, y, d: int, mul=np.matmul):
    """(R + S sqrt(d)) (R' + S' sqrt(d)) = (R R' + d S S') + (R S' + S R') sqrt(d)
    for pairs of integer arrays, as matrix products or, with ``np.multiply``,
    entrywise."""
    (r, s), (r2, s2) = x, y
    return mul(r, r2) + d * mul(s, s2), mul(r, s2) + mul(s, r2)


def _is_rational(x, value) -> bool:
    """Whether the pair x = (R, S) of integer arrays is (value, 0) entrywise."""
    return bool(np.all(x[0] == value) and np.all(x[1] == 0))


def compute_spectra(p, params: SchemeParams) -> tuple[Spectra, Certificate]:
    """Closed-form P, Q over Q(sqrt(D)), certified against the certified
    intersection numbers by identities between 6x6 matrices.

    With E_j = (1/|X|) sum_i Q_{i,j} A_i (Bannai-Ito, Algebraic
    Combinatorics I, sections 2.2-2.3) the checks are:

    * P Q = |X| I;
    * sum_j E_j = I, read off the row sums of Q: |X| in row 0, 0 elsewhere;
    * A_i E_j = P_{j,i} E_j, as B_i Q = Q diag(P[:, i]) with
      (B_i)_{k,l} = p_{i,l}^k: column j of B_i Q is |X| times the class
      coefficients of A_i E_j;
    * Q row 0 equals the multiplicities, which is tr E_j = m_j as well,
      since tr E_j = |X| times the coefficient of A_0 in E_j = Q_{0,j};
    * P row 0 equals the valencies.

    With P = (P_r + P_s sqrt(D)) / c_P and Q = (Q_r + Q_s sqrt(D)) / c_Q, each
    is a pair of integer identities, for the rational and the sqrt(D) parts
    (sqrt(D) is irrational, or D = 0 and P_s = Q_s = 0).

    That the E_j are pairwise orthogonal idempotents is derived, not
    multiplied out: once P Q = |X| I and every eigenvalue equation hold,
    E_l E_j = (1/|X|) sum_i Q_{i,l} A_i E_j = (1/|X|) sum_i Q_{i,l} P_{j,i} E_j
    = (1/|X|) (P Q)_{j,l} E_j = [j = l] E_j."""
    cert = Certificate(f"closed-form spectra at (k,m,n,f)=({params.k},{params.m},{params.n},{params.f})")
    size = params.size
    pm, qm, mult = closed_form_p_matrix(params), closed_form_q_matrix(params), closed_form_multiplicities(params)
    spectra = Spectra(pm, qm, mult, pm.radicand)
    if sum(mult) != size:
        cert.failed("multiplicities sum to |X|")
        return spectra, cert
    cert.passed("multiplicities sum to |X|")
    d, pr, ps, qr, qs = pm.radicand, pm.rational, pm.irrational, qm.rational, qm.irrational

    ok_pq = _is_rational(_times((pr, ps), (qr, qs), d), size * pm.den * qm.den * np.eye(CLASSES, dtype=object))
    cert.check("P Q = |X| I", ok_pq)
    cert.check("sum E_j = I", _is_rational((qr.sum(axis=1), qs.sum(axis=1)), [size * qm.den] + [0] * (CLASSES - 1)))

    # [i, k, j]: c_P (B_i Q)_{k,j} against Q_{k,j} P_{j,i}, both over c_P c_Q
    b = np.array(p, dtype=object).transpose(0, 2, 1)
    lhs = (pm.den * (b @ qr), pm.den * (b @ qs))
    rhs = _times((qr[None], qs[None]), (pr.T[:, None], ps.T[:, None]), d, np.multiply)
    bad = ((lhs[0] != rhs[0]) | (lhs[1] != rhs[1])).any(axis=1)
    eigen_failures = [f"A_{i} E_{j} = P[{j},{i}] E_{j}" for i, j in zip(*np.nonzero(bad))]
    if ok_pq and not eigen_failures:
        cert.passed("E_j are pairwise orthogonal idempotents")
    for line in eigen_failures:
        cert.failed(line)
    if not eigen_failures:
        cert.passed("A_i E_j = P_{j,i} E_j for all i, j")

    bad_mult = [j for j in range(CLASSES) if not _is_rational((qr[0, j], qs[0, j]), mult[j] * qm.den)]
    for j in bad_mult:
        cert.failed(f"m_{j} = Q[0,{j}]")
    if not bad_mult:
        cert.passed("multiplicities match Q row 0 and the idempotent traces")

    cert.check("P row 0 equals the valencies", _is_rational((pr[0], ps[0]), [p[i][i][0] * pm.den for i in range(CLASSES)]))

    return spectra, cert


def compute_krein(spectra: Spectra, params: SchemeParams) -> tuple[Eigenmatrix, Certificate]:
    """q_{i,j}^k = (1/|X|) sum_l Q[l,i] Q[l,j] P[k,l], read off the
    eigenmatrices that ``compute_spectra`` certified against p: E_i o E_j is
    (1/|X|^2) sum_l Q[l,i] Q[l,j] A_l and A_l = sum_k P[k,l] E_k
    (Bannai-Ito, Algebraic Combinatorics I, section 2.3).

    Every q_{i,j}^k is an integer triple sum over |X| c_Q^2 c_P, signed by
    ``surd_sign``, and the tensor is held as those numerators; the closed
    forms are compared in integers, times f."""
    cert = Certificate("Krein parameters")
    pm, qm, d = spectra.P, spectra.Q, spectra.radicand
    m, f = params.m, params.f
    den = params.size * qm.den**2 * pm.den
    qr, qs = qm.rational.T, qm.irrational.T
    # [i, j, l]: numerators of Q[l,i] Q[l,j]; then [i, j, k] after the sum over l
    had = _times((qr[:, None], qs[:, None]), (qr[None], qs[None]), d, np.multiply)
    num_r, num_s = _times(had, (pm.rational.T, pm.irrational.T), d)
    for i in range(CLASSES):
        for j in range(i, CLASSES):
            for k in range(CLASSES):
                if surd_sign(num_r[i, j, k], num_s[i, j, k], d) < 0:
                    cert.failed(f"Krein parameter q_{i}{j}^{k} is negative")
    if cert.ok:
        cert.passed("all Krein parameters are non-negative")

    b2 = np.array(closed_form_krein_b2(params), dtype=object)
    cert.check("entrywise-product structure constants of E_2 match their closed form", _is_rational((f * num_r[2], num_s[2]), b2 * den))
    if _is_rational((f * num_r[2, 1, 1], num_s[2, 1, 1]), (m - f) * den):
        cert.passed(f"q_21^1 = m/f - 1 = {Fraction(m - f, f)}")
    else:
        cert.failed("q_21^1 = m/f - 1")
    return Eigenmatrix(num_r, num_s, den, d), cert


# -- assembly --------------------------------------------------------------------


def scheme_matrices_from_system(sys: LinkedSystemII) -> np.ndarray:
    """The label array of the scheme of ``sys``, classes numbered as in
    ``assemble_scheme``: 0, 1, 2 on I, K - I, J - K within fibers and, across
    fibers, 3 on the 1s of the blocks A_ij, 5 on the rest of K, 4 elsewhere.
    Each block is written in place into R, with no copy of the stack."""
    base, f = sys.params.base, sys.params.f
    group = group_labels(base.m, base.n)  # 0 on J - K, 1 on K - I, 2 on I
    within, across = np.array([[2, 1, 0], [4, 5, 5]], dtype=np.uint8)[:, group]
    relation = np.empty((f, base.v, f, base.v), dtype=np.uint8)
    blocks = iter(sys.stack)  # in the order of ordered_pairs
    for i in range(f):
        for l in range(f):
            block = relation[i, :, l]
            if i == l:
                block[...] = within
            else:
                block[...] = across
                np.copyto(block, np.uint8(3), where=next(blocks).view(bool))
    return relation.reshape(f * base.v, f * base.v)


def _certified_scheme(
    relation, p, params: SchemeParams, axioms: Certificate, spectra: Spectra, spec_cert: Certificate
) -> AssociationScheme:
    """Add the Krein parameters to certified p and spectra; the scheme's
    certificate lists the axiom, spectra and Krein checks in that order."""
    krein, krein_cert = compute_krein(spectra, params)
    cert = Certificate(axioms.subject)
    for part in (axioms, spec_cert, krein_cert):
        cert.checks += part.checks
        cert.violations += part.violations
    return AssociationScheme(relation, p, params, spectra, krein, cert)


def assemble_scheme(sys: LinkedSystemII) -> AssociationScheme:
    """Build the six classes and certify everything; raises on any failure.

    The certified system is the certificate of the scheme axioms.  With
    K = I_m (x) J_n, ``scheme_matrices_from_system`` labels A_0 = I,
    A_1 = I_f (x) (K - I), A_2 = I_f (x) (J - K), A_5 = (J_f - I_f) (x) K,
    A_3 with the blocks A_ij off the diagonal, and
    A_4 = (J_f - I_f) (x) J - A_3 - A_5.  ``verify_linked_system`` certifies
    that each A_ij is a symmetric GDD (so A_ij J = J A_ij = k J), that
    A_ij + K is 0/1, A_ij K = K A_ij = k/(m-1) (J - K), A_ji = A_ij^T and,
    for f >= 3, the triple products.  Block by block:

    * the classes are symmetric 0/1 matrices summing to J: A_3 is symmetric
      as A_ji = A_ij^T, and misses A_5 as A_ij + K is 0/1;
    * block (i,i) of A_3^2 is sum_j A_ij A_ij^T
      = (f-1)(k I + l1 (K - I) + l2 (J - K)), on A_0, A_1, A_2;
    * block (i,l) of A_3^2, for i != l, is sum_{j != i,l} A_ij A_jl
      = (f-2)(sigma A_il + tau (J - A_il - K) + rho K), on A_3, A_4, A_5;
    * A_ij K = K A_ij = k/(m-1) (J - K) and A_ij J = k J cover every product
      of A_3 with a pattern class A_0, A_1, A_2, A_5 (or with J), and the
      products of pattern classes are Kronecker products of patterns;
    * A_4 = (J_f - I_f) (x) J - A_3 - A_5 follows linearly.

    So every A_i A_j is constant on every class.  The partition checks run
    on the assembled classes as on loaded ones, p is read at one pair per
    class, and no product of order |X| is formed.  A sealed system carries
    its certificate; any other is certified here."""
    if sys.certificate is None and not (sys_cert := verify_linked_system(sys)).ok:
        raise CertificationError("input system fails certification", sys_cert)
    base = sys.params.base
    params = SchemeParams(k=base.k, m=base.m, n=base.n, f=sys.params.f)
    relation, cert = relation_from_classes(ClassLabels(scheme_matrices_from_system(sys), CLASSES))
    if relation is None:
        raise CertificationError("assembled matrices fail the scheme axioms", cert)
    p = _first_pair_numbers(relation)
    cert.checks += _DECOMPOSITION
    scheme = _certified_scheme(relation, p, params, cert, *compute_spectra(p, params))
    if not scheme.certificate.ok:
        raise CertificationError("assembled scheme fails certification", scheme.certificate)
    return scheme


# -- structure identification and extraction ---------------------------------------


@dataclass
class ExtractionCandidate:
    labels: tuple[int, ...]          # canonical position -> input class index
    params: SchemeParams
    triple: tuple[int, int, int] | None
    spectra: Spectra
    spectra_certificate: Certificate
    certificate: Certificate | None = None  # of the system cut from A_3, once tried
    system: LinkedSystemII | None = None     # the certified system, kept for the primary candidate only

    @property
    def spectra_match(self) -> bool:
        return self.spectra_certificate.ok

    @property
    def certified(self) -> bool:
        """Whether the system cut from A_3 was tried and certifies."""
        return self.certificate is not None and self.certificate.ok


@dataclass
class ExtractionReport:
    candidates: list[ExtractionCandidate]
    p: list[list[list[int]]] | None  # in input class order; None when the partition fails
    certificate: Certificate         # the scheme axioms behind p
    relation: np.ndarray | None      # the label array, in input class order

    @property
    def primary(self) -> ExtractionCandidate:
        for cand in self.candidates:
            if cand.spectra_match and cand.certified:
                return cand
        raise CertificationError("no labeling matches the closed-form spectra and certifies")


def _closed(p, labels) -> bool:
    """Whether p_{a,b}^k = 0 for all a, b in ``labels`` and k not in it.

    For any symmetric R with no empty class and 0 in ``labels``, this holds
    whenever "R[x, y] is in ``labels``" is an equivalence: p_{a,b}^k counts
    the z with R[x, z] = a and R[y, z] = b at a real pair (x, y) of class k,
    and such a z would relate x ~ z ~ y, so k would be in ``labels``.  A
    label set failing it needs no scan of R."""
    outside = [k for k in range(len(p)) if k not in labels]
    return not any(p[a][b][k] for a in labels for b in labels for k in outside)


def _identify_labelings(relation: np.ndarray, p) -> list[dict]:
    """Every labeling (c0, ..., c5) whose groups {c0, c1} and fibers
    {c0, c1, c2} are uniform equivalences with m >= 2 groups of n points per
    fiber and f >= 2 fibers, and whose c5 has the valency (f-1)n and meets
    c1 as the aligned groups do, with (m, n, f) and the groups and fibers
    found.  A label set is scanned on R only when p is closed on it
    (``_closed``)."""
    size = relation.shape[0]
    idx = range(CLASSES)
    c0 = 0  # the partition axioms put I in class 0
    valency = {i: p[i][i][0] for i in idx}

    out = []
    for c1 in idx[1:]:
        groups = _equivalence(relation, p, (c0, c1))
        if groups is None:
            continue
        n = 1 + valency[c1]
        for c2 in idx:
            if c2 in (c0, c1):
                continue
            fibers = _equivalence(relation, p, (c0, c1, c2))
            if fibers is None:
                continue
            mn = len(fibers[0])
            if mn % n or mn // n < 2 or size % mn:
                continue
            m = mn // n
            f = size // mn
            if f < 2 or valency[c2] != (m - 1) * n:
                continue
            rest = [i for i in idx if i not in (c0, c1, c2)]
            for c5 in rest:
                if valency[c5] != (f - 1) * n:
                    continue
                expected = [0] * CLASSES
                expected[c5] = n - 1
                if p[c1][c5] != expected:
                    continue
                c3c4 = [i for i in rest if i != c5]
                for c3 in c3c4:
                    c4 = next(i for i in c3c4 if i != c3)
                    out.append(
                        {"labels": (c0, c1, c2, c3, c4, c5), "m": m, "n": n, "f": f, "groups": groups, "fibers": fibers}
                    )
    return out


def _one_row_sum(relation: np.ndarray, label: int) -> bool:
    """Whether every row of R holds ``label`` equally often."""
    sums = (relation == label).view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(len(relation)))
    return bool((sums == sums[0]).all())


def _relabel_p(p, labels):
    return [
        [[p[labels[a]][labels[b]][labels[c]] for c in range(CLASSES)] for b in range(CLASSES)]
        for a in range(CLASSES)
    ]


def _canonical_vertex_order(relation: np.ndarray, labels, m: int, n: int, groups, fibers) -> list[int] | None:
    """Vertex permutation sorting into fibers, aligned groups, ascending
    points, or None unless A_5 is the aligned-group pattern
    (J_f - I_f) (x) I_m (x) J_n in that order; identity whenever the input is
    already canonically ordered.  ``groups`` and ``fibers`` are the classes
    of {c0, c1} and {c0, c1, c2} by least point, as ``_identify_labelings``
    found them: uniform, with m groups of n points in every fiber.  Group j
    of a later fiber holds the first A_5-neighbour there of group j of
    fiber 0.

    A_5 is the pattern exactly when it has the pattern's |X| (f-1) n pairs
    and each pair of the pattern is in it: A_5 is read across the fibers of
    each aligned group row, m sets of fn points, and counted, with no outer
    comparison of order |X|."""
    c5, size = labels[5], len(relation)
    groups, fibers = np.array(groups), np.array(fibers)
    f = len(fibers)
    group_of = np.empty(size, dtype=np.intp)
    group_of[groups] = np.arange(len(groups))[:, None]
    # fiber 0's groups, in increasing number: the groups are numbered by least point
    ref = np.flatnonzero(np.bincount(group_of[fibers[0]], minlength=len(groups)))
    # the first A_5-neighbour in each later fiber of the least point of each group of fiber 0
    hits = relation[groups[ref, :1, None], fibers[1:]] == c5
    if not hits.any(axis=2).all():
        return None
    aligned = np.concatenate([ref[:, None], group_of[fibers[1:][np.arange(f - 1), hits.argmax(axis=2)]]], axis=1)
    ranked = np.sort(aligned, axis=0)
    if (ranked[1:] == ranked[:-1]).any():  # two groups of fiber 0 meet one group of a later fiber
        return None
    rows = groups[aligned]  # [j, t]: the points of aligned group row j in fiber t
    across = relation[rows.reshape(m, -1, 1), rows.reshape(m, 1, -1)] == c5
    within = np.eye(f, dtype=bool)[:, None, :, None]
    if not (across.reshape(m, f, n, f, n) | within).all() or np.count_nonzero(relation == c5) != size * (f - 1) * n:
        return None
    return rows.transpose(1, 0, 2).ravel().tolist()


def _candidates(relation: np.ndarray, p):
    """The uncertified candidates of six classes in report order, each with
    its (l1, l2) and the groups and fibers of its labeling."""
    # a class with unequal row sums is not a class of a scheme: the dense
    # route rejects such an input, so no labeling is tried.  A_0 = I, and
    # the classes sum to |X| in every row, so A_1's row sums follow
    found = []
    for lab in _identify_labelings(relation, p) if all(_one_row_sum(relation, i) for i in range(2, CLASSES)) else []:
        labels = lab["labels"]
        m, n, f = lab["m"], lab["n"], lab["f"]
        pp = _relabel_p(p, labels)
        # A_3^2 = (f-1)(k A_0 + l1 A_1 + l2 A_2) + (f-2)(sigma A_3 + tau A_4 + rho A_5)
        coeffs = pp[3][3]
        if any(x % (f - 1) for x in coeffs[:3]) or (f >= 3 and any(x % (f - 2) for x in coeffs[3:])):
            continue
        k, l1, l2 = (x // (f - 1) for x in coeffs[:3])
        triple = tuple(x // (f - 2) for x in coeffs[3:]) if f >= 3 else None
        if not l1 < k < (m - 1) * n:
            continue
        try:
            params = SchemeParams(k=k, m=m, n=n, f=f)
        except ParameterError:
            continue
        cand = ExtractionCandidate(labels, params, triple, *compute_spectra(pp, params))
        found.append((cand, (l1, l2), (lab["groups"], lab["fibers"])))
    found.sort(key=lambda item: (not item[0].spectra_match, item[0].labels))
    return found


def _certify(relation: np.ndarray, cand: ExtractionCandidate, lambdas, structure) -> LinkedSystemII | None:
    """Certify ``cand`` by the system cut from A_3 in its canonical vertex
    order, if it has one, and return that system when it certifies.

    R is permuted into that order once, unless it is in it already, as
    every file ``assemble`` writes is; then block (i, j) of the stack is
    A_3 on the band of fiber i's rows at fiber j's columns, a slice of R,
    compared with the label of A_3 straight into the system's uint8 stack,
    with no index array.  A system that certifies is sealed."""
    k, m, n, f = cand.params.k, cand.params.m, cand.params.n, cand.params.f
    order = _canonical_vertex_order(relation, cand.labels, m, n, *structure)
    if order is None:
        return None
    mn = m * n
    with suppress(ParameterError):  # parameters no linked system has
        linked = LinkedParams(GddParams(mn, k, m, n, *lambdas), f, *(cand.triple or (None, None, None)))
        order = np.array(order)
        if (order != np.arange(len(order))).any():
            relation = relation[order][:, order]
        bands = relation.reshape(f, mn, f, mn)
        stack = np.empty((f, f - 1, mn, mn), dtype=np.uint8)
        for i in range(f):  # blocks (i, j), j != i, in the order of ordered_pairs
            for cols, at in ((slice(0, i), slice(0, i)), (slice(i + 1, f), slice(i, f - 1))):
                np.equal(bands[i, :, cols].swapaxes(0, 1), cand.labels[3], out=stack[i, at].view(bool))
        system = LinkedSystemII(linked, stack.reshape(-1, mn, mn))
        cand.certificate = verify_linked_system(system)
        return system.seal(cand.certificate) if cand.certified else None
    return None


def _certified(relation: np.ndarray, found, every: bool) -> list[ExtractionCandidate]:
    """The candidates of ``found``, certified in report order: all of them,
    or only up to the primary one, the first that certifies and matches the
    closed-form spectra.  Only the primary candidate keeps its system; any
    other's stack is released once its verdict is in, before the next cut."""
    primary = None
    for cand, lambdas, structure in found:
        if primary is not None and not every:
            break
        system = _certify(relation, cand, lambdas, structure)
        if primary is None and system is not None and cand.spectra_match:
            primary, cand.system = cand, system
        del system
    return [cand for cand, _, _ in found]


def certify_classes(classes, every: bool = False) -> ExtractionReport:
    """Certify the class matrices A_0, ..., A_d (see ``relation_from_classes``)
    with the partition axioms and p computed once.  For six classes, the
    labelings with the fiber structure are certified in report order: all of
    them, or only up to the primary one.  When none certifies, or for another
    number of classes, the dense check of ``compute_intersection_numbers``
    decides on the same R and p and names the first failing pair.  Raises
    nothing: the certificate holds the verdict."""
    relation, cert = relation_from_classes(classes)
    if relation is None:
        return ExtractionReport([], None, cert, None)
    p = _first_pair_numbers(relation)
    candidates = _certified(relation, _candidates(relation, p), every) if len(classes) == CLASSES else []
    if any(cand.certified for cand in candidates) or _constant_on_classes(relation, p, cert):
        cert.checks += _DECOMPOSITION
    return ExtractionReport(candidates, p, cert, relation)


def _load(classes, every: bool) -> ExtractionReport:
    """``certify_classes`` on six classes, raising unless they certify and
    some labeling exhibits the fiber structure."""
    if len(classes) != CLASSES:
        raise ParameterError("expected six classes")
    report = certify_classes(classes, every)
    if not report.certificate.ok:
        raise CertificationError("input fails the scheme axioms", report.certificate)
    if not report.candidates:
        raise CertificationError("no class labeling exhibits the fiber structure")
    return report


def extract_linked_system(classes) -> ExtractionReport:
    """Recover the linked system (or the f = 2 pair) from the class matrices
    A_0, ..., A_5; every class labeling compatible with the fiber structure
    is attempted and certified, so parameter-symmetric inputs report both
    readings.

    A labeling certifies when A_5 is the pattern of its canonical vertex
    order and the system read off A_3 in that order certifies.  A_0, A_1
    and A_2 are their patterns there, as groups and fibers are consecutive
    uniform equivalence classes, and A_4 follows from sum A_i = J: the input
    is the scheme of a certified system (see ``assemble_scheme``), and p is
    read at one pair per class."""
    return _load(classes, every=True)


def load_scheme(classes) -> tuple[AssociationScheme, ExtractionCandidate]:
    """The certified scheme behind loaded class matrices, in the class order
    of the primary extraction candidate, together with that candidate.

    As ``extract_linked_system``, but candidates are certified in report
    order only up to the primary one, whose spectra are reused; only the
    Krein parameters are new.  The scheme's R is the loaded one, relabelled
    into the candidate's class order only when that is not (0, ..., 5), as
    it is for every file ``assemble`` writes.  Raises when no labeling
    certifies; a failing spectra or Krein check is returned in the scheme's
    certificate."""
    report = _load(classes, every=False)
    primary, relation = report.primary, report.relation
    if primary.labels != tuple(range(CLASSES)):
        relation = np.argsort(primary.labels).astype(relation.dtype)[relation]  # input class -> canonical position
    scheme = _certified_scheme(
        relation, _relabel_p(report.p, primary.labels), primary.params,
        report.certificate, primary.spectra, primary.spectra_certificate,
    )
    return scheme, primary


# -- fusion ---------------------------------------------------------------------

FUSION_PARTITION = ((0,), (1, 2), (3, 5), (4,))


@dataclass
class FusionReport:
    fusable: bool
    predicted: bool
    partition: tuple[tuple[int, ...], ...]
    eigenspace_partition: tuple[tuple[int, ...], ...] | None
    relation: np.ndarray | None = field(default=None, repr=False)  # the scheme's R, when fusable

    @property
    def consistent(self) -> bool:
        return self.fusable == self.predicted

    @property
    def fused_relation(self) -> np.ndarray | None:
        """The label array of the merged classes, looked up on R when read:
        a report that is only printed reads no entry of R."""
        if self.relation is None:
            return None
        merged = [next(g for g, group in enumerate(self.partition) if i in group) for i in range(CLASSES)]
        return np.array(merged, dtype=np.uint8)[self.relation]


def fuse_classes(p, partition) -> list[list[list[int]]] | None:
    """Intersection numbers of the merged classes, or None when a product is
    not constant across a merged class (merge leaves the span)."""
    groups = [tuple(g) for g in partition]
    t = len(groups)
    fused = [[[0] * t for _ in range(t)] for _ in range(t)]
    for a in range(t):
        for b in range(t):
            coeff = [0] * len(p)
            for i in groups[a]:
                for j in groups[b]:
                    for k in range(len(p)):
                        coeff[k] += p[i][j][k]
            for c in range(t):
                vals = {coeff[k] for k in groups[c]}
                if len(vals) != 1:
                    return None
                fused[a][b][c] = vals.pop()
    return fused


def check_fusion(scheme: AssociationScheme) -> FusionReport:
    """Merge {A_0, A_1+A_2, A_3+A_5, A_4}; succeed exactly when
    k = (m-1)n(n-1)/(n+m-2), and report the induced idempotent partition.

    The scheme must come from ``assemble_scheme`` or ``load_scheme``: the
    fused intersection numbers are derived from its certified p, and the
    merged labels are not certified again."""
    params = scheme.params
    predicted = Fraction(params.k) == Fraction(
        (params.m - 1) * params.n * (params.n - 1), params.n + params.m - 2
    )
    if fuse_classes(scheme.p, FUSION_PARTITION) is None:
        return FusionReport(False, predicted, FUSION_PARTITION, None)
    # merged eigenspaces: group eigenspaces by their fused eigenvalues' numerators
    pm = scheme.spectra.P
    vectors = {}
    for j in range(CLASSES):
        key = tuple((pm.rational[j, list(g)].sum(), pm.irrational[j, list(g)].sum()) for g in FUSION_PARTITION)
        vectors.setdefault(key, []).append(j)
    eig_part = tuple(tuple(v) for v in sorted(vectors.values()))
    return FusionReport(True, predicted, FUSION_PARTITION, eig_part, scheme.relation)
