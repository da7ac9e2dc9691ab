"""Reference route for the 6x6 eigenmatrix algebra: the closed forms of P and
Q written entry by entry as ``Surd`` values, a dense matrix over Q(sqrt(d))
with a triple-loop product, the Krein parameters summed in ``Surd``
arithmetic, and the closed-form (sigma, tau, rho) triple with sqrt(D) a
``Surd``.  The tests compare ``sgdd.schemes`` and ``sgdd.linked``, which work
on integer numerators over one denominator, against it."""

from fractions import Fraction

from sgdd.algebra import Surd
from sgdd.designs import Certificate
from sgdd.errors import ParameterError
from sgdd.schemes import CLASSES


class SurdMatrix:
    """Dense matrix over Q(sqrt(d)); all entries share one radicand."""

    __slots__ = ("rows", "cols", "data", "d")

    def __init__(self, data):
        self.data = [[x if isinstance(x, Surd) else Surd.of(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        radicands = {x.d for row in self.data for x in row} - {0}
        if len(radicands) > 1:
            raise ParameterError("mixed radicands in SurdMatrix")
        self.d = radicands.pop() if radicands else 0

    @classmethod
    def identity(cls, order: int) -> "SurdMatrix":
        return cls([[1 if i == j else 0 for j in range(order)] for i in range(order)])

    def __getitem__(self, idx) -> Surd:
        i, j = idx
        return self.data[i][j]

    def scalar_mul(self, c) -> "SurdMatrix":
        return SurdMatrix([[x * c for x in row] for row in self.data])

    def __matmul__(self, other: "SurdMatrix") -> "SurdMatrix":
        zero = Surd.of(0)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for t in range(self.cols):
                    acc = acc + self.data[i][t] * other.data[t][j]
                row.append(acc)
            out.append(row)
        return SurdMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, SurdMatrix):
            return NotImplemented
        return self.data == other.data


def as_surd_matrix(em) -> SurdMatrix:
    """The entries (rational + irrational sqrt(D)) / den of an
    ``sgdd.schemes.Eigenmatrix`` as a SurdMatrix."""
    return SurdMatrix(
        [
            [Surd.of(Fraction(em.rational[i, j], em.den), Fraction(em.irrational[i, j], em.den), em.radicand) for j in range(CLASSES)]
            for i in range(CLASSES)
        ]
    )


def as_surd_tensor(em) -> list[list[list[Surd]]]:
    """The entries of a 6x6x6 ``Eigenmatrix``, such as a scheme's Krein
    tensor, as nested lists of Surd values, [i][j][k] at [i, j, k]."""
    return [
        [
            [Surd.of(Fraction(em.rational[i, j, k], em.den), Fraction(em.irrational[i, j, k], em.den), em.radicand) for k in range(CLASSES)]
            for j in range(CLASSES)
        ]
        for i in range(CLASSES)
    ]


def surd_p_matrix(params) -> SurdMatrix:
    k, m, n, f = params.k, params.m, params.n, params.f
    w = m * n - k - n
    rt = Surd.sqrt(Fraction(k * w, (m - 1) * (n - 1)))
    one = Surd.of(1)
    rows = [
        [one, Surd.of(n - 1), Surd.of((m - 1) * n), Surd.of((f - 1) * k), Surd.of((f - 1) * w), Surd.of((f - 1) * n)],
        [one, Surd.of(-1), Surd.of(0), rt * (f - 1), rt * (-(f - 1)), Surd.of(0)],
        [one, Surd.of(n - 1), Surd.of(-n), Surd.of(Fraction(-(f - 1) * k, m - 1)), Surd.of(Fraction(-(f - 1) * w, m - 1)), Surd.of((f - 1) * n)],
        [one, Surd.of(n - 1), Surd.of(-n), Surd.of(Fraction(k, m - 1)), Surd.of(n - Fraction(k, m - 1)), Surd.of(-n)],
        [one, Surd.of(-1), Surd.of(0), rt * (-1), rt, Surd.of(0)],
        [one, Surd.of(n - 1), Surd.of((m - 1) * n), Surd.of(-k), Surd.of(-w), Surd.of(-n)],
    ]
    return SurdMatrix(rows)


def surd_q_matrix(params) -> SurdMatrix:
    k, m, n, f = params.k, params.m, params.n, params.f
    w = m * n - k - n
    qt3 = Surd.sqrt(Fraction((n - 1) * w, k * (m - 1)))
    qt4 = Surd.sqrt(Fraction(k * (n - 1), (m - 1) * w))
    one = Surd.of(1)
    rows = [
        [one, Surd.of(m * (n - 1)), Surd.of(m - 1), Surd.of((f - 1) * (m - 1)), Surd.of((f - 1) * m * (n - 1)), Surd.of(f - 1)],
        [one, Surd.of(-m), Surd.of(m - 1), Surd.of((f - 1) * (m - 1)), Surd.of(-(f - 1) * m), Surd.of(f - 1)],
        [one, Surd.of(0), Surd.of(-1), Surd.of(-(f - 1)), Surd.of(0), Surd.of(f - 1)],
        [one, qt3 * m, Surd.of(-1), one, qt3 * (-m), Surd.of(-1)],
        [one, qt4 * (-m), Surd.of(-1), one, qt4 * m, Surd.of(-1)],
        [one, Surd.of(0), Surd.of(m - 1), Surd.of(-(m - 1)), Surd.of(0), Surd.of(-1)],
    ]
    return SurdMatrix(rows)


def fraction_sign(x: Surd) -> int:
    """Sign of a + b sqrt(d) decided on the Fraction parts."""
    if x.b == 0:
        return (x.a > 0) - (x.a < 0)
    if x.a == 0:
        return (x.b > 0) - (x.b < 0)
    sa = 1 if x.a > 0 else -1
    sb = 1 if x.b > 0 else -1
    if sa == sb:
        return sa
    lhs, rhs = x.a * x.a, x.b * x.b * x.d
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else sb


def krein_by_surds(pm: SurdMatrix, qm: SurdMatrix, params):
    """q_{i,j}^k = (1/|X|) sum_l Q[l,i] Q[l,j] P[k,l] summed in Surd
    arithmetic, and the Krein certificate for them."""
    cert = Certificate("Krein parameters")
    inv = Fraction(1, params.size)
    q = [[[Surd.of(0)] * CLASSES for _ in range(CLASSES)] for _ in range(CLASSES)]
    for i in range(CLASSES):
        for j in range(i, CLASSES):
            had = [qm[l, i] * qm[l, j] for l in range(CLASSES)]
            for k in range(CLASSES):
                val = sum((had[l] * pm[k, l] for l in range(CLASSES)), Surd.of(0)) * inv
                q[i][j][k] = q[j][i][k] = val
                if fraction_sign(val) < 0:
                    cert.failed(f"Krein parameter q_{i}{j}^{k} is negative")
    if cert.ok:
        cert.passed("all Krein parameters are non-negative")
    m, f = params.m, params.f
    mf = Fraction(m, f)
    b2 = [
        [0, 0, 1, 0, 0, 0],
        [0, mf - 1, 0, 0, mf, 0],
        [m - 1, 0, m - 2, 0, 0, 0],
        [0, 0, 0, m - 2, 0, m - 1],
        [0, (f - 1) * mf, 0, 0, m - 1 - mf, 0],
        [0, 0, 0, 1, 0, 0],
    ]
    label = "entrywise-product structure constants of E_2 match their closed form"
    if all(q[2][j][k] == b2[j][k] for j in range(CLASSES) for k in range(CLASSES)):
        cert.passed(label)
    else:
        cert.failed(label)
    if q[2][1][1] == mf - 1:
        cert.passed(f"q_21^1 = m/f - 1 = {mf - 1}")
    else:
        cert.failed("q_21^1 = m/f - 1")
    return q, cert


def spectra_by_surds(p, params, pm: SurdMatrix, qm: SurdMatrix) -> Certificate:
    """The spectra certificate of ``sgdd.schemes.compute_spectra``, with
    every identity checked entry by entry in Surd arithmetic."""
    cert = Certificate(f"closed-form spectra at (k,m,n,f)=({params.k},{params.m},{params.n},{params.f})")
    size = params.size
    mult = [1, params.m * (params.n - 1), params.m - 1, (params.f - 1) * (params.m - 1),
            (params.f - 1) * params.m * (params.n - 1), params.f - 1]
    if sum(mult) != size:
        cert.failed("multiplicities sum to |X|")
        return cert
    cert.passed("multiplicities sum to |X|")

    ok_pq = pm @ qm == SurdMatrix.identity(CLASSES).scalar_mul(size)
    if ok_pq:
        cert.passed("P Q = |X| I")
    else:
        cert.failed("P Q = |X| I")

    row_sums = [sum((qm[k, j] for j in range(CLASSES)), Surd.of(0)) for k in range(CLASSES)]
    if row_sums == [Surd.of(size)] + [Surd.of(0)] * (CLASSES - 1):
        cert.passed("sum E_j = I")
    else:
        cert.failed("sum E_j = I")

    eigen_failures = []
    for i in range(CLASSES):
        got = SurdMatrix([[p[i][l][k] for l in range(CLASSES)] for k in range(CLASSES)]) @ qm
        for j in range(CLASSES):
            if any(got[k, j] != qm[k, j] * pm[j, i] for k in range(CLASSES)):
                eigen_failures.append(f"A_{i} E_{j} = P[{j},{i}] E_{j}")
    if ok_pq and not eigen_failures:
        cert.passed("E_j are pairwise orthogonal idempotents")
    for line in eigen_failures:
        cert.failed(line)
    if not eigen_failures:
        cert.passed("A_i E_j = P_{j,i} E_j for all i, j")

    bad_mult = [j for j in range(CLASSES) if qm[0, j] != Surd.of(mult[j])]
    for j in bad_mult:
        cert.failed(f"m_{j} = Q[0,{j}]")
    if not bad_mult:
        cert.passed("multiplicities match Q row 0 and the idempotent traces")

    valencies = [p[i][i][0] for i in range(CLASSES)]
    if all(pm[0, i] == Surd.of(valencies[i]) for i in range(CLASSES)):
        cert.passed("P row 0 equals the valencies")
    else:
        cert.failed("P row 0 equals the valencies")
    return cert


def sigma_tau_rho_by_surds(k: int, m: int, n: int) -> list[tuple[Surd, Surd, Fraction, bool]]:
    """(sigma, tau, rho, integral) for both sign choices of the closed-form
    triple of ``sgdd.linked.sigma_tau_rho``, with sqrt(D) a Surd."""
    if m < 2 or n < 2:
        raise ParameterError("need m, n >= 2")
    disc = k * (m - 1) * (n - 1) * (m * n - k - n)
    if disc < 0:
        raise ParameterError("k outside the admissible range: negative discriminant")
    root = Surd.sqrt(disc)
    denom = Fraction((m - 1) ** 2 * (n - 1) * n)
    head = Fraction(k * k * (m - 2) * (n - 1))
    rho = Fraction(k * k, n * (m - 1))
    out = []
    for sign in (1, -1):
        sigma = (Surd.of(head) + root * Surd.of(Fraction(sign * (m * n - k - n)))) / Surd.of(denom)
        tau = (Surd.of(head) - root * Surd.of(Fraction(sign * k))) / Surd.of(denom)
        integral = (
            sigma.is_rational
            and tau.is_rational
            and sigma.as_fraction().denominator == 1
            and tau.as_fraction().denominator == 1
            and rho.denominator == 1
        )
        out.append((sigma, tau, rho, integral))
    return out
