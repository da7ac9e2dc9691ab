"""The two lanes of the 6x6 spectral algebra against each other: with the
lane ``int_lane`` chooses, and with every check forced onto Python
integers, the reference, ``compute_spectra`` and ``compute_krein`` must give
the same certificates and the same numerators, on every table-1 row up to
v = 100 000 at f = 3 and f = m, on every tier-1 scheme's labelings and on
seeded corruptions of p."""

import random

import numpy as np
import pytest

import sgdd.schemes
from class_list_route import classes_of
from sgdd.algebra import int_lane
from sgdd.scanner import scan_table1
from sgdd.schemes import (
    SchemeParams,
    _relabel_p,
    closed_form_p_matrix,
    closed_form_q_matrix,
    compute_krein,
    compute_spectra,
    extract_linked_system,
)

_TABLE1 = sorted({SchemeParams(r.k, r.m, r.n, f) for r in scan_table1(100_000) for f in (3, r.m)}, key=repr)


@pytest.fixture
def lanes(monkeypatch):
    """The lane ``sgdd.schemes`` takes at every choice while the test runs."""
    taken = []

    def recorded(bound):
        taken.append(int_lane(bound))
        return taken[-1]

    monkeypatch.setattr(sgdd.schemes, "int_lane", recorded)
    return taken


def _numerators(matrix):
    return matrix.rational.tolist(), matrix.irrational.tolist(), matrix.den, matrix.radicand


def _both_lanes(p, params, monkeypatch):
    """(certificate lines, numerators) of the spectra and the Krein
    parameters, in the chosen lane and then with every check on Python
    integers, and the lanes chosen."""
    out, chosen = [], []

    def recorded(bound):
        chosen.append(int_lane(bound))
        return chosen[-1]

    for lane in (recorded, lambda bound: np.dtype(object)):
        with monkeypatch.context() as patch:
            patch.setattr(sgdd.schemes, "int_lane", lane)
            spectra, cert = compute_spectra(p, params)
            krein, krein_cert = compute_krein(spectra, params)
        assert all(type(x) is int for x in krein.rational.ravel().tolist() + krein.irrational.ravel().tolist())
        out.append((cert.report_lines(), _numerators(spectra.P), _numerators(spectra.Q), krein_cert.report_lines(), _numerators(krein)))
    return out[0], out[1], chosen


def _intersection_numbers(params: SchemeParams) -> list[list[list[int]]]:
    """p_{i,j}^k = (1/|X|) sum_l P[l,i] P[l,j] Q[k,l], from the closed forms
    in Python integers: A_i A_j = sum_l P[l,i] P[l,j] E_l and
    E_l = (1/|X|) sum_k Q[k,l] A_k."""
    pm, qm = closed_form_p_matrix(params), closed_form_q_matrix(params)
    d, pr, ps, qr, qs = pm.radicand, pm.rational, pm.irrational, qm.rational, qm.irrational
    # [l, i, j]: the numerators of P[l,i] P[l,j]
    hr = pr[:, :, None] * pr[:, None, :] + d * ps[:, :, None] * ps[:, None, :]
    hs = pr[:, :, None] * ps[:, None, :] + ps[:, :, None] * pr[:, None, :]
    # [i, j, k] after the sum over l
    nr = np.tensordot(hr, qr, axes=([0], [1])) + d * np.tensordot(hs, qs, axes=([0], [1]))
    ns = np.tensordot(hr, qs, axes=([0], [1])) + np.tensordot(hs, qr, axes=([0], [1]))
    den = params.size * pm.den**2 * qm.den
    assert not ns.any() and not (nr % den).any(), params
    return (nr // den).tolist()


def test_int_lane_edges():
    assert int_lane(0) == int_lane(2**62 - 1) == np.dtype(np.int64)
    assert int_lane(2**62) == int_lane(2**80) == np.dtype(object)


@pytest.mark.parametrize("d", [0, 2, 5])
def test_times_bound_is_reached_by_operands_at_their_maxima(d):
    """Pairs whose every entry is its part's largest magnitude make every
    entry of both parts of ``_times`` equal its bound, as matrix products
    over six terms and entrywise over one."""
    a, b = (7, 3), (11, 2)
    x, y = ((np.full((6, 6), part, dtype=object) for part in pair) for pair in (a, b))
    x, y = tuple(x), tuple(y)
    for terms, mul in ((6, np.matmul), (1, np.multiply)):
        got = sgdd.schemes._times(x, y, d, mul)
        assert [set(part.ravel().tolist()) for part in got] == [{bound} for bound in sgdd.schemes._times_bound(a, b, d, terms)]


def test_lanes_agree_on_table1_rows(monkeypatch):
    """Every table-1 row up to v = 100 000 at f = 3 and f = m, with its
    closed-form p and with one seeded entry of p moved by +-1: equal
    certificates and numerators in both lanes.  Some rows take Python
    integers by their bound, and some take int64."""
    rng = random.Random(49)
    chosen = []
    for params in _TABLE1:
        p = _intersection_numbers(params)
        moved = [[list(row) for row in a] for a in p]
        moved[rng.randrange(6)][rng.randrange(6)][rng.randrange(6)] += rng.choice((-1, 1))
        for q, verdict in ((p, ": OK"), (moved, ": VIOLATED")):
            got, want, lanes = _both_lanes(q, params, monkeypatch)
            assert got == want, params
            assert got[0][0].endswith(verdict), params
            chosen += lanes
    assert np.dtype(object) in chosen and np.dtype(np.int64) in chosen


@pytest.mark.parametrize("source", ["scheme48", "scheme135", "scheme225", "scheme448", "conference24", "gcm48"])
def test_lanes_agree_on_tier1_schemes(source, request, monkeypatch):
    """Each tier-1 scheme's labelings, the failing ones included: equal
    certificates and numerators in both lanes."""
    scheme = request.getfixturevalue(source)
    report = extract_linked_system(classes_of(scheme.relation))
    assert len(report.candidates) >= 2
    for cand in report.candidates:
        got, want, _ = _both_lanes(_relabel_p(report.p, cand.labels), cand.params, monkeypatch)
        assert got == want
        assert got[0] == cand.spectra_certificate.report_lines()


@pytest.mark.parametrize("source", ["scheme48", "scheme135", "scheme225", "scheme448"])
def test_desk_schemes_take_int64(source, request, lanes):
    """The 48-, 135-, 225- and 448-vertex schemes certify their spectra and
    Krein parameters in int64 throughout, and the Krein tensor still holds
    Python integers."""
    scheme = request.getfixturevalue(source)
    spectra, cert = compute_spectra(scheme.p, scheme.params)
    krein, _ = compute_krein(spectra, scheme.params)
    assert cert.ok and len(lanes) == 3 and set(lanes) == {np.dtype(np.int64)}
    assert krein.rational.dtype == object and krein.rational.ravel().tolist() == scheme.krein.rational.ravel().tolist()
