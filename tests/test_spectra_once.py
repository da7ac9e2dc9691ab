"""Each spectral fact of a scheme file is formed once per call: the spectra
of a labeling only when read, the closed forms once per (k, m, n, f), and
each canonical vertex order once per A_5 label, groups and fibers.  The
counts are taken on the as-built 225-vertex file, whose four labelings
read two parameter sets through two vertex structures."""

import io
from dataclasses import replace

import numpy as np
import pytest

import sgdd.schemes
from sgdd import fileio
from sgdd.cli import main
from class_list_route import classes_of
from sgdd.schemes import (
    _CanonicalOrders,
    _candidates,
    _first_pair_numbers,
    _relabel_p,
    compute_spectra,
    extract_linked_system,
    load_scheme,
)


@pytest.fixture
def calls(monkeypatch):
    """The arguments of every call of the counted functions while the test runs, by name."""
    seen = {}
    for name in ("compute_spectra", "_closed_forms", "_canonical_vertex_order", "verify_linked_system"):
        original = getattr(sgdd.schemes, name)
        seen[name] = []

        def counted(*args, _original=original, _seen=seen[name]):
            _seen.append(args)
            return _original(*args)

        monkeypatch.setattr(sgdd.schemes, name, counted)
    return seen


@pytest.fixture(scope="module")
def file225(scheme225) -> bytes:
    return b"".join(fileio.scheme_chunks(scheme225.relation))


def test_load_forms_one_labelings_spectra(file225, calls):
    scheme, primary = load_scheme(fileio.read_scheme(io.BytesIO(file225)))
    assert scheme.certificate.ok and primary.labels == (0, 1, 2, 3, 4, 5)
    assert len(calls["compute_spectra"]) == len(calls["_closed_forms"]) == len(calls["_canonical_vertex_order"]) == 1


def test_verify_scheme_forms_one_labelings_spectra(file225, tmp_path, calls, capsys):
    scm = tmp_path / "s225.scm"
    scm.write_bytes(file225)
    assert main(["verify", "scheme", str(scm)]) == 0
    assert len(calls["compute_spectra"]) == len(calls["_canonical_vertex_order"]) == 1


def test_extract_forms_each_closed_form_once(file225, tmp_path, calls, capsys):
    """Every labeling's spectra, but the closed forms once per parameter set
    and each vertex order once per structure, in the library call and in
    the CLI verb; every labeling's spectra_match is still printed, as the
    spectra of its relabelled p formed afresh give it."""
    report = extract_linked_system(fileio.read_scheme(io.BytesIO(file225)))
    params = sorted({repr(cand.params) for cand in report.candidates})
    structures = {(cand.labels[1], cand.labels[2], cand.labels[5]) for cand in report.candidates}
    assert len(report.candidates) == 4 and len(params) == len(structures) == 2

    def counts():
        formed = sorted(repr(args[0]) for args in calls["_closed_forms"])
        out = len(calls["compute_spectra"]), formed, len(calls["_canonical_vertex_order"])
        for seen in calls.values():
            seen.clear()
        return out

    assert counts() == (4, params, 2)
    scm = tmp_path / "s225.scm"
    scm.write_bytes(file225)
    assert main(["scheme", "extract", "--in", str(scm), "-o", str(tmp_path / "s225.lsys")]) == 0
    assert counts() == (4, params, 2)
    printed = capsys.readouterr().out.splitlines()
    fresh = [compute_spectra(_relabel_p(report.p, cand.labels), cand.params)[1].ok for cand in report.candidates]
    assert [cand.spectra_match for cand in report.candidates] == fresh == [True, True, False, False]
    assert [line.split("spectra_match=")[1].split()[0] for line in printed] == [str(ok) for ok in fresh]


def _swapped(relation):
    return np.array([0, 1, 2, 4, 3, 5], dtype=np.uint8)[relation]


def test_a_load_certifies_only_up_to_the_primary(scheme225, calls):
    """With A_3 and A_4 swapped, the first labeling in label order,
    (0, 1, 2, 3, 4, 5), reads k = 24 and does not match the spectra, though
    its system certifies: the load forms its spectra, certifies none but
    the primary (0, 1, 2, 4, 3, 5), and forms no spectra past it."""
    scheme, primary = load_scheme(classes_of(_swapped(scheme225.relation)))
    assert scheme.certificate.ok and primary.labels == (0, 1, 2, 4, 3, 5)
    assert [args[1] for args in calls["compute_spectra"]] == [replace(primary.params, k=24), primary.params]
    assert len(calls["verify_linked_system"]) == 1


def test_labelings_of_one_structure_share_one_permuted_r(scheme225):
    """The labelings that share A_5's label, groups and fibers are cut from
    one R in their canonical order: on the as-built reading, R itself for
    the groups, fibers and A_5 it was built with, and one permuted R for
    the other structure; on a reading in another vertex order, one
    permuted R for each."""
    perm = np.random.default_rng(7).permutation(len(scheme225.relation))
    for relation, permuted in ((scheme225.relation, False), (scheme225.relation[np.ix_(perm, perm)], True)):
        found = _candidates(relation, _first_pair_numbers(relation))
        orders = _CanonicalOrders(relation)
        cuts = {}
        for cand, _, structure in found:
            cut = orders.relation_in(cand, structure)
            cuts.setdefault((cand.labels[1], cand.labels[2], cand.labels[5]), []).append(cut)
        assert len(cuts) == 2 and all(len(same) == 2 and same[0] is same[1] for same in cuts.values())
        assert [same[0] is relation for same in cuts.values()] == [not permuted, False]
