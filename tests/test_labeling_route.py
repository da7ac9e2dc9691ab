"""Class labelings found from p against the route that scans R for every
label set (``labeling_route``): equal candidate lists, and byte-equal
``scheme extract``, ``scheme analyze`` and ``verify scheme`` runs, on every
fixture scheme, on other readings of them and on seeded corruptions.
``verify scheme`` prints the report of the dense
``compute_intersection_numbers`` on each of them."""

import random

import numpy as np
import pytest

import labeling_route
import sgdd.schemes
from class_list_route import classes_of
from sgdd import fileio
from sgdd.cli import main
from sgdd.latin import search_linked_mols
from sgdd.linked import build_tilde_l, pair_system
from sgdd.schemes import (
    _first_pair_numbers,
    _identify_labelings,
    assemble_scheme,
    compute_intersection_numbers,
    load_scheme,
    relation_from_classes,
)
from conftest import read_text, text_of


@pytest.fixture(scope="module")
def relations(scheme48, scheme135, scheme448, aux_ag23, conference12, gcm24):
    return {
        48: scheme48.relation,
        135: scheme135.relation,
        225: assemble_scheme(build_tilde_l(aux_ag23, search_linked_mols(5, 5))).relation,
        448: scheme448.relation,
        "conference24": assemble_scheme(pair_system(*conference12)).relation,
        "gcm48": assemble_scheme(pair_system(*gcm24)).relation,
    }


def _moved(relation, src, dst, seed):
    """One seeded symmetric pair of class src moved to class dst."""
    rng = random.Random(f"{src}->{dst}:{seed}")
    x, y = rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == src)) if x < y])
    out = relation.copy()
    out[x, y] = out[y, x] = dst
    return out


def _swapped(relation):
    return np.array([0, 1, 2, 4, 3, 5], dtype=np.uint8)[relation]


def _permuted(relation):
    perm = np.random.default_rng(7).permutation(relation.shape[0])
    return relation[np.ix_(perm, perm)]


READINGS = {
    "as-built": lambda r: r,
    "swapped": _swapped,
    "permuted": _permuted,
    "moved-3-4-0": lambda r: _moved(r, 3, 4, 0),
    "moved-3-4-1": lambda r: _moved(r, 3, 4, 1),
    "moved-5-4-0": lambda r: _moved(r, 5, 4, 0),
    "moved-5-4-1": lambda r: _moved(r, 5, 4, 1),
    "moved-1-2-0": lambda r: _moved(r, 1, 2, 0),
    "moved-2-5-0": lambda r: _moved(r, 2, 5, 0),
}
SOURCES = [48, 135, 225, 448, "conference24", "gcm48"]


@pytest.mark.parametrize("reading", READINGS)
@pytest.mark.parametrize("source", SOURCES)
def test_candidates_match_labeling_route(source, reading, relations):
    relation, cert = relation_from_classes(classes_of(READINGS[reading](relations[source])))
    assert relation is not None, cert
    p = _first_pair_numbers(relation)
    got = _identify_labelings(relation, p)
    assert got == labeling_route.identify_labelings(relation, p)
    assert (reading in ("as-built", "swapped", "permuted")) <= bool(got)


def _flipped(text: str, seed: int) -> str:
    """One seeded entry of one class matrix of a scheme file flipped."""
    rng = random.Random(f"flip:{seed}")
    lines = text.split("\n")
    size = int(lines[0].split()[1])
    line = 1 + rng.randrange(6) * (size + 1) + 1 + rng.randrange(size)
    col = 2 * rng.randrange(size)
    lines[line] = lines[line][:col] + "10"[int(lines[line][col])] + lines[line][col + 1:]
    return "\n".join(lines)


def _runs(scm, tmp_path, capsys):
    """(exit status, stdout, stderr, written bytes) of extract -o, analyze and verify scheme."""
    target = tmp_path / "extract.lsys"
    out = []
    for argv in (
        ["scheme", "extract", "--in", str(scm), "-o", str(target)],
        ["scheme", "analyze", "--in", str(scm)],
        ["verify", "scheme", str(scm)],
    ):
        target.unlink(missing_ok=True)
        code = main(argv)
        std = capsys.readouterr()
        out.append((code, std.out, std.err, target.read_bytes() if target.exists() else None))
    return out


def _dense_run(text: str):
    """(exit status, stdout, stderr) that verify scheme gives on the dense route."""
    _, cert = compute_intersection_numbers(read_text(fileio.read_scheme, text))
    return int(not cert.ok), "".join(line + "\n" for line in cert.report_lines()), ""


CLI_READINGS = ["as-built", "swapped", "permuted", "moved-3-4-0", "moved-5-4-0", "flip-0", "flip-1"]


@pytest.mark.parametrize("reading", CLI_READINGS)
@pytest.mark.parametrize("source", SOURCES)
def test_cli_runs_match_labeling_route(source, reading, relations, tmp_path, capsys, monkeypatch):
    base = relations[source]
    if reading.startswith("flip"):
        text = _flipped(text_of(fileio.scheme_chunks(base)), int(reading[-1]))
    else:
        text = text_of(fileio.scheme_chunks(READINGS[reading](base)))
    scm = tmp_path / "s.scm"
    scm.write_text(text)
    got = _runs(scm, tmp_path, capsys)
    monkeypatch.setattr(sgdd.schemes, "_identify_labelings", labeling_route.identify_labelings)
    assert got == _runs(scm, tmp_path, capsys)
    assert got[2] == (*_dense_run(text), None)
    if reading in ("as-built", "swapped", "permuted"):
        assert [code for code, *_ in got] == [0, 0, 0] and got[0][3] is not None


# files no labeling reads: the fused 4-class scheme, A_4 and A_5 merged, and
# classes 0 and 1 traded, so that A_0 != I
UNLABELED = {
    "fused-4": [0, 1, 1, 2, 3, 2],
    "merged-5": [0, 1, 2, 3, 4, 4],
    "a0-not-i": [1, 0, 2, 3, 4, 5],
}


@pytest.mark.parametrize("reading", UNLABELED)
@pytest.mark.parametrize("source", [48, 448])
def test_verify_scheme_without_a_labeling_is_the_dense_route(source, reading, relations, tmp_path, capsys):
    text = text_of(fileio.scheme_chunks(np.array(UNLABELED[reading], dtype=np.uint8)[relations[source]]))
    scm = tmp_path / "s.scm"
    scm.write_text(text)
    assert main(["verify", "scheme", str(scm)]) == _dense_run(text)[0]
    assert (capsys.readouterr().out, "") == _dense_run(text)[1:]


def test_load_scheme_scans_r_at_most_three_times(scheme448, monkeypatch):
    """p rules out every label set but the groups {0, 1} and the fibers
    {0, 1, 2} of the 448-vertex scheme, and the canonical order reuses
    them; the route that scans every label set makes 9 scans."""
    calls = []
    scan, route_scan = sgdd.schemes.equivalence_classes, labeling_route._equivalence_classes

    def counted(mask):
        calls.append(mask.shape)
        return scan(mask)

    def route_counted(relation, labels):
        calls.append(labels)
        return route_scan(relation, labels)

    monkeypatch.setattr(sgdd.schemes, "equivalence_classes", counted)
    monkeypatch.setattr(labeling_route, "_equivalence_classes", route_counted)
    classes = classes_of(scheme448.relation)
    scheme, primary = load_scheme(classes)
    assert scheme.certificate.ok and primary.labels == tuple(range(6))
    assert len(calls) <= 3
    calls.clear()
    monkeypatch.setattr(sgdd.schemes, "_identify_labelings", labeling_route.identify_labelings)
    load_scheme(classes)
    assert len(calls) == 9


@pytest.mark.parametrize("reading", ["as-built", "moved-3-4-0"])
def test_every_verb_runs_the_partition_axioms_once(reading, relations, tmp_path, capsys, monkeypatch):
    """One pass over the classes per file, also when no labeling certifies
    and the dense check decides."""
    scm = tmp_path / "s.scm"
    scm.write_text(text_of(fileio.scheme_chunks(READINGS[reading](relations[48]))))
    calls = []
    axioms = sgdd.schemes.relation_from_classes

    def counted(classes):
        calls.append(len(classes))
        return axioms(classes)

    monkeypatch.setattr(sgdd.schemes, "relation_from_classes", counted)
    for argv in (
        ["verify", "scheme", str(scm)],
        ["scheme", "analyze", "--in", str(scm)],
        ["scheme", "extract", "--in", str(scm)],
        ["scheme", "fusion", "--in", str(scm)],
    ):
        calls.clear()
        code = main(argv)
        capsys.readouterr()
        assert (calls, code) == ([6], 0 if reading == "as-built" else 1), argv


def test_the_load_calls_no_np_unique(relations, monkeypatch):
    """np.unique imports numpy.ma, about 13 ms and 0.5 MB in a fresh
    process; the labelings take each class's least point instead."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    for source in (48, "conference24"):
        scheme, _ = load_scheme(classes_of(relations[source]))
        assert scheme.certificate.ok


@pytest.mark.parametrize("source", [48, 225, "conference24"])
def test_only_the_primary_candidate_keeps_its_system(source, relations):
    """Every candidate of an extraction is certified, but only the primary
    one keeps the system cut from A_3: 0/1 uint8 views of one array."""
    report = sgdd.schemes.extract_linked_system(classes_of(relations[source]))
    primary = report.primary
    assert sum(c.certified for c in report.candidates) > 1
    assert [c.system is not None for c in report.candidates] == [c is primary for c in report.candidates]
    blocks = list(primary.system.blocks.values())
    assert all(b.mat.a.dtype == np.uint8 and b.mat.a.base is blocks[0].mat.a.base for b in blocks)
