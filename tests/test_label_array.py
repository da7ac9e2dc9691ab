"""The label-array route against the class-list route: the partition
certificate, p at the first pairs, the label array of a linked system,
seeded single-entry corruptions of a scheme file, and an assembled label
array with one damaged pair."""

import random

import numpy as np
import pytest

import sgdd.schemes
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.errors import CertificationError
from sgdd.latin import search_linked_mols
from sgdd.linked import build_tilde_l, pair_system
from sgdd.schemes import (
    _first_pair_numbers,
    assemble_scheme,
    compute_intersection_numbers,
    extract_linked_system,
    load_scheme,
    relation_from_classes,
    scheme_matrices_from_system,
)

import class_list_route as ref
from class_list_route import class_matrices, classes_of
from conftest import read_text, text_of


@pytest.fixture(scope="module")
def sys45f5(aux_ag23):
    return build_tilde_l(aux_ag23, search_linked_mols(5, 5))


@pytest.fixture(scope="module")
def systems(sys16, sys45, sys45f5, sys64, conference12, gcm24):
    return {
        48: sys16,
        135: sys45,
        225: sys45f5,
        448: sys64,
        "conference24": pair_system(*conference12),
        "gcm48": pair_system(*gcm24),
    }


@pytest.fixture(scope="module")
def relations(systems):
    return {name: assemble_scheme(system).relation for name, system in systems.items()}


def _swapped(relation):
    return np.array([0, 1, 2, 4, 3, 5], dtype=np.uint8)[relation]


def _permuted(relation):
    perm = np.random.default_rng(5).permutation(relation.shape[0])
    return relation[np.ix_(perm, perm)]


_SOURCES = [48, 135, 225, 448, "conference24", "gcm48"]
_READINGS = {"as-built": lambda r: r, "swapped": _swapped, "permuted": _permuted}


@pytest.mark.parametrize("reading", _READINGS)
@pytest.mark.parametrize("source", _SOURCES)
def test_relation_matches_class_list_route(source, reading, relations):
    expected = _READINGS[reading](relations[source])
    classes = classes_of(expected)
    mats = class_matrices(classes)
    relation, cert = relation_from_classes(classes)
    ref_cert = ref.partition_certificate(mats)
    assert cert.ok and ref_cert.ok
    assert cert.report_lines() == ref_cert.report_lines()
    assert relation.dtype == np.uint8 and np.array_equal(relation, expected)
    assert _first_pair_numbers(relation) == ref.first_pair_numbers(mats)


@pytest.mark.parametrize("source", _SOURCES)
def test_system_label_array_matches_class_list_route(source, systems):
    relation = scheme_matrices_from_system(systems[source])
    assert relation.dtype == np.uint8
    assert class_matrices(classes_of(relation)) == ref.scheme_matrices_from_system(systems[source])


def _corrupt(text: str, kind: str, seed: int) -> str:
    """One seeded corruption of a written six-class scheme: a single entry,
    or for ``moved-3-4`` the two entries of one pair."""
    rng = random.Random(f"{kind}:{seed}")
    lines = text.split("\n")
    size = int(lines[0].split()[1])

    def line(c, x):
        return 1 + c * (size + 1) + 1 + x

    def put(c, x, y, token):
        row = lines[line(c, x)].split(" ")
        row[y] = token
        lines[line(c, x)] = " ".join(row)

    def pair_in(c):
        return rng.choice([(x, y) for x in range(size) for y in range(size) if x != y and lines[line(c, x)][2 * y] == "1"])

    if kind in ("entry-2", "token-10"):
        put(rng.randrange(6), rng.randrange(size), rng.randrange(size), "2" if kind == "entry-2" else "10")
        return "\n".join(lines)
    src = 3 if kind == "moved-3-4" else rng.randrange(1, 6)
    dst = 4 if kind == "moved-3-4" else rng.choice([c for c in range(1, 6) if c != src])
    x, y = pair_in(src)
    for a, b in ((x, y), (y, x)) if kind == "moved-3-4" else ((x, y),):
        if kind != "covered-twice":
            put(src, a, b, "0")
        if kind != "uncovered":
            put(dst, a, b, "1")
    return "\n".join(lines)


_KINDS = ["entry-2", "covered-twice", "uncovered", "asymmetric", "moved-3-4", "token-10"]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("source", [48, 135])
def test_scheme_file_corruptions_match_class_list_route(source, kind, seed, relations):
    text = _corrupt(text_of(fileio.scheme_chunks(relations[source])), kind, seed)
    classes = read_text(fileio.read_scheme, text)
    mats = [IntMatrix(a) for a in classes]
    # only a block with a two-digit token leaves the byte view
    assert {a.dtype for a in classes} == {np.dtype(np.uint8)} | ({np.dtype(np.int64)} if kind == "token-10" else set())
    relation, cert = relation_from_classes(classes)
    ref_cert = ref.partition_certificate(mats)
    assert cert.report_lines() == ref_cert.report_lines()
    assert (relation is None) == (not ref_cert.ok) == (kind != "moved-3-4")
    p, cert = compute_intersection_numbers(classes)
    ref_p, ref_cert = ref.intersection_numbers(mats)
    assert p is None and ref_p is None
    assert cert.report_lines() == ref_cert.report_lines()
    for route in (extract_linked_system, load_scheme):
        with pytest.raises(CertificationError, match="input fails the scheme axioms") as exc:
            route(classes)
        assert exc.value.report.report_lines() == ref_cert.report_lines()


@pytest.mark.parametrize("damage", ["asymmetric", "diagonal", "in-no-class"])
def test_a_damaged_assembly_reports_the_class_list_lines(damage, sys16, monkeypatch):
    """``assemble_scheme`` over an R with one seeded damaged pair (one entry
    of a pair moved to another class, a diagonal entry given a class, or
    both entries of a pair given label 255, in no class) raises, with the
    partition lines of the class-list route on the six classes R == i."""
    rng = random.Random(f"assemble:{damage}")
    damaged = scheme_matrices_from_system(sys16).copy()
    x, y = rng.sample(range(len(damaged)), 2)
    if damage == "asymmetric":
        damaged[x, y] = damaged[x, y] % 5 + 1
    elif damage == "diagonal":
        damaged[x, x] = rng.randrange(1, 6)
    else:
        damaged[x, y] = damaged[y, x] = 255
    monkeypatch.setattr(sgdd.schemes, "scheme_matrices_from_system", lambda sys: damaged)
    with pytest.raises(CertificationError, match="assembled matrices fail the scheme axioms") as exc:
        assemble_scheme(sys16)
    want = ref.partition_certificate(class_matrices([(damaged == i).view(np.uint8) for i in range(6)]))
    assert not want.ok and exc.value.report.report_lines() == want.report_lines()
