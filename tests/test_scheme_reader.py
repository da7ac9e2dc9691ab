"""The streamed block readers (``fileio.read_scheme``,
``read_linked_system``, ``read_auxiliary_set``, and for one seeded edit of
a written file ``read_linked_family`` and ``read_latin`` too) and the label
array axioms
(``schemes.relation_from_classes`` on ``ClassLabels``) against the token
reader (``token_route``) and the class-list route (``class_list_route``):
on seeded files with CR LF line ends (one of them ending a row in CR x),
blocks at odd and even byte offsets, a 2 entry, a non-digit byte, a
truncated last block, and for schemes overlapping, asymmetric and empty
classes and an A_0 that is not I, read from a file or a pipe, the readers
give the same values or errors, and the CLI the same exit status, stdout
and stderr, either way.  A scheme class is read into the labels exactly
when it is 0/1 and claims no pair twice, for every overlap of two classes,
for random partitions with one entry set or cleared, and for up to 255
classes; the others are kept beside the labels, so a damaged file holds
no class list."""

import io
import os
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import class_list_route as ref
import token_route
from class_list_route import class_matrices
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.cli import main
from sgdd.errors import FormatError, SgddError
from sgdd.latin import LinkedMolsFamily, linked_mols_from_gf, mols_from_gf
from sgdd.schemes import ClassLabels, certify_classes, compute_intersection_numbers, relation_from_classes
from conftest import text_of

# defects every block file takes; the scheme kinds follow
BLOCK_KINDS = ["as-written", "entry-2", "non-digit", "truncated"]


def _blocks_with_defect(text: str, size: int, count: int, rng: random.Random, kind: str) -> str:
    """A file of ``count`` blocks of order ``size`` after a one-line header,
    with a seeded 2 entry, non-digit entry or cut in the last block."""
    if kind == "truncated":
        return text[: -rng.randrange(2, 4 * size)]
    lines = text.split("\n")
    if kind in ("entry-2", "non-digit"):
        at = 1 + rng.randrange(count) * (size + 1) + 1 + rng.randrange(size)
        row = lines[at].split(" ")
        row[rng.randrange(size)] = "2" if kind == "entry-2" else "x"
        lines[at] = " ".join(row)
    return "\n".join(lines)


def _text(relation, seed: int, kind: str) -> str:
    """The written scheme of ``relation`` with one seeded defect of ``kind``."""
    rng = random.Random(f"{kind}:{seed}")
    text = text_of(fileio.scheme_chunks(relation))
    size = relation.shape[0]
    if kind in BLOCK_KINDS:
        return _blocks_with_defect(text, size, 6, rng, kind)
    lines = text.split("\n")

    def line(c, x):
        return 1 + c * (size + 1) + 1 + x

    def put(c, x, y, token):
        row = lines[line(c, x)].split(" ")
        row[y] = token
        lines[line(c, x)] = " ".join(row)

    def pair_in(c):
        return rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == c)) if x < y])

    if kind in ("overlap-pair", "into-a0"):
        # both entries of a pair: into a second class too, or into A_0 instead
        src = rng.randrange(1, 6)
        x, y = pair_in(src)
        dst = 0 if kind == "into-a0" else rng.choice([c for c in range(1, 6) if c != src])
        for a, b in ((x, y), (y, x)):
            put(dst, a, b, "1")
            if kind == "into-a0":
                put(src, a, b, "0")
    elif kind in ("overlap", "asymmetric"):
        src = rng.randrange(1, 6)
        x, y = pair_in(src)
        put(rng.choice([c for c in range(1, 6) if c != src]), x, y, "1")
        if kind == "asymmetric":
            put(src, x, y, "0")
    elif kind == "a0-moved":
        # a pair of some class x != y joins A_0 and x, y leave it: the zeros
        # of R stay as many, R stays symmetric, but A_0 is no longer I
        x, y = pair_in(rng.randrange(1, 6))
        moved = relation.copy()
        moved[x, x] = moved[y, y] = relation[x, y]
        moved[x, y] = moved[y, x] = 0
        return text_of(fileio.scheme_chunks(moved))
    elif kind == "empty":
        # class 5 joins class 4: every class stays 0/1 and symmetric, but A_5 is empty
        merged = np.where(relation == 5, 4, relation)
        return f"5 {size}\n" + "".join(text_of(fileio.matrix_chunks(IntMatrix.view((merged == c).view(np.uint8)))) for c in range(6))
    return "\n".join(lines)


def _layouts(text: str) -> dict[str, bytes]:
    """The file as written, with CR LF line ends, with the header one byte
    longer, which moves every block by one byte, and with CR LF line ends
    where one row of the middle block ends in CR x."""
    head, body = text.split("\n", 1)
    crlf = text.replace("\n", "\r\n")
    at = crlf.index("\r\n", len(crlf) // 2)
    return {
        "lf": text.encode(),
        "crlf": crlf.encode(),
        "shifted": (head.replace(" ", "  ", 1) + "\n" + body).encode(),
        "cr-x": (crlf[:at] + "\rx" + crlf[at + 2 :]).encode(),
    }


def _outcome(read, stream):
    """What ``read`` gives for ``stream``, or its error's type and text."""
    try:
        return read(stream), None
    except SgddError as exc:
        return None, (type(exc), str(exc))


def _token_route(data: bytes):
    """The token reader's classes, or its error."""
    return _outcome(token_route.read_scheme, data)


def _cli(argv, path: Path, capsys) -> tuple[int, str, str]:
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _cli_either_way(argv, path: Path, reader: str, capsys) -> tuple[int, str, str]:
    """The CLI's exit status, stdout and stderr on ``path``, which must be
    the same when ``fileio.<reader>`` is the token reader of the whole file."""
    got = _cli(argv, path, capsys)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, reader, lambda stream: getattr(token_route, reader)(stream.read()))
        assert _cli(argv, path, capsys) == got
    return got


def _outside_r(classes) -> set[int]:
    """The classes a read keeps out of R: each that is not 0/1, or that
    holds a pair of an earlier class R holds."""
    held, outside = np.zeros(classes[0].shape, dtype=bool), set()
    for i, a in enumerate(classes):
        if a.max() > 1 or (held & (a == 1)).any():
            outside.add(i)
        else:
            held |= a == 1
    return outside


def _same_classes(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


SCHEME_KINDS = BLOCK_KINDS + ["overlap", "overlap-pair", "asymmetric", "into-a0", "a0-moved", "empty"]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", SCHEME_KINDS)
@pytest.mark.parametrize("source", ["scheme48", "scheme135"])
def test_reader_matches_token_and_class_list_routes(source, kind, seed, request, tmp_path, capsys):
    relation = request.getfixturevalue(source).relation
    for layout, data in _layouts(_text(relation, seed, kind)).items():
        classes, error = _token_route(data)
        read, read_error = _outcome(fileio.read_scheme, io.BytesIO(data))
        assert read_error == error, layout
        if error is None:
            # a 2, or the class that claims a pair twice, is the one class kept out of R
            assert set(read.extra) == _outside_r(classes) and len(read.extra) == (kind in ("entry-2", "overlap", "overlap-pair")), layout
            _same_classes(read, classes)
            got, cert = relation_from_classes(read)
            want, ref_cert = relation_from_classes(classes)
            assert cert.report_lines() == ref_cert.report_lines() == ref.partition_certificate(class_matrices(classes)).report_lines()
            assert (got is None) == (want is None) == (kind != "as-written")
            if got is not None:
                assert got.dtype == np.uint8 and np.array_equal(got, want) and np.array_equal(got, relation)
        scm = tmp_path / f"{layout}.scm"
        scm.write_bytes(data)
        code, out, err = _cli_either_way(["verify", "scheme"], scm, "read_scheme", capsys)
        if error is not None:
            assert (code, out, err) == (2, "", f"error: {error[1]}\n")
        else:
            report = certify_classes(classes).certificate
            assert (code, out) == (0 if report.ok else 1, "\n".join(report.report_lines()) + "\n")


def _system_file(system) -> tuple[str, int, int]:
    return text_of(fileio.linked_system_chunks(system)), system.params.base.v, len(system.stack)


def _aux_file(aux) -> tuple[str, int, int]:
    return text_of(fileio.auxiliary_set_chunks(aux)), aux.order, aux.r


# format -> (reader, CLI verb, the fixtures written, the written file of one)
BLOCK_FORMATS = {
    "linked system": ("read_linked_system", ["verify", "linked-system"], ["sys16", "sys45"], _system_file),
    "auxiliary set": ("read_auxiliary_set", ["verify", "aux"], ["aux_had4", "aux_ag23"], _aux_file),
}


def _same_read(got, want):
    """Two reads of a linked system or an auxiliary set hold the same blocks and header."""
    assert got.stack.dtype == np.uint8 and np.array_equal(got.stack, want.stack)
    assert got.params == want.params


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", BLOCK_KINDS)
@pytest.mark.parametrize("name", BLOCK_FORMATS)
def test_block_readers_match_the_token_route(name, kind, seed, request, tmp_path, capsys):
    """Each written fixture with a seeded defect, in every layout, read from
    a file and from a pipe: the same blocks or error as the token reader,
    and at the CLI the same exit status, stdout and stderr."""
    reader, verb, sources, written = BLOCK_FORMATS[name]
    for source in sources:
        text, size, count = written(request.getfixturevalue(source))
        rng = random.Random(f"{name}:{kind}:{seed}")
        for layout, data in _layouts(_blocks_with_defect(text, size, count, rng, kind)).items():
            want, error = _outcome(getattr(token_route, reader), data)
            assert (error is None) == (kind == "as-written" and layout != "cr-x"), (source, layout)
            for stream in (io.BytesIO(data), _pipe(data)):
                with stream:
                    got, got_error = _outcome(getattr(fileio, reader), stream)
                assert got_error == error, (source, layout)
                if error is None:
                    _same_read(got, want)
            path = tmp_path / f"{source}.{layout}"
            path.write_bytes(data)
            code, out, err = _cli_either_way(verb, path, reader, capsys)
            if error is not None:
                assert (code, out) == (2 if error[0] is FormatError else 1, "") and err == f"error: {error[1]}\n"


def _pipe(data: bytes):
    """A binary stream over ``data`` that cannot seek."""
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    return os.fdopen(read, "rb")


# one edit of a written file: a byte replaced, inserted or deleted at a
# spot, the line holding that spot duplicated, dropped or ended in CR LF,
# or the file cut there
EDITS = ["replace", "insert", "delete", "duplicate", "drop", "cr-end", "truncate"]
EDIT_BYTES = b"0129 \n\r\t\x0b-+x\xc3"


def _edited(data: bytes, kind: str, at: int, byte: int) -> bytes:
    if kind == "replace":
        return data[:at] + bytes([byte]) + data[at + 1 :]
    if kind == "insert":
        return data[:at] + bytes([byte]) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    lines, k = data.split(b"\n"), data.count(b"\n", 0, at)
    lines[k : k + 1] = {"duplicate": [lines[k]] * 2, "drop": [], "cr-end": [lines[k] + b"\r"]}[kind]
    return b"\n".join(lines)


def _stacked_files(sys16, sys64, aux_had4, fam_gf4, gf5) -> dict:
    """Each written stacked file, and the readers that take it: sys64's 42
    blocks are read in 6 bands of 7, so an edit may land past a band split,
    and the squares L_ij and L_ji of the GF(5) family differ (in GF(4) they
    are equal), so a pair read in the wrong order shows."""
    square = mols_from_gf(gf5)[1]
    return {
        "sys16.lsys": (text_of(fileio.linked_system_chunks(sys16)), ["read_linked_system"]),
        "sys64.lsys": (text_of(fileio.linked_system_chunks(sys64)), ["read_linked_system"]),
        "had4.aux": (text_of(fileio.auxiliary_set_chunks(aux_had4)), ["read_auxiliary_set"]),
        "gf4.fam": (text_of(fileio.linked_family_chunks(fam_gf4)), ["read_latin", "read_linked_family"]),
        "gf5.fam": (text_of(fileio.linked_family_chunks(linked_mols_from_gf(gf5))), ["read_latin", "read_linked_family"]),
        "gf5.lat": ("5\n" + "".join(" ".join(map(str, row)) + "\n" for row in square.tolist()), ["read_latin"]),
    }


def _same_value(got, want):
    if isinstance(got, np.ndarray):
        assert got.dtype == np.min_scalar_type(len(got) - 1) and np.array_equal(got, want)
    elif isinstance(got, LinkedMolsFamily):
        assert got == want
    else:
        _same_read(got, want)


@given(
    source=st.sampled_from(["sys16.lsys", "sys64.lsys", "had4.aux", "gf4.fam", "gf5.fam", "gf5.lat"]),
    kind=st.sampled_from(EDITS),
    spot=st.floats(0, 1, exclude_max=True),
    byte=st.sampled_from(EDIT_BYTES),
)
@settings(max_examples=200, deadline=None)
def test_one_edit_of_a_stacked_file_reads_as_the_token_reader(source, kind, spot, byte, sys16, sys64, aux_had4, fam_gf4, gf5):
    """One seeded edit of a written linked system, auxiliary set, linked
    family or Latin square: the streamed reader and the token reader give
    equal values, or the same exception type and text."""
    text, readers = _stacked_files(sys16, sys64, aux_had4, fam_gf4, gf5)[source]
    data = _edited(text.encode(), kind, int(spot * len(text)), byte)
    for reader in readers:
        got, error = _outcome(getattr(fileio, reader), io.BytesIO(data))
        want, want_error = _outcome(getattr(token_route, reader), data)
        assert error == want_error, reader
        if error is None:
            _same_value(got, want)


# header lines naming blocks of order 4 * 10^12 over a file of a few bytes
HUGE_HEADERS = {
    "read_scheme": b"5 100000\n100000 100000\n0 1\n",
    "read_linked_system": b"2 4000000000000 2000000000000 2 1 0 0 - - -\n4000000000000 4000000000000\n0 1\n",
    "read_auxiliary_set": b"4000000000000 2\n4000000000000 4000000000000\n0 1\n",
}
HUGE_ERRORS = {
    "read_scheme": "scheme: expected 100000 integers on line 3",
    "read_linked_system": "linked system: expected 4000000000000 integers on line 3",
    "read_auxiliary_set": "auxiliary set: expected 4000000000000 integers on line 3",
}
VERBS = {"read_scheme": ["verify", "scheme"], "read_linked_system": ["verify", "linked-system"], "read_auxiliary_set": ["verify", "aux"]}


def test_a_header_the_file_cannot_hold_is_refused_before_r_is_allocated(tmp_path, capsys):
    """A header naming blocks of 10^10 bytes or more, gigabytes in all,
    over a file of a few dozen bytes: each reader sizes no array by it and
    names the missing entries as the token reader does."""
    for reader, data in HUGE_HEADERS.items():
        tracemalloc.start()
        try:
            got = _outcome(getattr(fileio, reader), io.BytesIO(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, reader
        assert got == _outcome(getattr(token_route, reader), data) == (None, (FormatError, HUGE_ERRORS[reader]))
        path = tmp_path / reader
        path.write_bytes(data)
        assert _cli_either_way(VERBS[reader], path, reader, capsys) == (2, "", f"error: {HUGE_ERRORS[reader]}\n")


@pytest.mark.parametrize("header", [b"9 4\n", b"-1 4\n", b"5 0\n", b"\n5 4\n", b"5 4 1\n", b"5 4\r7\n"])
def test_headers_outside_the_written_layout_take_the_token_reader(header, scheme48):
    """Ten classes of order 4 (over six blocks of order 48, so the file
    ends too soon), a negative count, no vertices, a leading blank line, a
    third field or a second line hidden behind a CR, each over the 48-vertex
    classes: the reader gives the token reader's error."""
    data = header + text_of(fileio.scheme_chunks(scheme48.relation)).split("\n", 1)[1].encode()
    error = _outcome(fileio.read_scheme, io.BytesIO(data))
    assert error == _token_route(data) and error[1] is not None


def test_blocks_past_label_255_under_a_header_the_file_cannot_hold():
    """301 classes of order 100 named over 301 blocks of order 1: no label
    array is sized, every block is offered to the claim, past label 255,
    and refused, and the reader gives the token reader's error."""
    data = b"300 100\n" + b"1 1\n0\n" * 301
    error = _outcome(fileio.read_scheme, io.BytesIO(data))
    assert error == _token_route(data) and error[1] is not None


def test_a_pipe_is_left_whole_to_the_token_reader(scheme48):
    """A stream that cannot seek is read into memory first, then block by
    block: the token reader's classes, or its error."""
    for kind in ("as-written", "truncated"):
        data = _text(scheme48.relation, 0, kind).encode()
        with _pipe(data) as pipe:
            got, error = _outcome(fileio.read_scheme, pipe)
        want, want_error = _token_route(data)
        assert error == want_error and (error is None) == (kind == "as-written")
        if error is None:
            assert isinstance(got, ClassLabels) and not got.extra
            _same_classes(got, want)


def test_written_schemes_are_read_block_by_block(scheme448, line_reads):
    """A written file is read block by block, each header through ``Lines``,
    into the labels of one array: R and the axioms come out of it as they do
    out of the token reader's classes."""
    data = b"".join(fileio.scheme_chunks(scheme448.relation))
    for layout in (data, data.replace(b"\n", b"\r\n")):
        line_reads.update(ints=0, next=0)
        labels = fileio.read_scheme(io.BytesIO(layout))
        assert line_reads == {"ints": 1 + 6, "next": 1 + 6}
        assert labels.relation.dtype == np.uint8 and labels.relation.shape == (448, 448)
        relation, cert = relation_from_classes(labels)
        assert cert.ok and np.array_equal(relation, scheme448.relation)


def test_a_certified_file_keeps_the_readers_array(scheme448):
    """The label array the reader writes is the scheme's R: certifying the
    448-vertex file builds no second array of |X|^2 entries."""
    read = fileio.read_scheme(io.BytesIO(b"".join(fileio.scheme_chunks(scheme448.relation))))
    report = certify_classes(read)
    assert report.certificate.ok and report.relation is read.relation


def _scheme_file(classes) -> bytes:
    """The scheme file of the 0/1 ``classes`` as written, one digit block each."""
    head = f"{len(classes) - 1} {len(classes[0])}\n"
    return (head + "".join(text_of(fileio.matrix_chunks(IntMatrix.view(a.view(np.uint8)))) for a in classes)).encode()


def _checked_read(data: bytes):
    """The reader's classes of ``data``, which must be the token reader's,
    with the partition lines and R of the class-list route."""
    read = fileio.read_scheme(io.BytesIO(data))
    classes, error = _token_route(data)
    assert error is None
    _same_classes(read, classes)
    got, cert = relation_from_classes(read)
    want, want_cert = relation_from_classes(classes)
    assert cert.report_lines() == want_cert.report_lines() == ref.partition_certificate(class_matrices(classes)).report_lines()
    assert (got is None) == (want is None) and (got is None or np.array_equal(got, want))
    return read


@pytest.mark.parametrize("c, i", [(c, i) for i in range(1, 6) for c in range(i)])
def test_a_pair_claimed_twice_turns_the_read_into_a_class_list(c, i, scheme48):
    """For each of the 15 class pairs c < i of the 48-vertex scheme, one
    pair of class c (both its entries) also in class i: the reader finds
    the claim at class i and keeps that class alone out of R, with the
    token reader's classes."""
    relation = scheme48.relation
    x, y = random.Random(f"claimed:{c}:{i}").choice(list(zip(*np.nonzero(relation == c))))
    classes = [relation == label for label in range(6)]
    classes[i][x, y] = classes[i][y, x] = True
    read = _checked_read(_scheme_file(classes))
    assert set(read.extra) == {i} and len(read) == 6


def test_a_pair_claimed_twice_costs_one_block_beside_r(scheme448):
    """The 448-vertex scheme with a pair of class 1 (both its entries) also
    in class 5: reading it and certifying it, which fails, peaks within
    5 |X|^2 bytes, the read's own peak (its window of 2 |X|^2, R and class
    5's block), as the certificate is read off R and that block with no
    second array of |X|^2 labels or counts."""
    relation = scheme448.relation
    x, y = divmod(int(np.argmax(relation == 1)), len(relation))
    classes = [relation == label for label in range(6)]
    classes[5][x, y] = classes[5][y, x] = True
    stream = io.BytesIO(_scheme_file(classes))
    tracemalloc.start()
    try:
        read = fileio.read_scheme(stream)
        report = certify_classes(read)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(read.extra) == {5} and not report.certificate.ok
    assert peak <= 5 * relation.size


@st.composite
def _flipped_partitions(draw):
    """A random symmetric partition of order at most 12 into at most 12
    classes, some possibly empty, and one entry (class, x, y) to flip."""
    size, count = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, count - 1), min_size=size * size, max_size=size * size))
    relation = np.array(labels, dtype=np.uint8).reshape(size, size)
    relation = np.triu(relation) + np.triu(relation, 1).T
    flip = draw(st.tuples(st.integers(0, count - 1), st.integers(0, size - 1), st.integers(0, size - 1)))
    return relation, count, flip


@given(_flipped_partitions())
@settings(max_examples=150, deadline=None)
def test_one_entry_set_or_cleared_reads_as_the_token_reader(case):
    """A random partition with one entry of one class set or cleared: the
    reader keeps a class out of R exactly when it claims a pair twice, the
    later of the two classes of an entry set, and gives its classes and the
    class-list route's partition lines either way."""
    relation, count, (c, x, y) = case
    classes = [relation == label for label in range(count)]
    classes[c][x, y] ^= True
    read = _checked_read(_scheme_file(classes))
    assert set(read.extra) == (set() if relation[x, y] == c else {max(c, relation[x, y])})


def test_more_classes_than_eight_take_the_label_route():
    """The distance scheme of the 21-cycle, 11 classes: read into labels,
    it certifies with the class-list route's R, partition lines and
    intersection numbers."""
    diff = np.abs(np.subtract.outer(np.arange(21), np.arange(21)))
    relation = np.minimum(diff, 21 - diff).astype(np.uint8)
    read = _checked_read(text_of(fileio.scheme_chunks(relation)).encode())
    assert not read.extra and len(read) == 11
    assert relation_from_classes(read)[0] is read.relation and np.array_equal(read.relation, relation)
    p, cert = compute_intersection_numbers(read)
    want_p, want_cert = ref.intersection_numbers(class_matrices(read))
    assert cert.ok and p == want_p and cert.report_lines() == want_cert.report_lines()


@pytest.mark.parametrize("d", [254, 255])
def test_labels_hold_up_to_255_classes(d):
    """Order-2 classes I and J - I, then empty ones up to class d: 255
    classes are read into uint8 labels 0..254, and 256 into uint16 labels
    0..255, each with the class-list route's lines (the empty classes
    fail)."""
    classes = [np.eye(2, dtype=bool), ~np.eye(2, dtype=bool)] + [np.zeros((2, 2), dtype=bool)] * (d - 1)
    read = _checked_read(_scheme_file(classes))
    assert not read.extra and len(read) == d + 1
    assert read.relation.dtype == (np.uint8 if d < 255 else np.uint16)


def test_chunk_writers_join_to_the_formatted_text(scheme48, sys16):
    """The digit buffers join to the text of one str() per entry."""
    assert text_of(fileio.scheme_chunks(scheme48.relation)) == token_route.scheme_text(scheme48.relation)
    assert text_of(fileio.linked_system_chunks(sys16)) == token_route.linked_system_text(sys16)


@pytest.mark.parametrize("rows", [1, 7, 48])
def test_scheme_writer_bands_join_to_the_formatted_text(scheme48, monkeypatch, rows):
    """A class is written a band of rows at a time, each within
    ``SCHEME_BAND`` bytes: bands of one row, of rows that do not divide
    |X| = 48, and of the whole class join to the text of one str() per
    entry."""
    monkeypatch.setattr(fileio, "SCHEME_BAND", 2 * 48 * rows + 1)
    chunks = list(fileio.scheme_chunks(scheme48.relation))
    bands = [memoryview(c).nbytes for c in chunks if isinstance(c, np.ndarray)]
    assert len(bands) == 6 * -(-48 // rows) and max(bands) == 2 * 48 * rows
    assert text_of(chunks) == token_route.scheme_text(scheme48.relation)


@pytest.fixture
def line_reads(monkeypatch):
    """How many header lines ``Lines`` reads one at a time, by method."""
    counts = {"ints": 0, "next": 0}
    for name in counts:
        method = getattr(fileio.Lines, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(fileio.Lines, name, counted)
    return counts
