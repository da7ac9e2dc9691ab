"""The block-by-block scheme reader (``fileio.read_scheme``) and the label
array axioms (``schemes.relation_from_classes`` on ``ClassBits``) against
the token reader (``fileio.parse_scheme_matrices``) and the class-list route
(``class_list_route``): on seeded files with CR LF line ends (one of them
ending a row in CR x), blocks at odd and even byte offsets, a 2 entry, a
non-digit byte, a truncated last class, overlapping, asymmetric and empty
classes, and an A_0 that is not I, the CLI reports the same R, certificate
lines and error lines either way."""

import io
import os
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import class_list_route as ref
from class_list_route import class_matrices
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.cli import main
from sgdd.errors import FormatError
from sgdd.schemes import ClassBits, certify_classes, relation_from_classes


def _text(relation, seed: int, kind: str) -> str:
    """The written scheme of ``relation`` with one seeded defect of ``kind``."""
    rng = random.Random(f"{kind}:{seed}")
    lines = fileio.format_scheme_matrices(relation).split("\n")
    size = relation.shape[0]

    def line(c, x):
        return 1 + c * (size + 1) + 1 + x

    def put(c, x, y, token):
        row = lines[line(c, x)].split(" ")
        row[y] = token
        lines[line(c, x)] = " ".join(row)

    def pair_in(c):
        return rng.choice([(x, y) for x, y in zip(*np.nonzero(relation == c)) if x < y])

    if kind in ("entry-2", "non-digit"):
        put(rng.randrange(6), rng.randrange(size), rng.randrange(size), "2" if kind == "entry-2" else "x")
    elif kind == "truncated":
        return "\n".join(lines)[: -rng.randrange(2, 4 * size)]
    elif kind in ("overlap-pair", "into-a0"):
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
        return fileio.format_scheme_matrices(moved)
    elif kind == "empty":
        # class 5 joins class 4: every class stays 0/1 and symmetric, but A_5 is empty
        merged = np.where(relation == 5, 4, relation)
        return f"5 {size}\n" + "".join(fileio.format_matrix(IntMatrix.view((merged == c).view(np.uint8))) for c in range(6))
    return "\n".join(lines)


def _layouts(text: str) -> dict[str, bytes]:
    """The file as written, with CR LF line ends, with the header one byte
    longer, which moves every block by one byte, and with CR LF line ends
    where one row of the middle class ends in CR x."""
    d, size = text.split("\n", 1)[0].split()
    crlf = text.replace("\n", "\r\n")
    at = crlf.index("\r\n", len(crlf) // 2)
    return {
        "lf": text.encode(),
        "crlf": crlf.encode(),
        "shifted": text.replace(f"{d} {size}\n", f"{d}  {size}\n", 1).encode(),
        "cr-x": (crlf[:at] + "\rx" + crlf[at + 2 :]).encode(),
    }


def _token_route(data: bytes):
    """The token reader's classes, or its error."""
    try:
        return fileio.parse_scheme_matrices(data), None
    except FormatError as exc:
        return None, str(exc)


def _cli(path: Path, capsys) -> tuple[int, str, str]:
    code = main(["verify", "scheme", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


KINDS = ["as-written", "entry-2", "non-digit", "truncated", "overlap", "overlap-pair", "asymmetric", "into-a0", "a0-moved", "empty"]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("source", ["scheme48", "scheme135"])
def test_reader_matches_token_and_class_list_routes(source, kind, seed, request, tmp_path, capsys):
    relation = request.getfixturevalue(source).relation
    for layout, data in _layouts(_text(relation, seed, kind)).items():
        classes, error = _token_route(data)
        bits = fileio.read_scheme(io.BytesIO(data))
        # only a file of 0/1 digit blocks as written is read block by block
        assert (bits is not None) == (kind not in ("entry-2", "non-digit", "truncated") and layout != "cr-x"), layout
        if bits is not None:
            assert isinstance(bits, ClassBits) and len(bits) == len(classes)
            assert all(np.array_equal(a, b) for a, b in zip(bits, classes))
            got, cert = relation_from_classes(bits)
            want, ref_cert = relation_from_classes(classes)
            assert cert.report_lines() == ref_cert.report_lines() == ref.partition_certificate(class_matrices(classes)).report_lines()
            assert (got is None) == (want is None) == (kind != "as-written")
            if got is not None:
                assert got.dtype == np.uint8 and np.array_equal(got, want) and np.array_equal(got, relation)
        scm = tmp_path / f"{layout}.scm"
        scm.write_bytes(data)
        code, out, err = _cli(scm, capsys)
        if error is not None:
            assert (code, out, err) == (2, "", f"error: {error}\n")
        else:
            report = certify_classes(classes).certificate
            assert (code, out) == (0 if report.ok else 1, "\n".join(report.report_lines()) + "\n")


def test_a_header_the_file_cannot_hold_is_refused_before_r_is_allocated(tmp_path, capsys):
    """A header naming 10^5 vertices, 60 GB of classes, over a 20-byte
    file: the reader declines without an array sized by the header, and
    the token reader names the missing lines."""
    data = b"5 100000\n100000 100000\n0 1\n"
    tracemalloc.start()
    try:
        assert fileio.read_scheme(io.BytesIO(data)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    error = _token_route(data)[1]
    assert error == "scheme: expected 100000 integers on line 3"
    scm = tmp_path / "huge.scm"
    scm.write_bytes(data)
    assert _cli(scm, capsys) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("header", [b"9 4\n", b"-1 4\n", b"5 0\n", b"\n5 4\n", b"5 4 1\n", b"5 4\r7\n"])
def test_headers_outside_the_written_layout_take_the_token_reader(header, scheme48):
    """More classes than eight, a negative count, no vertices, a leading
    blank line, a third field or a second line hidden behind a CR: the
    reader declines, and the token reader decides."""
    body = fileio.format_scheme_matrices(scheme48.relation).split("\n", 1)[1].encode()
    assert fileio.read_scheme(io.BytesIO(header + body)) is None


def test_a_pipe_is_left_whole_to_the_token_reader(scheme48):
    """A stream that cannot seek is declined before a byte is read, so the
    token reader still gets all of it."""
    data = fileio.format_scheme_matrices(scheme48.relation).encode()
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        assert fileio.read_scheme(pipe) is None
        assert pipe.read() == data


def test_written_schemes_are_read_block_by_block(scheme448, line_reads):
    """A written file is read block by block, each header through ``Lines``,
    into the bits of one array: R and the axioms come out of it as they do
    out of the token reader's classes."""
    data = fileio.format_scheme_matrices(scheme448.relation).encode()
    for layout in (data, data.replace(b"\n", b"\r\n")):
        line_reads.update(ints=0, next=0)
        bits = fileio.read_scheme(io.BytesIO(layout))
        assert line_reads == {"ints": 1 + 6, "next": 1 + 6}
        assert bits.bits.dtype == np.uint8 and bits.bits.shape == (448, 448)
        relation, cert = relation_from_classes(bits)
        assert cert.ok and np.array_equal(relation, scheme448.relation)


def test_chunk_writers_join_to_the_formatted_text(scheme48, sys16):
    assert b"".join(fileio.scheme_chunks(scheme48.relation)).decode() == fileio.format_scheme_matrices(scheme48.relation)
    assert b"".join(fileio.linked_system_chunks(sys16)).decode() == fileio.format_linked_system(sys16)


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
