import hashlib
import io
import json
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdd.fileio
import sgdd.latin
from sgdd import fileio
from sgdd.algebra import IntMatrix
from sgdd.classical import hadamard_matrix
from sgdd.cli import main
from sgdd.errors import FormatError, ParameterError
from sgdd.gf import gf_from_order, gf_make
from sgdd.latin import LinkedMolsFamily, linked_mols_from_gf, mols_from_gf, require_latin
from sgdd.resolvable import aux_from_hadamard
from sgdd.schemes import relation_from_classes

import str_line_route as str_route
import token_route
from conftest import read_text, text_of


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_matrix_roundtrip_bit_identical():
    m = IntMatrix([[1, -2, 3], [0, 5, -6]])
    text = text_of(fileio.matrix_chunks(m.a))
    assert text == "2 3\n1 -2 3\n0 5 -6\n"
    again = read_text(fileio.read_matrix, text)
    assert again == m
    assert text_of(fileio.matrix_chunks(again.a)) == text


def test_matrix_rejects_trailing_junk():
    with pytest.raises(FormatError):
        read_text(fileio.read_matrix, b"1 1\n5\nextra\n")
    with pytest.raises(FormatError):
        read_text(fileio.read_matrix, b"2 2\n1 2\n3\n")


def _read_matrix_per_entry(lines):
    """Reference reader: one int() per entry, row by row."""
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    return IntMatrix([lines.ints(cols) for _ in range(rows)])


MATRIX_TEXTS = {
    "plain": "2 3\n1 -2 3\n0 5 -6\n",
    "blank-lines": "\n2 2\n\n  1 0 \n\n\n0 1\n\n",
    "tabs-and-signs": "2 2\n+1\t-0\n 007 1_000\n",
    "int64-edges": "1 2\n9223372036854775807 -9223372036854775808\n",
    "past-int64": "2 2\n9223372036854775808 1\n0 -9223372036854775809\n",
    "huge": "1 1\n123456789012345678901234567890\n",
    "bad-token": "2 2\n1 x\n0 1\n",
    "bad-token-after-blank": "3 2\n1 0\n\n0 1.5\n1 1\n",
    "short-row": "2 2\n1 0\n1\n",
    "long-row": "2 2\n1 0 1\n0 1\n",
    "all-rows-long": "2 2\n1 0 1\n0 1 1\n",
    "short-row-then-bad-token": "2 2\n1\n0 q\n",
    "bad-token-then-eof": "3 2\n1 z\n",
    "eof": "3 2\n1 0\n0 1\n",
    "zero-rows": "0 2\n",
    "bad-header": "2\n1 0\n",
    "trailing": "1 1\n5\n\nextra\n",
    # single-digit blocks for the byte-view reader: one clean, the rest with one defect each
    "digits": "2 3\n1 0 1\n0 9 0\n",
    "digits-trailing-space": "2 3\n1 0 1 \n0 9 0\n",
    "digits-leading-space": "2 3\n1 0 1\n 0 9 0\n",
    "digits-double-space": "2 3\n1  0 1\n0 9 0\n",
    "digits-tab": "2 3\n1\t0 1\n0 9 0\n",
    "digits-ten": "2 3\n1 0 1\n0 10 0\n",
    "digits-ten-same-width": "2 3\n1 0 1\n10 00\n",
    "digits-minus-one": "2 3\n1 -1 1\n0 9 0\n",
    "digits-blank-inside": "2 3\n1 0 1\n\n0 9 0\n",
    "digits-crlf": "2 3\r\n1 0 1\r\n0 9 0\r\n",
    "digits-no-final-newline": "2 3\n1 0 1\n0 9 0",
    "digits-short-then-long": "2 3\n1 0\n1 0 9 0\n",
    "digits-non-ascii-digit": "2 3\n1 0 1\n0 \u0663 0\n",
    # row ends other than "\n", which the byte view leaves to the token reader
    "digits-lone-cr": "2 3\r1 0 1\r0 9 0\r",
    "digits-vt": "2 3\x0b1 0 1\x0b0 9 0\x0b",
    "digits-ff": "2 3\x0c1 0 1\x0c0 9 0\x0c",
    "digits-fs": "2 3\x1c1 0 1\x1c0 9 0\x1c",
    "digits-gs": "2 3\x1d1 0 1\x1d0 9 0\x1d",
    "digits-rs": "2 3\x1e1 0 1\x1e0 9 0\x1e",
    "digits-crlf-no-final-newline": "2 3\r\n1 0 1\r\n0 9 0",
    # \x1f is whitespace to str.split but ends no line
    "digits-unit-separator": "2 3\n1 0\x1f1\n0 9 0\n",
    "digits-rows-past-eof": "3 3\n1 0 1\n0 9 0\n",
    "crlf-bad-token": "2 2\r\n1 0\r\n0 x\r\n",
    # CR LF rows, which the byte view reads only when every row ends so
    "digits-crlf-one-column": "2 1\r\n1\r\n0\r\n",
    "digits-crlf-then-lf": "2 3\r\n1 0 1\r\n0 9 0\n",
    "digits-lf-then-crlf": "2 3\n1 0 1\n0 9 0\r\n",
    "digits-crlf-final-cr": "2 3\r\n1 0 1\r\n0 9 0\r",
    "digits-cr-cr-lf": "2 2\r\n1 0\r\r\n0 1\r\n",
    "digits-crlf-ten": "2 3\r\n1 0 1\r\n0 10 0\r\n",
}

# Digit blocks whose rows do not all end in "\n" nor all in "\r\n": the str
# route views them as uint8, the byte route reads the same values as int64.
NOT_LF_ROWS = {
    "digits-no-final-newline", "digits-lone-cr", "digits-vt", "digits-ff",
    "digits-fs", "digits-gs", "digits-rs", "digits-crlf-no-final-newline",
    "digits-crlf-then-lf", "digits-lf-then-crlf", "digits-crlf-final-cr",
}

MATRIX_ERRORS = {
    "bad-token": "matrix: non-integer token on line 2",
    "bad-token-after-blank": "matrix: non-integer token on line 4",
    "short-row": "matrix: expected 2 integers on line 3",
    "long-row": "matrix: expected 2 integers on line 2",
    "all-rows-long": "matrix: expected 2 integers on line 2",
    "short-row-then-bad-token": "matrix: expected 2 integers on line 2",
    "bad-token-then-eof": "matrix: non-integer token on line 2",
    "eof": "matrix: unexpected end of file",
    "zero-rows": "matrix: matrix dimensions must be positive",
    "bad-header": "matrix: expected 2 integers on line 1",
    "trailing": "matrix: trailing content at line 4",
    "digits-ten-same-width": "matrix: expected 3 integers on line 3",
    "digits-short-then-long": "matrix: expected 3 integers on line 2",
    "digits-non-ascii-digit": "matrix: non-ASCII byte 0xd9 on line 3",
    "digits-rows-past-eof": "matrix: unexpected end of file",
    "crlf-bad-token": "matrix: non-integer token on line 3",
}


def _byte_lines(text):
    return fileio.Lines(io.BytesIO(text.encode()), "matrix")


def _str_lines(text):
    return str_route.Lines(text, "matrix")


def _block_outcome(read, text, lines_of=_byte_lines):
    """The block as read, its dtype and rows, or the error text."""
    try:
        lines = lines_of(text)
        a = read(lines)
        lines.done()
    except FormatError as exc:
        return "error", str(exc)
    return a.dtype, a.tolist()


def _parse_outcome(read, text, lines_of=_byte_lines):
    """The block as the IntMatrix every matrix parser makes of it, or the error text."""
    return _block_outcome(lambda lines: IntMatrix(read(lines)).a, text, lines_of)


@pytest.mark.parametrize("name", sorted(MATRIX_TEXTS))
def test_matrix_parse_matches_per_entry_reader(name):
    text = MATRIX_TEXTS[name]
    got = _parse_outcome(fileio._read_matrix, text)
    assert got == _parse_outcome(_read_matrix_per_entry, text)
    if name in MATRIX_ERRORS:
        assert got == ("error", MATRIX_ERRORS[name])


@pytest.mark.parametrize("name", sorted(name for name, text in MATRIX_TEXTS.items() if text.isascii()))
def test_byte_reader_matches_str_route(name):
    """Value, dtype and error text of the byte reader equal those of the
    decoded-text reader it replaced."""
    text = MATRIX_TEXTS[name]
    want = _block_outcome(str_route.read_matrix, text, _str_lines)
    if name in NOT_LF_ROWS:
        assert want[0] == np.uint8
        want = (np.dtype(np.int64), want[1])
    assert _block_outcome(fileio._read_matrix, text) == want


@settings(max_examples=300, deadline=None)
@given(
    grid=st.integers(1, 12).flatmap(
        lambda cols: st.lists(st.lists(st.integers(0, 9), min_size=cols, max_size=cols), min_size=1, max_size=12)
    ),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    char=st.sampled_from("0123456789 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f-+_x\xe9\u0663"),
    data=st.data(),
)
def test_mutated_digit_block_parses_like_per_entry_reader(grid, edit, char, data):
    """A single-digit block with one character replaced, inserted or deleted."""
    head = f"{len(grid)} {len(grid[0])}\n"
    body = "".join(" ".join(map(str, row)) + "\n" for row in grid)
    at = data.draw(st.integers(0, len(body) - 1))
    tail = body[at + 1 :] if edit != "insert" else body[at:]
    text = head + body[:at] + ("" if edit == "delete" else char) + tail
    got = _parse_outcome(fileio._read_matrix, text)
    assert got == _parse_outcome(_read_matrix_per_entry, text)
    if text.isascii():
        assert got == _parse_outcome(str_route.read_matrix, text, _str_lines)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="01 \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f", max_size=40), chunk=st.integers(1, 5))
def test_lines_through_a_small_window_end_where_splitlines_does(text, chunk):
    """Lines read through a window of ``chunk`` bytes a refill, so a CR LF
    and every line can straddle refills: the non-blank lines of
    ``str.splitlines``, each counted, blank ones too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "CHUNK", chunk)
        lines = fileio.Lines(io.BytesIO(text.encode()), "text")
        assert list(lines) == [line.strip() for line in text.splitlines() if line.strip()]
    assert lines.pos == len(text.splitlines())


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_blocks_read_through_a_small_window_read_the_same(chunk, monkeypatch):
    """Every matrix text, read through a window of ``chunk`` bytes a refill:
    the value, dtype and error of the default window."""
    want = {name: _block_outcome(fileio._read_matrix, text) for name, text in MATRIX_TEXTS.items()}
    monkeypatch.setattr(fileio, "CHUNK", chunk)
    assert {name: _block_outcome(fileio._read_matrix, text) for name, text in MATRIX_TEXTS.items()} == want


@pytest.fixture
def line_reads(monkeypatch):
    """How many lines the matrix readers take one at a time, by method."""
    counts = {"ints": 0, "next": 0}
    for name in counts:
        method = getattr(fileio.Lines, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(fileio.Lines, name, counted)
    return counts


def test_written_digit_blocks_take_the_byte_view(scheme448, sys64, line_reads):
    """Parsing what the writers produce reads only the header lines one at a
    time: no block goes through the per-entry or the token reader."""
    mats = read_text(fileio.read_scheme, text_of(fileio.scheme_chunks(scheme448.relation)))
    assert [a.dtype for a in mats] == [np.uint8] * 6
    assert all(np.array_equal(a, scheme448.relation == i) for i, a in enumerate(mats))
    assert line_reads == {"ints": 1 + 6, "next": 1 + 6}
    line_reads.update(ints=0, next=0)
    system = read_text(fileio.read_linked_system, text_of(fileio.linked_system_chunks(sys64)))
    assert system.stack.dtype == np.uint8 and np.array_equal(system.stack, sys64.stack)
    assert line_reads == {"ints": 0, "next": 1}


def test_scheme_parse_from_bytes_peaks_below_the_file_size(scheme448):
    """The six class blocks are read in place in a window of one block: no
    decoded copy and no line list (together over twice the file size)."""
    data = b"".join(fileio.scheme_chunks(scheme448.relation))
    tracemalloc.start()
    try:
        mats = read_text(fileio.read_scheme, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [a.dtype for a in mats] == [np.uint8] * 6
    assert peak < 0.75 * len(data)


def test_crlf_scheme_parse_takes_the_byte_view(scheme448):
    """A scheme file with CR LF line ends is read in place as well: uint8
    blocks with the LF file's values, and the same peak bound."""
    data = b"".join(fileio.scheme_chunks(scheme448.relation)).replace(b"\n", b"\r\n")
    tracemalloc.start()
    try:
        mats = read_text(fileio.read_scheme, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [a.dtype for a in mats] == [np.uint8] * 6
    assert all(np.array_equal(a, scheme448.relation == i) for i, a in enumerate(mats))
    assert peak < 0.75 * len(data)


def _stack_texts(sys64):
    """A linked system, an auxiliary set and a linked family of 42, 7 and
    42 blocks, each with its text as the block-by-block writer wrote it,
    and the bytes of text one of its blocks takes."""
    aux = aux_from_hadamard(hadamard_matrix(8))
    fam = linked_mols_from_gf(gf_make(2, 3))

    def per_block(head: str, stack) -> bytes:
        return head.encode() + b"".join(b"".join(fileio.matrix_chunks(blk)) for blk in stack)

    system_head = text_of(fileio.linked_system_chunks(sys64)).split("\n", 1)[0] + "\n"
    return {
        "system": (sys64, fileio.linked_system_chunks, fileio.read_linked_system, per_block(system_head, sys64.stack), 6 + 2 * 64 * 64),
        "auxiliary set": (aux, fileio.auxiliary_set_chunks, fileio.read_auxiliary_set, per_block("8 7\n", aux.stack), 4 + 2 * 8 * 8),
        "family": (fam, fileio.linked_family_chunks, fileio.read_latin, b"".join(fileio.linked_family_chunks(fam)), 2 * 8 * 8),
    }


@pytest.mark.parametrize("kind", ["system", "auxiliary set", "family"])
def test_stacks_read_and_written_in_uneven_bands_round_trip(kind, sys64, line_reads, monkeypatch):
    """Bands of 5 blocks, which divide neither 42 nor 7, write the text of
    the block-by-block writer byte for byte, and read it back with the
    header as the only line read one at a time, every block equal and every
    line counted."""
    obj, chunks, reader, text, size = _stack_texts(sys64)[kind]
    monkeypatch.setattr(fileio, "SCHEME_BAND", 5 * size)
    monkeypatch.setattr(fileio, "CHUNK", 5 * size)
    assert b"".join(chunks(obj)) == text
    done, ended = fileio.Lines.done, []
    monkeypatch.setattr(fileio.Lines, "done", lambda lines: (ended.append(lines.pos), done(lines))[1])
    again = read_text(reader, text)
    assert ended == [text.count(b"\n")]
    assert line_reads["next"] == 1
    if kind == "family":
        assert again == obj
    else:
        assert again.stack.dtype == np.uint8 and np.array_equal(again.stack, obj.stack)


def test_system_parse_from_bytes_peaks_below_the_file_size(sys64):
    """The 42 blocks of sys64 are read a band within one refill at a time
    into its uint8 stack (half the file size), so the window never grows."""
    data = b"".join(fileio.linked_system_chunks(sys64))
    tracemalloc.start()
    try:
        system = read_text(fileio.read_linked_system, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(system.stack, sys64.stack)
    assert peak < len(data)


def test_stdout_output_is_written_a_chunk_at_a_time(sys64, tmp_path: Path):
    """Without -o, the 2.4 MB scheme of sys64 goes to stdout a decoded chunk
    at a time, so a StringIO stdout peaks below 1.5 times the text (the
    text joined and decoded whole peaked at about 2.1 times it), and holds
    the bytes -o writes."""
    lsys, scm = tmp_path / "sys64.lsys", tmp_path / "sys64.scm"
    lsys.write_bytes(b"".join(fileio.linked_system_chunks(sys64)))
    assert main(["scheme", "assemble", "--in", str(lsys), "-o", str(scm)]) == 0
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(buf):
            assert main(["scheme", "assemble", "--in", str(lsys)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = buf.getvalue()
    assert text.encode() == scm.read_bytes()
    assert peak < 1.5 * len(text)


def test_matrix_parse_keeps_entries_past_int64():
    assert read_text(fileio.read_matrix, MATRIX_TEXTS["int64-edges"]).a.dtype == np.int64
    big = read_text(fileio.read_matrix, MATRIX_TEXTS["past-int64"])
    assert big.a.dtype == object
    assert big.entries() == [2**63, 1, 0, -(2**63) - 1]


def _format_matrix_per_entry(m):
    """Reference formatter: one str() per entry, row by row."""
    body = "\n".join(" ".join(str(x) for x in m.row(i)) for i in range(m.rows))
    return f"{m.rows} {m.cols}\n{body}\n"


@pytest.mark.parametrize(
    "data",
    [
        [[0, 1, 1], [1, 0, 1]],
        [[-3, 0], [7, -9223372036854775808], [9223372036854775807, -1]],
        [[2**63, -(2**63) - 1], [10**30, 0]],
        [[9, 0], [0, 9]],
        [[9, 10], [0, 1]],
        [[0, 1], [-1, 9]],
        np.zeros((3, 2), dtype=np.int64),
        np.array([[0, 9], [1, 2]], dtype=object),
    ],
    ids=["int64", "negative", "past-int64", "nine", "ten", "minus-one", "all-zero", "object-digits"],
)
def test_format_matrix_matches_per_entry_formatter(data):
    m = IntMatrix(data)
    assert text_of(fileio.matrix_chunks(m.a)) == _format_matrix_per_entry(m)
    assert read_text(fileio.read_matrix, text_of(fileio.matrix_chunks(m.a))) == m


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
def test_format_matrix_writes_viewed_blocks_as_int64(dtype):
    """A block held as a boolean or uint8 view, such as a block of a system
    cut from a scheme, or a non-contiguous slice of one, is written with the
    bytes of its int64 copy."""
    rng = np.random.default_rng(3)
    whole = rng.integers(0, 2 if dtype is np.bool_ else 10, size=(6, 8)).astype(dtype)
    for arr in (whole, whole[1:5, 2:7], whole.T):
        assert text_of(fileio.matrix_chunks(arr)) == _format_matrix_per_entry(IntMatrix(arr.astype(np.int64)))


def _peak_bytes(reader, text):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="unexpected end of file"):
            read_text(reader, text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_header_f_does_not_size_work_before_blocks_are_read(sys16, fam_gf4):
    """A header claiming f = 2000 over a file with a handful of blocks fails
    at the first missing block, without building the f(f-1) pair list."""
    system_text = text_of(fileio.linked_system_chunks(sys16))
    head, rest = system_text.split("\n", 1)
    system_text = " ".join(["2000"] + head.split()[1:]) + "\n" + rest
    assert _peak_bytes(fileio.read_linked_system, system_text) < 5_000_000
    family_text = text_of(fileio.linked_family_chunks(fam_gf4))
    head, rest = family_text.split("\n", 1)
    family_text = f"2000 {head.split()[1]}\n{rest}"
    assert _peak_bytes(fileio.read_linked_family, family_text) < 5_000_000


def test_params_roundtrip(conference12):
    _, params = conference12
    text = text_of(fileio.gdd_params_chunks(params))
    assert read_text(fileio.read_gdd_params, text) == params
    assert fileio.parse_inline_gdd_params("12 5 6 2 0 2") == params


def test_a_repeated_parameter_key_is_refused(conference12, tmp_path: Path, capsys):
    """Six keys, then k again: the reader names the key rather than keep
    its last value, and ``verify gdd --params-file`` exits 2."""
    gdd, params = conference12
    text = text_of(fileio.gdd_params_chunks(params)) + "k=7\n"
    with pytest.raises(FormatError, match=r"^parameters: repeated key 'k'$"):
        read_text(fileio.read_gdd_params, text)
    (tmp_path / "p").write_text(text)
    (tmp_path / "a.mat").write_bytes(b"".join(fileio.matrix_chunks(gdd)))
    assert main(["verify", "gdd", str(tmp_path / "a.mat"), "--params-file", str(tmp_path / "p")]) == 2
    assert capsys.readouterr() == ("", "error: parameters: repeated key 'k'\n")


@pytest.mark.parametrize("header", ["4 0\n", "4 -3\n"])
def test_a_matrix_set_of_no_matrices_is_refused(header, tmp_path: Path, capsys):
    """A matrix set header naming no matrices, which ``matrix_set_chunks``
    never writes: the reader refuses it, and ``construct mub-system`` exits
    2 and writes nothing."""
    with pytest.raises(FormatError, match=r"^matrix set: matrix count must be positive$"):
        read_text(fileio.read_matrix_set, header)
    (tmp_path / "empty.hset").write_text(header)
    assert main(["construct", "mub-system", "--in", str(tmp_path / "empty.hset"), "-o", str(tmp_path / "out.lsys")]) == 2
    assert capsys.readouterr() == ("", "error: matrix set: matrix count must be positive\n")
    assert not (tmp_path / "out.lsys").exists()


def test_parsers_refuse_non_ascii_digits():
    # int() reads Arabic-Indic digits, so every entry point checks first
    with pytest.raises(FormatError, match=r"^matrix: non-ASCII byte 0xd9 on line 2$"):
        read_text(fileio.read_matrix, "1 1\n\u0663\n")
    with pytest.raises(FormatError, match=r"^parameters: non-ASCII byte 0xd9 on line 6$"):
        read_text(fileio.read_gdd_params, "v=12\nk=5\nm=6\nn=2\nl1=0\nl2=\u0662\n")
    with pytest.raises(FormatError, match=r"^parameters: non-ASCII byte 0xd9 on line 1$"):
        fileio.parse_inline_gdd_params("12 5 6 2 0 \u0662")


def test_aux_roundtrip(aux_had4):
    text = text_of(fileio.auxiliary_set_chunks(aux_had4))
    again = read_text(fileio.read_auxiliary_set, text)
    assert text_of(fileio.auxiliary_set_chunks(again)) == text


def test_family_roundtrip(fam_gf4):
    text = text_of(fileio.linked_family_chunks(fam_gf4))
    again = read_text(fileio.read_linked_family, text)
    assert text_of(fileio.linked_family_chunks(again)) == text
    assert again == fam_gf4


def _family_line(pair: tuple[int, int], f: int, n: int) -> int:
    """The first line of square ``pair`` in a family file: the pairs i < j,
    then i > j, each in lexicographic order, after the header."""
    pairs = [(i, j) for i in range(1, f + 1) for j in range(i + 1, f + 1)]
    pairs += [(i, j) for i in range(2, f + 1) for j in range(1, i)]
    return 1 + pairs.index(pair) * n


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["bands", "square-by-square"])
def test_family_faults_are_reported_in_file_order(newline, fam_gf4, tmp_path: Path, capsys):
    """A column fault in square (2, 3) and a row fault in square (2, 1):
    (2, 3) comes first in the file, (2, 1) first in ``ordered_pairs``, and
    both verbs that read a family report the column fault, whether the
    squares are read by band or, with CR LF rows, square by square."""
    lines = text_of(fileio.linked_family_chunks(fam_gf4)).splitlines()
    col = _family_line((2, 3), 3, 4)
    lines[col + 1] = lines[col]  # two equal rows, each still holding every symbol once
    row = _family_line((2, 1), 3, 4)
    first = lines[row].split()
    lines[row] = " ".join([first[1], *first[1:]])
    fam, aux = tmp_path / "bad.fam", tmp_path / "had4.aux"
    fam.write_bytes(newline.join(lines + [""]).encode())
    assert run_cli("construct", "hadamard-aux", "--order", "4", "-o", str(aux))[0] == 0
    capsys.readouterr()
    for argv in (["verify", "latin", str(fam)], ["construct", "tilde-l", "--aux", str(aux), "--mols", str(fam)]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: each column must contain every symbol exactly once\n")


@pytest.mark.parametrize("q", [11, 13])
def test_families_of_two_digit_symbols_round_trip(q, line_reads):
    """The q = 11 and 13 families hold symbols past 9, so no band takes a
    square and every square is read whole in one pass, with no row read
    line by line (``fileio._regular_rows``): the stack read back equals the
    one built, and is written byte for byte again."""
    fam = linked_mols_from_gf(gf_from_order(q))
    text = text_of(fileio.linked_family_chunks(fam))
    again = read_text(fileio.read_latin, text)
    assert line_reads["ints"] == 0
    assert again == fam and again.stack.dtype == np.uint8
    assert text_of(fileio.linked_family_chunks(again)) == text


def _latin_outcome(read, data: bytes):
    """The stack or square ``read`` makes of ``data``, or its error."""
    try:
        got = read(data)
    except (FormatError, ParameterError) as exc:
        return type(exc).__name__, str(exc)
    return "read", (got.stack if isinstance(got, LinkedMolsFamily) else got).tolist()


_X11 = np.arange(11)
# an order-11 family of three indices, c (x - y) mod 11 for c = 1..6, and one order-12 square
_TWO_DIGIT_TEXTS = [
    text_of(fileio.linked_family_chunks(LinkedMolsFamily(f=3, stack=np.arange(1, 7)[:, None, None] * (_X11[:, None] - _X11) % 11))),
    "12\n" + "".join(" ".join(str((x + y) % 12) for y in range(12)) + "\n" for x in range(12)),
]


@settings(max_examples=300, deadline=None)
@given(
    text=st.sampled_from(_TWO_DIGIT_TEXTS),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    char=st.sampled_from("0123456789 \t\n\r\x0b\x0c\x1c\x1f-+_x\xe9\u0663"),
    data=st.data(),
)
def test_one_edit_to_a_two_digit_square_reads_as_the_token_route_does(text, edit, char, data):
    """A family of order 11 or a square of order 12 with one character
    replaced, inserted or deleted past the header: the rows up to the first
    irregular line are read in one pass and the rest line by line, with the
    token route's squares or its error."""
    head = text.index("\n") + 1
    at = data.draw(st.integers(head, len(text) - 1))
    edited = (text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert") :]).encode()
    assert _latin_outcome(lambda d: read_text(fileio.read_latin, d), edited) == _latin_outcome(token_route.read_latin, edited)


def test_a_family_symbol_is_checked_before_it_is_narrowed(tmp_path: Path, capsys):
    """An entry 259 in an order-11 family would wrap to 3 in uint8, which
    the row lacks: it is refused as not Latin, as read."""
    lines = text_of(fileio.linked_family_chunks(linked_mols_from_gf(gf_from_order(11)))).splitlines()
    entries = lines[1].split()
    lines[1] = " ".join("259" if x == "3" else x for x in entries)
    fam = tmp_path / "bad.fam"
    fam.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="each row must contain every symbol exactly once"):
        read_text(fileio.read_latin, fam.read_bytes())
    assert main(["verify", "latin", str(fam)]) == 1
    assert capsys.readouterr() == ("", "error: each row must contain every symbol exactly once\n")


def test_a_family_of_order_257_is_held_as_uint16():
    """L_ij(x, y) = c_ij (x - y) mod 257, c_ij = 1..6, three indices (not
    linked, and not certified): held as uint16, and written byte for byte
    again once read."""
    x = np.arange(257)
    fam = LinkedMolsFamily(f=3, stack=np.arange(1, 7)[:, None, None] * (x[:, None] - x) % 257)
    assert fam.stack.dtype == np.uint16
    text = text_of(fileio.linked_family_chunks(fam))
    again = read_text(fileio.read_linked_family, text)
    assert again == fam and again.stack.dtype == np.uint16
    assert text_of(fileio.linked_family_chunks(again)) == text



@pytest.mark.parametrize("q", [5, 16])
def test_a_read_family_is_checked_latin_once(q, monkeypatch):
    """The reader checks each square as it reads it, in file order (the
    bands at q = 5, the token route at q = 16, whose symbols 10..15 are two
    digits); the family it returns does not check its stack again."""
    fam = linked_mols_from_gf(gf_from_order(q))
    text = text_of(fileio.linked_family_chunks(fam))
    checked = []

    def counted(squares):
        checked.append(len(squares))
        return require_latin(squares)

    monkeypatch.setattr(sgdd.fileio, "require_latin", counted)
    monkeypatch.setattr(sgdd.latin, "require_latin", counted)
    assert read_text(fileio.read_linked_family, text) == fam
    assert sum(checked) == fam.f * (fam.f - 1)


def test_linked_system_roundtrip(sys16):
    text = text_of(fileio.linked_system_chunks(sys16))
    again = read_text(fileio.read_linked_system, text)
    assert text_of(fileio.linked_system_chunks(again)) == text
    assert again.params == sys16.params


def test_scheme_roundtrip(scheme48):
    text = text_of(fileio.scheme_chunks(scheme48.relation))
    relation, cert = relation_from_classes(read_text(fileio.read_scheme, text))
    assert cert.ok and text_of(fileio.scheme_chunks(relation)) == text


def test_gcm_roundtrip(bgw5):
    text = text_of(fileio.gcm_chunks(bgw5))
    again = read_text(fileio.read_gcm, text)
    assert text_of(fileio.gcm_chunks(again)) == text


def test_cli_mols_construct(tmp_path: Path):
    out = tmp_path / "gf5.mols"
    assert run_cli("construct", "mols", "--q", "5", "-o", str(out))[0] == 0
    squares = mols_from_gf(gf_make(5, 1))
    assert len(squares) == 4
    assert out.read_text() == text_of(fileio.mols_list_chunks(squares))


def test_cli_mols_list_of_16_keeps_its_bytes(tmp_path: Path):
    """The GF(16) list as written when each square was a tuple of rows: its
    SHA-256 is pinned, as the list has no reader to compare against."""
    out = tmp_path / "gf16.mols"
    assert run_cli("construct", "mols", "--q", "16", "-o", str(out))[0] == 0
    assert out.read_bytes().startswith(b"15 16\n0 15 13 2 9 6 4 11 1 14 12 3 8 7 5 10\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "43e19e3010f9ad973871dd717b2101c10fe7207751bf177824102a9dd2f4be35"


@pytest.mark.parametrize("q", [4, 7])
def test_a_mols_list_is_refused_by_verify_latin(q, tmp_path: Path, capsys):
    """The MOLS list has no reader: ``verify latin`` takes its ``count n``
    header for a family's ``f n`` and runs out of squares."""
    out = tmp_path / "list.mols"
    assert run_cli("construct", "mols", "--q", str(q), "-o", str(out))[0] == 0
    capsys.readouterr()
    assert main(["verify", "latin", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: linked family: unexpected end of file\n")


def test_cli_pipeline_16(tmp_path: Path):
    aux = tmp_path / "had4.aux"
    fam = tmp_path / "gf4.fam"
    lsys = tmp_path / "sys16.lsys"
    scm = tmp_path / "scheme.scm"
    back = tmp_path / "back.lsys"
    assert run_cli("construct", "hadamard-aux", "--order", "4", "-o", str(aux))[0] == 0
    assert run_cli("construct", "linked-mols", "--q", "4", "-o", str(fam))[0] == 0
    assert run_cli("construct", "tilde-l", "--aux", str(aux), "--mols", str(fam), "-o", str(lsys))[0] == 0
    assert run_cli("verify", "linked-system", str(lsys))[0] == 0
    assert run_cli("scheme", "assemble", "--in", str(lsys), "-o", str(scm))[0] == 0
    code, out = run_cli("scheme", "analyze", "--in", str(scm))
    assert code == 0 and "k=6 m=4 n=4 f=3" in out
    assert run_cli("scheme", "extract", "--in", str(scm), "-o", str(back))[0] == 0
    assert back.read_text() == lsys.read_text()
    code, out = run_cli("scheme", "fusion", "--in", str(scm))
    assert code == 0 and "fusable: True" in out


def test_cli_detects_corruption(tmp_path: Path):
    mat = tmp_path / "gdd.mat"
    run_cli("construct", "conference-gdd", "--order", "6", "-o", str(mat), "--params-out", str(tmp_path / "p"))
    lines = mat.read_text().splitlines()
    row = lines[1].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[1] = " ".join(row)
    bad = tmp_path / "bad.mat"
    bad.write_text("\n".join(lines) + "\n")
    code, out = run_cli("verify", "gdd", str(bad), "--params", "12 5 6 2 0 2")
    assert code == 1
    assert "at (" in out  # first violating coordinate reported


def test_cli_usage_errors(tmp_path: Path):
    code, _ = run_cli("verify", "gdd", str(tmp_path / "missing.mat"), "--params", "12 5 6 2 0 2")
    assert code == 2
    code, _ = run_cli("scan", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "argv, needed",
    [
        (("construct", "hadamard-aux"), "--order --in"),
        (("construct", "conference-gdd"), "--order --in"),
        (("construct", "twin", "-o", "{tmp}/twin"), "--order --hadamard"),
        (("verify", "gdd", "{tmp}/a.mat"), "--params --params-file"),
    ],
)
def test_cli_missing_source_is_usage_error(argv, needed, tmp_path: Path, capsys):
    code, out = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert f"error: one of the arguments {needed} is required" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_scan_golden(tmp_path: Path):
    out = tmp_path / "t1.csv"
    assert run_cli("scan", "table1", "--vmax", "1000", "-o", str(out))[0] == 0
    golden = Path(__file__).parent / "golden" / "table1.csv"
    assert out.read_text() == golden.read_text()


def test_cli_scan_full_range_matches_benchmark_digests(tmp_path: Path):
    """The benchmark's full-range scans, byte for byte against the digests
    it records (read only)."""
    expected = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())["scan"]
    for table, vmax in (("table1", "100000"), ("table2", "5000")):
        out = tmp_path / f"{table}.csv"
        code, stdout = run_cli("scan", table, "--vmax", vmax, "-o", str(out))
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == expected[table]["stdout"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected[table]["outputs"][f"{table}.csv"]


def test_cli_oracle_and_mub(tmp_path: Path):
    hset = tmp_path / "bush.hset"
    assert run_cli("oracle", "bush", "--n", "2", "--f", "2", "-o", str(hset))[0] == 0
    lsys = tmp_path / "mub.lsys"
    assert run_cli("construct", "mub-system", "--in", str(hset), "-o", str(lsys))[0] == 0
    assert lsys.read_text().startswith("3 16 4 4 6 2 2 3 1 3")


def test_cli_twin_and_bgw(tmp_path: Path):
    prefix = tmp_path / "twin"
    assert run_cli("construct", "twin", "--order", "4", "-o", str(prefix), "--params-out", str(tmp_path / "tp"))[0] == 0
    assert (tmp_path / "twin.plus.mat").exists() and (tmp_path / "twin.minus.mat").exists()
    gcm = tmp_path / "bgw.gcm"
    assert run_cli("construct", "bgw", "--q", "5", "-o", str(gcm))[0] == 0
    mat = tmp_path / "gdd24.mat"
    assert run_cli("construct", "gcm-gdd", "--in", str(gcm), "-o", str(mat), "--params-out", str(tmp_path / "p24"))[0] == 0
    assert run_cli("verify", "gdd", str(mat), "--params-file", str(tmp_path / "p24"))[0] == 0


def test_cli_latin_verify(tmp_path: Path):
    fam = tmp_path / "fam.fam"
    run_cli("construct", "linked-mols", "--q", "4", "-o", str(fam))
    assert run_cli("verify", "latin", str(fam))[0] == 0
    square = tmp_path / "sq.lat"
    square.write_text("2\n0 1\n1 0\n")
    assert run_cli("verify", "latin", str(square))[0] == 0


def test_cli_latin_verify_skips_leading_blank_lines(tmp_path: Path):
    # the header is the first non-blank line, as the parsers read it
    fam = tmp_path / "fam.fam"
    run_cli("construct", "linked-mols", "--q", "4", "-o", str(fam))
    fam.write_text("\n  \n" + fam.read_text())
    assert run_cli("verify", "latin", str(fam)) == (0, "linked family f=3 order=4: OK\n")
    square = tmp_path / "sq.lat"
    square.write_text("\n2\n0 1\n1 0\n")
    assert run_cli("verify", "latin", str(square)) == (0, "latin square: OK\n")
    # form feeds end lines, as str.splitlines ends them
    fam.write_text("\x0c \x0c\r\n" + fam.read_text())
    assert run_cli("verify", "latin", str(fam)) == (0, "linked family f=3 order=4: OK\n")
    square.write_text("\x0c2\x0c0 1\x0c1 0\x0c")
    assert run_cli("verify", "latin", str(square)) == (0, "latin square: OK\n")


def test_pair_system_file_roundtrip(conference12):
    from sgdd.linked import pair_system

    mat, params = conference12
    pair = pair_system(mat, params)
    text = text_of(fileio.linked_system_chunks(pair))
    assert text.splitlines()[0].endswith("- - -")
    again = read_text(fileio.read_linked_system, text)
    assert again.params == pair.params
    assert text_of(fileio.linked_system_chunks(again)) == text


def test_cli_assembles_pair_file(tmp_path: Path, conference12):
    from sgdd.linked import pair_system

    mat, params = conference12
    pair = pair_system(mat, params)
    lsys = tmp_path / "pair.lsys"
    lsys.write_text(text_of(fileio.linked_system_chunks(pair)))
    assert run_cli("verify", "linked-system", str(lsys))[0] == 0
    scm = tmp_path / "pair.scm"
    assert run_cli("scheme", "assemble", "--in", str(lsys), "-o", str(scm))[0] == 0
    code, out = run_cli("scheme", "analyze", "--in", str(scm))
    assert code == 0 and "f=2" in out


def test_cli_rejects_non_transposed_pair_file(tmp_path: Path, non_transposed_pair):
    lsys = tmp_path / "pair.lsys"
    lsys.write_text(text_of(fileio.linked_system_chunks(non_transposed_pair)))
    code, out = run_cli("verify", "linked-system", str(lsys))
    assert code == 1
    assert "  note: transpose-consistent blocks: no" in out.splitlines()
    assert "  violation: block (2, 1) is the transpose of block (1, 2) at (0, 6)" in out.splitlines()
    code, out = run_cli("scheme", "assemble", "--in", str(lsys), "-o", str(tmp_path / "pair.scm"))
    assert code == 1 and not (tmp_path / "pair.scm").exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "x", "2"])
def test_cli_rejects_jobs_below_one(jobs):
    """Scans run in one serial pass: there is no --jobs flag, so any value,
    valid or not, is a usage error."""
    assert run_cli("--jobs", jobs, "scan", "table1", "--vmax", "100")[0] == 2


def test_cli_table1_witnesses(tmp_path: Path):
    out = tmp_path / "t1.txt"
    code = run_cli("scan", "table1", "--vmax", "100", "--format", "text", "--witnesses", "-o", str(out))[0]
    assert code == 0
    assert "achieved (block construction)" in out.read_text()


def test_cli_scheme_verify(tmp_path: Path, scheme48):
    scm = tmp_path / "s.scm"
    scm.write_text(text_of(fileio.scheme_chunks(scheme48.relation)))
    assert run_cli("verify", "scheme", str(scm))[0] == 0


def test_cli_negative_class_count_is_format_error(tmp_path: Path):
    scm = tmp_path / "neg.scm"
    scm.write_text("-1 4\n")
    with pytest.raises(FormatError):
        read_text(fileio.read_scheme, scm.read_bytes())
    assert run_cli("verify", "scheme", str(scm))[0] == 2
    assert run_cli("scheme", "analyze", "--in", str(scm))[0] == 2


@pytest.mark.parametrize("variant", ["swapped", "permuted"])
def test_cli_analyze_and_fusion_relabel(tmp_path: Path, scheme48, variant):
    relation = scheme48.relation
    if variant == "swapped":
        relation = np.array([0, 1, 2, 4, 3, 5], dtype=np.uint8)[relation]
    else:
        perm = np.random.default_rng(11).permutation(48)
        relation = relation[np.ix_(perm, perm)]
    scm = tmp_path / "s.scm"
    scm.write_text(text_of(fileio.scheme_chunks(relation)))
    code, out = run_cli("scheme", "analyze", "--in", str(scm))
    assert code == 0 and "k=6 m=4 n=4 f=3" in out
    assert ("classes relabeled as (0, 1, 2, 4, 3, 5)" in out) == (variant == "swapped")
    code, out = run_cli("scheme", "fusion", "--in", str(scm))
    assert code == 0
    assert "fusable: True" in out
    assert "merged eigenspaces: ((0,), (1, 2), (3, 4), (5,))" in out


def test_cli_oracle_exhaust_is_violation(tmp_path: Path):
    code, out = run_cli("oracle", "linked-mols", "--order", "2", "--f", "3")
    assert code == 1 and "exhausted" in out


def test_cli_linked_mols_odd_characteristic(tmp_path: Path):
    fam = tmp_path / "gf5.fam"
    assert run_cli("construct", "linked-mols", "--q", "5", "-o", str(fam))[0] == 0
    assert run_cli("verify", "latin", str(fam)) == (0, "linked family f=4 order=5: OK\n")
    assert run_cli("construct", "linked-mols", "--q", "3")[0] == 1


def test_cli_non_ascii_file_is_format_error(tmp_path: Path, capsys):
    scm = tmp_path / "s.scm"
    scm.write_bytes(b"0 1\n1 1\n\xc3\n")
    for argv in (["verify", "scheme", str(scm)], ["scheme", "analyze", "--in", str(scm)]):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == "error: scheme: non-ASCII byte 0xc3 on line 3\n"


def test_corruptions_read_through_the_byte_view_fail(tmp_path: Path, scheme448, sys64, corrupt_system, line_reads):
    """A pair moved from class 3 to class 4, and one flipped off-group entry
    of a linked system, still fail certification after the fast parse."""
    relation = scheme448.relation.copy()
    upper = np.argwhere(np.triu(relation == 3, 1))
    x, y = upper[np.random.default_rng(3).integers(len(upper))]
    relation[x, y] = relation[y, x] = 4
    scm = tmp_path / "bad.scm"
    scm.write_text(text_of(fileio.scheme_chunks(relation)))
    assert run_cli("verify", "scheme", str(scm))[0] == 1
    assert run_cli("scheme", "analyze", "--in", str(scm))[0] == 1
    bad, _ = corrupt_system(sys64, 5)
    lsys = tmp_path / "bad.lsys"
    lsys.write_text(text_of(fileio.linked_system_chunks(bad)))
    assert run_cli("verify", "linked-system", str(lsys))[0] == 1
    assert line_reads["next"] == 2 * (1 + 6) + 1


def test_cli_matrix_file_inputs(tmp_path: Path):
    from sgdd.classical import hadamard_matrix, paley_conference_matrix

    hmat = tmp_path / "h4.mat"
    hmat.write_text(text_of(fileio.matrix_chunks(hadamard_matrix(4).a)))
    aux = tmp_path / "h4.aux"
    assert run_cli("construct", "hadamard-aux", "--in", str(hmat), "-o", str(aux))[0] == 0
    cmat = tmp_path / "c6.mat"
    cmat.write_text(text_of(fileio.matrix_chunks(paley_conference_matrix(6).a)))
    out = tmp_path / "g.mat"
    assert run_cli(
        "construct", "conference-gdd", "--in", str(cmat), "-o", str(out), "--params-out", str(tmp_path / "p")
    )[0] == 0


def test_malformed_files_rejected(tmp_path: Path):
    with pytest.raises(FormatError):
        read_text(fileio.read_matrix, b"0 2\n")
    with pytest.raises(FormatError):
        read_text(fileio.read_auxiliary_set, b"4 2\n2 2\n1 1\n1 1\n2 2\n1 1\n1 1\n")
    bad = tmp_path / "bad.mat"
    bad.write_text("not a matrix\n")
    assert run_cli("verify", "gdd", str(bad), "--params", "4 3 2 2 2 2")[0] == 2


@pytest.mark.parametrize(
    "text, error",
    [
        ("0 3\n", "matrix order must be at least 2"),
        ("-5 3\n", "matrix order must be at least 2"),
        ("2 1\n-1 0\n0 -1\n", "group order g must be at least 2"),
    ],
    ids=["order-0", "order-minus-5", "g-1"],
)
def test_cli_refuses_a_malformed_gcm_header(text, error, tmp_path: Path, capsys):
    """A group-entry matrix header no writer writes is a format error."""
    gcm = tmp_path / "bad.gcm"
    gcm.write_text(text)
    assert main(["construct", "gcm-gdd", "--in", str(gcm)]) == 2
    assert capsys.readouterr() == ("", f"error: group-entry matrix: {error}\n")


def test_cli_twin_with_imported_weighing_file(tmp_path: Path):
    from sgdd.classical import signed_permutation_weighing_set

    wfile = tmp_path / "w.wset"
    wfile.write_text(text_of(fileio.matrix_set_chunks(signed_permutation_weighing_set(4))))
    code = run_cli(
        "construct", "twin", "--order", "4", "--weighing", str(wfile),
        "-o", str(tmp_path / "tw"), "--params-out", str(tmp_path / "tp"),
    )[0]
    assert code == 0
    assert (tmp_path / "tw.plus.mat").exists()


def test_cli_pipeline_45(tmp_path: Path):
    fam = tmp_path / "order5.fam"
    aux = tmp_path / "ag23.aux"
    lsys = tmp_path / "sys45.lsys"
    scm = tmp_path / "s135.scm"
    assert run_cli("oracle", "linked-mols", "--order", "5", "--f", "3", "-o", str(fam))[0] == 0
    assert run_cli("construct", "ag-aux", "--q", "3", "--d", "1", "-o", str(aux))[0] == 0
    assert run_cli("construct", "tilde-l", "--aux", str(aux), "--mols", str(fam), "-o", str(lsys))[0] == 0
    assert lsys.read_text().startswith("3 45 5 9 12 3 3 5 2 4")
    assert run_cli("scheme", "assemble", "--in", str(lsys), "-o", str(scm))[0] == 0
    back = tmp_path / "back.lsys"
    assert run_cli("scheme", "extract", "--in", str(scm), "-o", str(back))[0] == 0
    assert back.read_text() == lsys.read_text()


# -- the sqrt(5) pair schemes at the CLI ---------------------------------------------

_PAIR_ANALYZE = """\
parameters: k=5 m=6 n={n} f=2 |X|={size}
certificate: association scheme axioms: OK
  ok: A_0 = I
  ok: sum A_i = J
  ok: all products A_i A_j decompose with constant class coefficients
  ok: intersection numbers are symmetric in the lower indices
  ok: multiplicities sum to |X|
  ok: P Q = |X| I
  ok: sum E_j = I
  ok: E_j are pairwise orthogonal idempotents
  ok: A_i E_j = P_{{j,i}} E_j for all i, j
  ok: multiplicities match Q row 0 and the idempotent traces
  ok: P row 0 equals the valencies
  ok: all Krein parameters are non-negative
  ok: entrywise-product structure constants of E_2 match their closed form
  ok: q_21^1 = m/f - 1 = 2
"""

# (fixture, n, |X|, sha256 of the assembled scheme file, alternate reading)
_PAIR_SCHEMES = [
    ("conference12", 2, 24, "3313ba402b8d025ca802d5c8c295fd6776bc04d6d1337597996ae29519b1ff16", 5),
    ("gcm24", 4, 48, "728d91498b55f534238dd188523b551c59511b847fc45084021d5bbdb7de0702", 15),
]


@pytest.mark.parametrize("source, n, size, digest, alt_k", _PAIR_SCHEMES, ids=["conference24", "gcm48"])
def test_cli_pair_schemes_over_sqrt5(source, n, size, digest, alt_k, tmp_path: Path, request):
    # D = 5: the only CLI inputs whose P and Q carry a sqrt(D) part
    from sgdd.linked import pair_system

    lsys, scm, back, fused = (tmp_path / name for name in ("pair.lsys", "pair.scm", "back.lsys", "fused.scm"))
    lsys.write_text(text_of(fileio.linked_system_chunks(pair_system(*request.getfixturevalue(source)))))
    assert run_cli("scheme", "assemble", "--in", str(lsys), "-o", str(scm)) == (0, "")
    assert hashlib.sha256(scm.read_bytes()).hexdigest() == digest
    assert run_cli("scheme", "analyze", "--in", str(scm)) == (0, _PAIR_ANALYZE.format(n=n, size=size))
    assert run_cli("scheme", "extract", "--in", str(scm), "-o", str(back)) == (
        0,
        f"primary: labels=(0, 1, 2, 3, 4, 5) (k,m,n,f)=(5,6,{n},2) triple=None spectra_match=True certified=True\n"
        f"alternate: labels=(0, 1, 2, 4, 3, 5) (k,m,n,f)=({alt_k},6,{n},2) triple=None spectra_match=True certified=True\n",
    )
    assert back.read_bytes() == lsys.read_bytes()
    assert run_cli("scheme", "fusion", "--in", str(scm), "-o", str(fused)) == (
        0,
        "fusable: False; degree condition met: False\n",
    )
    assert not fused.exists()


# -- fail-closed reports ------------------------------------------------------------------

_COMPANION_FLIP = """\
certificate: linked system f=2 on GddParams(v=12, k=5, m=6, n=2, lambda1=0, lambda2=2): VIOLATED
  ok: block (2, 1) is a symmetric GDD
  ok: block (2, 1): A + K is a 0/1 matrix
  ok: block (2, 1): A K = K A = 1 (J - K)
  note: transpose-consistent blocks: no
  violation: block (1, 2): A A^T equals k I + l1 (K - I) + l2 (J - K) at (0, 0) (expected 5, got 6)
  violation: block (1, 2): A^T A equals k I + l1 (K - I) + l2 (J - K) at (1, 1) (expected 5, got 6)
  violation: block (1, 2): A + K is a 0/1 matrix
  violation: block (1, 2): A K = K A = k/(m-1) (J - K)
  violation: block (2, 1) is the transpose of block (1, 2) at (1, 0)
  violation: pair companion: A A^T equals k I + l1 (K - I) + l2 (J - K) at (0, 0) (expected 7, got 10)
  violation: pair companion: A^T A equals k I + l1 (K - I) + l2 (J - K) at (0, 1) (expected 2, got 3)
"""


def test_cli_pair_with_a_one_inside_a_group_reports_violations(tmp_path: Path, conference12, capsys):
    # A + K then holds a 2, so the companion's Gram identities are checked on
    # an integer matrix that is not an incidence matrix
    from sgdd.linked import LinkedSystemII, pair_system

    pair = pair_system(*conference12)
    stack = pair.stack.copy()
    assert stack[0, 0, 1] == 0  # points 0 and 1 form a group
    stack[0, 0, 1] = 1
    lsys, scm = tmp_path / "flip.lsys", tmp_path / "flip.scm"
    lsys.write_text(text_of(fileio.linked_system_chunks(LinkedSystemII(pair.params, stack))))
    assert main(["verify", "linked-system", str(lsys)]) == 1
    assert capsys.readouterr() == (_COMPANION_FLIP, "")
    assert main(["scheme", "assemble", "--in", str(lsys), "-o", str(scm)]) == 1
    assert capsys.readouterr() == (_COMPANION_FLIP, "error: input system fails certification\n")
    assert not scm.exists()


def _corrupt_aux_file(path: Path):
    """The order-8 Hadamard auxiliary set with the first entry of C_1 set to
    0: it parses and derives parameters, and fails the axioms."""
    from sgdd.classical import hadamard_matrix
    from sgdd.resolvable import aux_from_hadamard

    lines = text_of(fileio.auxiliary_set_chunks(aux_from_hadamard(hadamard_matrix(8)))).splitlines()
    assert lines[2].startswith("1 ")
    lines[2] = "0" + lines[2][1:]
    path.write_text("\n".join(lines) + "\n")


def test_cli_verify_aux_reports_a_corrupt_file(tmp_path: Path, capsys):
    aux = tmp_path / "bad.aux"
    _corrupt_aux_file(aux)
    assert main(["verify", "aux", str(aux)]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "certificate: auxiliary matrices AuxParams(v=8, k=3, r=7, lam=1, mu=1, n=3): VIOLATED"
    assert lines[1] == "  violation: sum C_i equals (r - lambda) I + lambda J at (0, 0) (expected 7, got 6)"
    assert out.count("certificate:") == 1 and err == ""


def test_cli_verify_aux_reports_an_underivable_set(tmp_path: Path, capsys):
    # the order-4 Hadamard set with the first entry of C_1 set to 0: k = 1
    # and mu = 0 read off C_1, C_2, so n = k/mu cannot be derived
    from sgdd.classical import hadamard_matrix
    from sgdd.resolvable import aux_from_hadamard

    lines = text_of(fileio.auxiliary_set_chunks(aux_from_hadamard(hadamard_matrix(4)))).splitlines()
    lines[2] = "0" + lines[2][1:]
    aux = tmp_path / "bad.aux"
    aux.write_text("\n".join(lines) + "\n")
    assert main(["verify", "aux", str(aux)]) == 1
    out, err = capsys.readouterr()
    assert out == (
        "certificate: auxiliary matrices of order 4: VIOLATED\n"
        "  violation: cannot derive integral n = k/mu from the matrices\n"
    )
    assert err == "error: cannot derive integral n = k/mu from the matrices\n"


_NOT_01 = "auxiliary matrix entries must be 0 or 1"


@pytest.mark.parametrize(
    "edit, code, error",
    [
        (lambda ls: [*ls[:2], "2" + ls[2][1:], *ls[3:]], 1, _NOT_01),
        (lambda ls: [*ls[:2], "256" + ls[2][1:], *ls[3:]], 1, _NOT_01),  # not wrapped to 0
        (lambda ls: [*ls[:3], "-1" + ls[3][1:], *ls[4:]], 1, _NOT_01),
        (lambda ls: ["5 3", *ls[1:]], 2, "auxiliary set: matrix order disagrees with header"),
        (lambda ls: ["1000000000000 3", *ls[1:]], 2, "auxiliary set: matrix order disagrees with header"),
        (lambda ls: ["4 1", *ls[1:6]], 2, "auxiliary set: matrix count r must be at least 2"),
        (lambda ls: ["4 0"], 2, "auxiliary set: matrix count r must be at least 2"),
    ],
    ids=["entry-2", "entry-256", "entry-minus-1", "wrong-order", "huge-order", "r-1", "r-0"],
)
def test_cli_verify_aux_refuses_a_malformed_set(tmp_path: Path, capsys, edit, code, error):
    from sgdd.classical import hadamard_matrix
    from sgdd.resolvable import aux_from_hadamard

    lines = text_of(fileio.auxiliary_set_chunks(aux_from_hadamard(hadamard_matrix(4)))).splitlines()
    aux = tmp_path / "bad.aux"
    aux.write_text("\n".join(edit(lines)) + "\n")
    assert main(["verify", "aux", str(aux)]) == code
    assert capsys.readouterr() == ("", f"error: {error}\n")


def _with_first_entry(text: str, entry: str, line: int = 1) -> str:
    """A matrix file ``text`` with the first entry of line ``line`` replaced."""
    lines = text.split("\n")
    lines[line] = entry + lines[line][lines[line].index(" "):]
    return "\n".join(lines)


@pytest.mark.parametrize("entry", ["2", "256", "-1"])
def test_cli_refuses_an_entry_not_zero_or_one(entry, conference12, sys16, tmp_path: Path, capsys):
    """A design, a system block and a conference matrix with one entry 2,
    256 (not wrapped to 0) or -1, each refused with one error line."""
    from sgdd.classical import paley_conference_matrix

    mat, lsys, conf = tmp_path / "bad.mat", tmp_path / "bad.lsys", tmp_path / "conf.mat"
    mat.write_text(_with_first_entry(text_of(fileio.matrix_chunks(conference12[0])), entry))
    lsys.write_text(_with_first_entry(text_of(fileio.linked_system_chunks(sys16)), entry, line=2))
    conf.write_text(_with_first_entry(text_of(fileio.matrix_chunks(paley_conference_matrix(6).a)), entry))
    for argv, error in (
        (["verify", "gdd", str(mat), "--params", "12 5 6 2 0 2"], "incidence matrix entries must be 0 or 1"),
        (["verify", "linked-system", str(lsys)], "incidence matrix entries must be 0 or 1"),
        (["construct", "conference-gdd", "--in", str(conf)], "input is not a conference matrix"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_tilde_l_certifies_the_auxiliary_set_once(tmp_path: Path, aux_certifications):
    calls = aux_certifications
    aux, fam, lsys = tmp_path / "had4.aux", tmp_path / "gf4.fam", tmp_path / "sys16.lsys"
    assert run_cli("construct", "hadamard-aux", "--order", "4", "-o", str(aux))[0] == 0
    assert run_cli("construct", "linked-mols", "--q", "4", "-o", str(fam))[0] == 0
    calls.clear()
    assert run_cli("construct", "tilde-l", "--aux", str(aux), "--mols", str(fam), "-o", str(lsys))[0] == 0
    assert calls == [4]
    # a corrupt set is refused by that one certification, and nothing is written
    bad, fam8, out = tmp_path / "bad.aux", tmp_path / "gf8.fam", tmp_path / "bad.lsys"
    _corrupt_aux_file(bad)
    assert run_cli("construct", "linked-mols", "--q", "8", "-o", str(fam8))[0] == 0
    calls.clear()
    code, printed = run_cli("construct", "tilde-l", "--aux", str(bad), "--mols", str(fam8), "-o", str(out))
    assert code == 1 and calls == [8] and not out.exists()
    assert printed.startswith("certificate: auxiliary matrices AuxParams(v=8, k=3, r=7, lam=1, mu=1, n=3): VIOLATED\n")


def _malformed_systems(text: str) -> dict[str, tuple[str, int, str]]:
    """The system file ``text`` with one defect each, and the exit status
    and error line the CLI gives for it."""
    lines = text.split("\n")
    size = int(lines[1].split()[0])
    # block b's header is line 1 + b (size + 1); late is the 31st block, or the last
    last = (len(lines) - 2) // (size + 1) - 1
    late = min(30, last)
    two, square, last_two, late_square, crlf, token = (list(lines) for _ in range(6))
    two[2] = "2" + two[2][1:]
    square[size + 2] = f"{size - 1} {size}"  # the second block's header
    last_two[last * (size + 1) + 2] = "2" + last_two[last * (size + 1) + 2][1:]
    late_square[late * (size + 1) + 1] = f"{size - 1} {size}"
    crlf[late * (size + 1) + 5] += "\r"  # read token by token, as are the blocks after it
    row = late * (size + 1) + 3
    token[row] = token[row][0] + "x" + token[row][2:]
    return {
        "two": ("\n".join(two), 1, "incidence matrix entries must be 0 or 1"),
        "not square": ("\n".join(square), 1, "incidence matrix must be square"),
        "two in the last block": ("\n".join(last_two), 1, "incidence matrix entries must be 0 or 1"),
        "late block not square": ("\n".join(late_square), 1, "incidence matrix must be square"),
        "late CR LF row": ("\n".join(crlf), 0, None),
        "late token": ("\n".join(token), 2, f"linked system: non-integer token on line {row + 1}"),
        "truncated": ("\n".join(lines[:-8]) + "\n", 2, "linked system: unexpected end of file"),
        # v*v past any array size: the stack is sized by what the file holds
        "huge order": ("\n".join(["2 4000000000000 2000000000000 2 1 0 0 - - -", *lines[1:]]), 1, f"order {size} != m*n = 4000000000000"),
        "one index": ("1 4 2 2 1 0 0 - - -\n", 2, "linked system: index count f must be at least 2"),
    }


@pytest.mark.parametrize("defect", ["two in the last block", "late block not square", "late CR LF row", "late token"])
def test_defects_in_the_last_band_read_block_by_block(defect, sys64, tmp_path: Path, capsys):
    """An entry 2 in the last block, a header of 63 x 64 on block 30, one
    CR LF row or two digits joined by "x" in block 30 of sys64, each
    refused by a band: the blocks from there are read one by one, so both verbs give the
    exit status and error line they give when every block is, and a file
    whose blocks all read gives the clean file's report and scheme."""
    clean = text_of(fileio.linked_system_chunks(sys64))
    text, status, error = _malformed_systems(clean)[defect]
    lsys, scm = tmp_path / "bad.lsys", tmp_path / "bad.scm"
    lsys.write_text(text)
    want = ("", f"error: {error}\n")
    if error is None:
        good, good_scm = tmp_path / "good.lsys", tmp_path / "good.scm"
        good.write_text(clean)
        assert main(["verify", "linked-system", str(good)]) == 0
        assert main(["scheme", "assemble", "--in", str(good), "-o", str(good_scm)]) == 0
        want = capsys.readouterr()
    assert main(["verify", "linked-system", str(lsys)]) == status
    assert main(["scheme", "assemble", "--in", str(lsys), "-o", str(scm)]) == status
    assert capsys.readouterr() == (want if error is None else ("", 2 * want[1]))
    assert scm.read_bytes() == good_scm.read_bytes() if error is None else not scm.exists()


@pytest.mark.parametrize("defect", ["two", "not square", "truncated", "huge order", "one index"])
def test_cli_refuses_malformed_system_files(defect, sys16, tmp_path: Path, capsys):
    """A block entry 2, a block header of 15 x 16, a file cut short, a
    header order of 4 * 10^12 and a header of one index, which no writer
    writes, are refused while the file is parsed, by both verbs that read a
    system."""
    text, status, error = _malformed_systems(text_of(fileio.linked_system_chunks(sys16)))[defect]
    lsys, scm = tmp_path / "bad.lsys", tmp_path / "bad.scm"
    lsys.write_text(text)
    assert main(["verify", "linked-system", str(lsys)]) == status
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert main(["scheme", "assemble", "--in", str(lsys), "-o", str(scm)]) == status
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not scm.exists()
