"""Plain-text file formats.

Everything is line-oriented ASCII so artifacts diff cleanly:

* matrix v1 ............ ``rows cols`` then one line per row of integers
* GDD parameters ....... six ``key=value`` lines (v, k, m, n, l1, l2)
* auxiliary set ........ ``v r`` then r matrices in matrix v1
* Latin square ......... ``n`` then n rows of symbols
* linked MOLS family ... ``f n`` then f(f-1) squares, pairs (i<j) in
                         lexicographic order followed by pairs (i>j): the
                         only place that order is known, as a family is
                         held in the order of ``latin.ordered_pairs``
* MOLS list ............ ``count n`` then the squares, written only
* linked system ........ ``f v m n k l1 l2 sigma tau rho`` (``-`` for an
                         absent triple) then blocks for all ordered pairs in
                         lexicographic order, each in matrix v1
* scheme ............... ``d |X|`` then the d+1 adjacency matrices
* group-entry matrix ... ``order g`` then rows with -1 marking zero entries
* matrix set ........... ``order count`` then the matrices (Hadamard or
                         weighing collections)

Each format but the MOLS list has one reader, ``read_*``, which takes a
binary stream, and each has one writer, ``*_chunks``, which yields the file
as byte chunks.  The MOLS list has no reader: ``read_latin`` reads one
square or one linked family, and takes a list's ``count n`` header for a
family's ``f n``.  Writers end files with a newline; readers reject
trailing junk, so a write/read/write round trip is byte-identical.

A reader goes through ``Lines``, a byte window over the stream refilled by
fixed-size reads, whose lines end where ``str.splitlines`` would end them.
A block of single-digit rows joined by single spaces, all ending in a line
feed or all in CR LF, is read into the window and its digits taken in
place (CR LF rows from a copy without their line feeds); any other block
is read token by token from the same rows, so every error names the same
line either way.  A header never sizes an array the rest of the stream is
too short to fill (``_fits``).  A scheme class that is a 0/1 block
claiming no pair twice goes into one label array R as its label, any
other beside R (``schemes.ClassLabels.claim``).  The blocks of a linked
system, an auxiliary set or a linked family go into a stack a band of
blocks at a time (``_read_bands``); the block-by-block route runs only
from the first block a band refuses, to the end.  A family's squares are
read in the file's order, each checked Latin before the next is read and
before it is narrowed into the stack, then put in pair order at once
(``_family_file_order``); a square no band takes, such as one with symbols
past 9, is read in one pass up to its first irregular line
(``_regular_rows``), and line by line from there.  A block of digits
is written from one byte buffer, a stack's blocks one buffer per band of
blocks (``_stack_chunks``), a scheme from its class-label array R, class
i as R == i compared straight into one buffer per band of rows; each band
is within ``SCHEME_BAND`` bytes of text.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .algebra import IntMatrix
from .designs import GddParams, incidence, zero_one
from .errors import FormatError, ParameterError
from .latin import LinkedMolsFamily, ordered_pairs, require_latin
from .linked import GcmMatrix, LinkedParams, LinkedSystemII
from .resolvable import AuxiliarySet, auxiliary_set
from .schemes import ClassLabels


# the ASCII line boundaries of str.splitlines
_LINE_END = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")

# the bytes a refill of the window reads at least
CHUNK = 1 << 16

# the bytes of text a scheme writer forms at a time: one band of rows of a
# class, at least one row
SCHEME_BAND = 4 * CHUNK


class Lines:
    """The lines of a buffered binary stream, ``pos`` of them read so far,
    through a window ``buf[at:end]`` of bytes read and not yet taken, with
    ``left`` bytes still in the stream; one that cannot seek (a pipe) is
    read into memory first, so that ``left`` is known.  A line is decoded
    when read, so strip, split and int() keep their meaning, and a byte
    past 0x7F is refused then, as int() would read other scripts' digits.
    ``spare`` is the buffer a block of CR LF rows is copied into
    (``_digit_block``), kept for the next one."""

    def __init__(self, stream, what: str):
        if not stream.seekable():
            stream = io.BytesIO(stream.read())
        here = stream.tell()
        self.left = stream.seek(0, io.SEEK_END) - here
        stream.seek(here)
        self.stream, self.what = stream, what
        self.buf = np.empty(2 * CHUNK, dtype=np.uint8)
        self.at = self.end = self.pos = 0
        self.spare = np.empty(0, dtype="<u2")

    def room(self) -> int:
        """The bytes not yet taken: in the window and in the stream."""
        return self.end - self.at + self.left

    def fill(self, n: int) -> bool:
        """Whether the window holds the next ``n`` bytes, reading on until it
        does when the stream holds them: at least ``CHUNK`` bytes a read, into
        a window that grows only to hold ``n``."""
        kept = self.end - self.at
        if kept >= n or n > self.room():
            return kept >= n
        want = min(max(n, kept + CHUNK), kept + self.left)
        buf = self.buf if len(self.buf) >= want else np.empty(want, dtype=np.uint8)
        buf[:kept] = self.buf[self.at : self.end]
        got = self.stream.readinto(memoryview(buf)[kept:want])  # short only where the stream ends early
        self.buf, self.at, self.end = buf, 0, kept + got
        self.left = self.left - got if self.end == want else 0
        return self.end >= n

    def _line(self) -> str | None:
        """The next line, stripped, or None at the end of the stream."""
        while True:
            end = _LINE_END.search(self.buf, self.at, self.end)
            # a line end at the window's last byte may be the CR of a CR LF
            if (end and end.end() < self.end) or not self.left:
                break
            self.fill(self.end - self.at + 1)
        if self.at == self.end:
            return None
        start = self.at
        stop, self.at = end.span() if end else (self.end,) * 2
        self.pos += 1
        raw = self.buf[start:stop].tobytes()
        if not raw.isascii():
            byte = next(b for b in raw if b > 0x7F)
            raise FormatError(f"{self.what}: non-ASCII byte 0x{byte:02x} on line {self.pos}")
        return raw.decode("ascii").strip()

    def __iter__(self) -> Iterator[str]:
        """The remaining non-blank lines, stripped."""
        while (line := self._line()) is not None:
            if line:
                yield line

    def next(self) -> str:
        for line in self:
            return line
        raise FormatError(f"{self.what}: unexpected end of file")

    def ints(self, expect: int | None = None) -> list[int]:
        return self.ints_of(self.next().split(), expect)

    def ints_of(self, parts: list[str], expect: int | None = None) -> list[int]:
        """The integers of ``parts``, the fields of the line read last."""
        try:
            vals = [int(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{self.what}: non-integer token on line {self.pos}") from exc
        if expect is not None and len(vals) != expect:
            raise FormatError(f"{self.what}: expected {expect} integers on line {self.pos}")
        return vals

    def done(self):
        for _ in self:
            raise FormatError(f"{self.what}: trailing content at line {self.pos}")


def _fits(lines: Lines, count: int, v: int) -> int:
    """How many of the ``count`` blocks of order v that a header names the
    rest of ``lines`` can hold, none when v < 1: a block of order v takes at
    least v*v bytes.  No array is sized by a header past this, so a header's
    v*v never reaches an allocation the stream could not fill."""
    return min(count, lines.room() // (v * v)) if v > 0 else 0


def _stack(lines: Lines, count: int, v: int, dtype=np.uint8) -> np.ndarray:
    """An empty stack for the blocks of order v that ``lines`` can hold of
    ``count``; with none, it takes no shape from v."""
    fits = _fits(lines, count, v)
    return np.empty((fits, v, v) if fits > 0 else (0, 0, 0), dtype=dtype)


def _read_bands(lines: Lines, stack: np.ndarray, head: str, top: int) -> int:
    """How many blocks of ``stack`` were read into it from ``lines``, a band
    of blocks within ``CHUNK`` bytes of text at a time, so that the window
    never grows for a band, up to the first block a band refuses, with
    ``lines`` moved past them.  A band takes a block that is ``head`` and
    then v rows of single digits 0..top (top at most 9) joined by single
    spaces, each ending in a line feed, as the writers write it: every
    header of the band in one comparison, and every byte after a digit,
    then every digit, in one subtraction into the stack, which wraps any
    other byte past 9.  The first block refused, and every block after it,
    is left to the caller's block-by-block route: another header, a digit
    past top, a token, CR LF rows or a file that ends short."""
    (count, v), taken = stack.shape[:2], 0
    size, head = len(head) + 2 * v * v, np.frombuffer(head.encode(), dtype=np.uint8)
    ends = np.frombuffer(b" " * (v - 1) + b"\n", dtype=np.uint8)
    while taken < count and lines.fill(size * (blocks := min(max(1, CHUNK // size), count - taken))):
        text = lines.buf[lines.at : lines.at + blocks * size].reshape(blocks, size)
        rows, out = text[:, len(head) :].reshape(blocks, v, 2 * v), stack[taken : taken + blocks]
        # the stack holds the bytes after the digits less what they should be, then the digits
        bad = (text[:, : len(head)] != head).any(axis=1) | np.subtract(rows[..., 1::2], ends, out=out).any(axis=(1, 2))
        bad |= np.subtract(rows[..., ::2], np.uint8(ord("0")), out=out).max(axis=(1, 2)) > top
        good = int(bad.argmax()) if bad.any() else blocks
        lines.at += good * size
        lines.pos += good * (v + (len(head) > 0))
        taken += good
        if good < blocks:
            break
    return taken


def _stack_chunks(stack: np.ndarray) -> Iterator:
    """The blocks of a uint8 stack of square 0/1 matrices in matrix v1, one
    buffer per band of blocks within ``SCHEME_BAND`` bytes of text: each
    block's header, then its digit rows (``_digit_rows``)."""
    v = stack.shape[-1]
    head = np.frombuffer(f"{v} {v}\n".encode(), dtype=np.uint8)
    band = max(1, SCHEME_BAND // (len(head) + 2 * v * v))
    for start in range(0, len(stack), band):
        blocks = stack[start : start + band]
        yield np.hstack([np.broadcast_to(head, (len(blocks), len(head))), _digit_rows(blocks).reshape(len(blocks), -1)])


# -- matrix v1 ---------------------------------------------------------------

# a digit and the space after it, or the line feed that ends its row, read
# as one little-endian 16-bit pair: its value less the pair of digit 0
_SPACE_PAIR, _LF_PAIR, _CR_PAIR = 0x2030, 0x0A30, 0x0D30


def _text_rows(pairs: np.ndarray) -> np.ndarray:
    """The rows of a little-endian 16-bit matrix, or stack of matrices, of
    digits 0..9, made in place the uint8 text buffer of its rows, each digit
    and the byte after it one 16-bit pair."""
    pairs += np.uint16(_SPACE_PAIR)
    pairs[..., -1] -= np.uint16(_SPACE_PAIR - _LF_PAIR)
    return pairs.view(np.uint8)


def _digit_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a matrix of digits 0..9 or booleans as one uint8 text buffer."""
    return _text_rows(a.astype("<u2", order="C"))


def _token_rows(rows: list[list[int]]) -> bytes:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


def matrix_chunks(a: np.ndarray) -> Iterator:
    """Matrix v1 of the array ``a`` as byte chunks: a matrix of digits as
    one digit buffer."""
    yield f"{a.shape[0]} {a.shape[1]}\n".encode()
    if a.dtype.kind in "biu" and a.size and a.min() >= 0 and a.max() <= 9:
        yield _digit_rows(a)
    else:
        yield _token_rows(a.tolist())


def _digit_block(lines: Lines) -> tuple[int, int, np.ndarray | None]:
    """The next block's rows and columns, and its digits, when each row is
    single digits joined by single spaces and every one ends in a line
    feed, or every one in CR LF (as the first does), with ``lines`` moved
    past them; otherwise None, with ``lines`` and its window as they were.
    Rows ending in a line feed are read as a (rows, cols) 16-bit view
    written over them in the window, which lasts until ``lines`` reads on:
    a digit and the byte after it are one little-endian 16-bit pair, and
    less the pair of "0 " ("0\\n" at a row's end) it is the digit exactly
    when at most 9, as every other byte wraps past 9.  CR LF rows are
    copied, less their line feeds, and read the same way ("0\\r" at a
    row's end)."""
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    text = 2 * cols - 1
    crlf = lines.fill(text + 2) and lines.buf[lines.at + text : lines.at + text + 2].tobytes() == b"\r\n"
    width = 2 * cols + crlf
    if not lines.fill(rows * width):
        return rows, cols, None
    buf, at = lines.buf, lines.at
    if crlf:
        # a CR LF row is 2 cols + 1 bytes, a stride at which a 16-bit view
        # is misaligned: the rows are copied without their line feeds
        if lines.spare.size < rows * cols:
            lines.spare = np.empty(rows * cols, dtype="<u2")
        digits = lines.spare[: rows * cols].reshape(rows, cols)
        digits.view(np.uint8)[:] = np.ndarray((rows, 2 * cols), dtype=np.uint8, buffer=buf, offset=at, strides=(width, 1))
    else:
        digits = np.ndarray((rows, cols), dtype="<u2", buffer=buf, offset=at, strides=(width, 2))
    row_end = np.uint16(_CR_PAIR if crlf else _LF_PAIR)
    digits[:, :-1] -= np.uint16(_SPACE_PAIR)
    digits[:, -1] -= row_end
    if digits.max() > 9 or crlf and not (buf[at + 2 * cols : at + rows * width : width] == ord("\n")).all():
        if not crlf:
            digits[:, :-1] += np.uint16(_SPACE_PAIR)
            digits[:, -1] += row_end
        return rows, cols, None
    lines.at += rows * width
    lines.pos += rows
    return rows, cols, digits


def _read_block(lines: Lines, rows: int, cols: int, digits: np.ndarray | None) -> np.ndarray:
    """A block of ``rows`` x ``cols`` as written: uint8 for its ``digits``
    read in place, else read token by token from the same rows, which names
    the first bad line and keeps entries past int64 as Python integers."""
    if digits is not None:
        return digits.astype(np.uint8)
    return IntMatrix([lines.ints(cols) for _ in range(rows)]).a


def _read_matrix(lines: Lines) -> np.ndarray:
    """The next block as written: uint8 for single digits, else int64 or Python integers."""
    return _read_block(lines, *_digit_block(lines))


def read_matrix(stream) -> IntMatrix:
    """The matrix as ``_read_matrix`` holds it, with no copy: a block of
    single digits stays uint8."""
    lines = Lines(stream, "matrix")
    m = IntMatrix.view(_read_matrix(lines))
    lines.done()
    return m


# -- GDD parameters -----------------------------------------------------------

_PARAM_KEYS = ("v", "k", "m", "n", "l1", "l2")


def gdd_params_chunks(p: GddParams) -> Iterator:
    vals = (p.v, p.k, p.m, p.n, p.lambda1, p.lambda2)
    yield "".join(f"{key}={val}\n" for key, val in zip(_PARAM_KEYS, vals)).encode()


def read_gdd_params(stream) -> GddParams:
    got = {}
    for line in Lines(stream, "parameters"):
        if "=" not in line:
            raise FormatError(f"parameters: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise FormatError(f"parameters: unknown key {key!r}")
        if key in got:
            raise FormatError(f"parameters: repeated key {key!r}")
        try:
            got[key] = int(val.strip())
        except ValueError as exc:
            raise FormatError(f"parameters: non-integer value for {key}") from exc
    missing = [k for k in _PARAM_KEYS if k not in got]
    if missing:
        raise FormatError(f"parameters: missing keys {missing}")
    return GddParams(got["v"], got["k"], got["m"], got["n"], got["l1"], got["l2"])


def parse_inline_gdd_params(text: str) -> GddParams:
    """Six whitespace-separated integers: v k m n l1 l2, from argv."""
    lines = Lines(io.BytesIO(text.encode("utf-8", "surrogateescape")), "parameters")
    parts = [part for line in lines for part in line.split()]
    if len(parts) != 6:
        raise FormatError("expected six integers: v k m n l1 l2")
    try:
        v, k, m, n, l1, l2 = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError("parameters must be integers") from exc
    return GddParams(v, k, m, n, l1, l2)


# -- auxiliary sets ------------------------------------------------------------

def auxiliary_set_chunks(aux: AuxiliarySet) -> Iterator:
    yield f"{aux.order} {aux.r}\n".encode()
    yield from _stack_chunks(aux.stack)


def read_auxiliary_set(stream) -> AuxiliarySet:
    """The set as written, uncertified: ``verify_auxiliary`` certifies it."""
    lines = Lines(stream, "auxiliary set")
    v, r = lines.ints(2)
    if r < 2:
        raise FormatError("auxiliary set: matrix count r must be at least 2")
    stack = _stack(lines, r, v)
    for c in range(_read_bands(lines, stack, f"{v} {v}\n", 1), r):
        block = _read_matrix(lines)
        if block.shape != (v, v):
            raise FormatError("auxiliary set: matrix order disagrees with header")
        # checked as a block before it is narrowed into the stack
        stack[c] = zero_one(block, "auxiliary matrix")
    lines.done()
    return auxiliary_set(stack)


# -- Latin squares and families -------------------------------------------------

def _regular_rows(lines: Lines, n: int) -> np.ndarray:
    """Up to n of the next lines, as an int64 array of rows, with ``lines``
    moved past them: each n tokens of ASCII digits, no more digits than
    n - 1 has, joined by single spaces and ending in a line feed, as the
    writers write a Latin square's rows.  One regular-expression match over
    the window finds them and one parse reads them all, so they take no
    line-by-line reads and no ``int()`` per entry.  The first line that is
    not such a line, and every line after it, is left to the caller's
    line-by-line route, which reads such a line to the same integers."""
    digits = len(str(n - 1))
    row = rb"[0-9]{1,%d}(?: [0-9]{1,%d}){%d}\n" % (digits, digits, n - 1)
    lines.fill(min(n * n * (digits + 1), lines.room()))
    end = re.compile(rb"(?:%s){0,%d}" % (row, n)).match(lines.buf, lines.at, lines.end).end()
    text = lines.buf[lines.at : end].tobytes()
    taken = text.count(b"\n")
    lines.at, lines.pos = end, lines.pos + taken
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(taken, n) if taken else np.empty((0, n), dtype=np.int64)


def _latin_rows(lines: Lines, n: int) -> np.ndarray:
    """The next n rows of n integers, refused by ``require_latin`` unless a
    Latin square, as read, then narrowed to ``np.min_scalar_type(n - 1)``:
    an entry is checked before it is narrowed.  The rows are read in one
    pass up to the first irregular line (``_regular_rows``), the rest line
    by line, so every error names the line it named before."""
    rows = _regular_rows(lines, n)
    if len(rows) < n:
        rows = np.array(rows.tolist() + [lines.ints(n) for _ in range(len(rows), n)])
    require_latin(rows[None])
    return rows.astype(np.min_scalar_type(n - 1))


def _family_file_order(f: int) -> np.ndarray:
    """The positions in ``ordered_pairs(f)`` of the squares of a family
    file, which holds the pairs i < j, then the pairs i > j, each in
    lexicographic order."""
    i, j = np.array(ordered_pairs(f)).T
    return np.concatenate([np.flatnonzero(i < j), np.flatnonzero(i > j)])


def linked_family_chunks(fam: LinkedMolsFamily) -> Iterator:
    yield f"{fam.f} {fam.order}\n".encode()
    yield _token_rows(fam.stack[_family_file_order(fam.f)].reshape(-1, fam.order).tolist())


def _read_family(lines: Lines, head: list[str]) -> LinkedMolsFamily:
    """The linked family whose header fields ``head`` were read last.  Its
    squares are read in the file's order, the bands first, then square by
    square, each Latin before the next is read (the one Latin check on
    this path, which fixes the order of its errors), and put in the order
    of ``ordered_pairs`` at the end."""
    lines.what = "linked family"
    f, n = lines.ints_of(head, 2)
    if f < 3:
        raise FormatError("linked family: index count f must be at least 3")
    if n < 1:
        raise FormatError("linked family: order n must be at least 1")
    stack = _stack(lines, f * (f - 1), n, np.min_scalar_type(n - 1))
    taken = _read_bands(lines, stack, "", 9)
    require_latin(stack[:taken])
    for square in range(taken, f * (f - 1)):
        stack[square] = _latin_rows(lines, n)
    lines.done()
    return LinkedMolsFamily._of_latin(f, stack[np.argsort(_family_file_order(f))])


def read_linked_family(stream) -> LinkedMolsFamily:
    lines = Lines(stream, "linked family")
    return _read_family(lines, lines.next().split())


def read_latin(stream) -> np.ndarray | LinkedMolsFamily:
    """A Latin square, as an (n, n) array, or a linked family when the
    header has two fields: the header is read once, the rest from the same
    lines.  A MOLS list, whose header also has two fields, is read as a
    family, and refused: the MOLS list has no reader."""
    lines = Lines(stream, "latin square")
    head = lines.next().split()
    if len(head) == 2:
        return _read_family(lines, head)
    (n,) = lines.ints_of(head, 1)
    if n < 1:
        raise FormatError("latin square: order n must be at least 1")
    sq = _latin_rows(lines, n)
    lines.done()
    return sq


def mols_list_chunks(squares: np.ndarray) -> Iterator:
    """The MOLS list of a (count, n, n) stack of squares."""
    if not len(squares):
        raise ParameterError("empty square list")
    head = f"{len(squares)} {squares.shape[-1]}\n".encode()
    return chain([head], map(_token_rows, squares.tolist()))


# -- linked systems --------------------------------------------------------------

def linked_system_chunks(sys: LinkedSystemII) -> Iterator:
    """The linked-system file as byte chunks: its header, then its blocks a
    band at a time (``_stack_chunks``)."""
    p, base = sys.params, sys.params.base
    triple = f"{p.sigma} {p.tau} {p.rho}" if p.sigma is not None else "- - -"
    yield f"{p.f} {base.v} {base.m} {base.n} {base.k} {base.lambda1} {base.lambda2} {triple}\n".encode()
    yield from _stack_chunks(sys.stack)


def read_linked_system(stream) -> LinkedSystemII:
    lines = Lines(stream, "linked system")
    parts = lines.next().split()
    if len(parts) != 10:
        raise FormatError("linked system: header needs 10 fields")
    try:
        f, v, m, n, k, l1, l2 = (int(x) for x in parts[:7])
        sigma, tau, rho = (None,) * 3 if parts[7] == "-" else (int(x) for x in parts[7:])
    except ValueError as exc:
        raise FormatError("linked system: bad header field") from exc
    if f < 2:
        raise FormatError("linked system: index count f must be at least 2")
    params = LinkedParams(base=GddParams(v, k, m, n, l1, l2), f=f, sigma=sigma, tau=tau, rho=rho)
    stack = _stack(lines, f * (f - 1), v)
    # a band takes only v x v blocks of 0/1 digits, which, as v = m n, the incidence check passes
    for block in range(_read_bands(lines, stack, f"{v} {v}\n", 1), f * (f - 1)):
        # checked as a block before it is narrowed into the stack
        stack[block] = incidence(_read_matrix(lines), m, n)
    lines.done()
    return LinkedSystemII(params, stack)


# -- schemes ----------------------------------------------------------------------

def scheme_chunks(relation: np.ndarray) -> Iterator:
    """The scheme of a label array R with labels 0..d as byte chunks: the
    header, then class i, R == i, as a block header and its digit rows, a
    band of rows within ``SCHEME_BAND`` bytes at a time, each band compared
    straight into its own buffer."""
    d, size = int(relation.max()), relation.shape[0]
    band = max(1, SCHEME_BAND // (2 * size))  # a row of text is 2 |X| bytes
    yield f"{d} {size}\n".encode()
    for i in range(d + 1):
        yield f"{size} {size}\n".encode()
        for start in range(0, size, band):
            yield _class_rows(relation[start : start + band], i)


def _class_rows(rows: np.ndarray, label: int) -> np.ndarray:
    """The rows ``rows`` of R as the rows of the class R == label, one uint8
    text buffer, the comparison written straight into it, with no boolean
    copy of R."""
    pairs = np.empty(rows.shape, dtype="<u2")
    np.equal(rows, label, out=pairs, casting="unsafe")
    return _text_rows(pairs)


def read_scheme(stream) -> ClassLabels:
    """The d + 1 classes as written, which ``schemes.relation_from_classes``
    certifies, held in one ``ClassLabels``: each block, a digit block in
    place in the window or else read token by token, is offered to
    ``ClassLabels.claim``, which writes it into the label array R when it
    is 0/1, of the header's order, and claims no pair an earlier class
    holds; each one it refuses is kept in ``extra`` as ``_read_block``
    reads it.  R is sized only when the stream can hold every block the
    header names (``_fits``): else a block falls short or has another
    order, and the read fails."""
    lines = Lines(stream, "scheme")
    d, size = lines.ints(2)
    if d < 0:
        raise FormatError("scheme: class count must be non-negative")
    fits = _fits(lines, d + 1, size)
    labels = ClassLabels.unclaimed(size if fits == d + 1 else 0, fits)
    for i in range(d + 1):
        rows, cols, digits = _digit_block(lines)
        block = digits if digits is not None else _read_block(lines, rows, cols, None)
        if not labels.claim(i, block):
            labels.extra[i] = block if digits is None else _read_block(lines, rows, cols, digits)
    lines.done()
    if any(m.shape != (size, size) for m in labels.extra.values()):
        raise FormatError("scheme: matrix order disagrees with header")
    return labels


# -- group-entry matrices (generalized conference / BGW) ----------------------------

def gcm_chunks(gcm: GcmMatrix) -> Iterator:
    yield f"{gcm.order} {gcm.g}\n".encode()
    yield _token_rows(gcm.entries)


def read_gcm(stream) -> GcmMatrix:
    lines = Lines(stream, "group-entry matrix")
    order, g = lines.ints(2)
    for value, name in ((order, "matrix order"), (g, "group order g")):
        if value < 2:
            raise FormatError(f"group-entry matrix: {name} must be at least 2")
    rows = [lines.ints(order) for _ in range(order)]
    lines.done()
    return GcmMatrix(g, rows)


# -- matrix sets ---------------------------------------------------------------------

def matrix_set_chunks(mats: list[IntMatrix]) -> Iterator:
    if not mats:
        raise ParameterError("empty matrix set")
    head = f"{mats[0].rows} {len(mats)}\n".encode()
    return chain([head], *(matrix_chunks(m.a) for m in mats))


def read_matrix_set(stream) -> list[IntMatrix]:
    lines = Lines(stream, "matrix set")
    order, count = lines.ints(2)
    if count < 1:
        raise FormatError("matrix set: matrix count must be positive")
    mats = [IntMatrix.view(_read_matrix(lines)) for _ in range(count)]
    lines.done()
    if any(m.rows != order or m.cols != order for m in mats):
        raise FormatError("matrix set: matrix order disagrees with header")
    return mats
