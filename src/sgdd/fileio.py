"""Plain-text file formats.

Everything is line-oriented ASCII so artifacts diff cleanly:

* matrix v1 ............ ``rows cols`` then one line per row of integers
* GDD parameters ....... six ``key=value`` lines (v, k, m, n, l1, l2)
* auxiliary set ........ ``v r`` then r matrices in matrix v1
* Latin square ......... ``n`` then n rows of symbols
* linked MOLS family ... ``f n`` then f(f-1) squares, pairs (i<j) in
                         lexicographic order followed by pairs (i>j)
* MOLS list ............ ``count n`` then the squares
* linked system ........ ``f v m n k l1 l2 sigma tau rho`` (``-`` for an
                         absent triple) then blocks for all ordered pairs in
                         lexicographic order, each in matrix v1
* scheme ............... ``d |X|`` then the d+1 adjacency matrices
* group-entry matrix ... ``order g`` then rows with -1 marking zero entries
* matrix set ........... ``order count`` then the matrices (Hadamard or
                         weighing collections)

Each format has one reader, ``read_*``, which takes a binary stream, and one
writer, ``*_chunks``, which yields the file as byte chunks.  Writers end
files with a newline; readers reject trailing junk, so a write/read/write
round trip is byte-identical.

A reader goes through ``Lines``, a byte window over the stream refilled by
fixed-size reads, whose lines end where ``str.splitlines`` would end them.
A block of single-digit rows joined by single spaces, all ending in a line
feed or all in CR LF, is read into the window and its digits taken in
place; any other block is read token by token from the same rows, so every
error names the same line either way.  A header never sizes an array the
rest of the stream is too short to fill (``_fits``).  A scheme class that
is a 0/1 digit block claiming no pair twice goes into one label array R
as its label, any other beside R (``schemes.ClassLabels``), and the blocks
of a linked system or an auxiliary set into its ``uint8`` stack.  A block of
digits is written from one byte buffer, a scheme from its class-label
array R, class i as R == i compared straight into one buffer per band of
rows, each band within ``SCHEME_BAND`` bytes of text.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .algebra import IntMatrix
from .designs import GddParams, IncidenceMatrix, zero_one
from .errors import FormatError, ParameterError
from .latin import LatinSquare, LinkedMolsFamily
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
    past 0x7F is refused then, as int() would read other scripts' digits."""

    def __init__(self, stream, what: str):
        if not stream.seekable():
            stream = io.BytesIO(stream.read())
        here = stream.tell()
        self.left = stream.seek(0, io.SEEK_END) - here
        stream.seek(here)
        self.stream, self.what = stream, what
        self.buf = np.empty(2 * CHUNK, dtype=np.uint8)
        self.at = self.end = self.pos = 0

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


def _stack(lines: Lines, count: int, v: int) -> np.ndarray:
    """An empty uint8 stack for the blocks of order v that ``lines`` can
    hold of ``count``; with none, it takes no shape from v."""
    fits = _fits(lines, count, v)
    return np.empty((fits, v, v) if fits > 0 else (0, 0, 0), dtype=np.uint8)


# -- matrix v1 ---------------------------------------------------------------

# a digit and the space after it, or the line feed that ends its row, read
# as one little-endian 16-bit pair: its value less the pair of digit 0
_SPACE_PAIR, _LF_PAIR, _CR_PAIR = 0x2030, 0x0A30, 0x0D30


def _text_rows(pairs: np.ndarray) -> np.ndarray:
    """The rows of a little-endian 16-bit matrix of digits 0..9, made in
    place the uint8 text buffer of its rows, each digit and the byte after
    it one 16-bit pair."""
    pairs += np.uint16(_SPACE_PAIR)
    pairs[:, -1] -= np.uint16(_SPACE_PAIR - _LF_PAIR)
    return pairs.view(np.uint8)


def _digit_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a matrix of digits 0..9 or booleans as one uint8 text buffer."""
    return _text_rows(a.astype("<u2", order="C"))


def _token_rows(rows: list[list[int]]) -> bytes:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


def matrix_chunks(m: IntMatrix) -> Iterator:
    """Matrix v1 as byte chunks: a matrix of digits as one digit buffer."""
    a = m.a
    yield f"{m.rows} {m.cols}\n".encode()
    if a.dtype.kind in "biu" and a.size and a.min() >= 0 and a.max() <= 9:
        yield _digit_rows(a)
    else:
        yield _token_rows(a.tolist())


def _digit_block(lines: Lines) -> tuple[int, int, np.ndarray | None]:
    """The next block's rows and columns, and its digits, as a (rows, cols)
    16-bit view written over them in the window, when each row is single
    digits joined by single spaces and every one ends in a line feed, or
    every one in CR LF (as the first does), with ``lines`` moved past them;
    otherwise None, with ``lines`` and its window as they were.  A digit
    and the byte after it are one little-endian 16-bit pair; less the pair
    of "0 " ("0\\n", "0\\r" at a row's end) it is the digit exactly when at
    most 9, as every other byte wraps past 9.  The view lasts until
    ``lines`` reads on."""
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    text = 2 * cols - 1
    crlf = lines.fill(text + 2) and lines.buf[lines.at + text : lines.at + text + 2].tobytes() == b"\r\n"
    width = 2 * cols + crlf
    if not lines.fill(rows * width):
        return rows, cols, None
    buf, at = lines.buf, lines.at
    pairs = np.ndarray((rows, cols), dtype="<u2", buffer=buf, offset=at, strides=(width, 2))
    row_end = np.uint16(_CR_PAIR if crlf else _LF_PAIR)
    pairs[:, :-1] -= np.uint16(_SPACE_PAIR)
    pairs[:, -1] -= row_end
    if pairs.max() <= 9 and (not crlf or (buf[at + 2 * cols : at + rows * width : width] == ord("\n")).all()):
        lines.at += rows * width
        lines.pos += rows
        return rows, cols, pairs
    pairs[:, :-1] += np.uint16(_SPACE_PAIR)
    pairs[:, -1] += row_end
    return rows, cols, None


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
    for c in aux.stack:
        yield from matrix_chunks(IntMatrix.view(c))


def read_auxiliary_set(stream) -> AuxiliarySet:
    """The set as written, uncertified: ``verify_auxiliary`` certifies it."""
    lines = Lines(stream, "auxiliary set")
    v, r = lines.ints(2)
    if r < 2:
        raise FormatError("auxiliary set: matrix count r must be at least 2")
    stack = _stack(lines, r, v)
    for c in range(r):
        block = _read_matrix(lines)
        if block.shape != (v, v):
            raise FormatError("auxiliary set: matrix order disagrees with header")
        # checked as a block before it is narrowed into the stack
        stack[c] = zero_one(block, "auxiliary matrix")
    lines.done()
    return auxiliary_set(stack)


# -- Latin squares and families -------------------------------------------------

def _read_latin_rows(lines: Lines, n: int) -> LatinSquare:
    return LatinSquare.of([lines.ints(n) for _ in range(n)])


def family_pair_order(f: int) -> Iterator[tuple[int, int]]:
    upper = ((i, j) for i in range(1, f + 1) for j in range(i + 1, f + 1))
    lower = ((i, j) for i in range(2, f + 1) for j in range(1, i))
    return chain(upper, lower)


def linked_family_chunks(fam: LinkedMolsFamily) -> Iterator:
    yield f"{fam.f} {fam.order}\n".encode()
    for pair in family_pair_order(fam.f):
        yield _token_rows(fam.squares[pair].grid)


def _read_family(lines: Lines, head: list[str]) -> LinkedMolsFamily:
    """The linked family whose header fields ``head`` were read last."""
    lines.what = "linked family"
    f, n = lines.ints_of(head, 2)
    if f < 3:
        raise FormatError("linked family: index count f must be at least 3")
    if n < 1:
        raise FormatError("linked family: order n must be at least 1")
    squares = {pair: _read_latin_rows(lines, n) for pair in family_pair_order(f)}
    lines.done()
    return LinkedMolsFamily(f=f, order=n, squares=squares)


def read_linked_family(stream) -> LinkedMolsFamily:
    lines = Lines(stream, "linked family")
    return _read_family(lines, lines.next().split())


def read_latin(stream) -> LatinSquare | LinkedMolsFamily:
    """A Latin square, or a linked family when the header has two fields:
    the header is read once, the rest from the same lines."""
    lines = Lines(stream, "latin square")
    head = lines.next().split()
    if len(head) == 2:
        return _read_family(lines, head)
    (n,) = lines.ints_of(head, 1)
    if n < 1:
        raise FormatError("latin square: order n must be at least 1")
    sq = _read_latin_rows(lines, n)
    lines.done()
    return sq


def mols_list_chunks(squares: list[LatinSquare]) -> Iterator:
    if not squares:
        raise ParameterError("empty square list")
    head = f"{len(squares)} {squares[0].order}\n".encode()
    return chain([head], (_token_rows(sq.grid) for sq in squares))


# -- linked systems --------------------------------------------------------------

def linked_system_chunks(sys: LinkedSystemII) -> Iterator:
    """The linked-system file as byte chunks: its header, then each block's
    header and digit buffer."""
    p, base = sys.params, sys.params.base
    triple = f"{p.sigma} {p.tau} {p.rho}" if p.sigma is not None else "- - -"
    yield f"{p.f} {base.v} {base.m} {base.n} {base.k} {base.lambda1} {base.lambda2} {triple}\n".encode()
    for blk in sys.stack:
        yield from matrix_chunks(IntMatrix.view(blk))


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
    for block in range(f * (f - 1)):
        # checked as a block before it is narrowed into the stack
        stack[block] = IncidenceMatrix(IntMatrix.view(_read_matrix(lines)), m, n).mat.lane
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
    certifies, held in one ``ClassLabels``: for d < 255, each class that is
    a 0/1 digit block of the header's order claiming no pair an earlier
    class holds is written as its label into the label array R in place
    from the window (``ClassLabels.claim``), labels 0..254, 255 where no
    class holds a pair; every other class goes into ``extra`` as
    ``_read_block`` reads it."""
    lines = Lines(stream, "scheme")
    d, size = lines.ints(2)
    if d < 0:
        raise FormatError("scheme: class count must be non-negative")
    fits = d < 255 and _fits(lines, d + 1, size) == d + 1
    labels = ClassLabels(np.full((size, size), 255, dtype=np.uint8) if fits else None, d + 1)
    for i in range(d + 1):
        rows, cols, digits = _digit_block(lines)
        if not (fits and digits is not None and digits.shape == (size, size) and digits.max() <= 1 and labels.claim(i, digits)):
            labels.extra[i] = _read_block(lines, rows, cols, digits)
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
    rows = [lines.ints(order) for _ in range(order)]
    lines.done()
    return GcmMatrix(g, rows)


# -- matrix sets ---------------------------------------------------------------------

def matrix_set_chunks(mats: list[IntMatrix]) -> Iterator:
    if not mats:
        raise ParameterError("empty matrix set")
    head = f"{mats[0].rows} {len(mats)}\n".encode()
    return chain([head], *(matrix_chunks(m) for m in mats))


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
