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

Writers end files with a newline; readers reject trailing junk, so a
write/read/write round trip is byte-identical.  A scheme and a linked system
are written as byte chunks (``scheme_chunks``, ``linked_system_chunks``),
one digit buffer per block, which the CLI writes to its output as they come;
``format_*`` return ``str``, and for those two formats join the same chunks.
Parsers take the file's ``bytes``, refuse any byte past 0x7F, end lines
where ``str.splitlines`` would and decode only the lines they read as tokens.

A block of single-digit rows joined by single spaces, all ending in a line
feed or all in CR LF, is viewed in place as ``uint8``, and a block of digits
held as int64, ``uint8`` or booleans is written from one byte buffer; every
other block takes the token reader, so every error names the same line
either way.  Scheme class blocks stay ``uint8`` as read, the blocks of a
linked system or an auxiliary set are checked one by one into its ``uint8``
stack, and a scheme is written from its class-label array R, class i as
R == i; other matrices become ``IntMatrix``.  ``read_scheme`` reads a scheme
file block by block from a stream, leaving any other file to the token reader.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from .algebra import IntMatrix
from .designs import GddParams, IncidenceMatrix, zero_one
from .errors import FormatError, ParameterError
from .latin import LatinSquare, LinkedMolsFamily
from .linked import GcmMatrix, LinkedParams, LinkedSystemII
from .resolvable import AuxiliarySet, auxiliary_set
from .schemes import ClassBits


# the ASCII line boundaries of str.splitlines
_LINE_END = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")


def first_non_ascii(data: bytes) -> int | None:
    """The offset of the first byte past 0x7F, or None when ``data`` is ASCII."""
    return None if data.isascii() else re.search(rb"[\x80-\xff]", data).start()


def _check_ascii(data: bytes, what: str) -> None:
    """Refuse bytes that are not ASCII, as no format here is: int() would also
    read other scripts' digits, such as Arabic-Indic ones."""
    if (at := first_non_ascii(data)) is not None:
        line = len(_LINE_END.findall(data, 0, at)) + 1
        raise FormatError(f"{what}: non-ASCII byte 0x{data[at]:02x} on line {line}")


class Lines:
    """A file's lines, read from byte offset ``at``, ``pos`` of them so far;
    each is decoded when read, so strip, split and int() keep their meaning."""

    def __init__(self, data: bytes, what: str):
        _check_ascii(data, what)
        self.data = data
        self.at = 0
        self.pos = 0
        self.what = what

    def __iter__(self) -> Iterator[str]:
        """The remaining non-blank lines, stripped."""
        while self.at < len(self.data):
            start, end = self.at, _LINE_END.search(self.data, self.at)
            stop, self.at = end.span() if end else (len(self.data),) * 2
            self.pos += 1
            if line := self.data[start:stop].decode("ascii").strip():
                yield line

    def next(self) -> str:
        for line in self:
            return line
        raise FormatError(f"{self.what}: unexpected end of file")

    def ints(self, expect: int | None = None) -> list[int]:
        parts = self.next().split()
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


# -- matrix v1 ---------------------------------------------------------------

# a digit and the space after it, or the line feed that ends its row, read
# as one little-endian 16-bit pair: its value less the pair of digit 0
_SPACE_PAIR, _LF_PAIR, _CR_PAIR = 0x2030, 0x0A30, 0x0D30


def _digit_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a matrix of digits 0..9 or booleans, filled into one
    uint8 text buffer, each digit and the byte after it one 16-bit pair."""
    pairs = np.empty(a.shape, dtype="<u2")
    np.add(a, np.uint16(_SPACE_PAIR), out=pairs, casting="unsafe")
    pairs[:, -1] -= np.uint16(_SPACE_PAIR - _LF_PAIR)
    return pairs.view(np.uint8)


def _joined(chunks: Iterable) -> str:
    """The text of a writer's byte chunks, for in-memory callers."""
    return b"".join(chunks).decode("ascii")


def _matrix_chunks(m: IntMatrix) -> Iterator:
    """Matrix v1 as byte chunks: a matrix of digits as one digit buffer."""
    a = m.a
    yield f"{m.rows} {m.cols}\n".encode()
    if a.dtype.kind in "biu" and a.size and a.min() >= 0 and a.max() <= 9:
        yield _digit_rows(a)
    else:
        yield ("\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n").encode()


def format_matrix(m: IntMatrix) -> str:
    return _joined(_matrix_chunks(m))


def _pair_digits(data, at: int, width: int, out: np.ndarray, top: int) -> bool:
    """Whether the rows of ``width`` bytes at ``at`` in ``data`` are single
    digits 0..top joined by single spaces, each row ending in LF (``width``
    twice the digits) or CR LF, the digits written to ``out`` (rows, digits).
    A digit and the byte after it are one little-endian 16-bit pair; less
    the pair of "0 " ("0\\n", "0\\r" at a row's end) it is the digit exactly
    when at most 9, as every other byte wraps past 9."""
    rows, cols = out.shape
    pairs = np.ndarray((rows, cols), dtype="<u2", buffer=data, offset=at, strides=(width, 2))
    np.subtract(pairs[:, :-1], _SPACE_PAIR, out=out[:, :-1])
    np.subtract(pairs[:, -1], _CR_PAIR if width > 2 * cols else _LF_PAIR, out=out[:, -1])
    if out.max() > top:
        return False
    return width == 2 * cols or (np.ndarray(rows, np.uint8, data, at + 2 * cols, (width,)) == ord("\n")).all()


def _read_digit_block(lines: Lines, rows: int, cols: int) -> np.ndarray | None:
    """The next ``rows`` lines as uint8, read in place, when each is ``cols``
    single digits joined by single spaces and every one ends in a line feed,
    or every one in CR LF (as the first does), with ``lines`` moved past them;
    otherwise None, with ``lines`` unmoved."""
    text = 2 * cols - 1
    width = 2 * cols + (lines.data[lines.at + text : lines.at + text + 2] == b"\r\n")
    if lines.at + rows * width > len(lines.data):
        return None
    digits = np.empty((rows, cols), dtype="<u2")
    if not _pair_digits(lines.data, lines.at, width, digits, 9):
        return None
    lines.at += rows * width
    lines.pos += rows
    return digits.astype(np.uint8)


def _read_matrix(lines: Lines) -> np.ndarray:
    """The next block as written: uint8 for single digits, else int64 or Python integers."""
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    digits = _read_digit_block(lines, rows, cols)
    if digits is not None:
        return digits
    start = lines.at, lines.pos
    try:
        arr = np.array([lines.next().split() for _ in range(rows)], dtype=np.int64)
        if arr.shape == (rows, cols):
            return arr
    except (ValueError, OverflowError):  # FormatError is a ValueError
        pass
    # A malformed block, or entries past int64: read it again row by row,
    # which names the first bad line and keeps big entries as Python integers.
    lines.at, lines.pos = start
    return IntMatrix([lines.ints(cols) for _ in range(rows)]).a


def _block_stack(data: bytes, count: int, v: int) -> np.ndarray:
    """An empty uint8 stack for the ``count`` blocks of order v that a header
    of ``data`` names.  A block of order v takes at least v*v bytes, so the
    stack holds no more blocks than the file can fill; where it can fill
    none, no block of order v can be read, and the stack takes no shape
    from v (a header's v*v may pass any array size)."""
    fits = min(count, len(data) // (v * v)) if v > 0 else 0
    return np.empty((fits, v, v) if fits > 0 else (0, 0, 0), dtype=np.uint8)


def parse_matrix(data: bytes) -> IntMatrix:
    """The matrix as ``_read_matrix`` holds it, with no copy: a block of
    single digits stays uint8."""
    lines = Lines(data, "matrix")
    m = IntMatrix.view(_read_matrix(lines))
    lines.done()
    return m


# -- GDD parameters -----------------------------------------------------------

_PARAM_KEYS = ("v", "k", "m", "n", "l1", "l2")


def format_gdd_params(p: GddParams) -> str:
    vals = (p.v, p.k, p.m, p.n, p.lambda1, p.lambda2)
    return "".join(f"{key}={val}\n" for key, val in zip(_PARAM_KEYS, vals))


def parse_gdd_params(data: bytes) -> GddParams:
    got = {}
    for line in Lines(data, "parameters"):
        if "=" not in line:
            raise FormatError(f"parameters: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise FormatError(f"parameters: unknown key {key!r}")
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
    _check_ascii(text.encode("utf-8", "surrogateescape"), "parameters")
    parts = text.split()
    if len(parts) != 6:
        raise FormatError("expected six integers: v k m n l1 l2")
    try:
        v, k, m, n, l1, l2 = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError("parameters must be integers") from exc
    return GddParams(v, k, m, n, l1, l2)


# -- auxiliary sets ------------------------------------------------------------

def format_auxiliary_set(aux: AuxiliarySet) -> str:
    head = f"{aux.order} {aux.r}\n"
    return head + "".join(format_matrix(IntMatrix.view(c)) for c in aux.stack)


def parse_auxiliary_set(data: bytes) -> AuxiliarySet:
    """The set as written, uncertified: ``verify_auxiliary`` certifies it."""
    lines = Lines(data, "auxiliary set")
    v, r = lines.ints(2)
    stack = _block_stack(data, r, v)
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


def parse_latin_square(data: bytes) -> LatinSquare:
    lines = Lines(data, "latin square")
    (n,) = lines.ints(1)
    sq = _read_latin_rows(lines, n)
    lines.done()
    return sq


def family_pair_order(f: int) -> Iterator[tuple[int, int]]:
    upper = ((i, j) for i in range(1, f + 1) for j in range(i + 1, f + 1))
    lower = ((i, j) for i in range(2, f + 1) for j in range(1, i))
    return chain(upper, lower)


def format_linked_family(fam: LinkedMolsFamily) -> str:
    out = [f"{fam.f} {fam.order}"]
    for pair in family_pair_order(fam.f):
        sq = fam.squares[pair]
        out.extend(" ".join(str(x) for x in row) for row in sq.grid)
    return "\n".join(out) + "\n"


def parse_linked_family(data: bytes) -> LinkedMolsFamily:
    lines = Lines(data, "linked family")
    f, n = lines.ints(2)
    squares = {pair: _read_latin_rows(lines, n) for pair in family_pair_order(f)}
    lines.done()
    return LinkedMolsFamily(f=f, order=n, squares=squares)


def format_mols_list(squares: list[LatinSquare]) -> str:
    if not squares:
        raise ParameterError("empty square list")
    n = squares[0].order
    out = [f"{len(squares)} {n}"]
    for sq in squares:
        out.extend(" ".join(str(x) for x in row) for row in sq.grid)
    return "\n".join(out) + "\n"


# -- linked systems --------------------------------------------------------------

def linked_system_chunks(sys: LinkedSystemII) -> Iterator:
    """The linked-system file as byte chunks: its header, then each block's
    header and digit buffer."""
    p, base = sys.params, sys.params.base
    triple = f"{p.sigma} {p.tau} {p.rho}" if p.sigma is not None else "- - -"
    yield f"{p.f} {base.v} {base.m} {base.n} {base.k} {base.lambda1} {base.lambda2} {triple}\n".encode()
    for blk in sys.stack:
        yield from _matrix_chunks(IntMatrix.view(blk))


def format_linked_system(sys: LinkedSystemII) -> str:
    return _joined(linked_system_chunks(sys))


def parse_linked_system(data: bytes) -> LinkedSystemII:
    lines = Lines(data, "linked system")
    parts = lines.next().split()
    if len(parts) != 10:
        raise FormatError("linked system: header needs 10 fields")
    try:
        f, v, m, n, k, l1, l2 = (int(x) for x in parts[:7])
        sigma, tau, rho = (None,) * 3 if parts[7] == "-" else (int(x) for x in parts[7:])
    except ValueError as exc:
        raise FormatError("linked system: bad header field") from exc
    params = LinkedParams(base=GddParams(v, k, m, n, l1, l2), f=f, sigma=sigma, tau=tau, rho=rho)
    stack = _block_stack(data, f * (f - 1), v)
    for block in range(f * (f - 1)):
        # checked as a block before it is narrowed into the stack
        stack[block] = IncidenceMatrix(IntMatrix.view(_read_matrix(lines)), m, n).mat.lane
    lines.done()
    return LinkedSystemII(params, stack)


# -- schemes ----------------------------------------------------------------------

def scheme_chunks(relation: np.ndarray) -> Iterator:
    """The scheme of a label array R with labels 0..d as byte chunks: the
    header, then class i, R == i, as a block header and a digit buffer,
    one class at a time."""
    d, size = int(relation.max()), relation.shape[0]
    yield f"{d} {size}\n".encode()
    for i in range(d + 1):
        yield f"{size} {size}\n".encode()
        yield _digit_rows(relation == i)


def format_scheme_matrices(relation: np.ndarray) -> str:
    """The scheme of a label array R with labels 0..d: class i written as R == i."""
    return _joined(scheme_chunks(relation))


def parse_scheme_matrices(data: bytes) -> list[np.ndarray]:
    """The d + 1 classes as written; ``schemes.relation_from_classes`` certifies them."""
    lines = Lines(data, "scheme")
    d, size = lines.ints(2)
    if d < 0:
        raise FormatError("scheme: class count must be non-negative")
    mats = [_read_matrix(lines) for _ in range(d + 1)]
    lines.done()
    if any(m.shape != (size, size) for m in mats):
        raise FormatError("scheme: matrix order disagrees with header")
    return mats


def _line_ints(line: bytes) -> list[int]:
    """The two integers of one header line, as ``Lines.ints`` reads them."""
    lines = Lines(line, "scheme")
    vals = lines.ints(2)
    lines.done()
    return vals


def _class_block(stream, buf: np.ndarray, size: int) -> np.ndarray | None:
    """The next class block of order ``size`` read into ``buf``, as the
    (size, size) 16-bit view of its digits there when it is a 0/1 digit
    block (``_pair_digits``, in place); None otherwise."""
    text = 2 * size
    if stream.readinto(memoryview(buf)[:text]) != text:
        return None
    width = text + (int(buf[text - 1]) == ord("\r"))
    rest = memoryview(buf)[text : size * width]
    if stream.readinto(rest) != len(rest):
        return None
    pairs = np.ndarray((size, size), dtype="<u2", buffer=buf, strides=(width, 2))
    return pairs if _pair_digits(buf, 0, width, pairs, 1) else None


def read_scheme(stream) -> ClassBits | None:
    """A scheme file's classes read from the binary ``stream`` block by
    block into one ``ClassBits`` array, class i into bit i, when every class
    is a 0/1 digit block of the header's order; otherwise None, before any
    array is sized by a header the stream is too short to hold, and the
    token reader (``parse_scheme_matrices``) is left to read and name errors."""
    if not stream.seekable():  # a pipe: the token reader reads it whole
        return None
    try:
        d, size = _line_ints(stream.readline())
        here = stream.tell()
        left = stream.seek(0, io.SEEK_END) - here
        stream.seek(here)
        if not (0 < d + 1 <= ClassBits.MAX_CLASSES and 0 < size and (d + 1) * 2 * size * size <= left):
            return None
        bits = np.zeros((size, size), dtype=np.uint8)
        buf = np.empty(size * (2 * size + 1), dtype=np.uint8)
        for i in range(d + 1):
            if _line_ints(stream.readline()) != [size, size] or (digits := _class_block(stream, buf, size)) is None:
                return None
            np.left_shift(digits, i, out=digits)
            np.bitwise_or(bits, digits, out=bits, casting="unsafe")  # 0/1 shifted by i < 8 fits
        Lines(stream.read(), "scheme").done()
    except FormatError:
        return None
    return ClassBits(bits, d + 1)


# -- group-entry matrices (generalized conference / BGW) ----------------------------

def format_gcm(gcm: GcmMatrix) -> str:
    head = f"{gcm.order} {gcm.g}\n"
    body = "\n".join(" ".join(str(x) for x in row) for row in gcm.entries)
    return head + body + "\n"


def parse_gcm(data: bytes) -> GcmMatrix:
    lines = Lines(data, "group-entry matrix")
    order, g = lines.ints(2)
    rows = [lines.ints(order) for _ in range(order)]
    lines.done()
    return GcmMatrix(g, rows)


# -- matrix sets ---------------------------------------------------------------------

def format_matrix_set(mats: list[IntMatrix]) -> str:
    if not mats:
        raise ParameterError("empty matrix set")
    head = f"{mats[0].rows} {len(mats)}\n"
    return head + "".join(format_matrix(m) for m in mats)


def parse_matrix_set(data: bytes) -> list[IntMatrix]:
    lines = Lines(data, "matrix set")
    order, count = lines.ints(2)
    mats = [IntMatrix.view(_read_matrix(lines)) for _ in range(count)]
    lines.done()
    if any(m.rows != order or m.cols != order for m in mats):
        raise FormatError("matrix set: matrix order disagrees with header")
    return mats
