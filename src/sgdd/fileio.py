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

Writers return ``str`` and end files with a newline; readers reject trailing
junk, so a write/read/write round trip is byte-identical.  Parsers take the
file's ``bytes``, refuse any byte past 0x7F, end lines where ``str.splitlines``
would and decode only the lines they read as tokens.

A block of single-digit rows joined by single spaces, all ending in a line
feed or all in CR LF, is viewed in place as ``uint8``, and a block of digits
held as int64, ``uint8`` or booleans is written from one byte buffer; every
other block takes the token reader, so every error names the same line
either way.  Scheme class blocks stay ``uint8`` as read, the blocks of a
linked system or an auxiliary set are checked one by one into its ``uint8``
stack, and a scheme is written from its class-label array R, class i as
R == i; other matrices become ``IntMatrix``.
"""

from __future__ import annotations

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

def _digit_rows(a: np.ndarray) -> str:
    """The rows of a matrix of digits 0..9 or booleans, filled into one byte buffer."""
    buf = np.full((a.shape[0], 2 * a.shape[1]), ord(" "), dtype=np.uint8)
    np.add(a, ord("0"), out=buf[:, 0::2], casting="unsafe")
    buf[:, -1] = ord("\n")
    return buf.tobytes().decode("ascii")


def format_matrix(m: IntMatrix) -> str:
    a = m.a
    if a.dtype.kind in "biu" and a.size and a.min() >= 0 and a.max() <= 9:
        body = _digit_rows(a)
    else:
        body = "\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n"
    return f"{m.rows} {m.cols}\n{body}"


def _read_digit_block(lines: Lines, rows: int, cols: int) -> np.ndarray | None:
    """The next ``rows`` lines as uint8, viewed in place, when each is ``cols``
    single digits joined by single spaces and every one ends in a line feed,
    or every one in CR LF (as the first does), with ``lines`` moved past them;
    otherwise None, with ``lines`` unmoved."""
    text = 2 * cols - 1
    end = b"\r\n" if lines.data[lines.at + text : lines.at + text + 2] == b"\r\n" else b"\n"
    width = text + len(end)
    size = rows * width
    if lines.at + size > len(lines.data):
        return None
    view = np.frombuffer(lines.data, dtype=np.uint8, count=size, offset=lines.at).reshape(rows, width)
    digits = view[:, 0:text:2] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    ends = view[:, text:] == np.frombuffer(end, dtype=np.uint8)
    if not ((digits <= 9).all() and (view[:, 1:text:2] == ord(" ")).all() and ends.all()):
        return None
    lines.at += size
    lines.pos += rows
    return digits


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

def format_linked_system(sys: LinkedSystemII) -> str:
    p, base = sys.params, sys.params.base
    triple = f"{p.sigma} {p.tau} {p.rho}" if p.sigma is not None else "- - -"
    head = f"{p.f} {base.v} {base.m} {base.n} {base.k} {base.lambda1} {base.lambda2} {triple}\n"
    return head + "".join(format_matrix(IntMatrix.view(blk)) for blk in sys.stack)


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

def format_scheme_matrices(relation: np.ndarray) -> str:
    """The scheme of a label array R with labels 0..d: class i written as R == i."""
    d, size = int(relation.max()), relation.shape[0]
    return "".join([f"{d} {size}\n"] + [f"{size} {size}\n" + _digit_rows(relation == i) for i in range(d + 1)])


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
