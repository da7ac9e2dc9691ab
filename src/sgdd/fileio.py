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

Writers always end files with a newline; readers reject trailing junk, so a
write/read/write round trip is byte-identical.  The CLI reads files as ASCII
and reports any other byte as a ``FormatError``; every ``parse_*`` function
refuses non-ASCII text the same way.

A matrix block whose rows are single digits joined by single spaces is read
and written through one ``uint8`` view of the block.  Every other block
takes the token reader, so every error names the same line either way.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

import numpy as np

from .algebra import IntMatrix
from .designs import GddParams, IncidenceMatrix
from .errors import FormatError, ParameterError
from .latin import LatinSquare, LinkedMolsFamily
from .linked import CyclicGroup, GcmMatrix, LinkedParams, LinkedSystemII
from .resolvable import AuxiliarySet, auxiliary_set


def _check_ascii(text: str, what: str) -> None:
    """Refuse text that is not ASCII, as no format here is: int() would also
    read other scripts' digits, such as Arabic-Indic ones."""
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        line = len((text[:at] + "x").splitlines())
        raise FormatError(f"{what}: non-ASCII character U+{ord(text[at]):04X} on line {line}")


class _Lines:
    def __init__(self, text: str, what: str):
        _check_ascii(text, what)
        self.lines = text.splitlines()
        self.pos = 0
        self.what = what

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
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
        while self.pos < len(self.lines):
            if self.lines[self.pos].strip():
                raise FormatError(f"{self.what}: trailing content at line {self.pos + 1}")
            self.pos += 1


# -- matrix v1 ---------------------------------------------------------------

def format_matrix(m: IntMatrix) -> str:
    a = m.a
    if a.dtype == np.int64 and a.size and a.min() >= 0 and a.max() <= 9:
        # single digits: fill the bytes of the rows in place
        buf = np.full((m.rows, 2 * m.cols), ord(" "), dtype=np.uint8)
        buf[:, 0::2] = a + ord("0")
        buf[:, -1] = ord("\n")
        body = buf.tobytes().decode("ascii")
    else:
        body = "\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n"
    return f"{m.rows} {m.cols}\n{body}"


def _read_digit_block(lines: _Lines, rows: int, cols: int) -> np.ndarray | None:
    """The next ``rows`` lines as an int64 array when each one is ``cols``
    single digits joined by single spaces, read through one byte view and
    with ``lines`` moved past them; otherwise None, with ``lines`` unmoved."""
    block = lines.lines[lines.pos : lines.pos + rows]
    if len(block) != rows or any(len(line) != 2 * cols - 1 for line in block):
        return None
    # Each row ends in the space that joins it to the next, so every odd byte
    # must be a space.  _Lines has refused non-ASCII text.
    raw = (" ".join(block) + " ").encode("ascii")
    view = np.frombuffer(raw, dtype=np.uint8).reshape(rows, 2 * cols)
    digits = view[:, 0::2] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    if not ((digits <= 9).all() and (view[:, 1::2] == ord(" ")).all()):
        return None
    lines.pos += rows
    return digits.astype(np.int64)


def _read_matrix(lines: _Lines) -> IntMatrix:
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    digits = _read_digit_block(lines, rows, cols)
    if digits is not None:
        return IntMatrix(digits)
    start = lines.pos
    try:
        arr = np.array([lines.next().split() for _ in range(rows)], dtype=np.int64)
        if arr.shape == (rows, cols):
            return IntMatrix(arr)
    except (ValueError, OverflowError):  # FormatError is a ValueError
        pass
    # A malformed block, or entries past int64: read it again row by row,
    # which names the first bad line and keeps big entries as Python integers.
    lines.pos = start
    return IntMatrix([lines.ints(cols) for _ in range(rows)])


def parse_matrix(text: str) -> IntMatrix:
    lines = _Lines(text, "matrix")
    m = _read_matrix(lines)
    lines.done()
    return m


# -- GDD parameters -----------------------------------------------------------

_PARAM_KEYS = ("v", "k", "m", "n", "l1", "l2")


def format_gdd_params(p: GddParams) -> str:
    vals = (p.v, p.k, p.m, p.n, p.lambda1, p.lambda2)
    return "".join(f"{key}={val}\n" for key, val in zip(_PARAM_KEYS, vals))


def parse_gdd_params(text: str) -> GddParams:
    _check_ascii(text, "parameters")
    got = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
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
    """Six whitespace-separated integers: v k m n l1 l2."""
    _check_ascii(text, "parameters")
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
    return head + "".join(format_matrix(c) for c in aux.matrices)


def parse_auxiliary_set(text: str) -> AuxiliarySet:
    """The set as written, uncertified: ``verify_auxiliary`` certifies it."""
    lines = _Lines(text, "auxiliary set")
    v, r = lines.ints(2)
    mats = [_read_matrix(lines) for _ in range(r)]
    lines.done()
    if any(m.rows != v or m.cols != v for m in mats):
        raise FormatError("auxiliary set: matrix order disagrees with header")
    return auxiliary_set(v, mats)


# -- Latin squares and families -------------------------------------------------

def format_latin_square(sq: LatinSquare) -> str:
    body = "\n".join(" ".join(str(x) for x in row) for row in sq.grid)
    return f"{sq.order}\n{body}\n"


def _read_latin_rows(lines: _Lines, n: int) -> LatinSquare:
    return LatinSquare.of([lines.ints(n) for _ in range(n)])


def parse_latin_square(text: str) -> LatinSquare:
    lines = _Lines(text, "latin square")
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


def parse_linked_family(text: str) -> LinkedMolsFamily:
    lines = _Lines(text, "linked family")
    f, n = lines.ints(2)
    squares = {}
    for pair in family_pair_order(f):
        squares[pair] = _read_latin_rows(lines, n)
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


def parse_mols_list(text: str) -> list[LatinSquare]:
    lines = _Lines(text, "MOLS list")
    count, n = lines.ints(2)
    out = [_read_latin_rows(lines, n) for _ in range(count)]
    lines.done()
    return out


# -- linked systems --------------------------------------------------------------

def format_linked_system(sys: LinkedSystemII) -> str:
    p = sys.params
    base = p.base
    triple = (
        f"{p.sigma} {p.tau} {p.rho}" if p.sigma is not None else "- - -"
    )
    head = (
        f"{p.f} {base.v} {base.m} {base.n} {base.k} "
        f"{base.lambda1} {base.lambda2} {triple}\n"
    )
    body = "".join(
        format_matrix(sys.blocks[pair].mat) for pair in sorted(sys.blocks)
    )
    return head + body


def parse_linked_system(text: str) -> LinkedSystemII:
    lines = _Lines(text, "linked system")
    parts = lines.next().split()
    if len(parts) != 10:
        raise FormatError("linked system: header needs 10 fields")
    try:
        f, v, m, n, k, l1, l2 = (int(x) for x in parts[:7])
        triple = None if parts[7] == "-" else tuple(int(x) for x in parts[7:])
    except ValueError as exc:
        raise FormatError("linked system: bad header field") from exc
    base = GddParams(v, k, m, n, l1, l2)
    if triple is None:
        params = LinkedParams(base=base, f=f, sigma=None, tau=None, rho=None)
    else:
        params = LinkedParams(base=base, f=f, sigma=triple[0], tau=triple[1], rho=triple[2])
    # lexicographic already; generated lazily so the header's f sizes no work
    pairs = ((i, j) for i in range(1, f + 1) for j in range(1, f + 1) if i != j)
    blocks = {}
    for pair in pairs:
        blocks[pair] = IncidenceMatrix(_read_matrix(lines), m, n)
    lines.done()
    return LinkedSystemII(params=params, blocks=blocks)


# -- schemes ----------------------------------------------------------------------

def format_scheme_matrices(mats: list[IntMatrix]) -> str:
    d = len(mats) - 1
    size = mats[0].rows
    return f"{d} {size}\n" + "".join(format_matrix(m) for m in mats)


def parse_scheme_matrices(text: str) -> list[IntMatrix]:
    lines = _Lines(text, "scheme")
    d, size = lines.ints(2)
    if d < 0:
        raise FormatError("scheme: class count must be non-negative")
    mats = [_read_matrix(lines) for _ in range(d + 1)]
    lines.done()
    if any(m.rows != size or m.cols != size for m in mats):
        raise FormatError("scheme: matrix order disagrees with header")
    return mats


# -- group-entry matrices (generalized conference / BGW) ----------------------------

def format_gcm(gcm: GcmMatrix) -> str:
    head = f"{gcm.order} {gcm.group.order}\n"
    body = "\n".join(" ".join(str(x) for x in row) for row in gcm.entries)
    return head + body + "\n"


def parse_gcm(text: str) -> GcmMatrix:
    lines = _Lines(text, "group-entry matrix")
    order, g = lines.ints(2)
    rows = [lines.ints(order) for _ in range(order)]
    lines.done()
    return GcmMatrix(CyclicGroup(g), rows)


# -- matrix sets ---------------------------------------------------------------------

def format_matrix_set(mats: list[IntMatrix]) -> str:
    if not mats:
        raise ParameterError("empty matrix set")
    head = f"{mats[0].rows} {len(mats)}\n"
    return head + "".join(format_matrix(m) for m in mats)


def parse_matrix_set(text: str) -> list[IntMatrix]:
    lines = _Lines(text, "matrix set")
    order, count = lines.ints(2)
    mats = [_read_matrix(lines) for _ in range(count)]
    lines.done()
    if any(m.rows != order or m.cols != order for m in mats):
        raise FormatError("matrix set: matrix order disagrees with header")
    return mats
