"""Reference route for the block readers and writers of ``sgdd.fileio``: the
file held whole as ``bytes``, each line checked for ASCII as it is read,
and every block read token by token, one ``int()`` per entry; a Latin
square is checked by ``require_latin`` once its rows are read, in file
order.  The writers put one ``str()`` per entry.  The tests compare the
streamed readers, which take digit blocks in place, and the chunk writers
against it."""

import re
from itertools import chain

import numpy as np

from sgdd.algebra import IntMatrix
from sgdd.designs import GddParams, IncidenceMatrix, zero_one
from sgdd.errors import FormatError
from sgdd.latin import LinkedMolsFamily, ordered_pairs, require_latin
from sgdd.linked import LinkedParams, LinkedSystemII
from sgdd.resolvable import auxiliary_set

_LINE_END = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")


class Lines:
    def __init__(self, data: bytes, what: str):
        self.lines = iter(_LINE_END.split(data))
        self.pos = 0
        self.what = what

    def __iter__(self):
        for line in self.lines:
            self.pos += 1
            if not line.isascii():
                byte = next(b for b in line if b > 0x7F)
                raise FormatError(f"{self.what}: non-ASCII byte 0x{byte:02x} on line {self.pos}")
            if line := line.decode("ascii").strip():
                yield line

    def next(self) -> str:
        for line in self:
            return line
        raise FormatError(f"{self.what}: unexpected end of file")

    def ints(self, expect: int | None = None) -> list[int]:
        return self.ints_of(self.next().split(), expect)

    def ints_of(self, parts: list[str], expect: int | None = None) -> list[int]:
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


def read_matrix(lines: Lines) -> np.ndarray:
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    return IntMatrix([lines.ints(cols) for _ in range(rows)]).a


def read_scheme(data: bytes) -> list[np.ndarray]:
    lines = Lines(data, "scheme")
    d, size = lines.ints(2)
    if d < 0:
        raise FormatError("scheme: class count must be non-negative")
    mats = [read_matrix(lines) for _ in range(d + 1)]
    lines.done()
    if any(m.shape != (size, size) for m in mats):
        raise FormatError("scheme: matrix order disagrees with header")
    return mats


def read_linked_system(data: bytes) -> LinkedSystemII:
    lines = Lines(data, "linked system")
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
    blocks = [IncidenceMatrix(IntMatrix.view(read_matrix(lines)), m, n).mat.lane for _ in range(f * (f - 1))]
    lines.done()
    return LinkedSystemII(params, np.stack(blocks))


def read_auxiliary_set(data: bytes):
    lines = Lines(data, "auxiliary set")
    v, r = lines.ints(2)
    if r < 2:
        raise FormatError("auxiliary set: matrix count r must be at least 2")
    blocks = []
    for _ in range(r):
        block = read_matrix(lines)
        if block.shape != (v, v):
            raise FormatError("auxiliary set: matrix order disagrees with header")
        blocks.append(zero_one(block, "auxiliary matrix"))
    lines.done()
    return auxiliary_set(np.stack(blocks))


def _latin_rows(lines: Lines, n: int) -> np.ndarray:
    rows = np.array([lines.ints(n) for _ in range(n)])
    require_latin(rows[None])
    return rows


def _family(lines: Lines, head: list[str]) -> LinkedMolsFamily:
    """The family whose header fields ``head`` were read last: the squares
    of the pairs i < j, then of the pairs i > j, each in lexicographic
    order, put in the order of ``ordered_pairs`` once all are read."""
    lines.what = "linked family"
    f, n = lines.ints_of(head, 2)
    if f < 3:
        raise FormatError("linked family: index count f must be at least 3")
    if n < 1:
        raise FormatError("linked family: order n must be at least 1")
    upper = ((i, j) for i in range(1, f + 1) for j in range(i + 1, f + 1))
    lower = ((i, j) for i in range(1, f + 1) for j in range(1, i))
    squares = {pair: _latin_rows(lines, n) for pair in chain(upper, lower)}
    lines.done()
    return LinkedMolsFamily(f=f, stack=np.array([squares[pair] for pair in ordered_pairs(f)]))


def read_linked_family(data: bytes) -> LinkedMolsFamily:
    lines = Lines(data, "linked family")
    return _family(lines, lines.next().split())


def read_latin(data: bytes):
    """A Latin square as read, or a linked family when the header has two fields."""
    lines = Lines(data, "latin square")
    head = lines.next().split()
    if len(head) == 2:
        return _family(lines, head)
    (n,) = lines.ints_of(head, 1)
    if n < 1:
        raise FormatError("latin square: order n must be at least 1")
    square = _latin_rows(lines, n)
    lines.done()
    return square


def _blocks_text(head: str, blocks) -> str:
    return head + "\n" + "".join(
        f"{len(b)} {len(b[0])}\n" + "".join(" ".join(str(x) for x in row) + "\n" for row in b.tolist()) for b in blocks
    )


def scheme_text(relation: np.ndarray) -> str:
    d = int(relation.max())
    return _blocks_text(f"{d} {len(relation)}", [(relation == i).astype(np.int64) for i in range(d + 1)])


def linked_system_text(sys: LinkedSystemII) -> str:
    p, base = sys.params, sys.params.base
    triple = f"{p.sigma} {p.tau} {p.rho}" if p.sigma is not None else "- - -"
    return _blocks_text(f"{p.f} {base.v} {base.m} {base.n} {base.k} {base.lambda1} {base.lambda2} {triple}", sys.stack)
