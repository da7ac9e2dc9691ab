"""Reference route for the matrix-block reader: the file held as a decoded
``str`` and its ``splitlines()`` list, with a single-digit block joined back
into bytes before its ``uint8`` view sees it.  The tests compare
``sgdd.fileio``, which reads the file's bytes in place, against it."""

import numpy as np

from sgdd.algebra import IntMatrix
from sgdd.errors import FormatError


def _check_ascii(text: str, what: str) -> None:
    if not text.isascii():
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        line = len((text[:at] + "x").splitlines())
        raise FormatError(f"{what}: non-ASCII character U+{ord(text[at]):04X} on line {line}")


class Lines:
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


def read_digit_block(lines: Lines, rows: int, cols: int) -> np.ndarray | None:
    block = lines.lines[lines.pos : lines.pos + rows]
    if len(block) != rows or any(len(line) != 2 * cols - 1 for line in block):
        return None
    raw = (" ".join(block) + " ").encode("ascii")
    view = np.frombuffer(raw, dtype=np.uint8).reshape(rows, 2 * cols)
    digits = view[:, 0::2] - np.uint8(ord("0"))
    if not ((digits <= 9).all() and (view[:, 1::2] == ord(" ")).all()):
        return None
    lines.pos += rows
    return digits


def read_matrix(lines: Lines) -> np.ndarray:
    rows, cols = lines.ints(2)
    if rows < 1 or cols < 1:
        raise FormatError(f"{lines.what}: matrix dimensions must be positive")
    digits = read_digit_block(lines, rows, cols)
    if digits is not None:
        return digits
    start = lines.pos
    try:
        arr = np.array([lines.next().split() for _ in range(rows)], dtype=np.int64)
        if arr.shape == (rows, cols):
            return arr
    except (ValueError, OverflowError):
        pass
    lines.pos = start
    return IntMatrix([lines.ints(cols) for _ in range(rows)]).a
