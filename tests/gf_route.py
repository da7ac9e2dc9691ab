"""The field as coefficient tuples: GF(p^d) arithmetic on tuples
(c0, ..., c_{d-1}) over Z_p (c0 = constant term), by polynomial products
reduced by the modulus, with elements numbered in lexicographic order of
their tuples.  It is the oracle for the tables of ``sgdd.gf.GFContext``."""

from __future__ import annotations

from itertools import product


def _trim(c) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, x in enumerate(m):
            a[shift + i] = (a[shift + i] - c * x) % p
        a = list(_trim(a))
    return _trim(a)


class TupleField:
    """GF(p^d) on coefficient tuples, for a given monic modulus."""

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p, self.d, self.q, self.modulus = p, d, p**d, modulus
        # lexicographic order on coefficient tuples puts 0 first
        self.elements = [tuple(c) for c in product(range(p), repeat=d)]
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.zero = self.elements[0]
        self.one = tuple([1] + [0] * (d - 1))

    def index(self, x: tuple[int, ...]) -> int:
        return self._index[x]

    def element(self, i: int) -> tuple[int, ...]:
        return self.elements[i]

    def _pad(self, c) -> tuple[int, ...]:
        return tuple(list(c) + [0] * (self.d - len(c)))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        return self._pad(_poly_mod(_poly_mul(_trim(x), _trim(y), self.p), self.modulus, self.p))

    def pow(self, x, e: int):
        out, base = self.one, x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, x):
        if x == self.zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(x, self.q - 2)

    def nonzero(self) -> list[tuple[int, ...]]:
        return [e for e in self.elements if e != self.zero]

    def primitive_element(self) -> tuple[int, ...]:
        """First element (enumeration order) generating the multiplicative group."""
        for x in self.nonzero():
            y, order = x, 1
            while y != self.one:
                y = self.mul(y, x)
                order += 1
            if order == self.q - 1:
                return x
        raise RuntimeError("multiplicative group is not cyclic")

    def discrete_log_table(self, base) -> dict[tuple[int, ...], int]:
        table = {}
        y = self.one
        for t in range(self.q - 1):
            table[y] = t
            y = self.mul(y, base)
        assert len(table) == self.q - 1, "base does not generate the multiplicative group"
        return table

    def squares(self) -> set[tuple[int, ...]]:
        return {self.mul(x, x) for x in self.nonzero()}


def tuple_field(ctx) -> TupleField:
    """The tuple arithmetic of the field ``ctx`` holds as tables."""
    return TupleField(ctx.p, ctx.d, ctx.modulus)
