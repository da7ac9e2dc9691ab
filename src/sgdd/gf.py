"""Finite fields GF(p^d), held as operation tables over element indices.

An element is its index 0..q-1: the coefficient tuple (c0, c1, ..., c_{d-1})
over Z_p (c0 = constant term) numbered in lexicographic order, so the zero
element is index 0 and the order is identical across runs.  The modulus is
the lexicographically smallest irreducible monic polynomial of degree d,
found by trial factorisation.  The tables are filled once per field (Lidl and
Niederreiter, *Finite Fields*, ch. 9):

* ``add[x][y]``, ``mul[x][y]``, ``neg[x]`` and ``inv[x]`` (None at 0);
* ``one``, the index of the unit;
* ``log[x]``, the discrete logarithm of x to the first element, in index
  order, that generates the multiplicative group (None at 0).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import ParameterError


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1 if f == 2 else 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p**d, or raise if q is not a prime power."""
    if q < 2:
        raise ParameterError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            d = 0
            r = q
            while r % p == 0:
                r //= p
                d += 1
            if r != 1:
                raise ParameterError(f"{q} is not a prime power")
            return p, d
    raise ParameterError(f"{q} is not a prime power")


def _reduce(c, modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The coefficients (c0 first) of c mod the monic modulus over Z_p, as
    many as the modulus's degree e: X^t = -X^(t-e) (m_0 + ... + m_{e-1} X^{e-1})
    for t from the top down to e."""
    c, e = list(c), len(modulus) - 1
    for t in range(len(c) - 1, e - 1, -1):
        for s, m in enumerate(modulus[:e]):
            c[t - e + s] -= c[t] * m
    return tuple(a % p for a in c[:e])


def _times(x, y, modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The product of two coefficient tuples, reduced by the modulus."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return _reduce(prod, modulus, p)


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    """The first monic polynomial of degree d, by tails in lexicographic
    order, with no monic divisor of degree 1..d/2 (trial factorisation)."""
    divisors = [tail + (1,) for e in range(1, d // 2 + 1) for tail in product(range(p), repeat=e)]
    candidates = (tail + (1,) for tail in product(range(p), repeat=d))
    return next(m for m in candidates if all(any(_reduce(m, c, p)) for c in divisors))


class GFContext:
    """GF(p^d) as tables over the element indices 0..q-1."""

    def __init__(self, p: int, d: int = 1):
        if not is_prime(p):
            raise ParameterError(f"{p} is not prime")
        if d < 1:
            raise ParameterError("extension degree must be at least 1")
        self.p = p
        self.d = d
        self.q = q = p**d
        self.modulus = _find_modulus(p, d)
        coeffs = list(product(range(p), repeat=d))  # of each index, c0 first
        index = {c: x for x, c in enumerate(coeffs)}
        self.add = tuple(tuple(index[tuple((a + b) % p for a, b in zip(x, y))] for y in coeffs) for x in coeffs)
        self.neg = tuple(index[tuple(-a % p for a in x)] for x in coeffs)
        self.one = index[(1,) + (0,) * (d - 1)]
        # the powers of the first generator in index order, by polynomial
        # products; log, inv and mul are read off them
        for g in coeffs[1:]:
            powers, x = [self.one], g
            while x != coeffs[self.one]:
                powers.append(index[x])
                x = _times(x, g, self.modulus, p)
            if len(powers) == q - 1:
                break
        log = [None] * q
        for t, x in enumerate(powers):
            log[x] = t
        self.log = tuple(log)
        self.inv = (None,) + tuple(powers[-t] for t in log[1:])
        exp = powers * 2  # g^t for t < 2(q - 1): a sum of two logs
        self.mul = ((0,) * q,) + tuple((0,) + tuple(exp[s + t] for t in log[1:]) for s in log[1:])

    def __repr__(self):
        return f"GF({self.p}^{self.d})" if self.d > 1 else f"GF({self.p})"


# the add and mul tables take 16 q^2 bytes, so the cache keeps the last few
# fields rather than every field a process visits
@lru_cache(maxsize=4)
def gf_make(p: int, d: int = 1) -> GFContext:
    return GFContext(p, d)


def gf_from_order(q: int) -> GFContext:
    p, d = factor_prime_power(q)
    return gf_make(p, d)
