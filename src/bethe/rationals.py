"""Exact rational scalars and the one accumulation kernel shared across
the package.

All arithmetic in this library is exact; gmpy2.mpq is used when available
(identical semantics to fractions.Fraction, much faster), with Fraction as
fallback.

Every sparse term dict (PBW words, tensor entries, bivariate Laurent
coefficients, Poisson monomials, matrix entries) is summed by
`accumulate`.  Its zero test is the value's truth value: rationals and
ints are false at zero, and every element type of the package defines
__bool__ as "has a nonzero term".
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)

_FRACTION_TYPES = (int, Fraction, type(ONE))


def is_rat(x) -> bool:
    """True for plain numeric scalars (int / Fraction / mpq)."""
    return isinstance(x, _FRACTION_TYPES)


def binomial(n: int, k: int):
    if k < 0 or k > n:
        return ZERO
    return Q(comb(n, k))


def format_rat(x) -> str:
    """Canonical "p/q" encoding, lowest terms, q > 0."""
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str):
    if "/" in s:
        p, q = s.split("/")
        return Q(int(p), int(q))
    return Q(int(s))


def accumulate(acc: dict, items) -> dict:
    """Add the (key, value) pairs of `items` into `acc` in place and return
    `acc`.  A new key stores its value as is, so callers pass nonzero
    values; a key whose sum is zero is deleted."""
    get = acc.get
    for k, v in items:
        old = get(k)
        if old is None:
            acc[k] = v
        else:
            v = old + v
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc
