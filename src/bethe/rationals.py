"""Exact scalars in one canonical form, and the one accumulation kernel
shared across the package.

All arithmetic in this library is exact.  `Q` is the backend rational
type: gmpy2.mpq when available (identical semantics to
fractions.Fraction, much faster), with Fraction as fallback.

Canonical form.  An exact scalar is a plain `int` when it is integral (the
backend's integer type under gmpy2) and a `Q` only when its denominator
exceeds 1.  Most coefficients of the algebra are integral, and an int
multiplies and adds dozens of times faster than a Fraction.  An int and a
`Q` of equal value compare and hash equal, and `format_rat` reads
`.numerator`/`.denominator` on both, so the form never shows in a result
or a report.

* `rat(p, q=1)` is the canonical constructor: it takes an int, a `Q` or
  the quotient of two of them, and rejects floats and strings.
* `div(a, b)` is the only true division, because `/` on two ints gives a
  float.
* A `Q` result of `+`, `-` or `*` can be integral; `accumulate` folds
  every value it stores, and the element types fold the scalars they are
  built from.

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

ZERO = 0
ONE = 1

_RAT_TYPES = (int, Fraction, Q)


def is_rat(x) -> bool:
    """True for plain numeric scalars (int / Fraction / mpq)."""
    return isinstance(x, _RAT_TYPES)


def div(a, b):
    """The exact quotient a / b of two scalars, in canonical form."""
    x = Q(a, b)
    return x.numerator if x.denominator == 1 else x


def rat(p, q=1):
    """The exact scalar p / q in canonical form: an int when integral, a
    `Q` otherwise."""
    if q == 1:
        t = type(p)
        if t is int:
            return p
        if t is Q:
            return p.numerator if p.denominator == 1 else p
    return div(p, q)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def format_rat(x) -> str:
    """Canonical "p/q" encoding, lowest terms, q > 0."""
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s):
    """An exact scalar from "p/q" or "n" text, or from a JSON integer.
    Floats and booleans are refused: a float is not exact, and a boolean
    would read as 0 or 1."""
    if type(s) is int:
        return s
    if not isinstance(s, str):
        raise ValueError(f"expected an integer or a \"p/q\" string, "
                         f"not {s!r}")
    if "/" in s:
        p, q = s.split("/")
        return rat(int(p), int(q))
    return int(s)


def accumulate(acc: dict, items) -> dict:
    """Add the (key, value) pairs of `items` into `acc` in place and return
    `acc`.  A new key stores its value, so callers pass nonzero values; a
    key whose sum is zero is deleted.  An integral `Q` is stored as an int,
    so the kernel also serves to store fresh products."""
    get = acc.get
    rational = Q  # a local name: this loop is the hottest in the package
    for k, v in items:
        old = get(k)
        if old is not None:
            v = old + v
            if not v:
                del acc[k]
                continue
        if type(v) is rational and v.denominator == 1:
            v = v.numerator
        acc[k] = v
    return acc
