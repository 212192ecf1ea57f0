"""Truncated formal series in u^-1 over an arbitrary coefficient ring.

The ring is a tiny adapter carrying the zero and one elements; all
arithmetic goes through the coefficients' own operators (+, -, *), and
right-multiplication by exact rationals is assumed to work on every
coefficient type (it does for rationals, algebra elements and tensors).

Also provided:

* RationalFactor — a quotient of u-polynomials expandable at u = infinity,
  used for scalar normalizations like omega(u) and theta(u);
* BiLaurent — bivariate Laurent objects in (u, v) with bounded positive
  degrees and per-variable accuracy caps, used for the exact matrix-form
  relation checks where R-matrix factors contribute positive powers.
"""
from __future__ import annotations

from .rationals import ONE, Q, ZERO, accumulate, binomial


class Ring:
    """The zero and one of a coefficient ring.  It has no zero test: a
    coefficient is zero exactly when it is false, as rationals are and as
    every element type of the package defines __bool__."""

    __slots__ = ("zero", "one")

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one


RATIONAL_RING = Ring(ZERO, ONE)


def algebra_ring(rule) -> Ring:
    return Ring(rule.zero(), rule.one())


class TruncatedSeries:
    """sum_{s<=D} c_s u^{-s} + O(u^{-(D+1)}).

    Binary operations re-truncate to the smaller trunc of the operands, so
    accuracy is never overstated.
    """

    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring: Ring, coeffs, trunc: int):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = list(coeffs)[: trunc + 1]
        coeffs += [ring.zero] * (trunc + 1 - len(coeffs))
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(ring: Ring, value, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries(ring, [value], trunc)

    @staticmethod
    def one(ring: Ring, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(ring, ring.one, trunc)

    @staticmethod
    def zero(ring: Ring, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries(ring, [], trunc)

    # -- basics --------------------------------------------------------------

    def map_coeffs(self, f, ring: Ring | None = None) -> "TruncatedSeries":
        return TruncatedSeries(ring or self.ring,
                               [f(c) for c in self.coeffs], self.trunc)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        D = min(self.trunc, other.trunc)
        return self.coeffs[: D + 1] == other.coeffs[: D + 1]

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, D={self.trunc})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        D = min(self.trunc, other.trunc)
        return TruncatedSeries(
            self.ring,
            [a + b for a, b in zip(self.coeffs, other.coeffs)], D)

    def __sub__(self, other):
        D = min(self.trunc, other.trunc)
        return TruncatedSeries(
            self.ring,
            [a - b for a, b in zip(self.coeffs, other.coeffs)], D)

    def __neg__(self):
        return TruncatedSeries(self.ring, [-c for c in self.coeffs], self.trunc)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = Q(other)
            return self.map_coeffs(lambda x: x * c)
        D = min(self.trunc, other.trunc)
        zero = self.ring.zero
        out = [zero] * (D + 1)
        for r, a in enumerate(self.coeffs[: D + 1]):
            if not a:
                continue
            for s in range(D + 1 - r):
                b = other.coeffs[s]
                if b:
                    out[r + s] = out[r + s] + a * b
        return TruncatedSeries(self.ring, out, D)

    def __rmul__(self, other):
        # rational scalars only; they commute with every coefficient ring
        c = Q(other)
        return self.map_coeffs(lambda x: x * c)

    def scale(self, elem, side: str = "left") -> "TruncatedSeries":
        """Multiply every coefficient by a fixed ring element."""
        if side == "left":
            return self.map_coeffs(lambda x: elem * x)
        return self.map_coeffs(lambda x: x * elem)

    # -- the two workhorses ---------------------------------------------------

    def substitute_affine(self, a, b) -> "TruncatedSeries":
        """Re-expand s(a*u + b) in u^-1; exact per coefficient."""
        a = Q(a)
        b = Q(b)
        if a == 0:
            raise ValueError("affine substitution needs a != 0")
        ratio = b / a
        out = [self.coeffs[0]] + [self.ring.zero] * self.trunc
        for r in range(1, self.trunc + 1):
            c = self.coeffs[r]
            if not c:
                continue
            base = (ONE / a) ** r
            for s in range(r, self.trunc + 1):
                m = s - r
                w = base * (-ratio) ** m * binomial(s - 1, m)
                out[s] = out[s] + c * w
        return TruncatedSeries(self.ring, out, self.trunc)

    def invert(self) -> "TruncatedSeries":
        """Series inverse; the constant term must be the ring unit or an
        invertible rational."""
        c0 = self.coeffs[0]
        ring = self.ring
        if c0 == ring.one:
            inv0 = None
        else:
            try:
                inv0 = ONE / Q(c0)
            except (TypeError, ZeroDivisionError):
                raise ValueError("singular leading term: cannot invert")
        t = [ring.one if inv0 is None else ring.one * inv0]
        for s in range(1, self.trunc + 1):
            acc = ring.zero
            for r in range(1, s + 1):
                acc = acc + self.coeffs[r] * t[s - r]
            acc = -acc
            t.append(acc if inv0 is None else acc * inv0)
        return TruncatedSeries(ring, t, self.trunc)


class RationalFactor:
    """num(u)/den(u) with deg num <= deg den, expandable at u = infinity.

    Coefficient lists are ascending in u.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = [Q(c) for c in num]
        den = [Q(c) for c in den]
        while num and num[-1] == 0:
            num.pop()
        while den and den[-1] == 0:
            den.pop()
        if not den:
            raise ValueError("zero denominator")
        if num and len(num) > len(den):
            raise ValueError("improper fraction: not expandable at infinity")
        self.num = tuple(num)
        self.den = tuple(den)

    def expand(self, D: int) -> TruncatedSeries:
        """Exact Taylor expansion at u = infinity to order D."""
        e = len(self.den) - 1
        # rewrite in w = 1/u:  num/u^e over den/u^e
        p = [ZERO] * (D + 1)
        for i, c in enumerate(self.num):
            if e - i <= D:
                p[e - i] = c
        q = [ZERO] * (D + 1)
        for i, c in enumerate(self.den):
            if e - i <= D:
                q[e - i] = c
        t = [p[0] / q[0]]
        for s in range(1, D + 1):
            acc = p[s]
            for r in range(1, s + 1):
                acc = acc - q[r] * t[s - r]
            t.append(acc / q[0])
        return TruncatedSeries(RATIONAL_RING, t, D)


INF_CAP = 10 ** 9  # "exact" accuracy for polynomial data


class BiLaurent:
    """Bivariate Laurent expression sum c_{ab} u^a v^b with finitely many
    positive powers, trusted for u-exponents >= -cap_u and v-exponents
    >= -cap_v.  Entries below a cap are dropped silently, so equality and
    zero-tests only ever speak about the trusted window.
    """

    __slots__ = ("ring", "entries", "cap_u", "cap_v")

    def __init__(self, ring: Ring, entries: dict, cap_u: int, cap_v: int):
        self.ring = ring
        self.entries = {
            k: v for k, v in entries.items()
            if k[0] >= -cap_u and k[1] >= -cap_v and v
        }
        self.cap_u = cap_u
        self.cap_v = cap_v

    @staticmethod
    def constant(ring: Ring, value, cap_u=INF_CAP, cap_v=INF_CAP) -> "BiLaurent":
        return BiLaurent(ring, {(0, 0): value}, cap_u, cap_v)

    def max_deg(self) -> tuple[int, int]:
        if not self.entries:
            return (0, 0)
        return (max(a for a, _ in self.entries), max(b for _, b in self.entries))

    def __add__(self, other: "BiLaurent") -> "BiLaurent":
        return BiLaurent(self.ring,
                         accumulate(dict(self.entries), other.entries.items()),
                         min(self.cap_u, other.cap_u),
                         min(self.cap_v, other.cap_v))

    def __neg__(self):
        return BiLaurent(self.ring, {k: -v for k, v in self.entries.items()},
                         self.cap_u, self.cap_v)

    def __sub__(self, other: "BiLaurent") -> "BiLaurent":
        return BiLaurent(self.ring,
                         accumulate(dict(self.entries),
                                    ((k, -v) for k, v in other.entries.items())),
                         min(self.cap_u, other.cap_u),
                         min(self.cap_v, other.cap_v))

    def __mul__(self, other) -> "BiLaurent":
        if not isinstance(other, BiLaurent):
            c = Q(other)
            return BiLaurent(self.ring,
                             {k: v * c for k, v in self.entries.items()},
                             self.cap_u, self.cap_v)
        # unknown tails shifted by the partner's top degrees bound the
        # trusted window of the product
        du_s, dv_s = self.max_deg()
        du_o, dv_o = other.max_deg()
        cap_u = min(self.cap_u - du_o, other.cap_u - du_s)
        cap_v = min(self.cap_v - dv_o, other.cap_v - dv_s)
        # a product of nonzero tensors may vanish; the constructor drops it
        acc = accumulate({}, (
            ((a, b), v1 * v2)
            for (a1, b1), v1 in self.entries.items()
            for (a2, b2), v2 in other.entries.items()
            for a, b in ((a1 + a2, b1 + b2),)
            if a >= -cap_u and b >= -cap_v))
        return BiLaurent(self.ring, acc, cap_u, cap_v)

    def __rmul__(self, other):
        return self * other

    def swap(self) -> "BiLaurent":
        """The same expression with u and v exchanged."""
        return BiLaurent(self.ring,
                         {(b, a): c for (a, b), c in self.entries.items()},
                         self.cap_v, self.cap_u)

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, BiLaurent):
            return NotImplemented
        return (self - other).is_zero()
