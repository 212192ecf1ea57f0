"""Truncated formal series in u^-1 over an arbitrary coefficient ring.

The ring is a tiny adapter carrying the zero and one elements and the
sum of many elements; all other arithmetic goes through the coefficients'
own operators (+, -, *), and right-multiplication by exact rationals is
assumed to work on every coefficient type (it does for rationals, algebra
elements and tensors).  A product coefficient, and every other sum over
ring elements, is formed by one `Ring.sum` of all its terms rather than
by a running sum that copies the partial result once per term.

Also provided:

* one_over_c_minus_2u — the expansion of 1/(c - 2u) in closed form, the
  scalar of the normalized R-matrix factors and of theta(u);
* BiLaurent — bivariate Laurent objects in (u, v) with bounded positive
  degrees and per-variable accuracy caps, used for the exact matrix-form
  relation checks where R-matrix factors contribute positive powers.
"""
from __future__ import annotations

from .algebra import element_sum
from .rationals import accumulate, binomial, div, rat


class Ring:
    """The zero and one of a coefficient ring, and `sum(parts)`, the sum of
    a list of its elements formed in one pass.  It has no zero test: a
    coefficient is zero exactly when it is false, as rationals are and as
    every element type of the package defines __bool__.  `rational` marks
    the rationals and the tensors over them."""

    __slots__ = ("zero", "one", "sum", "rational")

    def __init__(self, zero, one, sum, rational=False):
        self.zero = zero
        self.one = one
        self.sum = sum
        self.rational = rational


RATIONAL_RING = Ring(0, 1, lambda parts: rat(sum(parts)), rational=True)


def algebra_ring(rule) -> Ring:
    """Algebra elements under `rule`, summed into one term dict."""
    return Ring(rule.zero(), rule.one(),
                lambda parts: element_sum(rule, parts))


def sum_terms(ring: Ring, items) -> dict:
    """{key: sum of its values} over (key, value) pairs with values in
    `ring`, zero sums dropped.  Rationals accumulate in place; ring
    elements are collected per key and summed once by `ring.sum`, so no
    element is copied per summand."""
    if ring is RATIONAL_RING:
        return accumulate({}, items)
    groups: dict = {}
    for k, v in items:
        group = groups.get(k)
        if group is None:
            groups[k] = [v]
        else:
            group.append(v)
    out = {}
    for k, vs in groups.items():
        v = vs[0] if len(vs) == 1 else ring.sum(vs)
        if v:
            out[k] = v
    return out


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
        if ring is RATIONAL_RING:
            coeffs = [rat(c) for c in coeffs]
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
            c = rat(other)
            return self.map_coeffs(lambda x: x * c)
        D = min(self.trunc, other.trunc)
        a, b = self.coeffs, other.coeffs
        # a rational factor takes the ring of its partner, from either side;
        # a factor that is its ring's one, this very object, is skipped
        # where the partner lies in `ring`, so no rational stands in for it
        ring = other.ring if self.ring.rational else self.ring
        lone, rone = (f.ring.one if g.ring.rational == ring.rational else None
                      for f, g in ((self, other), (other, self)))
        return TruncatedSeries(ring, [
            ring.sum([x if y is rone else y if x is lone else x * y
                      for x, y in zip(a[:s + 1], b[s::-1]) if x and y])
            for s in range(D + 1)], D)

    # -- the two workhorses ---------------------------------------------------

    def substitute_affine(self, a, b) -> "TruncatedSeries":
        """Re-expand s(a*u + b) in u^-1; exact per coefficient."""
        if not a:
            raise ValueError("affine substitution needs a != 0")
        inv = div(1, a)
        shift = -div(b, a)
        # u^-r becomes sum_{s >= r} a^-r (-b/a)^(s-r) C(s-1, s-r) u^-s
        c = self.coeffs
        return TruncatedSeries(self.ring, [c[0]] + [
            self.ring.sum([c[r] * (inv ** r * shift ** (s - r)
                                   * binomial(s - 1, s - r))
                           for r in range(1, s + 1) if c[r]])
            for s in range(1, self.trunc + 1)], self.trunc)

    def invert(self) -> "TruncatedSeries":
        """Series inverse; the constant term must be the ring unit or an
        invertible rational."""
        c0 = self.coeffs[0]
        ring = self.ring
        if c0 == ring.one:
            inv0 = None
        else:
            try:
                inv0 = div(1, c0)
            except (TypeError, ZeroDivisionError):
                raise ValueError("singular leading term: cannot invert")
        t = [ring.one if inv0 is None else ring.one * inv0]
        for s in range(1, self.trunc + 1):
            acc = -ring.sum([self.coeffs[r] * t[s - r]
                             for r in range(1, s + 1) if self.coeffs[r]])
            t.append(acc if inv0 is None else acc * inv0)
        return TruncatedSeries(ring, t, self.trunc)


def one_over_c_minus_2u(c, D: int) -> TruncatedSeries:
    """1/(c - 2u) = -sum_{r>=1} c^(r-1) 2^-r u^-r, expanded at u = infinity
    through order D."""
    return TruncatedSeries(RATIONAL_RING, [0] + [
        div(-c ** (r - 1), 2 ** r) for r in range(1, D + 1)], D)


INF_CAP = 10 ** 9  # "exact" accuracy for polynomial data


class BiLaurent:
    """Bivariate Laurent expression sum c_{ab} u^a v^b with finitely many
    positive powers, trusted for u-exponents >= -cap_u and v-exponents
    >= -cap_v.  Entries below a cap are dropped silently, so equality and
    zero-tests only ever speak about the trusted window.  A product with
    one rational operand lives in the ring of the other.
    """

    __slots__ = ("ring", "entries", "cap_u", "cap_v")

    def __init__(self, ring: Ring, entries: dict, cap_u: int, cap_v: int):
        self.ring = ring
        self.entries = {
            k: rat(v) if ring is RATIONAL_RING else v
            for k, v in entries.items()
            if k[0] >= -cap_u and k[1] >= -cap_v and v
        }
        self.cap_u = cap_u
        self.cap_v = cap_v

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
            c = rat(other)
            return BiLaurent(self.ring,
                             {k: v * c for k, v in self.entries.items()},
                             self.cap_u, self.cap_v)
        # unknown tails shifted by the partner's top degrees bound the
        # trusted window of the product
        du_s, dv_s = self.max_deg()
        du_o, dv_o = other.max_deg()
        cap_u = min(self.cap_u - du_o, other.cap_u - du_s)
        cap_v = min(self.cap_v - dv_o, other.cap_v - dv_s)
        ring = other.ring if self.ring.rational else self.ring
        # a product of nonzero tensors may vanish; sum_terms drops it
        acc = sum_terms(ring, (
            ((a, b), v1 * v2)
            for (a1, b1), v1 in self.entries.items()
            for (a2, b2), v2 in other.entries.items()
            for a, b in ((a1 + a2, b1 + b2),)
            if a >= -cap_u and b >= -cap_v))
        return BiLaurent(ring, acc, cap_u, cap_v)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, BiLaurent):
            return NotImplemented
        return not (self - other)
