"""Sparse polynomials {monomial tuple: rational} over a rule that
multiplies monomials, and the one derivation that brackets them.

One type serves every algebra of the package.  An `AlgebraElement` holds
its rule and its terms; the rule supplies `mono_times_mono(m1, m2)`, the
product of two monomials as {monomial: int}, and, for brackets,
`mono_bracket_gen(m, g)`, the bracket of a monomial with a generator as
{monomial: int}.  A commutation rule of `algebra` normal-orders the words
of the Yangian (or keeps free words as they are, which have no bracket),
a `poisson.PoissonContext` multiplies commuting variables by sorted
concatenation and brackets them by its truncated Poisson bracket.  Two
elements combine when their rules are equal: a commutation rule is equal
to itself only, a Poisson context to every context on the same index set
and level.

`derivation(a)` is ad_a: b -> [a, b], the commutator ab - ba under a
commutation rule and the Poisson bracket {a, b} under a context.  It
forms ad_a(g) = sum_m c_m [m, g] once per distinct generator g, across
every element it is applied to, and sums the Leibniz terms of each word
of b over its letters, so the leading terms that cancel in ab - ba are
never formed.  `commutator(a, b)` is ad_a applied to b.

Coefficient types.  Rule-level structure constants are plain Python ints.
Every coefficient stored in an AlgebraElement is an exact scalar in the
canonical form of `rationals`: an int when integral, a Q otherwise, so
products of integral coefficients run on ints.  The public constructor
coerces its input through `rat` and drops zeros; results of +, -, *,
`element_sum` and the derivation are built by the trusted constructor
`_from_terms`, which takes a dict that already holds only nonzero
canonical values and stores it as is.  All of them sum their terms with
`rationals.accumulate`, which stores an integral Q as an int; a product
of nonzero scalars is nonzero, so every value it is passed is.
"""
from __future__ import annotations

from .rationals import accumulate, rat


class AlgebraElement:
    """Polynomial over a rule, in the rule's normal form: {monomial:
    rational}."""

    __slots__ = ("rule", "terms")

    def __init__(self, rule, terms: dict):
        self.rule = rule
        self.terms = {m: rat(c) for m, c in terms.items() if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return AlgebraElement(self.rule, {(): other})
        if self.rule != other.rule:
            raise ValueError("elements under different rules")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return _from_terms(self.rule,
                           accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _from_terms(self.rule, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return _from_terms(self.rule, accumulate(
            dict(self.terms), ((m, -c) for m, c in other.terms.items())))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            c = rat(other)
            if c == 1:
                return self  # elements are values: none is changed in place
            return _from_terms(self.rule, accumulate(
                {}, ((m, v * c) for m, v in self.terms.items())) if c else {})
        other = self._coerce(other)
        mtm = self.rule.mono_times_mono
        # c1 * c2 is folded to an int when integral, so that the products
        # with the int structure constants stay on ints
        return _from_terms(self.rule, accumulate({}, [
            (m, c12 if c == 1 else c12 * c)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
            for c12 in (rat(c1 * c2),)
            for m, c in mtm(m1, m2).items()]))

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.rule == other.rule and self.terms == other.terms
        return self.terms == ({(): rat(other)} if other else {})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            word = "*".join(f"g[{r},{i},{j}]" for (r, i, j) in m) or "1"
            bits.append(f"({self.terms[m]})*{word}")
        return " + ".join(bits)


def _from_terms(rule, terms: dict) -> AlgebraElement:
    """Trusted constructor: `terms` holds only nonzero canonical
    coefficients on monomials in the rule's normal form."""
    out = AlgebraElement.__new__(AlgebraElement)
    out.rule = rule
    out.terms = terms
    return out


def element_sum(rule, elements) -> AlgebraElement:
    """The sum of elements under `rule`, accumulated into one term dict
    rather than a running sum that copies it once per summand."""
    acc: dict = {}
    for e in elements:
        accumulate(acc, e.terms.items())
    return _from_terms(rule, acc)


def derivation(a: AlgebraElement):
    """The derivation ad_a: b -> [a, b], for b under any rule equal to
    a's.  A word g_1..g_l of b contributes the Leibniz terms
    sum_j g_1..g_{j-1} ad_a(g_j) g_{j+1}..g_l."""
    rule = a.rule
    mbg, mtm = rule.mono_bracket_gen, rule.mono_times_mono
    ad: dict = {}  # generator g -> [a, g] as {monomial: scalar}

    def apply(b: AlgebraElement) -> AlgebraElement:
        if b.rule != rule:
            raise ValueError("elements under different rules")
        for w in b.terms:
            for g in w:
                if g not in ad:
                    ad[g] = accumulate({}, [(m2, c * c2)
                                            for m, c in a.terms.items()
                                            for m2, c2 in mbg(m, g).items()])
        acc: dict = {}
        for w, cw in b.terms.items():
            for j, g in enumerate(w):
                pre, suf = w[:j], w[j + 1:]
                accumulate(acc, [(m2, cwc * (c1 * c2))
                                 for m, c in ad[g].items()
                                 for cwc in (cw * c,)
                                 for m1, c1 in (mtm(pre, m) if pre
                                                else {m: 1}).items()
                                 for m2, c2 in mtm(m1, suf).items()])
        return _from_terms(rule, acc)

    return apply


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a, b]: the derivation ad_a applied to b."""
    return derivation(a)(b)
