"""Free associative algebra with confluent rewriting to PBW normal form.

Generators are triples (level, row, col); native tuple comparison gives the
canonical (level, row, col) lexicographic order, and signed indices order
naturally as integers.  A pluggable commutation rule supplies the commutator
of two generators as a normal-ordered correction; three rules are provided:

* YangianRule — [T_ij^(p), T_kl^(q)] =
      sum_{r=1}^{min(p,q)} (T_kj^(r-1) T_il^(p+q-r) - T_kj^(p+q-r) T_il^(r-1)),
  with the level-0 symbol T^(0)_ab = delta_ab folded into scalars;
* GlRule — enveloping algebra of gl, [E_ij, E_kl] = d_jk E_il - d_li E_kj,
  every generator at level 1;
* FreeRule — no rewriting at all (plain words), used for formal S-words.

Elements are sparse dicts {monomial tuple: rational}; monomials of an
element under a commuting rule are always non-decreasing tuples of
generators.

Each rule caches three kernels on normal monomials: the generator bracket
(`bracket_terms`), monomial times generator (`mono_times_gen`, which
`mono_times_mono` chains) and the bracket [monomial, generator]
(`mono_bracket_gen`).  `derivation(a)` is ad_a built on the last, so the
leading terms that cancel in ab - ba are never formed; it keeps ad_a(g)
per generator g for every element it is applied to, and `commutator(a,
b)` is ad_a applied to b.

`WordMap` is the one algebra map from words into a rule's elements, given
the image of each letter; it forms every distinct word's image once.  The
expansion of formal S-words into the Yangian and the evaluation maps pi
and rho are word maps.

Coefficient types.  Rule-level structure constants (raw_bracket,
bracket_terms, mono_times_gen, mono_times_mono, mono_bracket_gen) are
plain Python ints: brackets are +-1 and normal ordering only adds and
multiplies them.  Every coefficient stored in an AlgebraElement is an
exact scalar in the canonical form of `rationals`: an int when integral, a
Q otherwise, so products of integral coefficients run on ints.  The
public constructor coerces its input through `rat` and drops zeros;
results of +, -, * and `element_sum` are built by the trusted constructor
`_from_terms`, which takes a dict that already holds only nonzero
canonical values and stores it as is.  All of them, and the rule-level
products, sum their terms with `rationals.accumulate`, which stores an
integral Q as an int; a product of nonzero scalars is nonzero, so every
value it is passed is.
"""
from __future__ import annotations

from .indices import IndexSet
from .rationals import ONE, accumulate, rat


class CommutationRule:
    """Base class: caches generator brackets, monomial-times-generator
    products, which dominate the cost of normal ordering, and
    monomial-generator brackets, which commutators are built from."""

    orders = True  # whether monomials get sorted (False for the free rule)

    def __init__(self, index_set: IndexSet):
        self.index_set = index_set
        self._bracket_cache: dict = {}
        self._mtg_cache: dict = {}
        self._mbg_cache: dict = {}

    # -- generator construction -------------------------------------------

    def gen(self, row: int, col: int, level: int = 1) -> tuple:
        self.index_set.check(row)
        self.index_set.check(col)
        if level < 1:
            raise ValueError("generator level must be >= 1")
        return (level, row, col)

    def element(self, row: int, col: int, level: int = 1) -> "AlgebraElement":
        return _from_terms(self, {(self.gen(row, col, level),): ONE})

    def one(self) -> "AlgebraElement":
        return _from_terms(self, {(): ONE})

    def zero(self) -> "AlgebraElement":
        return _from_terms(self, {})

    # -- rule-specific data -------------------------------------------------

    def raw_bracket(self, a: tuple, b: tuple):
        """[a, b] as a list of (int coefficient, word) with words possibly
        unordered; scalar delta factors already folded."""
        raise NotImplementedError

    # -- normal ordering ----------------------------------------------------

    def bracket_terms(self, a: tuple, b: tuple) -> dict:
        """Normal form of the commutator [a, b] as {monomial: int}."""
        key = (a, b)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        acc = accumulate({}, [(m, coeff * c)
                              for coeff, word in self.raw_bracket(a, b)
                              for m, c in self.order_word(word).items()])
        self._bracket_cache[key] = acc
        self._bracket_cache[(b, a)] = {m: -c for m, c in acc.items()}
        return acc

    def mono_times_gen(self, m: tuple, g: tuple) -> dict:
        """Normal form of (normal monomial m) * (generator g), int
        coefficients."""
        if not self.orders or not m or m[-1] <= g:
            return {m + (g,): 1}
        key = (m, g)
        hit = self._mtg_cache.get(key)
        if hit is not None:
            return hit
        head, a = m[:-1], m[-1]
        # m*g = (head*g)*a + head*[a, g]
        mtg = self.mono_times_gen
        acc = accumulate({}, [(m2, c1 * c2)
                              for m1, c1 in mtg(head, g).items()
                              for m2, c2 in mtg(m1, a).items()])
        accumulate(acc, [(m2, cb * c2)
                         for mb, cb in self.bracket_terms(a, g).items()
                         for m2, c2 in self.mono_times_mono(head, mb).items()])
        self._mtg_cache[key] = acc
        return acc

    def mono_bracket_gen(self, m: tuple, g: tuple) -> dict:
        """Normal form of [m, g] = m*g - g*m for a normal monomial m and a
        generator g, int coefficients."""
        if not m:
            return {}
        key = (m, g)
        hit = self._mbg_cache.get(key)
        if hit is not None:
            return hit
        head, a = m[:-1], m[-1]
        # [head*a, g] = [head, g]*a + head*[a, g]
        mbg, mtg = self.mono_bracket_gen, self.mono_times_gen
        acc = accumulate({}, [(m2, c1 * c2)
                              for m1, c1 in mbg(head, g).items()
                              for m2, c2 in mtg(m1, a).items()])
        accumulate(acc, [(m2, cb * c2)
                         for mb, cb in self.bracket_terms(a, g).items()
                         for m2, c2 in self.mono_times_mono(head, mb).items()])
        self._mbg_cache[key] = acc
        return acc

    def mono_times_mono(self, m1: tuple, m2: tuple) -> dict:
        """Normal form of m1 * m2 with int coefficients, for a normal m1.

        When m2 is normal too and the seam m1[-1] <= m2[0] is ordered, the
        concatenation is already normal.  An empty m1 takes the general
        path, because order_word passes arbitrary words as m2.
        """
        if not self.orders or not m2 or (m1 and m1[-1] <= m2[0]):
            return {m1 + m2: 1}
        mtg = self.mono_times_gen
        acc = mtg(m1, m2[0])
        for g in m2[1:]:
            acc = accumulate({}, [(mm, c * cc) for m, c in acc.items()
                                  for mm, cc in mtg(m, g).items()])
        return acc

    def order_word(self, word: tuple) -> dict:
        return self.mono_times_mono((), word)


class YangianRule(CommutationRule):
    """Defining commutation relations of the Yangian of gl_N."""

    def raw_bracket(self, a, b):
        (p, i, j), (q, k, l) = a, b
        out = []
        for r in range(1, min(p, q) + 1):
            out += self._pair(k, j, r - 1, i, l, p + q - r, 1)
            out += self._pair(k, j, p + q - r, i, l, r - 1, -1)
        return out

    def _pair(self, k, j, s, i, l, t, sign):
        # T_kj^(s) T_il^(t) with T^(0)_ab = delta_ab folded in; s + t =
        # p + q - 1 >= 1, so at most one level is 0
        if s == 0:
            return [(sign, ((t, i, l),))] if k == j else []
        if t == 0:
            return [(sign, ((s, k, j),))] if i == l else []
        return [(sign, ((s, k, j), (t, i, l)))]


class GlRule(CommutationRule):
    """Enveloping algebra of gl: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""

    def gen(self, row, col, level=1):
        if level != 1:
            raise ValueError("gl generators live at level 1")
        return super().gen(row, col, 1)

    def raw_bracket(self, a, b):
        (_, i, j), (_, k, l) = a, b
        out = []
        if j == k:
            out.append((1, ((1, i, l),)))
        if l == i:
            out.append((-1, ((1, k, j),)))
        return out


class FreeRule(CommutationRule):
    """No rewriting: words multiply by concatenation (formal S-words)."""

    orders = False

    def raw_bracket(self, a, b):
        raise ValueError("the free rule has no commutation data")


class AlgebraElement:
    """Noncommutative polynomial in PBW normal form: {monomial: rational}."""

    __slots__ = ("rule", "terms")

    def __init__(self, rule: CommutationRule, terms: dict):
        self.rule = rule
        self.terms = {m: rat(c) for m, c in terms.items() if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return AlgebraElement(self.rule, {(): other})
        if self.rule is not other.rule:
            raise ValueError("elements under different commutation rules")
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
            return self.rule is other.rule and self.terms == other.terms
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


def _from_terms(rule: CommutationRule, terms: dict) -> AlgebraElement:
    """Trusted constructor: `terms` holds only nonzero canonical
    coefficients."""
    out = AlgebraElement.__new__(AlgebraElement)
    out.rule = rule
    out.terms = terms
    return out


def element_sum(rule: CommutationRule, elements) -> AlgebraElement:
    """The sum of elements under `rule`, accumulated into one term dict
    rather than a running sum that copies it once per summand."""
    acc: dict = {}
    for e in elements:
        accumulate(acc, e.terms.items())
    return _from_terms(rule, acc)


class WordMap:
    """The algebra map into elements under `rule` that sends a generator g
    to letter(g): a word goes to the product of its letters' images, an
    element to the sum of its words' images.

    Each word's image is formed once and kept: the image of its longest
    proper prefix times the image of its last letter.  A one-letter word's
    image is its letter's, not one times it, which would normal-order it
    again."""

    def __init__(self, rule: CommutationRule, letter):
        self.rule = rule
        self.letter = letter
        self._images: dict = {(): rule.one()}

    def word(self, w: tuple) -> AlgebraElement:
        hit = self._images.get(w)
        if hit is None:
            hit = self._images[w] = (
                self.letter(w[0]) if len(w) == 1
                else self.word(w[:-1]) * self.word(w[-1:]))
        return hit

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        return element_sum(self.rule, (self.word(w) * c
                                       for w, c in a.terms.items()))


def derivation(a: AlgebraElement):
    """The derivation ad_a: b -> normal form of ab - ba.

    ad_a(g) = sum_m c_m [m, g] is formed once per distinct generator g,
    across every element the derivation is applied to, and a word
    g_1..g_l of b contributes the Leibniz terms
    sum_j g_1..g_{j-1} ad_a(g_j) g_{j+1}..g_l, so the leading terms that
    cancel in ab - ba are never formed.  Free words have no bracket."""
    rule = a.rule
    mbg, mtm = rule.mono_bracket_gen, rule.mono_times_mono
    ad: dict = {}  # generator g -> [a, g] as {monomial: scalar}

    def apply(b: AlgebraElement) -> AlgebraElement:
        if b.rule is not rule:
            raise ValueError("elements under different commutation rules")
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
    """Normal form of ab - ba: the derivation ad_a applied to b."""
    return derivation(a)(b)


def monomial_degree(m: tuple) -> int:
    return sum(g[0] for g in m)


def filtration_degree(a: AlgebraElement) -> int:
    """Max over monomials of the total generator level."""
    if not a:
        raise ValueError("the zero element has no filtration degree")
    return max(monomial_degree(m) for m in a.terms)


def symbol(a: AlgebraElement, d: int, context):
    """Image of a degree-<=d element in the degree-d graded component of
    the `PoissonContext` context.

    Monomials of total level d map to products of commuting variables
    indexed like the generators; strictly lower monomials map to zero.
    """
    from .poisson import PoissonPoly

    if any(monomial_degree(m) > d for m in a.terms):
        raise ValueError("filtration degree exceeds the requested grade")
    return PoissonPoly(context, accumulate({}, (
        (tuple(sorted(m)), c) for m, c in a.terms.items()
        if monomial_degree(m) == d)))

