"""Free associative algebra with confluent rewriting to PBW normal form.

Generators are triples (level, row, col); native tuple comparison gives the
canonical (level, row, col) lexicographic order, and signed indices order
naturally as integers.  A pluggable commutation rule supplies the commutator
of two generators as a normal-ordered correction; two rules are provided:

* YangianRule — [T_ij^(p), T_kl^(q)] =
      sum_{r=1}^{min(p,q)} (T_kj^(r-1) T_il^(p+q-r) - T_kj^(p+q-r) T_il^(r-1)),
  with the level-0 symbol T^(0)_ab = delta_ab folded into scalars;
* FreeRule — no rewriting at all (plain words), used for formal S-words.

A rule may carry a top level M (`top_level`, None by default).  Such a
capped rule is the quotient by J_M, the span of the normal monomials that
hold a generator of level > M: `element` is zero above M and
`bracket_terms` drops the raw bracket words that hold such a generator.
Each term of [T^(p), T^(q)] holds a generator of level >= max(p, q), so J_M
is a two-sided ideal, and normal forms of elements whose generators lie at
levels <= M are the full rule's with every monomial of J_M dropped.  A
graded symbol at level M kills J_M, so it reads the same through either.
The Yangian capped at level 1 is the enveloping algebra U(gl_N): its
bracket there is [T_ij, T_kl] = d_kj T_il - d_il T_kj, and the evaluation
map T_ij^(r) -> d_r1 E_ij is the quotient by J_1.

Each rule caches three kernels on normal monomials: the generator bracket
(`bracket_terms`), monomial times generator (`mono_times_gen`, which
`mono_times_mono` chains) and the bracket [monomial, generator]
(`mono_bracket_gen`).  The last two are the rule's side of the contract
of `element`: its one derivation, `element.derivation(a)`, builds ad_a
on `mono_bracket_gen` and multiplies out the Leibniz terms through
`mono_times_mono`, and `element.commutator(a, b)` is ad_a applied to b.

`WordMap` is the one algebra map from words into a rule's elements, given
the image of each letter; it forms every distinct word's image once.  The
expansion of formal S-words into the Yangian and the evaluation maps pi
and rho are word maps.

Elements are `element.AlgebraElement`s whose rule is the commutation
rule: sparse dicts {monomial tuple: rational}, multiplied through
`mono_times_mono`; monomials of an element under a commuting rule are
always non-decreasing tuples of generators.  Rule-level structure
constants (raw_bracket, bracket_terms, mono_times_gen, mono_times_mono,
mono_bracket_gen) are plain Python ints: brackets are +-1 and normal
ordering only adds and multiplies them.  The rule-level products sum
their terms with `rationals.accumulate`.
"""
from __future__ import annotations

from .element import AlgebraElement, _from_terms, element_sum
from .indices import IndexSet
from .rationals import ONE, accumulate


class CommutationRule:
    """Base class: caches generator brackets, monomial-times-generator
    products, which dominate the cost of normal ordering, and
    monomial-generator brackets, which commutators are built from."""

    orders = True  # whether monomials get sorted (False for the free rule)

    def __init__(self, index_set: IndexSet, top_level: int | None = None):
        self.index_set = index_set
        self.top_level = top_level
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
        g = self.gen(row, col, level)
        if self.top_level is not None and level > self.top_level:
            return self.zero()
        return _from_terms(self, {(g,): ONE})

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
        """Normal form of the commutator [a, b] as {monomial: int}; under a
        capped rule, the words that hold a generator above the top level
        are dropped before they are ordered."""
        key = (a, b)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        top = self.top_level
        acc = accumulate({}, [(m, coeff * c)
                              for coeff, word in self.raw_bracket(a, b)
                              if top is None or max(word)[0] <= top
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


class FreeRule(CommutationRule):
    """No rewriting: words multiply by concatenation (formal S-words)."""

    orders = False

    def raw_bracket(self, a, b):
        raise ValueError("the free rule has no commutation data")


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


def monomial_degree(m: tuple) -> int:
    return sum(g[0] for g in m)


def filtration_degree(a: AlgebraElement) -> int:
    """Max over monomials of the total generator level."""
    if not a:
        raise ValueError("the zero element has no filtration degree")
    return max(monomial_degree(m) for m in a.terms)


def symbol(a: AlgebraElement, d: int, context) -> AlgebraElement:
    """Image of a degree-<=d element in the degree-d graded component of
    the `PoissonContext` context, read through `context.reduced`.

    Monomials of total level d map to products of commuting variables
    indexed like the generators; strictly lower monomials map to zero.
    """
    if any(monomial_degree(m) > d for m in a.terms):
        raise ValueError("filtration degree exceeds the requested grade")
    # words that differ only in order share a monomial: sum them before
    # the variables are reduced
    return context.reduced(accumulate({}, (
        (tuple(sorted(m)), c) for m, c in a.terms.items()
        if monomial_degree(m) == d)))
