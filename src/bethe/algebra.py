"""Free associative algebra with confluent rewriting to PBW normal form.

Generators are triples (level, row, col); native tuple comparison gives the
canonical (level, row, col) lexicographic order, and signed indices order
naturally as integers.  A pluggable commutation rule supplies the commutator
of two generators as a normal-ordered correction; two rules are provided:

* YangianRule — [T_ij^(p), T_kl^(q)] =
      sum_{r=1}^{min(p,q)} (T_kj^(r-1) T_il^(p+q-r) - T_kj^(p+q-r) T_il^(r-1)),
  with the level-0 symbol T^(0)_ab = delta_ab folded into scalars;
* GlRule — enveloping algebra of gl, [E_ij, E_kl] = d_jk E_il - d_li E_kj,
  every generator at level 1;
* FreeRule — no rewriting at all (plain words), used for formal S-words.

Elements are sparse dicts {monomial tuple: rational}; monomials of an
element under a commuting rule are always non-decreasing tuples of
generators.

`WordMap` is the one algebra map from words into a rule's elements, given
the image of each letter; it forms every distinct word's image once.  The
expansion of formal S-words into the Yangian and the evaluation maps pi
and rho are word maps.

Coefficient types.  Rule-level structure constants (raw_bracket,
bracket_terms, mono_times_gen, mono_times_mono) are plain Python ints:
brackets are +-1 and normal ordering only adds and multiplies them.  Every
coefficient stored in an AlgebraElement is an exact scalar in the
canonical form of `rationals`: an int when integral, a Q otherwise, so
products of integral coefficients run on ints.  The public constructor
coerces its input through `rat` and drops zeros; results of +, -, * and
`element_sum` are built by the trusted constructor `_from_terms`, which
takes a dict that already holds only nonzero canonical values and stores
it as is.  All of them, and the rule-level products, sum their terms with
`rationals.accumulate`, which stores an integral Q as an int; a product of
nonzero scalars is nonzero, so every value it is passed is.
"""
from __future__ import annotations

from .indices import IndexSet
from .rationals import ONE, accumulate, is_rat, rat


class CommutationRule:
    """Base class: caches generator brackets and monomial-times-generator
    products, which dominate the cost of normal ordering."""

    orders = True  # whether monomials get sorted (False for the free rule)

    def __init__(self, index_set: IndexSet):
        self.index_set = index_set
        self._bracket_cache: dict = {}
        self._mtg_cache: dict = {}

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
        # T_kj^(s) T_il^(t) with T^(0)_ab = delta_ab folded in
        if s == 0 and t == 0:
            return [(sign, ())] if (k == j and i == l) else []
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

    def is_zero(self) -> bool:
        return not self.terms

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
            if not is_rat(other):
                return NotImplemented  # a tensor scales itself by an element
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


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Normal form of ab - ba."""
    if a.rule is not b.rule:
        raise ValueError("elements under different commutation rules")
    return a * b - b * a


def monomial_degree(m: tuple) -> int:
    return sum(g[0] for g in m)


def filtration_degree(a: AlgebraElement) -> int:
    """Max over monomials of the total generator level."""
    if a.is_zero():
        raise ValueError("the zero element has no filtration degree")
    return max(monomial_degree(m) for m in a.terms)


def _inversions(word: tuple) -> int:
    return sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def normal_order(word, rule: CommutationRule, coeff=ONE, strategy: str = "left",
                 trace: list | None = None) -> AlgebraElement:
    """Rewrite a word of generators into PBW normal form.

    Independent of the two reduction strategies ('left' resolves the
    leftmost adjacent inversion first, 'right' the rightmost); this is the
    confluence property the cached engine relies on.  When `trace` is a
    list, every rewrite step appends ((degree, inversions) before, after)
    and the strict lexicographic decrease is asserted.
    """
    if strategy not in ("left", "right"):
        raise ValueError(f"unknown strategy {strategy!r}")
    word = tuple(word)
    for g in word:
        rule.gen(g[1], g[2], g[0])  # validates indices and level
    pending = [(rat(coeff), word)]
    done: dict = {}
    while pending:
        c, w = pending.pop()
        spots = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not spots:
            accumulate(done, ((w, c),))
            continue
        pos = spots[0] if strategy == "left" else spots[-1]
        a, b = w[pos], w[pos + 1]
        pre, suf = w[:pos], w[pos + 2:]
        before = (monomial_degree(w), _inversions(w))
        outs = [(c, pre + (b, a) + suf)]
        for mb, cb in rule.bracket_terms(a, b).items():
            outs.append((c * cb, pre + mb + suf))
        for cc, ww in outs:
            after = (monomial_degree(ww), _inversions(ww))
            if trace is not None:
                trace.append((before, after))
                assert after < before, "rewrite step failed to decrease"
            pending.append((cc, ww))
    return AlgebraElement(rule, done)


def symbol(a: AlgebraElement, d: int, context=None):
    """Image of a degree-<=d element in the degree-d graded component.

    Monomials of total level d map to products of commuting variables
    indexed like the generators; strictly lower monomials map to zero.
    """
    from .poisson import PoissonContext, PoissonPoly

    if context is None:
        context = PoissonContext("plain", a.rule.index_set, max(d, 1))
    if any(monomial_degree(m) > d for m in a.terms):
        raise ValueError("filtration degree exceeds the requested grade")
    return PoissonPoly(context, accumulate({}, (
        (tuple(sorted(m)), c) for m, c in a.terms.items()
        if monomial_degree(m) == d)))


def serialize_element(a: AlgebraElement) -> dict:
    """JSON-ready encoding: terms as [[row, col, level], ...] word arrays
    with "p/q" coefficients, in sorted monomial order."""
    from .rationals import format_rat

    return {
        "terms": [
            {"word": [[i, j, r] for (r, i, j) in m], "coeff": format_rat(c)}
            for m, c in sorted(a.terms.items())
        ]
    }


def deserialize_element(data: dict, rule: CommutationRule) -> AlgebraElement:
    from .rationals import parse_rat

    terms = {}
    for row in data["terms"]:
        m = tuple((r, i, j) for (i, j, r) in row["word"])
        terms[m] = parse_rat(row["coeff"])
    return AlgebraElement(rule, terms)
