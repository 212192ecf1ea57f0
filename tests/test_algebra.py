import random

from hypothesis import given, settings, strategies as st

from bethe.algebra import (AlgebraElement, FreeRule, GlRule, YangianRule,
                           commutator, filtration_degree, monomial_degree,
                           symbol)
from bethe.indices import IndexSet
from bethe.poisson import PoissonContext
from bethe.rationals import Q
from bethe.reports import serialize_terms

from oracles import deserialize_element, normal_order

RULE = YangianRule(IndexSet.plain(2))
GL = GlRule(IndexSet.plain(3))

gen_strategy = st.tuples(st.integers(1, 2), st.integers(1, 2),
                         st.integers(1, 2))
word_strategy = st.lists(gen_strategy, min_size=0, max_size=5)

gl_gen_strategy = st.tuples(st.just(1), st.integers(1, 3), st.integers(1, 3))
# (rule, word strategy) pairs for the two ordering rules; the normal_order
# reference rewrites each distinct word once per call and keeps its rewrite
# steps across examples, yet one concatenation of two five-letter Yangian
# words can reach 10^5 distinct words and take seconds
ORDERING = [
    (RULE, st.lists(gen_strategy, max_size=5)),
    (GL, st.lists(gl_gen_strategy, max_size=4)),
]
Q_TYPE = type(Q(1))


@settings(max_examples=100, deadline=None)
@given(word_strategy)
def test_normal_order_confluence(word):
    left = normal_order(word, RULE, strategy="left")
    right = normal_order(word, RULE, strategy="right")
    assert left == right
    for m in left.terms:
        assert tuple(sorted(m)) == m  # PBW: non-decreasing monomials


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_rewrite_steps_decrease(word):
    trace = []
    normal_order(word, RULE, trace=trace)  # asserts decrease internally
    for before, after in trace:
        assert after < before


def test_gl_commutator_relations():
    e12 = GL.element(1, 2)
    e23 = GL.element(2, 3)
    e21 = GL.element(2, 1)
    assert commutator(e12, e23) == GL.element(1, 3)
    assert commutator(e12, e21) == GL.element(1, 1) - GL.element(2, 2)
    assert commutator(e12, GL.element(3, 1))


# (rule, word strategy) pairs for the bracket properties: the Yangian on a
# plain and on a signed index set (levels 1..2) and U(gl_3)
def _yangian_words(rule):
    idx = st.sampled_from(rule.index_set.indices())
    return st.lists(st.tuples(st.integers(1, 2), idx, idx), max_size=3)


SIGNED = YangianRule(IndexSet.signed(3, "so"))
BRACKETING = [(RULE, _yangian_words(RULE)), (SIGNED, _yangian_words(SIGNED)),
              (GL, st.lists(gl_gen_strategy, max_size=4))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutator_is_the_product_difference(data):
    for rule, words in BRACKETING:
        a, b = _element(rule, data, words), _element(rule, data, words)
        assert commutator(a, b) == a * b - b * a
        assert commutator(b, a) == -commutator(a, b)
        assert not commutator(a, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monomial_bracket_is_the_product_difference(data):
    for rule, words in BRACKETING:
        m = tuple(sorted(data.draw(words)))
        g = data.draw(words.filter(len))[0]
        out = rule.mono_bracket_gen(m, g)
        assert all(type(c) is int for c in out.values())
        assert AlgebraElement(rule, out) == (
            AlgebraElement(rule, rule.mono_times_gen(m, g))
            - AlgebraElement(rule, rule.mono_times_mono((g,), m)))


def test_yangian_brackets_match_the_rtt_formula():
    # [T_ij^(p), T_kl^(q)] = sum_{r=1}^{min(p,q)} (T_kj^(r-1) T_il^(p+q-r)
    #                        - T_kj^(p+q-r) T_il^(r-1)), T^(0)_ab = d_ab
    t = RULE.element
    # p = q = 2, (i,j,k,l) = (1,2,2,1): r = 1 gives T_11^(3) - T_22^(3),
    # r = 2 gives T_22^(1) T_11^(2) - T_22^(2) T_11^(1), and the swap of
    # the last word costs [T_22^(2), T_11^(1)] = 0
    assert commutator(t(1, 2, 2), t(2, 1, 2)) == (
        t(1, 1, 3) - t(2, 2, 3) + t(2, 2, 1) * t(1, 1, 2)
        - t(1, 1, 1) * t(2, 2, 2))
    # at level 1 the formula is [T_ij, T_kl] = d_kj T_il - d_il T_kj, so
    # [T_11 T_12, T_21] = [T_11, T_21] T_12 + T_11 [T_12, T_21]
    #                   = -T_21 T_12 + T_11 (T_11 - T_22),
    # and T_21 T_12 = T_12 T_21 + T_22 - T_11 in normal order
    got = commutator(t(1, 1, 1) * t(1, 2, 1), t(2, 1, 1))
    assert got.terms == {
        ((1, 1, 2), (1, 2, 1)): -1, ((1, 2, 2),): -1, ((1, 1, 1),): 1,
        ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1), (1, 2, 2)): -1}


def test_free_elements_have_no_commutator():
    free = FreeRule(IndexSet.plain(2))
    try:
        commutator(free.element(1, 2), free.element(2, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected the free rule to refuse a bracket")


def test_jacobi_seeded_triples_both_rules():
    rng = random.Random(11)
    for rule in (RULE, GL):
        idx = rule.index_set.indices()
        lmax = 3 if rule is RULE else 1
        for _ in range(50):
            a, b, c = (rule.element(rng.choice(idx), rng.choice(idx),
                                    rng.randint(1, lmax)) for _ in range(3))
            res = (commutator(a, commutator(b, c))
                   + commutator(b, commutator(c, a))
                   + commutator(c, commutator(a, b)))
            assert not res


def test_associativity_spot_checks():
    rng = random.Random(5)
    idx = RULE.index_set.indices()
    for _ in range(20):
        a, b, c = (RULE.element(rng.choice(idx), rng.choice(idx),
                                rng.randint(1, 3)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_filtration_degree():
    a = RULE.element(1, 2, 3) * RULE.element(2, 1, 1) + RULE.element(1, 1, 2)
    assert filtration_degree(a) == 4
    assert monomial_degree(((2, 1, 1), (3, 2, 2))) == 5


@settings(max_examples=60, deadline=None)
@given(word_strategy, st.integers(-5, 5))
def test_serialization_roundtrip(word, c):
    a = normal_order(word, RULE, coeff=Q(c) if c else Q(1))
    data = serialize_terms(a.terms, "word")
    assert deserialize_element(data, RULE) == a


def test_symbol_accumulates_coinciding_free_words():
    # distinct free words with the same commutative image must add up
    free = FreeRule(IndexSet.plain(2))
    a = free.element(1, 2) * free.element(2, 1) \
        + free.element(2, 1) * free.element(1, 2)
    ctx = PoissonContext(free.index_set, 1)
    p = symbol(a, 2, ctx)
    key = tuple(sorted(((1, 1, 2), (1, 2, 1))))
    assert p.terms == {key: Q(2)}


def test_symbol_drops_lower_degree_and_rejects_higher():
    a = RULE.element(1, 1, 2) + RULE.element(1, 2, 1)
    ctx = PoissonContext(RULE.index_set, 2)
    assert symbol(a, 2, ctx).terms == {((2, 1, 1),): Q(1)}
    try:
        symbol(a, 1, ctx)
    except ValueError:
        pass
    else:
        raise AssertionError("expected a degree-overflow error")


# The oracle's cost about doubles with each level-2 letter of the word it
# orders: a ten-letter Yangian concatenation takes up to 0.06 s with two
# such letters, about 0.5 s with four, 1.3 s with six and 7 s (2*10^5
# distinct words) with nine.  The concatenation property keeps the first
# LEVEL_2_LETTERS of them and lowers the rest to level 1.
LEVEL_2_LETTERS = 4


def capped_levels(word: list) -> list:
    """`word` with every level-2 letter after the first LEVEL_2_LETTERS
    lowered to level 1, indices kept."""
    out, seen = [], 0
    for level, i, j in word:
        seen += level == 2
        out.append((1 if seen > LEVEL_2_LETTERS and level == 2 else level,
                    i, j))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_of_normal_forms_is_normal_form_of_concatenation(data):
    for rule, words in ORDERING:
        w1, w2 = data.draw(words), data.draw(words)
        w = capped_levels(w1 + w2)
        w1, w2 = w[:len(w1)], w[len(w1):]
        assert normal_order(w1, rule) * normal_order(w2, rule) == \
            normal_order(w1 + w2, rule)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ordered_seam_matches_general_path(data):
    # mono_times_mono(m1, m2) on normal monomials, including the ordered
    # seam m1[-1] <= m2[0], against ordering the concatenated word
    for rule, words in ORDERING:
        m1 = tuple(sorted(data.draw(words)))
        m2 = tuple(sorted(data.draw(words)))
        assert rule.mono_times_mono(m1, m2) == rule.order_word(m1 + m2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_word_from_empty_prefix_sorts(data):
    for rule, words in ORDERING:
        word = tuple(data.draw(words))
        out = rule.order_word(word)
        for m, c in out.items():
            assert list(m) == sorted(m)
            assert type(c) is int
        assert AlgebraElement(rule, out) == normal_order(word, rule)


def _element(rule, data, words):
    terms = data.draw(st.dictionaries(words.map(tuple), st.integers(-3, 3),
                                      max_size=3))
    return sum((normal_order(w, rule, coeff=Q(c, 2)) for w, c in terms.items()),
               rule.zero())


def _canonical(c):
    # an int when integral, a Q only with a denominator > 1
    return type(c) is int or (type(c) is Q_TYPE and c.denominator > 1)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(-3, 3))
def test_coefficients_stay_rational(data, k):
    # every stored coefficient is canonical; halves make integral products
    # such as (1/2) * 2 arise
    for rule, words in ORDERING:
        a, b = _element(rule, data, words), _element(rule, data, words)
        for r in (a + b, a - b, -a, a * b, a * k, k * a, a + k, k - a,
                  a * Q(k, 2), a * Q(k, 2) * 2, a * Q(1, 2) + a * Q(1, 2)):
            assert all(_canonical(c) for c in r.terms.values())
        for c in (k, Q(k), Q(k, 2)):
            assert all(_canonical(v) for v in
                       AlgebraElement(rule, {(): c}).terms.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(gen_strategy, max_size=4), st.lists(gen_strategy, max_size=4),
       st.integers(1, 5), st.integers(-5, -1))
def test_free_products_concatenate(w1, w2, c1, c2):
    free = FreeRule(IndexSet.plain(2))
    a = AlgebraElement(free, {tuple(w1): c1})
    b = AlgebraElement(free, {tuple(w2): c2})
    assert (a * b).terms == {tuple(w1 + w2): Q(c1 * c2)}
