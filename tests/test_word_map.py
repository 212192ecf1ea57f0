"""The word map behind `s_expand`, rho and pi, against the folds it
replaced: each word multiplied out from its letters on every call."""
from functools import reduce
from operator import mul

from hypothesis import given, settings, strategies as st

from bethe.algebra import (AlgebraElement, GlRule, YangianRule,
                           element_sum)
from bethe.evalmap import f_element, pi_map, rho_map
from bethe.indices import IndexSet
from bethe.rationals import Q, rat
from bethe.twisted import (TwistedContext, reflection_residual,
                           verify_reflection)


# -- the folds, as the reference ------------------------------------------------


def fold_s_expand(ctx, w):
    rule = ctx.yang_rule
    return element_sum(rule, (
        reduce(mul, map(ctx.expand_gen, word), rule.one()) * c
        for word, c in w.terms.items()))


def fold_pi(a, gl_rule):
    return element_sum(gl_rule, (
        reduce(mul, (gl_rule.element(i, j) for (_, i, j) in word),
               gl_rule.one()) * c
        for word, c in a.terms.items() if all(g[0] == 1 for g in word)))


def fold_rho(w, gl_rule):
    iset = gl_rule.index_set
    half = rat(-1, 2) if iset.form == "so" else rat(1, 2)
    idx = iset.indices()
    f = {(i, j): f_element(gl_rule, i, j) for i in idx for j in idx}

    def image(word, scal):
        term = reduce(mul, (f[(i, j)] for (_, i, j) in word), gl_rule.one())
        return term * (scal * half ** sum(r - 1 for (r, _, _) in word))

    return element_sum(gl_rule, (image(*t) for t in w.terms.items()))


# -- random elements -----------------------------------------------------------


def elements(iset, max_level, max_len=3):
    """Elements as {word: coefficient} dicts over the generators of
    `iset` up to `max_level`; the empty word is allowed."""
    idx = iset.indices()
    gen = st.tuples(st.integers(1, max_level), st.sampled_from(idx),
                    st.sampled_from(idx))
    coeff = st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.dictionaries(st.lists(gen, max_size=max_len).map(tuple), coeff,
                           max_size=4)


SP2 = IndexSet.signed(2, "sp")
SO3 = IndexSet.signed(3, "so")
GL2 = IndexSet.plain(2)
# contexts and maps reused across examples, so their memos fill up
CONTEXTS = {SP2: TwistedContext(SP2), SO3: TwistedContext(SO3)}
GLS = {iset: GlRule(iset) for iset in (SP2, SO3, GL2)}
RHOS = {iset: rho_map(GLS[iset]) for iset in (SP2, SO3)}
PI = pi_map(GLS[GL2])


@settings(max_examples=15, deadline=None)
@given(data=st.data(), iset=st.sampled_from([SP2, SO3]))
def test_s_expand_is_the_fold(data, iset):
    ctx = CONTEXTS[iset]
    w = AlgebraElement(ctx.s_rule, data.draw(elements(iset, 2, max_len=2)))
    got = ctx.s_expand(w)
    assert got == fold_s_expand(ctx, w)
    fresh = TwistedContext(iset)
    assert fresh.s_expand(AlgebraElement(fresh.s_rule, w.terms)).terms \
        == got.terms


@settings(max_examples=30, deadline=None)
@given(data=st.data(), iset=st.sampled_from([SP2, SO3]))
def test_rho_is_the_fold(data, iset):
    ctx = CONTEXTS[iset]
    w = AlgebraElement(ctx.s_rule, data.draw(elements(iset, 3)))
    gl = GLS[iset]
    got = RHOS[iset](w)
    assert got == fold_rho(w, gl)
    assert rho_map(gl)(w) == got


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pi_is_the_fold(data):
    gl = GLS[GL2]
    a = AlgebraElement(YangianRule(GL2), data.draw(elements(GL2, 2)))
    got = PI(a)
    assert got == fold_pi(a, gl)
    assert pi_map(gl)(a) == got


def test_so_and_sp_rho_maps_keep_their_own_images():
    # so4 and sp4 share their indices; rho differs in the sign of 1/2
    maps = {}
    for form in ("so", "sp"):
        iset = IndexSet.signed(4, form)
        maps[form] = (TwistedContext(iset), GlRule(iset))
        maps[form] += (rho_map(maps[form][1]),)
    word = ((2, 1, 1), (1, 1, -2), (3, -2, 2))
    images = {}
    for form in ("so", "sp", "so", "sp"):
        ctx, gl, rho = maps[form]
        for w in (word[:1], word[:2], word):
            a = AlgebraElement(ctx.s_rule, {w: 1})
            assert rho(a) == fold_rho(a, gl)
        images[form] = rho(AlgebraElement(ctx.s_rule, {word[:1]: 1})).terms
    assert images["so"] == {m: -c for m, c in images["sp"].items()}


def test_reflection_multiplies_each_word_prefix_once(monkeypatch):
    # the window of twisted-reflection sp2 --D 4 holds each word prefix
    # many times; the word map multiplies it by a letter once.  The
    # expanded S(u) is built first, so every product of elements under
    # the Yangian rule that the check then forms is a word map's.
    D = 4
    ctx = TwistedContext(SP2)
    for r in range(1, D + 1):
        ctx.s_series_expanded(r)
    window = [c for (eu, ev), c in reflection_residual(ctx, D).entries.items()
              if -(eu + ev) <= D]
    prefixes = {w[:n] for c in window for e in c.entries.values()
                for w in e.terms for n in range(2, len(w) + 1)}
    real = AlgebraElement.__mul__
    products = []

    def counted(self, other):
        if isinstance(other, AlgebraElement) and self.rule is ctx.yang_rule:
            products.append(other)
        return real(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    rows = verify_reflection(ctx, D, D)
    assert rows and all(ok for _, ok in rows)
    assert len(prefixes) > 100
    assert len(products) == len(prefixes)
