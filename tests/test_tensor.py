from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from bethe.algebra import FreeRule, YangianRule
from bethe.indices import IndexSet
from bethe.rationals import Q, binomial
from bethe.series import RATIONAL_RING, BiLaurent, TruncatedSeries, algebra_ring
from bethe.tensor import (TensorElement, alternator, antisymmetrizer,
                          antisymmetrizer_oracle, flip, h_k_orientation,
                          perm_operator, perm_sign, q_tensor, tensor_ring,
                          trace_words,
                          verify_antisymmetrizers, verify_mixed_yang_baxter,
                          verify_r_identities, verify_yang_baxter)


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert not bad, bad


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1


def test_flip_squares_to_identity():
    iset = IndexSet.plain(3)
    p = flip(iset)
    assert p * p == TensorElement.identity(2, iset)


def test_q_tensor_is_rank_one_multiple():
    # Q^2 = N Q for the one-sided prime transpose of the flip
    iset = IndexSet.signed(2, "sp")
    q = q_tensor(iset)
    assert q * q == q.scale_rat(Q(iset.N))


def test_r_identities_all_sizes():
    for N in (2, 3, 4):
        _all_ok(verify_r_identities(IndexSet.plain(N)))
    for form, N in (("so", 3), ("so", 4), ("sp", 2), ("sp", 4)):
        _all_ok(verify_r_identities(IndexSet.signed(N, form)))


def test_r_identities_fail_for_wrong_r_matrices(monkeypatch):
    from bethe import tensor

    so3 = IndexSet.signed(3, "so")
    real_q, real_flip = tensor.q_tensor, tensor.flip
    # R~(u) = u + Q: (u + Q)(N - u + Q) = (Nu - u^2) + 2N Q
    monkeypatch.setattr(tensor, "q_tensor", lambda *a: -real_q(*a))
    rows = verify_r_identities(so3)
    assert [ok for _, ok in rows] == [True, False]
    # R(u) = u - 2P: (u - 2P)(-u - 2P) = (4 - u^2) id
    monkeypatch.setattr(tensor, "flip", lambda *a: real_flip(*a).scale_rat(2))
    assert not any(ok for _, ok in verify_r_identities(IndexSet.plain(2)))


def test_yang_baxter():
    for N in (2, 3):
        _all_ok(verify_yang_baxter(IndexSet.plain(N)))


def test_mixed_yang_baxter():
    for form, N in (("so", 3), ("sp", 2)):
        _all_ok(verify_mixed_yang_baxter(IndexSet.signed(N, form)))
    with pytest.raises(ValueError):
        verify_mixed_yang_baxter(IndexSet.plain(2))


def test_antisymmetrizer_matches_oracle_and_projects():
    for N in (2, 3):
        iset = IndexSet.plain(N)
        for k in range(1, N + 1):
            h = antisymmetrizer(k, iset)
            assert h == antisymmetrizer_oracle(k, iset)
            assert h * h == h
            assert h.partial_trace_all() == binomial(N, k)


def test_top_antisymmetrizer_alternates():
    iset = IndexSet.plain(2)
    h = antisymmetrizer(2, iset)
    expect = (TensorElement.identity(2, iset)
              - perm_operator((2, 1), iset)).scale_rat(Q(1, 2))
    assert h == expect


def test_orientation_string_is_reported():
    s = h_k_orientation(2, IndexSet.plain(3))
    assert "outer=" in s and "inner=" in s


def test_h3_orientation_does_not_depend_on_the_index_set():
    # S_3 acts faithfully on V^{(x)3} once N >= 3, so reports may declare
    # one orientation for every such space
    ref = h_k_orientation(3, IndexSet.plain(3))
    for iset in (IndexSet.plain(4), IndexSet.plain(5),
                 IndexSet.signed(5, "so"), IndexSet.signed(6, "so"),
                 IndexSet.signed(4, "sp")):
        assert h_k_orientation(3, iset) == ref


def test_antisymmetrizer_suite():
    _all_ok(verify_antisymmetrizers(IndexSet.plain(4)))


SMALL_SETS = ([IndexSet.plain(N) for N in (1, 2, 3, 4)]
              + [IndexSet.signed(N, "so") for N in (1, 2, 3, 4)]
              + [IndexSet.signed(N, "sp") for N in (2, 4)])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), iset=st.sampled_from(SMALL_SETS))
def test_closed_form_alternator_is_k_factorial_times_the_oracle(data, iset):
    k = data.draw(st.integers(1, iset.N))
    a = alternator(k, iset)
    assert a == antisymmetrizer_oracle(k, iset).scale_rat(factorial(k))
    assert all(type(v) is int for v in a.entries.values())
    assert antisymmetrizer(k, iset) == antisymmetrizer_oracle(k, iset)


def test_building_h_k_runs_no_orientation_search(monkeypatch):
    from bethe import tensor

    def no_search(*args):
        raise AssertionError("the ordered R-matrix product was formed")

    monkeypatch.setattr(tensor, "_r_factor", no_search)
    for cache in ("_A_CACHE", "_H_CACHE"):
        monkeypatch.setattr(tensor, cache, {})
    for iset in (IndexSet.plain(3), IndexSet.signed(5, "so"),
                 IndexSet.signed(4, "sp")):
        for k in range(1, iset.N + 1):
            # k! entries in each of the N!/(N-k)! distinct-entry columns
            nnz = factorial(iset.N) // factorial(iset.N - k) * factorial(k)
            assert len(antisymmetrizer(k, iset).entries) == nnz
            assert len(alternator(k, iset).entries) == nnz
    # only the orientation search forms the product
    with pytest.raises(AssertionError, match="R-matrix product"):
        h_k_orientation(2, IndexSet.plain(3))


# -- trace contraction -----------------------------------------------------------

PLAIN2 = IndexSet.plain(2)
YANG2 = YangianRule(PLAIN2)
FREE2 = FreeRule(PLAIN2)
rational = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


def _keys(sites):
    multi = list(product(PLAIN2.indices(), repeat=sites))
    return [(r, c) for r in multi for c in multi]


@st.composite
def rational_tensor(draw, sites):
    ent = draw(st.dictionaries(st.sampled_from(_keys(sites)), rational,
                               max_size=6))
    return TensorElement(sites, PLAIN2, RATIONAL_RING, ent)


@st.composite
def algebra_element(draw, rule=YANG2):
    terms = draw(st.lists(st.tuples(
        rational, st.sampled_from(PLAIN2.indices()),
        st.sampled_from(PLAIN2.indices()), st.integers(1, 2)),
        max_size=2))
    acc = rule.zero() + draw(rational)
    for c, i, j, r in terms:
        acc = acc + rule.element(i, j, r) * c
    return acc


@st.composite
def algebra_tensor(draw, sites, rule=YANG2):
    keys = draw(st.lists(st.sampled_from(_keys(sites)), max_size=5,
                         unique=True))
    return TensorElement(sites, PLAIN2, algebra_ring(rule),
                         {k: draw(algebra_element(rule)) for k in keys})


def lift_tensor(t, ring):
    """Rational tensor coefficients promoted into a richer ring: the
    reference for products that mix a rational and a ring-valued operand."""
    return t.map_coeffs(lambda c: ring.one * c, ring)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sites=st.integers(1, 2),
       rule=st.sampled_from((YANG2, FREE2)))
def test_rational_tensors_multiply_ring_tensors_without_lifting(
        data, sites, rule):
    g = data.draw(rational_tensor(sites))
    x = data.draw(algebra_tensor(sites, rule))
    lifted = lift_tensor(g, x.ring)
    for got, ref in ((g * x, lifted * x), (x * g, x * lifted)):
        assert got == ref
        assert got.ring is x.ring


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sites=st.integers(1, 2),
       rule=st.sampled_from((YANG2, FREE2)))
def test_rational_tensors_scale_by_algebra_elements_from_either_side(
        data, sites, rule):
    g = data.draw(rational_tensor(sites))
    a = data.draw(algebra_element(rule))
    aring = algebra_ring(rule)
    for got, ref in ((a * g, g.map_coeffs(lambda c: a * c, aring)),
                     (g * a, g.map_coeffs(lambda c: c * a, aring))):
        assert got == ref
        assert not got.ring.rational and got.ring.one == rule.one()
    with pytest.raises(TypeError):
        a * 0.5


@st.composite
def bilaurent(draw, tensors, coeff_ring):
    keys = st.tuples(st.integers(-2, 1), st.integers(-2, 1))
    return BiLaurent(tensor_ring(2, PLAIN2, coeff_ring),
                     draw(st.dictionaries(keys, tensors, max_size=3)),
                     draw(st.integers(0, 3)), draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rule=st.sampled_from((YANG2, FREE2)))
def test_rational_bilaurents_multiply_ring_bilaurents_without_lifting(
        data, rule):
    aring = algebra_ring(rule)
    g = data.draw(bilaurent(rational_tensor(2), RATIONAL_RING))
    x = data.draw(bilaurent(algebra_tensor(2, rule), aring))
    lifted = BiLaurent(x.ring, {key: lift_tensor(c, aring)
                                for key, c in g.entries.items()},
                       g.cap_u, g.cap_v)
    for got, ref in ((g * x, lifted * x), (x * g, x * lifted)):
        assert got == ref
        assert got.ring is x.ring


def _series(draw, tensors, sites, ring, D):
    return TruncatedSeries(tensor_ring(sites, PLAIN2, ring),
                           [draw(tensors(sites)) for _ in range(D + 1)], D)


def _letter_site(draw, rule, D):
    """A one-site series 1 + L_1 u^-1 + ... over Fraction (rule None) or
    over the algebra of `rule`."""
    ring = algebra_ring(rule) if rule else RATIONAL_RING
    sites = tensor_ring(1, PLAIN2, ring)
    draw_one = (lambda: draw(algebra_tensor(1, rule))) if rule else \
        (lambda: draw(rational_tensor(1)))
    return TruncatedSeries(sites, [sites.one] + [draw_one()
                                                 for _ in range(D)], D)


def _full_trace(h, steps, ring, sites, D):
    """tr(h . Y_1 ... Y_m) from the full product of the steps on all sites,
    every rational tensor lifted into the letters' ring: the reference
    for `trace_words`."""
    tring = tensor_ring(sites, PLAIN2, ring)
    x = TruncatedSeries.one(tring, D)
    for step in steps:
        if isinstance(step, tuple):
            p, site = step
            y = site.map_coeffs(lambda c: c.embed((p,), sites), tring)
        else:
            y = step.map_coeffs(lambda c: lift_tensor(c, ring), tring)
        x = x * y
    h = h.map_coeffs(lambda c: lift_tensor(c, ring), tring)
    return (h * x).map_coeffs(lambda c: c.partial_trace_all(), ring)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), sites=st.integers(1, 3), D=st.integers(0, 2),
       rule=st.sampled_from((None, FREE2, YANG2)))
def test_trace_words_matches_the_full_product(data, sites, D, rule):
    # letter sites on distinct sites in any order, rational steps between
    # them; h a series of rational tensors or a constant one
    draw = data.draw
    ring = algebra_ring(rule) if rule else RATIONAL_RING
    order = draw(st.permutations(range(1, sites + 1)))
    order = order[:draw(st.integers(1, sites))]
    steps = []
    for p in order:
        steps += [_series(draw, rational_tensor, sites, RATIONAL_RING, D)
                  for _ in range(draw(st.integers(0, 1)))]
        steps.append((p, _letter_site(draw, rule, D)))
    if draw(st.booleans()):
        steps.append(_series(draw, rational_tensor, sites, RATIONAL_RING, D))
    h = _series(draw, rational_tensor, sites, RATIONAL_RING, D)
    assert trace_words(h, steps, ring, D) == \
        _full_trace(h, steps, ring, sites, D)
    const = TruncatedSeries.constant(h.ring, h.coeffs[0], D)
    assert trace_words(h.coeffs[0], steps, ring, D) == \
        _full_trace(const, steps, ring, sites, D)


def test_trace_words_needs_letters_that_start_at_one():
    sites = tensor_ring(1, PLAIN2)
    twice = TruncatedSeries(sites, [sites.one.scale_rat(2)], 0)
    with pytest.raises(ValueError):
        trace_words(sites.one, [(1, twice)], RATIONAL_RING, 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), algebra=st.booleans())
def test_identity_sites_trace_out_of_the_rational_side(data, algebra):
    # a letter site on site 1 of 2 is the identity on site 2:
    # tr(h L_1) = tr(tr_2(h) L)
    draw = data.draw
    h = draw(rational_tensor(2))
    rule = YANG2 if algebra else None
    ring = algebra_ring(rule) if algebra else RATIONAL_RING
    site = _letter_site(draw, rule, 2)
    assert trace_words(h.partial_trace([2]), [(1, site)], ring, 2) == \
        trace_words(h, [(1, site)], ring, 2)
