from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from bethe.algebra import FreeRule, YangianRule
from bethe.indices import IndexSet, ZMatrix, perm_sign
from bethe.rationals import Q, binomial
from bethe.series import (RATIONAL_RING, BiLaurent, TruncatedSeries,
                          algebra_ring, one_over_c_minus_2u)
from bethe.tensor import (TensorElement, _pair_action, alternator_rows,
                          flip, group_alternator, group_product, group_trace,
                          h_k_orientation, pair_step, q_tensor, r_product,
                          site_action, tensor_ring, trace_words,
                          verify_antisymmetrizers, verify_r_identities)
from bethe.yangian import t_site_series
import oracles
from faults import control, controls
from oracles import (alternator, antisymmetrizer, antisymmetrizer_oracle,
                     group_image, partial_trace, perm_operator, trace_all,
                     z_site_tensor)


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert not bad, bad


SIGNED = [(form, N) for form in ("so", "sp") for N in range(2, 8)
          if form == "so" or N % 2 == 0]


@pytest.mark.parametrize("form, N", SIGNED)
def test_the_index_set_holds_the_signs(form, N):
    # theta_i is -1 on the negative indices of sp and 1 otherwise, eps_ij
    # = theta_i theta_j, and the upper sign is +1 for so and -1 for sp
    iset = IndexSet.signed(N, form)
    idx = iset.indices()
    assert iset.theta == {i: -1 if form == "sp" and i < 0 else 1
                          for i in idx}
    assert all(iset.eps(i, j) == iset.theta[i] * iset.theta[j]
               for i in idx for j in idx)
    assert iset.upper == {"so": 1, "sp": -1}[form]
    if N > 4:
        return
    # x . Q_pq on the basis rows of three sites gives the rows of Q_pq
    basis = {(c, c): 1 for c in product(idx, repeat=3)}
    for p, q in ((1, 2), (1, 3), (2, 3)):
        assert _pair_action(basis, p, q, iset) \
            == q_tensor(iset).embed((p, q), 3).entries


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


def test_yang_baxter():
    for N in (2, 3):
        assert dict(verify_r_identities(IndexSet.plain(N)))[
            f"Yang-Baxter N={N}"]


def test_mixed_yang_baxter():
    for form, N in (("so", 3), ("sp", 2)):
        rows = dict(verify_r_identities(IndexSet.signed(N, form)))
        for which in ("first", "second", "third"):
            assert rows[f"{which} mixed exchange ({form}_{N})"]


def test_antisymmetrizer_matches_oracle_and_projects():
    for N in (2, 3):
        iset = IndexSet.plain(N)
        for k in range(1, N + 1):
            h = antisymmetrizer(k, iset)
            assert h == antisymmetrizer_oracle(k, iset)
            assert h * h == h
            assert trace_all(h) == binomial(N, k)


def test_top_antisymmetrizer_alternates():
    iset = IndexSet.plain(2)
    h = antisymmetrizer(2, iset)
    expect = (TensorElement.identity(2, iset)
              - perm_operator((2, 1), iset)).scale_rat(Q(1, 2))
    assert h == expect
    assert flip(iset) == perm_operator((2, 1), iset)


def test_orientation_string_is_reported():
    s = h_k_orientation(group_alternator(2))
    assert "outer=" in s and "inner=" in s


def test_h3_orientation_does_not_depend_on_the_index_set():
    # S_3 acts faithfully on V^{(x)3} once N >= 3, so reports may declare
    # one orientation for every such space: the dense products on each
    # space find the orientations found in Z[S_3]
    ref = h_k_orientation(group_alternator(3))
    for iset in (IndexSet.plain(3), IndexSet.plain(4), IndexSet.plain(5),
                 IndexSet.signed(5, "so"), IndexSet.signed(6, "so"),
                 IndexSet.signed(4, "sp")):
        assert oracles.h_k_orientation(alternator(3, iset)) == ref


def test_antisymmetrizer_suite():
    _all_ok(verify_antisymmetrizers(IndexSet.plain(4)))


ORIENTATIONS = list(product(("asc", "desc"), repeat=2))
ORACLE_SETS = [IndexSet.plain(N) for N in (1, 2, 3, 4)] + [
    IndexSet.signed(3, "so"), IndexSet.signed(2, "sp")]


@pytest.mark.parametrize("iset", ORACLE_SETS, ids=repr)
def test_group_algebra_rows_match_the_dense_oracle(iset):
    # each row of the suite, in Z[S_k], against the same quantity formed
    # on all N^k rows
    N = iset.N
    for k in range(1, N + 1):
        a, dense = group_alternator(k), alternator(k, iset)
        assert group_image(a, k, iset) == dense
        assert group_image(group_product(a, a), k, iset) == dense * dense
        assert group_trace(a, N) == trace_all(dense) == \
            factorial(k) * binomial(N, k)
        for outer, inner in ORIENTATIONS:
            assert group_image(r_product(k, outer, inner), k, iset) == \
                oracles.r_product(k, outer, inner, iset)
        assert h_k_orientation(a) == oracles.h_k_orientation(dense)


def test_group_product_composes_as_the_permutation_operators():
    # P_sigma P_tau = P_{sigma o tau} on every pair of S_3, and the
    # convention is not symmetric: (1 2)(2 3) != (2 3)(1 2)
    iset = IndexSet.plain(3)
    group = list(group_alternator(3))
    for s in group:
        for t in group:
            (st,) = group_product({s: 1}, {t: 1})
            assert perm_operator(s, iset) * perm_operator(t, iset) == \
                perm_operator(st, iset)
    assert group_product({(2, 1, 3): 1}, {(1, 3, 2): 1}) == {(2, 3, 1): 1}


perm_elements = st.dictionaries(st.permutations([1, 2, 3]).map(tuple),
                                st.integers(-3, 3).filter(bool), min_size=1)


@settings(max_examples=30, deadline=None)
@given(perm_elements, perm_elements, st.integers(1, 4))
# a product that vanishes: x = (213)(e + (132)), so x (e - (132)) = 0
@example({(2, 1, 3): 1, (2, 3, 1): 1}, {(1, 2, 3): 1, (1, 3, 2): -1}, 1)
def test_group_algebra_is_the_operator_algebra(x, y, N):
    # products and traces of arbitrary elements of Z[S_3] on (C^N)^{(x)3},
    # for N < 3 too, where P is no longer injective
    iset = IndexSet.plain(N)
    assert group_image(group_product(x, y), 3, iset) == \
        group_image(x, 3, iset) * group_image(y, 3, iset)
    assert group_trace(x, N) == trace_all(group_image(x, 3, iset))


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
    # A_k = ket . bra, the ket the transpose of the ascending rows
    bra = alternator_rows(k, iset)
    ket = TensorElement(k, iset, RATIONAL_RING,
                        {(c, r): v for (r, c), v in bra.entries.items()})
    assert ket * bra == a
    assert all(list(r) == sorted(r) and sorted(c) == list(r)
               for r, c in bra.entries)


def test_building_h_k_runs_no_orientation_search(monkeypatch):
    from bethe import tensor

    def no_search(*args):
        raise AssertionError("the ordered R-matrix product was formed")

    monkeypatch.setattr(tensor, "r_element", no_search)
    for iset in (IndexSet.plain(3), IndexSet.signed(5, "so"),
                 IndexSet.signed(4, "sp")):
        for k in range(1, iset.N + 1):
            # k! permutations in Z[S_k], whatever the index set, and k!
            # entries in each of the N!/(N-k)! distinct-entry columns of
            # the dense closed form
            assert len(group_alternator(k)) == factorial(k)
            nnz = factorial(iset.N) // factorial(iset.N - k) * factorial(k)
            assert len(alternator(k, iset).entries) == nnz
            # k! in each of the binomial(N, k) ascending rows
            assert len(alternator_rows(k, iset).entries) == \
                binomial(iset.N, k) * factorial(k)
    # only the orientation search forms the product
    with pytest.raises(AssertionError, match="R-matrix product"):
        h_k_orientation(group_alternator(2))


# -- trace contraction -----------------------------------------------------------

PLAIN2 = IndexSet.plain(2)
YANG2 = YangianRule(PLAIN2)
FREE2 = FreeRule(PLAIN2)
rational = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


def _keys(sites, iset=PLAIN2):
    multi = list(product(iset.indices(), repeat=sites))
    return [(r, c) for r in multi for c in multi]


@st.composite
def rational_tensor(draw, sites, iset=PLAIN2):
    ent = draw(st.dictionaries(st.sampled_from(_keys(sites, iset)), rational,
                               max_size=6))
    return TensorElement(sites, iset, RATIONAL_RING, ent)


@st.composite
def algebra_element(draw, rule=YANG2):
    idx = rule.index_set.indices()
    terms = draw(st.lists(st.tuples(
        rational, st.sampled_from(idx), st.sampled_from(idx),
        st.integers(1, 2)), max_size=2))
    acc = rule.zero() + draw(rational)
    for c, i, j, r in terms:
        acc = acc + rule.element(i, j, r) * c
    return acc


@st.composite
def algebra_tensor(draw, sites, rule=YANG2):
    iset = rule.index_set
    keys = draw(st.lists(st.sampled_from(_keys(sites, iset)), max_size=5,
                         unique=True))
    return TensorElement(sites, iset, algebra_ring(rule),
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
def test_tensors_scale_by_rationals_only(data, sites, rule):
    # a tensor times a scalar is `scale_rat`, in the tensor's own ring; an
    # algebra element is no scalar of a tensor, from either side
    g = data.draw(rational_tensor(sites))
    x = data.draw(algebra_tensor(sites, rule))
    c = Q(data.draw(st.integers(-3, 3)), 2)
    for t in (g, x):
        got = t * c
        assert got == t.scale_rat(c) == t.map_coeffs(lambda v: v * c)
        assert got.ring is t.ring
    a = data.draw(algebra_element(rule))
    for bad in (lambda: g * a, lambda: a * g, lambda: a * 0.5):
        with pytest.raises(TypeError):
            bad()


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


def _letter_site(draw, rule, D, iset=PLAIN2):
    """A one-site series 1 + L_1 u^-1 + ... over Fraction (rule None) or
    over the algebra of `rule`."""
    ring = algebra_ring(rule) if rule else RATIONAL_RING
    sites = tensor_ring(1, iset, ring)
    draw_one = (lambda: draw(algebra_tensor(1, rule))) if rule else \
        (lambda: draw(rational_tensor(1, iset)))
    return TruncatedSeries(sites, [sites.one] + [draw_one()
                                                 for _ in range(D)], D)


def _pair_series(draw, D):
    """A rational scalar series c(u), c_0 included."""
    return TruncatedSeries(RATIONAL_RING, [draw(rational)
                                           for _ in range(D + 1)], D)


def _factors(draw, k, iset, D):
    """Factors of F(u) in any order: pair steps on any site pair and Z
    sites with any rational entries, Z not prime-symmetric."""
    idx = iset.indices()
    pairs = [(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        if pairs and draw(st.booleans()):
            factors.append((*draw(st.sampled_from(pairs)),
                            _pair_series(draw, D)))
        else:
            z = ZMatrix(iset, draw(st.dictionaries(
                st.tuples(st.sampled_from(idx), st.sampled_from(idx)),
                rational, max_size=3)))
            factors.append((draw(st.integers(1, k)), z))
    return factors


def _dense_step(step, sites, iset, ring, D):
    """A step or a factor of `trace_words` as a series of tensors on all
    sites over `ring`: a letter site or a Z site embedded, or a pair step
    id - c(u) Q_pq with Q_pq embedded."""
    tring = tensor_ring(sites, iset, ring)
    if len(step) == 2:
        p, site = step
        if isinstance(site, ZMatrix):
            return TruncatedSeries.constant(
                tring, lift_tensor(z_site_tensor(site, p, sites), ring), D)
        return site.map_coeffs(lambda c: c.embed((p,), sites), tring)
    p, q, c = step
    qpq = q_tensor(iset).embed((p, q), sites)
    coeffs = [-qpq.scale_rat(cr) for cr in c.coeffs[:D + 1]]
    coeffs[0] = coeffs[0] + TensorElement.identity(sites, iset)
    return TruncatedSeries(tring, [lift_tensor(x, ring) for x in coeffs], D)


SITE_RULES = [rule for iset in (PLAIN2, IndexSet.plain(3),
                                IndexSet.signed(2, "sp"), IndexSet.signed(3, "so"))
              for rule in (YangianRule(iset), FreeRule(iset))]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rule=st.sampled_from(SITE_RULES),
       k=st.integers(1, 3), D=st.integers(0, 2), left=st.booleans(),
       z_site=st.booleans(), algebra=st.booleans())
def test_site_action_matches_the_embedded_product(data, rule, k, D, left,
                                                   z_site, algebra):
    # a T(u-p) series over the algebra, or a rational Z site, acting from
    # the left or the right on vectors with rational or algebra values
    draw = data.draw
    iset = rule.index_set
    idx = iset.indices()
    p = draw(st.integers(1, k))
    if z_site:
        m = [ZMatrix(iset, draw(st.dictionaries(
            st.tuples(st.sampled_from(idx), st.sampled_from(idx)),
            rational, max_size=4))).entries]
    else:
        m = [{(a, b): v for ((a,), (b,)), v in c.entries.items()}
             for c in t_site_series(rule, D).substitute_affine(1, -p).coeffs]
    multi = st.tuples(*[st.sampled_from(idx)] * k)
    value = (algebra_element(rule) if algebra else rational).filter(bool)
    x = [draw(st.dictionaries(st.tuples(multi, multi), value, max_size=4))
         for _ in range(D + 1)]
    ring = RATIONAL_RING if z_site and not algebra else algebra_ring(rule)
    got = site_action(x, p, m, ring, left)
    assert got == oracles.site_action_dense(x, p, m, ring, left, k, iset)


def _full_trace(k, iset, steps, factors, ring, D):
    """tr(F H_k Y) from the full product F_1 ... F_m H_k Y_1 ... Y_n on all
    k sites, every rational tensor lifted into the letters' ring: the
    reference for `trace_words`."""
    tring = tensor_ring(k, iset, ring)
    x = TruncatedSeries.one(tring, D)
    for f in factors:
        x = x * _dense_step(f, k, iset, ring, D)
    x = x * TruncatedSeries.constant(
        tring, lift_tensor(antisymmetrizer(k, iset), ring), D)
    for step in steps:
        x = x * _dense_step(step, k, iset, ring, D)
    return x.map_coeffs(trace_all, ring)


SIGNED = {iset: (YangianRule(iset), FreeRule(iset))
          for iset in (IndexSet.signed(2, "sp"), IndexSet.signed(2, "so"),
                       IndexSet.signed(3, "so"))}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), iset=st.sampled_from(list(SIGNED)),
       D=st.integers(0, 2), algebra=st.sampled_from((None, 0, 1)))
def test_trace_words_matches_the_full_product(data, iset, D, algebra):
    # letter sites on distinct sites in any order, pair steps on any site
    # pair between them, and random factors
    draw = data.draw
    rule = None if algebra is None else SIGNED[iset][algebra]
    ring = algebra_ring(rule) if rule else RATIONAL_RING
    k = draw(st.integers(1, iset.N))
    pairs = [(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    order = draw(st.permutations(range(1, k + 1)))
    steps = []
    for p in order[:draw(st.integers(1, k))]:
        if pairs:
            steps += [(*draw(st.sampled_from(pairs)), _pair_series(draw, D))
                      for _ in range(draw(st.integers(0, 1)))]
        steps.append((p, _letter_site(draw, rule, D, iset)))
    if pairs and draw(st.booleans()):
        steps.append((*draw(st.sampled_from(pairs)), _pair_series(draw, D)))
    factors = _factors(draw, k, iset, D)
    assert trace_words(k, iset, steps, factors, ring, D) == \
        _full_trace(k, iset, steps, factors, ring, D)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), iset=st.sampled_from(list(SIGNED)))
def test_trace_words_applies_the_factors_right_to_left(data, iset):
    # one free letter 1 + S u^-1 on each of the k sites: the free words of
    # length k read every entry of F H_k, the shorter ones its partial
    # traces, so F H_k is compared entry by entry with the dense product
    draw = data.draw
    k = draw(st.integers(1, min(iset.N, 3)))
    free = SIGNED[iset][1]
    s = t_site_series(free, 1)
    letter = TruncatedSeries(s.ring, s.coeffs, k)
    factors = _factors(draw, k, iset, k)
    steps = [(p, letter) for p in range(1, k + 1)]
    ring = algebra_ring(free)
    got = trace_words(k, iset, steps, factors, ring, k)
    assert got == _full_trace(k, iset, steps, factors, ring, k)


def test_a_weight_that_starts_past_order_0_counts():
    # the fused shape L_1 (id - Q_12/(3 - 2u)) L_2 on the row of A_2: a
    # two-letter word can weigh nothing at order 0 and something at order
    # 1, through Q, which reaches the trace at order 3
    iset = IndexSet.signed(2, "sp")
    free = SIGNED[iset][1]
    letter = t_site_series(free, 3)
    steps = [(1, letter), (1, 2, one_over_c_minus_2u(3, 3)), (2, letter)]
    ring = algebra_ring(free)
    assert trace_words(2, iset, steps, [], ring, 3) == \
        _full_trace(2, iset, steps, [], ring, 3)


def test_pair_steps_invert_through_q_squared():
    # (id - c Q)(id - c' Q) = id at c' = -c/(1 - N c), as Q^2 = N Q
    for iset in SIGNED:
        N = iset.N
        x = [TensorElement.identity(2, iset).entries, {}, {}]
        c = TruncatedSeries(RATIONAL_RING, [0, Q(-1, 2), Q(-3, 4)], 2)
        one = TruncatedSeries.one(RATIONAL_RING, 2)
        inv = -(c * (one - c * N).invert())
        assert pair_step(pair_step(x, 1, 2, c, iset), 1, 2, inv, iset) == x
        assert pair_step(x, 1, 2, c, iset) != x


def test_trace_words_needs_letters_that_start_at_one():
    sites = tensor_ring(1, PLAIN2)
    twice = TruncatedSeries(sites, [sites.one.scale_rat(2)], 0)
    with pytest.raises(ValueError):
        trace_words(1, PLAIN2, [(1, twice)], [], RATIONAL_RING, 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), iset=st.sampled_from(list(SIGNED)),
       algebra=st.booleans())
def test_identity_sites_trace_out_of_the_rational_side(data, iset, algebra):
    # a letter site on site 1 of 2 is the identity on site 2:
    # tr(F H_2 L_1) is tr(M L), M = tr_2(F H_2) the one factor of a
    # one-site trace form; the pair steps of F are constant here, so that
    # M is a Z site
    draw = data.draw
    rule = SIGNED[iset][0] if algebra else None
    ring = algebra_ring(rule) if algebra else RATIONAL_RING
    site = _letter_site(draw, rule, 2, iset)
    factors = [f if len(f) == 2 else (*f[:2], TruncatedSeries(
        RATIONAL_RING, [f[2].coeffs[0], 0, 0], 2))
               for f in _factors(draw, 2, iset, 0)]
    fh = antisymmetrizer(2, iset)
    for f in factors[::-1]:
        fh = _dense_step(f, 2, iset, RATIONAL_RING, 2).coeffs[0] * fh
    m = partial_trace(fh, [2])
    got = trace_words(2, iset, [(1, site)], factors, ring, 2)
    assert got == trace_words(1, iset, [(1, site)], [(1, ZMatrix(iset, {
        (r[0], c[0]): v for (r, c), v in m.entries.items()}))], ring, 2)
    assert got == _full_trace(2, iset, [(1, site)], factors, ring, 2)


# -- planted defects, kept under their names: rows of the table in faults.py --
test_r_identities_fail_for_wrong_r_matrices = control("flip-doubled")
test_q_faults_fail_the_twisted_rows = controls({
    f"{form}-{N}-{q}": [fault_id]
    for q, fault_id in (("P", "q-is-the-flip"), ("-Q", "q-negated"),
                        ("2Q", "q-doubled"))
    for form, N in (("so", 3), ("sp", 2), ("so", 4))})
test_orientation_rows_fail_for_a_wrong_orientation = control(
    "orientation-reversed")
test_reversed_composition_is_seen_by_the_oracle_only = control(
    "composition-reversed")
test_suite_rows_fail_for_a_dropped_sign = control("alternator-sign-dropped")
