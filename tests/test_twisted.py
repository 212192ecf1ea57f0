import json
import os
import tempfile
from functools import reduce
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from bethe import twisted
from bethe.indices import IndexSet, ZMatrix, parse_z_spec
from bethe.rationals import ONE, Q
from bethe.series import (INF_CAP, RATIONAL_RING, BiLaurent, TruncatedSeries,
                          algebra_ring)
from bethe.tensor import tensor_ring
from bethe.twisted import (TwistedContext, expanded_bethe_series,
                           hat_trace, hat_twisted_series, prop36_trace_form,
                           reflection_residual, theta_series,
                           twisted_bethe_series, verify_prop36,
                           verify_reflection, verify_sklyanin, verify_symmetry,
                           verify_twisted_commutativity,
                           verify_z_rmatrix_scalar)
from bethe.yangian import t_site_series, verify_rtt
from faults import control, controls
from oracles import (a_k_rational_side, alternator, antisymmetrizer, fused_z,
                     g_factor, hat_rational_side, membership_rows,
                     s_series_tensor, verify_z_exchange, z_product)

SP2 = TwistedContext(IndexSet.signed(2, "sp"))
SO3 = TwistedContext(IndexSet.signed(3, "so"))
Z_SP = parse_z_spec("diag:1", SP2.index_set, "prime_skew")
Z_SO = parse_z_spec("diag:1", SO3.index_set, "prime_skew")


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert rows and not bad, bad


# -- the fused block S(u,k) as one tensor: the oracle of the word transfer ------


def fused_s(ctx, k, D, expanded=True):
    """S(u,k) on sites 1..k, k >= 1, as one block with algebra
    coefficients, the omega(u) normalization folded into the R-matrix
    factors: for p = 1..k, site p carrying S(u-p) on the formal carrier or
    mapped through s_expand, followed by id - Q_pq/(p+q-2u), q = p+1..k."""
    iset = ctx.index_set
    s = t_site_series(ctx.s_rule, D)
    if expanded:
        ring = algebra_ring(ctx.yang_rule)
        s = s.map_coeffs(lambda c: c.map_coeffs(ctx.s_expand, ring),
                         tensor_ring(1, iset, ring))
    tring = tensor_ring(k, iset, s.ring.one.ring)
    factors = []
    for p in range(1, k + 1):
        factors.append(s.map_coeffs(lambda c: c.embed((p,), k), tring)
                       .substitute_affine(1, -p))
        factors += [g_factor(p, q, p + q, k, iset, D)
                    for q in range(p + 1, k + 1)]
    return reduce(mul, factors)


def block_trace(h, x):
    """tr(h(u) x(u)) = sum_ab h_ab(u) x_ba(u) for a rational tensor or
    series h and a block series x."""
    if not isinstance(h, TruncatedSeries):
        h = TruncatedSeries.constant(tensor_ring(h.sites, h.index_set), h,
                                     x.trunc)
    ring = algebra_ring(x.ring.one.ring.one.rule)
    return TruncatedSeries(ring, [ring.sum([
        x.coeffs[r].entries[(b, a)] * c for r in range(s + 1)
        for (a, b), c in h.coeffs[s - r].entries.items()
        if (b, a) in x.coeffs[r].entries]) for s in range(x.trunc + 1)],
        x.trunc)


def verify_fused_membership(ctx, k, D):
    """The fused element satisfies H X = H X H coefficientwise.  This uses
    the reflection relation, so it only holds after expansion into the
    ambient algebra."""
    return membership_rows(f"S(u,{k}) membership",
                           alternator(k, ctx.index_set), fused_s(ctx, k, D))


def verify_fused_z_membership(ctx, z, k, D):
    return membership_rows(f"Z(u,{k}) membership",
                           alternator(k, ctx.index_set),
                           fused_z(z, k, D))


def verify_fused_determinant(ctx, z, D):
    """H_N x 1 . S(u,N) = H_N x A_N(u), coefficientwise (this relies on the
    defining relations, so it is checked on expanded coefficients), as
    A_N S(u,N) = A_N x A_N(u) with A_N = N! H_N."""
    N = ctx.index_set.N
    s = fused_s(ctx, N, D)
    alt = alternator(N, ctx.index_set)
    a_n = expanded_bethe_series(ctx, N, z, D)
    ring = algebra_ring(ctx.yang_rule)
    return [(f"fused determinant u^{-r}", alt * s.coeffs[r]
             == alt.map_coeffs(lambda c: a_r * c, ring))
            for r, a_r in enumerate(a_n.coeffs)]


def test_context_requires_signed_set():
    with pytest.raises(ValueError):
        TwistedContext(IndexSet.plain(2))


def test_expansion_of_first_generators():
    # S_ij^(1) = T_ij^(1) - eps_ij T_{-j,-i}^(1)
    rule = SP2.yang_rule
    assert SP2.expand_gen((1, 1, -1)) == \
        rule.element(1, -1, 1) * Q(2)  # eps_{1,-1} = -1 doubles the entry
    assert SP2.expand_gen((1, 1, 1)) == \
        rule.element(1, 1, 1) - rule.element(-1, -1, 1)


def _entry_series(ctx, s, i, j):
    """The entry (i, j) of a one-site tensor series over the Yangian."""
    return TruncatedSeries(algebra_ring(ctx.yang_rule), [
        c.entries.get(((i,), (j,)), ctx.yang_rule.zero()) for c in s.coeffs],
        s.trunc)


@pytest.mark.parametrize("N, form", [(3, "so"), (2, "sp"), (4, "so"),
                                     (4, "sp"), (5, "so")])
def test_expand_gen_is_the_coefficient_of_s(N, form):
    # the defining formula against S(u) = T(u) T~(-u) multiplied out
    D = 4
    ctx = TwistedContext(IndexSet.signed(N, form))
    s = s_series_tensor(ctx, D)
    idx = ctx.index_set.indices()
    for i, j in product(idx, repeat=2):
        assert [ctx.expand_gen((r, i, j)) for r in range(1, D + 1)] == \
            list(_entry_series(ctx, s, i, j).coeffs[1:]), (i, j)


@pytest.mark.parametrize("N, form", [(3, "so"), (2, "sp")])
def test_hat_trace_reads_the_inverse_of_s(N, form):
    # on one site hat_trace is tr(E_ji hat-S(u-1)) = hat-S_ij(u-1) for the
    # factor E_ji: the formal inverse, read through s_expand, against the
    # inverse of the expanded S(u)
    D = 3
    ctx = TwistedContext(IndexSet.signed(N, form))
    s_hat = s_series_tensor(ctx, D).invert().substitute_affine(1, -1)
    idx = ctx.index_set.indices()
    for i, j in product(idx, repeat=2):
        unit = ZMatrix(ctx.index_set, {(j, i): 1})
        assert hat_trace(ctx, 1, [(1, unit)], D) == \
            _entry_series(ctx, s_hat, i, j), (i, j)


def test_symmetry_relation():
    _all_ok(verify_symmetry(SP2, 3))
    _all_ok(verify_symmetry(SO3, 2))


def test_reflection_relation_componentwise():
    # at D = 2 the sp2 window holds no coefficient: no rows, not a pass
    assert verify_reflection(SP2, 2) == []
    _all_ok(verify_reflection(SP2, 3))


def test_reflection_matrix_form_and_mixed_rtt():
    # the rows read the whole trusted window r, s <= D - 2 = 2
    _all_ok(verify_reflection(SP2, 4))
    _all_ok(verify_rtt(SP2.yang_rule, 2))
    _all_ok(verify_rtt(SO3.yang_rule, 2))


def test_fused_membership_needs_expansion():
    _all_ok(verify_fused_membership(SP2, 2, 2))
    _all_ok(verify_z_exchange(SP2, Z_SP))
    _all_ok(verify_fused_z_membership(SP2, Z_SP, 2, 2))


def test_theta_series():
    t_sp = theta_series(SP2, 2)
    assert list(t_sp.coeffs) == [ONE, Q(-1), Q(-1, 2)]  # 1 + 2/(1-2u)
    t_so = theta_series(SO3, 2)
    assert list(t_so.coeffs) == [ONE, Q(0), Q(0)]


def test_sklyanin_identity_and_centrality():
    _all_ok(verify_sklyanin(SP2, Z_SP, 3))


def test_fused_determinant():
    _all_ok(verify_fused_determinant(SP2, Z_SP, 2))


def test_twisted_commutativity_small():
    _all_ok(verify_twisted_commutativity(SP2, Z_SP, budget=3))


# the trace-form row of hat-A_1 at D = 2, at the scalar series 1
TRACE_FORM_K1 = ("trace-form scalar k=1: [Fraction(1, 1), Fraction(0, 1), "
                 "Fraction(0, 1)]")


def test_twisted_hat_identity_small():
    rows = [row for row in verify_prop36(SP2, Z_SP, 2)
            if row[0].startswith("twisted hat identity")]
    assert len(rows) == SP2.index_set.N
    _all_ok(rows)


def test_prop36_scalar_resolution():
    # the trace form equals hat-A_k at the fixed scalar series 1
    assert dict(verify_prop36(SP2, Z_SP, 2))[TRACE_FORM_K1] is True
    # the exchange holds at the fixed scalar c(u) = u
    assert verify_z_rmatrix_scalar(SP2, Z_SP) == [
        ("exchange scalar c(u) = 1*u + 0", True)]


def test_prop36_builds_each_hat_series_once(monkeypatch):
    built = []

    def counted(ctx, k, z, D):
        built.append(k)
        return hat_twisted_series(ctx, k, z, D)

    monkeypatch.setattr(twisted, "hat_twisted_series", counted)
    ctx = TwistedContext(SP2.index_set)
    rows = verify_prop36(ctx, Z_SP, 2)
    _all_ok(rows)
    assert ("trace-form scalar k=2: [Fraction(1, 1), Fraction(0, 1), "
            "Fraction(0, 1)]") in [item for item, _ in rows]
    assert sorted(built) == [0, 1, 2]


def test_twisted_constant_terms():
    # A_k(u) has constant term e_{N-k}(z-spectrum shifts) / binomial(N, k);
    # for k = N the constant term is 1
    a2 = twisted_bethe_series(SP2, 2, Z_SP, 1)
    assert a2.coeffs[0] == SP2.s_rule.one()
    h0 = hat_twisted_series(SP2, 0, Z_SP, 1)
    assert h0.coeffs[0] == SP2.yang_rule.one()


# -- the word transfer against the fused block ---------------------------------

TRANSFER_CASES = [("sp", 2, "skew", 2), ("so", 3, "skew", 2),
                  ("so", 3, "symmetric", 2), ("sp", 4, "skew", 2),
                  ("so", 4, "skew", 2)]


def _case(form, N, symmetry):
    ctx = TwistedContext(IndexSet.signed(N, form))
    spec = "diag:" + ",".join(str(i) for i in range(1, N // 2 + 1))
    return ctx, parse_z_spec(spec, ctx.index_set, f"prime_{symmetry}")


def _check_a_k(ctx, z, D):
    """A_k, k = 1..N, is the same free-algebra element, term for term, as
    the trace of its dense rational side against the formal block
    S(u,k)."""
    for k in range(1, ctx.index_set.N + 1):
        got = twisted_bethe_series(ctx, k, z, D)
        want = block_trace(a_k_rational_side(z, k, D),
                           fused_s(ctx, k, D, expanded=False))
        assert got.trunc == D
        assert [c.terms for c in got.coeffs] == \
            [c.terms for c in want.coeffs], k


def _check_hat(ctx, z, D):
    """hat-A_k and the prop-3.6 form, k = 1..N, against the inverse series
    of the expanded block S(u,k), term for term."""
    for k in range(1, ctx.index_set.N + 1):
        inverse = fused_s(ctx, k, D).invert()
        short = z_product(z, range(1, k + 1), k) * \
            antisymmetrizer(k, ctx.index_set)
        for got, want in (
                (hat_twisted_series(ctx, k, z, D),
                 block_trace(hat_rational_side(z, k, D), inverse)),
                (prop36_trace_form(ctx, z, k, D),
                 block_trace(short, inverse))):
            assert [c.terms for c in got.coeffs] == \
                [c.terms for c in want.coeffs], k


@pytest.mark.parametrize("form, N, symmetry, D", TRANSFER_CASES)
def test_a_k_is_the_trace_against_the_fused_block(form, N, symmetry, D):
    _check_a_k(*_case(form, N, symmetry), D)


@pytest.mark.parametrize("form, N, symmetry, D", TRANSFER_CASES)
def test_hat_families_are_traces_against_the_inverse_block(form, N,
                                                           symmetry, D):
    # N = 4 runs at D = 1, where the inverse of the four-site block stays
    # cheap
    _check_hat(*_case(form, N, symmetry), 1 if N == 4 else D)


@st.composite
def sign_matched_z(draw, iset, symmetry):
    """A general Z with Z' = Z or Z' = -Z: M + M' or M - M' for a sparse
    rational M, where M'_ij = eps_{-j,-i} M_{-j,-i}."""
    idx = iset.indices()
    m = draw(st.dictionaries(
        st.tuples(st.sampled_from(idx), st.sampled_from(idx)),
        st.builds(Q, st.integers(-3, 3), st.integers(1, 3)), max_size=4))
    sign = 1 if symmetry == "symmetric" else -1
    z = dict(m)
    for (i, j), v in m.items():
        z[(-j, -i)] = z.get((-j, -i), 0) + sign * iset.eps(i, j) * v
    return ZMatrix(iset, z, f"prime_{symmetry}")


@settings(max_examples=12, deadline=None)
@given(data=st.data(), case=st.sampled_from(
    [("sp", 2, "skew"), ("sp", 2, "symmetric"), ("so", 3, "skew"),
     ("so", 3, "symmetric")]), D=st.integers(1, 2))
def test_trace_forms_match_the_blocks_for_a_general_z(data, case, D):
    form, N, symmetry = case
    ctx = TwistedContext(IndexSet.signed(N, form))
    z = data.draw(sign_matched_z(ctx.index_set, symmetry))
    _check_a_k(ctx, z, D)
    _check_hat(ctx, z, D)


def _json_z(z, symmetry):
    """Z written to a JSON file in the `json:` grammar of --Z and read
    back with the symmetry tag checked."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump([[i, j, f"{v.numerator}/{v.denominator}"]
                       for (i, j), v in sorted(z.entries.items())], fh)
        return parse_z_spec(f"json:{path}", z.index_set, f"prime_{symmetry}")
    finally:
        os.remove(path)


@settings(max_examples=10, deadline=None)
@given(data=st.data(), case=st.sampled_from(
    [("sp", 2, "symmetric", 2), ("so", 3, "skew", 2), ("sp", 4, "skew", 1),
     ("sp", 4, "symmetric", 1), ("so", 4, "skew", 1),
     ("so", 4, "symmetric", 1)]))
def test_trace_forms_match_the_blocks_for_a_json_z(data, case):
    # a general sign-matched Z through the json: grammar, up to N = 4
    form, N, symmetry, D = case
    ctx = TwistedContext(IndexSet.signed(N, form))
    z = _json_z(data.draw(sign_matched_z(ctx.index_set, symmetry)), symmetry)
    _check_a_k(ctx, z, D)
    _check_hat(ctx, z, D)


def _terms(res):
    # the entries of a residual with tensor coefficients, as plain term
    # dicts: two contexts own distinct rule objects
    return {key: {e: v.terms for e, v in t.entries.items()}
            for key, t in res.entries.items()}


def test_reflection_residual_on_a_reused_context():
    # the D-keyed memos of S(u) and of the expanded generators must not
    # leak across orders: a reused context gives what a fresh one gives,
    # on the formal carrier and after s_expand
    iset = IndexSet.signed(2, "sp")
    reused = TwistedContext(iset)
    for D in (2, 3):
        fresh = TwistedContext(iset)
        got = reflection_residual(reused, D)
        want = reflection_residual(fresh, D)
        assert _terms(got) == _terms(want)
        assert (got.cap_u, got.cap_v) == (want.cap_u, want.cap_v) \
            == (D - 2, D - 2)
        for key, t in got.entries.items():
            assert ({e: reused.s_expand(v).terms for e, v in t.entries.items()}
                    == {e: fresh.s_expand(v).terms
                        for e, v in want.entries[key].entries.items()})


# -- the componentwise reflection relation, as the oracle of the entry map ------


def _s_entry(gen, rule, i, j, var, D):
    """S_ij(u) (var "u") or S_ij(v) as a bivariate object with scalar
    algebra coefficients gen(r, i, j), trusted to order D in its variable."""
    ring = algebra_ring(rule)
    ent = {(0, 0): ring.one} if i == j else {}
    for r in range(1, D + 1):
        ent[(-r, 0) if var == "u" else (0, -r)] = gen(r, i, j)
    return BiLaurent(ring, ent, D if var == "u" else INF_CAP,
                     D if var == "v" else INF_CAP)


def _componentwise_residual(iset, gen, rule, i, j, k, l, D):
    """(u^2-v^2)[S_ij(u), S_kl(v)]
      - (u+v)(S_kj(u)S_il(v) - S_kj(v)S_il(u))
      + (u-v)(e_{k,-j} S_{i,-k}(u)S_{-j,l}(v) - e_{i,-l} S_{k,-i}(v)S_{-l,j}(u))
      - e_{i,-j}(S_{k,-i}(u)S_{-j,l}(v) - S_{k,-i}(v)S_{-j,l}(u))."""
    def SS(a, b, var, c, d):
        # S_ab(var) S_cd(the other variable)
        other = "v" if var == "u" else "u"
        return (_s_entry(gen, rule, a, b, var, D)
                * _s_entry(gen, rule, c, d, other, D))

    def poly(terms):
        return BiLaurent(RATIONAL_RING, terms, INF_CAP, INF_CAP)

    u2v2 = poly({(2, 0): 1, (0, 2): -1})
    upv = poly({(1, 0): 1, (0, 1): 1})
    umv = poly({(1, 0): 1, (0, 1): -1})
    res = (SS(i, j, "u", k, l) - SS(k, l, "v", i, j)) * u2v2
    res = res - (SS(k, j, "u", i, l) - SS(k, j, "v", i, l)) * upv
    res = res + (SS(i, -k, "u", -j, l) * iset.eps(k, -j)
                 - SS(k, -i, "v", -l, j) * iset.eps(i, -l)) * umv
    return res - (SS(k, -i, "u", -j, l)
                  - SS(k, -i, "v", -j, l)) * iset.eps(i, -j)


@pytest.mark.parametrize("iset, D", [(IndexSet.signed(2, "sp"), 3),
                                     (IndexSet.signed(3, "so"), 3),
                                     (IndexSet.signed(4, "sp"), 2)])
@pytest.mark.parametrize("carrier", ["formal", "expanded"])
def test_reflection_entry_is_minus_the_componentwise_residual(iset, D,
                                                              carrier):
    ctx = TwistedContext(iset)
    if carrier == "formal":
        rule, image = ctx.s_rule, lambda c: c
        gen = lambda r, i, j: ctx.s_gen(i, j, r)
    else:
        rule, image = ctx.yang_rule, ctx.s_expand
        gen = lambda r, i, j: ctx.expand_gen((r, i, j))
    res = reflection_residual(ctx, D)
    # the rows read every coefficient of the residual's window
    rows = dict(twisted.reflection_rows("r", ctx, D, image))
    nonzero = False
    for i, j, k, l in product(iset.indices(), repeat=4):
        want = _componentwise_residual(iset, gen, rule, i, j, k, l, D)
        nonzero = nonzero or bool(want)
        key = ((i, k), (j, l))
        # a row exactly when the entry has a coefficient in the window; a
        # tuple without one has a zero componentwise residual
        row = rows.get(f"r ({i},{j},{k},{l})")
        assert (row is not None) == any(key in t.entries
                                         for t in res.entries.values())
        assert (True if row is None else row) == (not want)
        got = {e: -image(t.entries[key]) for e, t in res.entries.items()
               if key in t.entries}
        assert {e: v.terms for e, v in got.items() if v} \
            == {e: v.terms for e, v in want.entries.items()}, (i, j, k, l)
        assert (res.cap_u, res.cap_v) == (want.cap_u, want.cap_v)
    # the relation holds only after expansion
    assert nonzero == (carrier == "formal")


def test_reflection_rows_read_entry_ik_jl():
    # a zero test cannot tell entry ((i,k),(j,l)) from ((i,k),(l,j)): the
    # formal residual vanishes symmetrically in j and l.  A probe for the
    # one word S_11^(1) S_{-1,-1}^(1) can.
    iset = SP2.index_set
    word = ((1, 1, 1), (1, -1, -1))
    rows = twisted.reflection_rows("r", SP2, 3, lambda c: word in c.terms)
    want = {}
    for i, j, k, l in product(iset.indices(), repeat=4):
        res = _componentwise_residual(iset, lambda r, a, b: SP2.s_gen(a, b, r),
                                      SP2.s_rule, i, j, k, l, 3)
        want[f"r ({i},{j},{k},{l})"] = not any(
            word in c.terms for c in res.entries.values())
    assert dict(rows) == want
    assert not all(want.values())


@pytest.mark.parametrize("iset, D", [(IndexSet.signed(3, "so"), 5),
                                     (IndexSet.signed(2, "sp"), 6)])
def test_reflection_rows_read_the_corner_of_the_window(iset, D):
    # the trusted window is r, s <= D - 2; its corner u^-(D-2) v^-(D-2) lies
    # past total order D (u^-3 v^-3 at so3 D = 5, u^-4 v^-4 at sp2 D = 6).
    # A probe for one word that only the corner coefficient holds must
    # flag exactly the entries that hold it there.
    ctx = TwistedContext(iset)
    res = reflection_residual(ctx, D)
    assert (res.cap_u, res.cap_v) == (D - 2, D - 2)
    corner = (2 - D, 2 - D)
    held = {}
    for e, c in res.entries.items():
        for x in c.entries.values():
            for w in x.terms:
                held.setdefault(w, set()).add(e)
    word = min(w for w, es in held.items() if es == {corner})
    rows = twisted.reflection_rows("r", ctx, D, lambda c: word in c.terms)
    want = {f"r ({i},{j},{k},{l})"
            for ((i, k), (j, l)), x in res.entries[corner].entries.items()
            if word in x.terms}
    assert want and {item for item, ok in rows if not ok} == want


# -- planted defects, kept under their names: rows of the table in faults.py --
test_twisted_hat_identity_negative_control = controls({
    "factor0": ["hat-a-doubled"], "factor1": ["hat-a-quartered"]})
test_prop36_scalar_negative_control = control("hat-a-doubled")
