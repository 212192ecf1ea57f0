import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bethe.certify import (rank_table, verify_jacobian_rank,
                           verify_laplace_consistency, verify_poisson_jacobi,
                           verify_poisson_rank, verify_symbol_homomorphy,
                           verify_twisted_parity)
from bethe.indices import IndexSet, parse_z_spec, perm_sign
from bethe.poisson import (CurrentPoint, PoissonContext, bethe_family,
                           bracket_matrix, jacobian_rows,
                           matrix_rank, poisson_bracket, principal_nilpotent,
                           upper_slice)
from bethe.rationals import ONE, Q, accumulate, binomial, div
from faults import controls
from oracles import (derivative, evaluate, expected_jacobian_rank,
                     expected_poisson_rank, poisson_bracket_double_sum,
                     rank_table_holds)


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert rows and not bad, bad


def var(ctx, r, i, j):
    return ctx.element(i, j, r)


def test_context_kind_follows_the_index_set():
    # the context is plain or twisted as its index set is plain or signed:
    # a plain context keeps v_11^(1), a twisted one folds it into
    # -v_{-1,-1}^(1)
    ctx = PoissonContext(IndexSet.plain(2), 1)
    assert ctx.index_set.kind == "plain"
    assert ctx.reduce_var((1, 1, 1)) == (1, (1, 1, 1))
    for iset in (IndexSet.signed(2, "sp"), IndexSet.signed(3, "so"),
                 IndexSet.signed(4, "so")):
        ctx = PoissonContext(iset, 2)
        assert ctx.index_set.kind == "signed"
        assert ctx.reduce_var((1, 1, 1)) == (-1, (1, -1, -1))
    with pytest.raises(ValueError):
        PoissonContext(IndexSet.plain(2), 0)


def test_contexts_with_equal_index_sets_and_levels_are_equal():
    a = PoissonContext(IndexSet.signed(4, "sp"), 2)
    b = PoissonContext(IndexSet.signed(4, "sp"), 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PoissonContext(IndexSet.signed(4, "sp"), 3)
    assert a != PoissonContext(IndexSet.signed(4, "so"), 2)
    assert a != PoissonContext(IndexSet.plain(4), 2)


def test_standard_bracket_at_level_one():
    ctx = PoissonContext(IndexSet.plain(2), 1)
    assert poisson_bracket(var(ctx, 1, 1, 1), var(ctx, 1, 1, 2)) == \
        var(ctx, 1, 1, 2)
    f = var(ctx, 1, 1, 2) * var(ctx, 1, 2, 1)
    assert not poisson_bracket(f, f)


def test_truncation_window():
    # at M = 2 the bracket of two top-level coordinates keeps only the
    # r = 2 term of the double sum
    ctx = PoissonContext(IndexSet.plain(2), 2)
    got = poisson_bracket(var(ctx, 2, 1, 1), var(ctx, 2, 1, 2))
    expect = (var(ctx, 1, 1, 1) * var(ctx, 2, 1, 2)
              - var(ctx, 2, 1, 1) * var(ctx, 1, 1, 2))
    assert got == expect


def test_twisted_reduction_to_fundamental_domain():
    iset = IndexSet.signed(2, "sp")
    ctx = PoissonContext(iset, 2)
    # y_11^(1) = -y_{-1,-1}^(1);   y_{1,-1}^(2) is forced to zero
    assert var(ctx, 1, 1, 1) == -var(ctx, 1, -1, -1)
    assert not var(ctx, 2, 1, -1)


SIGNED_CONTEXTS = [PoissonContext(iset, M)
                   for iset in (IndexSet.signed(3, "so"),
                                IndexSet.signed(2, "sp"),
                                IndexSet.signed(4, "so"))
                   for M in (1, 2)]


@st.composite
def signed_terms(draw, ctx):
    """Term dicts of up to three monomials of up to three coordinates
    anywhere on the grid, levels up to M + 1, so that ties, forced zeros
    and the truncation all occur."""
    idx = ctx.index_set.indices()
    coord = st.tuples(st.integers(1, ctx.M + 1), st.sampled_from(idx),
                      st.sampled_from(idx))
    coeff = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    return draw(st.dictionaries(st.lists(coord, max_size=3).map(tuple),
                                coeff, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_polynomials_of_a_signed_context(data):
    # the polynomial algebra of a signed context: reduced variables carry
    # the tie sign eps_ij (-1)^r, products are the reduced sorted
    # concatenations and commute and associate, and the reference
    # derivative of the oracles is a derivation
    ctx = data.draw(st.sampled_from(SIGNED_CONTEXTS), label="context")
    eps = ctx.index_set.eps
    r, i, j = data.draw(st.sampled_from(
        [(r, i, j) for r in range(1, ctx.M + 1)
         for i in ctx.index_set.indices() for j in ctx.index_set.indices()]))
    rep = min((i, j), (-j, -i))
    sign = eps(i, j) * (-1) ** r
    got = ctx.reduced({((r, i, j),): 1})
    if (i, j) == (-j, -i):
        assert got == (ctx.element(i, j, r) if sign == 1 else 0)
        assert bool(got) is (sign == 1)
    elif rep == (i, j):
        assert got.terms == {((r, i, j),): 1}
    else:
        assert got == ctx.element(rep[0], rep[1], r) * sign
        assert got.terms == {((r, *rep),): sign}
    assert not ctx.reduced({((ctx.M + 1, i, j),): 1})

    ta, tb, tc = (data.draw(signed_terms(ctx)) for _ in range(3))
    a, b, c = ctx.reduced(ta), ctx.reduced(tb), ctx.reduced(tc)
    product: dict = {}
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = tuple(sorted(m1 + m2))
            product[m] = product.get(m, 0) + c1 * c2
    assert a * b == ctx.reduced(product)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    for v in ctx.variables():
        assert derivative(a * b, v) == \
            derivative(a, v) * b + a * derivative(b, v)


def test_elements_of_different_rules_do_not_mix():
    # nor does the derivation of `element` mix them, whose bracket takes an
    # element under any rule equal to its own
    from bethe.algebra import YangianRule

    iset = IndexSet.signed(3, "so")
    x = PoissonContext(iset, 2).element(1, 0, 1)
    y = YangianRule(iset).element(1, 0, 1)
    assert x
    for left, right in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="different rules"):
            left + right
        with pytest.raises(ValueError, match="different rules"):
            left * right
        with pytest.raises(ValueError, match="elements under different rules"):
            poisson_bracket(left, right)
        assert left != right
    # contexts on equal index sets and levels are equal rules
    one, other = PoissonContext(iset, 2), PoissonContext(iset, 2)
    assert x + other.element(1, 0, 1) == x * 2
    for a, b in (((1, 1, 0), (2, 0, -1)), ((2, 1, 1), (2, 1, -1))):
        got = poisson_bracket(var(one, *a), var(other, *b))
        assert got and got == poisson_bracket(var(one, *a), var(one, *b))


BRACKET_CONTEXTS = [PoissonContext(IndexSet.plain(N), M)
                    for N in (2, 3) for M in (1, 2)] + SIGNED_CONTEXTS


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bracket_is_the_double_sum(data):
    # the derivation over the context equals the double sum
    # sum_{a,b} d_a f d_b g {a, b}, and is antisymmetric, on polynomials
    # of degree <= 3; `signed_terms` draws on a plain grid as well
    ctx = data.draw(st.sampled_from(BRACKET_CONTEXTS), label="context")
    f, g = (ctx.reduced(data.draw(signed_terms(ctx))) for _ in range(2))
    got = poisson_bracket(f, g)
    assert got == poisson_bracket_double_sum(f, g)
    assert poisson_bracket(g, f) == -got


def test_jacobi_plain_and_twisted():
    _all_ok(verify_poisson_jacobi(PoissonContext(IndexSet.plain(3), 2),
                                  seed=1))
    _all_ok(verify_poisson_jacobi(PoissonContext(IndexSet.signed(3, "so"), 2),
                                  seed=2))


def test_bethe_poly_oracle_values():
    iset = IndexSet.plain(2)
    ctx = PoissonContext(iset, 1)
    z = parse_z_spec("diag:1,2", iset)
    family = bethe_family(ctx, z)
    b1 = family[1]
    assert b1[0] == ctx.zero() + Q(3, 2)
    assert b1[1] == (var(ctx, 1, 1, 1) * 2 + var(ctx, 1, 2, 2)) * Q(1, 2)
    b2 = family[2]
    assert b2[1] == var(ctx, 1, 1, 1) + var(ctx, 1, 2, 2)
    assert b2[2] == (var(ctx, 1, 1, 1) * var(ctx, 1, 2, 2)
                     - var(ctx, 1, 1, 2) * var(ctx, 1, 2, 1))


def test_family_is_involutive_and_top_series_central():
    iset = IndexSet.plain(2)
    ctx = PoissonContext(iset, 2)
    z = parse_z_spec("diag:1,2", iset)
    family = bethe_family(ctx, z)
    fam = [p for k in (1, 2) for p in family[k]]
    for a in fam:
        for b in fam:
            assert not poisson_bracket(a, b)
    for p in family[2]:
        for v in ctx.variables():
            assert not poisson_bracket(p, var(ctx, *v))


def test_twisted_parity_and_sign_symmetry():
    iset = IndexSet.signed(2, "sp")
    ctx = PoissonContext(iset, 2)
    z = parse_z_spec("diag:1", iset, "prime_skew")
    for k in (1, 2):
        for r, p in enumerate(bethe_family(ctx, z)[k]):
            if (iset.N - k + r) % 2 == 1:
                assert not p


def test_symbol_homomorphy_seeded():
    _all_ok(verify_symbol_homomorphy(IndexSet.plain(2), 2, seed=9))


def test_laplace_consistency_small():
    iset = IndexSet.plain(2)
    z = parse_z_spec("diag:1,2", iset)
    _all_ok(verify_laplace_consistency(iset, z, 1))
    sp = IndexSet.signed(2, "sp")
    zs = parse_z_spec("diag:1", sp, "prime_skew")
    _all_ok(verify_laplace_consistency(sp, zs, 1))


@pytest.mark.parametrize("iset,spec,tag,M", [
    (IndexSet.plain(2), "diag:1,2", None, 2),
    (IndexSet.plain(3), "diag:1,2,3", None, 1),
    (IndexSet.signed(2, "sp"), "diag:1", "prime_skew", 2),
    (IndexSet.signed(3, "so"), "diag:1", "prime_skew", 1),
    (IndexSet.signed(2, "sp"), "diag:1", "prime_skew", 3),
    (IndexSet.signed(3, "so"), "diag:1", "prime_skew", 3),
    (IndexSet.signed(4, "sp"), "diag:1,2", "prime_skew", 1),
    (IndexSet.signed(4, "so"), "diag:1,2", "prime_skew", 1)])
def test_context_member_has_the_symbols_of_the_full_family(iset, spec, tag, M):
    # member k as verify_laplace_consistency builds it, through order kM
    # with the PoissonContext as its rule (B_k on gl, the graded member of
    # A_k on so/sp), has the symbols of the full B_k or A_k through order
    # NM, and these vanish beyond kM: the Laplace rows lose no symbol
    from bethe.algebra import symbol
    from bethe.twisted import graded_bethe_series
    from bethe.evalmap import commuting_family
    from bethe.yangian import bethe_series

    z = parse_z_spec(spec, iset, tag)
    ctx = PoissonContext(iset, M)
    N = iset.N
    full = commuting_family(iset, z)
    member = bethe_series if iset.kind == "plain" else graded_bethe_series
    for k in range(1, N + 1):
        xs, cs = full(k, N * M), member(k, z, ctx, k * M)
        syms = [symbol(x, r, ctx) for r, x in enumerate(xs.coeffs)]
        assert any(syms)
        for r, sym in enumerate(syms):
            assert sym == (symbol(cs.coeffs[r], r, ctx) if r <= k * M else 0)


def test_current_point_symmetry_is_validated():
    iset = IndexSet.signed(2, "sp")
    ctx = PoissonContext(iset, 2)
    with pytest.raises(ValueError):
        CurrentPoint(ctx, {(2, 1, -1): Q(1)})  # forced-zero coordinate
    with pytest.raises(ValueError, match="violates"):
        CurrentPoint(ctx, {(3, 1, 1): Q(1)})  # above the level M
    for c in (ctx, PoissonContext(IndexSet.plain(2), 1)):
        with pytest.raises(ValueError, match="not a coordinate"):
            CurrentPoint(c, {(1, 3, 3): Q(5)})  # index outside the set
    assert CurrentPoint(ctx, {(3, 1, 1): 0, (2, 1, -1): 0}).values == \
        CurrentPoint(ctx, {}).values


def test_current_point_folds_a_partner_onto_its_representative():
    # y_{i+1,i}^(M) = eps (-1)^M y_{-i,-i-1}^(M): a value given at the
    # partner reads back at the representative with that sign
    for iset, M, sign in ((IndexSet.signed(4, "sp"), 3, -1),
                          (IndexSet.signed(5, "so"), 3, -1),
                          (IndexSet.signed(4, "so"), 2, 1)):
        ctx = PoissonContext(iset, M)
        assert ctx.reduce_var((M, 2, 1)) == (sign, (M, -1, -2))
        pt = CurrentPoint(ctx, {(M, 2, 1): Q(5, 2)})
        assert pt.values[(M, -1, -2)] == sign * Q(5, 2)
        assert {v: x for v, x in pt.values.items() if x} == \
            {(M, -1, -2): sign * Q(5, 2)}
        both = {(M, 2, 1): 5, (M, -1, -2): sign * 5}
        assert CurrentPoint(ctx, both).values == \
            CurrentPoint(ctx, {(M, 2, 1): 5}).values
        with pytest.raises(ValueError, match="violates"):
            CurrentPoint(ctx, {**both, (M, -1, -2): -sign * 5})


def test_matrix_rank_oracle():
    rows = [[Q(1), Q(2)], [Q(2), Q(4)], [Q(0), Q(1)]]
    assert matrix_rank(rows) == 2
    assert matrix_rank([[Q(0), Q(0)]]) == 0


def test_jacobian_rank_of_constants_is_zero():
    # c_k^(0), the constant of each member, has a zero jet row; the rows
    # of the whole family do not vanish
    iset = IndexSet.plain(2)
    ctx = PoissonContext(iset, 1)
    z = parse_z_spec("diag:1,2", iset)
    pt = CurrentPoint(ctx, {v: Q(1) for v in ctx.variables()})
    rows = jacobian_rows(ctx, z, pt, ctx.variables())
    assert len(rows) == 2 + 3
    assert matrix_rank([rows[0], rows[2]]) == 0
    assert matrix_rank(rows) == 3


def test_poisson_rank_zero_point_and_ceiling():
    iset = IndexSet.plain(2)
    ctx = PoissonContext(iset, 2)
    assert matrix_rank(bracket_matrix(CurrentPoint(ctx, {}), ctx)) == 0
    ceiling = rank_table(iset, 2)[1]
    rng = random.Random(3)
    for seed in range(5):
        pt = CurrentPoint.random(ctx, seed=rng.randint(0, 10 ** 6))
        assert matrix_rank(bracket_matrix(pt, ctx)) <= ceiling


def test_rank_table_matches_the_three_function_reference():
    isets = ([IndexSet.plain(N) for N in range(1, 9)]
             + [IndexSet.signed(N, "so") for N in range(1, 9)]
             + [IndexSet.signed(N, "sp") for N in range(2, 9, 2)])
    tabulated = 0
    for iset in isets:
        for M in range(1, 7):
            ranks = rank_table(iset, M)
            if not rank_table_holds(iset, M):
                assert ranks is None, (iset, M)
                continue
            ctx = PoissonContext(iset, M)
            assert ranks == (expected_jacobian_rank(ctx),
                             expected_poisson_rank(ctx)), (iset, M)
            tabulated += 1
    assert tabulated == 84


def test_rank_certificates_raise_outside_the_tables():
    ctx = PoissonContext(IndexSet.signed(4, "so"), 1)
    with pytest.raises(ValueError, match="outside the rank tables"):
        verify_jacobian_rank(ctx, {})
    with pytest.raises(ValueError, match="outside the rank tables"):
        verify_poisson_rank(ctx)


@pytest.mark.parametrize("iset,M", [
    (IndexSet.plain(3), 2), (IndexSet.signed(3, "so"), 3),
    (IndexSet.signed(4, "sp"), 3), (IndexSet.signed(4, "so"), 2),
    (IndexSet.signed(5, "so"), 3)], ids=repr)
def test_bracket_matrix_is_the_brackets_evaluated_at_the_point(iset, M):
    # the formula evaluated at the point equals, entry by entry, the
    # value there of the polynomial gen_bracket forms from it, at the base
    # point and at a random one
    ctx = PoissonContext(iset, M)
    coords = ctx.variables()
    base = CurrentPoint(ctx, {(M, i, j): x for (i, j), x in
                              principal_nilpotent(iset).items()})
    for pt in (base, CurrentPoint.random(ctx, seed=3)):
        assert bracket_matrix(pt, ctx) == \
            [[evaluate(ctx.gen_bracket(a, b), pt) for b in coords]
             for a in coords]


def restricted(p, base: dict, free):
    """The restriction of p to the slice: every coordinate outside `free`
    replaced by its base value (the former `PoissonPoly.substitute`), kept
    as the reference for the slice certificate's Jacobian at a point."""
    free = set(free)
    terms: dict = {}
    for m, c in p.terms.items():
        for v in m:
            if v not in free:
                c = c * base[v]
        if c:
            accumulate(terms, ((tuple(v for v in m if v in free), c),))
    return p.rule.reduced(terms)


def test_slice_restriction_values():
    ctx = PoissonContext(IndexSet.signed(4, "so"), 1)
    base, free = upper_slice(ctx)
    # E_21 - E_{-1,-2} + E_{2,-1} - E_{1,-2} at the top level, read on the
    # fundamental domain: both coordinates off the slice take the value -1
    assert {v: c for v, c in base.items() if c} == \
        {(1, -1, -2): -1, (1, 1, -2): -1}
    assert free == ((1, -2, -2), (1, -2, -1), (1, -2, 1), (1, -1, -1))
    p = var(ctx, 1, -1, -2) * var(ctx, 1, -1, -1) + var(ctx, 1, 1, -2)
    assert restricted(p, base, free) == -var(ctx, 1, -1, -1) - 1


SLICE_CASES = {
    "so4": (IndexSet.signed(4, "so"), "diag:1,2"),
    "so6": (IndexSet.signed(6, "so"), "diag:1/2,3/2,-9/2"),
    "so8": (IndexSet.signed(8, "so"), "diag:1,2,3,5/2"),
}


@pytest.mark.parametrize("iset, spec", SLICE_CASES.values(), ids=SLICE_CASES)
def test_slice_jacobian_at_the_point_equals_the_restriction(iset, spec):
    # at each seed's draw of 1..9 on the free coordinates, the jet rows in
    # the free coordinates at the point that keeps the base values
    # elsewhere equal, entry by entry, the Jacobian of the restrictions
    ctx = PoissonContext(iset, 1)
    z = parse_z_spec(spec, iset, "prime_skew")
    fs = [p for table in bethe_family(ctx, z).values() for p in table]
    base, free = upper_slice(ctx)
    rest = [restricted(f, base, free) for f in fs]
    assert any(f != r for f, r in zip(fs, rest))
    for seed in (0, 7, 686):
        rng = random.Random(seed)
        draws = {v: rng.randint(1, 9) for v in free}
        at_point = CurrentPoint(ctx, {**base, **draws})
        on_slice = CurrentPoint(ctx, draws)
        assert jacobian_rows(ctx, z, at_point, free) == \
            [[evaluate(derivative(r, v), on_slice) for v in free]
             for r in rest]


def test_principal_nilpotents_match_the_display():
    assert principal_nilpotent(IndexSet.plain(3)) == {(2, 1): 1, (3, 2): 1}
    assert principal_nilpotent(IndexSet.signed(2, "sp")) == {(1, -1): 1}
    assert principal_nilpotent(IndexSet.signed(3, "so")) == {(1, 0): 1}
    # so_1 has the single index 0 and no nilpotent but zero
    assert principal_nilpotent(IndexSet.signed(1, "so")) == {}
    assert principal_nilpotent(IndexSet.signed(7, "so")) == \
        {(2, 1): 1, (3, 2): 1, (1, 0): 1}
    assert principal_nilpotent(IndexSet.signed(6, "sp")) == \
        {(2, 1): 1, (3, 2): 1, (1, -1): 1}
    for iset in (IndexSet.plain(4), IndexSet.signed(5, "so"),
                 IndexSet.signed(4, "sp")):
        with pytest.raises(ValueError, match="even orthogonal"):
            upper_slice(PoissonContext(iset, 1))
    # so_2 has no index 2, so its Lemma 4.5 nilpotent is zero
    base, _ = upper_slice(PoissonContext(IndexSet.signed(2, "so"), 1))
    assert base and not any(base.values())


def explicit_nilpotent(index_set: IndexSet, lemma45: bool = False) -> dict:
    """The signed nilpotents with every partner entry and its sign written
    out from the form and the parity of N (the former
    `principal_nilpotent`), kept as the reference for the entries the
    context completes: the chain E_{p+1,p} + chain_sign E_{-p,-p-1}, then
    E_{1,0} - E_{0,-1} (odd so), E_{1,-1} (sp and even so, the latter with
    chain_sign +1), or, with `lemma45` (even so, chain_sign -1),
    E_{2,-1} - E_{1,-2}."""
    form, N, n = index_set.form, index_set.N, index_set.n
    chain_sign = ONE if form == "so" and N % 2 == 0 and not lemma45 else -ONE
    ent = {}
    for i in range(1, n):
        ent[(i + 1, i)] = ONE
        ent[(-i, -i - 1)] = chain_sign
    if lemma45:
        ent[(2, -1)] = ONE
        ent[(1, -2)] = -ONE
    elif form == "so" and N % 2 == 1:
        ent[(1, 0)] = ONE
        ent[(0, -1)] = -ONE
    else:
        ent[(1, -1)] = ONE
    return ent


def full_grid(point: CurrentPoint) -> dict:
    """The nonzero values of a point on the full index grid, every
    coordinate read through its representative."""
    ctx = point.context
    idx = ctx.index_set.indices()
    out = {}
    for r in range(1, ctx.M + 1):
        for i in idx:
            for j in idx:
                red = ctx.reduce_var((r, i, j))
                x = 0 if red is None else red[0] * point.values[red[1]]
                if x:
                    out[(r, i, j)] = x
    return out


def assert_matches_explicit(point: CurrentPoint, explicit: dict):
    # the same value on every fundamental-domain variable, and the
    # explicit partner entries are the ones the context completes
    M = point.context.M
    assert point.values == {v: explicit.get(v[1:], 0) if v[0] == M else 0
                            for v in point.context.variables()}
    assert full_grid(point) == {(M, i, j): x for (i, j), x in explicit.items()}


NILPOTENT_SETS = ([IndexSet.signed(N, "so") for N in range(2, 9)]
                  + [IndexSet.signed(N, "sp") for N in (2, 4, 6, 8)])


@pytest.mark.parametrize("iset", NILPOTENT_SETS, ids=repr)
def test_completed_nilpotent_matches_the_explicit_matrix(iset):
    # at every M <= 5 of the rank tables, the nilpotent given by one entry
    # per tied pair completes to the explicit signed matrix
    levels = [M for M in range(1, 6) if rank_table(iset, M) is not None]
    assert levels
    for M in levels:
        ctx = PoissonContext(iset, M)
        point = CurrentPoint(ctx, {(M, i, j): x for (i, j), x in
                                   principal_nilpotent(iset).items()})
        assert_matches_explicit(point, explicit_nilpotent(iset))


@pytest.mark.parametrize("N", [4, 6, 8])
def test_slice_base_matches_the_explicit_lemma45_matrix(N):
    iset = IndexSet.signed(N, "so")
    ctx = PoissonContext(iset, 1)
    base, _ = upper_slice(ctx)
    assert_matches_explicit(CurrentPoint(ctx, base),
                            explicit_nilpotent(iset, lemma45=True))


def test_classical_family_shape():
    iset = IndexSet.signed(4, "so")
    z = parse_z_spec("diag:1,2", iset, "prime_skew")
    family = bethe_family(PoissonContext(iset, 1), z)
    assert list(family) == [1, 2, 3, 4] and any(any(t) for t in
                                                  family.values())


# -- reference implementations -------------------------------------------------


def gauss_jordan_rank(rows: list) -> int:
    """Rank by Gauss-Jordan elimination over the rationals (the former
    matrix_rank), kept as an oracle for the fraction-free one."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = ONE / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def permutation_det(context: PoissonContext, z) -> dict:
    """det(u^M + V(u) + Z v) as a sum over all N! permutations of the
    products of N entries (the expansion before the Laplace walk), as
    {key: terms}."""
    idx = context.index_set.indices()
    M = context.M
    entry = {}
    for i in idx:
        for j in idx:
            e: dict = {}
            if i == j:
                e[(M, 0)] = context.zero() + ONE
            if z.entry(i, j):
                e[(0, 1)] = context.zero() + z.entry(i, j)
            for r in range(1, M + 1):
                key = (M - r, 0)
                e[key] = e.get(key, context.zero()) + \
                    context.element(i, j, r)
            entry[(i, j)] = e
    acc: dict = {}
    for g in permutations(idx):
        prod = {(0, 0): context.zero() + Q(perm_sign(g))}
        for pos, j in enumerate(idx):
            nxt: dict = {}
            for (a1, b1), p1 in prod.items():
                for (a2, b2), p2 in entry[(g[pos], j)].items():
                    k = (a1 + a2, b1 + b2)
                    nxt[k] = nxt.get(k, context.zero()) + p1 * p2
            prod = nxt
        for k, p in prod.items():
            acc[k] = acc.get(k, context.zero()) + p
    return {k: p.terms for k, p in acc.items() if p}


DET_CASES = {"gl2": (IndexSet.plain(2), "diag:1,2"),
             "gl3": (IndexSet.plain(3), "diag:1,2,4"),
             "gl4": (IndexSet.plain(4), "diag:1,-2,3,5/2"),
             "so3": (IndexSet.signed(3, "so"), "diag:3/2"),
             "sp2": (IndexSet.signed(2, "sp"), "diag:2"),
             "so4": (IndexSet.signed(4, "so"), "diag:1,3"),
             "sp4": (IndexSet.signed(4, "sp"), "diag:1/2,-2/3")}


@pytest.mark.parametrize("iset,spec", DET_CASES.values(), ids=DET_CASES)
def test_minor_expansion_matches_permutation_sum(iset, spec):
    tag = None if iset.kind == "plain" else "prime_skew"
    z = parse_z_spec(spec, iset, tag)
    # the members of the family are the coefficients of u^{kM-r} v^{N-k},
    # divided by binomial(N, k); the only other coefficient is det(Z) v^N
    N = iset.N
    for M in (1, 2, 3):
        ctx = PoissonContext(iset, M)
        want = permutation_det(ctx, z)
        assert set(want) - {(0, N)} <= {(k * M - r, N - k)
                                         for k in range(1, N + 1)
                                         for r in range(k * M + 1)}
        got = {(k * M - r, N - k): p.terms
               for k, table in bethe_family(ctx, z).items()
               for r, p in enumerate(table) if p}
        assert got == {(du, dv): {m: div(c, binomial(N, N - dv))
                                  for m, c in terms.items()}
                       for (du, dv), terms in want.items() if dv < N}


def test_family_members_equal_bethe_poly():
    iset = IndexSet.signed(3, "so")
    ctx = PoissonContext(iset, 2)
    z = parse_z_spec("diag:2", iset, "prime_skew")
    family = bethe_family(ctx, z)
    assert list(family) == [1, 2, 3]
    for k, table in family.items():
        assert table == bethe_family(ctx, z)[k]
        assert len(table) == k * ctx.M + 1


JET_CASES = {"gl2": (IndexSet.plain(2), "diag:1,2", (1, 2, 3)),
             "gl3": (IndexSet.plain(3), "diag:1,2,4", (1, 2, 3)),
             "gl4": (IndexSet.plain(4), "diag:1,-2,3,5/2", (1, 2, 3)),
             "so3": (IndexSet.signed(3, "so"), "diag:3/2", (1, 3)),
             "sp2": (IndexSet.signed(2, "sp"), "diag:2", (1, 3)),
             "so4": (IndexSet.signed(4, "so"), "diag:1,3", (2,)),
             "sp4": (IndexSet.signed(4, "sp"), "diag:1/2,-2/3", (1, 3)),
             "so5": (IndexSet.signed(5, "so"), "diag:7/2,-1/2", (1, 3))}


@pytest.mark.parametrize("iset,spec,levels", JET_CASES.values(),
                         ids=JET_CASES)
def test_jet_rows_match_derivatives(iset, spec, levels):
    # the Jacobian read from jets at the point equals, row for row, the
    # derivatives of the expanded family evaluated there, at an integral
    # point and at one with fractional values
    z = parse_z_spec(spec, iset, None if iset.kind == "plain" else
                     "prime_skew")
    rng = random.Random(5)
    for M in levels:
        assert rank_table(iset, M) is not None
        ctx = PoissonContext(iset, M)
        coords = ctx.variables()
        fs = [p for table in bethe_family(ctx, z).values() for p in table]
        for pt in (CurrentPoint.random(ctx, seed=4),
                   CurrentPoint(ctx, {v: Q(rng.randint(-9, 9),
                                           rng.randint(1, 4))
                                      for v in coords})):
            assert jacobian_rows(ctx, z, pt, coords) == \
                [[evaluate(derivative(f, v), pt) for v in coords] for f in fs]


@pytest.mark.parametrize("iset,spec,levels",
                         [c for c in JET_CASES.values()
                          if c[0].kind == "signed"],
                         ids=[k for k, c in JET_CASES.items()
                              if c[0].kind == "signed"])
def test_entry_identity_holds_and_the_expansion_has_its_parity_zeros(
        iset, spec, levels):
    # the entries satisfy A_ij(-u, v) = (-1)^M eps_ij A_{-j,-i}(u, -(-1)^M v),
    # and every nonzero coefficient of u^a v^b in the expansion has
    # a + b + M (N + b) even, that is N - k + r even for c_k^(r)
    z = parse_z_spec(spec, iset, "prime_skew")
    N = iset.N
    for M in levels:
        ctx = PoissonContext(iset, M)
        _all_ok(verify_twisted_parity(ctx, z))
        for k, table in bethe_family(ctx, z).items():
            for r, p in enumerate(table):
                du, dv = k * M - r, N - k
                assert not p or (du + dv + M * (N + dv)) % 2 == 0, (M, k, r)


rational = st.builds(Q, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def rational_matrices(draw):
    """Random rational matrices; half of them are products A B through a
    narrow inner dimension, so they are rank-deficient."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    sparse = st.one_of(st.just(Q(0)), rational)
    if draw(st.booleans()):
        return [[draw(sparse) for _ in range(cols)] for _ in range(rows)]
    inner = draw(st.integers(0, 4))
    a = [[draw(sparse) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(sparse) for _ in range(cols)] for _ in range(inner)]
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), Q(0))
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_fraction_free_rank_matches_gauss_jordan(rows):
    assert matrix_rank(rows) == gauss_jordan_rank(rows)


# -- planted defects, kept under their names: rows of the table in faults.py --
# {a, b} negated for a > b: (b, a) then equals (a, b), whose rank the old
# fill -{a, b} could not see
test_poisson_rank_fails_for_a_bracket_that_breaks_antisymmetry = controls({
    "gl-2": ["bracket-terms-antisymmetry-broken"],
    "sp-1": ["bracket-terms-antisymmetry-broken"]})
