import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bethe.certify import (expected_jacobian_rank, expected_poisson_rank,
                           verify_laplace_consistency, verify_poisson_jacobi,
                           verify_symbol_homomorphy)
from bethe.indices import IndexSet, parse_z_spec
from bethe.poisson import (CurrentPoint, PoissonContext, PoissonPoly,
                           bethe_family, bethe_poly, classical_det_poly,
                           det_poly, jacobian_rank, matrix_rank,
                           poisson_bracket, poisson_rank_at,
                           principal_nilpotent, restrict_to_slice,
                           upper_slice)
from bethe.rationals import ONE, Q
from bethe.tensor import perm_sign


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert rows and not bad, bad


def var(ctx, r, i, j):
    return PoissonPoly.variable(ctx, r, i, j)


def test_standard_bracket_at_level_one():
    ctx = PoissonContext("plain", IndexSet.plain(2), 1)
    assert poisson_bracket(var(ctx, 1, 1, 1), var(ctx, 1, 1, 2)) == \
        var(ctx, 1, 1, 2)
    f = var(ctx, 1, 1, 2) * var(ctx, 1, 2, 1)
    assert poisson_bracket(f, f).is_zero()


def test_truncation_window():
    # at M = 2 the bracket of two top-level coordinates keeps only the
    # r = 2 term of the double sum
    ctx = PoissonContext("plain", IndexSet.plain(2), 2)
    got = poisson_bracket(var(ctx, 2, 1, 1), var(ctx, 2, 1, 2))
    expect = (var(ctx, 1, 1, 1) * var(ctx, 2, 1, 2)
              - var(ctx, 2, 1, 1) * var(ctx, 1, 1, 2))
    assert got == expect


def test_twisted_reduction_to_fundamental_domain():
    iset = IndexSet.signed(2, "sp")
    ctx = PoissonContext("twisted", iset, 2)
    # y_11^(1) = -y_{-1,-1}^(1);   y_{1,-1}^(2) is forced to zero
    assert var(ctx, 1, 1, 1) == -var(ctx, 1, -1, -1)
    assert var(ctx, 2, 1, -1).is_zero()


def test_jacobi_plain_and_twisted():
    _all_ok(verify_poisson_jacobi(
        PoissonContext("plain", IndexSet.plain(3), 2), seed=1, samples=20))
    _all_ok(verify_poisson_jacobi(
        PoissonContext("twisted", IndexSet.signed(3, "so"), 2),
        seed=2, samples=20))


def test_bethe_poly_oracle_values():
    iset = IndexSet.plain(2)
    ctx = PoissonContext("plain", iset, 1)
    z = parse_z_spec("diag:1,2", iset)
    b1 = bethe_poly(1, z, ctx)
    assert b1[0] == PoissonPoly.constant(ctx, Q(3, 2))
    assert b1[1] == (var(ctx, 1, 1, 1) * 2 + var(ctx, 1, 2, 2)) * Q(1, 2)
    b2 = bethe_poly(2, z, ctx)
    assert b2[1] == var(ctx, 1, 1, 1) + var(ctx, 1, 2, 2)
    assert b2[2] == (var(ctx, 1, 1, 1) * var(ctx, 1, 2, 2)
                     - var(ctx, 1, 1, 2) * var(ctx, 1, 2, 1))


def test_family_is_involutive_and_top_series_central():
    iset = IndexSet.plain(2)
    ctx = PoissonContext("plain", iset, 2)
    z = parse_z_spec("diag:1,2", iset)
    fam = [p for k in (1, 2) for p in bethe_poly(k, z, ctx)]
    for a in fam:
        for b in fam:
            assert poisson_bracket(a, b).is_zero()
    for p in bethe_poly(2, z, ctx):
        for v in ctx.variables():
            assert poisson_bracket(p, PoissonPoly.variable(ctx, *v)).is_zero()


def test_twisted_parity_and_sign_symmetry():
    iset = IndexSet.signed(2, "sp")
    ctx = PoissonContext("twisted", iset, 2)
    z = parse_z_spec("diag:1", iset, "prime_skew")
    for k in (1, 2):
        for r, p in enumerate(bethe_poly(k, z, ctx)):
            if (iset.N - k + r) % 2 == 1:
                assert p.is_zero()


def test_symbol_homomorphy_seeded():
    _all_ok(verify_symbol_homomorphy(IndexSet.plain(2), 2, seed=9, pairs=15))


def test_laplace_consistency_small():
    iset = IndexSet.plain(2)
    z = parse_z_spec("diag:1,2", iset)
    _all_ok(verify_laplace_consistency(iset, z, 1))
    sp = IndexSet.signed(2, "sp")
    zs = parse_z_spec("diag:1", sp, "prime_skew")
    _all_ok(verify_laplace_consistency(sp, zs, 1, D=2))


def test_current_point_symmetry_is_validated():
    iset = IndexSet.signed(2, "sp")
    ctx = PoissonContext("twisted", iset, 2)
    with pytest.raises(ValueError):
        CurrentPoint(ctx, {(2, 1, -1): Q(1)})  # forced-zero coordinate


def test_matrix_rank_oracle():
    rows = [[Q(1), Q(2)], [Q(2), Q(4)], [Q(0), Q(1)]]
    assert matrix_rank(rows) == 2
    assert matrix_rank([[Q(0), Q(0)]]) == 0


def test_jacobian_rank_of_constants_is_zero():
    ctx = PoissonContext("plain", IndexSet.plain(2), 1)
    consts = [PoissonPoly.constant(ctx, Q(5))]
    vals = {v: Q(1) for v in ctx.variables()}
    assert jacobian_rank(consts, ctx.variables(), vals) == 0


def test_poisson_rank_zero_point_and_ceiling():
    iset = IndexSet.plain(2)
    ctx = PoissonContext("plain", iset, 2)
    assert poisson_rank_at(CurrentPoint.zero(ctx), ctx) == 0
    ceiling = expected_poisson_rank(ctx)
    rng = random.Random(3)
    for seed in range(5):
        pt = CurrentPoint.random(ctx, seed=rng.randint(0, 10 ** 6))
        assert poisson_rank_at(pt, ctx) <= ceiling


@pytest.mark.parametrize("kind, n", [("gl", "2"), ("sp", "1")])
def test_poisson_rank_fails_for_a_bracket_that_breaks_antisymmetry(
        monkeypatch, tmp_path, kind, n):
    # {a, b} negated for a > b: (b, a) then equals (a, b), whose rank the
    # old fill -{a, b} could not see
    from bethe.cli import main

    args = ["verify", "poisson-rank", "--kind", kind,
            "--N" if kind == "gl" else "--n", n, "--M", "1",
            "--out", str(tmp_path / "rank.json")]
    assert main(args) == 0
    real = PoissonContext.gen_bracket

    def sign_flipped(self, a, b):
        br = real(self, a, b)
        return -br if a > b else br

    monkeypatch.setattr(PoissonContext, "gen_bracket", sign_flipped)
    assert main(args) == 1


def test_slice_restriction_values():
    iset = IndexSet.plain(3)
    ctx = PoissonContext("plain", iset, 2)
    sl = upper_slice(ctx)
    fixed = sl.fixed_assignments()
    assert fixed[(2, 2, 1)] == 1      # subdiagonal at top level
    assert fixed[(1, 3, 1)] == 0      # below the subdiagonal
    p = PoissonPoly.variable(ctx, 2, 2, 1) * PoissonPoly.variable(ctx, 2, 1, 1)
    r = restrict_to_slice(p, sl)
    assert r == PoissonPoly.variable(ctx, 2, 1, 1)


def test_principal_nilpotents_match_the_display():
    assert principal_nilpotent(IndexSet.signed(2, "sp")) == {(1, -1): 1}
    so3 = principal_nilpotent(IndexSet.signed(3, "so"))
    assert so3 == {(1, 0): 1, (0, -1): -1}
    so4 = principal_nilpotent(IndexSet.signed(4, "so"), variant="lemma45")
    assert so4 == {(2, 1): 1, (-1, -2): -1, (2, -1): 1, (1, -2): -1}


def test_classical_det_poly_shape():
    iset = IndexSet.signed(4, "so")
    z = parse_z_spec("diag:1,2", iset, "prime_skew")
    coeffs = classical_det_poly(z, iset)
    assert isinstance(coeffs, dict) and coeffs


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


def permutation_det_poly(context: PoissonContext, z) -> dict:
    """det(u^M + V(u) + Z v) as a sum over all N! permutations of the
    products of N entries (the former det_poly), as {key: terms}."""
    idx = context.index_set.indices()
    M = context.M
    entry = {}
    for i in idx:
        for j in idx:
            e: dict = {}
            if i == j:
                e[(M, 0)] = PoissonPoly.constant(context, ONE)
            if z.entry(i, j):
                e[(0, 1)] = PoissonPoly.constant(context, z.entry(i, j))
            for r in range(1, M + 1):
                key = (M - r, 0)
                e[key] = e.get(key, PoissonPoly(context, {})) + \
                    PoissonPoly.variable(context, r, i, j)
            entry[(i, j)] = e
    acc: dict = {}
    for g in permutations(idx):
        prod = {(0, 0): PoissonPoly.constant(context, Q(perm_sign(g)))}
        for pos, j in enumerate(idx):
            nxt: dict = {}
            for (a1, b1), p1 in prod.items():
                for (a2, b2), p2 in entry[(g[pos], j)].items():
                    k = (a1 + a2, b1 + b2)
                    nxt[k] = nxt.get(k, PoissonPoly(context, {})) + p1 * p2
            prod = nxt
        for k, p in prod.items():
            acc[k] = acc.get(k, PoissonPoly(context, {})) + p
    return {k: p.terms for k, p in acc.items() if not p.is_zero()}


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
    kind = "plain" if iset.kind == "plain" else "twisted"
    for M in (1, 2, 3):
        ctx = PoissonContext(kind, iset, M)
        got = {k: p.terms for k, p in det_poly(ctx, z).items()}
        assert got == permutation_det_poly(ctx, z)


def test_family_members_equal_bethe_poly():
    iset = IndexSet.signed(3, "so")
    ctx = PoissonContext("twisted", iset, 2)
    z = parse_z_spec("diag:2", iset, "prime_skew")
    family = bethe_family(ctx, z)
    assert list(family) == [1, 2, 3]
    for k, table in family.items():
        assert table == bethe_poly(k, z, ctx)
        assert len(table) == k * ctx.M + 1


def test_gradient_matches_derivatives():
    iset = IndexSet.signed(4, "sp")
    ctx = PoissonContext("twisted", iset, 3)
    z = parse_z_spec("diag:1,3", iset, "prime_skew")
    rng = random.Random(5)
    # an integral point and one with fractional values
    points = [CurrentPoint.random(ctx, seed=4),
              {v: Q(rng.randint(-9, 9), rng.randint(1, 4))
               for v in ctx.variables()}]
    # every grid coordinate, including eps-partners and forced zeros
    coords = [(r, i, j) for r in (1, 2, 3) for i in iset.indices()
              for j in iset.indices()]
    for table in bethe_family(ctx, z).values():
        for f in table:
            for pt in points:
                assert f.gradient(coords, pt) == \
                    [f.derivative(v).evaluate(pt) for v in coords]


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
