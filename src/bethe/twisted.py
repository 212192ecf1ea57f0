"""Twisted (orthogonal/symplectic) layer.

The twisted generators S_ij^(r) are carried as formal S-words (free
algebra, no rewriting), the carrier on which every twisted object is
built and on which the enveloping-algebra substitution rho is defined.
They reach the ambient algebra only through `s_expand`, which sends each
S_ij^(r) to its quadratic expression, the coefficient of u^-r in
S_ij(u) = sum_a eps_ja T_ia(u) T_{-j,-a}(-u) (`expand_gen`), and
PBW-normal-orders the result.

Built on top: the symmetry and reflection relation suites, the commuting
series A_k(u), the inverse-series generators, and the Sklyanin-determinant
checks.  The mixed exchanges and the mixed relation of T(u) it rests on
are rows of `tensor.verify_r_identities` and `yangian.verify_rtt`.

`s_expand` is the context's `WordMap`: its letters come from
`expand_gen`, and each distinct S-word is multiplied out and
normal-ordered once per context.  The formal S(u) is
`yangian.t_site_series` under the context's `s_rule`, the one builder of
a generator series.

* Each defining relation is stated once, as rows read through an algebra
  map passed in: `symmetry_rows` and `reflection_rows`.
  `verify_symmetry` and `verify_reflection` pass `s_expand`, and
  `evalmap.verify_rho_homomorphy` passes rho.
* The reflection relation is one matrix-form residual
  R(u-v) S_1(u) R~(-u-v) S_2(v) - S_2(v) R~(-u-v) S_1(u) R(u-v) of the
  one-site series S(u) (`reflection_residual`); an entry with no
  coefficient in the window has no row.
* A_k(u) is built by `twisted_bethe_series`, one `trace_words` walk of
  the one row of A_N over the steps of the fused block S(u,k)
  (`fused_steps`): the formal letter sites S(u-p) and the pair steps of
  the normalized R-matrix factors id - Q_pq/(c-2u).  The connecting
  factors and the fused Z block are the factors F(u) of the trace form.
  A_k is read through `expanded_bethe_series`.
* The hat series and the prop-3.6 trace form: `hat_trace` walks the rows
  of A_k over the same steps reversed and inverted, with the letter sites
  hat-S(u-p), hat-S the inverse of the formal one-site S(u), and reads
  the result through `s_expand`.  `verify_prop36` is the one suite for
  the twisted hat identity, the trace form and the exchange scalar.
"""
from __future__ import annotations

from itertools import product

from .algebra import (AlgebraElement, FreeRule, WordMap, YangianRule,
                      element_sum)
from .indices import IndexSet, ZMatrix
from .series import (RATIONAL_RING, BiLaurent, TruncatedSeries,
                     algebra_ring, one_over_c_minus_2u)
from .tensor import (_pair_action, alternator_rows, bilaurent_r,
                     series_to_bilaurent, site_action, trace_words)
from .yangian import (centrality_rows, commutator_table, hat_identity_rows,
                      quantum_determinant, t_site_series)


class TwistedContext:
    """Bundles the signed index set, which holds the signs (`IndexSet.eps`,
    `IndexSet.upper`), with the formal S-word carrier and its expansion
    into the Yangian.

    It keeps, in the word map behind `s_expand`, the image of every S-word
    it has expanded; a one-letter word's image is the generator that
    `expand_gen` forms.  No expanded series or multi-site block is built
    or kept.
    """

    def __init__(self, index_set: IndexSet):
        if index_set.kind != "signed":
            raise ValueError("twisted layer needs a signed index set")
        self.index_set = index_set
        self.yang_rule = YangianRule(index_set)
        self.s_rule = FreeRule(index_set)
        self._s_map = WordMap(self.yang_rule, self.expand_gen)

    def s_gen(self, i: int, j: int, r: int) -> AlgebraElement:
        """The formal generator S_ij^(r) as a one-word element."""
        return self.s_rule.element(i, j, r)

    # -- expansion into the ambient algebra --------------------------------------

    def expand_gen(self, g: tuple) -> AlgebraElement:
        """Normal-ordered ambient form of one S generator (r, i, j), the
        coefficient of u^-r in S_ij(u) = sum_a eps_ja T_ia(u) T_{-j,-a}(-u):
        sum_a sum_{s<=r} eps_ja (-1)^(r-s) T_ia^(s) T_{-j,-a}^(r-s), with
        T^(0) the identity."""
        r, i, j = g
        rule, iset = self.yang_rule, self.index_set

        def t(a, b, s):
            if s:
                return rule.element(a, b, s)
            return rule.one() if a == b else rule.zero()

        return element_sum(rule, (
            t(i, a, s) * t(-j, -a, r - s) * (iset.eps(j, a) * (-1) ** (r - s))
            for a in iset.indices() for s in range(r + 1)))

    def s_expand(self, w: AlgebraElement) -> AlgebraElement:
        """Substitute every S generator by its quadratic ambient expression
        and normal-order the result, through the context's word map."""
        return self._s_map(w)


# -- symmetry relation ---------------------------------------------------------------


def symmetry_residual_free(ctx: TwistedContext, i: int, j: int, r: int) -> AlgebraElement:
    """Order-r coefficient residual of the symmetry relation, as a formal
    S-element: S_ij^(r) - eps_ij (-1)^r S_{-j,-i}^(r) +- S_ij^(r-1)[r even]."""
    eps = ctx.index_set.eps(i, j)
    res = ctx.s_gen(i, j, r) - ctx.s_gen(-j, -i, r) * (eps * (-1) ** r)
    if r % 2 == 0:
        res = res + ctx.s_gen(i, j, r - 1) * ctx.index_set.upper
    return res


def symmetry_rows(label: str, ctx: TwistedContext, D: int, image) -> list:
    """One row "label i=.. j=.. order r" per symmetry residual, r <= D:
    does the algebra map `image` kill it?"""
    idx = ctx.index_set.indices()
    return [(f"{label} i={i} j={j} order {r}",
             not image(symmetry_residual_free(ctx, i, j, r)))
            for r in range(1, D + 1) for i in idx for j in idx]


def verify_symmetry(ctx: TwistedContext, D: int) -> list:
    """The symmetry relation, read through `s_expand` at orders 1..D."""
    return symmetry_rows("symmetry", ctx, D, ctx.s_expand)


# -- reflection relation ----------------------------------------------------------------


def _reflection_form(x1: BiLaurent, x2: BiLaurent, iset: IndexSet) -> BiLaurent:
    """R(u-v) X_1 R~(-u-v) X_2 - X_2 R~(-u-v) X_1 R(u-v) on two sites."""
    r = bilaurent_r("plain", (1, 2), 1, -1, 0, 2, iset)
    rt = bilaurent_r("twisted", (1, 2), -1, -1, 0, 2, iset)
    return r * x1 * rt * x2 - x2 * rt * x1 * r


def reflection_residual(ctx: TwistedContext, D: int) -> BiLaurent:
    """R(u-v) S_1(u) R~(-u-v) S_2(v) - S_2(v) R~(-u-v) S_1(u) R(u-v) on the
    formal S-word carrier.  Its entry ((i,k),(j,l)) is minus the
    componentwise residual

    (u^2-v^2)[S_ij(u), S_kl(v)]
      - (u+v)(S_kj(u)S_il(v) - S_kj(v)S_il(u))
      + (u-v)(e_{k,-j} S_{i,-k}(u)S_{-j,l}(v) - e_{i,-l} S_{k,-i}(v)S_{-l,j}(u))
      - e_{i,-j}(S_{k,-i}(u)S_{-j,l}(v) - S_{k,-i}(v)S_{-j,l}(u)).
    """
    s = t_site_series(ctx.s_rule, D)
    return _reflection_form(series_to_bilaurent(s, 1),
                            series_to_bilaurent(s, 2), ctx.index_set)


def reflection_rows(label: str, ctx: TwistedContext, D: int, image) -> list:
    """One row "label (i,j,k,l)" per index tuple whose entry ((i,k),(j,l))
    of the reflection residual has a coefficient in its window (any other
    row could not fail): does the algebra map `image` kill them all?  So
    D = 1, or D = 2 for sp2, gives none."""
    window = reflection_residual(ctx, D).entries.values()
    details = []
    for i, j, k, l in product(ctx.index_set.indices(), repeat=4):
        key = ((i, k), (j, l))
        coeffs = [c.entries[key] for c in window if key in c.entries]
        if coeffs:
            details.append((f"{label} ({i},{j},{k},{l})",
                            not any(image(x) for x in coeffs)))
    return details


def verify_reflection(ctx: TwistedContext, D: int) -> list:
    """The reflection relation, read from the matrix-form residual through
    `s_expand` at every coefficient of its window."""
    return reflection_rows("reflection", ctx, D, ctx.s_expand)


# -- fused elements -----------------------------------------------------------------------


def fused_steps(site, sites, shift, D: int) -> list:
    """The ordered factors of a fused block on the ascending `sites`: for
    each p, site(p) followed by its normalized R-matrix factors
    R~_pq(c-2u)/(c-2u) = id - Q_pq/(c-2u), c = p+q-shift, q > p, each as
    the pair step (p, q, 1/(c-2u))."""
    return [f for p in sites
            for f in (site(p), *((p, q, one_over_c_minus_2u(p + q - shift, D))
                                 for q in sites if q > p))]


def _z_block(z: ZMatrix, sites, N: int, D: int) -> list:
    """The factors of Z(u + N/2 - s + 1, m) on the m ascending `sites`, s
    the first: the Z_p and pair steps of 1/(p+q-N-2u)."""
    if sites and z.symmetry_tag is None:
        raise ValueError("the fused parameter element needs a symmetry tag")
    return fused_steps(lambda p: (p, z), sites, N, D)


# -- the commuting series ----------------------------------------------------------------


def twisted_bethe_series(ctx: TwistedContext, k: int, z: ZMatrix,
                         D: int) -> TruncatedSeries:
    """A_k(u) on the formal S-word carrier: trace of H_N times the fused S
    block on sites 1..k, the connecting normalized R-matrix factors, and
    the fused Z block on sites k+1..N shifted by N/2 - k.

    N! H_N = |w><w| has rank one, so with F(u) the R-factors and the Z
    block this is <w| S(u,k) F(u) |w> / N!, one `trace_words` walk of the
    row <w| through the steps of S(u,k)."""
    iset = ctx.index_set
    N = iset.N
    if not (1 <= k <= N):
        raise ValueError("k out of range")
    connect = [(p, q, one_over_c_minus_2u(p + q, D))
               for p in range(1, k + 1) for q in range(k + 1, N + 1)]
    s = t_site_series(ctx.s_rule, D)
    steps = fused_steps(lambda p: (p, s.substitute_affine(1, -p)),
                        range(1, k + 1), 0, D)
    return trace_words(N, iset, steps,
                       connect + _z_block(z, range(k + 1, N + 1), N, D),
                       algebra_ring(ctx.s_rule), D)


def graded_bethe_series(k: int, z: ZMatrix, rule: FreeRule,
                        D: int) -> TruncatedSeries:
    """The graded member tr(H_N S_1(u)..S_k(u) Z_{k+1}..Z_N) of A_k, which
    has A_k's symbols (`certify`), over `rule`: on formal S-words under a
    `FreeRule`, or as a polynomial when `rule` is a `PoissonContext`, whose
    variables stand for the letters, as the Laplace rows build it."""
    N = rule.index_set.N
    s = t_site_series(rule, D)
    return trace_words(N, rule.index_set, [(p, s) for p in range(1, k + 1)],
                       [(p, z) for p in range(k + 1, N + 1)],
                       algebra_ring(rule), D)


def expanded_bethe_series(ctx: TwistedContext, k: int, z: ZMatrix,
                          D: int) -> TruncatedSeries:
    """A_k(u) with its coefficients expanded into the ambient algebra."""
    return twisted_bethe_series(ctx, k, z, D).map_coeffs(
        ctx.s_expand, algebra_ring(ctx.yang_rule))


def theta_series(ctx: TwistedContext, D: int) -> TruncatedSeries:
    """theta(u) = 1 + N/(1-2u) for sp, 1 for so (the upper sign)."""
    one = TruncatedSeries.one(RATIONAL_RING, D)
    if ctx.index_set.upper > 0:
        return one
    N = ctx.index_set.N
    return one + one_over_c_minus_2u(1, D) * N


def verify_sklyanin(ctx: TwistedContext, z: ZMatrix, D: int) -> list:
    """A_N(u) theta(u) = B_N(u) B_N(N-u+1), plus centrality of the A_N
    coefficients against the S generators of levels 1 and 2."""
    iset = ctx.index_set
    N = iset.N
    a_exp = expanded_bethe_series(ctx, N, z, D)
    lhs = a_exp * theta_series(ctx, D)
    qd = quantum_determinant(ctx.yang_rule, D)
    rhs = qd * qd.substitute_affine(-1, N + 1)
    details = [(f"determinant identity u^{-r}", lhs.coeffs[r] == rhs.coeffs[r])
               for r in range(D + 1)]
    return details + centrality_rows(
        "A_N", a_exp, "S", lambda s, i, j: ctx.s_expand(ctx.s_gen(i, j, s)),
        iset.indices(), 2)


def verify_twisted_commutativity(ctx: TwistedContext, z: ZMatrix,
                                 budget: int) -> list:
    """Rows [A_k coeff r, A_l coeff s] = 0 with r + s <= budget, from series
    truncated at D = budget - 1."""
    D = budget - 1
    N = ctx.index_set.N
    series = {k: expanded_bethe_series(ctx, k, z, D) for k in range(1, N + 1)}
    return commutator_table(series, "A", budget)


# -- inverse-series generators -------------------------------------------------------------


def hat_trace(ctx: TwistedContext, k: int, factors, D: int) -> TruncatedSeries:
    """tr(F(u) H_k . hat-S(u,k)) with expanded coefficients, hat-S(u,k) the
    inverse series of S(u,k) and F(u) the product of `factors`
    (`trace_words`).  As (X_1 ... X_m)^-1 = X_m^-1 ... X_1^-1 over the
    steps of S(u,k), each site S(u-p) becomes hat-S(u-p), with hat-S =
    S^-1 the inverse of the formal one-site S(u), and each pair step
    id - c Q is inverted as id - c' Q with c' = -c/(1 - N c), since
    Q^2 = N Q.  The walk runs on formal S-words and is read through
    `s_expand`."""
    N = ctx.index_set.N
    s_hat = t_site_series(ctx.s_rule, D).invert()
    steps = fused_steps(lambda p: (p, s_hat.substitute_affine(1, -p)),
                        range(1, k + 1), 0, D)
    one = TruncatedSeries.one(RATIONAL_RING, D)
    inverted = [f if len(f) == 2 else
                (*f[:2], -f[2] * (one - f[2] * N).invert())
                for f in reversed(steps)]
    return trace_words(k, ctx.index_set, inverted, factors,
                       algebra_ring(ctx.s_rule), D).map_coeffs(
        ctx.s_expand, algebra_ring(ctx.yang_rule))


def hat_twisted_series(ctx: TwistedContext, k: int, z: ZMatrix,
                       D: int) -> TruncatedSeries:
    """hat-A_k(u) = tr_k x id (H_k x 1 . hat-S(u,k) . Z(u+N/2, k) x 1),
    contracted as tr(Z(u+N/2, k) H_k . hat-S(u,k)) by `hat_trace`."""
    if k == 0:
        return TruncatedSeries.one(algebra_ring(ctx.yang_rule), D)
    return hat_trace(ctx, k, _z_block(z, range(1, k + 1), ctx.index_set.N, D),
                     D)


def prop36_trace_form(ctx: TwistedContext, z: ZMatrix, k: int,
                      D: int) -> TruncatedSeries:
    """The simplified trace form tr_k x id (H_k x 1 . hat-S(u,k) .
    Z_1..Z_k x 1) through order D."""
    return hat_trace(ctx, k, [(p, z) for p in range(1, k + 1)], D)


def scalar_list_label(xs) -> str:
    """Exact scalars as "[Fraction(p, q), ...]", the text of the prop-3.6
    scalar rows, written the same for ints and for fractions."""
    return "[" + ", ".join(f"Fraction({x.numerator}, {x.denominator})"
                           for x in xs) + "]"


def verify_prop36(ctx: TwistedContext, z: ZMatrix, D: int) -> list:
    """The rows of proposition 3.6: the twisted hat identity, the trace
    form of hat-A_k for k = 1..N at the scalar series 1 (spelled by
    `scalar_list_label` in the rows), and the exchange scalar.  Each
    hat-A_k is built once and serves both the identity and the trace form."""
    one_label = scalar_list_label([1] + [0] * D)
    hats = {}

    def hat(k):
        if k not in hats:
            hats[k] = hat_twisted_series(ctx, k, z, D)
        return hats[k]

    N = ctx.index_set.N
    details = hat_identity_rows(
        "twisted hat identity", N,
        lambda k: expanded_bethe_series(ctx, k, z, D), hat)
    for k in range(1, N + 1):
        details.append((f"trace-form scalar k={k}: {one_label}",
                        prop36_trace_form(ctx, z, k, D) == hat(k)))
    return details + verify_z_rmatrix_scalar(ctx, z)


def verify_z_rmatrix_scalar(ctx: TwistedContext, z: ZMatrix) -> list:
    """The prop-3.6 exchange Z_1 R~(u) Z_2 H_2 = c(u) Z_1 Z_2 H_2 for
    sign-matched Z, at the fixed scalar c(u) = u.  As R~(u) = u - Q, it
    holds exactly when Z_1 Q Z_2 A_2 = 0, A_2 = ket . bra with bra of full
    row rank: checked as Z_1 Q Z_2 ket = 0 on the columns of A_2."""
    iset = ctx.index_set
    ket = [alternator_rows(2, iset).entries]
    z2 = site_action(ket, 2, [z.entries], RATIONAL_RING, True)[0]
    res = site_action([_pair_action(z2, 1, 2, iset)], 1, [z.entries],
                      RATIONAL_RING, True)
    return [("exchange scalar c(u) = 1*u + 0", not any(res))]
