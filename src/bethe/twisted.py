"""Twisted (orthogonal/symplectic) layer.

The twisted generators S_ij^(r) are carried in two forms:

* as formal S-words (free algebra, no rewriting) — the carrier on which the
  enveloping-algebra substitution rho is defined;
* expanded into the ambient algebra via the quadratic expression
  S_ij(u) = sum_a eps_ja T_ia(u) T_{-j,-a}(-u), then PBW-normal-ordered —
  the carrier for all abstract-algebra identities.

Built on top: the symmetry and reflection relation suites, the fused
element Z(u,k) with its scalar normalization folded into the R-matrix
factors, the commuting series A_k(u), the inverse-series generators, and
the Sklyanin-determinant checks.

Objects are built on the formal carrier and read through `s_expand`
where a check needs the defining relations.  `s_expand` is the context's
`WordMap`: its letters come from `expand_gen`, and each distinct S-word is
multiplied out and normal-ordered once per context.

* The reflection relation is one matrix-form residual
  R(u-v) S_1(u) R~(-u-v) S_2(v) - S_2(v) R~(-u-v) S_1(u) R(u-v) of the
  one-site series `s_series` (`reflection_residual`).  `verify_reflection`
  reads its entries through `s_expand`, the rho check through
  `evalmap.rho_map`; a window with no coefficient gives no rows.
* A_k(u) is built by `twisted_bethe_series`, one `trace_words` walk over
  the steps of the fused block S(u,k) (`fused_steps`): the formal letter
  sites S(u-p) between rational R-matrix factors.  It is read through
  `expanded_bethe_series`.
* The hat series and the prop-3.6 trace form live on the expanded carrier
  only: `hat_trace` walks the same steps reversed and inverted, with the
  letter sites hat-S(u-p), hat-S the inverse of the expanded one-site
  S(u).  No block on two or more sites with algebra coefficients is
  formed.
"""
from __future__ import annotations

from functools import reduce
from itertools import product
from operator import mul

from .algebra import AlgebraElement, FreeRule, WordMap, YangianRule
from .indices import IndexSet, ZMatrix
from .rationals import rat
from .series import (RATIONAL_RING, BiLaurent, TruncatedSeries,
                     algebra_ring, one_over_c_minus_2u)
from .tensor import (TensorElement, alternator, antisymmetrizer, bilaurent_r,
                     q_tensor, series_to_bilaurent, tensor_ring, trace_words)
from .yangian import (centrality_rows, commutator_table, hat_identity_rows,
                      quantum_determinant, t_site_series, window_rows,
                      z_product, z_site_tensor)


class TwistedContext:
    """Bundles the signed index set with the two generator carriers and the
    sign conventions (upper sign = orthogonal, lower = symplectic).

    It memoizes the expanded one-site series S(u) and its inverse hat-S(u)
    per truncation D, and, in the word map behind `s_expand`, the image of
    every S-word it has expanded; a one-letter word's image is the
    generator that `expand_gen` reads from S(u).  Multi-site blocks are
    never built or kept.
    """

    def __init__(self, index_set: IndexSet):
        if index_set.kind != "signed":
            raise ValueError("twisted layer needs a signed index set")
        self.index_set = index_set
        self.yang_rule = YangianRule(index_set)
        self.s_rule = FreeRule(index_set)
        # the "upper" sign of the double-sign conventions
        self.upper = index_set.form == "so"
        self._s_map = WordMap(self.yang_rule, self.expand_gen)
        self._s_series: dict = {}
        self._s_hat: dict = {}

    def s_gen(self, i: int, j: int, r: int) -> AlgebraElement:
        """The formal generator S_ij^(r) as a one-word element."""
        return self.s_rule.element(i, j, r)

    def s_series(self, D: int) -> TruncatedSeries:
        """S(u) on the formal carrier: the one-site tensor series whose
        order-r coefficient has the entries S_ij^(r)."""
        idx = self.index_set.indices()
        tring = tensor_ring(1, self.index_set, algebra_ring(self.s_rule))
        return TruncatedSeries(tring, [tring.one] + [
            TensorElement(1, self.index_set, tring.one.ring,
                          {((i,), (j,)): self.s_gen(i, j, r)
                           for i in idx for j in idx})
            for r in range(1, D + 1)], D)

    # -- expansion into the ambient algebra --------------------------------------

    def s_series_expanded(self, D: int) -> TruncatedSeries:
        """S(u) = T(u) T~(-u) as a single-site tensor series with
        normal-ordered ambient coefficients: the source of `expand_gen`,
        through which every expanded S generator is read."""
        hit = self._s_series.get(D)
        if hit is not None:
            return hit
        t = t_site_series(self.yang_rule, 1, 1, D)
        t_tilde = t.map_coeffs(lambda c: c.site_prime(1))
        coeffs = [c.scale_rat((-1) ** r) for r, c in enumerate(t_tilde.coeffs)]
        t_tilde_minus = TruncatedSeries(t_tilde.ring, coeffs, D)
        s = t * t_tilde_minus
        self._s_series[D] = s
        return s

    def s_hat_expanded(self, D: int) -> TruncatedSeries:
        """hat-S(u) = S(u)^-1 on one site, with expanded coefficients."""
        hit = self._s_hat.get(D)
        if hit is None:
            hit = self._s_hat[D] = self.s_series_expanded(D).invert()
        return hit

    def expand_gen(self, g: tuple) -> AlgebraElement:
        """Normal-ordered ambient form of one S generator (r, i, j)."""
        r, i, j = g
        s = self.s_series_expanded(max(r, 1))
        return s.coeffs[r].entries.get(((i,), (j,)), self.yang_rule.zero())

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
        # right-hand side is -+ S_ij^(r-1); the upper sign (so) gives minus
        rhs_sign = -1 if ctx.upper else 1
        res = res - ctx.s_gen(i, j, r - 1) * rhs_sign
    return res


def verify_symmetry(ctx: TwistedContext, D: int) -> list:
    idx = ctx.index_set.indices()
    details = []
    for r in range(1, D + 1):
        for i in idx:
            for j in idx:
                res = ctx.s_expand(symmetry_residual_free(ctx, i, j, r))
                details.append((f"symmetry i={i} j={j} order {r}", res.is_zero()))
    return details


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
    s = ctx.s_series(D)
    return _reflection_form(series_to_bilaurent(s, 1, "u", 2),
                            series_to_bilaurent(s, 2, "v", 2), ctx.index_set)


def reflection_rows(label: str, ctx: TwistedContext, D: int,
                    total_order: int, image) -> list:
    """One row "label (i,j,k,l)" per index tuple: does the algebra map
    `image` kill entry ((i,k),(j,l)) of the reflection residual at every
    u^-r v^-s with r+s <= total_order?  No rows when that window holds no
    coefficient, as at D = 1, or at D = 2 for sp2: there the relation
    holds on formal words and the check could not fail."""
    window = [c for (eu, ev), c in reflection_residual(ctx, D).entries.items()
              if -(eu + ev) <= total_order]
    if not window:
        return []
    details = []
    for i, j, k, l in product(ctx.index_set.indices(), repeat=4):
        key = ((i, k), (j, l))
        details.append((f"{label} ({i},{j},{k},{l})", not any(
            image(c.entries[key]) for c in window if key in c.entries)))
    return details


def verify_reflection(ctx: TwistedContext, D: int, total_order: int) -> list:
    """The reflection relation, one row per index tuple (i,j,k,l), read
    from the matrix-form residual through `s_expand` at the coefficients
    of u^-r v^-s with r+s <= total_order."""
    return reflection_rows("reflection", ctx, D, total_order, ctx.s_expand)


def verify_mixed_rtt(ctx: TwistedContext, D: int) -> list:
    """T~_1(u) R~(u-v) T_2(v) = T_2(v) R~(u-v) T~_1(u)."""
    iset = ctx.index_set
    rule = ctx.yang_rule
    t = t_site_series(rule, 1, 1, D)
    t_tilde = t.map_coeffs(lambda c: c.site_prime(1))
    tt1 = series_to_bilaurent(t_tilde, 1, "u", 2)
    t2 = series_to_bilaurent(t, 2, "v", 2)
    rt = bilaurent_r("twisted", (1, 2), 1, -1, 0, 2, iset)
    return window_rows("mixed relation", tt1 * rt * t2 - t2 * rt * tt1)


# -- fused elements -----------------------------------------------------------------------


def _g_factor(p: int, q: int, sites: int, iset: IndexSet,
              D: int) -> TruncatedSeries:
    """R~_pq(p+q-2u)/(p+q-2u) = id - Q_pq / (p+q-2u), as an exact series of
    rational tensors: a rational step of the fused block, never lifted."""
    scalars = one_over_c_minus_2u(p + q, D)
    qpq = q_tensor(iset).embed((p, q), sites)
    tring = tensor_ring(sites, iset)
    coeffs = [tring.one]
    for r in range(1, D + 1):
        coeffs.append(-qpq.scale_rat(scalars.coeffs[r]))
    return TruncatedSeries(tring, coeffs, D)


def fused_steps(site, k: int, iset: IndexSet, D: int) -> list:
    """The ordered factors of a fused block on sites 1..k: for p = 1..k,
    site(p) followed by its normalized R-matrix factors R~_pq/(p+q-2u),
    q = p+1..k."""
    return [f for p in range(1, k + 1)
            for f in (site(p), *(_g_factor(p, q, k, iset, D)
                                 for q in range(p + 1, k + 1)))]


def fused_z(ctx: TwistedContext, z: ZMatrix, k: int, D: int) -> TruncatedSeries:
    """Z(u,k), k >= 1: ordered product of Z_p and normalized R-matrix
    factors."""
    if z.symmetry_tag is None:
        raise ValueError("the fused parameter element needs a symmetry tag")
    iset = ctx.index_set
    tring = tensor_ring(k, iset)
    return reduce(mul, fused_steps(
        lambda p: TruncatedSeries.constant(tring, z_site_tensor(z, p, k), D),
        k, iset, D))


def verify_z_exchange(ctx: TwistedContext, z: ZMatrix) -> list:
    """Exact exchange identity R(u-v) Z_1 R~(-u-v) Z_2 =
    Z_2 R~(-u-v) Z_1 R(u-v)."""
    iset = ctx.index_set
    ring2 = tensor_ring(2, iset)
    res = _reflection_form(BiLaurent.constant(ring2, z_site_tensor(z, 1, 2)),
                           BiLaurent.constant(ring2, z_site_tensor(z, 2, 2)),
                           iset)
    return [("exchange identity", res.is_zero())]


# -- the commuting series ----------------------------------------------------------------


def twisted_bethe_series(ctx: TwistedContext, k: int, z: ZMatrix,
                         D: int) -> TruncatedSeries:
    """A_k(u) on the formal S-word carrier: trace of H_N times the fused S
    block on sites 1..k, the connecting normalized R-matrix factors, and
    the fused Z block on sites k+1..N shifted by N/2 - k.

    The rational side h(u) = (R-factors . Z block)(u) H_N is multiplied
    out first and sites k+1..N, where the S block is the identity, are
    traced out of it.  `trace_words` then walks the steps of S(u,k): the
    letter sites S(u-p) and the rational R-matrix factors."""
    iset = ctx.index_set
    N = iset.N
    if not (1 <= k <= N):
        raise ValueError("k out of range")
    h = TruncatedSeries.one(tensor_ring(N, iset), D)
    for p in range(1, k + 1):
        for q in range(k + 1, N + 1):
            h = h * _g_factor(p, q, N, iset, D)
    if k < N:
        rest = tuple(range(k + 1, N + 1))
        zloc = fused_z(ctx, z, N - k, D).substitute_affine(1, rat(N, 2) - k)
        h = h * zloc.map_coeffs(lambda c: c.embed(rest, N), h.ring)
    hn = antisymmetrizer(N, iset)
    h = h.map_coeffs(lambda c: c * hn)
    if k < N:
        h = h.map_coeffs(lambda c: c.partial_trace(rest), tensor_ring(k, iset))
    s = ctx.s_series(D)
    steps = fused_steps(lambda p: (p, s.substitute_affine(1, -p)), k, iset, D)
    return trace_words(h, steps, algebra_ring(ctx.s_rule), D)


def expanded_bethe_series(ctx: TwistedContext, k: int, z: ZMatrix,
                          D: int) -> TruncatedSeries:
    """A_k(u) with its coefficients expanded into the ambient algebra."""
    return twisted_bethe_series(ctx, k, z, D).map_coeffs(
        ctx.s_expand, algebra_ring(ctx.yang_rule))


def theta_series(ctx: TwistedContext, D: int) -> TruncatedSeries:
    """theta(u) = 1 + N/(1-2u) for sp, 1 for so."""
    one = TruncatedSeries.one(RATIONAL_RING, D)
    if ctx.upper:
        return one
    N = ctx.index_set.N
    return one + one_over_c_minus_2u(1, D) * N


def verify_sklyanin(ctx: TwistedContext, z: ZMatrix, D: int,
                    central_levels: int = 2) -> list:
    """A_N(u) theta(u) = B_N(u) B_N(N-u+1), plus centrality of the A_N
    coefficients."""
    iset = ctx.index_set
    N = iset.N
    a_exp = expanded_bethe_series(ctx, N, z, D)
    lhs = a_exp * theta_series(ctx, D)
    qd = quantum_determinant(ctx.yang_rule, D)
    rhs = qd * qd.substitute_affine(-1, N + 1)
    details = [(f"determinant identity u^{-r}", lhs.coeffs[r] == rhs.coeffs[r])
               for r in range(D + 1)]
    return details + centrality_rows(
        "A_N", a_exp, "S", lambda s, i, j: ctx.expand_gen((s, i, j)),
        iset.indices(), central_levels)


def verify_twisted_commutativity(ctx: TwistedContext, z: ZMatrix,
                                 budget: int) -> list:
    """Rows [A_k coeff r, A_l coeff s] = 0 with r + s <= budget, from series
    truncated at D = budget - 1."""
    D = budget - 1
    N = ctx.index_set.N
    series = {k: expanded_bethe_series(ctx, k, z, D) for k in range(1, N + 1)}
    return commutator_table(series, "A", budget, D)


# -- inverse-series generators -------------------------------------------------------------


def hat_trace(ctx: TwistedContext, k: int, h, D: int) -> TruncatedSeries:
    """tr(h(u) . hat-S(u,k)) with expanded coefficients, hat-S(u,k) the
    inverse series of S(u,k).  As (X_1 ... X_m)^-1 = X_m^-1 ... X_1^-1
    over the steps of S(u,k), each R-matrix factor is inverted over Q and
    each site S(u-p) becomes hat-S(u-p), with hat-S = S^-1 on one site."""
    s_hat = ctx.s_hat_expanded(D)
    steps = fused_steps(lambda p: (p, s_hat.substitute_affine(1, -p)), k,
                        ctx.index_set, D)
    return trace_words(h, [f if isinstance(f, tuple) else f.invert()
                           for f in reversed(steps)],
                       algebra_ring(ctx.yang_rule), D)


def hat_twisted_series(ctx: TwistedContext, k: int, z: ZMatrix,
                       D: int) -> TruncatedSeries:
    """hat-A_k(u) = tr_k x id (H_k x 1 . hat-S(u,k) . Z(u+N/2, k) x 1),
    contracted as tr(Z(u+N/2, k) H_k . hat-S(u,k)) by `hat_trace`."""
    iset = ctx.index_set
    N = iset.N
    if k == 0:
        return TruncatedSeries.one(algebra_ring(ctx.yang_rule), D)
    hk = antisymmetrizer(k, iset)
    h = fused_z(ctx, z, k, D).substitute_affine(1, rat(N, 2))\
        .map_coeffs(lambda c: c * hk)
    return hat_trace(ctx, k, h, D)


def verify_twisted_hat_identity(ctx: TwistedContext, z: ZMatrix, D: int) -> list:
    """A_k(u) = A_N(u) hat-A_{N-k}(u-k) / binomial(N,k), k = 1..N, as for
    the plain hat identity (expanded level)."""
    return hat_identity_rows(
        "twisted hat identity", ctx.index_set.N,
        lambda k: expanded_bethe_series(ctx, k, z, D),
        lambda k: hat_twisted_series(ctx, k, z, D))


def prop36_trace_form(ctx: TwistedContext, z: ZMatrix, k: int,
                      D: int) -> TruncatedSeries:
    """The simplified trace form tr_k x id (H_k x 1 . hat-S(u,k) .
    Z_1..Z_k x 1) through order D."""
    h = z_product(z, range(1, k + 1), k) * antisymmetrizer(k, ctx.index_set)
    return hat_trace(ctx, k, h, D)


def verify_prop36_trace_form(ctx: TwistedContext, z: ZMatrix, k: int,
                             D: int) -> bool:
    """Does hat-A_k equal the simplified trace form through order D?  The
    scalar series relating the two is the constant series 1."""
    full = hat_twisted_series(ctx, k, z, D)
    return prop36_trace_form(ctx, z, k, D) == full


def verify_prop36(ctx: TwistedContext, z: ZMatrix, D: int,
                  one_label: str) -> list:
    """The rows of proposition 3.6: the twisted hat identity, the trace
    form of hat-A_k for k = 1..N at the scalar series 1 (spelled
    `one_label` in the rows), and the exchange scalar.  Each hat-A_k is
    built once and serves both the identity and the trace form."""
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
    holds exactly when Z_1 Q Z_2 H_2 = 0, checked as Z_1 Q Z_2 A_2 = 0."""
    iset = ctx.index_set
    z2a2 = z_site_tensor(z, 2, 2) * alternator(2, iset)
    res = z_site_tensor(z, 1, 2) * (q_tensor(iset) * z2a2)
    return [("exchange scalar c(u) = 1*u + 0", not res)]
