"""Generating matrix T(u), commuting Bethe-type series B_k(u), the quantum
determinant, inverse-series generators, and the associated verification
suites (RTT self-check, fusion, centrality, commutativity, and the
hat-series identity).

All series coefficients are exact algebra elements in PBW normal form, so
every check reduces to "the normal form of a residual is zero".

One kernel, `quantum_minor`, builds the quantum minors of T(u): B_k(u)
sums them weighted by complementary minors of Z, and the quantum
determinant is the minor on all N indices.  `bethe_series_tensor` is the
independent reference for B_k.  The row builders for one identity type
each (`window_rows`, `membership_rows`, `commutator_table`,
`centrality_rows`, `hat_identity_rows`) serve the twisted layer too.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations
from math import factorial, prod
from operator import mul

from .algebra import YangianRule, commutator
from .indices import ZMatrix
from .rationals import binomial, div
from .series import RATIONAL_RING, BiLaurent, TruncatedSeries, algebra_ring
from .tensor import (TensorElement, alternator, antisymmetrizer, bilaurent_r,
                     perm_sign, series_to_bilaurent, tensor_ring, trace_series)


def t_entry_series(rule: YangianRule, i: int, j: int, D: int) -> TruncatedSeries:
    """T_ij(u) = delta_ij + sum_r T_ij^(r) u^-r."""
    aring = algebra_ring(rule)
    coeffs = [aring.one if i == j else aring.zero]
    coeffs += [rule.element(i, j, r) for r in range(1, D + 1)]
    return TruncatedSeries(aring, coeffs, D)


def t_site_series(rule: YangianRule, sites: int, pos: int, D: int,
                  hat: bool = False) -> TruncatedSeries:
    """T(u) (or its inverse series) as a series of tensors living on one
    site of a larger tensor space, identity on the other sites."""
    iset = rule.index_set
    aring = algebra_ring(rule)
    one_site_ring = tensor_ring(1, iset, aring)
    idx = iset.indices()
    coeffs = [one_site_ring.one]
    for r in range(1, D + 1):
        ent = {((i,), (j,)): rule.element(i, j, r) for i in idx for j in idx}
        coeffs.append(TensorElement(1, iset, aring, ent))
    s = TruncatedSeries(one_site_ring, coeffs, D)
    if hat:
        s = s.invert()
    big_ring = tensor_ring(sites, iset, aring)
    return s.map_coeffs(lambda c: c.embed((pos,), sites), big_ring)


def t_factors(rule: YangianRule, sites: int, k: int, D: int,
              hat: bool = False, descending: bool = False) -> list:
    """The site factors T_p(u-p), p = 1..k (or the hat factors, optionally
    in descending site order)."""
    ps = list(range(1, k + 1))
    if descending:
        ps.reverse()
    return [t_site_series(rule, sites, p, D, hat=hat).substitute_affine(1, -p)
            for p in ps]


def z_site_tensor(z: ZMatrix, pos: int, sites: int) -> TensorElement:
    """Z on site `pos` of `sites` sites, a rational tensor."""
    one_site = TensorElement(1, z.index_set, RATIONAL_RING,
                             {((i,), (j,)): v
                              for (i, j), v in z.entries.items()})
    return one_site.embed((pos,), sites)


def z_product(z: ZMatrix, positions, sites: int) -> TensorElement:
    """The rational product of Z on the given sites, in ascending order."""
    acc = TensorElement.identity(sites, z.index_set)
    for p in positions:
        acc = acc * z_site_tensor(z, p, sites)
    return acc


# -- Bethe series ----------------------------------------------------------------


def quantum_minor(rule: YangianRule, rows, cols, D: int,
                  shifted: dict) -> TruncatedSeries:
    """The quantum minor of T(u) on rows I and columns J,

        t^I_J(u) = sum_{s in S_k} sgn(s) T_{I_s1 J_1}(u-1)..T_{I_sk J_k}(u-k),

    antisymmetric in I and in J.  `shifted` memoizes T_ab(u-p) by
    (a, b, p) across the minors of one family."""
    acc = TruncatedSeries.zero(algebra_ring(rule), D)
    for sigma in permutations(range(len(rows))):
        term = None
        for p, (s, b) in enumerate(zip(sigma, cols), 1):
            key = (rows[s], b, p)
            if key not in shifted:
                shifted[key] = t_entry_series(rule, rows[s], b, D)\
                    .substitute_affine(1, -p)
            term = shifted[key] if term is None else term * shifted[key]
        acc = acc + term * perm_sign(sigma)
    return acc


def bethe_series(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    """B_k(u) as Z-weighted quantum minors,

        C(N,k)^-1 sum_{I,J} sgn(I I') sgn(J J') det Z_{I'J'} t^I_J(u),

    over ascending k-tuples I, J with ascending complements I', J'; det is
    a Leibniz sum, and a minor whose Z cofactor is zero is skipped (a
    diagonal Z keeps only I = J).  This is the defining double sum
    (1/N!) sum_{g,h in S_N} sgn(g) sgn(h) T_{g1 h1}(u-1)..T_{gk hk}(u-k)
    z_{g(k+1) h(k+1)}..z_{gN hN} collapsed: t^I_J is antisymmetric in J as
    well as in I, so the orderings of I and J sum to k! t^I_J and those of
    I' and J' to (N-k)! det Z_{I'J'}, and k!(N-k)!/N! = 1/C(N,k).  This is
    the one construction used at run time; `bethe_series_tensor` is its
    independent reference in the tests."""
    iset = rule.index_set
    N = iset.N
    if not (1 <= k <= N):
        raise ValueError("k out of range")
    idx = iset.indices()
    shifted = {}
    acc = TruncatedSeries.zero(algebra_ring(rule), D)
    for rows in combinations(idx, k):
        rows_c = tuple(i for i in idx if i not in rows)
        for cols in combinations(idx, k):
            cols_c = tuple(j for j in idx if j not in cols)
            zdet = sum(perm_sign(s) * prod(map(z.entry, rows_c, s))
                       for s in permutations(cols_c))
            if zdet:
                sign = perm_sign(rows + rows_c) * perm_sign(cols + cols_c)
                acc = acc + quantum_minor(rule, rows, cols, D, shifted) \
                    * (sign * zdet)
    return acc * div(1, binomial(N, k))


def bethe_series_tensor(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    """tr(H_N . T_1(u-1)..T_k(u-k) . Z_{k+1}..Z_N) as one contraction: the
    T block acts on sites 1..k only, so sites k+1..N are traced out of the
    rational side Z_{k+1}..Z_N H_N first."""
    iset = rule.index_set
    N = iset.N
    h = z_product(z, range(k + 1, N + 1), N) * antisymmetrizer(N, iset)
    if k < N:
        h = h.partial_trace(range(k + 1, N + 1))
    return trace_series(h, *t_factors(rule, k, k, D))


def quantum_determinant(rule: YangianRule, D: int) -> TruncatedSeries:
    """The quantum determinant t^{1..N}_{1..N}(u), which is B_N(u) for
    every Z."""
    idx = rule.index_set.indices()
    return quantum_minor(rule, idx, idx, D, {})


def hat_bethe_series(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    """The inverse-series generators: trace of H_k times the descending
    product of inverse factors times Z_1..Z_k."""
    iset = rule.index_set
    if k == 0:
        return TruncatedSeries.one(algebra_ring(rule), D)
    h = z_product(z, range(1, k + 1), k) * antisymmetrizer(k, iset)
    return trace_series(h, *t_factors(rule, k, k, D, hat=True,
                                      descending=True))


# -- verification suites -----------------------------------------------------------


def window_rows(label: str, res: BiLaurent) -> list:
    """One row "label u^-r v^-s" per coefficient of a bivariate residual
    in its trusted window r <= cap_u, s <= cap_v: zero or not."""
    return [(f"{label} u^{-ru} v^{-rv}", (-ru, -rv) not in res.entries)
            for ru in range(res.cap_u + 1) for rv in range(res.cap_v + 1)]


def membership_rows(label: str, a: TensorElement, x: TruncatedSeries) -> list:
    """One row "label u^-r" per coefficient X of the block series x: does
    H X = H X H hold?  It is checked as k! A X = A X A, `a` = A_k = k! H_k."""
    f = factorial(a.sites)
    return [(f"{label} u^{-r}", ax.scale_rat(f) == ax * a)
            for r, c in enumerate(x.coeffs) for ax in (a * c,)]


def verify_rtt(rule: YangianRule, D: int) -> list:
    """Residuals of R(u-v) T_1(u) T_2(v) - T_2(v) T_1(u) R(u-v)."""
    iset = rule.index_set
    t = t_site_series(rule, 1, 1, D)
    t1 = series_to_bilaurent(t, 1, "u", 2)
    t2 = series_to_bilaurent(t, 2, "v", 2)
    r = bilaurent_r("plain", (1, 2), 1, -1, 0, 2, iset)
    return window_rows("coefficient", r * t1 * t2 - t2 * t1 * r)


def verify_fusion(rule: YangianRule, k: int, D: int) -> list:
    """H_k (T_1..T_k) = (T_k..T_1) H_k, plus the fused-block membership
    predicate H X = H X H, coefficientwise, on A_k = k! H_k."""
    a = alternator(k, rule.index_set)
    factors = t_factors(rule, k, k, D)
    fwd = reduce(mul, factors)
    lhs = fwd.map_coeffs(lambda x: a * x)
    rhs = reduce(mul, reversed(factors)).map_coeffs(lambda x: x * a)
    details = [(f"fusion coefficient u^{-r}", lhs.coeffs[r] == rhs.coeffs[r])
               for r in range(D + 1)]
    return details + membership_rows("membership coefficient", a, fwd)


def centrality_rows(label: str, x: TruncatedSeries, gen_label: str, gen,
                    idx, levels: int) -> list:
    """Rows [label coeff r, gen_label(i,j)^(s)] = 0: every coefficient
    r >= 1 of x commutes with the generators gen(s, i, j), s <= levels."""
    return [(f"[{label} coeff {r}, {gen_label}({i},{j})^({s})]",
             commutator(x.coeffs[r], gen(s, i, j)).is_zero())
            for r in range(1, x.trunc + 1) for s in range(1, levels + 1)
            for i in idx for j in idx]


def verify_centrality(rule: YangianRule, D: int, max_level: int) -> list:
    return centrality_rows("qdet", quantum_determinant(rule, D), "gen",
                           lambda s, i, j: rule.element(i, j, s),
                           rule.index_set.indices(), max_level)


def commutator_table(series: dict, letter: str, budget: int, D: int) -> list:
    """Rows [X_k coeff r, X_l coeff s] = 0 for the family
    {k: X_k(u), k = 1..N}, k <= l, orders 1..D with r + s <= budget (r < s
    when k = l); X is the row letter."""
    N = len(series)
    details = []
    for k in range(1, N + 1):
        for l in range(k, N + 1):
            for r in range(1, D + 1):
                for s in range(1, D + 1):
                    if r + s > budget or (k == l and s <= r):
                        continue
                    res = commutator(series[k].coeffs[r], series[l].coeffs[s])
                    details.append(
                        (f"[{letter}_{k} coeff {r}, {letter}_{l} coeff {s}]",
                         res.is_zero()))
    return details


def verify_bethe_commutativity(z: ZMatrix, rule: YangianRule,
                               budget: int) -> list:
    """Rows [B_k coeff r, B_l coeff s] = 0 with r + s <= budget, from series
    truncated at D = budget - 1."""
    D = budget - 1
    N = rule.index_set.N
    series = {k: bethe_series(k, z, rule, D) for k in range(1, N + 1)}
    return commutator_table(series, "B", budget, D)


def hat_identity_rows(label: str, N: int, family, hat) -> list:
    """Rows X_k(u) = X_N(u) * hat-X_{N-k}(u-k) * c_k, k = 1..N, with
    c_k = 1/binomial(N,k); `family(k)` builds X_k and `hat(k)` builds
    hat-X_k.  X_N is built once and serves as X_k at k = N.

    Constant terms force this scalar: the u^0 term of X_k is
    e_{N-k}(z)/binomial(N,k) while X_N and the hat series start at 1 and
    e_{N-k}(z).  The scalar is reported per k.
    """
    x_n = family(N)
    details = []
    for k in range(1, N + 1):
        x_k = x_n if k == N else family(k)
        shifted = hat(N - k).substitute_affine(1, -k)
        scalar = div(1, binomial(N, k))
        details.append((f"{label} k={k} (scalar {scalar})",
                        x_k == x_n * shifted * scalar))
    return details


def verify_hat_identity(z: ZMatrix, rule: YangianRule, D: int) -> list:
    """B_k(u) = B_N(u) * hat-B_{N-k}(u-k) / binomial(N,k), k = 1..N."""
    return hat_identity_rows(
        "hat identity", rule.index_set.N,
        lambda k: bethe_series(k, z, rule, D),
        lambda k: hat_bethe_series(k, z, rule, D))
