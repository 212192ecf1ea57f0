"""Generating matrix T(u), commuting Bethe-type series B_k(u), the quantum
determinant, inverse-series generators, and the associated verification
suites (RTT self-check, fusion, centrality, commutativity, and the
hat-series identity).

All series coefficients are exact algebra elements in PBW normal form, so
every check reduces to "the normal form of a residual is zero".

B_k(u) has one run-time construction, the permutation sum
`bethe_series`; the tensor-trace form `bethe_series_tensor` is its
independent reference.  The row builders for one identity type each
(`window_rows`, `membership_rows`, `commutator_table`,
`hat_identity_rows`) serve the twisted layer too.
"""
from __future__ import annotations

from functools import reduce
from itertools import permutations
from math import factorial
from operator import mul

from .algebra import YangianRule, commutator
from .indices import ZMatrix
from .rationals import ONE, binomial, div, rat
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


def bethe_series(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    """B_k(u) via the double permutation sum

        (1/N!) sum_{g,h} sgn(g) sgn(h) T_{g1 h1}(u-1)..T_{gk hk}(u-k)
                         z_{g(k+1) h(k+1)}..z_{gN hN}.

    This is the one construction used at run time.  The tensor-trace form
    `bethe_series_tensor` builds the same series independently and serves
    as its reference in the tests."""
    iset = rule.index_set
    N = iset.N
    if not (1 <= k <= N):
        raise ValueError("k out of range")
    idx = iset.indices()
    aring = algebra_ring(rule)
    shifted = {}
    for p in range(1, k + 1):
        for i in idx:
            for j in idx:
                shifted[(i, j, p)] = t_entry_series(rule, i, j, D)\
                    .substitute_affine(1, -p)
    acc = TruncatedSeries.zero(aring, D)
    for g in permutations(idx):
        sg = perm_sign(g)
        for h in permutations(idx):
            zfac = ONE
            for p in range(k, N):
                zfac *= z.entry(g[p], h[p])
                if zfac == 0:
                    break
            if zfac == 0:
                continue
            term = None
            for p in range(k):
                f = shifted[(g[p], h[p], p + 1)]
                term = f if term is None else term * f
            acc = acc + term * (sg * perm_sign(h) * zfac)
    return acc * rat(1, factorial(N))


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
    """B_N(u) as the sign-alternating ordered product over permutations."""
    iset = rule.index_set
    idx = iset.indices()
    aring = algebra_ring(rule)
    acc = TruncatedSeries.zero(aring, D)
    for g in permutations(idx):
        term = None
        for p, col in enumerate(idx):
            f = t_entry_series(rule, g[p], col, D).substitute_affine(1, -(p + 1))
            term = f if term is None else term * f
        acc = acc + term * perm_sign(g)
    return acc


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


def verify_centrality(rule: YangianRule, D: int, max_level: int) -> list:
    qdet = quantum_determinant(rule, D)
    idx = rule.index_set.indices()
    details = []
    for r in range(1, D + 1):
        c = qdet.coeffs[r]
        for s in range(1, max_level + 1):
            for i in idx:
                for j in idx:
                    res = commutator(c, rule.element(i, j, s))
                    details.append(
                        (f"[qdet coeff {r}, gen({i},{j})^({s})]", res.is_zero()))
    return details


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
