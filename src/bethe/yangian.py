"""Generating matrix T(u), commuting Bethe-type series B_k(u), the quantum
determinant, inverse-series generators, and the associated verification
suites (RTT self-check, fusion, centrality, commutativity, and the
hat-series identity).

All series coefficients are exact algebra elements in PBW normal form, so
every check reduces to "the normal form of a residual is zero".
"""
from __future__ import annotations

from functools import reduce
from itertools import permutations
from math import factorial
from operator import mul

from .algebra import YangianRule, commutator
from .indices import ZMatrix
from .rationals import ONE, Q, binomial
from .series import RATIONAL_RING, Ring, TruncatedSeries, algebra_ring
from .tensor import (TensorElement, antisymmetrizer, bilaurent_r, perm_sign,
                     series_to_bilaurent, tensor_ring, trace_series)


def lift_tensor(t: TensorElement, ring: Ring) -> TensorElement:
    """Promote rational tensor coefficients into a richer ring."""
    return t.map_coeffs(lambda c: ring.one * c, ring)


def t_entry_series(rule: YangianRule, i: int, j: int, D: int) -> TruncatedSeries:
    """T_ij(u) = delta_ij + sum_r T_ij^(r) u^-r."""
    aring = algebra_ring(rule)
    coeffs = [aring.one if i == j else aring.zero]
    coeffs += [rule.element(i, j, r) for r in range(1, D + 1)]
    return TruncatedSeries(aring, coeffs, D)


def t_matrix(rule: YangianRule, D: int) -> dict:
    """All entries of the generating matrix as a dict (i, j) -> series."""
    idx = rule.index_set.indices()
    return {(i, j): t_entry_series(rule, i, j, D) for i in idx for j in idx}


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


def z_site_tensor(z: ZMatrix, pos: int, sites: int, ring: Ring) -> TensorElement:
    one_site = TensorElement(1, z.index_set, ring,
                             {((i,), (j,)): ring.one * v
                              for (i, j), v in z.entries.items()})
    return one_site.embed((pos,), sites)


def z_product(z: ZMatrix, positions, sites: int) -> TensorElement:
    """The rational product of Z on the given sites, in ascending order."""
    acc = TensorElement.identity(sites, z.index_set)
    for p in positions:
        acc = acc * z_site_tensor(z, p, sites, RATIONAL_RING)
    return acc


# -- Bethe series ----------------------------------------------------------------


def bethe_series(k: int, z: ZMatrix, rule: YangianRule, D: int,
                 cross_check: bool = True) -> TruncatedSeries:
    """B_k(u) via the double permutation sum; optionally cross-checked
    against the independent tensor-trace construction."""
    if not (1 <= k <= rule.index_set.N):
        raise ValueError("k out of range")
    b = bethe_series_perm(k, z, rule, D)
    if cross_check:
        b2 = bethe_series_tensor(k, z, rule, D)
        if b != b2:
            raise AssertionError(
                "permutation-sum and tensor-trace constructions disagree")
    return b


def bethe_series_perm(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    iset = rule.index_set
    N = iset.N
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
            acc = acc + term * (Q(sg * perm_sign(h)) * zfac)
    return acc * Q(1, factorial(N))


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
        acc = acc + term * Q(perm_sign(g))
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


def verify_rtt(rule: YangianRule, D: int) -> list:
    """Residuals of R(u-v) T_1(u) T_2(v) - T_2(v) T_1(u) R(u-v)."""
    iset = rule.index_set
    t = t_site_series(rule, 1, 1, D)
    t1 = series_to_bilaurent(t, 1, "u", 2)
    t2 = series_to_bilaurent(t, 2, "v", 2)
    r = bilaurent_r("plain", (1, 2), 1, -1, 0, 2, iset, algebra_ring(rule))
    res = r * t1 * t2 - t2 * t1 * r
    details = []
    bad = {k for k in res.entries}
    for ru in range(0, res.cap_u + 1):
        for rv in range(0, res.cap_v + 1):
            details.append((f"coefficient u^{-ru} v^{-rv}",
                            (-ru, -rv) not in bad))
    return details


def verify_fusion(rule: YangianRule, k: int, D: int) -> list:
    """H_k (T_1..T_k) = (T_k..T_1) H_k, plus the fused-block membership
    predicate H X = H X H, coefficientwise."""
    iset = rule.index_set
    aring = algebra_ring(rule)
    hk = lift_tensor(antisymmetrizer(k, iset), aring)
    fwd = reduce(mul, t_factors(rule, k, k, D))
    bwd = reduce(mul, t_factors(rule, k, k, D, descending=True))
    lhs = fwd.scale(hk, side="left")
    rhs = bwd.scale(hk, side="right")
    details = []
    for r in range(D + 1):
        details.append((f"fusion coefficient u^{-r}",
                        lhs.coeffs[r] == rhs.coeffs[r]))
    for r in range(D + 1):
        x = fwd.coeffs[r]
        details.append((f"membership coefficient u^{-r}",
                        hk * x == hk * x * hk))
    return details


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


def verify_bethe_commutativity(z: ZMatrix, rule: YangianRule, budget: int,
                               D: int | None = None) -> list:
    if D is None:
        D = budget - 1
    N = rule.index_set.N
    series = {k: bethe_series(k, z, rule, D) for k in range(1, N + 1)}
    return commutator_table(series, "B", budget, D)


def verify_hat_identity(z: ZMatrix, rule: YangianRule, D: int) -> list:
    """B_k(u) = B_N(u) * hat-B_{N-k}(u-k) * c_k with c_k = 1/binomial(N,k).

    Constant terms force this scalar: the u^0 term of B_k is
    e_{N-k}(z)/binomial(N,k) while B_N and the hat series start at 1 and
    e_{N-k}(z).  The scalar is reported per k.
    """
    N = rule.index_set.N
    bn = bethe_series(N, z, rule, D, cross_check=False)
    details = []
    for k in range(1, N + 1):
        bk = bethe_series(k, z, rule, D)
        hat = hat_bethe_series(N - k, z, rule, D).substitute_affine(1, -k)
        scalar = ONE / binomial(N, k)
        details.append((f"hat identity k={k} (scalar {scalar})",
                        bk == bn * hat * scalar))
    return details
