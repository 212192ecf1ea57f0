"""Generating matrix T(u), commuting Bethe-type series B_k(u), the quantum
determinant, inverse-series generators, and the associated verification
suites (the relations of T(u), fusion, centrality, commutativity, and the
hat-series identity).  `verify_rtt` is the one suite of the relations of
T(u): RTT, and on so/sp the mixed relation through R~.

All series coefficients are exact algebra elements in PBW normal form, so
every check reduces to "the normal form of a residual is zero".

The gl families are minor sums.  One kernel, `quantum_minor`, builds
the quantum minors of T(u) and of T(u)^-1, and one Z-weighted double sum,
`minor_sum`, adds them: B_k(u) and hat-B_k(u) alike, and the quantum
determinant is the minor of T(u) on all N indices.  `t_site_series` is
the one builder of a generator series: T(u) here, the formal S(u) of the
twisted layer under its free rule.

`verify_fusion` checks H_k T_1(u-1)..T_k(u-k) = T_k(u-k)..T_1(u-1) H_k
and the membership predicate H X = H X H on A_k = k! H_k = ket . bra,
bra the rows of A_k and ket their transpose (`fusion_products`): each
one-site T_p(u-p) acts on site p of bra from the right and of ket from
the left (`tensor.site_action`), and both identities are read off these
products, so no factor or product is formed on all N^k rows.

The row builders for one identity type each (`window_rows`,
`commutator_table`, `centrality_rows`, `hat_identity_rows`) serve the
twisted layer too; the commutator rows apply one `element.derivation`
per coefficient.  The quantum minors of T(u) need no tensor: the
functions that build tensors (T(u)^-1 among them) import `tensor` where
they run, so the ops that build only minors of T(u) do not load it.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, permutations
from math import prod
from operator import add, mul

from .algebra import YangianRule
from .element import derivation
from .indices import ZMatrix, perm_sign
from .rationals import binomial, div
from .series import BiLaurent, TruncatedSeries, algebra_ring


def t_entry_series(rule: YangianRule, i: int, j: int, D: int) -> TruncatedSeries:
    """T_ij(u) = delta_ij + sum_r T_ij^(r) u^-r."""
    aring = algebra_ring(rule)
    coeffs = [aring.one if i == j else aring.zero]
    coeffs += [rule.element(i, j, r) for r in range(1, D + 1)]
    return TruncatedSeries(aring, coeffs, D)


def t_site_series(rule, D: int) -> TruncatedSeries:
    """The one-site series 1 + sum_r X^(r) u^-r of a rule's generators,
    X^(r) the matrix of the X_ij^(r): T(u) under a `YangianRule`, the
    formal S(u) under the twisted context's `FreeRule`, and 1 + sum_r
    V^(r) u^-r in the variables v_ij^(r) under a `PoissonContext`."""
    from .tensor import TensorElement, tensor_ring

    iset = rule.index_set
    aring = algebra_ring(rule)
    tring = tensor_ring(1, iset, aring)
    idx = iset.indices()
    return TruncatedSeries(tring, [tring.one] + [
        TensorElement(1, iset, aring, {((i,), (j,)): rule.element(i, j, r)
                                       for i in idx for j in idx})
        for r in range(1, D + 1)], D)


# -- Bethe series ----------------------------------------------------------------


def quantum_minor(entry, rows, cols, sites) -> TruncatedSeries:
    """sum_{s in S_k} sgn(s) prod_{p in sites} X_{I_s(p) J_p}(u-p), the
    factors in the order of `sites` (ascending for the minors t^I_J of
    T(u), descending for hat-t^I_J of T(u)^-1), X given by its entry
    source `entry(a, b, p)` = X_ab(u-p); antisymmetric in I and in J."""
    return reduce(add, (
        reduce(mul, [entry(rows[s[p - 1]], cols[p - 1], p) for p in sites])
        * perm_sign(s) for s in permutations(range(len(rows)))))


def z_minor(z: ZMatrix, rows, cols):
    """det Z_{rows, cols} as a Leibniz sum; 1 on no rows."""
    return sum(perm_sign(s) * prod(map(z.entry, rows, s))
               for s in permutations(cols))


def minor_sum(weight, series, sites, rule: YangianRule,
              D: int) -> TruncatedSeries:
    """sum_{I,J} weight(I, J) x^I_J(u) over ascending k-tuples I, J,
    k = len(sites), x^I_J the `quantum_minor` of the matrix series given
    entrywise by `series(a, b)`, whose shifted entries are formed once; a
    minor of weight zero is skipped (a diagonal Z keeps only I = J)."""
    entry = cache(lambda a, b, p: series(a, b).substitute_affine(1, -p))
    subsets = list(combinations(rule.index_set.indices(), len(sites)))
    return sum((quantum_minor(entry, rows, cols, sites) * w
                for rows in subsets for cols in subsets
                for w in (weight(rows, cols),) if w),
               TruncatedSeries.zero(algebra_ring(rule), D))


def bethe_series(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    """B_k(u) as Z-weighted quantum minors,

        C(N,k)^-1 sum_{I,J} sgn(I I') sgn(J J') det Z_{I'J'} t^I_J(u),

    over ascending k-tuples I, J with ascending complements I', J'.  This
    is the defining double sum
    (1/N!) sum_{g,h in S_N} sgn(g) sgn(h) T_{g1 h1}(u-1)..T_{gk hk}(u-k)
    z_{g(k+1) h(k+1)}..z_{gN hN} collapsed: t^I_J is antisymmetric in J as
    well as in I, so the orderings of I and J sum to k! t^I_J and those of
    I' and J' to (N-k)! det Z_{I'J'}, and k!(N-k)!/N! = 1/C(N,k)."""
    N = rule.index_set.N
    if not (1 <= k <= N):
        raise ValueError("k out of range")
    idx = rule.index_set.indices()

    def weight(rows, cols):
        rows_c, cols_c = (tuple(i for i in idx if i not in x)
                          for x in (rows, cols))
        return (perm_sign(rows + rows_c) * perm_sign(cols + cols_c)
                * z_minor(z, rows_c, cols_c))

    return minor_sum(weight, lambda a, b: t_entry_series(rule, a, b, D),
                     range(1, k + 1), rule, D) * div(1, binomial(N, k))


def quantum_determinant(rule: YangianRule, D: int) -> TruncatedSeries:
    """The quantum determinant t^{1..N}_{1..N}(u), which is B_N(u) for
    every Z."""
    return minor_sum(lambda rows, cols: 1,
                     lambda a, b: t_entry_series(rule, a, b, D),
                     range(1, rule.index_set.N + 1), rule, D)


def hat_bethe_series(k: int, z: ZMatrix, rule: YangianRule, D: int) -> TruncatedSeries:
    """The inverse-series generators tr(Z_1..Z_k H_k X), X =
    hat-T_k(u-k)..hat-T_1(u-1), hat-T = T^-1, as sum_{I,J} det Z_{J,I}
    hat-t^I_J(u): H_k X = X H_k, so over the rows w_I of A_k the trace is
    sum_{I,J} <w_I|X|w_J> <w_J|Z_1..Z_k|w_I> / k!^2."""
    aring = algebra_ring(rule)
    if k == 0:
        return TruncatedSeries.one(aring, D)
    t_hat = t_site_series(rule, D).invert()
    return minor_sum(lambda rows, cols: z_minor(z, cols, rows),
                     lambda a, b: t_hat.map_coeffs(lambda c: c.entries.get(
                         ((a,), (b,)), aring.zero), aring),
                     range(k, 0, -1), rule, D)


# -- verification suites -----------------------------------------------------------


def window_rows(label: str, res: BiLaurent) -> list:
    """One row "label u^-r v^-s" per coefficient of a bivariate residual
    in its trusted window r <= cap_u, s <= cap_v: zero or not."""
    return [(f"{label} u^{-ru} v^{-rv}", (-ru, -rv) not in res.entries)
            for ru in range(res.cap_u + 1) for rv in range(res.cap_v + 1)]


def verify_rtt(rule: YangianRule, D: int) -> list:
    """The algebra relations of T(u), one row per coefficient in the window
    of each residual: the RTT relation R(u-v) T_1(u) T_2(v) =
    T_2(v) T_1(u) R(u-v), and on a signed index set also the mixed relation
    T~_1(u) R~(u-v) T_2(v) = T_2(v) R~(u-v) T~_1(u), T~ the prime transpose
    of T (`site_prime`)."""
    from .tensor import bilaurent_r, series_to_bilaurent

    iset = rule.index_set
    t = t_site_series(rule, D)
    t1 = series_to_bilaurent(t, 1)
    t2 = series_to_bilaurent(t, 2)
    r = bilaurent_r("plain", (1, 2), 1, -1, 0, 2, iset)
    details = window_rows("coefficient", r * t1 * t2 - t2 * t1 * r)
    if iset.kind == "signed":
        tt1 = series_to_bilaurent(t.map_coeffs(lambda c: c.site_prime(1)), 1)
        rt = bilaurent_r("twisted", (1, 2), 1, -1, 0, 2, iset)
        details += window_rows("mixed relation",
                               tt1 * rt * t2 - t2 * rt * tt1)
    return details


def fusion_products(rule: YangianRule, k: int, D: int) -> tuple:
    """(P, E bra, Q, E^T bra) per order of u^-1 as vector dicts keyed
    (label, multi-index), for A = A_k = k! H_k = ket . bra
    (`alternator_rows`), X = T_1(u-1)..T_k(u-k) and Y = T_k(u-k)..T_1(u-1).

    P = bra . X takes the factors as right actions on the rows of A_k,
    Q = Y . ket as left actions on its columns (`tensor.site_action`).  As
    w_J is 1 at the ascending column J and 0 at the other ascending
    columns, a row lies in the span of the w_J exactly where it is E bra,
    E its entries at the ascending columns.  So k! A X = A X A exactly
    where P = E bra, and then A X = ket . P equals Y A = Q . bra exactly
    where Q = ket E, Q^T = E^T bra.  Neither A_k nor a product on all N^k
    rows is formed."""
    from .tensor import alternator_rows, group_alternator, site_action

    aring = algebra_ring(rule)
    t = t_site_series(rule, D)
    bra = alternator_rows(k, rule.index_set).entries
    factors = {s: [{(a, b): v for ((a,), (b,)), v in c.entries.items()}
                   for c in t.substitute_affine(1, -s).coeffs]
               for s in range(1, k + 1)}
    p = q = [bra] + [{} for _ in range(D)]
    for s in range(1, k + 1):
        p = site_action(p, s, factors[s], aring, False)
        q = site_action(q, s, factors[s], aring, True)
    signs = group_alternator(k).items()

    def spread(swap):
        # E bra, E_IJ w_J keyed by I, or E^T bra, E_IJ w_I keyed by J
        return [{(a, tuple(b[i - 1] for i in g)): v * sign
                 for (r, c), v in x.items() if (c, c) in bra
                 for a, b in ((c, r) if swap else (r, c),)
                 for g, sign in signs} for x in p]

    return p, spread(False), q, spread(True)


def verify_fusion(rule: YangianRule, k: int, D: int) -> list:
    """H_k (T_1..T_k) = (T_k..T_1) H_k, plus the fused-block membership
    predicate H X = H X H, coefficientwise, checked as A X = Y A and
    k! A X = A X A on A_k = k! H_k, read off the rows (`fusion_products`)."""
    p, eb, q, etb = fusion_products(rule, k, D)
    rows = [x == y for x, y in zip(p, eb)]
    return ([(f"fusion coefficient u^{-r}", ok and q[r] == etb[r])
             for r, ok in enumerate(rows)]
            + [(f"membership coefficient u^{-r}", ok)
               for r, ok in enumerate(rows)])


def centrality_rows(label: str, x: TruncatedSeries, gen_label: str, gen,
                    idx, levels: int) -> list:
    """Rows [label coeff r, gen_label(i,j)^(s)] = 0: every coefficient
    r >= 1 of x commutes with the generators gen(s, i, j), s <= levels,
    under one derivation per coefficient."""
    return [(f"[{label} coeff {r}, {gen_label}({i},{j})^({s})]",
             not ad(gen(s, i, j)))
            for r in range(1, x.trunc + 1)
            for ad in (derivation(x.coeffs[r]),)
            for s in range(1, levels + 1) for i in idx for j in idx]


def verify_centrality(rule: YangianRule, D: int) -> list:
    """The quantum determinant through order D commutes with the
    generators of levels 1..D."""
    return centrality_rows("qdet", quantum_determinant(rule, D), "gen",
                           lambda s, i, j: rule.element(i, j, s),
                           rule.index_set.indices(), D)


def commutator_table(series: dict, letter: str, budget: int) -> list:
    """Rows [X_k coeff r, X_l coeff s] = 0 for the family
    {k: X_k(u), k = 1..N}, k <= l, orders 1..D with r + s <= budget (r < s
    when k = l), D the series' truncation; X is the row letter.  Each
    coefficient X_k coeff r has one derivation, applied to every
    coefficient it is paired with."""
    N = len(series)
    D = series[1].trunc
    ads = {(k, r): derivation(series[k].coeffs[r])
           for k in range(1, N + 1) for r in range(1, D + 1)}
    details = []
    for k in range(1, N + 1):
        for l in range(k, N + 1):
            for r in range(1, D + 1):
                for s in range(1, D + 1):
                    if r + s > budget or (k == l and s <= r):
                        continue
                    res = ads[(k, r)](series[l].coeffs[s])
                    details.append(
                        (f"[{letter}_{k} coeff {r}, {letter}_{l} coeff {s}]",
                         not res))
    return details


def verify_bethe_commutativity(z: ZMatrix, rule: YangianRule,
                               budget: int) -> list:
    """Rows [B_k coeff r, B_l coeff s] = 0 with r + s <= budget, from series
    truncated at D = budget - 1."""
    N = rule.index_set.N
    series = {k: bethe_series(k, z, rule, budget - 1) for k in range(1, N + 1)}
    return commutator_table(series, "B", budget)


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
