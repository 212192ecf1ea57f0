"""Reference constructions that the package no longer runs.

The package contracts every trace form tr(F(u) H_k X(u)) against the rows
of A_k = k! H_k (`tensor.trace_words`), applying F(u) to the columns one
factor at a time.  The references here build the rational side
h(u) = F(u) H_k as one dense tensor on all sites, with every normalized
R-matrix factor embedded on all sites, and trace sites out of it, as the
package once did.  `bethe_series_tensor` is B_k as a trace form, the
independent reference for the quantum-minor construction of B_k, and
`hat_bethe_series_walk` is hat-B_k as a trace form, the walk the package
once ran, the reference for the minors of T(u)^-1 that build it now.

`fusion_products_dense` multiplies the site factors T_p(u-p) on all N^k
rows and applies the closed-form A_k to the products, the reference for
`yangian.fusion_products`, which works on the rows of A_k; it and
`membership_rows`, the dense membership predicate H X = H X H, are what
`verify fusion` once ran.

`s_series_tensor` is S(u) = T(u) T~(-u) as a product of one-site tensor
series, the reference for `twisted.TwistedContext.expand_gen` and, once
inverted, for the formal hat-S that `twisted.hat_trace` reads through
`s_expand`.

`site_action_dense` multiplies a one-site factor embedded on all k
sites, the reference for `tensor.site_action`.

`alternator` (A_k in closed form on all N^k rows), `perm_operator`,
`r_factor`, `r_product`, `h_k_orientation` and `trace_all` are the dense
forms of the rational antisymmetrizer suite, which the package checks in
the group algebra Z[S_k] (`tensor.verify_antisymmetrizers`); `group_image`
maps an element of Z[S_k] to its operator.

`rank_table_holds`, `expected_jacobian_rank` and `expected_poisson_rank`
state the classical rank tables as three functions, each with its own
three-way split, the reference for `certify.rank_table`.  `evaluate` is
the value of a polynomial at a point (the former `PoissonPoly.evaluate`),
the reference for the Jacobian rows (`poisson.jacobian_rows`, through the
derivatives of the expanded family) and the bracket matrix
(`poisson.bracket_matrix`, through `gen_bracket`) that the package reads
at the point.  `derivative` is the partial derivative of a polynomial
in one variable, the reference for those jets, and
`poisson_bracket_double_sum`, the double sum
sum_{a,b} d_a f d_b g {a, b} over it, is the bracket the package once
formed, the reference for `poisson.poisson_bracket`, which is the
derivation of `element` over the context.

`normal_order` rewrites one word by adjacent swaps, the reference for the
cached normal-ordering kernels of `algebra.CommutationRule`, keeping the
rewrite step of each word across calls; and
`deserialize_element` inverts `reports.serialize_terms(..., "word")`.
"""
import heapq
from functools import reduce
from itertools import permutations, product
from math import factorial, prod
from operator import mul

from bethe.algebra import AlgebraElement, monomial_degree
from bethe.element import _from_terms
from bethe.indices import IndexSet, perm_sign
from bethe.poisson import PoissonContext
from bethe.rationals import ONE, accumulate, parse_rat, rat
from bethe.series import (INF_CAP, RATIONAL_RING, BiLaurent, TruncatedSeries,
                          algebra_ring, one_over_c_minus_2u, sum_terms)
from bethe.tensor import (TensorElement, flip, q_tensor, tensor_ring,
                          trace_words)
from bethe.twisted import _reflection_form
from bethe.yangian import t_site_series


def _inversions(word: tuple) -> int:
    return sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


# One rewrite step per word, shared by every call so that the examples of
# a property reuse what earlier examples rewrote: (rule, strategy) ->
# {word: (its key, ((coefficient, word, key), ...))}, no words for a
# normal word, the key being (degree, inversions).  The memo is emptied
# once it holds more than STEP_MEMO_WORDS words, about 1 KB each.
_STEPS: dict = {}
STEP_MEMO_WORDS = 1 << 17


def _key(w):
    return (monomial_degree(w), _inversions(w))


def _step(w, rule, strategy):
    spots = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
    if not spots:
        return _key(w), ()
    pos = spots[0] if strategy == "left" else spots[-1]
    a, b = w[pos], w[pos + 1]
    pre, suf = w[:pos], w[pos + 2:]
    outs = [(ONE, pre + (b, a) + suf)] + [
        (cb, pre + mb + suf) for mb, cb in rule.bracket_terms(a, b).items()]
    return _key(w), tuple((cb, ww, _key(ww)) for cb, ww in outs)


def normal_order(word, rule, coeff=ONE, strategy: str = "left",
                 trace: list | None = None) -> AlgebraElement:
    """Rewrite a word of generators into PBW normal form.

    Independent of the two reduction strategies ('left' resolves the
    leftmost adjacent inversion first, 'right' the rightmost); this is the
    confluence property the cached engine relies on.  When `trace` is a
    list, every rewrite step appends ((degree, inversions) before, after)
    and the strict lexicographic decrease is asserted.

    The pending words are kept once each, with their coefficients summed,
    and the word with the largest (degree, inversions) key is rewritten
    next.  As every step strictly lowers the key, no word can reappear
    once it is rewritten, so each distinct word is rewritten at most once.
    """
    if strategy not in ("left", "right"):
        raise ValueError(f"unknown strategy {strategy!r}")
    word = tuple(word)
    for g in word:
        rule.gen(g[1], g[2], g[0])  # validates indices and level

    if sum(map(len, _STEPS.values())) > STEP_MEMO_WORDS:
        _STEPS.clear()
    steps = _STEPS.setdefault((rule, strategy), {})
    # a max-heap on the key through negated keys; a push counter breaks
    # ties, so that the words themselves are never compared
    pending = {word: rat(coeff)}
    degree, inversions = _key(word)
    heap = [(-degree, -inversions, 0, word)]
    pushed = 1
    done: dict = {}
    while heap:
        w = heapq.heappop(heap)[3]
        c = pending.pop(w, None)
        if c is None:
            continue  # pushed twice, or its coefficients cancelled
        hit = steps.get(w)
        if hit is None:
            hit = steps[w] = _step(w, rule, strategy)
        before, outs = hit
        if not outs:
            accumulate(done, ((w, c),))
            continue
        for cb, ww, after in outs:
            if trace is not None:
                trace.append((before, after))
                assert after < before, "rewrite step failed to decrease"
            old = pending.get(ww)
            if old is None:
                pending[ww] = c * cb
                heapq.heappush(heap, (-after[0], -after[1], pushed, ww))
                pushed += 1
            elif old + c * cb:
                pending[ww] = old + c * cb
            else:
                del pending[ww]
    return AlgebraElement(rule, done)


def deserialize_element(data: dict, rule) -> AlgebraElement:
    """The element that `serialize_terms(..., "word")` encoded as
    `data`."""
    terms = {}
    for row in data["terms"]:
        m = tuple((r, i, j) for (i, j, r) in row["word"])
        terms[m] = parse_rat(row["coeff"])
    return AlgebraElement(rule, terms)


def perm_operator(sigma, index_set):
    """P_sigma moving the content of site i to site sigma(i) (1-based
    images), on all N^k rows."""
    k = len(sigma)
    ent = {}
    for cols in product(index_set.indices(), repeat=k):
        rows = [0] * k
        for i, a in enumerate(cols):
            rows[sigma[i] - 1] = a
        ent[(tuple(rows), cols)] = 1
    return TensorElement(k, index_set, RATIONAL_RING, ent)


def group_image(x, k, index_set):
    """sum_sigma x_sigma P_sigma for an element x of Z[S_k]; k is given,
    since the zero element has no permutation to read it from."""
    acc = TensorElement.zero(k, index_set)
    for sigma, c in x.items():
        acc = acc + perm_operator(sigma, index_set).scale_rat(c)
    return acc


def trace_all(t):
    """The full trace of a tensor over all its sites."""
    return t.ring.sum([v for (r, c), v in t.entries.items() if r == c])


def alternator(k, index_set):
    """A_k = sum_sigma sgn(sigma) P_sigma = k! H_k, an integral tensor on
    all N^k rows, in closed form: its entry at (sigma.b, b) is sgn(sigma)
    for every column b with distinct entries, and its columns with a
    repeated entry vanish."""
    signs = [(p, perm_sign(p)) for p in permutations(range(k))]
    return TensorElement(k, index_set, RATIONAL_RING, {
        (tuple(b[i] for i in p), b): s
        for b in permutations(index_set.indices(), k) for p, s in signs})


def r_factor(p, q, value, k, index_set):
    """R_pq evaluated at a rational point, value id - P_pq, on k sites."""
    ident = TensorElement.identity(k, index_set).scale_rat(value)
    return ident - flip(index_set).embed((p, q), k)


def r_product(k, outer, inner, index_set):
    """The ordered product of the dense R_pq(q-p), p < q, on k sites, in
    the orientation of `tensor.r_product`."""
    order = {"asc": iter, "desc": reversed}
    x = TensorElement.identity(k, index_set)
    for p in order[outer](range(1, k)):
        for q in order[inner](range(p + 1, k + 1)):
            x = x * r_factor(p, q, q - p, k, index_set)
    return x


def h_k_orientation(a):
    """The arrow orientations in which the dense `r_product` equals
    1! ... (k-1)! A_k for a = A_k (`alternator`), in the format of
    `tensor.h_k_orientation`."""
    k = a.sites
    if k == 1:
        return "trivial"
    target = a.scale_rat(prod(map(factorial, range(k))))
    return ";".join(f"outer={outer},inner={inner}"
                    for outer, inner in product(("asc", "desc"), repeat=2)
                    if r_product(k, outer, inner, a.index_set) == target)


def antisymmetrizer_oracle(k, index_set):
    """(1/k!) sum_sigma sgn(sigma) P_sigma: the defining expression."""
    acc = TensorElement.zero(k, index_set)
    for sigma in permutations(range(1, k + 1)):
        acc = acc + perm_operator(sigma, index_set).scale_rat(perm_sign(sigma))
    return acc.scale_rat(rat(1, factorial(k)))


def antisymmetrizer(k, index_set):
    """H_k = A_k / k!."""
    return alternator(k, index_set).scale_rat(rat(1, factorial(k)))


def partial_trace(t, traced):
    """Trace the given 1-based sites out of the tensor t."""
    traced = sorted(set(traced))
    keep = [s for s in range(1, t.sites + 1) if s not in traced]
    acc = sum_terms(t.ring, (
        ((tuple(r[s - 1] for s in keep), tuple(c[s - 1] for s in keep)), v)
        for (r, c), v in t.entries.items()
        if all(r[s - 1] == c[s - 1] for s in traced)))
    return TensorElement(len(keep), t.index_set, t.ring, acc)


def z_site_tensor(z, pos, sites):
    """Z on site `pos` of `sites` sites, a rational tensor."""
    one_site = TensorElement(1, z.index_set, RATIONAL_RING,
                             {((i,), (j,)): v
                              for (i, j), v in z.entries.items()})
    return one_site.embed((pos,), sites)


def site_action_dense(x, p, m, ring, left, k, index_set):
    """`tensor.site_action` as a product of tensor series on all k sites:
    the vectors of x are the rows of one tensor per order (its columns for
    the left action), M(u) is embedded on site p, and every coefficient is
    lifted into `ring`."""
    D = len(x) - 1
    lift = (lambda v: v) if ring.rational else (lambda v: ring.one * v)
    tring = tensor_ring(k, index_set, ring)
    xs = TruncatedSeries(tring, [TensorElement(k, index_set, ring, {
        (c, r) if left else (r, c): lift(v) for (r, c), v in xr.items()})
        for xr in x], D)
    ms = TruncatedSeries(tring, [TensorElement(1, index_set, ring, {
        ((a,), (b,)): lift(v) for (a, b), v in ms.items()}).embed((p,), k)
        for ms in m], D)
    y = ms * xs if left else xs * ms
    return [{(c, r) if left else (r, c): v for (r, c), v in yr.entries.items()}
            for yr in y.coeffs]


def z_product(z, positions, sites):
    """The rational product of Z on the given sites, in ascending order."""
    acc = TensorElement.identity(sites, z.index_set)
    for p in positions:
        acc = acc * z_site_tensor(z, p, sites)
    return acc


def g_factor(p, q, c, sites, index_set, D):
    """id - Q_pq/(c - 2u) on `sites` sites, Q_pq embedded, as a series of
    rational tensors."""
    qpq = q_tensor(index_set).embed((p, q), sites)
    tring = tensor_ring(sites, index_set)
    scalars = one_over_c_minus_2u(c, D).coeffs
    return TruncatedSeries(tring, [tring.one] + [
        -qpq.scale_rat(scalars[r]) for r in range(1, D + 1)], D)


def fused_z(z, k, D):
    """Z(u,k): Z_1 G_12 .. G_1k Z_2 G_23 .. Z_k on k sites, G_pq =
    id - Q_pq/(p+q-2u), multiplied out."""
    iset = z.index_set
    tring = tensor_ring(k, iset)
    factors = []
    for p in range(1, k + 1):
        factors.append(TruncatedSeries.constant(
            tring, z_site_tensor(z, p, k), D))
        factors += [g_factor(p, q, p + q, k, iset, D)
                    for q in range(p + 1, k + 1)]
    return reduce(mul, factors)


def a_k_rational_side(z, k, D):
    """The rational side of A_k: (G . Z block)(u) H_N, the connecting
    factors G_pq(p+q-2u), p <= k < q, and Z(u + N/2 - k, N - k) on sites
    k+1..N, with sites k+1..N traced out.  A_k = tr(h(u) S(u,k))."""
    iset = z.index_set
    N = iset.N
    h = TruncatedSeries.one(tensor_ring(N, iset), D)
    for p in range(1, k + 1):
        for q in range(k + 1, N + 1):
            h = h * g_factor(p, q, p + q, N, iset, D)
    rest = tuple(range(k + 1, N + 1))
    if k < N:
        zloc = fused_z(z, N - k, D).substitute_affine(1, rat(N, 2) - k)
        h = h * zloc.map_coeffs(lambda c: c.embed(rest, N), h.ring)
    hn = antisymmetrizer(N, iset)
    h = h.map_coeffs(lambda c: c * hn)
    return h.map_coeffs(lambda c: partial_trace(c, rest), tensor_ring(k, iset))


def hat_rational_side(z, k, D):
    """Z(u + N/2, k) H_k, the rational side of hat-A_k."""
    hk = antisymmetrizer(k, z.index_set)
    return fused_z(z, k, D).substitute_affine(1, rat(z.index_set.N, 2))\
        .map_coeffs(lambda c: c * hk)


def verify_z_exchange(ctx, z):
    """Exact exchange identity R(u-v) Z_1 R~(-u-v) Z_2 =
    Z_2 R~(-u-v) Z_1 R(u-v)."""
    iset = ctx.index_set
    z1, z2 = (BiLaurent(tensor_ring(2, iset), {(0, 0): z_site_tensor(z, p, 2)},
                        INF_CAP, INF_CAP) for p in (1, 2))
    res = _reflection_form(z1, z2, iset)
    return [("exchange identity", not res)]


def bethe_series_tensor(k, z, rule, D):
    """B_k(u) = tr(H_N . T_1(u-1)..T_k(u-k) . Z_{k+1}..Z_N) as a trace form:
    one `trace_words` walk of the row of A_N over the letter sites
    T(u-p), with the factors Z_{k+1}..Z_N."""
    N = rule.index_set.N
    t = t_site_series(rule, D)
    return trace_words(N, rule.index_set,
                       [(p, t.substitute_affine(1, -p))
                        for p in range(1, k + 1)],
                       [(q, z) for q in range(k + 1, N + 1)],
                       algebra_ring(rule), D)


def hat_bethe_series_walk(k, z, rule, D):
    """hat-B_k(u) = tr(Z_1..Z_k H_k . hat-T_k(u-k) .. hat-T_1(u-1)) as a
    trace form: one `trace_words` walk of the rows of A_k over the letter
    sites hat-T(u-p), p = k..1, hat-T = T^-1 on one site, with the factors
    Z_1..Z_k."""
    if k == 0:
        return TruncatedSeries.one(algebra_ring(rule), D)
    t_hat = t_site_series(rule, D).invert()
    return trace_words(k, rule.index_set,
                       [(p, t_hat.substitute_affine(1, -p))
                        for p in range(k, 0, -1)],
                       [(p, z) for p in range(1, k + 1)], algebra_ring(rule),
                       D)


def s_series_tensor(ctx, D):
    """S(u) = T(u) T~(-u) on one site through order D, T~ the prime
    transpose of T (`site_prime`) and T~(-u) its coefficients scaled by
    (-1)^r, with normal-ordered Yangian coefficients."""
    t = t_site_series(ctx.yang_rule, D)
    t_tilde_minus = TruncatedSeries(t.ring, [
        c.site_prime(1).scale_rat((-1) ** r) for r, c in enumerate(t.coeffs)],
        D)
    return t * t_tilde_minus


def fusion_products_dense(rule, k, D):
    """(A X, Y A, A X A) with X = T_1(u-1)..T_k(u-k) and Y = T_k..T_1, each
    factor T(u) embedded on site p of k sites and then shifted, both
    products formed on all N^k rows, and A = A_k in closed form."""
    a = alternator(k, rule.index_set)
    t = t_site_series(rule, D)
    ring = tensor_ring(k, rule.index_set, algebra_ring(rule))
    factors = [t.map_coeffs(lambda c: c.embed((p,), k), ring)
               .substitute_affine(1, -p) for p in range(1, k + 1)]
    ax = reduce(mul, factors).map_coeffs(lambda x: a * x)
    ya = reduce(mul, reversed(factors)).map_coeffs(lambda x: x * a)
    return ax, ya, ax.map_coeffs(lambda x: x * a)


def membership_rows(label, a, x):
    """One row "label u^-r" per coefficient X of the block series x: does
    H X = H X H hold?  It is checked as k! A X = A X A, `a` = A_k = k! H_k."""
    f = factorial(a.sites)
    return [(f"{label} u^{-r}", ax.scale_rat(f) == ax * a)
            for r, c in enumerate(x.coeffs) for ax in (a * c,)]


def rank_table_holds(index_set: IndexSet, M: int) -> bool:
    """Whether the rank tables below hold level M: every M in the plain
    case, odd M for odd-orthogonal and symplectic, even M for
    even-orthogonal."""
    even_so = index_set.form == "so" and index_set.N % 2 == 0
    return index_set.kind == "plain" or M % 2 == (0 if even_so else 1)


def expected_jacobian_rank(context: PoissonContext) -> int:
    """Dimension of the certification slice: MN(N+1)/2 in the plain case,
    the three-branch table in the twisted cases (odd M for odd-orthogonal
    and symplectic, even M for even-orthogonal)."""
    iset = context.index_set
    N, M = iset.N, context.M
    if iset.kind == "plain":
        return M * N * (N + 1) // 2
    n = iset.n
    if iset.form == "so" and N % 2 == 1:
        m = (M - 1) // 2
        return (2 * m * n + m + n) * (n + 1)
    if iset.form == "sp":
        m = (M - 1) // 2
        return (2 * m * n + m + n + 1) * n
    m = M // 2
    return (2 * n + 1) * m * n


def expected_poisson_rank(context: PoissonContext) -> int:
    """Generic bracket rank 2D at the base point."""
    iset = context.index_set
    N, M = iset.N, context.M
    if iset.kind == "plain":
        return M * (N * N - N)
    n = iset.n
    if iset.form == "so" and N % 2 == 1:
        m = (M - 1) // 2
        return 2 * (2 * m * n + m + n) * n
    if iset.form == "sp":
        m = (M - 1) // 2
        return 2 * (2 * m * n - m + n) * n
    m = M // 2
    return 2 * (2 * n - 1) * m * n


def evaluate(p, point):
    """The value of the polynomial p at the point."""
    acc = 0
    for m, c in p.terms.items():
        acc += c * prod(point.values[v] for v in m)
    return rat(acc)


def derivative(f, v):
    """The partial derivative of the polynomial f in the fundamental-domain
    variable v."""
    return _from_terms(f.rule, accumulate({}, (
        (m[:i] + m[i + 1:], c * k) for m, c in f.terms.items()
        for k in (m.count(v),) if k for i in (m.index(v),))))


def poisson_bracket_double_sum(f, g):
    """{f, g} as the double sum over the variables a of f and b of g of
    d_a f * d_b g * {a, b}."""
    ctx = f.rule
    if ctx != g.rule:
        raise ValueError("polynomials from different contexts")
    acc: dict = {}
    dgs = [(b, derivative(g, b)) for b in sorted({v for m in g.terms
                                                   for v in m})]
    for a in sorted({v for m in f.terms for v in m}):
        df = derivative(f, a)
        for b, dg in dgs:
            br = ctx.gen_bracket(a, b)
            if br:
                accumulate(acc, (df * dg * br).terms.items())
    return _from_terms(ctx, acc)
