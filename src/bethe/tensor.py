"""Sparse calculus in End(C^N)^{tensor n} with ring coefficients.

Entries are keyed by paired multi-indices ((a_1..a_n), (b_1..b_n)); no
dense array is ever materialized.  Coefficients live in any Ring (exact
rationals, algebra elements, formal S-words), and the tensor spaces
themselves are wrapped as Rings so that TruncatedSeries and BiLaurent can
carry tensor coefficients.  The product of two tensors lives in the ring
of the ring-valued operand when the other is rational, from either side:
no rational tensor is lifted into an algebra ring.  A scalar factor is a
rational (`scale_rat`); no coefficient-ring element scales a tensor.

Provides the flip, site embeddings and per-site prime transposition.  The
alternator A_k = k! H_k, H_k the antisymmetrizer, is an element of the
group algebra Z[S_k] (`group_alternator`), where, as sigma -> P_sigma is
injective for k <= N, its rational identities are checked on k!
permutations, with no operator on all N^k rows.  Its rows
(`alternator_rows`), A_k = ket . bra, are read by `trace_words`,
`yangian.fusion_products` and `twisted.verify_z_rmatrix_scalar`, and
every one-site factor acts on them through one kernel, `site_action`.
The R-matrices R(u) = u - P and its twisted companion R~(u) = u - Q, Q
the one-sided prime transpose of P, have one form:
`bilaurent_r` gives R_pq at any affine argument in (u, v) as an exact
BiLaurent over the rational tensors, and every R-matrix identity
(unitarity, Yang-Baxter, the mixed exchanges, RTT and reflection) is a
product of such objects.

Every commuting family is a trace tr(F(u) H_n X(u)) of an algebra-valued
block X(u) against the antisymmetrizer H_n on n sites and rational
factors F(u): normalized R-matrix factors id - Q_pq/(c - 2u) and Z sites.
H_n has rank binomial(N, n): n! H_n = A_n = sum_I |w_I><w_I|, one row
<w_I| of A_n per n-subset I.  As the trace is cyclic and rationals are
central, it is sum_I <w_I| X(u) F(u) |w_I> / n!.  `trace_words`, the one
contraction, takes (n, the steps of X, the factors of F): it builds the
rows and applies F(u) to the |w_I> one factor at a time, then walks the
rows through the steps of X(u), one-site letter series and pair steps
id - c(u) Q_pq, expanding the product into words of letters with
rational weights: neither X(u) nor F(u) H_n is formed.
`series_to_bilaurent` lifts a one-site series to a bivariate object on
several sites, for the matrix-form relation checks.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial, prod

from .indices import IndexSet, perm_sign
from .rationals import accumulate, binomial, div, rat
from .reports import h_orientation
from .series import (INF_CAP, RATIONAL_RING, BiLaurent, Ring, TruncatedSeries,
                     sum_terms)


class TensorElement:
    __slots__ = ("sites", "index_set", "ring", "entries")

    def __init__(self, sites: int, index_set: IndexSet, ring: Ring, entries: dict):
        self.sites = sites
        self.index_set = index_set
        self.ring = ring
        if ring is RATIONAL_RING:
            self.entries = {k: rat(v) for k, v in entries.items() if v}
        else:
            self.entries = {k: v for k, v in entries.items() if v}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(sites, index_set, ring=RATIONAL_RING) -> "TensorElement":
        return TensorElement(sites, index_set, ring, {})

    @staticmethod
    def identity(sites, index_set, ring=RATIONAL_RING) -> "TensorElement":
        idx = index_set.indices()
        ent = {(c, c): ring.one for c in product(idx, repeat=sites)}
        return TensorElement(sites, index_set, ring, ent)

    # -- basics ----------------------------------------------------------------

    def _compat(self, other: "TensorElement"):
        if self.sites != other.sites or self.index_set != other.index_set:
            raise ValueError("tensor shape mismatch")

    def __add__(self, other):
        self._compat(other)
        return TensorElement(self.sites, self.index_set, self.ring, accumulate(
            dict(self.entries), other.entries.items()))

    def __neg__(self):
        return TensorElement(self.sites, self.index_set, self.ring,
                             {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        self._compat(other)
        return TensorElement(self.sites, self.index_set, self.ring, accumulate(
            dict(self.entries), ((k, -v) for k, v in other.entries.items())))

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scale_rat(other)
        self._compat(other)
        # a rational factor takes the ring of its partner, from either side
        ring = other.ring if self.ring.rational else self.ring
        by_row: dict = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        # sum_terms drops products of coefficients that vanish
        acc = sum_terms(ring, (((r, c), v1 * v2)
                               for (r, m), v1 in self.entries.items()
                               for c, v2 in by_row.get(m, ())))
        return TensorElement(self.sites, self.index_set, ring, acc)

    def scale_rat(self, c) -> "TensorElement":
        c = rat(c)
        return TensorElement(self.sites, self.index_set, self.ring,
                             {k: v * c for k, v in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.sites == other.sites and self.index_set == other.index_set
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.sites, frozenset(self.entries)))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __repr__(self):
        return f"TensorElement(sites={self.sites}, nnz={len(self.entries)})"

    # -- structural operations ---------------------------------------------------

    def map_coeffs(self, f, ring: Ring | None = None) -> "TensorElement":
        return TensorElement(self.sites, self.index_set, ring or self.ring,
                             {k: f(v) for k, v in self.entries.items()})

    def embed(self, positions, n: int) -> "TensorElement":
        """Place the m sites of self at the given 1-based positions among n
        sites, identity elsewhere."""
        positions = tuple(positions)
        if len(positions) != self.sites:
            raise ValueError("positions must match the site count")
        if any(not (1 <= s <= n) for s in positions) or \
                list(positions) != sorted(set(positions)):
            raise ValueError("positions must be strictly increasing and in range")
        others = [s for s in range(1, n + 1) if s not in positions]
        idx = self.index_set.indices()
        acc: dict = {}
        for (r, c), v in self.entries.items():
            for fill in product(idx, repeat=len(others)):
                row, col = [0] * n, [0] * n
                for s, a, b in zip(positions, r, c):
                    row[s - 1], col[s - 1] = a, b
                for s, a in zip(others, fill):
                    row[s - 1] = col[s - 1] = a
                acc[(tuple(row), tuple(col))] = v
        return TensorElement(n, self.index_set, self.ring, acc)

    def site_prime(self, s: int) -> "TensorElement":
        """Prime transposition on site s: E_ab -> eps_ab E_{-b,-a}."""
        iset = self.index_set
        if iset.kind != "signed":
            raise ValueError("prime transposition needs a signed index set")
        acc = accumulate({}, (
            ((r[: s - 1] + (-b,) + r[s:], c[: s - 1] + (-a,) + c[s:]),
             v if iset.eps(a, b) == 1 else -v)
            for (r, c), v in self.entries.items()
            for a, b in ((r[s - 1], c[s - 1]),)))
        return TensorElement(self.sites, self.index_set, self.ring, acc)


def tensor_ring(sites: int, index_set: IndexSet, coeff_ring: Ring = RATIONAL_RING) -> Ring:
    """Tensors on `sites` sites over `coeff_ring`, summed entrywise with
    one `coeff_ring.sum` per entry; tensors are values, so a sum of one
    part is that part."""
    def total(parts):
        if len(parts) == 1:
            return parts[0]
        return TensorElement(sites, index_set, coeff_ring, sum_terms(
            coeff_ring, (kv for p in parts for kv in p.entries.items())))

    return Ring(TensorElement.zero(sites, index_set, coeff_ring),
                TensorElement.identity(sites, index_set, coeff_ring), total,
                coeff_ring.rational)


# -- the rank-one trace -------------------------------------------------------


def alternator_rows(k: int, index_set: IndexSet) -> TensorElement:
    """The rows of A_k at ascending row keys: row I, one per k-subset I of
    the index set, is w_I = sum_sigma sgn(sigma) e_{sigma.I}.  A_k is the
    sum of the rank-one |w_I><w_I|: A_k = ket . bra with bra these rows
    and ket their transpose, the columns of A_k at ascending keys."""
    signs = group_alternator(k).items()
    return TensorElement(k, index_set, RATIONAL_RING, {
        (rows, tuple(rows[i - 1] for i in p)): s
        for rows in combinations(index_set.indices(), k) for p, s in signs})


def _pair_action(x: dict, p: int, q: int, index_set: IndexSet) -> dict:
    """x . Q_pq for vectors keyed (label, multi-index), p < q.  On sites p
    and q, Q = sum_bd eps_bd |-b,b><-d,d| with eps_bd = sign_b sign_d: it
    has rank one and is symmetric, so this is Q_pq . x as well."""
    sign = {d: -1 if index_set.form == "sp" and d < 0 else 1
            for d in index_set.indices()}
    groups: dict = {}
    for (lab, col), v in x.items():
        b = col[q - 1]
        if col[p - 1] == -b:
            key = (lab, col[:p - 1], col[p:q - 1], col[q:])
            groups[key] = groups.get(key, 0) + sign[b] * v
    return {(lab, head + (-d,) + mid + (d,) + tail): sign[d] * s
            for (lab, head, mid, tail), s in groups.items() if s
            for d in sign}


def site_action(x: list, p: int, m: list, ring: Ring, left: bool) -> list:
    """M_p(u) . x(u) if `left`, else x(u) . M_p(u), through the orders of x,
    a list of vector dicts keyed (label, multi-index) per order of u^-1,
    over `ring`; M(u) = sum_s M^(s) u^-s is given by the dicts {(a, b):
    M^(s)_ab}, a Z site by [z.entries].  The left action moves index b of
    site p to a with the entry on the left, the right action a to b with
    it on the right: ring coefficients need not commute.  Each M^(s) is
    grouped once by the index it moves from: b on the left, a on the right."""
    moves = []
    for s in range(len(m)):
        by_source: dict = {}
        for (a, b), mv in m[s].items():
            by_source.setdefault(b if left else a, []).append(
                (a if left else b, mv))
        moves.append(by_source)
    return [sum_terms(ring, (
        ((lab, col[:p - 1] + (t,) + col[p:]), mv * v if left else v * mv)
        for s in range(min(r + 1, len(m)))
        for (lab, col), v in x[r - s].items()
        for t, mv in moves[s].get(col[p - 1], ())))
        for r in range(len(x))]


def pair_step(x: list, p: int, q: int, c: TruncatedSeries,
              index_set: IndexSet) -> list:
    """x(u) . (id - c(u) Q_pq) through the orders of x, a list of vector
    dicts per order of u^-1, c a rational series: with c(u) = 1/(a - 2u)
    the normalized R-matrix factor id - Q_pq/(a - 2u), in the walk of
    `trace_words` and on the ket alike."""
    xq = [_pair_action(xr, p, q, index_set) for xr in x]
    return [accumulate(dict(x[s]), ((key, -ct * v) for t in range(s + 1)
                                    for ct in (c.coeffs[t],) if ct
                                    for key, v in xq[s - t].items()))
            for s in range(len(x))]


def trace_words(k: int, index_set: IndexSet, steps, factors, ring: Ring,
                D: int) -> TruncatedSeries:
    """tr(F(u) H_k Y(u)) on k sites through order D, over `ring`, with Y the
    ordered product of `steps` and F that of `factors`: the one trace form.

    A step is a letter site (p, L), a one-site series L over `ring` with
    L_0 = 1 placed on site p, or a pair step (p, q, c), id - c(u) Q_pq
    with c a rational series (`pair_step`); a factor is a pair step or a Z
    site (p, z), z a ZMatrix.  Every series is trusted through order D.

    H_k has rank binomial(N, k): k! H_k = A_k = sum_I |w_I><w_I|, one row
    <w_I| of A_k per k-subset I (`alternator_rows`).  As the trace is
    cyclic, it is sum_I <w_I| Y(u) |ket_I(u)>, the ket F(u) |w_I> / k!
    formed right to left one factor at a time, so F(u) H_k is not formed.

    With L = 1 + sum_ab E_ab L~_ab(u), Y expands into words: a word picks,
    at each letter site, the identity or one leg E_ab, and its weight
    W(u) = sum_I <w_I| Y'_1 ... Y'_m |ket_I>, with Y' the pair step or the
    chosen leg, is a rational series.  Since rationals are central, the
    trace is sum_words W(u) L~_1(u) ... L~_j(u), the letters in the order
    of the steps.  The walk keeps the rows of each word, keyed by its
    letters (step index, a, b), only to order D minus the word length,
    since each letter L~ starts at order 1; a row whose ket is zero at
    every order is dropped first.  No tensor with ring coefficients is
    formed: the letters' series multiply once per word of nonzero weight,
    along a prefix memo."""
    bra = alternator_rows(k, index_set)
    ket = [{key: div(v, factorial(k)) for key, v in bra.entries.items()}]
    ket += [{} for _ in range(D)]
    for f in reversed(factors):
        ket = (pair_step(ket, *f, index_set) if len(f) == 3 else
               site_action(ket, f[0], [f[1].entries], RATIONAL_RING, True))
    live = {lab for e in ket for lab, _ in e}
    start = {key: v for key, v in bra.entries.items() if key[0] in live}
    branches = {(): [start] + [{} for _ in range(D)]} if start else {}
    letters = {}
    for i, step in enumerate(steps):
        if len(step) == 3:
            branches = {w: y for w, x in branches.items()
                        for y in (pair_step(x, *step, index_set),) if any(y)}
            continue
        p, site = step
        if site.coeffs[0] != TensorElement.identity(1, index_set, ring):
            raise ValueError("a letter site needs the constant term 1")
        opened = []
        for a, b in product(index_set.indices(), repeat=2):
            tail = TruncatedSeries(ring, [ring.zero] + [
                c.entries.get(((a,), (b,)), ring.zero)
                for c in site.coeffs[1:D + 1]], D)
            if tail:
                letters[(i, a, b)] = tail
                opened.append((a, b))
        grown = dict(branches)
        for w, x in branches.items():
            # x . E_ab on site p moves column a of site p to column b
            legs = [{} for _ in x[1:]]
            for leg, xr in zip(legs, x):
                for (lab, col), v in xr.items():
                    leg.setdefault(col[p - 1], []).append(
                        (lab, col[:p - 1], col[p:], v))
            for a, b in opened:
                coeffs = [{(lab, head + (b,) + tail): v
                           for lab, head, tail, v in leg.get(a, ())}
                          for leg in legs]
                if any(coeffs):
                    grown[w + ((i, a, b),)] = coeffs
        branches = grown
    prefix = {(): TruncatedSeries.one(ring, D)}

    def word_series(w):
        hit = prefix.get(w)
        if hit is None:
            hit = prefix[w] = word_series(w[:-1]) * letters[w[-1]]
        return hit

    parts = [[] for _ in range(D + 1)]
    for w, x in branches.items():
        weight = [rat(sum(v * ket[r - s][key] for s in range(r + 1)
                          for key, v in x[s].items() if key in ket[r - s]))
                  for r in range(len(x))]
        if not any(weight):
            continue
        word = word_series(w).coeffs
        for s in range(D + 1):
            parts[s] += [word[s - r] * weight[r]
                         for r in range(min(s, len(x) - 1) + 1)
                         if weight[r] and word[s - r]]
    return TruncatedSeries(ring, [ring.sum(ps) for ps in parts], D)


def series_to_bilaurent(series: TruncatedSeries, site: int, var: str,
                        sites: int) -> BiLaurent:
    """A series of one-site tensors, placed on `site` of `sites` sites, as a
    bivariate object in u (var "u") or v (var "v"), trusted to the
    series' own truncation in that variable."""
    D = series.trunc
    ring = tensor_ring(sites, series.ring.one.index_set, series.ring.one.ring)
    ent = {}
    for r, c in enumerate(series.coeffs):
        ent[(-r, 0) if var == "u" else (0, -r)] = c.embed((site,), sites)
    return BiLaurent(ring, ent,
                     D if var == "u" else INF_CAP,
                     D if var == "v" else INF_CAP)


# -- the flip and the group algebra of S_k ---------------------------------------


def flip(index_set: IndexSet) -> TensorElement:
    """P on two sites: e_a (x) e_b -> e_b (x) e_a."""
    idx = index_set.indices()
    return TensorElement(2, index_set, RATIONAL_RING,
                         {((b, a), (a, b)): 1 for a in idx for b in idx})


def q_tensor(index_set: IndexSet) -> TensorElement:
    """The one-sided prime transpose of the flip: sum eps_ij E_{-j,-i} x E_ji."""
    return flip(index_set).site_prime(1)


def group_alternator(k: int) -> dict:
    """A_k = sum_sigma sgn(sigma) sigma in Z[S_k], each sigma the tuple of
    its 1-based images, in lexicographic order."""
    return {s: perm_sign(s) for s in permutations(range(1, k + 1))}


def group_product(x: dict, y: dict) -> dict:
    """x y in Z[S_k] with sigma tau = sigma o tau, i -> sigma(tau(i)):
    P_sigma P_tau = P_{sigma o tau}, P_sigma moving site i to site sigma(i)."""
    return accumulate({}, ((tuple(s[i - 1] for i in t), a * b)
                           for s, a in x.items() for t, b in y.items()))


def group_trace(x: dict, N: int) -> int:
    """tr sum_sigma x_sigma P_sigma on k sites of C^N: tr P_sigma is N to
    the number of cycles of sigma, each counted at its least point."""
    total = 0
    for s, v in x.items():
        cycles = 0
        for i in s:
            j = s[i - 1]
            while j > i:
                j = s[j - 1]
            cycles += j == i
        total += v * N ** cycles
    return total


def r_element(p: int, q: int, value, k: int) -> dict:
    """R_pq at a rational point, value e - (p q), in Z[S_k]."""
    e = tuple(range(1, k + 1))
    return {e: value, e[:p - 1] + (q,) + e[p:q - 1] + (p,) + e[q:]: -1}


def r_product(k: int, outer: str, inner: str) -> dict:
    """The ordered product of the R_pq(q-p), p < q, in Z[S_k], p through
    1..k-1 and q through p+1..k, each in "asc" or "desc" order."""
    order = {"asc": iter, "desc": reversed}
    x = {tuple(range(1, k + 1)): 1}
    for p in order[outer](range(1, k)):
        for q in order[inner](range(p + 1, k + 1)):
            x = group_product(x, r_element(p, q, q - p, k))
    return x


def h_k_orientation(a: dict) -> str:
    """The arrow orientations in which `r_product` equals 1! 2! ... k! H_k =
    1! ... (k-1)! A_k, for a = A_k (`group_alternator`): "outer=..,inner=.."
    joined by ";" (empty when none does), or "trivial" at k = 1."""
    k = len(next(iter(a)))
    if k == 1:
        return "trivial"
    c = prod(map(factorial, range(k)))
    target = {s: c * v for s, v in a.items()}
    return ";".join(f"outer={outer},inner={inner}"
                    for outer, inner in product(("asc", "desc"), repeat=2)
                    if r_product(k, outer, inner) == target)


# -- R-matrices as exact Laurent objects ----------------------------------------


def bilaurent_r(kind: str, pq: tuple, coef_u: int, coef_v: int, const,
                sites: int, index_set: IndexSet) -> BiLaurent:
    """R_pq or its twisted companion at argument coef_u*u + coef_v*v + const,
    as an exact BiLaurent over the rational tensors on the given sites."""
    base = flip(index_set) if kind == "plain" else q_tensor(index_set)
    pmat = base.embed(pq, sites)
    ident = TensorElement.identity(sites, index_set)
    # BiLaurent drops the terms that vanish
    return BiLaurent(tensor_ring(sites, index_set), {
        (1, 0): ident.scale_rat(coef_u), (0, 1): ident.scale_rat(coef_v),
        (0, 0): ident.scale_rat(const) - pmat}, INF_CAP, INF_CAP)

# -- R-matrix identity suites -----------------------------------------------------


def verify_r_identities(index_set: IndexSet) -> list:
    """R(u) R(-u) = (1 - u^2) id, and for signed sets additionally the
    twisted companion R~(u) R~(N - u) = (N u - u^2) id."""
    N = index_set.N

    def R(kind, coef_u, const):
        return bilaurent_r(kind, (1, 2), coef_u, 0, const, 2, index_set)

    def scalar(coeffs):
        # sum_d c_d u^d times the identity on two sites
        ident = TensorElement.identity(2, index_set)
        return BiLaurent(tensor_ring(2, index_set),
                         {(d, 0): ident.scale_rat(c) for d, c in coeffs.items()},
                         INF_CAP, INF_CAP)

    details = [(f"R(u)R(-u) = (1-u^2) id, N={N}",
                R("plain", 1, 0) * R("plain", -1, 0) == scalar({0: 1, 2: -1}))]
    if index_set.kind == "signed":
        details.append(
            (f"R~(u)R~(N-u) = (Nu-u^2) id, {index_set.form}_{N}",
             R("twisted", 1, 0) * R("twisted", -1, N)
             == scalar({1: N, 2: -1})))
    return details


def verify_yang_baxter(index_set: IndexSet) -> list:
    """R_12(u) R_13(u+v) R_23(v) = R_23(v) R_13(u+v) R_12(u), exact."""
    r12 = bilaurent_r("plain", (1, 2), 1, 0, 0, 3, index_set)
    r13 = bilaurent_r("plain", (1, 3), 1, 1, 0, 3, index_set)
    r23 = bilaurent_r("plain", (2, 3), 0, 1, 0, 3, index_set)
    res = r12 * r13 * r23 - r23 * r13 * r12
    return [(f"Yang-Baxter N={index_set.N}", not res)]


def verify_mixed_yang_baxter(index_set: IndexSet) -> list:
    """The three mixed exchange identities between R and its twisted
    companion R~, exact bivariate polynomial identities."""
    if index_set.kind != "signed":
        raise ValueError("the mixed identities need a signed index set")

    def R(pq, cu, cv):
        return bilaurent_r("plain", pq, cu, cv, 0, 3, index_set)

    def Rt(pq, cu, cv):
        return bilaurent_r("twisted", pq, cu, cv, 0, 3, index_set)

    tag = f"{index_set.form}_{index_set.N}"
    cases = [
        ("first mixed exchange",
         R((1, 2), 1, 0), Rt((1, 3), 0, 1), Rt((2, 3), 1, 1)),
        ("second mixed exchange",
         R((1, 3), 1, 0), Rt((1, 2), 0, 1), Rt((2, 3), 1, 1)),
        ("third mixed exchange",
         R((2, 3), 1, 0), Rt((1, 2), 0, 1), Rt((1, 3), 1, 1)),
    ]
    return [(f"{name} ({tag})", not a * b * c - c * b * a)
            for name, a, b, c in cases]


def verify_antisymmetrizers(index_set: IndexSet) -> list:
    """H_k is an idempotent with trace binomial(N,k), and the ordered
    R-matrix product equals it in exactly the declared arrow orientations
    (reports.h_orientation), for k = 1..N, checked in Z[S_k]: as k <= N,
    sigma -> P_sigma is injective on Z[S_k].  The rows are A_k^2 = k! A_k,
    tr A_k = k! binomial(N,k) (`group_trace`), and `h_k_orientation`."""
    N = index_set.N
    details = []
    for k in range(1, N + 1):
        a, f, declared = group_alternator(k), factorial(k), h_orientation(k)
        details += [(f"H_{k} idempotent (N={N})",
                     group_product(a, a) == {s: f * v for s, v in a.items()}),
                    (f"trace H_{k} = C({N},{k})",
                     group_trace(a, N) == f * binomial(N, k)),
                    (f"H_{k} orientation: {declared}",
                     h_k_orientation(a) == declared)]
    return details
