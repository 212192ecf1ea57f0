"""Sparse calculus in End(C^N)^{tensor n} with ring coefficients.

Entries are keyed by paired multi-indices ((a_1..a_n), (b_1..b_n)); no
dense array is ever materialized.  Coefficients live in any Ring (exact
rationals, algebra elements, formal S-words), and the tensor spaces
themselves are wrapped as Rings so that TruncatedSeries and BiLaurent can
carry tensor coefficients.  A rational tensor multiplies a ring-valued one
from either side, and the product lives in the ring of the ring-valued
operand: no rational tensor is lifted into an algebra ring.

Provides permutation operators, the antisymmetrizer, site embeddings,
partial traces and per-site prime transposition.  The antisymmetrizer is
built in closed form as the integral A_k = k! H_k, and identities with
H_k are checked on A_k; only `h_k_orientation` forms the ordered
R-matrix product, to report its arrow orientations.  The R-matrices
R(u) = u - P and its twisted companion R~(u) = u - Q, Q the one-sided
prime transpose of P, have one form: `bilaurent_r` gives R_pq at any
affine argument in (u, v) as an exact BiLaurent over the rational tensors,
and every R-matrix identity (unitarity, Yang-Baxter, the mixed exchanges,
RTT and reflection) is a product of such objects.

Every commuting family is a trace tr(H . X(u) . F(u)) of an
algebra-valued block X(u) between rational factors: an antisymmetrizer H,
normalized R-matrix factors and Z sites.  Since the trace is cyclic and
rationals commute with every coefficient, this equals tr(h(u) X(u)) with
h(u) = F(u) H multiplied out over Q.  `trace_against(h, x)` contracts
sum_ab h_ab x_ba without forming the product h x, and `trace_series` is
its series form.  When X acts as the identity on some sites, tracing
those sites out of h first shrinks the block to the sites it lives on.
When X is a product of site factors, the last one is moved onto the
rational side, so the trace reads only the entries of the last product
that it needs.  `series_to_bilaurent` lifts a one-site series to a
bivariate object on several sites, for the matrix-form relation checks.
"""
from __future__ import annotations

from functools import reduce
from itertools import permutations, product
from math import factorial, prod
from operator import mul

from .indices import IndexSet
from .rationals import accumulate, binomial, is_rat, rat
from .series import (INF_CAP, RATIONAL_RING, BiLaurent, Ring, TruncatedSeries,
                     algebra_ring, sum_terms)


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
            return self.scale_coeff(other, side="right")
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

    def __rmul__(self, other):
        # rationals and ring elements acting from the left
        return self.scale_coeff(other, side="left")

    def scale_rat(self, c) -> "TensorElement":
        c = rat(c)
        return TensorElement(self.sites, self.index_set, self.ring,
                             {k: v * c for k, v in self.entries.items()})

    def scale_coeff(self, x, side: str = "right") -> "TensorElement":
        """Multiply every entry by a fixed coefficient-ring element; a
        rational tensor scaled by an algebra element lands in the algebra
        ring."""
        if is_rat(x):
            return self.scale_rat(x)
        if side == "left":
            ent = {k: x * v for k, v in self.entries.items()}
        else:
            ent = {k: v * x for k, v in self.entries.items()}
        ring = algebra_ring(x.rule) if self.ring.rational else self.ring
        return TensorElement(self.sites, self.index_set, ring, ent)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.sites == other.sites and self.index_set == other.index_set
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.sites, frozenset(self.entries)))

    def is_zero(self) -> bool:
        return not self.entries

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
                row = [0] * n
                col = [0] * n
                for s, (a, b) in zip(positions, zip(r, c)):
                    row[s - 1] = a
                    col[s - 1] = b
                for s, a in zip(others, fill):
                    row[s - 1] = a
                    col[s - 1] = a
                acc[(tuple(row), tuple(col))] = v
        return TensorElement(n, self.index_set, self.ring, acc)

    def partial_trace(self, traced) -> "TensorElement":
        """Trace out the given 1-based sites, keeping the rest."""
        traced = sorted(set(traced))
        keep = [s for s in range(1, self.sites + 1) if s not in traced]
        acc = sum_terms(self.ring, (
            ((tuple(r[s - 1] for s in keep), tuple(c[s - 1] for s in keep)), v)
            for (r, c), v in self.entries.items()
            if all(r[s - 1] == c[s - 1] for s in traced)))
        return TensorElement(len(keep), self.index_set, self.ring, acc)

    def partial_trace_all(self):
        """Full trace over all tensor sites; returns a ring element."""
        return self.ring.sum([v for (r, c), v in self.entries.items()
                              if r == c])

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
    one `coeff_ring.sum` per entry."""
    def total(parts):
        return TensorElement(sites, index_set, coeff_ring, sum_terms(
            coeff_ring, (kv for p in parts for kv in p.entries.items())))

    return Ring(TensorElement.zero(sites, index_set, coeff_ring),
                TensorElement.identity(sites, index_set, coeff_ring), total,
                coeff_ring.rational)


# -- trace contraction ------------------------------------------------------------


def _trace_parts(h: TensorElement, x: TensorElement) -> list:
    """The products x_ba h_ab that tr(h x) sums."""
    h._compat(x)
    xs = x.entries
    return [xs[(b, a)] * c for (a, b), c in h.entries.items() if (b, a) in xs]


def trace_against(h: TensorElement, x: TensorElement):
    """sum_ab x_ba h_ab, without forming a product of tensors.  For a
    rational h this is tr(h x); when h = y g with g rational it is
    tr(g x y), since every x_ba stays on the left of h_ab."""
    return x.ring.sum(_trace_parts(h, x))


def trace_series(h, *factors: TruncatedSeries) -> TruncatedSeries:
    """tr(h(u) x_1(u) ... x_m(u)) coefficientwise, for a rational tensor h
    (constant in u) or a series h(u) of rational tensors, and tensor series
    x_i(u) on the same sites.

    The last factor is multiplied onto the rational side first,
    g(u) = x_m(u) h(u), which takes scalar multiplications only; the
    product x_1..x_{m-1} is then contracted against g, so of its last
    product only the entries the trace reads are formed."""
    *head, x = factors
    if isinstance(h, TensorElement):
        h = TruncatedSeries.constant(tensor_ring(h.sites, h.index_set), h,
                                     x.trunc)
    if head:
        h = x * h
        x = reduce(mul, head)
    ring = x.ring.one.ring
    D = min(h.trunc, x.trunc)
    out = [ring.sum([p for r in range(s + 1)
                     for p in _trace_parts(h.coeffs[s - r], x.coeffs[r])])
           for s in range(D + 1)]
    return TruncatedSeries(ring, out, D)


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


# -- permutations and antisymmetrizers -----------------------------------------


def perm_sign(sigma) -> int:
    s = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                s = -s
    return s


def perm_operator(sigma, index_set: IndexSet) -> TensorElement:
    """P_sigma moving the content of site i to site sigma(i) (1-based images)."""
    k = len(sigma)
    idx = index_set.indices()
    ent = {}
    for cols in product(idx, repeat=k):
        rows = [0] * k
        for i, a in enumerate(cols):
            rows[sigma[i] - 1] = a
        ent[(tuple(rows), cols)] = 1
    return TensorElement(k, index_set, RATIONAL_RING, ent)


def flip(index_set: IndexSet) -> TensorElement:
    return perm_operator((2, 1), index_set)


def q_tensor(index_set: IndexSet) -> TensorElement:
    """The one-sided prime transpose of the flip: sum eps_ij E_{-j,-i} x E_ji."""
    return flip(index_set).site_prime(1)


def antisymmetrizer_oracle(k: int, index_set: IndexSet) -> TensorElement:
    """(1/k!) sum_sigma sgn(sigma) P_sigma — the defining expression."""
    acc = TensorElement.zero(k, index_set)
    for sigma in permutations(range(1, k + 1)):
        acc = acc + perm_operator(sigma, index_set).scale_rat(perm_sign(sigma))
    return acc.scale_rat(rat(1, factorial(k)))


_A_CACHE: dict = {}
_H_CACHE: dict = {}
_H_ORIENTATION: dict = {}


def alternator(k: int, index_set: IndexSet) -> TensorElement:
    """A_k = sum_sigma sgn(sigma) P_sigma = k! H_k, an integral tensor, in
    closed form: its entry at (sigma.b, b) is sgn(sigma) for every column b
    with distinct entries, and its columns with a repeated entry vanish."""
    key = (k, index_set)
    hit = _A_CACHE.get(key)
    if hit is None:
        signs = [(p, perm_sign(p)) for p in permutations(range(k))]
        hit = _A_CACHE[key] = TensorElement(k, index_set, RATIONAL_RING, {
            (tuple(b[i] for i in p), b): s
            for b in permutations(index_set.indices(), k) for p, s in signs})
    return hit


def antisymmetrizer(k: int, index_set: IndexSet) -> TensorElement:
    """H_k = A_k / k!, the projector that the trace forms of the commuting
    families use; every identity with H_k is checked on A_k instead."""
    key = (k, index_set)
    hit = _H_CACHE.get(key)
    if hit is None:
        hit = _H_CACHE[key] = alternator(k, index_set).scale_rat(
            rat(1, factorial(k)))
    return hit


def _r_factor(p: int, q: int, value, k: int, index_set: IndexSet) -> TensorElement:
    """R_pq evaluated at a rational point: value*id - P_pq, on k sites."""
    idp = TensorElement.identity(k, index_set).scale_rat(value)
    return idp - flip(index_set).embed((p, q), k)


def h_k_orientation(k: int, index_set: IndexSet) -> str:
    """The arrow orientations in which the ordered product of the R_pq(q-p),
    p < q, equals 1! 2! ... k! H_k = 1! ... (k-1)! A_k, computed once per
    key: "outer=..,inner=.." joined by ";", or "trivial" at k = 1."""
    if k == 1:
        return "trivial"
    key = (k, index_set)
    hit = _H_ORIENTATION.get(key)
    if hit is not None:
        return hit
    target = alternator(k, index_set).scale_rat(prod(map(factorial, range(k))))
    order = {"asc": iter, "desc": reversed}
    matches = []
    for outer, inner in product(order, order):
        x = TensorElement.identity(k, index_set)
        for p in order[outer](range(1, k)):
            for q in order[inner](range(p + 1, k + 1)):
                x = x * _r_factor(p, q, q - p, k, index_set)
        if x == target:
            matches.append(f"outer={outer},inner={inner}")
    if not matches:
        raise AssertionError("no arrow orientation reproduces the projector")
    hit = _H_ORIENTATION[key] = ";".join(matches)
    return hit


# -- R-matrices as exact Laurent objects ----------------------------------------


def bilaurent_r(kind: str, pq: tuple, coef_u: int, coef_v: int, const,
                sites: int, index_set: IndexSet) -> BiLaurent:
    """R_pq or its twisted companion at argument coef_u*u + coef_v*v + const,
    as an exact BiLaurent over the rational tensors on the given sites."""
    base = flip(index_set) if kind == "plain" else q_tensor(index_set)
    pmat = base.embed(pq, sites)
    ident = TensorElement.identity(sites, index_set)
    ent: dict = {}
    if coef_u:
        ent[(1, 0)] = ident.scale_rat(coef_u)
    if coef_v:
        ent[(0, 1)] = ident.scale_rat(coef_v)
    c0 = ident.scale_rat(const) - pmat
    if not c0.is_zero():
        ent[(0, 0)] = c0
    return BiLaurent(tensor_ring(sites, index_set), ent, INF_CAP, INF_CAP)

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
    return [(f"Yang-Baxter N={index_set.N}", res.is_zero())]


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
    details = []
    for name, a, b, c in cases:
        res = a * b * c - c * b * a
        details.append((f"{name} ({tag})", res.is_zero()))
    return details


def verify_antisymmetrizers(index_set: IndexSet, k_max: int | None = None) -> list:
    """H_k is an idempotent with trace binomial(N,k), checked as
    A_k^2 = k! A_k and tr A_k = k! binomial(N,k), and the ordered R-matrix
    product in the reported arrow orientations (h_k_orientation)."""
    N = index_set.N
    k_max = k_max or N
    details = []
    for k in range(1, k_max + 1):
        a = alternator(k, index_set)
        f = factorial(k)
        details.append((f"H_{k} idempotent (N={N})", a * a == a.scale_rat(f)))
        details.append((f"trace H_{k} = C({N},{k})",
                        a.partial_trace_all() == f * binomial(N, k)))
        details.append((f"H_{k} orientation: {h_k_orientation(k, index_set)}",
                        True))
    return details
