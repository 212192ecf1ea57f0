"""Graded (classical) side: polynomial algebras with truncated Poisson
brackets, determinant-expansion families, slice restrictions and exact
rank certificates.

Variables v_ij^(r) (1 <= r <= M) are tagged by the same (level, row, col)
triples as the noncommutative generators.  Two contexts exist:

* plain -- coordinates on the truncated current space gl_N + ... +
  gl_N t^{M-1}; bracket window r = max(1, p+q-M) .. min(p,q);
* twisted -- coordinates on the sigma-twisted current space, subject to
  the linear relations y_ij^(r) = eps_ij (-1)^r y_{-j,-i}^(r); every
  polynomial is kept in a fixed fundamental-domain normal form, and the
  bracket carries the extra eps-twisted sum with the (-1)^{p+r-1} factor.

Rank computations are exact over the rationals (partial derivatives
evaluated in one gradient pass per polynomial, Bareiss fraction-free
elimination on integer rows); random points come from a seeded generator
so every certificate is reproducible.
"""
from __future__ import annotations

import random
from math import lcm

from .indices import IndexSet, ZMatrix
from .rationals import ONE, accumulate, binomial, div, rat


class PoissonContext:
    """Variable universe and bracket flavour ('plain' or 'twisted')."""

    __slots__ = ("kind", "index_set", "M", "_vars", "_bracket_cache")

    def __init__(self, kind: str, index_set: IndexSet, M: int):
        if kind not in ("plain", "twisted"):
            raise ValueError(f"unknown context kind {kind!r}")
        if kind == "twisted" and index_set.kind != "signed":
            raise ValueError("twisted context needs a signed index set")
        if M < 1:
            raise ValueError("M must be >= 1")
        self.kind = kind
        self.index_set = index_set
        self.M = M
        self._vars = None
        self._bracket_cache: dict = {}

    def __eq__(self, other):
        return (isinstance(other, PoissonContext)
                and (self.kind, self.index_set, self.M)
                == (other.kind, other.index_set, other.M))

    def __hash__(self):
        return hash((self.kind, self.index_set, self.M))

    def __repr__(self):
        return f"PoissonContext({self.kind!r}, {self.index_set!r}, M={self.M})"

    def reduce_var(self, v: tuple):
        """Normal form of a single variable: (sign, representative) or
        None when the variable is zero in this context."""
        r, i, j = v
        if r > self.M:
            return None  # killed by the truncation ideal
        if self.kind == "plain":
            return (1, v)
        a, b = -j, -i
        s = self.index_set.eps(i, j) * (-1) ** r
        if (a, b) == (i, j):
            return (1, v) if s == 1 else None
        if (i, j) < (a, b):
            return (1, v)
        return (s, (r, a, b))

    def variables(self) -> tuple:
        """Ordered tuple of fundamental-domain variables."""
        if self._vars is None:
            idx = self.index_set.indices()
            out = []
            for r in range(1, self.M + 1):
                for i in idx:
                    for j in idx:
                        red = self.reduce_var((r, i, j))
                        if red is not None and red[1] == (r, i, j):
                            out.append((r, i, j))
            self._vars = tuple(out)
        return self._vars

    # -- bracket on generators ---------------------------------------------

    def gen_bracket(self, a: tuple, b: tuple) -> "PoissonPoly":
        key = (a, b)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        (p, i, j), (q, k, l) = a, b
        terms: dict = {}

        def put(s1, v1, s2, w1, c):
            # product var^(s1) * var^(s2) with level-0 symbols = deltas
            if s1 == 0 and s2 == 0:
                word = ()
                if v1[0] != v1[1] or w1[0] != w1[1]:
                    return
            elif s1 == 0:
                if v1[0] != v1[1]:
                    return
                word = ((s2,) + w1,)
            elif s2 == 0:
                if w1[0] != w1[1]:
                    return
                word = ((s1,) + v1,)
            else:
                word = ((s1,) + v1, (s2,) + w1)
            accumulate(terms, ((tuple(sorted(word)), c),))

        lo = max(1, p + q - self.M)
        hi = min(p, q)
        for r in range(lo, hi + 1):
            put(r - 1, (k, j), p + q - r, (i, l), ONE)
            put(p + q - r, (k, j), r - 1, (i, l), -ONE)
            if self.kind == "twisted":
                eps = self.index_set.eps
                sgn = (-1) ** (p + r - 1)
                put(r - 1, (i, -k), p + q - r, (-j, l), sgn * eps(k, -j))
                put(p + q - r, (k, -i), r - 1, (-l, j), -sgn * eps(i, -l))
        res = PoissonPoly(self, terms)
        self._bracket_cache[key] = res
        return res


class PoissonPoly:
    """Sparse commutative polynomial; monomials are sorted tuples of
    variable triples, normalized to the context's fundamental domain."""

    __slots__ = ("context", "terms")

    def __init__(self, context: PoissonContext, terms: dict):
        self.context = context
        self.terms = accumulate({}, _reduced_terms(context, terms))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(context: PoissonContext, c) -> "PoissonPoly":
        return PoissonPoly(context, {(): c})

    @staticmethod
    def variable(context: PoissonContext, r: int, i: int, j: int) -> "PoissonPoly":
        context.index_set.check(i)
        context.index_set.check(j)
        return PoissonPoly(context, {((r, i, j),): ONE})

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "PoissonPoly":
        if not isinstance(other, PoissonPoly):
            return PoissonPoly.constant(self.context, other)
        if self.context != other.context:
            raise ValueError("polynomials from different contexts")
        return other

    def __eq__(self, other):
        if isinstance(other, PoissonPoly):
            return self.context == other.context and self.terms == other.terms
        return self.terms == ({(): rat(other)} if other else {})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        return _poly(self.context,
                     accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return _poly(self.context, accumulate(
            dict(self.terms), ((m, -c) for m, c in other.terms.items())))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PoissonPoly):
            c = rat(other)
            return _poly(self.context, accumulate(
                {}, ((m, v * c) for m, v in self.terms.items())) if c else {})
        other = self._coerce(other)
        return _poly(self.context, accumulate({}, (
            (tuple(sorted(m1 + m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            word = "*".join(f"v[{r},{i},{j}]" for (r, i, j) in m) or "1"
            bits.append(f"({self.terms[m]})*{word}")
        return " + ".join(bits)

    # -- calculus -----------------------------------------------------------

    def variables_used(self) -> set:
        return {v for m in self.terms for v in m}

    def derivative(self, v: tuple) -> "PoissonPoly":
        red = self.context.reduce_var(v)
        if red is None:
            return _poly(self.context, {})
        _, v = red

        def drop_one(m):
            i = m.index(v)
            return m[:i] + m[i + 1:]

        return _poly(self.context, accumulate({}, (
            (drop_one(m), c * k) for m, c in self.terms.items()
            for k in (m.count(v),) if k)))

    def evaluate(self, values):
        """Value at a point; `values` is a CurrentPoint or a plain dict
        keyed by variable triples."""
        get = values.value if isinstance(values, CurrentPoint) else values.__getitem__
        acc = 0
        for m, c in self.terms.items():
            t = c
            for v in m:
                t = t * get(v)
                if not t:
                    break
            acc += t
        return rat(acc)

    def gradient(self, coords, point) -> list:
        """[df/dv at the point for v in coords] in one pass over the
        monomials: each factor's partial is the product of the other
        factors, read off prefix and suffix products of the point values.
        Coordinates reduce as in `derivative`; `point` is as in
        `evaluate`.  The coefficients are scaled to integers, and integral
        point values are ints in canonical form (all random points are),
        so the products run on Python ints; one division per entry
        restores the exact value."""
        get = point.value if isinstance(point, CurrentPoint) else point.__getitem__
        den = lcm(*(c.denominator for c in self.terms.values()))
        acc: dict = {}
        for m, c in self.terms.items():
            vals = list(map(get, m))
            suffix = [1]
            for x in reversed(vals[1:]):
                suffix.append(x * suffix[-1])
            pre = c.numerator * (den // c.denominator)
            for v, x, post in zip(m, vals, reversed(suffix)):
                acc[v] = acc.get(v, 0) + pre * post
                pre = pre * x
        out = []
        for v in coords:
            red = self.context.reduce_var(v)
            out.append(0 if red is None else div(acc.get(red[1], 0), den))
        return out

    def substitute(self, assignments: dict) -> "PoissonPoly":
        """Replace the listed variables by rational values."""

        def substituted(m, coeff):
            keep = []
            for v in m:
                if v in assignments:
                    coeff = coeff * rat(assignments[v])
                    if not coeff:
                        return ()
                else:
                    keep.append(v)
            return ((tuple(keep), coeff),)

        return _poly(self.context, accumulate({}, (
            t for m, c in self.terms.items() for t in substituted(m, c))))


def _poly(context: PoissonContext, terms: dict) -> PoissonPoly:
    """Trusted constructor: `terms` holds only nonzero canonical
    coefficients on sorted fundamental-domain monomials."""
    out = PoissonPoly.__new__(PoissonPoly)
    out.context = context
    out.terms = terms
    return out


def _reduced_terms(context: PoissonContext, terms: dict):
    """(sorted fundamental-domain monomial, nonzero canonical coefficient)
    for every term that survives the context's reduction."""
    for mono, c in terms.items():
        c = rat(c)
        if not c:
            continue
        out = []
        for v in mono:
            red = context.reduce_var(v)
            if red is None:
                break
            s, w = red
            if s != 1:
                c = c * s
            out.append(w)
        else:
            yield tuple(sorted(out)), c


def poisson_bracket(f: PoissonPoly, g: PoissonPoly) -> PoissonPoly:
    """Bilinear Leibniz extension of the truncated generator bracket."""
    if f.context != g.context:
        raise ValueError("polynomials from different contexts")
    ctx = f.context
    acc: dict = {}
    for a in sorted(f.variables_used()):
        df = f.derivative(a)
        if not df:
            continue
        for b in sorted(g.variables_used()):
            dg = g.derivative(b)
            if not dg:
                continue
            br = ctx.gen_bracket(a, b)
            if br:
                accumulate(acc, (df * dg * br).terms.items())
    return _poly(ctx, acc)


# -- points ---------------------------------------------------------------------


class CurrentPoint:
    """Rational value for every variable of a context, stored on the full
    index grid; twisted values must respect the eps-symmetry."""

    __slots__ = ("context", "values")

    def __init__(self, context: PoissonContext, values: dict):
        self.context = context
        idx = context.index_set.indices()
        full: dict = {}
        for r in range(1, context.M + 1):
            for i in idx:
                for j in idx:
                    v = (r, i, j)
                    red = context.reduce_var(v)
                    if red is None:
                        val = 0
                    else:
                        s, w = red
                        val = rat(values.get(w, 0)) * s
                    given = values.get(v)
                    if given is not None and rat(given) != val:
                        raise ValueError(
                            f"value at {v} violates the context symmetry")
                    full[v] = val
        self.values = full

    def value(self, v: tuple):
        r, i, j = v
        if r > self.context.M:
            return 0
        return self.values[v]

    @staticmethod
    def zero(context: PoissonContext) -> "CurrentPoint":
        return CurrentPoint(context, {})

    @staticmethod
    def from_level_matrix(context: PoissonContext, level: int,
                          matrix: dict) -> "CurrentPoint":
        """Point supported at a single level; `matrix` maps (i, j) to a
        rational entry."""
        return CurrentPoint(
            context, {(level, i, j): v for (i, j), v in matrix.items()})

    @staticmethod
    def random(context: PoissonContext, seed: int, bound: int = 9) -> "CurrentPoint":
        rng = random.Random(seed)
        vals = {}
        for v in context.variables():
            x = 0
            while x == 0:
                x = rng.randint(-bound, bound)
            vals[v] = x
        return CurrentPoint(context, vals)


# -- determinant families --------------------------------------------------------


def det_poly(context: PoissonContext, z: ZMatrix) -> dict:
    """Coefficients of det(u^M + V(u) + Z v) as {(deg_u, deg_v): poly},
    with V(u) the matrix of degree-staggered coordinate polynomials
    v_ij^(1) u^{M-1} + ... + v_ij^(M).

    Column-by-column Laplace expansion, memoized over the set of rows
    already used: `layer[mask]` is the signed sum over all placements of
    the rows in `mask` into the first popcount(mask) columns, as
    {(deg_u, deg_v): {monomial: coeff}}.  Placing row i after the rows in
    `mask` contributes (-1)^popcount(mask >> (i+1)).  This visits
    N 2^(N-1) (mask, row) pairs instead of N! products of N entries.

    Z v is expanded as (L Z)(v / L), L the lcm of the denominators of Z,
    so every coefficient is a Python int until the v^b ones are divided
    by L^b at the end."""
    iset = context.index_set
    if not z.index_set.same(iset):
        raise ValueError("Z lives on a different index set")
    idx = iset.indices()
    M = context.M
    zq = {(i, j): z.entry(i, j) for i in idx for j in idx}
    L = lcm(*(x.denominator for x in zq.values()))

    # entry (i, j) as [((deg_u, deg_v), int coeff, variable or None)], the
    # variable already reduced to the fundamental domain
    def entry(i, j):
        e = []
        if i == j:
            e.append(((M, 0), 1, None))
        zij = zq[(i, j)]
        if zij:
            e.append(((0, 1), zij.numerator * (L // zij.denominator), None))
        for r in range(1, M + 1):
            red = context.reduce_var((r, i, j))
            if red is not None:
                e.append(((M - r, 0), red[0], red[1]))
        return e

    rows = [[entry(i, j) for j in idx] for i in idx]
    layer = {0: {(0, 0): {(): 1}}}
    for col in range(len(idx)):
        nxt: dict = {}
        for mask, polys in layer.items():
            for i, row in enumerate(rows):
                if mask >> i & 1 or not row[col]:
                    continue
                odd = bin(mask >> (i + 1)).count("1") & 1
                tgt = nxt.setdefault(mask | 1 << i, {})
                for (a2, b2), c2, w in row[col]:
                    if odd:
                        c2 = -c2
                    for (a1, b1), terms in polys.items():
                        accumulate(tgt.setdefault((a1 + a2, b1 + b2), {}), (
                            (m if w is None else tuple(sorted(m + (w,))),
                             c1 * c2) for m, c1 in terms.items()))
        layer = nxt
    return {(du, dv): _poly(context, {m: rat(c, L ** dv)
                                      for m, c in terms.items()})
            for (du, dv), terms in layer.get((1 << len(idx)) - 1, {}).items()
            if terms}


def bethe_family(context: PoissonContext, z: ZMatrix, *,
                 parity_guard: bool = True) -> dict:
    """The determinant family from one expansion: {k: [c^(0), ..., c^(kM)]}
    for k = 1..N, where c^(r) is the coefficient of u^{kM-r} v^{N-k}
    divided by binomial(N,k).

    In the twisted case c^(r) vanishes when N - k + r is odd; a nonzero one
    raises, unless parity_guard is off for a caller that reports the
    parity zeros itself (certify.verify_twisted_parity)."""
    full = det_poly(context, z)
    N = context.index_set.N
    M = context.M
    zero = PoissonPoly(context, {})
    family = {}
    for k in range(1, N + 1):
        inv = div(1, binomial(N, k))
        out = [full.get((k * M - r, N - k), zero) * inv
               for r in range(0, k * M + 1)]
        # nothing of the v^{N-k} slice may fall outside degrees 0..kM
        for (du, dv) in full:
            if dv == N - k and not (0 <= k * M - du <= k * M):
                raise AssertionError(
                    "unexpected degree in determinant expansion")
        if parity_guard and context.kind == "twisted":
            for r, p in enumerate(out):
                if (N - k + r) % 2 != 0 and not p.is_zero():
                    raise AssertionError(
                        f"parity violation: coefficient {r} of the "
                        f"degree-{k} member should vanish")
        family[k] = out
    return family


def bethe_poly(k: int, z: ZMatrix, context: PoissonContext) -> list:
    """Coefficient list [c^(0), ..., c^(kM)] of the degree-k member of the
    determinant family: the coefficient of v^{N-k} divided by binomial(N,k),
    read off in descending powers of u from u^{kM}.  Callers that need
    several k should take them from one bethe_family."""
    if not (1 <= k <= context.index_set.N):
        raise ValueError("k out of range")
    return bethe_family(context, z)[k]


def classical_det_poly(z: ZMatrix, index_set: IndexSet) -> dict:
    """M = 1 specialization det(u + V + Z v) on a Lie algebra: twisted
    context for signed index sets, plain otherwise."""
    kind = "twisted" if index_set.kind == "signed" else "plain"
    context = PoissonContext(kind, index_set, 1)
    return det_poly(context, z)


# -- nilpotents and slices -------------------------------------------------------


def principal_nilpotent(index_set: IndexSet, variant: str = "section4") -> dict:
    """Regular nilpotent base points, as sparse {(i, j): rational}.

    plain:   E_21 + E_32 + ... (lower subdiagonal, unit entries);
    signed:  the standard chain E_{p+1,p} - eps-partner completed by the
             middle term E_{1,0} - E_{0,-1} (odd orthogonal), E_{1,-1}
             (symplectic and even orthogonal, the latter with + chain
             signs); variant 'lemma45' (even orthogonal only) replaces
             the middle term by E_{2,-1} - E_{1,-2}.
    """
    if index_set.kind == "plain":
        if variant != "section4":
            raise ValueError("plain index sets have a single variant")
        return {(i + 1, i): ONE for i in range(1, index_set.N)}
    form, N, n = index_set.form, index_set.N, index_set.n
    ent: dict = {}
    if variant == "lemma45":
        if not (form == "so" and N % 2 == 0):
            raise ValueError("variant 'lemma45' is specific to even "
                             "orthogonal index sets")
        for i in range(1, n):
            ent[(i + 1, i)] = ONE
            ent[(-i, -i - 1)] = -ONE
        ent[(2, -1)] = ONE
        ent[(1, -2)] = -ONE
        return ent
    if variant != "section4":
        raise ValueError(f"unknown variant {variant!r}")
    chain_sign = ONE if (form == "so" and N % 2 == 0) else -ONE
    for i in range(1, n):
        ent[(i + 1, i)] = ONE
        ent[(-i, -i - 1)] = chain_sign
    if form == "so" and N % 2 == 1:
        ent[(1, 0)] = ONE
        ent[(0, -1)] = -ONE
    else:
        ent[(1, -1)] = ONE
    return ent


def required_parity(index_set: IndexSet) -> int:
    """Parity of M (as M mod 2) for which the base nilpotent level sits in
    the twisted current space: odd for so_{2n+1}/sp_{2n}, even for so_{2n}."""
    if index_set.form == "so" and index_set.N % 2 == 0:
        return 0
    return 1


class Slice:
    """Affine slice: base point plus the span of the listed free
    coordinates; every other coordinate is frozen at the base value."""

    __slots__ = ("context", "base", "free")

    def __init__(self, context: PoissonContext, base: CurrentPoint,
                 free: tuple):
        self.context = context
        self.base = base
        self.free = free

    def fixed_assignments(self) -> dict:
        free = set(self.free)
        return {v: self.base.value(v)
                for v in self.context.variables() if v not in free}


def upper_slice(context: PoissonContext, variant: str = "section4") -> Slice:
    """The Borel-directed slice through the top-level nilpotent: free
    coordinates are the upper-triangular ones at every level."""
    if (variant != "lemma45" and context.kind == "twisted"
            and context.M % 2 != required_parity(context.index_set)):
        raise ValueError("truncation level parity incompatible with "
                         "the base nilpotent")
    E = principal_nilpotent(context.index_set, variant)
    base = CurrentPoint.from_level_matrix(context, context.M, E)
    free = tuple(v for v in context.variables() if v[1] <= v[2])
    return Slice(context, base, free)


def restrict_to_slice(p: PoissonPoly, s: Slice) -> PoissonPoly:
    if p.context != s.context:
        raise ValueError("polynomial and slice from different contexts")
    return p.substitute(s.fixed_assignments())


# -- exact ranks -----------------------------------------------------------------


def matrix_rank(rows: list) -> int:
    """Exact rank of a rational matrix (list of row lists), by Bareiss
    fraction-free elimination on integer rows.

    Each row is first cleared of denominators.  After the k-th pivot d,
    every entry right of the pivot columns is a (k+1)-minor of the
    integer matrix, so the update (p x - a y) / d divides exactly and
    entries grow only like minors (Bareiss 1968, Math. Comp. 22).  A row
    with a zero in the pivot column would only be rescaled by p / d; that
    factor telescopes over consecutive pivots, so such rows are left as
    they are and stamped with the pivot they were last exact for, and
    are rescaled once by (current d) / stamp when next needed."""
    mat = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (den // x.denominator) for x in row])
    ncols = len(mat[0]) if mat else 0
    stamp = [1] * len(mat)
    d = 1
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        stamp[rank], stamp[piv] = stamp[piv], stamp[rank]
        pivot = _bareiss_sync(mat, stamp, rank, col, d)
        p = pivot[col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                row = _bareiss_sync(mat, stamp, r, col, d)
                a = row[col]
                mat[r] = row[:col + 1] + [(p * x - a * y) // d for x, y in
                                          zip(row[col + 1:], pivot[col + 1:])]
                stamp[r] = p
        d = p
        rank += 1
        if rank == len(mat):
            break
    return rank


def _bareiss_sync(mat: list, stamp: list, r: int, col: int, d: int) -> list:
    """Bring row r (exact for pivot stamp[r]) up to the current pivot d,
    from column `col` on; entries before it are never read again."""
    s = stamp[r]
    if s != d:
        row = mat[r]
        mat[r] = row[:col] + [x * d // s for x in row[col:]]
        stamp[r] = d
    return mat[r]


def jacobian_rank(fs: list, coords, values) -> int:
    """Rank of [df_a/dv_b] evaluated at the point."""
    coords = list(coords)
    rows = [f.gradient(coords, values) for f in fs]
    if not rows:
        return 0
    return matrix_rank(rows)


def bracket_matrix(point: CurrentPoint, context: PoissonContext) -> list:
    """The matrix of coordinate brackets {a, b} at a point.  Every entry is
    evaluated on its own, so a bracket that is not antisymmetric gives a
    matrix that is not."""
    coords = context.variables()
    return [[context.gen_bracket(a, b).evaluate(point) for b in coords]
            for a in coords]


def poisson_rank_at(point: CurrentPoint, context: PoissonContext) -> int:
    """Rank of the matrix of coordinate brackets at a point."""
    return matrix_rank(bracket_matrix(point, context))


def certified_jacobian_rank(fs: list, coords, context: PoissonContext,
                            seed: int, expected: int, retries: int = 5):
    """Max Jacobian rank over a few seeded random points; stops early when
    the expected rank is reached.  Returns (achieved, seed_used)."""
    best, best_seed = 0, seed
    for t in range(retries):
        pt = CurrentPoint.random(context, seed + t)
        r = jacobian_rank(fs, coords, pt)
        if r > best:
            best, best_seed = r, seed + t
        if best >= expected:
            break
    return best, best_seed
