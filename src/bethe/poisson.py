"""Graded (classical) side: polynomial algebras with truncated Poisson
brackets, determinant-expansion families and exact rank certificates.

Variables v_ij^(r) (1 <= r <= M) are tagged by the same (level, row, col)
triples as the noncommutative generators.  The kind of the index set fixes
the context, and its signs (`IndexSet.eps`) the twist:

* plain -- coordinates on the truncated current space gl_N + ... +
  gl_N t^{M-1}; bracket window r = max(1, p+q-M) .. min(p,q);
* signed -- coordinates on the sigma-twisted current space, subject to
  the linear relations y_ij^(r) = eps_ij (-1)^r y_{-j,-i}^(r); every
  polynomial is kept in a fixed fundamental-domain normal form, and the
  bracket carries the extra eps-twisted sum with the (-1)^{p+r-1} factor.

A polynomial is an `element.AlgebraElement` whose rule is its
`PoissonContext`, the one sparse polynomial type of the package: the
context multiplies monomials by sorted concatenation
(`mono_times_mono`), brackets a monomial with a variable by the Leibniz
rule over its letters (`mono_bracket_gen`), and builds polynomials
through `reduced`, which folds each variable onto the fundamental
domain, and `element`.  So the Poisson bracket, `poisson_bracket`, is
the derivation of `element` over the context, the same that forms the
commutators of the algebras.  With
its `zero` and `one` the context is a rule the series layer builds over
(`series.algebra_ring`), so a member of a commuting family can be built
as a polynomial (`certify.verify_laplace_consistency`).
`PoissonContext.reduce_var` is the one place that knows how coordinates
are tied.  A `CurrentPoint` holds values on the fundamental domain only,
folding every value given elsewhere through it, so a base point is given
by one entry per tied pair (`principal_nilpotent`) and the context
completes the partners.

The determinant det(u^M + V(u) + Z v) is one Laplace walk over the
entries of `det_entries` with two coefficient arithmetics (`_laplace`):
term dicts, which give the expanded family (`bethe_family`), and
first-order jets at a point, a value with its integer gradient, which
give the Jacobian rows of the family (`jacobian_rows`) with no
polynomial formed.  Both read the family's members through one helper,
`_family`, which divides each coefficient once.  The bracket is one
formula, `bracket_terms`, that `gen_bracket` forms into polynomials and
`bracket_matrix` evaluates at a point.

Every rank certificate evaluates at a `CurrentPoint` and expands
nothing: jets or the bracket formula at the point, then Bareiss
fraction-free elimination on integer rows, all exact over the
rationals.  There is one slice, `upper_slice`, the even-orthogonal Borel
slice through the nilpotent of Lemma 4.5; its certificate reads the jets
in the free coordinates at a point that keeps the base values on every
other coordinate, which is the Jacobian of the restriction to the slice.
Random points come from a seeded generator, so every certificate is
reproducible.
"""
from __future__ import annotations

import random
from math import lcm, prod

from .element import AlgebraElement, _from_terms, derivation
from .indices import IndexSet, ZMatrix
from .rationals import ONE, accumulate, binomial, div, rat


class PoissonContext:
    """Variable universe and bracket at level M, plain or twisted as the
    index set is plain or signed."""

    __slots__ = ("index_set", "M", "_vars", "_bracket_cache", "_mbg_cache")

    def __init__(self, index_set: IndexSet, M: int):
        if M < 1:
            raise ValueError("M must be >= 1")
        self.index_set = index_set
        self.M = M
        self._vars = None
        self._bracket_cache: dict = {}
        self._mbg_cache: dict = {}

    def __eq__(self, other):
        return (isinstance(other, PoissonContext)
                and (self.index_set, self.M) == (other.index_set, other.M))

    def __hash__(self):
        return hash((self.index_set, self.M))

    def __repr__(self):
        return f"PoissonContext({self.index_set!r}, M={self.M})"

    def reduce_var(self, v: tuple):
        """Normal form of a single variable: (sign, representative) or
        None when the variable is zero in this context."""
        r, i, j = v
        if r > self.M:
            return None  # killed by the truncation ideal
        if self.index_set.kind == "plain":
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

    # -- the polynomial algebra ---------------------------------------------

    def mono_times_mono(self, m1: tuple, m2: tuple) -> dict:
        """The product of two monomials: their sorted concatenation."""
        return {tuple(sorted(m1 + m2)): 1}

    def reduced(self, terms: dict) -> AlgebraElement:
        """The polynomial with the terms {monomial: rational}, each variable
        folded onto the fundamental domain through `reduce_var` with its
        sign; a monomial that holds a zero variable is dropped."""
        out = []
        for mono, c in terms.items():
            c = rat(c)
            vs = [self.reduce_var(v) for v in mono]
            if c and None not in vs:
                out.append((tuple(sorted(w for _, w in vs)),
                            c if prod(s for s, _ in vs) == 1 else -c))
        return _from_terms(self, accumulate({}, out))

    def element(self, row: int, col: int, level: int = 1) -> AlgebraElement:
        """The variable v_{row,col}^(level), reduced."""
        self.index_set.check(row)
        self.index_set.check(col)
        return self.reduced({((level, row, col),): 1})

    def one(self) -> AlgebraElement:
        return _from_terms(self, {(): ONE})

    def zero(self) -> AlgebraElement:
        return _from_terms(self, {})

    # -- bracket on generators ---------------------------------------------

    def bracket_terms(self, a: tuple, b: tuple) -> list:
        """The truncated bracket of two generators as the terms of its
        formula, [(coeff, x, y)] for the products x*y of two coordinates,
        unreduced, a coordinate at level 0 standing for the Kronecker
        delta: {v_ij^(p), v_kl^(q)} is the sum over r = max(1, p+q-M) ..
        min(p, q) of v_kj^(r-1) v_il^(p+q-r) - v_kj^(p+q-r) v_il^(r-1),
        plus on a signed set the eps-twisted sum with the (-1)^{p+r-1}
        factor.  `gen_bracket` and `bracket_matrix` both read it."""
        (p, i, j), (q, k, l) = a, b
        out = []
        for r in range(max(1, p + q - self.M), min(p, q) + 1):
            s = p + q - r
            out.append((1, (r - 1, k, j), (s, i, l)))
            out.append((-1, (s, k, j), (r - 1, i, l)))
            if self.index_set.kind == "signed":
                eps = self.index_set.eps
                sgn = (-1) ** (p + r - 1)
                out.append((sgn * eps(k, -j), (r - 1, i, -k), (s, -j, l)))
                out.append((-sgn * eps(i, -l), (s, k, -i), (r - 1, -l, j)))
        return out

    def gen_bracket(self, a: tuple, b: tuple) -> AlgebraElement:
        key = (a, b)
        hit = self._bracket_cache.get(key)
        if hit is None:
            terms: dict = {}
            for c, *word in self.bracket_terms(a, b):
                # the two levels sum to p + q - 1 >= 1: at most one is 0
                if all(v[0] or v[1] == v[2] for v in word):
                    accumulate(terms, ((tuple(v for v in word if v[0]), c),))
            hit = self._bracket_cache[key] = self.reduced(terms)
        return hit

    def mono_bracket_gen(self, m: tuple, g: tuple) -> dict:
        """{m, g} for a monomial m and a variable g, int coefficients: the
        Leibniz rule over the letters of m, the sum over i of m without
        m_i times {m_i, g}."""
        key = (m, g)
        hit = self._mbg_cache.get(key)
        if hit is None:
            hit = self._mbg_cache[key] = accumulate({}, [
                (tuple(sorted(m[:i] + m[i + 1:] + mb)), c)
                for i, a in enumerate(m)
                for mb, c in self.gen_bracket(a, g).terms.items()])
        return hit


def poisson_bracket(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """{f, g}: the derivation ad_f of `element` over the context, which
    extends the truncated generator bracket by the Leibniz rule in both
    arguments."""
    return derivation(f)(g)


# -- points ---------------------------------------------------------------------


class CurrentPoint:
    """Rational values of a context's fundamental-domain variables.  A
    value given at any other coordinate is folded onto its representative
    through `PoissonContext.reduce_var`, times the sign, so a point may be
    given by the entries of a matrix on the full grid; an index outside
    the index set raises."""

    __slots__ = ("context", "values")

    def __init__(self, context: PoissonContext, values: dict):
        self.context = context
        folded: dict = {}
        for v, x in values.items():
            if v[1] not in context.index_set or v[2] not in context.index_set:
                raise ValueError(f"{v} is not a coordinate of the context")
            x = rat(x)
            red = context.reduce_var(v)
            if red is None:
                ok = not x
            else:
                s, w = red
                x = x * s
                ok = folded.setdefault(w, x) == x
            if not ok:
                raise ValueError(f"value at {v} violates the context symmetry")
        self.values = {v: folded.get(v, 0) for v in context.variables()}

    @staticmethod
    def random(context: PoissonContext, seed: int) -> "CurrentPoint":
        """Seeded point, nonzero integers in -9..9."""
        rng = random.Random(seed)
        vals = {}
        for v in context.variables():
            x = 0
            while x == 0:
                x = rng.randint(-9, 9)
            vals[v] = x
        return CurrentPoint(context, vals)


# -- determinant families --------------------------------------------------------


def det_entries(context: PoissonContext, z: ZMatrix) -> tuple:
    """The entries of u^M + V(u) + Z v, V(u) the matrix of degree-staggered
    coordinate polynomials v_ij^(1) u^{M-1} + ... + v_ij^(M), as (rows, L):
    rows[a][b] lists the terms ((deg_u, deg_v), int coeff, variable or
    None) of the entry at the a-th and b-th index, each variable reduced
    to the fundamental domain with its sign in the coefficient.  Z v
    enters as (L Z)(v / L), L the lcm of the denominators of Z, so every
    coefficient is an int."""
    iset = context.index_set
    if z.index_set != iset:
        raise ValueError("Z lives on a different index set")
    idx = iset.indices()
    M = context.M
    zq = {(i, j): z.entry(i, j) for i in idx for j in idx}
    L = lcm(*(x.denominator for x in zq.values()))

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

    return [[entry(i, j) for j in idx] for i in idx], L


def _laplace(rows: list, unit: dict, times) -> dict:
    """The determinant of the entries `rows` (as `det_entries` gives them)
    as {(deg_u, deg_v): coefficient}, each coefficient a dict summed by
    `accumulate`: `unit` is the coefficient 1, and times(coeff, c, w)
    yields the (key, value) pairs of coeff times the entry term c*w (w
    None for a constant c).  Term dicts give the polynomials of
    `bethe_family`, first-order jets the rows of `jacobian_rows`.

    Column-by-column Laplace expansion, memoized over the set of rows
    already used: `layer[mask]` is the signed sum over all placements of
    the rows in `mask` into the first popcount(mask) columns.  Placing
    row i after the rows in `mask` contributes (-1)^popcount(mask >>
    (i+1)).  This visits N 2^(N-1) (mask, row) pairs instead of N!
    products of N entries."""
    layer = {0: {(0, 0): unit}}
    for col in range(len(rows)):
        nxt: dict = {}
        for mask, coeffs in layer.items():
            for i, row in enumerate(rows):
                if mask >> i & 1 or not row[col]:
                    continue
                odd = bin(mask >> (i + 1)).count("1") & 1
                tgt = nxt.setdefault(mask | 1 << i, {})
                for (a2, b2), c2, w in row[col]:
                    if odd:
                        c2 = -c2
                    for (a1, b1), coeff in coeffs.items():
                        accumulate(tgt.setdefault((a1 + a2, b1 + b2), {}),
                                   times(coeff, c2, w))
        layer = nxt
    return {key: coeff for key, coeff in
            layer.get((1 << len(rows)) - 1, {}).items() if coeff}


def _term_times(terms: dict, c: int, w):
    """Polynomial arithmetic of `_laplace`: terms {monomial: int}."""
    if w is None:
        return ((m, x * c) for m, x in terms.items())
    return ((tuple(sorted(m + (w,))), x * c) for m, x in terms.items())


def _jet_times(values: dict, coords: set):
    """Jet arithmetic of `_laplace` at the point `values`: a first-order
    jet {None: value, v: partial} holds its partials in the coordinates
    `coords` only, and the entry term c*x_w maps the jet (a, g) to
    (a c x_w, g c x_w + a c e_w), the last term only for w in `coords`."""
    def times(jet: dict, c: int, w):
        if w is None:
            return ((k, x * c) for k, x in jet.items())
        cx = c * values[w]
        out = [(k, x * cx) for k, x in jet.items()] if cx else []
        a = jet.get(None)
        if a and w in coords:
            out.append((w, a * c))
        return out

    return times


def _family(context: PoissonContext, z: ZMatrix, unit: dict, times) -> dict:
    """{k: [c^(0), ..., c^(kM)]} for k = 1..N, c^(r) the coefficient of
    u^{kM-r} v^{N-k} in det(u^M + V(u) + Z v) divided by binomial(N, k),
    or {} when it is zero: the entries of `det_entries` expanded by
    `_laplace` in the coefficient arithmetic (unit, times), each value
    divided once, at the end, by binomial(N, k) L^(N-k).  Nothing of a
    v^{N-k} slice may fall outside the degrees 0..kM in u."""
    N, M = context.index_set.N, context.M
    rows, L = det_entries(context, z)
    full = _laplace(rows, unit, times)
    for du, dv in full:
        if 0 <= dv < N and not 0 <= du <= (N - dv) * M:
            raise AssertionError("unexpected degree in determinant expansion")
    return {k: [{key: div(x, den) for key, x in
                 full.get((k * M - r, N - k), {}).items()}
                for r in range(k * M + 1)]
            for k in range(1, N + 1)
            for den in (binomial(N, k) * L ** (N - k),)}


def bethe_family(context: PoissonContext, z: ZMatrix) -> dict:
    """The determinant family from one expansion: {k: [c^(0), ..., c^(kM)]}
    for k = 1..N, where c^(r) is the coefficient of u^{kM-r} v^{N-k}
    divided by binomial(N,k), expanded on term dicts of Python ints.

    In the twisted case c^(r) vanishes when N - k + r is odd (the lemma of
    `certify.verify_twisted_parity`); a nonzero one raises."""
    N = context.index_set.N
    family = _family(context, z, {(): 1}, _term_times)
    for k, table in family.items():
        family[k] = [_from_terms(context, terms) for terms in table]
        if context.index_set.kind == "signed":
            for r, terms in enumerate(table):
                if (N - k + r) % 2 != 0 and terms:
                    raise AssertionError(
                        f"parity violation: coefficient {r} of the "
                        f"degree-{k} member should vanish")
    return family


def jacobian_rows(context: PoissonContext, z: ZMatrix, point: "CurrentPoint",
                  coords) -> list:
    """The Jacobian of the family of `bethe_family` at the point, in the
    fundamental-domain coordinates `coords`: one row per coefficient c^(r)
    of member k, in the order k = 1..N, r = 0..kM.  The family is read on
    first-order jets at the point, so no polynomial is formed."""
    coords = tuple(coords)
    family = _family(context, z, {None: 1},
                     _jet_times(point.values, set(coords)))
    return [[jet.get(v, 0) for v in coords]
            for table in family.values() for jet in table]


# -- nilpotents and slices -------------------------------------------------------


def principal_nilpotent(index_set: IndexSet) -> dict:
    """A regular nilpotent, as sparse {(i, j): rational} with one entry per
    tied pair of coordinates and no sign: the context that places it
    completes each entry's partner (`CurrentPoint`).

    plain:   E_21 + E_32 + ... (lower subdiagonal, unit entries);
    signed:  the chain E_{p+1,p} for p = 1..n-1, then the middle term
             E_{1,0} when 0 is an index, E_{1,-1} otherwise.
    """
    if index_set.kind == "plain":
        return {(i + 1, i): ONE for i in range(1, index_set.N)}
    ent = {(p + 1, p): ONE for p in range(1, index_set.n)}
    if index_set.n:
        ent[(1, 0) if 0 in index_set else (1, -1)] = ONE
    return ent


def upper_slice(context: PoissonContext) -> tuple:
    """The Borel-directed slice of the even-orthogonal context through the
    nilpotent of Lemma 4.5 placed at the top level, as (base, free).  The
    nilpotent is the principal one with its middle term E_{1,-1} replaced
    by E_{2,-1} (none on so_2); `base` maps every fundamental-domain
    variable to its value there, and the free coordinates are the
    upper-triangular ones at every level.  The slice is the base point
    moved along the free coordinates only."""
    iset = context.index_set
    if iset.form != "so" or iset.N % 2:
        raise ValueError("the slice of Lemma 4.5 is specific to even "
                         "orthogonal index sets")
    E = principal_nilpotent(iset)
    del E[(1, -1)]
    if 2 in iset:
        E[(2, -1)] = ONE
    point = CurrentPoint(context, {(context.M, i, j): x
                                   for (i, j), x in E.items()})
    free = tuple(v for v in context.variables() if v[1] <= v[2])
    return point.values, free


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


def bracket_matrix(point: CurrentPoint, context: PoissonContext) -> list:
    """The matrix of coordinate brackets {a, b} at a point: each entry is
    the formula `PoissonContext.bracket_terms` evaluated at the point,
    with no polynomial formed.  Every entry is evaluated on its own, so a
    bracket that is not antisymmetric gives a matrix that is not."""
    idx = context.index_set.indices()
    at = {}
    for i in idx:
        for j in idx:
            at[(0, i, j)] = int(i == j)
            for s in range(1, 2 * context.M):
                red = context.reduce_var((s, i, j))
                at[(s, i, j)] = 0 if red is None else \
                    red[0] * point.values[red[1]]
    terms = context.bracket_terms
    coords = context.variables()
    return [[rat(sum(c * at[x] * at[y] for c, x, y in terms(a, b)))
             for b in coords] for a in coords]


# points a certificate tries before it settles for the best rank seen
RETRIES = 5


def certified_rank(rows, expected: int):
    """Max rank of the matrices rows(t), t = 0, 1, ... in order, at most
    RETRIES of them, each read at its own point; stops early when the
    expected rank is reached.  Returns (achieved, t of the matrix that
    achieved it)."""
    best, best_t = 0, 0
    for t in range(RETRIES):
        r = matrix_rank(rows(t))
        if r > best:
            best, best_t = r, t
        if best >= expected:
            break
    return best, best_t
