"""High-level certification suites combining the algebraic and Poisson
layers: bracket axioms on seeded samples, graded symbol consistency
against the determinant expansions, and the rank certificates for the
shift-of-argument families, whose expected ranks come from one rank
table, `rank_table`.

The graded symbols at level M kill every generator of level > M.  The
symbol homomorphy suite computes in the quotient by J_M, the span of the
normal monomials that hold such a generator: its Yangian rule is capped
at M (`algebra.CommutationRule`).  The symbol is a ring map onto the
commutative graded algebra, so the Laplace rows build each member there
from the start, with the `PoissonContext` itself as its rule: no word is
formed or normal-ordered, a variable above M is zero, and `symbol` drops
the lower-degree terms that the letter shifts leave on gl.  A member X_k
of a commuting family is a sum of words of at most k letters, so its
symbols vanish in every degree r > kM: the Laplace rows with r > kM hold
by this degree bound, keep their labels in the report, and nothing is
built for them.  On so/sp a symbol reads each word of A_k at order-0
weight, where pair steps are the identity, and each letter S(u-p) at its
top part, that of S(u), so these rows build the graded member
(`twisted.graded_bethe_series`).

The rank and parity suites expand no determinant and form no bracket
polynomial.  The Jacobian rows are first-order jets at the point
(`poisson.jacobian_rows`), the bracket matrix is its formula evaluated
at the point (`poisson.bracket_matrix`), and the parity zeros of the
twisted family follow from a symmetry of the entries, checked exactly on
them (`verify_twisted_parity`).

Every suite returns a list of (item, bool) detail rows, matching the other
verify_* functions; the CLI wraps these into reports.  The enveloping-
algebra image suites, which need no Poisson side, are in `evalmap`.

The module top imports the Poisson side only, whose polynomials are
`element.AlgebraElement`s with their `PoissonContext` as rule, built by
`context.element` and `context.zero()`.  The suites that reach the
algebras import them inside, so the Poisson checks load none of them.
"""
from __future__ import annotations

import random

from .indices import IndexSet, ZMatrix
from .poisson import (CurrentPoint, PoissonContext, bethe_family,
                      bracket_matrix, certified_rank, det_entries,
                      jacobian_rows, matrix_rank, poisson_bracket,
                      principal_nilpotent, upper_slice)
from .rationals import accumulate


# seeded generator triples of `verify_poisson_jacobi`
JACOBI_TRIPLES = 20


def verify_poisson_jacobi(context: PoissonContext, seed: int) -> list:
    """Jacobi identity on JACOBI_TRIPLES seeded random generator triples."""
    rng = random.Random(seed)
    vs = context.variables()
    details = []
    for t in range(JACOBI_TRIPLES):
        a, b, c = (context.element(i, j, r)
                   for r, i, j in (rng.choice(vs) for _ in range(3)))
        res = (poisson_bracket(a, poisson_bracket(b, c))
               + poisson_bracket(b, poisson_bracket(c, a))
               + poisson_bracket(c, poisson_bracket(a, b)))
        details.append((f"jacobi triple {t}", not res))
    return details


# the highest generator level in the quadratic elements of
# `verify_symbol_homomorphy`, and the number of seeded pairs it checks
SYMBOL_MAX_LEVEL = 3
SYMBOL_PAIRS = 50


def _random_quadratic(rule, rng):
    idx = rule.index_set.indices()
    top = min(rule.top_level, SYMBOL_MAX_LEVEL)
    g1 = rule.element(rng.choice(idx), rng.choice(idx), rng.randint(1, top))
    g2 = rule.element(rng.choice(idx), rng.choice(idx), rng.randint(1, top))
    return g1 * g2 * rng.randint(1, 5)


def symbol_pairs(rule, seed: int) -> list:
    """The SYMBOL_PAIRS seeded pairs of random quadratic elements under a
    capped rule, their generator levels drawn from 1..min(top level,
    SYMBOL_MAX_LEVEL): a higher level is zero in the quotient."""
    rng = random.Random(seed)
    return [(_random_quadratic(rule, rng), _random_quadratic(rule, rng))
            for _ in range(SYMBOL_PAIRS)]


def verify_symbol_homomorphy(index_set: IndexSet, M: int, seed: int) -> list:
    """symbol([X, Y]) = {symbol X, symbol Y} for the seeded `symbol_pairs`
    of the Yangian rule capped at M, in the degree (deg X + deg Y - 1)
    component."""
    from .algebra import YangianRule, filtration_degree, symbol
    from .element import commutator

    context = PoissonContext(index_set, M)
    details = []
    for t, (x, y) in enumerate(symbol_pairs(YangianRule(index_set, M), seed)):
        d = filtration_degree(x) + filtration_degree(y) - 1
        lhs = symbol(commutator(x, y), d, context)
        rhs = poisson_bracket(symbol(x, filtration_degree(x), context),
                              symbol(y, filtration_degree(y), context))
        details.append((f"symbol pair {t}", lhs == rhs))
    return details


def verify_laplace_consistency(index_set: IndexSet, z: ZMatrix,
                               M: int) -> list:
    """Graded symbols of the series coefficients equal the determinant-
    expansion polynomials, coefficient by coefficient through order N M.
    Member k, B_k on gl or the graded member of A_k on so/sp, is built
    through order kM with the context as its rule, as a polynomial; a row
    with r > kM compares the zero symbol with the table's absent entry."""
    from .algebra import symbol

    if index_set.kind == "plain":
        from .yangian import bethe_series as member
    else:
        from .twisted import graded_bethe_series as member
    context = PoissonContext(index_set, M)
    zero = context.zero()
    details = []
    for k, table in bethe_family(context, z).items():
        series = member(k, z, context, k * M)
        for r in range(index_set.N * M + 1):
            lhs = symbol(series.coeffs[r], r, context) if r <= k * M else zero
            rhs = table[r] if r < len(table) else zero
            details.append((f"k={k} coefficient r={r}", lhs == rhs))
    return details


def verify_jacobian_rank(context: PoissonContext, z: ZMatrix,
                         seed: int = 0) -> list:
    """The Jacobian of the determinant family (`bethe_family`) at a
    certified seeded point has the rank of `rank_table` (= the dimension
    of the certification slice).  Its rows are first-order jets at the
    point (`poisson.jacobian_rows`): no member polynomial is expanded."""
    expected = _table_rank(context, 0)
    coords = context.variables()
    rank, t = certified_rank(lambda t: jacobian_rows(
        context, z, CurrentPoint.random(context, seed + t), coords), expected)
    return [(f"jacobian rank {rank} (expected {expected}, seed {seed + t})",
             rank == expected)]


def verify_poisson_rank(context: PoissonContext) -> list:
    """Rank of the bracket at the principal nilpotent placed at the top
    level, its partner entries completed by the context, equals the
    bracket rank of `rank_table` (twice the slice codimension invariant),
    and the bracket matrix there is antisymmetric.  The matrix is the
    bracket formula evaluated at the point (`poisson.bracket_matrix`)."""
    expected = _table_rank(context, 1)
    pt = CurrentPoint(context, {
        (context.M, i, j): x
        for (i, j), x in principal_nilpotent(context.index_set).items()})
    rows = bracket_matrix(pt, context)
    rank = matrix_rank(rows)
    antisymmetric = all(x == -y for row, col in zip(rows, zip(*rows))
                        for x, y in zip(row, col))
    return [(f"bracket rank {rank} at base point (expected {expected})",
             rank == expected and antisymmetric)]


def verify_twisted_parity(context: PoissonContext, z: ZMatrix) -> list:
    """a_k^(r) = 0 whenever N - k + r is odd, for every member of the
    determinant family, certified from its entries with nothing expanded.

    Lemma.  For a skew Z every entry of A(u, v) = u^M + V(u) + Z v
    satisfies A_ij(-u, v) = (-1)^M eps_ij A_{-j,-i}(u, -(-1)^M v): the
    term u^M as eps_ii = 1, the coordinate term y_ij^(r) u^{M-r} by the
    tie y_ij^(r) = eps_ij (-1)^r y_{-j,-i}^(r), and z_ij v as z_ij =
    -eps_ij z_{-j,-i}.  The twisted transpose (A_ij) -> (eps_ij A_{-j,-i})
    keeps the determinant, so det A(-u, v) = (-1)^{MN} det A(u, -(-1)^M v).
    On the coefficient of u^{kM-r} v^{N-k} the two sides differ by the
    sign (-1)^{N-k+r}, so that coefficient vanishes when N - k + r is odd.

    The identity is checked exactly, term by term, on the entries as
    `det_entries` builds them, reduced variables and signs included; each
    row "parity zeros k=.." holds when it does."""
    iset, M = context.index_set, context.M
    rows, _ = det_entries(context, z)
    idx = iset.indices()
    entry = {(i, j): rows[a][b] for a, i in enumerate(idx)
             for b, j in enumerate(idx)}

    def scaled(terms, sign_u, sign_v, c0=1):
        # c0 * A(sign_u u, sign_v v) as {(degrees, variable): coeff}
        return accumulate({}, (((d, w), c0 * c * sign_u ** d[0]
                                * sign_v ** d[1]) for d, c, w in terms))

    ok = all(scaled(entry[(i, j)], -1, 1)
             == scaled(entry[(-j, -i)], 1, -(-1) ** M,
                       (-1) ** M * iset.eps(i, j))
             for i, j in entry)
    return [(f"parity zeros k={k}", ok) for k in range(1, iset.N + 1)]


def verify_classical_slice_rank(index_set: IndexSet, z: ZMatrix,
                                seed: int = 7) -> list:
    """Even-orthogonal classical family (the context at M = 1): the
    determinant coefficients restricted to the Borel slice are a complete
    independent set (rank equals the slice dimension n^2), as the Jacobian
    in the free coordinates at points that keep the base values
    elsewhere, read from first-order jets (`poisson.jacobian_rows`)."""
    context = PoissonContext(index_set, 1)
    base, free = upper_slice(context)
    expected = index_set.n ** 2
    rng = random.Random(seed)

    def rows(t):
        point = CurrentPoint(context, {
            **base, **{v: rng.randint(1, 9) for v in free}})
        return jacobian_rows(context, z, point, free)

    rank, _ = certified_rank(rows, expected)
    return [(f"classical slice rank {rank} (expected {expected}, "
             f"dim {len(free)})", rank == expected)]


def rank_table(index_set: IndexSet, M: int):
    """(Jacobian rank, bracket rank) at level M where the rank tables hold,
    None elsewhere.  The Jacobian rank is the dimension of the
    certification slice, the bracket rank the generic rank 2D at the base
    point.  The tables hold every M in the plain case, odd M for
    odd-orthogonal and symplectic, even M for even-orthogonal."""
    N = index_set.N
    if index_set.kind == "plain":
        return M * N * (N + 1) // 2, M * (N * N - N)
    even_so = index_set.form == "so" and N % 2 == 0
    if (M % 2 == 0) != even_so:
        return None
    # M = 2m for even so, M = 2m + 1 for odd so and sp
    n, m = index_set.n, M // 2
    if even_so:
        return (2 * n + 1) * m * n, 2 * (2 * n - 1) * m * n
    if index_set.form == "so":
        return (2 * m * n + m + n) * (n + 1), 2 * (2 * m * n + m + n) * n
    return (2 * m * n + m + n + 1) * n, 2 * (2 * m * n - m + n) * n


def _table_rank(context: PoissonContext, which: int) -> int:
    ranks = rank_table(context.index_set, context.M)
    if ranks is None:
        raise ValueError(f"M = {context.M} is outside the rank tables")
    return ranks[which]
