"""High-level certification suites combining the algebraic and Poisson
layers: enveloping-algebra images, bracket axioms on seeded samples, graded
symbol consistency against the determinant expansions, and the rank
certificates for the shift-of-argument families.

Every suite returns a list of (item, bool) detail rows, matching the other
verify_* functions; the CLI wraps these into reports.

The module top imports the Poisson side only.  The suites that reach the
algebras (`algebra`, `evalmap`, `twisted`, `yangian`) import them inside,
so the Poisson checks load none of them.
"""
from __future__ import annotations

import random

from .indices import IndexSet, ZMatrix
from .poisson import (CurrentPoint, PoissonContext, PoissonPoly, bethe_family,
                      bracket_matrix, certified_jacobian_rank, jacobian_rank,
                      matrix_rank, poisson_bracket, principal_nilpotent,
                      restrict_to_slice, upper_slice)


def verify_rho_homomorphy(ctx, D: int) -> list:
    """The enveloping-algebra substitution kills the symmetry and
    reflection residual families of the `TwistedContext` ctx (it therefore
    factors through the defining relations)."""
    from .algebra import GlRule
    from .evalmap import rho_map
    from .twisted import reflection_rows, symmetry_residual_free

    iset = ctx.index_set
    rho = rho_map(GlRule(iset))
    idx = iset.indices()
    details = []
    for r in range(1, D + 1):
        for i in idx:
            for j in idx:
                res = rho(symmetry_residual_free(ctx, i, j, r))
                details.append(
                    (f"rho of symmetry residual i={i} j={j} order {r}",
                     res.is_zero()))
    return details + reflection_rows("rho of reflection residual", ctx, D,
                                     D, rho)


def pi_bethe_images(index_set: IndexSet, z: ZMatrix, D: int) -> list:
    """Enveloping-algebra images of the B_k coefficients, all k, levels
    1..D, as one flat list."""
    from .algebra import GlRule, YangianRule
    from .evalmap import pi_map
    from .yangian import bethe_series

    rule = YangianRule(index_set)
    pi = pi_map(GlRule(index_set))
    out = []
    for k in range(1, index_set.N + 1):
        b = bethe_series(k, z, rule, D)
        for r in range(1, D + 1):
            out.append(pi(b.coeffs[r]))
    return out


def rho_bethe_images(ctx, z: ZMatrix, D: int) -> list:
    """Enveloping-algebra images of the A_k coefficients (computed on the
    formal S-word carrier of the `TwistedContext` ctx), all k, orders
    1..D."""
    from .algebra import GlRule
    from .evalmap import rho_map
    from .twisted import twisted_bethe_series

    rho = rho_map(GlRule(ctx.index_set))
    out = []
    for k in range(1, ctx.index_set.N + 1):
        a = twisted_bethe_series(ctx, k, z, D)
        for r in range(1, D + 1):
            out.append(rho(a.coeffs[r]))
    return out


def verify_poisson_jacobi(context: PoissonContext, seed: int,
                          samples: int = 20) -> list:
    """Jacobi identity on seeded random generator triples."""
    rng = random.Random(seed)
    vs = context.variables()
    details = []
    for t in range(samples):
        a, b, c = (PoissonPoly.variable(context, *rng.choice(vs))
                   for _ in range(3))
        res = (poisson_bracket(a, poisson_bracket(b, c))
               + poisson_bracket(b, poisson_bracket(c, a))
               + poisson_bracket(c, poisson_bracket(a, b)))
        details.append((f"jacobi triple {t}", res.is_zero()))
    return details


def _random_quadratic(rule, rng, max_level: int):
    idx = rule.index_set.indices()
    g1 = rule.element(rng.choice(idx), rng.choice(idx),
                      rng.randint(1, max_level))
    g2 = rule.element(rng.choice(idx), rng.choice(idx),
                      rng.randint(1, max_level))
    return g1 * g2 * rng.randint(1, 5)


def verify_symbol_homomorphy(index_set: IndexSet, M: int, seed: int,
                             pairs: int = 50, max_level: int = 3) -> list:
    """symbol([X, Y]) = {symbol X, symbol Y} for seeded random pairs of
    quadratic elements, in the degree (deg X + deg Y - 1) component."""
    from .algebra import YangianRule, commutator, filtration_degree, symbol

    rule = YangianRule(index_set)
    context = PoissonContext("plain", index_set, M)
    rng = random.Random(seed)
    details = []
    for t in range(pairs):
        x = _random_quadratic(rule, rng, max_level)
        y = _random_quadratic(rule, rng, max_level)
        d = filtration_degree(x) + filtration_degree(y) - 1
        lhs = symbol(commutator(x, y), d, context)
        rhs = poisson_bracket(symbol(x, filtration_degree(x), context),
                              symbol(y, filtration_degree(y), context))
        details.append((f"symbol pair {t}", lhs == rhs))
    return details


def verify_laplace_consistency(index_set: IndexSet, z: ZMatrix, M: int,
                               D: int | None = None) -> list:
    """Graded symbols of the series coefficients equal the determinant-
    expansion polynomials, coefficient by coefficient (plain or twisted
    per the index set)."""
    from .algebra import YangianRule, symbol

    N = index_set.N
    if D is None:
        D = N * M
    details = []
    if index_set.kind == "plain":
        from .yangian import bethe_series

        context = PoissonContext("plain", index_set, M)
        rule = YangianRule(index_set)
        mk = lambda k: bethe_series(k, z, rule, D)
    else:
        from .twisted import TwistedContext, twisted_bethe_series

        context = PoissonContext("twisted", index_set, M)
        ctx = TwistedContext(index_set)
        mk = lambda k: twisted_bethe_series(ctx, k, z, D)
    zero = PoissonPoly.constant(context, 0)
    family = bethe_family(context, z)
    for k in range(1, N + 1):
        series = mk(k)
        table = family[k]
        for r in range(0, D + 1):
            lhs = symbol(series.coeffs[r], r, context)
            rhs = table[r] if r < len(table) else zero
            details.append((f"k={k} coefficient r={r}", lhs == rhs))
    return details


def bethe_family_polys(family: dict) -> list:
    """All coefficients of a bethe_family, flattened over k and r."""
    return [p for table in family.values() for p in table]


def verify_jacobian_rank(context: PoissonContext, family: dict, expected: int,
                         seed: int = 0) -> list:
    """Jacobian of the family (from bethe_family) at a certified seeded
    point has the expected rank (= the dimension of the certification
    slice)."""
    fs = bethe_family_polys(family)
    rank, used = certified_jacobian_rank(fs, context.variables(), context,
                                         seed=seed, expected=expected)
    return [(f"jacobian rank {rank} (expected {expected}, seed {used})",
             rank == expected)]


def verify_poisson_rank(context: PoissonContext, expected: int) -> list:
    """Rank of the bracket at the principal-nilpotent base point placed at
    the top level equals the expected value (twice the slice codimension
    invariant), and the bracket matrix there is antisymmetric."""
    iset = context.index_set
    if iset.kind == "plain":
        mat = {(i + 1, i): 1 for i in range(1, iset.N)}
    else:
        mat = principal_nilpotent(iset, variant="section4")
    pt = CurrentPoint.from_level_matrix(context, context.M, mat)
    rows = bracket_matrix(pt, context)
    rank = matrix_rank(rows)
    antisymmetric = all(x == -y for row, col in zip(rows, zip(*rows))
                        for x, y in zip(row, col))
    return [(f"bracket rank {rank} at base point (expected {expected})",
             rank == expected and antisymmetric)]


def verify_twisted_parity(context: PoissonContext, family: dict) -> list:
    """a_k^(r) = 0 exactly when N - k + r is odd, for the members of a
    bethe_family."""
    N = context.index_set.N
    details = []
    for k, table in family.items():
        ok = all(p.is_zero() for r, p in enumerate(table)
                 if (N - k + r) % 2 == 1)
        details.append((f"parity zeros k={k}", ok))
    return details


def verify_classical_slice_rank(n: int, z: ZMatrix, seed: int = 7) -> list:
    """Even-orthogonal classical family: the determinant coefficients
    restricted to the Borel slice are a complete independent set (rank
    equals the slice dimension n^2)."""
    iset = IndexSet.signed(2 * n, "so")
    context = PoissonContext("twisted", iset, 1)
    fs = bethe_family_polys(bethe_family(context, z))
    sl = upper_slice(context, variant="lemma45")
    rest = [restrict_to_slice(f, sl) for f in fs]
    expected = n * n
    rng = random.Random(seed)
    rank = 0
    for _ in range(5):
        vals = {v: rng.randint(1, 9) for v in sl.free}
        rank = max(rank, jacobian_rank(rest, sl.free, vals))
        if rank == expected:
            break
    return [(f"classical slice rank {rank} (expected {expected}, "
             f"dim {len(sl.free)})", rank == expected)]


def verify_pi_rho_image_commutativity(index_set: IndexSet, z: ZMatrix,
                                      D: int) -> list:
    """Pairwise commutativity of the enveloping-algebra images, in the
    algebra and in the defining representation."""
    from .algebra import GlRule
    from .evalmap import verify_image_commutativity

    gl = GlRule(index_set)
    if index_set.kind == "plain":
        elems = pi_bethe_images(index_set, z, D)
        tag = "pi image"
    else:
        from .twisted import TwistedContext

        elems = rho_bethe_images(TwistedContext(index_set), z, D)
        tag = "rho image"
    rows = verify_image_commutativity(elems, gl)
    return [(f"{tag} {item}", ok) for item, ok in rows]


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
