"""Evaluation substitutions into enveloping algebras, and the defining
matrix representation.

The enveloping algebra U(gl_N) is the Yangian rule capped at level 1,
`YangianRule(index_set, 1)`, whose generator (1, i, j) is E_ij.

* pi: the quotient map onto it: level-1 generators map to E_ij, and the
  capped rule sends every higher level to zero.
* rho: defined on formal S-words; S_ij^(r) maps to F_ij (-+1/2)^{r-1} with
  F_ij = E_ij - eps_ij E_{-j,-i} (upper sign `IndexSet.upper`: so).

Both are `WordMap`s: `pi_map` and `rho_map` build one for a target rule
capped at level 1, and a check builds it once, so each distinct word is
multiplied out once however often it occurs.

The defining representation sends an element to an N x N rational
matrix, a one-site rational `TensorElement`, so matrices multiply by the
tensor product rule.

The fixed-point enveloping algebra has no separate rewriting system here;
its elements live inside the ambient enveloping algebra after F-expansion.

Two suites read the algebras through these maps, and neither loads the
Poisson side: `verify_rho_homomorphy` reads the twisted symmetry and
reflection rows through rho, and `verify_pi_rho_image_commutativity`
checks that the pi or rho images of one commuting family
(`commuting_family`) commute.  The twisted layer is imported only where a
signed index set needs it, so the gl suites do not load it.
"""
from __future__ import annotations

from .algebra import AlgebraElement, WordMap, YangianRule
from .element import derivation
from .indices import IndexSet, ZMatrix
from .rationals import accumulate, rat
from .series import RATIONAL_RING
from .tensor import TensorElement
from .yangian import bethe_series


def pi_map(rule: YangianRule) -> WordMap:
    """Evaluation as a word map into the Yangian `rule` capped at level 1:
    the quotient map, T_ij^(1) -> E_ij, higher levels -> 0."""
    return WordMap(rule, lambda g: rule.element(g[1], g[2], g[0]))


def f_element(rule: YangianRule, i: int, j: int) -> AlgebraElement:
    """F_ij = E_ij - eps_ij E_{-j,-i} inside the ambient enveloping algebra."""
    iset = rule.index_set
    return rule.element(i, j) - rule.element(-j, -i) * iset.eps(i, j)


def rho_map(rule: YangianRule) -> WordMap:
    """rho as a word map on formal S-words into the Yangian `rule` capped
    at level 1: S_ij^(r) -> F_ij (-+1/2)^{r-1} (the upper sign
    `IndexSet.upper` for the orthogonal form)."""
    iset = rule.index_set
    if iset.kind != "signed":
        raise ValueError("rho needs a signed index set with a declared form")
    half = rat(-iset.upper, 2)
    return WordMap(rule, lambda g: f_element(rule, g[1], g[2])
                   * half ** (g[0] - 1))


def defining_rep(e: AlgebraElement, index_set: IndexSet) -> TensorElement:
    """Algebra map to N x N rational matrices, E_ij -> matrix unit, as
    one-site rational tensors."""
    idx = index_set.indices()

    def units(word):
        # the product of matrix units E_{i1 j1} ... E_{ik jk}
        if not word:
            return [(i, i) for i in idx]
        if all(g[2] == h[1] for g, h in zip(word, word[1:])):
            return [(word[0][1], word[-1][2])]
        return []

    return TensorElement(1, index_set, RATIONAL_RING, accumulate({}, (
        (((i,), (j,)), c) for word, c in e.terms.items()
        for i, j in units(word))))


def commuting_family(index_set: IndexSet, z: ZMatrix):
    """(k, D) -> the commuting series of index k through order D: B_k over
    the Yangian on a plain index set, the formal A_k on a signed one."""
    if index_set.kind == "plain":
        rule = YangianRule(index_set)
        return lambda k, D: bethe_series(k, z, rule, D)
    from .twisted import TwistedContext, twisted_bethe_series

    ctx = TwistedContext(index_set)
    return lambda k, D: twisted_bethe_series(ctx, k, z, D)


def verify_image_commutativity(elements: list, index_set: IndexSet) -> list:
    """Pairwise commutators vanish both in the enveloping algebra and in
    the defining matrix representation.  Each element has one derivation,
    applied to every element after it."""
    mats = [defining_rep(e, index_set) for e in elements]
    details = []
    for a in range(len(elements)):
        ad = derivation(elements[a])
        for b in range(a + 1, len(elements)):
            alg_ok = not ad(elements[b])
            details.append((f"pair ({a},{b}) algebra", alg_ok))
            details.append((f"pair ({a},{b}) matrices",
                            mats[a] * mats[b] == mats[b] * mats[a]))
    return details


def verify_rho_homomorphy(ctx, D: int) -> list:
    """The enveloping-algebra substitution kills the symmetry and
    reflection residual families of the `TwistedContext` ctx (it therefore
    factors through the defining relations)."""
    from .twisted import reflection_rows, symmetry_rows

    rho = rho_map(YangianRule(ctx.index_set, 1))
    return (symmetry_rows("rho of symmetry residual", ctx, D, rho)
            + reflection_rows("rho of reflection residual", ctx, D, rho))


def verify_pi_rho_image_commutativity(index_set: IndexSet, z: ZMatrix,
                                      D: int) -> list:
    """Pairwise commutativity of the enveloping-algebra images, in the
    algebra and in the defining representation."""
    gl = YangianRule(index_set, 1)
    if index_set.kind == "plain":
        image, tag = pi_map(gl), "pi image"
    else:
        image, tag = rho_map(gl), "rho image"
    family = commuting_family(index_set, z)
    elems = [image(c) for k in range(1, index_set.N + 1)
             for c in family(k, D).coeffs[1:]]
    rows = verify_image_commutativity(elems, index_set)
    return [(f"{tag} {item}", ok) for item, ok in rows]
