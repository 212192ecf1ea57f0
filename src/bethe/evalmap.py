"""Evaluation substitutions into enveloping algebras, and the defining
matrix representation.

* pi: level-1 generators map to enveloping-algebra generators E_ij, all
  higher levels to zero.
* rho: defined on formal S-words; S_ij^(r) maps to F_ij (-+1/2)^{r-1} with
  F_ij = E_ij - eps_ij E_{-j,-i} (upper sign: orthogonal case).

Both are `WordMap`s: `pi_map` and `rho_map` build one for a target
`GlRule`, and a check builds it once, so each distinct word is multiplied
out once however often it occurs.

The fixed-point enveloping algebra has no separate rewriting system here;
its elements live inside the ambient enveloping algebra after F-expansion.
"""
from __future__ import annotations

from .algebra import AlgebraElement, GlRule, WordMap, commutator
from .indices import IndexSet
from .rationals import accumulate, rat


def pi_map(gl_rule: GlRule) -> WordMap:
    """Evaluation as a word map: T_ij^(1) -> E_ij, higher levels -> 0."""
    return WordMap(gl_rule, lambda g: gl_rule.element(g[1], g[2])
                   if g[0] == 1 else gl_rule.zero())


def f_element(gl_rule: GlRule, i: int, j: int) -> AlgebraElement:
    """F_ij = E_ij - eps_ij E_{-j,-i} inside the ambient enveloping algebra."""
    iset = gl_rule.index_set
    return gl_rule.element(i, j) - gl_rule.element(-j, -i) * iset.eps(i, j)


def rho_map(gl_rule: GlRule) -> WordMap:
    """rho as a word map on formal S-words: S_ij^(r) -> F_ij (-+1/2)^{r-1}
    (upper sign for the orthogonal form)."""
    iset = gl_rule.index_set
    if iset.kind != "signed":
        raise ValueError("rho needs a signed index set with a declared form")
    half = rat(-1, 2) if iset.form == "so" else rat(1, 2)
    return WordMap(gl_rule, lambda g: f_element(gl_rule, g[1], g[2])
                   * half ** (g[0] - 1))


def defining_rep(e: AlgebraElement, index_set: IndexSet) -> dict:
    """Algebra map to N x N rational matrices: E_ij -> matrix unit.

    Returns a sparse dict {(i, j): value}."""
    idx = index_set.indices()

    def units(word):
        # the product of matrix units E_{i1 j1} ... E_{ik jk}
        if not word:
            return [(i, i) for i in idx]
        if all(g[2] == h[1] for g, h in zip(word, word[1:])):
            return [(word[0][1], word[-1][2])]
        return []

    return accumulate({}, ((k, c) for word, c in e.terms.items()
                           for k in units(word)))


def mat_mul(a: dict, b: dict) -> dict:
    by_row: dict = {}
    for (i, j), v in b.items():
        by_row.setdefault(i, []).append((j, v))
    return accumulate({}, (((i, j), v1 * v2) for (i, m), v1 in a.items()
                           for j, v2 in by_row.get(m, ())))


def verify_image_commutativity(elements: list, gl_rule: GlRule) -> list:
    """Pairwise commutators vanish both in the enveloping algebra and in
    the defining matrix representation."""
    iset = gl_rule.index_set
    mats = [defining_rep(e, iset) for e in elements]
    details = []
    for a in range(len(elements)):
        for b in range(a + 1, len(elements)):
            alg_ok = commutator(elements[a], elements[b]).is_zero()
            m1 = mat_mul(mats[a], mats[b])
            m2 = mat_mul(mats[b], mats[a])
            details.append((f"pair ({a},{b}) algebra", alg_ok))
            details.append((f"pair ({a},{b}) matrices", m1 == m2))
    return details
