from itertools import product

import pytest

from bethe.algebra import AlgebraElement, YangianRule
from bethe.evalmap import (defining_rep, f_element, pi_map, rho_map,
                           verify_image_commutativity)
from bethe.indices import IndexSet, parse_z_spec
from bethe.rationals import Q
from bethe.series import RATIONAL_RING
from bethe.tensor import TensorElement
from bethe.twisted import TwistedContext
from bethe.yangian import bethe_series

GL2 = YangianRule(IndexSet.plain(2), 1)
Y2 = YangianRule(IndexSet.plain(2))


def test_pi_on_generators():
    assert pi_map(GL2)(Y2.element(1, 2, 1)) == GL2.element(1, 2)
    assert not pi_map(GL2)(Y2.element(1, 2, 2))
    a = Y2.element(1, 1, 1) * Y2.element(2, 2, 1) + Y2.element(1, 2, 3)
    assert pi_map(GL2)(a) == GL2.element(1, 1) * GL2.element(2, 2)


def test_pi_kills_every_word_with_a_level_two_letter():
    # pi is the quotient by the generators of level > 1: every word of up
    # to three letters that holds a level-2 letter goes to 0, wherever
    # that letter stands, and the level-1 words do not
    idx = Y2.index_set.indices()
    letters = [(r, i, j) for r in (1, 2) for i in idx for j in idx]
    pi = pi_map(GL2)
    for n in (1, 2, 3):
        for word in product(letters, repeat=n):
            image = pi(AlgebraElement(Y2, {word: 1}))
            assert bool(image) == all(g[0] == 1 for g in word), word


def test_pi_is_multiplicative_on_level_one():
    x = Y2.element(1, 2, 1) * Y2.element(2, 1, 1)
    assert pi_map(GL2)(x) == GL2.element(1, 2) * GL2.element(2, 1)


def test_pi_image_of_bethe_coefficient_matches_direct_substitution():
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    gl = YangianRule(iset, 1)
    z = parse_z_spec("diag:1,2", iset)
    b2 = bethe_series(2, z, rule, 2)
    img = pi_map(gl)(b2.coeffs[2])
    # direct: substitute t_ij(u) = delta + E_ij u^-1 into the 2x2
    # sign-alternating product at shifts u-1, u-2 and read off u^-2
    e = lambda i, j: gl.element(i, j)
    # (E11 u^-1 expanded at u-1)(E22 at u-2) - (E21 at u-1)(E12 at u-2):
    # u^-2 coefficient of (1/(u-1))(1/(u-2)) products plus linear re-expansions
    direct = (e(1, 1) * e(2, 2) - e(2, 1) * e(1, 2)
              + e(1, 1) + 2 * e(2, 2))
    assert img == direct


def test_f_element_and_rho_on_generators():
    for ctx, half in ((TwistedContext(IndexSet.signed(2, "sp")), Q(1, 2)),
                      (TwistedContext(IndexSet.signed(3, "so")), Q(-1, 2))):
        iset = ctx.index_set
        gl = YangianRule(iset, 1)
        i, j = 1, iset.indices()[0]
        f = f_element(gl, i, j)
        assert f == gl.element(i, j) - gl.element(-j, -i) * Q(iset.eps(i, j))
        assert rho_map(gl)(ctx.s_gen(i, j, 1)) == f
        assert rho_map(gl)(ctx.s_gen(i, j, 2)) == f * half


def test_rho_needs_signed_set():
    with pytest.raises(ValueError):
        rho_map(GL2)


def test_defining_rep_examples():
    iset = IndexSet.plain(3)
    gl = YangianRule(iset, 1)
    assert defining_rep(gl.one(), iset) == TensorElement.identity(1, iset)
    e12, e21 = gl.element(1, 2), gl.element(2, 1)
    assert defining_rep(e12 * e21, iset) == \
        TensorElement(1, iset, RATIONAL_RING, {((1,), (1,)): 1})
    casimir = gl.zero()
    for i in iset.indices():
        for j in iset.indices():
            casimir = casimir + gl.element(i, j) * gl.element(j, i)
    assert defining_rep(casimir, iset) == \
        TensorElement.identity(1, iset).scale_rat(3)
    # an algebra map: matrices of products are products of matrices
    x = e12 * Q(2) + gl.element(1, 1) * Q(5)
    y = e21 * Q(3) + gl.element(1, 3)
    assert defining_rep(x * y, iset) == \
        defining_rep(x, iset) * defining_rep(y, iset)


def test_image_commutativity_negative_control():
    rows = verify_image_commutativity(
        [GL2.element(1, 2), GL2.element(2, 1)], GL2.index_set)
    assert any(not ok for _, ok in rows)


def test_commuting_pi_images():
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    gl = YangianRule(iset, 1)
    z = parse_z_spec("diag:1,2", iset)
    elems = []
    for k in (1, 2):
        b = bethe_series(k, z, rule, 2)
        elems += [pi_map(gl)(b.coeffs[r]) for r in (1, 2)]
    rows = verify_image_commutativity(elems, iset)
    assert all(ok for _, ok in rows)
