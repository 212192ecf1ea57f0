import pytest

from bethe.algebra import GlRule, YangianRule, commutator
from bethe.evalmap import (defining_rep, f_element, mat_mul, pi_map,
                           rho_map, verify_image_commutativity)
from bethe.indices import IndexSet, parse_z_spec
from bethe.rationals import Q
from bethe.twisted import TwistedContext
from bethe.yangian import bethe_series

GL2 = GlRule(IndexSet.plain(2))
Y2 = YangianRule(IndexSet.plain(2))


def test_pi_on_generators():
    assert pi_map(GL2)(Y2.element(1, 2, 1)) == GL2.element(1, 2)
    assert pi_map(GL2)(Y2.element(1, 2, 2)).is_zero()
    a = Y2.element(1, 1, 1) * Y2.element(2, 2, 1) + Y2.element(1, 2, 3)
    assert pi_map(GL2)(a) == GL2.element(1, 1) * GL2.element(2, 2)


def test_pi_is_multiplicative_on_level_one():
    x = Y2.element(1, 2, 1) * Y2.element(2, 1, 1)
    assert pi_map(GL2)(x) == GL2.element(1, 2) * GL2.element(2, 1)


def test_pi_image_of_bethe_coefficient_matches_direct_substitution():
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    gl = GlRule(iset)
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
        gl = GlRule(iset)
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
    gl = GlRule(iset)
    assert defining_rep(gl.one(), iset) == {(i, i): Q(1) for i in (1, 2, 3)}
    assert defining_rep(gl.element(1, 2) * gl.element(2, 1), iset) == \
        {(1, 1): Q(1)}
    casimir = gl.zero()
    for i in iset.indices():
        for j in iset.indices():
            casimir = casimir + gl.element(i, j) * gl.element(j, i)
    assert defining_rep(casimir, iset) == {(i, i): Q(3) for i in (1, 2, 3)}


def test_mat_mul():
    a = {(1, 2): Q(2)}
    b = {(2, 1): Q(3), (1, 1): Q(5)}
    assert mat_mul(a, b) == {(1, 1): Q(6)}


def test_image_commutativity_negative_control():
    rows = verify_image_commutativity(
        [GL2.element(1, 2), GL2.element(2, 1)], GL2)
    assert any(not ok for _, ok in rows)


def test_commuting_pi_images():
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    gl = GlRule(iset)
    z = parse_z_spec("diag:1,2", iset)
    elems = []
    for k in (1, 2):
        b = bethe_series(k, z, rule, 2)
        elems += [pi_map(gl)(b.coeffs[r]) for r in (1, 2)]
    rows = verify_image_commutativity(elems, gl)
    assert all(ok for _, ok in rows)
