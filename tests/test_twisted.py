import pytest

from bethe import twisted
from bethe.indices import IndexSet, parse_z_spec
from bethe.rationals import ONE, Q
from bethe.twisted import (TwistedContext, fused_s, hat_twisted_series,
                           reflection_residual, theta_series, twisted_bethe_series,
                           verify_fused_determinant, verify_fused_membership,
                           verify_fused_z_membership, verify_mixed_rtt,
                           verify_prop36_trace_form, verify_reflection, verify_reflection_matrix_form,
                           verify_sklyanin, verify_symmetry,
                           verify_twisted_commutativity,
                           verify_twisted_hat_identity, verify_z_exchange,
                           verify_z_rmatrix_scalar)

SP2 = TwistedContext(IndexSet.signed(2, "sp"))
SO3 = TwistedContext(IndexSet.signed(3, "so"))
Z_SP = parse_z_spec("diag:1", SP2.index_set, "prime_skew")
Z_SO = parse_z_spec("diag:1", SO3.index_set, "prime_skew")


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert not bad, bad


def test_context_requires_signed_set():
    with pytest.raises(ValueError):
        TwistedContext(IndexSet.plain(2))


def test_expansion_of_first_generators():
    # S_ij^(1) = T_ij^(1) - eps_ij T_{-j,-i}^(1)
    rule = SP2.yang_rule
    assert SP2.expand_gen((1, 1, -1)) == \
        rule.element(1, -1, 1) * Q(2)  # eps_{1,-1} = -1 doubles the entry
    assert SP2.expand_gen((1, 1, 1)) == \
        rule.element(1, 1, 1) - rule.element(-1, -1, 1)


def test_symmetry_relation():
    _all_ok(verify_symmetry(SP2, 3))
    _all_ok(verify_symmetry(SO3, 2))


def test_reflection_relation_componentwise():
    _all_ok(verify_reflection(SP2, 2, 2))


def test_reflection_matrix_form_and_mixed_rtt():
    _all_ok(verify_reflection_matrix_form(SP2, 2))
    _all_ok(verify_mixed_rtt(SP2, 2))
    _all_ok(verify_mixed_rtt(SO3, 2))


def test_fused_membership_needs_expansion():
    _all_ok(verify_fused_membership(SP2, 2, 2))
    _all_ok(verify_z_exchange(SP2, Z_SP))
    _all_ok(verify_fused_z_membership(SP2, Z_SP, 2, 2))


def test_theta_series():
    t_sp = theta_series(SP2, 2)
    assert list(t_sp.coeffs) == [ONE, Q(-1), Q(-1, 2)]  # 1 + 2/(1-2u)
    t_so = theta_series(SO3, 2)
    assert list(t_so.coeffs) == [ONE, Q(0), Q(0)]


def test_sklyanin_identity_and_centrality():
    _all_ok(verify_sklyanin(SP2, Z_SP, 3, central_levels=1))


def test_fused_determinant():
    _all_ok(verify_fused_determinant(SP2, Z_SP, 2))


def test_twisted_commutativity_small():
    _all_ok(verify_twisted_commutativity(SP2, Z_SP, budget=3))


def test_twisted_hat_identity_small():
    rows = verify_twisted_hat_identity(SP2, Z_SP, 2)
    _all_ok(rows)


def test_prop36_scalar_resolution():
    # the trace form equals hat-A_k at the fixed scalar series 1
    assert verify_prop36_trace_form(SP2, Z_SP, 1, 2) is True
    # the exchange holds at the fixed scalar c(u) = u
    assert verify_z_rmatrix_scalar(SP2, Z_SP) == [
        ("exchange scalar c(u) = 1*u + 0", True)]


def _scaled_hat(monkeypatch, factor):
    monkeypatch.setattr(twisted, "hat_twisted_series",
                        lambda *a: hat_twisted_series(*a) * factor)


@pytest.mark.parametrize("factor", [Q(2), Q(1, 4)])
def test_twisted_hat_identity_negative_control(monkeypatch, factor):
    # 1/4 = 1/binomial(2,1)**2 is the factor that the scalar binomial(2,1)
    # would absorb at k=1, had it been accepted besides 1/binomial(2,1)
    _scaled_hat(monkeypatch, factor)
    rows = verify_twisted_hat_identity(SP2, Z_SP, 2)
    assert [item for item, _ in rows] == [
        "twisted hat identity k=1 (scalar 1/2)",
        "twisted hat identity k=2 (scalar 1)"]
    assert not any(ok for _, ok in rows)


def test_prop36_scalar_negative_control(monkeypatch):
    # hat-A_k doubled: the trace form is hat-A_k times 1/2, not times 1
    _scaled_hat(monkeypatch, Q(2))
    assert verify_prop36_trace_form(SP2, Z_SP, 1, 2) is False


def test_twisted_constant_terms():
    # A_k(u) has constant term e_{N-k}(z-spectrum shifts) / binomial(N, k);
    # for k = N the constant term is 1
    a2 = twisted_bethe_series(SP2, 2, Z_SP, 1)
    assert a2.coeffs[0] == SP2.s_rule.one()
    h0 = hat_twisted_series(SP2, 0, Z_SP, 1)
    assert h0.coeffs[0] == SP2.yang_rule.one()


# -- memos on the context --------------------------------------------------------


@pytest.mark.parametrize("iset", [IndexSet.signed(2, "sp"),
                                  IndexSet.signed(3, "so")])
def test_inverse_fused_memo_equals_a_fresh_inverse(iset):
    ctx = TwistedContext(iset)
    for D in (1, 2):
        for k in range(1, iset.N + 1):
            inv = ctx.inverse_fused_s(k, D)
            fresh = fused_s(ctx, k, D).invert()
            assert inv.trunc == D and inv == fresh
            assert ctx.inverse_fused_s(k, D) is inv


def _same_bilaurent(a, b):
    # the two contexts own distinct rule objects, so compare the terms
    return ({k: v.terms for k, v in a.entries.items()}
            == {k: v.terms for k, v in b.entries.items()}
            and (a.cap_u, a.cap_v) == (b.cap_u, b.cap_v))


def test_reflection_residual_on_a_reused_context():
    # the pair memo must key on D and on the carrier: a reused context
    # gives what a fresh one gives at every order and carrier
    iset = IndexSet.signed(2, "sp")
    reused = TwistedContext(iset)
    for expanded in (True, False):
        for D in (2, 3):
            for ijkl in [(1, -1, 1, 1), (-1, 1, 1, -1)]:
                got = reflection_residual(reused, *ijkl, D, expanded=expanded)
                want = reflection_residual(TwistedContext(iset), *ijkl, D,
                                           expanded=expanded)
                assert _same_bilaurent(got, want)
