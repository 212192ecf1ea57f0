import json
import os
from functools import reduce
from operator import mul

import pytest

from bethe import yangian
from bethe.algebra import YangianRule, commutator
from bethe.indices import IndexSet, parse_z_spec
from bethe.rationals import ONE, Q
from bethe.series import TruncatedSeries, algebra_ring
from bethe.tensor import antisymmetrizer
from bethe.yangian import (bethe_series, bethe_series_tensor,
                           hat_bethe_series,
                           quantum_determinant, quantum_minor,
                           t_entry_series, t_site_series, z_product,
                           verify_bethe_commutativity, verify_centrality,
                           verify_fusion, verify_hat_identity, verify_rtt)


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert rows and not bad, bad


def test_generating_series_layout():
    rule = YangianRule(IndexSet.plain(2))
    s = t_entry_series(rule, 1, 2, 3)
    assert s.coeffs[0].is_zero()
    assert s.coeffs[2] == rule.element(1, 2, 2)
    d = t_entry_series(rule, 1, 1, 3)
    assert d.coeffs[0] == rule.one()


def test_rtt_residuals_vanish():
    _all_ok(verify_rtt(YangianRule(IndexSet.plain(2)), 2))


def test_rtt_negative_control():
    class Corrupted(YangianRule):
        def raw_bracket(self, a, b):
            out = YangianRule.raw_bracket(self, a, b)
            # flip the sign of every correction term
            return [(-c, w) for c, w in out]

    rows = verify_rtt(Corrupted(IndexSet.plain(2)), 2)
    assert any(not ok for _, ok in rows)


def test_fusion():
    rule = YangianRule(IndexSet.plain(2))
    _all_ok(verify_fusion(rule, 2, 2))


@pytest.mark.parametrize("k", [2, 3])
def test_membership_rows_controls(k):
    # P_12 H = -H = H P_12 H: the flip passes, E_11 (x) E_22 fails, with
    # rational coefficients and with an algebra coefficient T_11^(1)
    from bethe.series import RATIONAL_RING, TruncatedSeries, algebra_ring
    from bethe.tensor import TensorElement, alternator, flip, tensor_ring

    iset = IndexSet.plain(3)
    rule = YangianRule(iset)
    aring = algebra_ring(rule)
    t11 = rule.element(1, 1, 1)
    unit = TensorElement(2, iset, RATIONAL_RING, {((1, 2), (1, 2)): 1})
    for x, ok in ((flip(iset), True), (unit, False)):
        x = x.embed((1, 2), k)
        for coeff in (x, x.map_coeffs(lambda c: t11 * c, aring)):
            block = TruncatedSeries.constant(
                tensor_ring(k, iset, coeff.ring), coeff, 0)
            assert yangian.membership_rows("X", alternator(k, iset),
                                           block) == [("X u^0", ok)]


def test_quantum_determinant_low_coefficients():
    rule = YangianRule(IndexSet.plain(2))
    qd = quantum_determinant(rule, 3)
    t = lambda i, j, r: rule.element(i, j, r)
    assert qd.coeffs[0] == rule.one()
    assert qd.coeffs[1] == t(1, 1, 1) + t(2, 2, 1)
    # independent 2x2 oracle with the package's site shifts u-1, u-2:
    # t11(u-1) t22(u-2) - t21(u-1) t12(u-2)
    s = lambda i, j: t_entry_series(rule, i, j, 3)
    oracle = (s(1, 1).substitute_affine(1, -1) * s(2, 2).substitute_affine(1, -2)
              - s(2, 1).substitute_affine(1, -1) * s(1, 2).substitute_affine(1, -2))
    assert qd == oracle


def test_centrality_small():
    _all_ok(verify_centrality(YangianRule(IndexSet.plain(2)), 2, 2))


# dense Z whose off-diagonal entries reach the index pairs a diagonal Z
# never weights
DENSE_Z = {
    2: [[1, 1, "1"], [1, 2, "1/2"], [2, 1, "-3"], [2, 2, "2"]],
    3: [[1, 1, "1"], [1, 2, "2"], [1, 3, "-1/3"], [2, 1, "1/2"],
        [2, 2, "-1"], [3, 1, "3"], [3, 2, "1"], [3, 3, "5/2"]],
    4: [[1, 1, "2"], [1, 2, "1"], [1, 3, "-1"], [2, 1, "1/2"], [2, 2, "3"],
        [2, 4, "1"], [3, 1, "-1"], [3, 3, "1"], [3, 4, "2"], [4, 2, "2"],
        [4, 3, "1"], [4, 4, "-3/2"]],
}
# rank 1, Z = u v^T: every minor of size 2 or more vanishes
RANK1_Z = [[i, j, str(Q(a) * Q(b))]
           for i, a in enumerate((1, -2, 3), 1)
           for j, b in enumerate((2, Q(1, 2), -1), 1)]


def _json_z(tmp_path, name, entries, iset):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(entries))
    return parse_z_spec(f"json:{path}", iset)


def test_dual_path_constructions_agree(tmp_path):
    # diagonal Z, whose cofactors vanish off I = J (with a repeated and
    # with a zero eigenvalue, which also zeroes cofactors on I = J); dense
    # Z; and a rank-1 Z, whose cofactors of size 2 or more all vanish
    cases = [(2, 2, "diag:1,2"), (3, 2, "diag:1,1,2"), (3, 2, "diag:0,1,2")]
    for N, D in ((2, 4), (3, 3), (4, 2)):
        cases.append((N, D, _json_z(tmp_path, f"z{N}", DENSE_Z[N],
                                    IndexSet.plain(N))))
    cases.append((3, 2, _json_z(tmp_path, "rank1", RANK1_Z,
                                IndexSet.plain(3))))
    for N, D, z in cases:
        iset = IndexSet.plain(N)
        rule = YangianRule(iset)
        if isinstance(z, str):
            z = parse_z_spec(z, iset)
        for k in range(1, N + 1):
            assert bethe_series(k, z, rule, D) == \
                bethe_series_tensor(k, z, rule, D), (N, z.entries, k)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_quantum_determinant_is_the_top_bethe_series(N, tmp_path):
    iset = IndexSet.plain(N)
    rule = YangianRule(iset)
    D = 3 if N < 4 else 2
    qd = quantum_determinant(rule, D)
    diag = parse_z_spec("diag:" + ",".join(str(2 * i - 3)
                                           for i in range(1, N + 1)), iset)
    for z in (diag, _json_z(tmp_path, "dense", DENSE_Z[N], iset)):
        assert bethe_series(N, z, rule, D) == qd


def test_quantum_minor_alternates_in_the_columns():
    rule = YangianRule(IndexSet.plain(3))
    shifted = {}
    minor = lambda rows, cols: quantum_minor(rule, rows, cols, 3, shifted)
    for rows in ((1, 2), (2, 3), (1, 2, 3)):
        cols = rows[::-1] if len(rows) == 2 else (1, 3, 2)
        assert not minor(rows, rows).is_zero()
        assert minor(rows, cols) == -minor(rows, rows)
    assert minor((1, 2), (3, 3)).is_zero()
    assert minor((1, 2, 3), (2, 1, 2)).is_zero()


def test_bethe_constant_terms():
    # u^0 coefficient of B_k is e_{N-k}(z) / binomial(N, k)
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    z = parse_z_spec("diag:1,2", iset)
    b1 = bethe_series(1, z, rule, 1)
    assert b1.coeffs[0] == rule.one() * Q(3, 2)
    b2 = bethe_series(2, z, rule, 1)
    assert b2.coeffs[0] == rule.one()


def test_commutativity_small_budget():
    iset = IndexSet.plain(2)
    z = parse_z_spec("diag:1,2", iset)
    _all_ok(verify_bethe_commutativity(z, YangianRule(iset), budget=3))


def test_hat_identity_scalar_is_reciprocal_binomial():
    iset = IndexSet.plain(2)
    z = parse_z_spec("diag:1,2", iset)
    rows = verify_hat_identity(z, YangianRule(iset), 3)
    _all_ok(rows)
    assert "scalar 1/2" in rows[0][0]


@pytest.mark.parametrize("factor", [Q(2), Q(1, 4)])
def test_hat_identity_negative_control(monkeypatch, factor):
    # 1/4 = 1/binomial(2,1)**2 is the factor that the scalar binomial(2,1)
    # would absorb at k=1, had it been accepted besides 1/binomial(2,1)
    iset = IndexSet.plain(2)
    z = parse_z_spec("diag:1,2", iset)
    monkeypatch.setattr(yangian, "hat_bethe_series",
                        lambda *a: hat_bethe_series(*a) * factor)
    rows = verify_hat_identity(z, YangianRule(iset), 2)
    assert [item for item, _ in rows] == ["hat identity k=1 (scalar 1/2)",
                                          "hat identity k=2 (scalar 1)"]
    assert not any(ok for _, ok in rows)


def test_hat_series_starts_at_elementary_symmetric():
    iset = IndexSet.plain(2)
    rule = YangianRule(iset)
    z = parse_z_spec("diag:1,2", iset)
    h1 = hat_bethe_series(1, z, rule, 1)
    assert h1.coeffs[0] == rule.one() * Q(3)  # e_1(z) = 1 + 2


GOLDEN_Z = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "z-gl3-dense.json")


def _descending_hat_trace(k, z, rule, D):
    """tr(Z_1..Z_k H_k . hat-T_k(u-k) .. hat-T_1(u-1)) from the full
    product of the k-site inverse factors: the construction that the word
    transfer of `hat_bethe_series` replaced."""
    iset = rule.index_set
    x = reduce(mul, [t_site_series(rule, k, p, D).invert()
                     .substitute_affine(1, -p) for p in range(k, 0, -1)])
    h = z_product(z, range(1, k + 1), k) * antisymmetrizer(k, iset)
    ring = algebra_ring(rule)
    return TruncatedSeries(ring, [ring.sum([
        c.entries[(b, a)] * v for (a, b), v in h.entries.items()
        if (b, a) in c.entries]) for c in x.coeffs], D)


@pytest.mark.parametrize("N, D", [(2, 3), (3, 3), (4, 2)])
def test_hat_series_is_the_descending_product_trace(N, D, tmp_path):
    iset = IndexSet.plain(N)
    rule = YangianRule(iset)
    # the k-site oracle is slow at N = 4, where only the dense Z runs
    zs = [_json_z(tmp_path, "dense", DENSE_Z[N], iset)]
    if N < 4:
        zs.append(parse_z_spec("diag:" + ",".join(
            str(2 * i - 3) for i in range(1, N + 1)), iset))
    if N == 3:
        zs.append(parse_z_spec(f"json:{GOLDEN_Z}", iset))
    for z in zs:
        for k in range(1, N + 1):
            got = hat_bethe_series(k, z, rule, D)
            assert got == _descending_hat_trace(k, z, rule, D), \
                (N, z.entries, k)
            assert got.trunc == D
