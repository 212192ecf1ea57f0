"""End-to-end acceptance suite.

Each test certifies one headline property of the package at the reference
sizes: the tensor-level identities, the defining relations and commuting
families in the plain and twisted algebras, the graded (Poisson) layer, and
the rank certificates for the shift-of-argument families.  Every check is
exact over the rationals; a test passes only when all residuals vanish
identically (or the certified rank matches the closed-form dimension).
"""
import json

from bethe.algebra import YangianRule
from bethe.certify import (rank_table, verify_classical_slice_rank,
                           verify_jacobian_rank, verify_laplace_consistency,
                           verify_poisson_rank, verify_symbol_homomorphy,
                           verify_twisted_parity)
from bethe.cli import main
from bethe.evalmap import (verify_pi_rho_image_commutativity,
                           verify_rho_homomorphy)
from bethe.indices import IndexSet, parse_z_spec
from bethe.poisson import PoissonContext, bethe_family
from bethe.tensor import verify_antisymmetrizers, verify_r_identities
from bethe.twisted import (TwistedContext, verify_prop36, verify_reflection,
                           verify_sklyanin, verify_symmetry,
                           verify_twisted_commutativity)
from bethe.yangian import (bethe_series, verify_bethe_commutativity,
                           verify_centrality, verify_fusion,
                           verify_hat_identity, verify_rtt)
from oracles import bethe_series_tensor

SP2 = TwistedContext(IndexSet.signed(2, "sp"))
SO3 = TwistedContext(IndexSet.signed(3, "so"))
SO4 = TwistedContext(IndexSet.signed(4, "so"))
Z_SP = parse_z_spec("diag:1", SP2.index_set, "prime_skew")
Z_SO = parse_z_spec("diag:1", SO3.index_set, "prime_skew")
Z_SO_SYM = parse_z_spec("diag:1", SO3.index_set, "prime_symmetric")
Z_SO4 = parse_z_spec("diag:1,2", SO4.index_set, "prime_skew")


def _all_ok(rows):
    assert rows
    bad = [item for item, ok in rows if not ok]
    assert not bad, bad


def _plain_z(N):
    iset = IndexSet.plain(N)
    return iset, parse_z_spec("diag:" + ",".join(str(i) for i in
                                                 range(1, N + 1)), iset)


def test_criterion_01_r_matrix_identities():
    for N in (2, 3, 4):
        _all_ok(verify_r_identities(IndexSet.plain(N)))
    for iset in (SO3.index_set, SO4.index_set, SP2.index_set,
                 IndexSet.signed(4, "sp")):
        _all_ok(verify_r_identities(iset))


def test_criterion_02_yang_baxter_plain_and_mixed():
    for N in (2, 3):
        rows = verify_r_identities(IndexSet.plain(N))
        _all_ok(rows)
        assert f"Yang-Baxter N={N}" in dict(rows)
    for iset in (SO3.index_set, SP2.index_set):
        rows = verify_r_identities(iset)
        _all_ok(rows)
        assert sum("mixed exchange" in item for item, _ in rows) == 3


def test_criterion_03_antisymmetrizers_with_orientation():
    for N in (2, 3, 4):
        rows = verify_antisymmetrizers(IndexSet.plain(N))
        _all_ok(rows)
        # the chosen arrow orientation is part of the detail rows
        assert any("orientation" in item for item, _ in rows)


def test_criterion_04_rtt_self_check():
    _all_ok(verify_rtt(YangianRule(IndexSet.plain(2)), 4))
    _all_ok(verify_rtt(YangianRule(IndexSet.plain(3)), 3))


def test_criterion_05_fusion():
    for N in (2, 3):
        rule = YangianRule(IndexSet.plain(N))
        for k in range(2, N + 1):
            _all_ok(verify_fusion(rule, k, 3))


def test_criterion_06_bethe_commutativity():
    iset2, z2 = _plain_z(2)
    _all_ok(verify_bethe_commutativity(z2, YangianRule(iset2), budget=5))
    iset3, z3 = _plain_z(3)
    _all_ok(verify_bethe_commutativity(z3, YangianRule(iset3), budget=4))


def test_criterion_07_quantum_determinant_centrality():
    for N in (2, 3):
        _all_ok(verify_centrality(YangianRule(IndexSet.plain(N)), 3))


def test_criterion_08_hat_identity():
    iset, z = _plain_z(2)
    rows = verify_hat_identity(z, YangianRule(iset), 4)
    _all_ok(rows)


def test_criterion_09_dual_path_equality():
    for N, D in ((2, 4), (3, 3)):
        iset, z = _plain_z(N)
        rule = YangianRule(iset)
        for k in range(1, N + 1):
            assert bethe_series(k, z, rule, D) == \
                bethe_series_tensor(k, z, rule, D)


def test_criterion_10_twisted_symmetry():
    _all_ok(verify_symmetry(SP2, 4))
    _all_ok(verify_symmetry(SO3, 4))


def test_criterion_11_reflection_relation():
    _all_ok(verify_reflection(SP2, 4))
    _all_ok(verify_reflection(SO3, 3))


def test_criterion_12_twisted_commutativity():
    _all_ok(verify_twisted_commutativity(SP2, Z_SP, budget=4))
    _all_ok(verify_twisted_commutativity(SO3, Z_SO, budget=3))


def test_criterion_13_sklyanin_determinant_and_centrality():
    _all_ok(verify_sklyanin(SP2, Z_SP, 4))
    _all_ok(verify_sklyanin(SO3, Z_SO, 4))


def test_criterion_14_hat_family_trace_form():
    # the twisted hat identity, the trace form at the fixed scalar (the
    # constant series 1) for every k, and the exchange identity, which
    # carries one factor of u
    one = "[Fraction(1, 1)" + ", Fraction(0, 1)" * 3 + "]"
    for ctx, z in ((SP2, Z_SP), (SO3, Z_SO_SYM)):
        rows = verify_prop36(ctx, z, 3)
        _all_ok(rows)
        N = ctx.index_set.N
        items = [item for item, _ in rows]
        assert sum(i.startswith("twisted hat identity") for i in items) == N
        assert [f"trace-form scalar k={k}: {one}" for k in range(1, N + 1)] \
            == [i for i in items if i.startswith("trace-form scalar")]
        assert "exchange scalar c(u) = 1*u + 0" in items


def test_criterion_15_rho_homomorphy():
    _all_ok(verify_rho_homomorphy(SP2, 3))
    _all_ok(verify_rho_homomorphy(SO3, 3))


def test_criterion_16_image_commutativity():
    iset3, z3 = _plain_z(3)
    _all_ok(verify_pi_rho_image_commutativity(iset3, z3, 3))
    _all_ok(verify_pi_rho_image_commutativity(SP2.index_set, Z_SP, 3))
    _all_ok(verify_pi_rho_image_commutativity(SO3.index_set, Z_SO, 3))


def test_criterion_17_symbol_homomorphy():
    _all_ok(verify_symbol_homomorphy(IndexSet.plain(2), 2, seed=0))
    _all_ok(verify_symbol_homomorphy(IndexSet.plain(2), 3, seed=1))


def test_criterion_18_determinant_expansion_consistency():
    for N in (2, 3):
        iset, z = _plain_z(N)
        for M in (1, 2):
            _all_ok(verify_laplace_consistency(iset, z, M))
    for iset, z in ((SP2.index_set, Z_SP), (SO3.index_set, Z_SO)):
        for M in (1, 2):
            _all_ok(verify_laplace_consistency(iset, z, M))


PLAIN_RANK_CASES = [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_criterion_19_plain_jacobian_rank():
    for N, M in PLAIN_RANK_CASES:
        iset, z = _plain_z(N)
        ctx = PoissonContext(iset, M)
        assert rank_table(iset, M)[0] == M * N * (N + 1) // 2
        _all_ok(verify_jacobian_rank(ctx, z))


def test_criterion_20_plain_poisson_rank():
    for N, M in PLAIN_RANK_CASES:
        iset, _ = _plain_z(N)
        ctx = PoissonContext(iset, M)
        assert rank_table(iset, M)[1] == M * (N * N - N)
        _all_ok(verify_poisson_rank(ctx))


TWISTED_RANK_CASES = [(SO3, Z_SO, 1), (SO3, Z_SO, 3),
                      (SP2, Z_SP, 1), (SP2, Z_SP, 3),
                      (SO4, Z_SO4, 2)]


def test_criterion_21_twisted_jacobian_rank():
    for tctx, z, M in TWISTED_RANK_CASES:
        ctx = PoissonContext(tctx.index_set, M)
        _all_ok(verify_jacobian_rank(ctx, z))


def test_criterion_22_twisted_poisson_rank():
    for tctx, _, M in TWISTED_RANK_CASES:
        ctx = PoissonContext(tctx.index_set, M)
        _all_ok(verify_poisson_rank(ctx))


def test_criterion_23_twisted_parity():
    for tctx, z in ((SP2, Z_SP), (SO3, Z_SO), (SO4, Z_SO4)):
        ctx = PoissonContext(tctx.index_set, 2)
        _all_ok(verify_twisted_parity(ctx, z))
        # the zeros the entry identity certifies, read off the expansion
        N = ctx.index_set.N
        for k, table in bethe_family(ctx, z).items():
            assert not any(p for r, p in enumerate(table) if (N - k + r) % 2)


def test_criterion_24_classical_even_orthogonal_slice():
    _all_ok(verify_classical_slice_rank(SO4.index_set, Z_SO4))


def test_criterion_25_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("BETHE_DETERMINISTIC", "1")
    monkeypatch.setenv("BETHE_OUTPUT_DIR", str(tmp_path))
    runs = [
        ["verify", "bethe-commute", "--kind", "gl", "--N", "2",
         "--Z", "diag:1,2", "--budget", "3"],
        ["verify", "sklyanin", "--kind", "sp", "--n", "1", "--D", "3"],
        ["compute", "bethe", "--kind", "gl", "--N", "2",
         "--Z", "diag:1,2", "--k", "2", "--D", "3"],
        ["compute", "poisson-bethe", "--kind", "so", "--n", "1", "--odd",
         "--M", "2"],
    ]
    for t, args in enumerate(runs):
        a = tmp_path / f"run{t}_a.json"
        b = tmp_path / f"run{t}_b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # well-formed JSON
