import json
import os

import pytest

from bethe.cli import main
from bethe.reports import Report


@pytest.fixture(autouse=True)
def _deterministic(monkeypatch, tmp_path):
    monkeypatch.setenv("BETHE_DETERMINISTIC", "1")
    monkeypatch.setenv("BETHE_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def test_verify_pass_exit_zero(tmp_path):
    assert main(["verify", "rtt", "--kind", "gl", "--N", "2", "--D", "2"]) == 0
    data = json.loads((tmp_path / "rtt.json").read_text())
    assert data["result"] == "pass"
    assert set(data) == {"check", "params", "result", "details",
                         "runtime_ms", "conventions"}
    assert set(data["conventions"]) == {"h_k_orientation", "s_uk_orientation"}
    for row in data["details"]:
        assert set(row) == {"item", "residual_zero"}


def test_usage_errors_exit_two():
    assert main(["verify", "no-such-check"]) == 2
    assert main(["verify", "rtt", "--kind", "gl"]) == 2      # missing --N
    assert main(["verify", "sklyanin", "--kind", "gl", "--N", "2"]) == 2
    assert main(["verify", "classical-so2n", "--kind", "sp", "--n", "1"]) == 2


@pytest.mark.parametrize("z", ["diag:1,x", "diag:1/0", "diag:1,2,3",
                               "diag:", "nonsense"])
def test_malformed_z_is_a_usage_error(z, capsys):
    assert main(["verify", "rtt", "--kind", "gl", "--N", "2", "--Z", z]) == 2
    assert capsys.readouterr().err.startswith("error: --Z")


def _json_z(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return f"json:{path}"


def test_json_z_takes_integers_and_fraction_strings(tmp_path):
    # the file format is [[i, j, value], ...]; a value is a JSON integer
    # or a "p/q" string, and the file gives the table of the same diagonal
    args = ["compute", "bethe", "--kind", "gl", "--N", "2", "--k", "1",
            "--D", "1"]
    z = _json_z(tmp_path, "z.json", [[1, 1, 2], [2, 2, "3/2"]])
    assert main(args + ["--Z", z, "--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--Z", "diag:2,3/2",
                        "--out", str(tmp_path / "b.json")]) == 0
    tables = [json.loads((tmp_path / f).read_text())
              for f in ("a.json", "b.json")]
    assert tables[0]["series"] == tables[1]["series"]


@pytest.mark.parametrize("value", [1.5, True])
def test_json_z_refuses_floats_and_booleans(tmp_path, capsys, value):
    z = _json_z(tmp_path, "z.json", [[1, 1, value], [2, 2, 2]])
    assert main(["verify", "rtt", "--kind", "gl", "--N", "2", "--Z", z]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --Z") and "p/q" in err


@pytest.mark.parametrize("flags", [
    ["--kind", "sp", "--N", "3"],                 # odd symplectic size
    ["--kind", "gl", "--N", "0"],
    ["--kind", "gl", "--N", "2", "--D", "-1"],
    ["--kind", "gl", "--N", "2", "--M", "0"],
])
def test_out_of_range_flags_are_usage_errors(flags):
    assert main(["verify", "rtt", *flags]) == 2


def test_a_value_error_inside_a_computation_is_internal(monkeypatch, capsys):
    import bethe.cli as cli

    def broken(ctx, z, D):
        raise ValueError("planted")

    monkeypatch.setattr(cli, "verify_sklyanin", broken)
    assert main(["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd",
                 "--D", "1"]) == 3
    assert "internal error: ValueError: planted" in capsys.readouterr().err


def test_prop36_labels_are_the_same_for_every_scalar_type():
    from fractions import Fraction

    from bethe.cli import scalar_list_label

    text = "[Fraction(1, 1), Fraction(0, 1), Fraction(-3, 2)]"
    assert scalar_list_label([1, 0, Fraction(-3, 2)]) == text
    assert scalar_list_label([Fraction(1), Fraction(0),
                              Fraction(-3, 2)]) == text
    assert scalar_list_label([Fraction(2, 2), Fraction(0, 5),
                              Fraction(-6, 4)]) == text


def test_reports_are_byte_identical(tmp_path):
    args = ["verify", "jacobian", "--kind", "gl", "--N", "2", "--M", "1"]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_compute_bethe_constant_term(tmp_path):
    assert main(["compute", "bethe", "--kind", "gl", "--N", "3",
                 "--Z", "diag:1,2,3", "--k", "2", "--D", "2"]) == 0
    data = json.loads((tmp_path / "bethe.json").read_text())
    (row,) = data["series"]
    assert row["k"] == 2
    assert row["coeffs"][0] == {"terms": [{"word": [], "coeff": "2/1"}]}


def test_compute_tables_are_byte_identical(tmp_path):
    args = ["compute", "poisson-bethe", "--kind", "sp", "--n", "1", "--M", "1"]
    assert main(args + ["--out", str(tmp_path / "p1.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "p2.json")]) == 0
    assert (tmp_path / "p1.json").read_bytes() == \
        (tmp_path / "p2.json").read_bytes()


def test_compute_qdet_has_d_plus_one_coefficients(tmp_path):
    assert main(["compute", "qdet", "--kind", "gl", "--N", "2",
                 "--D", "4"]) == 0
    data = json.loads((tmp_path / "qdet.json").read_text())
    assert len(data["series"][0]["coeffs"]) == 5


def test_text_format(tmp_path):
    out = tmp_path / "r.txt"
    assert main(["verify", "rtt", "--kind", "gl", "--N", "2", "--D", "1",
                 "--format", "text", "--out", str(out)]) == 0
    body = out.read_text()
    assert "result: pass" in body and "PASS" in body


def test_report_failure_exit_one(tmp_path, monkeypatch):
    rep = Report("demo", {}, [("bad row", False)], 0, {})
    assert not rep.passed and rep.to_dict()["result"] == "fail"
    import bethe.cli as cli
    monkeypatch.setattr(cli, "run_check",
                        lambda cfg, name: [("forced residual", False)])
    code = main(["verify", "rtt", "--kind", "gl", "--N", "2"])
    assert code == 1
    data = json.loads((tmp_path / "rtt.json").read_text())
    assert data["result"] == "fail"


def test_odd_orthogonal_flag(tmp_path):
    assert main(["verify", "twisted-symmetry", "--kind", "so", "--n", "1",
                 "--odd", "--D", "2"]) == 0


def test_internal_error_exit_three(monkeypatch, capsys):
    import bethe.cli as cli

    def boom(cfg, name):
        raise AssertionError("guard tripped")

    monkeypatch.setattr(cli, "run_check", boom)
    assert main(["verify", "rtt", "--kind", "gl", "--N", "2"]) == 3
    assert "internal error: AssertionError: guard tripped" in \
        capsys.readouterr().err


def test_determinant_guard_is_an_internal_error(monkeypatch, capsys):
    import bethe.poisson as poisson

    real = poisson.det_poly

    def stray_degree(context, z):
        full = real(context, z)
        full[(99, 0)] = poisson.PoissonPoly.constant(context, 1)
        return full

    monkeypatch.setattr(poisson, "det_poly", stray_degree)
    assert main(["compute", "poisson-bethe", "--kind", "gl", "--N", "2"]) == 3
    assert "unexpected degree" in capsys.readouterr().err


def test_conventions_guard_is_an_internal_error(monkeypatch, capsys):
    import bethe.cli as cli

    def no_orientation(k, index_set):
        raise AssertionError("no arrow orientation reproduces the projector")

    monkeypatch.setattr(cli, "h_k_orientation", no_orientation)
    assert main(["verify", "rtt", "--kind", "gl", "--N", "2"]) == 3
    assert "no arrow orientation" in capsys.readouterr().err


@pytest.mark.parametrize("args, D", [
    (["bethe-commute", "--kind", "gl", "--N", "2", "--budget", "3"], 2),
    (["twisted-commute", "--kind", "so", "--n", "1", "--odd",
      "--budget", "2"], 1),
])
def test_commute_reports_the_effective_truncation(tmp_path, args, D):
    # the suites truncate at budget - 1, whatever --D (default 3) says
    assert main(["verify", *args, "--D", "5"]) == 0
    data = json.loads((tmp_path / f"{args[0]}.json").read_text())
    assert data["params"]["D"] == D


def test_poisson_bethe_k_out_of_range_is_usage_error():
    assert main(["compute", "poisson-bethe", "--kind", "gl", "--N", "2",
                 "--k", "3"]) == 2


# -- planted defects: every Poisson check must be able to fail ----------------


@pytest.mark.parametrize("algebra", [["--kind", "gl", "--N", "2"],
                                     ["--kind", "sp", "--n", "1"]])
def test_jacobian_fails_without_last_family_polynomial(monkeypatch, algebra):
    import bethe.cli as cli

    args = ["verify", "jacobian", *algebra, "--M", "1"]
    assert main(args) == 0
    real = cli.bethe_family

    def short_family(context, z, **kwargs):
        family = real(context, z, **kwargs)
        family[max(family)] = family[max(family)][:-1]
        return family

    monkeypatch.setattr(cli, "bethe_family", short_family)
    assert main(args) == 1


def test_poisson_rank_fails_at_a_non_regular_base_point(monkeypatch):
    import bethe.certify as certify

    args = ["verify", "poisson-rank", "--kind", "sp", "--n", "1", "--M", "1"]
    assert main(args) == 0
    real = certify.principal_nilpotent

    def without_middle_term(index_set, variant="section4"):
        ent = real(index_set, variant)
        del ent[(1, -1)]
        return ent

    monkeypatch.setattr(certify, "principal_nilpotent", without_middle_term)
    assert main(args) == 1


def test_classical_so2n_fails_for_non_generic_z():
    args = ["verify", "classical-so2n", "--kind", "so", "--n", "2"]
    assert main(args + ["--Z", "diag:1,2"]) == 0
    assert main(args + ["--Z", "diag:1,1"]) == 1


def test_poisson_jacobi_fails_for_a_symmetric_bracket(monkeypatch):
    from bethe.poisson import PoissonContext

    args = ["verify", "poisson-jacobi", "--kind", "gl", "--N", "2"]
    assert main(args) == 0
    real = PoissonContext.gen_bracket

    def sign_flipped(self, a, b):
        br = real(self, a, b)
        return -br if a > b else br

    monkeypatch.setattr(PoissonContext, "gen_bracket", sign_flipped)
    assert main(args) == 1


def test_symbol_hom_fails_for_a_doubled_bracket(monkeypatch):
    from bethe.poisson import PoissonContext

    args = ["verify", "symbol-hom", "--kind", "gl", "--N", "2"]
    assert main(args) == 0
    real = PoissonContext.gen_bracket

    def doubled(self, a, b):
        br = real(self, a, b)
        return br * 2 if a < b else br

    monkeypatch.setattr(PoissonContext, "gen_bracket", doubled)
    assert main(args) == 1


def test_jacobian_reports_a_parity_violation(monkeypatch, tmp_path):
    import bethe.poisson as poisson

    args = ["verify", "jacobian", "--kind", "sp", "--n", "1", "--M", "1"]
    assert main(args) == 0
    real = poisson.det_poly

    def odd_coefficient(context, z):
        # sp2, M=1: c^(0) of the k=1 member (u^1 v^1) must vanish
        full = real(context, z)
        full[(1, 1)] = poisson.PoissonPoly.constant(context, 1)
        return full

    monkeypatch.setattr(poisson, "det_poly", odd_coefficient)
    assert main(args) == 1
    rows = json.loads((tmp_path / "jacobian.json").read_text())["details"]
    assert {"item": "parity zeros k=1", "residual_zero": False} in rows
    # the other callers keep the guard
    assert main(["compute", "poisson-bethe", "--kind", "sp", "--n", "1",
                 "--M", "1"]) == 3


# -- planted defects in the plain Yangian checks -----------------------------------


def test_bethe_commute_fails_for_a_perturbed_z(monkeypatch):
    from bethe import yangian
    from bethe.indices import ZMatrix

    args = ["verify", "bethe-commute", "--kind", "gl", "--N", "3",
            "--budget", "3"]
    assert main(args) == 0
    real = yangian.bethe_series

    def b1_off_family(k, z, rule, D):
        # B_1 from a Z with one more entry: no longer in the family of B_2
        if k == 1:
            z = ZMatrix(z.index_set, {**z.entries, (1, 2): 1})
        return real(k, z, rule, D)

    monkeypatch.setattr(yangian, "bethe_series", b1_off_family)
    assert main(args) == 1


def test_centrality_fails_for_the_permanent(monkeypatch):
    from bethe import yangian

    args = ["verify", "centrality", "--kind", "gl", "--N", "2", "--D", "2"]
    assert main(args) == 0
    # every sign +1: the quantum permanent, which is not central
    monkeypatch.setattr(yangian, "perm_sign", lambda sigma: 1)
    assert main(args) == 1


def test_fusion_fails_for_a_doubled_site_spacing(monkeypatch):
    from bethe import yangian

    args = ["verify", "fusion", "--kind", "gl", "--N", "2", "--D", "2"]
    assert main(args) == 0
    real = yangian.t_site_series

    def doubled_spacing(rule, sites, pos, D, hat=False):
        # T_p(u - 2p) in place of T_p(u - p): R(2) is not a multiple of H_2
        return real(rule, sites, pos, D, hat).substitute_affine(1, -pos)

    monkeypatch.setattr(yangian, "t_site_series", doubled_spacing)
    assert main(args) == 1


# -- planted defects in the twisted paths --------------------------------------


def _double_s11_level2(monkeypatch):
    """Expand S_{1,1}^(2) to twice its value.  Patched on the class before
    any context exists, since contexts memoize what they derive from it."""
    from bethe import twisted

    real = twisted.TwistedContext.expand_gen

    def doubled(self, g):
        out = real(self, g)
        return out * 2 if g == (2, 1, 1) else out

    monkeypatch.setattr(twisted.TwistedContext, "expand_gen", doubled)


@pytest.mark.parametrize("args", [
    ["verify", "twisted-reflection", "--kind", "sp", "--n", "1", "--D", "3"],
    ["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd", "--D", "2"],
    ["verify", "twisted-commute", "--kind", "so", "--n", "1", "--odd",
     "--budget", "4"],
    ["verify", "twisted-symmetry", "--kind", "so", "--n", "1", "--odd",
     "--D", "3"],
])
def test_twisted_checks_fail_for_a_wrong_expansion(monkeypatch, args):
    assert main(args) == 0
    _double_s11_level2(monkeypatch)
    assert main(args) == 1


def test_sklyanin_fails_without_theta(monkeypatch):
    from bethe import twisted
    from bethe.series import RATIONAL_RING, TruncatedSeries

    args = ["verify", "sklyanin", "--kind", "sp", "--n", "1", "--D", "2"]
    assert main(args) == 0
    monkeypatch.setattr(twisted, "theta_series",
                        lambda ctx, D: TruncatedSeries.one(RATIONAL_RING, D))
    assert main(args) == 1


def test_prop36_fails_for_the_flip_in_the_exchange(monkeypatch, tmp_path):
    # R~(u) = u - P in place of u - Q: Z_1 P Z_2 H_2 is not zero
    from bethe import tensor, twisted

    args = ["verify", "prop36", "--kind", "sp", "--n", "1", "--D", "2"]
    row = {"item": "exchange scalar c(u) = 1*u + 0", "residual_zero": True}
    assert main(args) == 0
    assert row in json.loads((tmp_path / "prop36.json").read_text())["details"]
    monkeypatch.setattr(twisted, "q_tensor", tensor.flip)
    assert main(args) == 1
    rows = json.loads((tmp_path / "prop36.json").read_text())["details"]
    assert {**row, "residual_zero": False} in rows


def test_rho_hom_fails_without_the_eps_partner(monkeypatch, tmp_path):
    from bethe import evalmap

    args = ["verify", "rho-hom", "--kind", "so", "--n", "1", "--odd",
            "--D", "2"]
    assert main(args) == 0
    # F_ij = E_ij alone: rho no longer factors through the symmetry
    # relation, nor through the reflection relation
    monkeypatch.setattr(evalmap, "f_element",
                        lambda gl_rule, i, j: gl_rule.element(i, j))
    assert main(args) == 1
    rows = json.loads((tmp_path / "rho-hom.json").read_text())["details"]
    assert any(row["item"].startswith("rho of reflection residual")
               and not row["residual_zero"] for row in rows)
