import json
import sys

import pytest

from bethe.cli import main
from bethe.reports import Report
from faults import PARTNER_JACOBIANS, RANK_CHECKS, check, control, controls


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


@pytest.mark.parametrize("entries, message", [
    pytest.param([[1, 1, 1.5], [2, 2, 2]], "p/q", id="1.5"),
    pytest.param([[1, 1, True], [2, 2, 2]], "p/q", id="True"),
    # an index is a JSON integer of the index set, and (i, j) comes once
    pytest.param([[1, 5, "1"]], "index 5 outside", id="index-5"),
    pytest.param([[1.5, 1, "1"]], "index 1.5 outside", id="index-1.5"),
    pytest.param([[True, 1, "1"]], "index True outside", id="index-true"),
    pytest.param([["1", 1, "1"]], "index '1' outside", id="index-string"),
    pytest.param([[1, 1, "1"], [1, 1, 2]], "(1, 1) is given twice",
                 id="repeated-entry"),
])
def test_json_z_refuses_floats_and_booleans(tmp_path, capsys, entries,
                                            message):
    z = _json_z(tmp_path, "z.json", entries)
    out = tmp_path / "bethe.json"
    assert main(["compute", "bethe", "--kind", "gl", "--N", "2", "--D", "1",
                 "--Z", z, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --Z") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "rtt"], ["verify", "sklyanin"], ["verify", "twisted-commute"],
    ["verify", "jacobian"], ["compute", "twisted-bethe"],
])
def test_so1_runs_with_its_default_z(argv, tmp_path, capsys):
    # the skew default has z_0 = 0; a symmetric Z needs z_0 given
    args = [*argv, "--kind", "so", "--N", "1", "--out",
            str(tmp_path / "out.json")]
    assert main(args) == 0
    if argv[1] != "jacobian":   # which takes a skew Z only
        assert main(args + ["--z-symmetry", "symmetric"]) == 2
        assert "needs its one value z_0" in capsys.readouterr().err
        assert main(args + ["--z-symmetry", "symmetric", "--Z", "diag:1"]) \
            == 0


@pytest.mark.parametrize("flags", [
    ["--kind", "sp", "--N", "3"],                 # odd symplectic size
    ["--kind", "gl", "--N", "0"],
    ["--kind", "gl", "--N", "2", "--D", "-1"],
    ["--kind", "gl", "--N", "2", "--M", "0"],
])
def test_out_of_range_flags_are_usage_errors(flags):
    assert main(["verify", "rtt", *flags]) == 2


@pytest.mark.parametrize("check, algebra, M", [
    ("jacobian", ["--kind", "sp", "--n", "1"], 2),
    ("poisson-rank", ["--kind", "sp", "--n", "1"], 2),
    ("poisson-rank", ["--kind", "so", "--n", "2"], 1),
])
def test_an_untabulated_m_is_a_usage_error(check, algebra, M, capsys):
    # the rank tables hold odd M for sp and odd so, even M for even so
    args = ["verify", check, *algebra, "--M"]
    assert main(args + [str(M)]) == 2
    assert "outside the rank tables" in capsys.readouterr().err
    assert main(args + [str(M + 1)]) == 0


def test_poisson_rank_on_so1_is_the_empty_bracket(tmp_path):
    # so_1 is in the rank tables at odd M; its bracket matrix is empty
    out = tmp_path / "rank.json"
    assert main(["verify", "poisson-rank", "--kind", "so", "--N", "1",
                 "--M", "1", "--Z", "diag:0", "--out", str(out)]) == 0
    assert "bracket rank 0" in out.read_text()


def test_classical_so2n_is_the_certificate_at_m_one(tmp_path, capsys):
    # the slice certificate is stated at M = 1; another --M is refused
    # rather than run at M = 1 under a report that names it
    out = tmp_path / "so2n.json"
    args = ["verify", "classical-so2n", "--kind", "so", "--n", "2",
            "--out", str(out), "--M"]
    assert main(args + ["3"]) == 2
    assert "--M 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["1"]) == 0
    assert json.loads(out.read_text())["params"]["M"] == 1


@pytest.mark.parametrize("algebra, wrong, matched", [
    (["--kind", "so", "--n", "1", "--odd"], [], "symmetric"),  # default skew
    (["--kind", "sp", "--n", "1"], ["--z-symmetry", "symmetric"], "skew"),
])
def test_prop36_needs_a_sign_matched_z(algebra, wrong, matched, tmp_path,
                                       capsys):
    # Proposition 3.6 holds for so with a symmetric Z and sp with a skew Z
    args = ["verify", "prop36", *algebra, "--D", "1",
            "--out", str(tmp_path / "prop36.json")]
    assert main(args + wrong) == 2
    assert f"--z-symmetry {matched}" in capsys.readouterr().err
    assert not (tmp_path / "prop36.json").exists()
    assert main(args + ["--z-symmetry", matched]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "symbol-hom", "--kind", "so", "--n", "1", "--odd"],
    ["verify", "symbol-hom", "--kind", "sp", "--n", "1"],
    ["verify", "jacobian", "--kind", "so", "--n", "1", "--odd"],
    ["verify", "jacobian", "--kind", "sp", "--n", "1"],
    ["compute", "poisson-bethe", "--kind", "so", "--n", "1", "--odd"],
    ["compute", "poisson-bethe", "--kind", "sp", "--n", "1"],
    ["verify", "classical-so2n", "--kind", "so", "--n", "2"],
])
def test_the_determinant_family_needs_a_skew_z(argv, tmp_path, capsys):
    # these ops build the Poisson-side determinant family, which takes a
    # skew Z on so and sp; a symmetric one is bad outside input
    args = [*argv, "--out", str(tmp_path / "out.json")]
    assert main(args + ["--z-symmetry", "symmetric"]) == 2
    assert "--z-symmetry skew" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert main(args) == 0


def test_exhausted_memory_is_internal(monkeypatch, capsys):
    import bethe.twisted as twisted

    def exhausted(ctx, z, D):
        raise MemoryError

    monkeypatch.setattr(twisted, "verify_sklyanin", exhausted)
    # the handler imports nothing: with memory gone, an import can fail
    # and escape main with Python's own exit code
    monkeypatch.setitem(sys.modules, "traceback", None)
    assert main(["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd",
                 "--D", "1"]) == 3
    assert capsys.readouterr().err == \
        "internal error: MemoryError: out of memory\n"


def test_prop36_labels_are_the_same_for_every_scalar_type():
    from fractions import Fraction

    from bethe.twisted import scalar_list_label

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


def test_report_failure_exit_one():
    rep = Report("demo", {}, [("bad row", False)], 0, {})
    assert not rep.passed and rep.to_dict()["result"] == "fail"
    check("run-check-fails")


def test_odd_orthogonal_flag(tmp_path):
    assert main(["verify", "twisted-symmetry", "--kind", "so", "--n", "1",
                 "--odd", "--D", "2"]) == 0


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


@pytest.mark.parametrize("k", ["0", "-1", "3"])
def test_k_outside_one_to_n_is_a_usage_error(k, tmp_path, capsys):
    # --k 0 is a series index out of range, not "every k"
    out = tmp_path / "bethe.json"
    args = ["compute", "bethe", "--kind", "gl", "--N", "2", "--D", "1",
            "--out", str(out), "--k"]
    assert main(args + [k]) == 2
    assert "--k must be in 1..2" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["2"]) == 0
    assert [row["k"] for row in json.loads(out.read_text())["series"]] == [2]


def test_qdet_k_other_than_n_is_a_usage_error(tmp_path, capsys):
    # the quantum determinant is the one series k = N
    out = tmp_path / "qdet.json"
    args = ["compute", "qdet", "--kind", "gl", "--N", "3", "--D", "1",
            "--out", str(out), "--k"]
    assert main(args + ["1"]) == 2
    assert "compute qdet" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["3"]) == 0
    table = json.loads(out.read_text())
    assert table["config"]["k"] == 3
    assert [row["k"] for row in table["series"]] == [3]


def test_classical_so2n_fails_for_non_generic_z():
    args = ["verify", "classical-so2n", "--kind", "so", "--n", "2"]
    assert main(args + ["--Z", "diag:1,2"]) == 0
    assert main(args + ["--Z", "diag:1,1"]) == 1


def test_symbol_hom_draws_only_pairs_its_symbols_read():
    # the quadratics are drawn at levels <= M, so no symbol is zero; the
    # bracket of two of them may vanish (11 of the 50 pairs at gl2 M=1)
    from bethe.algebra import YangianRule, filtration_degree, symbol
    from bethe.certify import symbol_pairs
    from bethe.indices import IndexSet
    from bethe.poisson import PoissonContext

    for N in (2, 3):
        for M in (1, 2, 3):
            iset = IndexSet.plain(N)
            ctx = PoissonContext(iset, M)
            for pair in symbol_pairs(YangianRule(iset, M), 0):
                for x in pair:
                    assert symbol(x, filtration_degree(x), ctx)
    # so a pair holding a generator above M cannot see a fault at level 1,
    # and the rows fail only because each pair can
    check("bracket-negated-at-two-coordinates")


# -- the word transfer behind every trace form -----------------------------------


@pytest.mark.parametrize("args", [
    ["compute", "twisted-bethe", "--kind", "so", "--n", "1", "--odd",
     "--D", "2"],
    ["verify", "prop36", "--kind", "sp", "--n", "1", "--D", "2"],
    ["verify", "hat-identity", "--kind", "gl", "--N", "3", "--D", "2"],
    ["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd", "--D", "2"],
    ["verify", "twisted-commute", "--kind", "so", "--n", "1", "--odd",
     "--budget", "3"],
    ["verify", "fusion", "--kind", "gl", "--N", "2", "--D", "1"],
    ["verify", "rtt", "--kind", "gl", "--N", "2", "--D", "1"],
])
def test_trace_forms_build_no_algebra_valued_block(monkeypatch, args):
    # no tensor on two or more sites with algebra coefficients is formed;
    # the matrix-form RTT relation lifts T(u) to two sites on purpose and
    # shows that the guard sees one
    from bethe.tensor import TensorElement

    real = TensorElement.__init__
    blocks = []

    def watched(self, sites, index_set, ring, entries):
        if sites >= 2 and not ring.rational:
            blocks.append(sites)
        real(self, sites, index_set, ring, entries)

    monkeypatch.setattr(TensorElement, "__init__", watched)
    assert main(args) == 0
    assert bool(blocks) == (args[1] == "rtt")


# -- planted defects, kept under their names: rows of the table in faults.py --
test_a_value_error_inside_a_computation_is_internal = control(
    "sklyanin-raises-a-value-error")
test_internal_error_exit_three = control("run-check-raises")
test_determinant_guard_is_an_internal_error = control("laplace-stray-degree")
test_orientation_rows_fail_for_a_perturbed_r_matrix = control(
    "r-matrix-shifted")
test_jacobian_fails_without_last_family_polynomial = controls({
    f"algebra{i}": ["jacobian-row-dropped"] for i in range(2)})
test_jacobian_fails_without_the_partner_jet_term = controls({
    f"algebra{i}": ["partner-marks", "partner-jet-term-dropped"]
    for i in range(len(PARTNER_JACOBIANS))})
test_poisson_rank_fails_at_a_non_regular_base_point = control(
    "nilpotent-middle-term-dropped")
test_rank_checks_fail_when_the_point_drops_the_partners = controls({
    f"argv{i}": ["point-drops-the-partners"] for i in range(len(RANK_CHECKS))})
test_poisson_jacobi_fails_for_a_symmetric_bracket = control(
    "bracket-symmetric")
test_symbol_hom_fails_for_a_doubled_bracket = control("bracket-doubled")
test_jacobian_reports_a_parity_violation = control("entry-sign-dropped")
test_jacobian_expands_no_determinant = controls({
    f"algebra{i}": ["term-times-raises"] for i in range(2)})
test_poisson_rank_and_jacobi_read_one_bracket_formula = control(
    "bracket-twist-negated", "bracket-terms-antisymmetry-broken")
test_bethe_commute_fails_for_a_perturbed_z = control("b1-off-the-family")
test_centrality_fails_for_the_permanent = control("permanent")
test_fusion_fails_for_a_doubled_site_spacing = control("site-spacing-doubled")
test_twisted_checks_fail_for_a_wrong_expansion = controls({
    f"args{i}": ["s11-level-2-doubled"] for i in range(4)})
test_sklyanin_fails_without_theta = control("theta-series-one")
test_prop36_fails_for_the_flip_in_the_exchange = control(
    "flip-in-the-exchange")
test_sp_checks_see_the_wrong_theta = controls(["theta-one", "theta-negated"])
test_rho_hom_fails_without_the_eps_partner = control("eps-partner-dropped")
test_image_commute_fails_without_the_eps_partner = control(
    "eps-partner-dropped")
test_trace_words_faults_fail_the_trace_forms = controls([
    "dropped-pass-branch", "leg-on-the-wrong-site", "pass-branch-walks-a-leg"])
test_rank_one_faults_fail_the_trace_forms = controls([
    "pair-on-the-wrong-sites", "ket-factors-reversed", "inverse-pair-sign"])
test_expand_gen_faults_fail_the_defining_relations = controls([
    "sign-on-t", "second-factor-transposed", "eps-dropped", "factors-swapped"])
test_graded_member_faults_fail_the_laplace_rows = controls([
    "z-site-dropped", "z-on-the-letter-sites"])
test_pair_step_that_writes_its_input_fails_sklyanin = control(
    "pair-step-writes-its-input")
test_prop36_fails_for_an_uninverted_hat_s = control("hat-s-uninverted")
test_reversed_words_change_the_formal_table = control("words-reversed")
test_steps_walked_backwards_change_the_formal_table = control(
    "steps-walked-backwards")
