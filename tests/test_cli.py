import inspect
import json
import os
import sys
import textwrap

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


def test_a_value_error_inside_a_computation_is_internal(monkeypatch, capsys):
    import bethe.twisted as twisted

    def broken(ctx, z, D):
        raise ValueError("planted")

    monkeypatch.setattr(twisted, "verify_sklyanin", broken)
    assert main(["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd",
                 "--D", "1"]) == 3
    assert "internal error: ValueError: planted" in capsys.readouterr().err


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

    real = poisson._laplace

    def stray_degree(rows, unit, times):
        full = real(rows, unit, times)
        full[(99, 0)] = unit
        return full

    monkeypatch.setattr(poisson, "_laplace", stray_degree)
    assert main(["compute", "poisson-bethe", "--kind", "gl", "--N", "2"]) == 3
    assert "unexpected degree" in capsys.readouterr().err


def test_orientation_rows_fail_for_a_perturbed_r_matrix(monkeypatch,
                                                        tmp_path):
    # R_pq(q-p+1) in place of R_pq(q-p): no ordered product gives the
    # projector, so the declared orientations are not found and exactly
    # the H_k orientation rows at k >= 2 fail; the reported conventions
    # are declared, not searched for, and stay as they are
    import bethe.tensor as tensor

    args = ["verify", "fusion", "--kind", "gl", "--N", "3", "--D", "1"]
    assert main(args) == 0
    declared = json.loads((tmp_path / "fusion.json").read_text())
    real = tensor.r_element
    monkeypatch.setattr(tensor, "r_element", lambda p, q, value, k:
                        real(p, q, value + 1, k))
    assert main(args) == 1
    data = json.loads((tmp_path / "fusion.json").read_text())
    failed = [row["item"].split(":")[0] for row in data["details"]
              if not row["residual_zero"]]
    assert failed == ["H_2 orientation", "H_3 orientation"]
    assert data["conventions"] == declared["conventions"]


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


# -- planted defects: every Poisson check must be able to fail ----------------


@pytest.mark.parametrize("algebra", [["--kind", "gl", "--N", "2"],
                                     ["--kind", "sp", "--n", "1"]])
def test_jacobian_fails_without_last_family_polynomial(monkeypatch, algebra):
    # the jet row of the last coefficient of the top member dropped
    import bethe.certify as certify

    args = ["verify", "jacobian", *algebra, "--M", "1"]
    assert main(args) == 0
    real = certify.jacobian_rows

    def short_family(*args):
        return real(*args)[:-1]

    monkeypatch.setattr(certify, "jacobian_rows", short_family)
    assert main(args) == 1


class Partner(tuple):
    """A variable marked as read at its partner entry."""


def partner_entries(real):
    """`det_entries` with the variable of every partner entry, one whose
    representative is another coordinate, marked as a `Partner`."""
    def marked(context, z):
        rows, L = real(context, z)
        idx = context.index_set.indices()
        for i, row in zip(idx, rows):
            for j, entry in zip(idx, row):
                entry[:] = [(d, c, w if w is None or w[1:] == (i, j)
                             else Partner(w)) for d, c, w in entry]
        return rows, L

    return marked


@pytest.mark.parametrize("algebra", [
    ["--kind", "sp", "--n", "1", "--M", "3"],
    ["--kind", "so", "--n", "1", "--odd", "--M", "3"],
    ["--kind", "sp", "--n", "2", "--M", "3"],
    ["--kind", "so", "--n", "2", "--odd", "--M", "3"],
])
def test_jacobian_fails_without_the_partner_jet_term(monkeypatch, algebra):
    # the term a*s*e_w of the jet product dropped for the entries whose
    # variable is tied to the partner coordinate: the rows are no longer
    # a Jacobian, and the members that vanish identically get nonzero
    # rows, so the rank exceeds the table (at so3 and sp2 M = 1 the rank
    # stays 2, which the fault does not reach)
    import bethe.poisson as poisson

    args = ["verify", "jacobian", *algebra]
    assert main(args) == 0
    monkeypatch.setattr(poisson, "det_entries",
                        partner_entries(poisson.det_entries))
    assert main(args) == 0  # the marks alone change nothing
    real = poisson._jet_times

    def dropping(values, coords):
        times, constant = real(values, coords), real(values, set())
        return lambda jet, c, w: (constant if type(w) is Partner
                                  else times)(jet, c, w)

    monkeypatch.setattr(poisson, "_jet_times", dropping)
    assert main(args) == 1


def test_poisson_rank_fails_at_a_non_regular_base_point(monkeypatch):
    import bethe.certify as certify

    args = ["verify", "poisson-rank", "--kind", "sp", "--n", "1", "--M", "1"]
    assert main(args) == 0
    real = certify.principal_nilpotent

    def without_middle_term(index_set):
        ent = real(index_set)
        del ent[(1, -1)]
        return ent

    monkeypatch.setattr(certify, "principal_nilpotent", without_middle_term)
    assert main(args) == 1


def test_classical_so2n_fails_for_non_generic_z():
    args = ["verify", "classical-so2n", "--kind", "so", "--n", "2"]
    assert main(args + ["--Z", "diag:1,2"]) == 0
    assert main(args + ["--Z", "diag:1,1"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "poisson-rank", "--kind", "sp", "--n", "2", "--M", "3"],
    ["verify", "poisson-rank", "--kind", "sp", "--n", "3", "--M", "3"],
    ["verify", "poisson-rank", "--kind", "so", "--n", "2", "--odd", "--M", "3"],
    ["verify", "poisson-rank", "--kind", "so", "--n", "1", "--odd", "--M", "1"],
    ["verify", "poisson-rank", "--kind", "so", "--n", "2", "--M", "2"],
    ["verify", "classical-so2n", "--kind", "so", "--n", "2"],
    ["verify", "classical-so2n", "--kind", "so", "--n", "3"],
])
def test_rank_checks_fail_when_the_point_drops_the_partners(monkeypatch,
                                                            argv):
    # a point that keeps only the values given on the fundamental domain
    # loses every nilpotent entry whose representative is its partner
    from bethe.poisson import CurrentPoint

    assert main(argv) == 0
    real = CurrentPoint.__init__

    def dropping(self, context, values):
        domain = set(context.variables())
        real(self, context, {v: x for v, x in values.items() if v in domain})

    monkeypatch.setattr(CurrentPoint, "__init__", dropping)
    assert main(argv) == 1
    # every gl coordinate is its own representative
    assert main(["verify", "poisson-rank", "--kind", "gl", "--N", "4",
                 "--M", "2"]) == 0


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


def test_symbol_hom_draws_only_pairs_its_symbols_read(monkeypatch, tmp_path):
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
    # negative control, the bracket negated at two level-1 coordinates: a
    # pair holding a generator above M has zero symbols on both sides and
    # cannot see it, so the rows fail only because each pair can
    args = ["verify", "symbol-hom", "--kind", "gl", "--N", "3"]
    assert main(args) == 0
    real = PoissonContext.gen_bracket
    negated = {(1, 1, 2), (1, 2, 3)}

    def sign_flipped(self, a, b):
        br = real(self, a, b)
        return -br if a in negated or b in negated else br

    monkeypatch.setattr(PoissonContext, "gen_bracket", sign_flipped)
    assert main(args) == 1
    rows = json.loads((tmp_path / "symbol-hom.json").read_text())["details"]
    failed = [r["item"] for r in rows if not r["residual_zero"]]
    assert len(failed) == 32
    assert all(item.startswith("symbol pair ") for item in failed)


def test_jacobian_reports_a_parity_violation(monkeypatch, tmp_path):
    # one entry's reduced variable without its sign: the entry identity,
    # and with it every parity row, fails at sp2 M = 1, so5 and sp4 M = 3
    import bethe.certify as certify
    import bethe.poisson as poisson

    cases = [["--kind", "sp", "--n", "1", "--M", "1"],
             ["--kind", "so", "--n", "2", "--odd", "--M", "3"],
             ["--kind", "sp", "--n", "2", "--M", "3"]]
    for algebra in cases:
        assert main(["verify", "jacobian", *algebra]) == 0
    real = poisson.det_entries

    def unsigned(context, z):
        rows, L = real(context, z)
        entry = next(e for row in rows for e in row
                     if any(c == -1 and w for _, c, w in e))
        t = next(t for t, (_, c, w) in enumerate(entry) if c == -1 and w)
        entry[t] = (entry[t][0], 1, entry[t][2])
        return rows, L

    monkeypatch.setattr(poisson, "det_entries", unsigned)
    monkeypatch.setattr(certify, "det_entries", unsigned)
    for algebra in cases:
        assert main(["verify", "jacobian", *algebra]) == 1
        rows = json.loads((tmp_path / "jacobian.json").read_text())["details"]
        parity = [r for r in rows if r["item"].startswith("parity zeros")]
        assert parity and not any(r["residual_zero"] for r in parity)
    assert {"item": "parity zeros k=1", "residual_zero": False} in rows
    # the other callers keep the guard
    assert main(["compute", "poisson-bethe", "--kind", "sp", "--n", "1",
                 "--M", "1"]) == 3


@pytest.mark.parametrize("algebra", [["--kind", "so", "--n", "1", "--odd"],
                                     ["--kind", "sp", "--n", "1"]])
def test_jacobian_expands_no_determinant(monkeypatch, algebra):
    import bethe.poisson as poisson

    def expansion(terms, c, w):
        raise AssertionError("polynomial expansion called")

    monkeypatch.setattr(poisson, "_term_times", expansion)
    for M in ("1", "3"):
        assert main(["verify", "jacobian", *algebra, "--M", M]) == 0
    assert main(["compute", "poisson-bethe", *algebra]) == 3


def test_poisson_rank_and_jacobi_read_one_bracket_formula(monkeypatch,
                                                         tmp_path):
    # poisson-rank evaluates the terms of the formula at the point and
    # poisson-jacobi reads them through gen_bracket: the eps-twisted half
    # negated changes the rank at the base point of sp4, though the matrix
    # stays antisymmetric, and {a, b} negated for a > b fails the Jacobi
    # rows
    from bethe.poisson import PoissonContext

    rank = ["verify", "poisson-rank", "--kind", "sp", "--n", "2", "--M", "3"]
    jacobi = ["verify", "poisson-jacobi", "--kind", "gl", "--N", "2"]
    assert main(rank) == 0 and main(jacobi) == 0
    real = PoissonContext.bracket_terms

    def twist_negated(self, a, b):
        # on a signed set the terms come in fours per r, the last two
        # from the eps-twisted sum
        return [(-c if t % 4 > 1 else c, x, y)
                for t, (c, x, y) in enumerate(real(self, a, b))]

    monkeypatch.setattr(PoissonContext, "bracket_terms", twist_negated)
    assert main(rank) == 1
    [row] = json.loads((tmp_path / "poisson-rank.json").read_text())["details"]
    assert not row["item"].startswith("bracket rank 20 ")

    def sign_flipped(self, a, b):
        terms = real(self, a, b)
        return [(-c, x, y) for c, x, y in terms] if a > b else terms

    monkeypatch.setattr(PoissonContext, "bracket_terms", sign_flipped)
    assert main(jacobi) == 1


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
    # T_p(u - 2p) in place of T_p(u - p): R(2) is not a multiple of H_2
    _plant(monkeypatch, yangian, "fusion_products",
           "substitute_affine(1, -s)", "substitute_affine(1, -2 * s)")
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
    from bethe import twisted

    def flip_action(x, p, q, index_set):
        # x . P_pq: sites p and q of every column exchanged
        return {(lab, col[:p - 1] + (col[q - 1],) + col[p:q - 1]
                 + (col[p - 1],) + col[q:]): v for (lab, col), v in x.items()}

    args = ["verify", "prop36", "--kind", "sp", "--n", "1", "--D", "2"]
    row = {"item": "exchange scalar c(u) = 1*u + 0", "residual_zero": True}
    assert main(args) == 0
    assert row in json.loads((tmp_path / "prop36.json").read_text())["details"]
    monkeypatch.setattr(twisted, "_pair_action", flip_action)
    assert main(args) == 1
    rows = json.loads((tmp_path / "prop36.json").read_text())["details"]
    assert {**row, "residual_zero": False} in rows


def _plant_theta(monkeypatch, theta):
    """Every sp index set built afterwards carries the signs theta(i, t),
    t its own theta_i; the upper sign is left as it is."""
    from bethe.indices import IndexSet

    real = IndexSet.__init__

    def planted(self, kind, N, form=None):
        real(self, kind, N, form)
        if form == "sp":
            self.theta = {i: theta(i, t) for i, t in self.theta.items()}

    monkeypatch.setattr(IndexSet, "__init__", planted)


# each reads eps through theta together with the upper sign
SP_SIGN_CHECKS = [
    ["verify", "twisted-symmetry", "--kind", "sp", "--n", "1", "--D", "3"],
    ["verify", "sklyanin", "--kind", "sp", "--n", "1", "--D", "2"],
    ["verify", "prop36", "--kind", "sp", "--n", "1", "--D", "2"],
    ["verify", "rho-hom", "--kind", "sp", "--n", "1", "--D", "3"],
    ["verify", "jacobian", "--kind", "sp", "--n", "1", "--M", "3"],
]


@pytest.mark.parametrize("theta, code", [
    # the so convention on sp: eps = 1 everywhere
    pytest.param(lambda i, t: 1, 1, id="theta-one"),
    # -theta is no fault, as eps = theta_i theta_j does not change
    pytest.param(lambda i, t: -t, 0, id="theta-negated"),
])
def test_sp_checks_see_the_wrong_theta(monkeypatch, theta, code):
    _plant_theta(monkeypatch, theta)
    assert [main(args) for args in SP_SIGN_CHECKS] == [code] * 5


def _drop_the_eps_partner(monkeypatch):
    """F_ij = E_ij alone: rho no longer factors through the symmetry
    relation, nor through the reflection relation."""
    from bethe import evalmap

    monkeypatch.setattr(evalmap, "f_element",
                        lambda rule, i, j: rule.element(i, j))


def test_rho_hom_fails_without_the_eps_partner(monkeypatch, tmp_path):
    args = ["verify", "rho-hom", "--kind", "so", "--n", "1", "--odd",
            "--D", "2"]
    assert main(args) == 0
    _drop_the_eps_partner(monkeypatch)
    assert main(args) == 1
    rows = json.loads((tmp_path / "rho-hom.json").read_text())["details"]
    for suite in ("rho of symmetry residual", "rho of reflection residual"):
        assert any(row["item"].startswith(suite) and not row["residual_zero"]
                   for row in rows), suite


def test_image_commute_fails_without_the_eps_partner(monkeypatch):
    # the rho images of the A_k coefficients stop commuting at so3 D = 3
    args = ["verify", "image-commute", "--kind", "so", "--n", "1", "--odd",
            "--D", "3"]
    assert main(args) == 0
    _drop_the_eps_partner(monkeypatch)
    assert main(args) == 1


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


def _plant(monkeypatch, module, name, old, new):
    """Rebuild `module.name` from its source with `old` replaced by `new`,
    and install it wherever the families call it."""
    from bethe import tensor, twisted, yangian

    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, old
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    for caller in (tensor, twisted, yangian):
        if hasattr(caller, name):
            monkeypatch.setattr(caller, name, scope[name])


def _plant_in_trace_words(monkeypatch, old, new):
    from bethe import tensor

    _plant(monkeypatch, tensor, "trace_words", old, new)


PROP36_SP2 = ["verify", "prop36", "--kind", "sp", "--n", "1", "--D", "3"]
SKLYANIN_SO3 = ["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd",
                "--D", "2"]


@pytest.mark.parametrize("old, new", [
    # the identity part of every letter site is lost
    pytest.param("walk(i + 1, x, path)", "None", id="dropped-pass-branch"),
    # E_ab of site p moves the column of site p + 1 (of site 1 from the last)
    pytest.param("(lab, col[:p - 1], col[p:], v)",
                 "(lab, col[:p % len(col)], col[p % len(col) + 1:], v)",
                 id="leg-on-the-wrong-site"),
    # the identity part of a letter site also walks the rows of each leg
    pytest.param("                del products[len(path) + 1:]\n",
                 "                del products[len(path) + 1:]\n"
                 "                walk(i + 1, y, path)\n",
                 id="pass-branch-walks-a-leg"),
])
def test_trace_words_faults_fail_the_trace_forms(monkeypatch, old, new):
    assert main(PROP36_SP2) == 0 and main(SKLYANIN_SO3) == 0
    _plant_in_trace_words(monkeypatch, old, new)
    assert (main(PROP36_SP2), main(SKLYANIN_SO3)) == (1, 1)


# prop36 at sp4 reads A_k, hat-A_k and the trace form at N = 4; sklyanin,
# twisted-commute and prop36 at N <= 3 pass with some of the faults below
# planted
PROP36_SP4 = ["verify", "prop36", "--kind", "sp", "--n", "2", "--D", "2"]


@pytest.mark.parametrize("module, name, old, new", [
    # every pair step acts on sites 1 and q, not p and q
    pytest.param("tensor", "pair_step", "_pair_action(xr, p, q, index_set)",
                 "_pair_action(xr, 1, q, index_set)",
                 id="pair-on-the-wrong-sites"),
    # F(u) applied to the ket left to right
    pytest.param("tensor", "trace_words", "in reversed(factors)",
                 "in factors", id="ket-factors-reversed"),
    # (id - c Q)^-1 taken as id - c Q / (1 + N c)
    pytest.param("twisted", "hat_trace", "(one - f[2] * N)",
                 "(one + f[2] * N)", id="inverse-pair-sign"),
])
def test_rank_one_faults_fail_the_trace_forms(monkeypatch, module, name, old,
                                              new):
    import importlib

    assert main(PROP36_SP4) == 0
    _plant(monkeypatch, importlib.import_module(f"bethe.{module}"), name,
           old, new)
    assert main(PROP36_SP4) == 1


def _plant_in_expand_gen(monkeypatch, old, new):
    """Rebuild `TwistedContext.expand_gen` with `old` replaced by `new`;
    patched on the class, so every context built afterwards expands
    through it."""
    from bethe import twisted

    source = textwrap.dedent(
        inspect.getsource(twisted.TwistedContext.expand_gen))
    assert source.count(old) == 1, old
    scope = dict(vars(twisted))
    exec(compile(source.replace(old, new), twisted.__file__, "exec"), scope)
    monkeypatch.setattr(twisted.TwistedContext, "expand_gen",
                        scope["expand_gen"])


# the defining relations read every generator through expand_gen; verify
# sklyanin so3 --D 2 passes with each of the faults below planted
DEFINING_RELATIONS = [
    ["verify", "twisted-symmetry", "--kind", "sp", "--n", "1", "--D", "3"],
    ["verify", "twisted-symmetry", "--kind", "sp", "--n", "2", "--D", "2"],
    ["verify", "twisted-reflection", "--kind", "sp", "--n", "1", "--D", "3"],
]


@pytest.mark.parametrize("old, new", [
    # (-1)^s on T_ia^(s) in place of (-1)^(r-s) on T_{-j,-a}^(r-s)
    pytest.param("(-1) ** (r - s))", "(-1) ** s)", id="sign-on-t"),
    # T_{-a,-j} in place of T_{-j,-a}
    pytest.param("t(-j, -a, r - s)", "t(-a, -j, r - s)",
                 id="second-factor-transposed"),
    pytest.param("iset.eps(j, a) * ", "", id="eps-dropped"),
    pytest.param("t(i, a, s) * t(-j, -a, r - s)",
                 "t(-j, -a, r - s) * t(i, a, s)", id="factors-swapped"),
])
def test_expand_gen_faults_fail_the_defining_relations(monkeypatch, old,
                                                       new):
    assert [main(args) for args in DEFINING_RELATIONS] == [0, 0, 0]
    _plant_in_expand_gen(monkeypatch, old, new)
    assert [main(args) for args in DEFINING_RELATIONS] == [1, 1, 1]


# the Laplace rows of symbol-hom on so/sp read the graded member; its
# letters transposed (S(u)^t for S(u)) leave these reports unchanged
SYMBOL_HOM_TWISTED = [
    ["verify", "symbol-hom", "--kind", "sp", "--n", "1", "--M", "2"],
    ["verify", "symbol-hom", "--kind", "so", "--n", "1", "--odd", "--M", "2"],
    ["verify", "symbol-hom", "--kind", "sp", "--n", "2", "--M", "1"],
]


@pytest.mark.parametrize("old, new", [
    pytest.param("range(k + 1, N + 1)", "range(k + 2, N + 1)",
                 id="z-site-dropped"),
    pytest.param("for p in range(k + 1, N + 1)", "for p in range(1, k + 1)",
                 id="z-on-the-letter-sites"),
])
def test_graded_member_faults_fail_the_laplace_rows(monkeypatch, old, new):
    from bethe import twisted

    assert [main(args) for args in SYMBOL_HOM_TWISTED] == [0, 0, 0]
    _plant(monkeypatch, twisted, "graded_bethe_series", old, new)
    assert [main(args) for args in SYMBOL_HOM_TWISTED] == [1, 1, 1]


SKLYANIN_SP2_D3 = ["verify", "sklyanin", "--kind", "sp", "--n", "1", "--D",
                   "3"]


def test_pair_step_that_writes_its_input_fails_sklyanin(monkeypatch):
    # a pair step that writes into the rows it reads changes the rows from
    # which a letter's legs open after its identity branch has walked them;
    # prop36 sp2 --D 3 and sklyanin so3 --D 2 pass under this fault
    from bethe import tensor

    assert main(SKLYANIN_SP2_D3) == 0
    _plant(monkeypatch, tensor, "pair_step", "accumulate(dict(x[s]),",
           "accumulate(x[s],")
    assert main(SKLYANIN_SP2_D3) == 1


def test_prop36_fails_for_an_uninverted_hat_s(monkeypatch):
    from bethe import twisted

    assert main(PROP36_SP2) == 0
    # the letter sites walk the formal S(u), not its inverse hat-S(u)
    _plant(monkeypatch, twisted, "hat_trace",
           "t_site_series(ctx.s_rule, D).invert()",
           "t_site_series(ctx.s_rule, D)")
    assert main(PROP36_SP2) == 1


SKLYANIN_SO3_D4 = ["verify", "sklyanin", "--kind", "so", "--n", "1", "--odd",
                   "--D", "4"]


def test_reversed_words_change_the_formal_table(monkeypatch, tmp_path):
    # Letters multiplied in reverse order change the formal S-words of A_k
    # from order 3 on, and sklyanin so3 from order 4 on: the determinant
    # identity at u^-4 and the centrality of A_N coeff 4 fail.  At D <= 3
    # every verify check passes.
    args = ["compute", "twisted-bethe", "--kind", "so", "--n", "1", "--odd",
            "--D", "3", "--out"]
    assert main(args + [str(tmp_path / "good.json")]) == 0
    assert main(SKLYANIN_SO3_D4) == 0
    _plant_in_trace_words(monkeypatch, "products[-1] * tail",
                          "tail * products[-1]")
    assert main(args + [str(tmp_path / "bad.json")]) == 0
    assert (tmp_path / "good.json").read_text() != \
        (tmp_path / "bad.json").read_text()
    assert main(SKLYANIN_SO3_D4) == 1


def test_steps_walked_backwards_change_the_formal_table(monkeypatch,
                                                       tmp_path):
    # The steps walked from the last to the first, each word's letters in
    # that order, leave the formal tables of A_k at so3 through D = 3 and
    # every verify check tried unchanged (sklyanin so3 through D = 5
    # among them); the formal S-words of A_k at D = 4 see the fault.
    args = ["compute", "twisted-bethe", "--kind", "so", "--n", "1", "--odd",
            "--D", "4", "--out"]
    assert main(args + [str(tmp_path / "good.json")]) == 0
    _plant_in_trace_words(monkeypatch, "for step in steps:",
                          "for step in reversed(list(steps)):")
    assert main(args + [str(tmp_path / "bad.json")]) == 0
    assert main(SKLYANIN_SO3_D4) == 0
    assert (tmp_path / "good.json").read_text() != \
        (tmp_path / "bad.json").read_text()
