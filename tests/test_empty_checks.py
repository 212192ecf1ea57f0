"""A check whose residual holds no coefficient reports no rows, and a
report with no rows fails: it checked nothing."""
import json

import pytest

from bethe.cli import main
from bethe.reports import Report

SP2 = ["--kind", "sp", "--n", "1"]
SO3 = ["--kind", "so", "--n", "1", "--odd"]
GL2 = ["--kind", "gl", "--N", "2"]


def test_a_report_without_rows_fails():
    assert not Report("c", {}, [], 0, {}).passed
    assert Report("c", {}, [("row", True)], 0, {}).passed


# the smallest parameters at which each check has nothing to read
@pytest.mark.parametrize("args", [
    ["twisted-reflection", *SP2, "--D", "2"],
    ["twisted-reflection", *SO3, "--D", "1"],
    ["twisted-symmetry", *SO3, "--D", "0"],
    ["rho-hom", *SP2, "--D", "0"],
    ["centrality", *GL2, "--D", "0"],
    ["image-commute", *GL2, "--D", "0"],
    ["bethe-commute", *GL2, "--budget", "1"],
    ["twisted-commute", *SO3, "--budget", "1"],
])
def test_a_check_with_nothing_to_read_fails(args, tmp_path, capsys):
    assert main(["verify", *args, "--out", str(tmp_path / "r.json")]) == 1
    assert "fail (0 checks)" in capsys.readouterr().out


def test_rho_hom_keeps_its_symmetry_rows_on_an_empty_window(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "rho-hom", *SP2, "--D", "2", "--out",
                 str(out)]) == 0
    items = [row["item"] for row in json.loads(out.read_text())["details"]]
    assert items and all(i.startswith("rho of symmetry") for i in items)
