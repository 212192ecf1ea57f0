"""Golden-report regression test.

Every `verify` check and every `compute` object runs once at small
parameters under BETHE_DETERMINISTIC=1, and its report (without the
`params` block) or coefficient table (without the `config` block) must
equal the copy stored in tests/golden/.  The run parameters are left out
because they are not results of the computation.  The written text must
also be the canonical layout (sorted keys, indent 1, one final newline),
so a change of indent, separators or key order fails.  The prop36 row labels
spell their scalars as "Fraction(p, q)" whatever the rational backend, so
the copies hold for every backend.

To re-record the stored copies after a change that alters outputs on
purpose, run from the repository root:

    BETHE_DETERMINISTIC=1 PYTHONPATH=src python3 tests/test_golden.py
"""
import json
import os
import sys
import tempfile

import pytest

from bethe.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "verify-rtt": ["verify", "rtt", "--kind", "gl", "--N", "3", "--D", "2"],
    "verify-fusion": ["verify", "fusion", "--kind", "gl", "--N", "3",
                      "--D", "2"],
    "verify-bethe-commute": ["verify", "bethe-commute", "--kind", "gl",
                             "--N", "3", "--Z", "diag:1,2,4", "--budget", "3"],
    "verify-centrality": ["verify", "centrality", "--kind", "gl", "--N", "3",
                          "--D", "2"],
    "verify-hat-identity": ["verify", "hat-identity", "--kind", "gl",
                            "--N", "3", "--D", "2"],
    "verify-twisted-symmetry": ["verify", "twisted-symmetry", "--kind", "so",
                                "--n", "1", "--odd", "--D", "3"],
    # at D = 2 the sp2 reflection window holds no coefficient
    "verify-twisted-reflection": ["verify", "twisted-reflection", "--kind",
                                  "sp", "--n", "1", "--D", "3"],
    "verify-twisted-commute": ["verify", "twisted-commute", "--kind", "so",
                               "--n", "1", "--odd", "--budget", "3"],
    "verify-sklyanin": ["verify", "sklyanin", "--kind", "so", "--n", "1",
                        "--odd", "--D", "2"],
    "verify-prop36-sp2": ["verify", "prop36", "--kind", "sp", "--n", "1",
                          "--D", "2"],
    "verify-prop36-so3": ["verify", "prop36", "--kind", "so", "--n", "1",
                          "--odd", "--z-symmetry", "symmetric", "--D", "2"],
    "verify-rho-hom": ["verify", "rho-hom", "--kind", "so", "--n", "1",
                       "--odd", "--D", "2"],
    "verify-image-commute": ["verify", "image-commute", "--kind", "gl",
                             "--N", "3", "--D", "2"],
    "verify-poisson-jacobi": ["verify", "poisson-jacobi", "--kind", "gl",
                              "--N", "2", "--M", "1"],
    "verify-symbol-hom": ["verify", "symbol-hom", "--kind", "gl", "--N", "2",
                          "--M", "1"],
    "verify-jacobian": ["verify", "jacobian", "--kind", "sp", "--n", "1",
                        "--M", "1"],
    "verify-poisson-rank": ["verify", "poisson-rank", "--kind", "gl",
                            "--N", "2", "--M", "1"],
    "verify-classical-so2n": ["verify", "classical-so2n", "--kind", "so",
                              "--n", "2"],
    "compute-bethe": ["compute", "bethe", "--kind", "gl", "--N", "3",
                      "--D", "2"],
    "compute-bethe-dense": ["compute", "bethe", "--kind", "gl", "--N", "3",
                            "--Z", "json:" + os.path.join(GOLDEN_DIR,
                                                          "z-gl3-dense.json"),
                            "--D", "2"],
    "compute-bethe-gl4": ["compute", "bethe", "--kind", "gl", "--N", "4",
                          "--D", "2"],
    "compute-qdet": ["compute", "qdet", "--kind", "gl", "--N", "3",
                     "--D", "3"],
    "compute-twisted-bethe": ["compute", "twisted-bethe", "--kind", "so",
                              "--n", "1", "--odd", "--D", "2"],
    # at D = 3 the formal so3 table depends on the order in which
    # `trace_words` multiplies the letters of a word; at D = 2 it does not
    "compute-twisted-bethe-d3": ["compute", "twisted-bethe", "--kind", "so",
                                 "--n", "1", "--odd", "--D", "3"],
    "compute-poisson-bethe": ["compute", "poisson-bethe", "--kind", "sp",
                              "--n", "1", "--M", "1"],
}


def run_case(args: list, out_dir: str) -> dict:
    """Run one CLI case and return its output without the run parameters."""
    path = os.path.join(out_dir, "out.json")
    assert main(args + ["--out", path]) == 0
    with open(path) as fh:
        text = fh.read()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=1) + "\n"
    data.pop("params", None)
    data.pop("config", None)
    return data


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("BETHE_DETERMINISTIC", "1")
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        expected = json.load(fh)
    assert run_case(CASES[name], str(tmp_path)) == expected


if __name__ == "__main__":
    if os.environ.get("BETHE_DETERMINISTIC") != "1":
        sys.exit("set BETHE_DETERMINISTIC=1 to record golden copies")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CASES.items():
            data = run_case(args, tmp)
            with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w") as fh:
                fh.write(json.dumps(data, sort_keys=True, indent=1) + "\n")
            print(name)
