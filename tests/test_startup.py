"""Start-up loads only what a run uses: `import bethe` loads no submodule,
`bethe --help` and usage errors load only `bethe.cli`, and each check
imports the modules it runs and no others.

Each case runs in a fresh interpreter and lists the `bethe` modules in
`sys.modules` once the run has finished."""
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def loaded_after(code: str, tmp_path) -> set:
    """The `bethe` modules loaded after running `code` in a fresh process."""
    listing = tmp_path / "modules.json"
    script = code + f"""
import json, sys
with open({str(listing)!r}, "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.split(".")[0] == "bethe"), fh)
"""
    env = dict(os.environ, PYTHONPATH=SRC, BETHE_OUTPUT_DIR=str(tmp_path))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return set(json.loads(listing.read_text()))


def loaded_by_cli(argv: list, tmp_path) -> set:
    return loaded_after(f"from bethe.cli import main\nmain({argv!r})",
                        tmp_path)


def test_import_bethe_loads_no_submodule(tmp_path):
    assert loaded_after("import bethe", tmp_path) == {"bethe"}


@pytest.mark.parametrize("argv", [["--help"], ["verify", "nosuch"]])
def test_help_and_usage_errors_load_only_the_cli(argv, tmp_path):
    assert loaded_by_cli(argv, tmp_path) == {"bethe", "bethe.cli"}


@pytest.mark.parametrize("argv", [
    ["compute", "poisson-bethe", "--kind", "gl", "--N", "2"],
    ["verify", "poisson-rank", "--kind", "gl", "--N", "2"],
    ["verify", "jacobian", "--kind", "sp", "--n", "1"],
])
def test_poisson_ops_load_no_algebra_families(argv, tmp_path):
    # the report conventions of a verify op are declared, not searched
    # for in tensor
    loaded = loaded_by_cli(argv, tmp_path)
    assert "bethe.poisson" in loaded
    assert not loaded & {"bethe.twisted", "bethe.yangian", "bethe.evalmap",
                         "bethe.tensor", "bethe.series", "bethe.algebra"}


def test_quantum_minor_ops_load_no_tensor(tmp_path):
    # B_k is a sum of quantum minors, which multiply entry series only
    loaded = loaded_by_cli(["verify", "bethe-commute", "--kind", "gl",
                            "--N", "2"], tmp_path)
    assert "bethe.yangian" in loaded
    assert "bethe.tensor" not in loaded


def test_twisted_symmetry_loads_no_poisson_side(tmp_path):
    loaded = loaded_by_cli(["verify", "twisted-symmetry", "--kind", "so",
                            "--n", "1", "--odd", "--D", "1"], tmp_path)
    assert "bethe.twisted" in loaded
    assert not loaded & {"bethe.poisson", "bethe.certify"}


def test_rtt_on_so_loads_no_twisted_layer(tmp_path):
    # the R-matrix identities and the relations of T(u) are one suite each
    # on every index set, the mixed relation included
    loaded = loaded_by_cli(["verify", "rtt", "--kind", "so", "--n", "1",
                            "--odd", "--D", "1"], tmp_path)
    assert {"bethe.tensor", "bethe.yangian"} <= loaded
    assert "bethe.twisted" not in loaded


@pytest.mark.parametrize("argv", [
    ["verify", "rho-hom", "--kind", "so", "--n", "1", "--odd", "--D", "1"],
    ["verify", "image-commute", "--kind", "gl", "--N", "2", "--D", "1"],
])
def test_image_suites_load_no_poisson_side(argv, tmp_path):
    # the pi and rho image suites read the algebras only
    loaded = loaded_by_cli(argv, tmp_path)
    assert "bethe.evalmap" in loaded
    assert not loaded & {"bethe.poisson", "bethe.certify"}


def test_every_exported_name_resolves(tmp_path):
    code = """
import bethe
missing = [name for name in bethe.__all__ if not hasattr(bethe, name)]
assert not missing, missing
namespace = {}
exec("from bethe import *", namespace)
assert set(bethe.__all__) <= set(namespace)
"""
    assert "bethe.twisted" in loaded_after(code, tmp_path)


def test_an_unknown_name_is_an_attribute_error():
    import bethe

    with pytest.raises(AttributeError, match="no_such_name"):
        bethe.no_such_name
