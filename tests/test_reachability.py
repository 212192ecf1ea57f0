"""Every function and method defined in `src/bethe` is run by some op.

The sweep runs, in this process and under `sys.setprofile`:

* every `bethe verify` check on gl_2, sp_2 and so_3, and every `bethe
  compute` object on gl_2 and sp_2, read from `cli.CHECKS` and
  `cli.OBJECTS`, so a new check or object is swept without an edit here;
* `verify prop36` on so_3 with the sign-matched (symmetric) Z, `verify
  classical-so2n` on so_4, a text report, a report written to the default
  directory, and `bethe --help`;
* the three demos and every ```python block of README.md.

It records the code object of every Python frame it enters.  A
definition that no sweep enters is dead code: delete it.  The few kept on
purpose are named in ALLOWED, each with its reason; a test that calls an
allowed definition is named in that reason.

Every `bethe` module is imported and the names that `import bethe` caches
are dropped before the sweep starts, so what it enters does not depend on
which tests ran first: a function that only module import runs is
reported, and the README blocks load their names through the package's
lazy loader.
"""
import ast
import contextlib
import importlib
import importlib.util
import io
import os
import re
import runpy
import sys

import pytest

import bethe
from bethe import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(bethe.__file__))

# sp_2 needs --D 3 for a reflection row; so_3 reaches every definition
# at --D 2, where its sweep costs a third as much
ALGEBRAS = {
    "gl2": ["--kind", "gl", "--N", "2", "--D", "3", "--budget", "3"],
    "sp2": ["--kind", "sp", "--n", "1", "--D", "3", "--budget", "3"],
    "so3": ["--kind", "so", "--n", "1", "--odd", "--D", "2", "--budget", "3"],
}

_PROTOCOL_REPR = "repr(), for debugging and failure messages; no op prints one"
_PROTOCOL_HASH = "defined beside __eq__ so that the value type stays hashable"

ALLOWED = {
    "algebra.CommutationRule.raw_bracket":
        "abstract: every rule that orders words overrides it",
    "algebra.FreeRule.raw_bracket":
        "raises, as free words have no bracket "
        "(test_algebra::test_free_elements_have_no_commutator)",
    "element.AlgebraElement.__init__":
        "the public constructor, which coerces outside input; ops build "
        "elements through the trusted `_from_terms`",
    "element.AlgebraElement.__rsub__":
        "operator of an exported value type "
        "(test_algebra::test_coefficients_stay_rational)",
    "element.AlgebraElement.__hash__": _PROTOCOL_HASH,
    "indices.IndexSet.__hash__": _PROTOCOL_HASH,
    "indices.IndexSet.__repr__": _PROTOCOL_REPR,
    "poisson.PoissonContext.__hash__": _PROTOCOL_HASH,
    "poisson.PoissonContext.__repr__": _PROTOCOL_REPR,
    "series.TruncatedSeries.__repr__": _PROTOCOL_REPR,
    "series.BiLaurent.__add__":
        "operator the test references call "
        "(test_twisted::test_reflection_entry_is_minus_the_componentwise_"
        "residual, test_accumulate::test_one_pass_sub_equals_adding_the_"
        "negative)",
    "series.BiLaurent.__neg__":
        "operator the test references call "
        "(test_accumulate::test_one_pass_sub_equals_adding_the_negative)",
    "tensor.TensorElement.__hash__": _PROTOCOL_HASH,
    "tensor.TensorElement.__repr__": _PROTOCOL_REPR,
    "tensor.TensorElement.map_coeffs":
        "the test references change rings or map entries through it "
        "(`lift_tensor` and test_tensors_scale_by_rationals_only in "
        "test_tensor, the `fused_s` oracle and `verify_fused_determinant` "
        "in test_twisted, test_membership_rows_controls in test_yangian, "
        "and the fault `rows-without-signs` of faults.py)",
}


# -- the checker -----------------------------------------------------------------


def definitions(path: str, module: str) -> dict:
    """{(path, first line): qualified name} for every function and method
    that the source file at `path` defines, nested ones included.  The
    first line is that of the code object: the first decorator's, if any."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                out[(os.path.realpath(path), line)] = \
                    f"{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, f"{module}.")
    return out


def entered_by(run) -> set:
    """(path, first line) of every Python code object that `run()` enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    paths = {}
    return {(paths.setdefault(c.co_filename, os.path.realpath(c.co_filename)),
             c.co_firstlineno) for c in codes}


def unreached(defined: dict, entered: set, allowed=()) -> list:
    """The qualified names of the definitions never entered, less
    `allowed`, sorted."""
    return sorted(name for key, name in defined.items()
                  if key not in entered and name not in allowed)


def test_the_checker_sees_an_uncalled_function(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(
        "def used():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner() + Box().size()\n"
        "\n"
        "class Box:\n"
        "    @staticmethod\n"
        "    def make():\n"
        "        return Box()\n"
        "\n"
        "    def size(self):\n"
        "        return 2\n"
        "\n"
        "def uncalled():\n"
        "    return 3\n")
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    defined = definitions(str(path), "synthetic")
    assert sorted(defined.values()) == [
        "synthetic.Box.make", "synthetic.Box.size", "synthetic.uncalled",
        "synthetic.used", "synthetic.used.inner"]
    entered = entered_by(lambda: module.used() + module.Box.make().size())
    assert unreached(defined, entered) == ["synthetic.uncalled"]
    assert unreached(defined, entered, {"synthetic.uncalled"}) == []
    assert unreached(defined, entered_by(module.used)) == \
        ["synthetic.Box.make", "synthetic.uncalled"]


# -- the sweep -------------------------------------------------------------------


def cli_ops(out: str) -> list:
    """The CLI argument lists of the sweep."""
    ops = [["verify", check, *flags, "--out", f"{out}/{check}.json"]
           for check in cli.CHECKS for flags in ALGEBRAS.values()]
    ops += [["compute", obj, *ALGEBRAS[name], "--out", f"{out}/{obj}.json"]
            for obj in cli.OBJECTS for name in ("gl2", "sp2")]
    ops.append(["verify", "prop36", *ALGEBRAS["so3"], "--z-symmetry",
                "symmetric", "--out", f"{out}/prop36.json"])
    ops.append(["verify", "classical-so2n", "--kind", "so", "--n", "2",
                "--out", f"{out}/classical-so2n.json"])
    ops.append(["verify", "rtt", *ALGEBRAS["gl2"], "--format", "text",
                "--out", f"{out}/rtt.txt"])
    ops.append(["verify", "rtt", *ALGEBRAS["gl2"]])  # to BETHE_OUTPUT_DIR
    ops.append(["--help"])
    return ops


def readme_blocks() -> list:
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(),
                          re.DOTALL | re.MULTILINE)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(each op's exit code by argument list, what the runs printed, the
    code objects entered, the definitions of the package)."""
    modules = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))
    defined = {}
    for name in modules:
        module = importlib.import_module(f"bethe.{name}" if name != "__init__"
                                         else "bethe")
        defined.update(definitions(module.__file__, name))
    for name in bethe.__all__:
        vars(bethe).pop(name, None)
    out = str(tmp_path_factory.mktemp("reports"))
    codes, printed = {}, io.StringIO()

    def run():
        for argv in cli_ops(out):
            codes[tuple(argv)] = cli.main(argv)
        for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
            runpy.run_path(os.path.join(ROOT, "demos", demo),
                           run_name="__main__")
        for i, block in enumerate(readme_blocks()):
            exec(compile(block, f"README.md block {i}", "exec"),
                 {"__name__": "readme"})

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BETHE_OUTPUT_DIR", out)
        with contextlib.redirect_stdout(printed), \
                contextlib.redirect_stderr(io.StringIO()):
            entered = entered_by(run)
    return codes, printed.getvalue(), entered, defined


def test_every_op_of_the_sweep_runs(sweep):
    codes, printed, _, _ = sweep
    # exit 2 only where a check needs another algebra or Z (a twisted
    # check on gl_2, prop36 on so_3 with a skew Z); every check and object
    # passes on some algebra
    assert set(codes.values()) <= {0, 2}
    for name in cli.CHECKS + cli.OBJECTS:
        assert any(code == 0 for argv, code in codes.items()
                   if name in argv), name
    assert "FAILED" not in printed


def test_every_definition_is_reached(sweep):
    _, _, entered, defined = sweep
    assert unreached(defined, entered, ALLOWED) == []


def test_every_allowed_definition_exists_and_is_unreached(sweep):
    # an entry for a deleted or a reached definition is stale
    _, _, entered, defined = sweep
    names = set(defined.values())
    assert sorted(set(ALLOWED) - names) == []
    assert sorted(set(ALLOWED) - set(unreached(defined, entered))) == []
    assert all(reason.strip() for reason in ALLOWED.values())
