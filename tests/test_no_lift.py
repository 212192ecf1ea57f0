"""Rational tensors are never lifted into a richer coefficient ring.

A rational tensor or BiLaurent multiplies a ring-valued one directly, from
either side, and the product takes the ring of the ring-valued operand.
A source guard keeps the lift out of the package: no `map_coeffs` whose
function multiplies by a ring's `one`, and no `lift_tensor`."""
import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bethe")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _times_one(node) -> bool:
    """Does the subtree multiply by some `<ring>.one`?"""
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
               and any(isinstance(side, ast.Attribute) and side.attr == "one"
                       for side in (n.left, n.right))
               for n in ast.walk(node))


def lifts(source: str) -> list:
    """(line, what) for every lift of a rational tensor in `source`."""
    tree = ast.parse(source)
    defs = {n.name: n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                else None)
        if name == "lift_tensor":
            found.append((node.lineno, "lift_tensor"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "map_coeffs" and node.args:
            f = node.args[0]
            if isinstance(f, ast.Name):
                f = defs.get(f.id, f)
            if _times_one(f):
                found.append((node.lineno, "map_coeffs by one"))
    return sorted(found)


def test_the_guard_sees_a_lift():
    assert lifts("y = t.map_coeffs(lambda c: ring.one * c, ring)\n") == \
        [(1, "map_coeffs by one")]
    assert lifts("def up(c):\n    return c * aring.one\n"
                 "y = t.map_coeffs(up)\n") == [(3, "map_coeffs by one")]
    assert lifts("from .yangian import lift_tensor\n"
                 "def lift_tensor(t, ring):\n    pass\n"
                 "y = yangian.lift_tensor(t, ring)\n") == \
        [(1, "lift_tensor"), (2, "lift_tensor"), (4, "lift_tensor")]
    # scaling by an element, or embedding, is not a lift
    assert lifts("y = t.map_coeffs(lambda c: a_r * c, ring)\n"
                 "z = s.map_coeffs(lambda c: c.embed((1,), 2))\n") == []


def test_no_module_lifts_a_rational_tensor():
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            assert lifts(fh.read()) == [], module
