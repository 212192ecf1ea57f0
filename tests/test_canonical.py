"""The canonical exact scalar: an int when integral, a Q only with a
denominator > 1.

A source guard keeps floats out of the package: no true division outside
`rationals.div` (on two ints `/` gives a float) and no float literal.  A
property builds elements, tensors and series once from non-canonical Q
coefficients (integral values as Q) and once from canonical ones, and
checks that products, sums, traces and series operations agree and store
only canonical scalars."""
import ast
import os

from hypothesis import given, settings, strategies as st

from bethe.algebra import AlgebraElement, YangianRule
from bethe.indices import IndexSet, ZMatrix
from bethe.rationals import Q, rat
from bethe.series import RATIONAL_RING, TruncatedSeries, algebra_ring
from bethe.tensor import TensorElement, tensor_ring, trace_words
from oracles import trace_all

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bethe")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def float_sources(source: str, module: str) -> list:
    """(line, what) for every true division outside rationals.div and
    every float literal."""
    tree = ast.parse(source)
    allowed = set()
    if module == "rationals.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "div":
                allowed = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            found.append((node.lineno, "division"))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
    return sorted(found)


def test_the_guard_sees_divisions_and_floats():
    assert float_sources("a = b / c\nd /= 2\ne = 0.5\nf = g // h\n",
                         "x.py") == \
        [(1, "division"), (2, "division"), (3, "float literal")]
    assert float_sources("def div(a, b):\n    return a / b\n",
                         "rationals.py") == []
    assert float_sources("def div(a, b):\n    return a / b\n",
                         "series.py") == [(2, "division")]


def test_no_float_can_enter_the_package():
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            assert float_sources(fh.read(), module) == [], module


# -- the property ---------------------------------------------------------------

PLAIN2 = IndexSet.plain(2)
RULE = YangianRule(PLAIN2)
ARING = algebra_ring(RULE)
GENS = [(r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]
KEYS = [((a,), (b,)) for a in (1, 2) for b in (1, 2)]
D = 2

# (numerator, denominator) pairs; denominators 1 and 2 make integral values
# and integral products such as (1/2) * 2 common
pairs = st.tuples(st.integers(-3, 3), st.sampled_from((1, 1, 2)))


def raw(p):
    """A non-canonical scalar: always a Q, integral or not."""
    return Q(*p)


def canonical(p):
    return rat(*p)


def is_canonical(c) -> bool:
    return type(c) is int or (type(c) is Q and c.denominator > 1)


def scalars(x):
    """Every scalar stored in x, at any depth."""
    if isinstance(x, AlgebraElement):
        yield from x.terms.values()
    elif isinstance(x, TensorElement):
        for v in x.entries.values():
            yield from scalars(v)
    elif isinstance(x, TruncatedSeries):
        for c in x.coeffs:
            yield from scalars(c)
    else:
        yield x


words = st.lists(st.sampled_from(GENS), max_size=2).map(
    lambda w: tuple(sorted(w)))
element_data = st.dictionaries(words, pairs, max_size=3)
tensor_data = st.dictionaries(st.sampled_from(KEYS), element_data, max_size=4)
rat_tensor_data = st.dictionaries(st.sampled_from(KEYS), pairs, max_size=4)


def element(data, scalar):
    return AlgebraElement(RULE, {m: scalar(p) for m, p in data.items()})


def tensor(data, scalar):
    return TensorElement(1, PLAIN2, ARING,
                         {k: element(d, scalar) for k, d in data.items()})


def rat_tensor(data, scalar):
    return TensorElement(1, PLAIN2, RATIONAL_RING,
                         {k: scalar(p) for k, p in data.items()})


def z_matrix(t):
    """A one-site rational tensor as a Z site, which canonicalizes it."""
    return ZMatrix(PLAIN2, {(r[0], c[0]): v
                            for (r, c), v in t.entries.items()})


def both(build, data):
    return build(data, raw), build(data, canonical)


def check(raw_value, canonical_value):
    assert raw_value == canonical_value
    assert all(is_canonical(c) for c in scalars(raw_value))
    assert all(is_canonical(c) for c in scalars(canonical_value))


@settings(max_examples=60, deadline=None)
@given(element_data, element_data, pairs)
def test_elements_built_from_q_agree_with_canonical(da, db, p):
    (a, a_), (b, b_) = both(element, da), both(element, db)
    for f in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y,
              lambda x, y: x * raw(p), lambda x, y: x * Q(1, 2) * 2):
        check(f(a, b), f(a_, b_))


@settings(max_examples=40, deadline=None)
@given(tensor_data, tensor_data, rat_tensor_data, rat_tensor_data)
def test_tensors_built_from_q_agree_with_canonical(dx, dy, dg, dh):
    (x, x_), (y, y_) = both(tensor, dx), both(tensor, dy)
    (g, g_), (h, h_) = both(rat_tensor, dg), both(rat_tensor, dh)
    check(x * y, x_ * y_)
    check(x + y, x_ + y_)
    check(x * g, x_ * g_)
    check(g * h, g_ * h_)
    check(g - h, g_ - h_)
    check(g.scale_rat(Q(2, 2)), g_.scale_rat(1))
    # tr(h (1 + x u^-1)) through order 1, h a Z site: the one-letter
    # words read x
    sites = tensor_ring(1, PLAIN2, ARING)
    check(*(trace_words(1, PLAIN2,
                        [(1, TruncatedSeries(sites, [sites.one, xx], 1))],
                        [(1, z_matrix(hh))], ARING, 1)
            for xx, hh in ((x, h), (x_, h_))))
    check(trace_all(g), trace_all(g_))
    check(trace_all(x), trace_all(x_))


@settings(max_examples=40, deadline=None)
@given(st.lists(pairs, min_size=D + 1, max_size=D + 1),
       st.lists(tensor_data, min_size=D, max_size=D),
       st.lists(rat_tensor_data, min_size=D + 1, max_size=D + 1), pairs)
def test_series_built_from_q_agree_with_canonical(dr, dt, dg, shift):
    def rational(scalar):
        # a nonzero constant term, so that the series inverts
        return TruncatedSeries(RATIONAL_RING, [scalar((1, 2))]
                               + [scalar(p) for p in dr[1:]], D)

    def algebra_tensors(scalar):
        return TruncatedSeries(tensor_ring(1, PLAIN2, ARING),
                               [tensor_ring(1, PLAIN2, ARING).one]
                               + [tensor(d, scalar) for d in dt], D)

    def rational_tensors(scalar):
        return TruncatedSeries(tensor_ring(1, PLAIN2),
                               [rat_tensor(d, scalar) for d in dg], D)

    (r, r_), (t, t_), (g, g_) = (
        (build(raw), build(canonical))
        for build in (rational, algebra_tensors, rational_tensors))
    check(r * r, r_ * r_)
    check(r + r, r_ + r_)
    check(r * raw((2, 1)), r_ * 2)
    check(r.invert(), r_.invert())
    check(t.invert(), t_.invert())
    check(t * g, t_ * g_)
    check(t * t, t_ * t_)
    check(t.substitute_affine(1, raw(shift)),
          t_.substitute_affine(1, canonical(shift)))
    check(r.substitute_affine(raw((2, 1)), raw(shift)),
          r_.substitute_affine(2, canonical(shift)))
    check(*(trace_words(1, PLAIN2, [(1, tt)], [(1, z_matrix(gg.coeffs[0]))],
                        ARING, D)
            for gg, tt in ((g, t), (g_, t_))))
