"""The accumulation kernel and the element types that sum through it:
`accumulate` against a naive sum, truth values against the stored term
dicts, and the one-pass subtraction of every sparse element type against
a + (-b)."""
from hypothesis import given, settings, strategies as st

from bethe.algebra import AlgebraElement, YangianRule
from bethe.indices import IndexSet
from bethe.poisson import PoissonContext
from bethe.rationals import Q, accumulate
from bethe.series import INF_CAP, RATIONAL_RING, BiLaurent, TruncatedSeries
from bethe.tensor import TensorElement

PLAIN2 = IndexSet.plain(2)
RULE = YangianRule(PLAIN2)
CONTEXT = PoissonContext(PLAIN2, 2)
GENS = [(r, i, j) for r in (1, 2) for i in (1, 2) for j in (1, 2)]

# small magnitudes and few keys, so that sums collide and cancel
rats = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
nonzero_rats = rats.filter(bool)


def _sparse(keys):
    return st.dictionaries(keys, rats, max_size=6)


@st.composite
def algebra_elements(draw):
    words = st.lists(st.sampled_from(GENS), max_size=2).map(
        lambda w: tuple(sorted(w)))
    return AlgebraElement(RULE, draw(_sparse(words)))


@st.composite
def tensors(draw):
    idx = st.sampled_from(PLAIN2.indices())
    keys = st.tuples(st.tuples(idx), st.tuples(idx))
    return TensorElement(1, PLAIN2, RATIONAL_RING, draw(_sparse(keys)))


@st.composite
def bilaurents(draw):
    keys = st.tuples(st.integers(-3, 1), st.integers(-3, 1))
    caps = st.one_of(st.integers(0, 3), st.just(INF_CAP))
    return BiLaurent(RATIONAL_RING, draw(_sparse(keys)), draw(caps),
                     draw(caps))


@st.composite
def poisson_polys(draw):
    monos = st.lists(st.sampled_from(GENS), max_size=2).map(tuple)
    return CONTEXT.reduced(draw(_sparse(monos)))


ELEMENTS = st.one_of(algebra_elements(), tensors(), bilaurents(),
                     poisson_polys())


@settings(max_examples=200, deadline=None)
@given(start=st.dictionaries(st.integers(0, 4), nonzero_rats, max_size=5),
       items=st.lists(st.tuples(st.integers(0, 4), nonzero_rats),
                      max_size=12))
def test_accumulate_equals_a_naive_sum(start, items):
    naive = dict(start)
    for k, v in items:
        naive[k] = naive.get(k, 0) + v
    naive = {k: v for k, v in naive.items() if v}
    acc = dict(start)
    assert accumulate(acc, items) is acc
    assert acc == naive


def _terms(x):
    """The sparse dict an element stores: its nonzero terms or entries."""
    return x.terms if hasattr(x, "terms") else x.entries


@settings(max_examples=120, deadline=None)
@given(ELEMENTS)
def test_truth_value_is_nonzero(x):
    assert bool(x) is bool(_terms(x))
    assert not (x - x) and not _terms(x - x)


def _same(a, b):
    if isinstance(a, BiLaurent):
        return (a.entries == b.entries
                and (a.cap_u, a.cap_v) == (b.cap_u, b.cap_v))
    return a == b


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_pass_sub_equals_adding_the_negative(data):
    kind = data.draw(st.sampled_from([algebra_elements, tensors, bilaurents,
                                      poisson_polys]))
    a, b = data.draw(kind()), data.draw(kind())
    assert _same(a - b, a + (-b))
    assert _same(a - (a + b), a + (-(a + b)))


@settings(max_examples=60, deadline=None)
@given(st.lists(rats, max_size=4), st.lists(rats, max_size=4),
       st.integers(0, 3), st.integers(0, 3))
def test_series_sub_is_coefficientwise(ca, cb, da, db):
    a = TruncatedSeries(RATIONAL_RING, ca, da)
    b = TruncatedSeries(RATIONAL_RING, cb, db)
    diff = a - b
    assert diff.trunc == min(da, db) == (a + (-b)).trunc
    assert diff.coeffs == (a + (-b)).coeffs
