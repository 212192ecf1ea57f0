from hypothesis import given, settings, strategies as st

from bethe.rationals import ONE, Q, ZERO
from bethe.series import (RATIONAL_RING, BiLaurent, TruncatedSeries,
                          one_over_c_minus_2u)

D = 5

rat_strategy = st.builds(Q, st.integers(-6, 6),
                         st.integers(1, 4))
series_strategy = st.builds(
    lambda cs: TruncatedSeries(RATIONAL_RING, cs, D),
    st.lists(rat_strategy, min_size=0, max_size=D + 1))


@settings(max_examples=80, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a  # rational coefficients commute
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = TruncatedSeries.one(RATIONAL_RING, D)
    assert a * one == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(series_strategy, st.integers(1, 3), st.integers(-3, 3),
       st.integers(1, 3), st.integers(-3, 3))
def test_affine_substitution_composes(s, a1, b1, a2, b2):
    # s((a1 u + b1) with u -> a2 u + b2) = s(a1 a2 u + a1 b2 + b1)
    once = s.substitute_affine(a1, b1).substitute_affine(a2, b2)
    direct = s.substitute_affine(a1 * a2, a1 * b2 + b1)
    assert once == direct


@settings(max_examples=60, deadline=None)
@given(series_strategy)
def test_series_inverse(s):
    unit = s + TruncatedSeries.one(RATIONAL_RING, D) - \
        TruncatedSeries.constant(RATIONAL_RING, s.coeffs[0], D)
    inv = unit.invert()
    assert unit * inv == TruncatedSeries.one(RATIONAL_RING, D)


def test_truncation_never_overstates_accuracy():
    a = TruncatedSeries(RATIONAL_RING, [ONE, ONE, ONE], 2)
    b = TruncatedSeries(RATIONAL_RING, [ONE], 5)
    assert (a * b).trunc == 2
    assert (a + b).trunc == 2


@settings(max_examples=40, deadline=None)
@given(rat_strategy, st.integers(0, 6))
def test_one_over_c_minus_2u_times_c_minus_2u_is_one(c, d):
    # (c - 2u) is not a series in u^-1, so multiply coefficientwise: the
    # product's u^1 coefficient is -2 a_0, its u^-s one c a_s - 2 a_{s+1}
    a = one_over_c_minus_2u(c, d + 1).coeffs
    assert a[0] == ZERO
    assert [c * a[s] - 2 * a[s + 1] for s in range(d + 1)] \
        == [ONE] + [ZERO] * d


def test_bilaurent_window_semantics():
    ring = RATIONAL_RING
    x = BiLaurent(ring, {(1, 0): ONE, (-1, 0): ONE}, 2, 2)
    y = BiLaurent(ring, {(-2, 0): ONE}, 2, 2)
    prod = x * y
    # multiplying by a positive-degree factor narrows the trusted window
    assert prod.cap_u == 1
    assert prod.entries == {(-1, 0): ONE}
    assert (x - x).is_zero()
