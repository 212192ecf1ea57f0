from hypothesis import given, settings, strategies as st

from bethe.rationals import ONE, Q, ZERO
from bethe.series import (RATIONAL_RING, BiLaurent, RationalFactor,
                          TruncatedSeries)

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


def test_rational_factor_expansion():
    # 1/(u - 2) = u^-1 + 2 u^-2 + 4 u^-3 + ...
    f = RationalFactor([1], [-2, 1])
    s = f.expand(4)
    assert list(s.coeffs) == [ZERO, ONE, Q(2), Q(4), Q(8)]


def test_bilaurent_window_semantics():
    ring = RATIONAL_RING
    x = BiLaurent(ring, {(1, 0): ONE, (-1, 0): ONE}, 2, 2)
    y = BiLaurent(ring, {(-2, 0): ONE}, 2, 2)
    prod = x * y
    # multiplying by a positive-degree factor narrows the trusted window
    assert prod.cap_u == 1
    assert prod.entries == {(-1, 0): ONE}
    assert (x - x).is_zero()


def test_bilaurent_swap_exchanges_the_variables():
    from bethe.series import INF_CAP

    x = BiLaurent(RATIONAL_RING, {(-1, 0): ONE, (0, 2): Q(3), (-2, -1): Q(5)},
                  1, INF_CAP)
    y = x.swap()
    # (-2, -1) lies outside x's window; the swapped window is (INF, 1)
    assert y.entries == {(0, -1): ONE, (2, 0): Q(3)}
    assert (y.cap_u, y.cap_v) == (INF_CAP, 1)
    assert y.swap().entries == x.entries
