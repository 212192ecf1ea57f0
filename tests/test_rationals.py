import pytest

from bethe.rationals import (ONE, Q, ZERO, binomial, div, format_rat,
                             parse_rat, rat)


def test_basic_arithmetic():
    assert Q(1, 2) + Q(1, 3) == Q(5, 6)
    assert Q(2, 4) == Q(1, 2)
    assert ONE / Q(3) == Q(1, 3)
    assert ZERO == 0 and ONE == 1


def test_binomial():
    assert binomial(4, 2) == 6 and type(binomial(4, 2)) is int
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_format_parse_roundtrip():
    for x in (Q(0), Q(7), Q(-3, 4), Q(22, 7)):
        assert parse_rat(format_rat(x)) == x
    assert format_rat(Q(-3, 4)) == "-3/4"
    assert parse_rat("5") == 5
    assert type(parse_rat("4/2")) is int and type(parse_rat("-3")) is int


def test_rat_and_div_are_canonical():
    # an int when integral, a Q only with a denominator > 1
    assert type(rat(4, 2)) is int and rat(4, 2) == 2
    assert type(rat(Q(6, 3))) is int and type(rat(7)) is int
    assert rat(3, 6) == Q(1, 2) and type(rat(3, 6)) is Q
    assert type(div(Q(1, 2), Q(1, 4))) is int
    assert div(1, 3) == Q(1, 3) and div(Q(3, 4), 3) == Q(1, 4)
    # two ints, with either sign
    assert [div(a, b) for a, b in ((-6, 3), (6, -3), (-6, -3), (7, -2))] \
        == [-2, -2, 2, Q(-7, 2)]
    assert [type(div(a, 3)) for a in (-6, 0, 7)] == [int, int, Q]
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2"])
def test_rat_rejects_floats_and_strings(bad):
    with pytest.raises(TypeError):
        rat(bad)
