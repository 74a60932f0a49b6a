from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from solitonlab import rat_parse, rat_str

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)


def test_rat_parse_forms():
    assert rat_parse("3/4") == Fraction(3, 4)
    assert rat_parse("-3/4") == Fraction(-3, 4)
    assert rat_parse(" 7 ") == Fraction(7)
    assert rat_parse("0.125") == Fraction(1, 8)


def test_rat_parse_rejects_garbage():
    for bad in ("", "1/0", "a/b", "1//2"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            rat_parse(bad)


@given(rationals)
def test_rat_str_round_trips(q):
    assert rat_parse(rat_str(q)) == q


def test_rat_str_beyond_int_str_digit_limit():
    # CPython refuses str() of ints above 4300 digits by default; evolved
    # rows pass that within a few steps, so rat_str must not depend on it
    q = Fraction(10 ** 5000 + 1, 3)
    assert rat_str(q) == "1" + "0" * 4999 + "1/3"
    assert rat_str(Fraction(-(10 ** 5000))) == "-1" + "0" * 5000
