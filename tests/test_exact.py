from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import det, rat_parse, rat_str

from _oracles import det_cofactor

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )


@given(st.integers(0, 5).flatmap(square))
@settings(max_examples=200, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    assert det(rows) == det_cofactor(rows)


def test_det_empty_matrix_is_one():
    assert det([]) == 1


def test_det_identity():
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert det(eye) == 1


def test_det_singular():
    rows = [
        [Fraction(1, 2), Fraction(1)],
        [Fraction(1, 4), Fraction(1, 2)],
    ]
    assert det(rows) == 0


def test_det_rejects_ragged():
    with pytest.raises(ValueError):
        det([[Fraction(1)], [Fraction(1), Fraction(2)]])


@given(st.integers(2, 4).flatmap(square))
@settings(max_examples=60, deadline=None)
def test_det_row_swap_flips_sign(rows):
    swapped = [rows[1], rows[0]] + rows[2:]
    assert det(swapped) == -det(rows)


@given(rationals, st.integers(1, 4).flatmap(square), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_det_row_scaling(scale, rows, i):
    i %= len(rows)
    scaled = [r[:] for r in rows]
    scaled[i] = [scale * v for v in scaled[i]]
    assert det(scaled) == scale * det(rows)


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
