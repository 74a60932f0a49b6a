"""Exact rational scalars and their text form.

Parameters and exact results in this package are
:class:`fractions.Fraction`, which keeps values in lowest terms with a
positive denominator after every operation and raises ``ZeroDivisionError``
on division by zero.  The inner loops run on plain integers instead: the
tau functions are integer subset sums, the lattice map works on integer
numerators and denominators, and the monotonicity scan on integer linear
forms, each reducing to a ``Fraction`` only what it returns.  This module
adds the text round-trip used by the CLI.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

Rat = Fraction

ONE = Fraction(1)


def rat_parse(text: str) -> Fraction:
    """Parse ``"p/q"``, an integer, or an exact decimal like ``"0.25"``.

    Raises ``ValueError`` on malformed text and ``ZeroDivisionError`` on a
    zero denominator.
    """
    return Fraction(text.strip())


def rat_str(value: Fraction) -> str:
    """Canonical text form: ``"p/q"``, or just ``"p"`` when q == 1.

    The digits go through :class:`decimal.Decimal`, which has no limit on
    their count; ``str(int)`` refuses ints above CPython's 4300-digit
    int-to-str limit, which rows evolved from a free initial row (carrier
    entering at 1) pass within a few steps.
    """
    value = Fraction(value)
    num = str(Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{Decimal(value.denominator)}"
