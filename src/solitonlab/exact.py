"""Exact rational scalars and fraction-free determinants.

Parameters and exact results in this package are
:class:`fractions.Fraction`, which keeps values in lowest terms with a
positive denominator after every operation and raises ``ZeroDivisionError``
on division by zero.  The inner loops run on plain integers instead: the
tau functions are integer subset sums, the lattice map works on integer
numerators and denominators, and the monotonicity scan on integer linear
forms, each reducing to a ``Fraction`` only what it returns.  This module
adds the text round-trip used by the CLI and an exact determinant for
matrices given as sequences of rows; no package path calls :func:`det`,
which stays a public name.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Sequence

Rat = Fraction

ZERO = Fraction(0)
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


def det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Row denominators are cleared first so the elimination runs over plain
    integers; every interior division is then exact by construction.  Row
    swaps flip the tracked sign.  The empty matrix has determinant 1.
    """
    n = len(rows)
    if n == 0:
        return ONE
    m: list[list[int]] = []
    scale = 1  # product of the denominators cleared from each row
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows but a row of length {len(row)}")
        fracs = [Fraction(v) for v in row]
        mult = lcm(*(f.denominator for f in fracs))
        scale *= mult
        m.append([int(f * mult) for f in fracs])
    sign = 1
    prev = 1  # pivot of the previous elimination round, divides exactly
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale)
