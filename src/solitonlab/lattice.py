"""The two-parameter lattice map and window evolution.

The map is one exact two-point update (x, y) -> (R*y, x/R) with
R = ((1-beta) + beta*x*y) / ((1-alpha) + alpha*x*y), 0 < alpha, beta < 1.
It couples a field x, advanced in time, with a carrier field y, advanced in
space.  The kernel takes R in the form (c1 + d1*x*y) / (c2 + d2*x*y), with
integer constants from ``_gkdv_constants``.

:func:`evolve_gkdv` runs the map: it advances a window [n_lo, n_hi] by
sweeping n left to right, once per time step.  y enters the window at the
left edge with a value given per row (the solution's own carrier there, or
by default the background value 1) and the value carried past n_hi is
discarded.  The product x*y at a site is preserved exactly by one update,
which is the main conservation check used throughout the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import IO, Sequence

from .errors import (
    NegativeSteps,
    ParamOutOfRange,
    RaggedField,
    SolitonEscapedWindow,
    UnknownValueMode,
    WindowTooSmall,
    ZeroDenominator,
    ZeroFieldValue,
)

# float threshold for warning that the right window edge left the background
ESCAPE_TOL = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the two-parameter map; both must lie in the open (0, 1)."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise ParamOutOfRange(
                f"alpha and beta must lie in (0, 1), got {self.alpha}, {self.beta}")


def _two_point(x: Fraction, y: Fraction, k: tuple[int, ...], site: int,
               ) -> tuple[Fraction, Fraction]:
    """The two-point map (x, y) -> (R*y, x/R), on numerators and denominators.

    ``k`` holds the constants of R from :func:`_gkdv_constants`.  Only two
    gcds per site take two full-size operands, g1 = gcd(xn, yd) and
    g2 = gcd(yn, xd); every other gcd has a small operand or, on solution
    rows, a divisor of the other.  With a = xn/g1, h = yd/g1, b = yn/g2 and
    e = xd/g2, the product w = x*y is a*b / (e*h) in lowest terms, since a
    and h, b and e, a and e, and b and h are coprime.

    R is reduced by a gcd with the small K and by the scales, to rn/rd.
    Then N1 = C1*e*h + D1*a*b shares with h only factors of D1 and with a
    only factors of C1; likewise N2 shares with b only factors of C2 and
    with e only factors of D2.  A factor of rn beyond N1 divides l2, and
    one of rd beyond N2 divides l1.  For u1 = gcd(rn, g1), rn/u1 and g1/u1
    are coprime, so gcd(rn, yd) = gcd(rn, g1*h) = u1 * gcd(rn/u1, h), and
    gcd(rn/u1, h) divides D1*l2; gcd(xn, rn) = u1 * gcd(rn/u1, a) likewise,
    through C1*l2.  u2 = gcd(rd, g2) gives gcd(yn, rd) through C2*l1 and
    gcd(rd, xd) through D2*l1.  These four cross gcds reduce x' = rn*yn /
    (rd*yd) and y~ = rd*xn / (rn*xd), as ``Fraction`` multiplication does.
    Raises :class:`ZeroDenominator` naming ``site`` when N1 or N2 vanishes.
    """
    c1, d1, c2, d2, big_k, l1, l2 = k
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    g1 = gcd(xn, yd)
    g2 = gcd(yn, xd)
    a, h = xn // g1, yd // g1
    b, e = yn // g2, xd // g2
    p = a * b
    q = e * h
    n1 = c1 * q + d1 * p
    n2 = c2 * q + d2 * p
    if not n1 or not n2:
        raise ZeroDenominator(f"map denominator vanished at site n={site}", site=site)
    # gcd(n1, n2) divides K; when K is 0 this is gcd(n1, n2) itself
    g = gcd(gcd(n1, big_k), n2)
    n1 //= g
    n2 //= g
    s1 = gcd(n1, l1)
    s2 = gcd(n2, l2)
    rn = (n1 // s1) * (l2 // s2)
    rd = (n2 // s2) * (l1 // s1)
    if rd < 0:
        rn, rd = -rn, -rd
    # on solution rows g1 divides rn and g2 divides rd, so each costs one division
    u1 = gcd(rn, g1)
    u2 = gcd(rd, g2)
    rn //= u1
    rd //= u2
    g1 //= u1
    g2 //= u2
    # now x' = rn*b*g2 / (rd*h*g1) and y~ = rd*a*g1 / (rn*e*g2), and only
    # the small-factor gcds gcd(rn, h), gcd(b, rd), gcd(rd, e) and
    # gcd(a, rn) are left to divide out
    f1 = gcd(gcd(h, d1 * l2), rn)
    f2 = gcd(gcd(b, c2 * l1), rd)
    x_up = _coprime_fraction((rn // f1) * (b // f2) * g2,
                             (rd // f2) * (h // f1) * g1)
    f3 = gcd(gcd(e, d2 * l1), rd)
    f4 = gcd(gcd(a, c1 * l2), rn)
    num = (rd // f3) * (a // f4) * g1
    den = (rn // f4) * (e // f3) * g2
    if den < 0:
        num, den = -num, -den
    return x_up, _coprime_fraction(num, den)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for coprime num and den > 0, without the gcd.

    Sets the two slots that ``Fraction`` keeps, as its own arithmetic does
    for results it has already reduced.
    """
    out = object.__new__(Fraction)
    out._numerator = num
    out._denominator = den
    return out


def _gkdv_constants(params: SystemParams) -> tuple[int, ...]:
    """Integer constants of the map, R = (c1 + d1*w) / (c2 + d2*w) with
    (c1, d1, c2, d2) = (1 - beta, beta, 1 - alpha, alpha).

    1 - beta and beta share the denominator l1 of beta, and 1 - alpha and
    alpha the denominator l2 of alpha, which scale them to the integers
    C1 = l1 - D1, D1 and C2 = l2 - D2, D2, the numerators of beta and alpha.
    So for w = P/Q in lowest terms R = N1*l2 / (N2*l1) with
    N1 = C1*Q + D1*P and N2 = C2*Q + D2*P.  A prime power dividing N1 and N2
    divides K*Q and K*P, hence the small integer K = C1*D2 - D1*C2, since P
    and Q are coprime.  Returns (C1, D1, C2, D2, K, l1, l2), with the common
    factor of l1 and l2 divided out.
    """
    l1, l2 = params.beta.denominator, params.alpha.denominator
    big_d1, big_d2 = params.beta.numerator, params.alpha.numerator
    big_c1, big_c2 = l1 - big_d1, l2 - big_d2
    g = gcd(l1, l2)
    return (big_c1, big_d1, big_c2, big_d2, big_c1 * big_d2 - big_d1 * big_c2,
            l1 // g, l2 // g)


def _warn_if_escaped(x_right: Fraction, t: int) -> None:
    if abs(float(x_right) - 1.0) > ESCAPE_TOL:
        warnings.warn(SolitonEscapedWindow(
            f"right window edge at t={t} deviates from the background by "
            f"{abs(float(x_right) - 1.0):.3e}; content is being truncated"))


def _sweep(xs: list[Fraction], y_left: Fraction, k: tuple[int, ...], n_lo: int,
           ) -> tuple[list[Fraction], list[Fraction]]:
    """Carry y left to right through the two-point map with constants ``k``
    over one row whose first site is ``n_lo``.

    Returns ``(x_next, y_row)``, where ``y_row[i]`` is the same-time
    carrier entering site ``i``, and its one extra trailing entry is the
    value carried past the right edge.
    """
    x_next: list[Fraction] = []
    y_row: list[Fraction] = [Fraction(y_left)]
    for i, x in enumerate(xs):
        x_up, y_right = _two_point(x, y_row[-1], k, n_lo + i)
        x_next.append(x_up)
        y_row.append(y_right)
    return x_next, y_row


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


@dataclass
class LatticeField:
    """A window of exact (x, y) values over times t0..t0+len(xs)-1.

    ``xs[j][k]`` and ``ys[j][k]`` hold x and y at time ``t0 + j`` and site
    ``n_lo + k``.  A field built by :func:`evolve_gkdv` has the left-edge y
    it was given; from a sampled solution's initial row and left column it
    equals the sampled field.  A solution is at the background x = y = 1
    only up to its tails, which is the point of the escape warning.
    """

    n_lo: int
    t0: int
    xs: list[list[Fraction]]
    ys: list[list[Fraction]]

    def __post_init__(self):
        if not self.xs or not self.xs[0]:
            raise WindowTooSmall("a field needs at least one row and one site")
        width = len(self.xs[0])
        for t, xr, yr in zip(self.times, self.xs, self.ys):
            if len(xr) != width or len(yr) != width:
                raise RaggedField("ragged field rows")
            for name, row in (("x", xr), ("y", yr)):
                if not all(row):
                    n = self.n_lo + row.index(0)
                    raise ZeroFieldValue(f"field {name} is 0 at (t={t}, n={n})",
                                         point=(t, n))
        if len(self.ys) != len(self.xs):
            raise RaggedField("xs and ys must hold the same number of rows")

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.xs[0]) - 1

    @property
    def t1(self) -> int:
        return self.t0 + len(self.xs) - 1

    @property
    def times(self) -> range:
        return range(self.t0, self.t1 + 1)

    @property
    def sites(self) -> range:
        return range(self.n_lo, self.n_hi + 1)

    def x_float(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.xs]

    def write_csv(self, stream: IO[str], *, values: str = "float") -> None:
        """Write rows ``n,t,x,y`` ordered by t then n.

        ``values`` selects ``"float"`` (default, 12 significant digits) or
        ``"exact"`` (``p/q`` text).  A float value is ``numerator /
        denominator``, which is correctly rounded, as ``float()`` is, without
        the generic ``numbers.Rational.__float__`` behind it.
        """
        if values not in ("float", "exact"):
            raise UnknownValueMode(f"unknown value mode {values!r}")
        stream.write("n,t,x,y\n")
        for j, t in enumerate(self.times):
            for k, n in enumerate(self.sites):
                x, y = self.xs[j][k], self.ys[j][k]
                if values == "exact":
                    stream.write(f"{n},{t},{rat_str(x)},{rat_str(y)}\n")
                else:
                    stream.write(f"{n},{t},{x.numerator / x.denominator:.12g},"
                                 f"{y.numerator / y.denominator:.12g}\n")


def evolve_gkdv(x0_row: Sequence[Fraction], params: SystemParams, steps: int, *,
                n_lo: int = 0, t0: int = 0,
                y_left: Sequence[Fraction] | None = None) -> LatticeField:
    """Evolve an initial row for ``steps`` time steps; store every row.

    ``y_left[j]`` is the carrier entering site ``n_lo`` at time ``t0 + j``,
    one value per stored row.  Given the left-edge column of a solution,
    the sweep reproduces that solution exactly; by default the carrier
    enters at the background value 1.  The returned field holds
    ``steps + 1`` rows of x and of the same-time y.
    """
    if steps < 0:
        raise NegativeSteps("steps must be >= 0")
    if y_left is None:
        y_left = [1] * (steps + 1)
    elif len(y_left) != steps + 1:
        raise RaggedField(f"y_left needs one value per row, {steps + 1}, got {len(y_left)}")
    k = _gkdv_constants(params)
    rows_x: list[list[Fraction]] = []
    rows_y: list[list[Fraction]] = []
    cur = [Fraction(v) for v in x0_row]
    if not cur:
        raise WindowTooSmall("a window row must contain at least one site")
    for j in range(steps + 1):
        _warn_if_escaped(cur[-1], t0 + j)
        nxt, y_row = _sweep(cur, y_left[j], k, n_lo)
        rows_x.append(cur)
        rows_y.append(y_row[:-1])  # drop the value carried past the edge
        cur = nxt
    return LatticeField(n_lo=n_lo, t0=t0, xs=rows_x, ys=rows_y)

