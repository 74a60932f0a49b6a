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


def _two_point(xn: int, xd: int, yn: int, yd: int, k: tuple[int, ...], site: int,
               ) -> tuple[int, int, int, int]:
    """The two-point map (x, y) -> (R*y, x/R) on reduced integer pairs,
    (xn, xd, yn, yd) -> (xn', xd', yn', yd'), with positive denominators.

    ``k`` holds the constants of R from :func:`_gkdv_constants`.  Two gcds
    with two full-size operands are taken at every site, g1 = gcd(xn, yd)
    and g2 = gcd(yn, xd).  With a = xn/g1, h = yd/g1, b = yn/g2 and e = xd/g2,
    the product w = x*y is a*b / (e*h) in lowest terms, since a and h, b
    and e, a and e, and b and h are coprime.

    R = N1*l2 / (N2*l1) with N1 = C1*e*h + D1*a*b and N2 = C2*e*h + D2*a*b,
    and g = gcd(N1, N2) divides K.  One remainder per side by a small
    operand, a1 = gcd(N1, K*l1) and a2 = gcd(N2, K*l2), gives
    g = gcd(a1, a2), as l1 and l2 are coprime; and as g | K, a1 holds
    gcd(N1, g*l1) = g*s1, the factor N1 shares with l1 once g is out, and
    a2 likewise for N2 and l2.  K = 0 (alpha = beta) needs no branch of its
    own: there a1 = |N1| and a2 = |N2|, so g is the full-size gcd(N1, N2).
    That leaves R = rn/rd in lowest terms.

    On a solution row g1 is mostly the tau f at the site and g2 the tau
    g, which x' = R*y and y~ = x/R no longer hold, so rn cancels g1 and rd
    cancels g2: one division each finds that.  Where the remainder is not
    0, the full-size u1 = gcd(rn mod g1, g1) is their common part, and u2
    likewise.  N1 shares with h only factors of D1 and with a only factors
    of C1, N2 with b only factors of C2 and with e only factors of D2, and
    a factor of rn beyond N1 divides l2, one of rd beyond N2 divides l1.
    So gcd(rn, C1*D1*l2) = 1, one remainder by a small operand, shows that
    rn shares nothing with h or a, and gcd(rd, C2*D2*l1) = 1 the same for
    rd with b and e.  Otherwise the four gcds gcd(h, D1*l2, rn),
    gcd(a, C1*l2, rn), gcd(b, C2*l1, rd) and gcd(e, D2*l1, rd), each
    through a small operand, divide out what is left, as ``Fraction``
    multiplication would.  Raises :class:`ZeroDenominator` naming ``site``
    when N1 or N2 vanishes.
    """
    c1, d1, c2, d2, big_k, l1, l2 = k
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
    a1, a2 = gcd(n1, big_k * l1), gcd(n2, big_k * l2)
    g = gcd(a1, a2)
    s1, s2 = gcd(a1 // g, l1), gcd(a2 // g, l2)
    rn = n1 // (g * s1) * (l2 // s2)
    rd = n2 // (g * s2) * (l1 // s1)
    if rd < 0:
        rn, rd = -rn, -rd
    rn, g1 = _cancel(rn, g1)
    rd, g2 = _cancel(rd, g2)
    # x' = rn*b*g2 / (rd*h*g1) and y~ = rd*a*g1 / (rn*e*g2)
    xrn = yrn = rn
    xrd = yrd = rd
    if gcd(rn, c1 * d1 * l2) != 1 or gcd(rd, c2 * d2 * l1) != 1:
        f1, f4 = gcd(gcd(h, d1 * l2), rn), gcd(gcd(a, c1 * l2), rn)
        f2, f3 = gcd(gcd(b, c2 * l1), rd), gcd(gcd(e, d2 * l1), rd)
        xrn, h, yrn, a = rn // f1, h // f1, rn // f4, a // f4
        xrd, b, yrd, e = rd // f2, b // f2, rd // f3, e // f3
    num, den = yrd * a * g1, yrn * e * g2
    if den < 0:
        num, den = -num, -den
    return xrn * b * g2, xrd * h * g1, num, den


def _cancel(v: int, g: int) -> tuple[int, int]:
    """(v/u, g/u) for u = gcd(v, g) and g > 0: one division when g | v,
    else the gcd of g with the remainder, which is u too."""
    quo, rem = divmod(v, g)
    if not rem:
        return quo, 1
    u = gcd(rem, g)
    return v // u, g // u


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
    value carried past the right edge.  The carrier moves between sites as
    an integer pair.
    """
    y = Fraction(y_left)
    yn, yd = y.numerator, y.denominator
    x_next: list[Fraction] = []
    y_row: list[Fraction] = [y]
    for i, x in enumerate(xs):
        xn, xd, yn, yd = _two_point(x.numerator, x.denominator, yn, yd, k, n_lo + i)
        x_next.append(_coprime_fraction(xn, xd))
        y_row.append(_coprime_fraction(yn, yd))
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
        for t, xr, yr in zip(self.times, self.xs, self.ys):
            if values == "exact":
                lines = [f"{n},{t},{rat_str(x)},{rat_str(y)}\n"
                         for n, x, y in zip(self.sites, xr, yr)]
            else:
                lines = [f"{n},{t},{x.numerator / x.denominator:.12g},"
                         f"{y.numerator / y.denominator:.12g}\n"
                         for n, x, y in zip(self.sites, xr, yr)]
            stream.write("".join(lines))


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

