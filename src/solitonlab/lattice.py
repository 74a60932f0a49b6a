"""Coupled two-parameter lattice map, window evolution, and related maps.

The core update couples a field x (advanced in time) with a carrier field y
(advanced in space):

    x' = ((1-b) + b*x*y) / ((1-a) + a*x*y) * y
    y~ = ((1-a) + a*x*y) / ((1-b) + b*x*y) * x

with parameters 0 < a, b < 1 written ``alpha`` and ``beta`` below.  A window
[n_lo, n_hi] is advanced by sweeping n left to right; y enters the window at
the left edge with a value given per row (the solution's own carrier there,
or by default the background value 1) and the value carried past n_hi is
discarded.  The product x*y at a site is preserved exactly by one update,
which is the main conservation check used throughout the tests.

Two relatives of the map live here as well: the classic one-parameter form
(``step_dkdv``), and the symmetric two-parameter normal form (``yb_map``)
reached by scaling x and y (``scale_to_yb``).  ``limit_chain_check`` measures
how the symmetric form degenerates into the one-parameter form as its first
parameter grows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import IO, Iterable, Sequence

from .errors import (
    NonPositiveParameter,
    ParamOutOfRange,
    SolitonEscapedWindow,
    WindowTooSmall,
    ZeroDenominator,
)
from .exact import ONE, Rat, rat_str

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

    @property
    def delta_cap(self) -> Fraction:
        """1 - alpha - beta.  Solitons exist exactly when this is negative."""
        return ONE - self.alpha - self.beta


def gkdv_local(x: Rat, y: Rat, params: SystemParams, site: int | None = None) -> tuple[Rat, Rat]:
    """One local update: returns (x advanced in t, y advanced in n).

    Runs on numerators and denominators.  With x = xn/xd, y = yn/yd,
    alpha = an/ad, beta = bn/bd, P/Q = x*y in lowest terms and

        A = (ad-an)*Q + an*P,    B = (bd-bn)*Q + bn*P,

    the two map denominators are A/(ad*Q) and B/(bd*Q), so their ratio is
    R = B*ad / (A*bd), x' = R*y and y~ = x/R.  R is reduced cheaply: a prime
    power dividing A and B divides (ad*bn - an*bd)*Q and (ad*bn - an*bd)*P,
    hence the small integer ad*bn - an*bd, since P and Q are coprime.  The
    products with y and x are then reduced by operand-sized cross gcds, as
    ``Fraction`` multiplication does, never by one gcd of the full products.
    """
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    an, ad = params.alpha.numerator, params.alpha.denominator
    bn, bd = params.beta.numerator, params.beta.denominator
    g1 = gcd(xn, yd)
    g2 = gcd(yn, xd)
    p = (xn // g1) * (yn // g2)
    q = (xd // g2) * (yd // g1)
    a = (ad - an) * q + an * p
    b = (bd - bn) * q + bn * p
    if not a or not b:
        raise ZeroDenominator(site)
    # gcd(a, b) divides ad*bn - an*bd; when that is 0, a == b and this is |a|
    g = gcd(gcd(a, ad * bn - an * bd), b)
    a //= g
    b //= g
    g = gcd(ad, bd)
    ad //= g
    bd //= g
    ga = gcd(a, ad)
    gb = gcd(b, bd)
    rn = (b // gb) * (ad // ga)
    rd = (a // ga) * (bd // gb)
    if rd < 0:
        rn, rd = -rn, -rd
    # x' = rn*yn / (rd*yd) and y~ = rd*xn / (rn*xd), each pair of factors
    # already coprime on its own
    g1 = gcd(rn, yd)
    g2 = gcd(yn, rd)
    x_up = _coprime_fraction((rn // g1) * (yn // g2), (rd // g2) * (yd // g1))
    g1 = gcd(rd, xd)
    g2 = gcd(xn, rn)
    num = (rd // g1) * (xn // g2)
    den = (rn // g2) * (xd // g1)
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


def dkdv_local(x: Rat, y: Rat, delta: Rat, site: int | None = None) -> tuple[Rat, Rat]:
    """One local update of the one-parameter form."""
    den = ONE + delta * x * y
    one_plus = ONE + delta
    if den == 0 or one_plus == 0:
        raise ZeroDenominator(site)
    return one_plus * y / den, den * x / one_plus


def yb_map(u: Rat, v: Rat, a: Rat, b: Rat) -> tuple[Rat, Rat]:
    """The symmetric normal form of the local update.

    Returns (u', v') with u' = (1 + b*u*v) v / (1 + a*u*v) and
    v' = (1 + a*u*v) u / (1 + b*u*v).
    """
    u, v, a, b = Fraction(u), Fraction(v), Fraction(a), Fraction(b)
    w = u * v
    den_a = ONE + a * w
    den_b = ONE + b * w
    if den_a == 0 or den_b == 0:
        raise ZeroDenominator()
    return den_b * v / den_a, den_a * u / den_b


def scale_to_yb(x: Rat, y: Rat, params: SystemParams) -> tuple[Rat, Rat, Rat, Rat]:
    """Scale a local (x, y) pair into normal-form variables.

    Returns (u, v, a, b) with u = x/(1-beta), v = y/(1-alpha),
    a = alpha*(1-beta), b = beta*(1-alpha).  Applying :func:`yb_map` to the
    scaled pair equals scaling the output of :func:`gkdv_local`.
    """
    u = Fraction(x) / (ONE - params.beta)
    v = Fraction(y) / (ONE - params.alpha)
    a = params.alpha * (ONE - params.beta)
    b = params.beta * (ONE - params.alpha)
    return u, v, a, b


def _coerce_row(row: Iterable) -> list[Fraction]:
    out = [Fraction(v) for v in row]
    if not out:
        raise WindowTooSmall("a window row must contain at least one site")
    return out


def _warn_if_escaped(x_right: Fraction, t: int | None = None) -> None:
    if abs(float(x_right) - 1.0) > ESCAPE_TOL:
        at = "" if t is None else f" at t={t}"
        warnings.warn(SolitonEscapedWindow(
            f"right window edge{at} deviates from the background by "
            f"{abs(float(x_right) - 1.0):.3e}; content is being truncated"))


def _sweep(xs: list[Fraction], y_left: Rat, n_lo: int, local,
           ) -> tuple[list[Fraction], list[Fraction]]:
    """Carry y left to right through ``local(x, y, site=...)`` over one row."""
    x_next: list[Fraction] = []
    y_row: list[Fraction] = [Fraction(y_left)]
    for k, x in enumerate(xs):
        x_up, y_right = local(x, y_row[-1], site=n_lo + k)
        x_next.append(x_up)
        y_row.append(y_right)
    return x_next, y_row


def step_gkdv(x_row: Sequence[Rat], params: SystemParams, *,
              y_left: Rat = ONE, n_lo: int = 0, t: int | None = None,
              ) -> tuple[list[Fraction], list[Fraction]]:
    """Advance one window row by one time step.

    Returns ``(x_next, y_row)`` where ``y_row[k]`` is the same-time carrier
    value entering site ``n_lo + k``; it has one extra trailing entry, the
    value carried past the right edge (discarded by the window evolution).
    Warns with :class:`SolitonEscapedWindow` when the input row's right edge
    has left the background.
    """
    xs = _coerce_row(x_row)
    _warn_if_escaped(xs[-1], t)
    return _sweep(xs, y_left, n_lo, partial(gkdv_local, params=params))


def step_dkdv(x_row: Sequence[Rat], delta: Rat, *,
              y_left: Rat = ONE, n_lo: int = 0,
              ) -> tuple[list[Fraction], list[Fraction]]:
    """Advance one window row of the one-parameter form by one time step."""
    return _sweep(_coerce_row(x_row), y_left, n_lo,
                  partial(dkdv_local, delta=Fraction(delta)))


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
        for xr, yr in zip(self.xs, self.ys):
            if len(xr) != width or len(yr) != width:
                raise ValueError("ragged field rows")
            if not all(xr) or not all(yr):
                raise ValueError("field values must be nonzero")
        if len(self.ys) != len(self.xs):
            raise ValueError("xs and ys must hold the same number of rows")

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
            raise ValueError(f"unknown value mode {values!r}")
        stream.write("n,t,x,y\n")
        for j, t in enumerate(self.times):
            for k, n in enumerate(self.sites):
                x, y = self.xs[j][k], self.ys[j][k]
                if values == "exact":
                    stream.write(f"{n},{t},{rat_str(x)},{rat_str(y)}\n")
                else:
                    stream.write(f"{n},{t},{x.numerator / x.denominator:.12g},"
                                 f"{y.numerator / y.denominator:.12g}\n")


def evolve_gkdv(x0_row: Sequence[Rat], params: SystemParams, steps: int, *,
                n_lo: int = 0, t0: int = 0,
                y_left: Sequence[Rat] | None = None) -> LatticeField:
    """Evolve an initial row for ``steps`` time steps; store every row.

    ``y_left[j]`` is the carrier entering site ``n_lo`` at time ``t0 + j``,
    one value per stored row.  Given the left-edge column of a solution,
    the sweep reproduces that solution exactly; by default the carrier
    enters at the background value 1.  The returned field holds
    ``steps + 1`` rows of x and of the same-time y.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if y_left is None:
        y_left = [ONE] * (steps + 1)
    elif len(y_left) != steps + 1:
        raise ValueError(f"y_left needs one value per row, {steps + 1}, got {len(y_left)}")
    local = partial(gkdv_local, params=params)
    rows_x: list[list[Fraction]] = []
    rows_y: list[list[Fraction]] = []
    cur = _coerce_row(x0_row)
    for j in range(steps + 1):
        _warn_if_escaped(cur[-1], t0 + j)
        nxt, y_row = _sweep(cur, y_left[j], n_lo, local)
        rows_x.append(cur)
        rows_y.append(y_row[:-1])  # drop the value carried past the edge
        cur = nxt
    return LatticeField(n_lo=n_lo, t0=t0, xs=rows_x, ys=rows_y)


def limit_chain_check(u: Rat, v: Rat, a_values: Sequence[Rat], b: Rat,
                      ) -> list[tuple[float, float]]:
    """Measure how the normal form degenerates into the one-parameter map.

    The input (u, v) is read in the scaled frame that keeps the one-parameter
    limit finite.  For each ``a`` the pair is pulled back (u/s_u, v/s_v) with
    s_u*s_v = a*b and s_u/s_v = (b+1)/b, pushed through :func:`yb_map`, and
    scaled forward again; the result is compared against one application of
    :func:`dkdv_local` with delta = 1/b.  The scale square roots cancel in
    these ratios, so everything is computed exactly; only the reported
    discrepancy is a float.  Returns ``[(a, max component discrepancy)]`` in
    input order; the discrepancy decays like 1/a.
    """
    u, v, b = Fraction(u), Fraction(v), Fraction(b)
    if b <= 0:
        raise NonPositiveParameter(f"b must be positive, got {b}")
    avs = [Fraction(a) for a in a_values]
    if any(a <= 0 for a in avs):
        raise NonPositiveParameter("every a must be positive")
    if any(a2 <= a1 for a1, a2 in zip(avs, avs[1:])):
        raise ValueError("a_values must be strictly increasing")
    delta = ONE / b
    out: list[tuple[float, float]] = []
    for a in avs:
        zeta2, xi2 = dkdv_local(u, v, delta)
        w = u * v / (a * b)  # product of the pulled-back pair
        den_a = ONE + a * w
        den_b = ONE + b * w
        if den_a == 0 or den_b == 0:
            raise ZeroDenominator()
        zeta1 = (ONE + delta) * v * den_b / den_a
        xi1 = u * den_a / ((ONE + delta) * den_b)
        disc = max(abs(zeta1 - zeta2), abs(xi1 - xi2))
        out.append((float(a), float(disc)))
    return out
