"""Determinant solitons, closed-form speed and amplitude laws, and the
bilinear identities behind them.

Every tau function here is the four-direction determinant (``kp_tau``)

    tau(l1, l2, t, n) = det[ delta_ij + gamma_i w_i / (p_i - q_j) ],
    w_i = prod_d r_{i,d}^{l_d},  r_{i,d} = (q_i - d) / (p_i - d),

over the directions d = a1, a2, b, c with exponents l1, l2, t, n.  It obeys
two three-term bilinear identities and, when p_i + q_i = a1 + a2 for every
row, a two-direction periodicity; both are exposed as exact checks.  It is
evaluated by its Cauchy principal-minor expansion,

    tau = sum over mode subsets S of c_S prod_{i in S} w_i,
    c_S = prod_{i in S} gamma_i / (p_i - q_i)
          * prod_{i<j in S} (p_i - p_j)(q_j - q_i) / ((p_i - q_j)(p_j - q_i)),

as integer subset sums: the c_S over one common denominator and the subset
ratios of each direction's r and 1/r are built once per ``KPParams``, and a
point, or a unit shift of it, costs elementwise integer products.  A window
of points is walked: from its point nearest the origin, each unit step
multiplies every subset term by one small entry of the direction's r list
(outwards towards +) or 1/r list (towards -), so the terms at every point
are those of the point alone, a big integer times a small one per step.

An N-soliton state of the two-parameter map, with modes (p_i, gamma_i), is
the reduction (``validate`` checks the modes and returns its ``KPParams``)

    a1 = 0,  a2 = span = alpha + beta - 1,  b = alpha - 1,  c = alpha,
    q_i = span - p_i,

and its pair of tau functions is f(t, n) = tau(0, 0, t, n) and
g(t, n) = tau(1, 0, t, n) = tau(0, -1, t, n).  Under the reduction
r_{i,b} = A_i, r_{i,c} = B_i and r_{i,a1} = D_i, with

    A_i = (-p_i + beta) / (p_i + 1 - alpha)
    B_i = (p_i + 1 - beta) / (-p_i + alpha)
    D_i = (span - p_i) / p_i,

gamma_i / (p_i - q_i) = C_i = gamma_i / (2 p_i - span), and the pair
factor of c_S is ((p_i - p_j) / (p_i + p_j - span))^2.  A window of f and g
is one table of integer subset sums (see ``_tau_grid``).

The lattice fields are the cross ratios x = f * g(n+1) / (g * f(n+1)) and
y = g * f(t+1) / (f * g(t+1)).  A mode is a genuine soliton when
0 < p < span and gamma has the sign of (p - midpoint); then all four
constants A_i, B_i, C_i, D_i are positive and the mode has

    speed      v(p) = -log A / log B          (1 at the midpoint)
    amplitude  W(p) = |(1 + 1/s)(1 + s) / ((1 + r)(1 + 1/r)) - 1|,
               s = sqrt(B * D_i), r = sqrt(D_i / B).

Both laws are exactly symmetric under p -> span - p, which is what makes
the speed/size ordering flip with the sign of alpha - beta.  They take A,
B, D as integer (numerator, denominator) pairs, from ``_abd`` for one
wavenumber, or for the whole grid of ``scan_monotonicity`` from integer
linear forms in the grid index (``_law_grid``); the scan builds a
``Fraction`` p only for the values its report prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from random import Random
from typing import Sequence

from .errors import (
    ConstraintViolated,
    DegenerateP,
    DenominatorClash,
    DrawExhausted,
    DuplicateP,
    GammaSignCondition,
    GridTooSmall,
    InvalidInterval,
    POutOfRange,
    WindowTooSmall,
    ZeroTau,
)
from .exact import ONE, Rat, rat_str
from .lattice import LatticeField, SystemParams, _gkdv_constants

# read only by bench/spans.py, which wraps solitons.det by attribute
det = None


def validate(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]]) -> KPParams:
    """Check an N-mode parameter list and return the ``KPParams`` of its
    reduction (see the module docstring).

    Each entry is a (p, gamma) pair.  Raises InvalidInterval when no soliton
    can exist at all.  The per-mode checks run first, in mode order.  The
    pair checks are ``KPParams``' own: a repeated p raises DuplicateP(i, j),
    and p_i = q_j, which is p_i + p_j = span, raises DenominatorClash(i, j),
    first for i < j since the condition is symmetric.
    """
    span = _span(params)
    mid = span / 2
    modes = []
    for i, (p, gamma) in enumerate(solitons):
        p, gamma = Fraction(p), Fraction(gamma)
        a, b, d = _abd(params, p, i)
        if p == mid:
            raise DegenerateP(i)
        if gamma * (p - mid) <= 0:
            raise GammaSignCondition(i)
        c = gamma / (2 * p - span)
        # guaranteed by the checks above; kept as a hard invariant because the
        # taus and the speed and amplitude laws need all four positive
        if not (a > 0 and b > 0 and c > 0 and d > 0):
            raise ConstraintViolated(
                f"mode {i}: A, B, C, D must all be positive, got {a}, {b}, {c}, {d}")
        modes.append((p, span - p, gamma))
    return KPParams(0, span, params.alpha - 1, params.alpha, tuple(modes))


def _span(params: SystemParams) -> Fraction:
    """Length alpha + beta - 1 of the wavenumber interval; raises
    InvalidInterval when it is empty, since then no soliton can exist."""
    span = params.alpha + params.beta - ONE
    if span <= 0:
        raise InvalidInterval(
            f"alpha + beta must exceed 1 for solitons, got {params.alpha + params.beta}")
    return span


def _abd(params: SystemParams, p: Rat, mode: int = 0) -> tuple[Fraction, Fraction, Fraction]:
    """A, B, D of wavenumber p, after the one admissibility check of p: the
    interval (0, alpha + beta - 1) must exist and hold p, else POutOfRange
    names ``mode``.  Unlike C, all three are defined at the midpoint too."""
    span = _span(params)
    p = Fraction(p)
    if not (0 < p < span):
        raise POutOfRange(mode, f"p={p}, interval (0, {span})")
    a = (-p + params.beta) / (p + ONE - params.alpha)
    b = (p + ONE - params.beta) / (-p + params.alpha)
    d = (span - p) / p
    return a, b, d


def _ratios(abd: Sequence[Fraction]) -> list[tuple[int, int]]:
    """(numerator, denominator) pairs of an A, B, D triple, as the laws take it."""
    return [x.as_integer_ratio() for x in abd]


def _speed(a: tuple[int, int], b: tuple[int, int], _d: tuple[int, int]) -> float:
    """The speed law -log A / log B, from A, B, D as integer (numerator,
    denominator) pairs, reduced or not: ``int / int`` is correctly rounded,
    so each quotient is the float of the rational whatever its form."""
    (an, ad), (bn, bd) = a, b
    if an * bn == ad * bd:
        return 1.0
    return -math.log(an / ad) / math.log(bn / bd)


def _depth(_a: tuple[int, int], b: tuple[int, int], d: tuple[int, int]) -> float:
    """The amplitude law, from the same integer pairs as :func:`_speed`."""
    (bn, bd), (dn, dd) = b, d
    if bn * dn == bd * dd:
        return 0.0
    s = math.sqrt(bn * dn / (bd * dd))
    r = math.sqrt(dn * bd / (dd * bn))
    f = (1.0 + 1.0 / s) * (1.0 + s) / ((1.0 + r) * (1.0 + 1.0 / r))
    return abs(f - 1.0)


def velocity(params: SystemParams, p: Rat) -> float:
    """Closed-form speed -log A / log B; exactly 1 at the interval midpoint."""
    return _speed(*_ratios(_abd(params, p)))


def amplitude(params: SystemParams, p: Rat) -> float:
    """Closed-form trough amplitude |x_min - 1|; 0 at the interval midpoint."""
    return _depth(*_ratios(_abd(params, p)))


def _subset_ratios(bases: Sequence[Fraction]) -> list[int]:
    """prod_{i in S} num(base_i) * prod_{i not in S} den(base_i) for every
    subset S, S the bitmask index (bit i set: base i is in S)."""
    ratios = [1]
    for base in bases:
        ratios = ([r * base.denominator for r in ratios]
                  + [r * base.numerator for r in ratios])
    return ratios


def _walk(terms: list[int], lo: int, hi: int, anchor: int,
          up: list[int], down: list[int]) -> list[list[int]]:
    """Subset terms at positions lo..hi of one direction, from ``terms`` at
    ``anchor``, which is the point of lo..hi nearest 0.  A step away from
    the anchor multiplies them elementwise by the direction's r list
    (``up``, towards +) or 1/r list (``down``, towards -), so each position
    holds the terms of :func:`_kp_base` there."""
    below = [terms]
    for _ in range(anchor - lo):
        below.append(list(map(mul, below[-1], down)))
    above = [terms]
    for _ in range(hi - anchor):
        above.append(list(map(mul, above[-1], up)))
    return below[:0:-1] + above


def _tau_grid(kp: KPParams, t0: int, n0: int,
              row_lengths: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Integer (f, g) pairs at (t0 + j, n0 + k) for k < row_lengths[j], for
    the reduced ``kp`` of :func:`validate`.

    The pair at (t, n) is the subset sums of :func:`_kp_base` at
    (0, 0, t, n): f is the sum of its terms, and g the sum of those times
    a1's r list, which adds its factor D_a1.  So f is f(t, n) times
    M * D_b^{|t|} * D_c^{|n|}, with M the common denominator of the c_S and
    D_b, D_c the denominator products of the r list (exponent > 0) or the
    1/r list (exponent < 0) of b and c, and g is g(t, n) times the same and
    D_a1.  The grid is canonical: a pair does not depend on the window it
    was read from.  The scale is positive and shared by the two taus of a
    point, so it cancels from every cross ratio, and none is returned.

    The terms are walked out from the window point nearest the origin,
    rows along t and then each row's columns along n, one small-integer
    product per subset term and step.  Every row starts its column walk at
    the shared anchor column and is cut to its length afterwards.
    """
    t1, n1 = t0 + len(row_lengths) - 1, n0 + max(row_lengths) - 1
    ta, na = min(max(0, t0), t1), min(max(0, n0), n1)
    _, terms, dirs = _kp_base(kp, (0, 0, ta, na))
    (g_ratio, *_), _, (t_up, _, t_down, _), (n_up, _, n_down, _) = dirs
    return [[(sum(ts), sum(map(mul, ts, g_ratio)))
             for ts in _walk(row, n0, n1, na, n_up, n_down)[:length]]
            for row, length in zip(_walk(terms, t0, t1, ta, t_up, t_down), row_lengths)]


def _window_taus(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
                 t_range: tuple[int, int], n_range: tuple[int, int], t_shift: bool,
                 ) -> list[list[tuple[int, int]]]:
    """Integer (f, g) pairs of :func:`_tau_grid` for a window and its n-shift
    column, plus its t-shift row when ``t_shift`` is set.

    Each pair carries its own positive scale, shared by its f and g, so a
    consumer must be homogeneous per point: multiplying one pair by any
    positive integer may not change what it computes.  Both ranges are
    inclusive.  The corner (t1 + 1, n1 + 1) is never
    evaluated: it feeds neither x nor y.  Raises ZeroTau naming the first
    site, row by row, where a tau vanishes.
    """
    t0, t1 = t_range
    n0, n1 = n_range
    if t1 < t0 or n1 < n0:
        raise WindowTooSmall(f"empty range: t {t_range}, n {n_range}")
    nn = n1 - n0 + 1
    rows = [nn + 1] * (t1 - t0 + 1) + ([nn] if t_shift else [])
    taus = _tau_grid(validate(params, solitons), t0, n0, rows)
    for j, row in enumerate(taus):
        if not all(map(all, row)):
            k = next(k for k, pair in enumerate(row) if not all(pair))
            raise ZeroTau(t0 + j, n0 + k)
    return taus


def sample_field(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
                 t_range: tuple[int, int], n_range: tuple[int, int]) -> LatticeField:
    """Exact (x, y) window of the N-soliton state.

    Both ranges are inclusive.  The tau pair is evaluated once per point of
    the window, plus one column for the n-shift in x and one row for the
    t-shift in y, by the integer subset sums of :func:`_tau_grid`.  Each x
    and y is then one integer ratio, reduced once.  Its float counterpart,
    :func:`sample_x_float`, divides the same integers straight to floats.
    """
    taus = _window_taus(params, solitons, t_range, n_range, t_shift=True)
    xs = [[Fraction(f00 * gn, g00 * fn) for (f00, g00), (fn, gn) in zip(row, row[1:])]
          for row in taus[:-1]]
    ys = [[Fraction(g00 * ft, f00 * gt) for (f00, g00), (ft, gt) in zip(row[:-1], up)]
          for row, up in zip(taus, taus[1:])]
    return LatticeField(n_lo=n_range[0], t0=t_range[0], xs=xs, ys=ys)


def sample_x_float(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
                   t_range: tuple[int, int], n_range: tuple[int, int],
                   ) -> list[list[float]]:
    """x of the N-soliton state as float rows, one per time of ``t_range``.

    Equal, bit for bit, to ``sample_field(...).x_float()``: each x is the
    same integer ratio as there, and ``int / int`` is correctly rounded, so
    the ratio goes straight to the nearest float with no ``Fraction`` and no
    gcd.  No t-shifted row is evaluated, since y is not returned.
    """
    taus = _window_taus(params, solitons, t_range, n_range, t_shift=False)
    return [[f00 * gn / (g00 * fn) for (f00, g00), (fn, gn) in zip(row, row[1:])]
            for row in taus]


def check_exactness(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
                    t_range: tuple[int, int], n_range: tuple[int, int],
                    ) -> list[list[bool]]:
    """Per-site verdicts of the two-parameter map on the N-soliton state.

    Row j, column k says whether the map sends x and y at site (t0 + j,
    n0 + k) to the next row's x and the next column's y, as
    :func:`_exact_sites` decides it on the unreduced integer taus of the
    sites and of their t- and n-shifts.  Both ranges are inclusive.
    """
    t0, t1 = t_range
    if t1 < t0:
        raise WindowTooSmall(f"empty range: t {t_range}")
    taus = _window_taus(params, solitons, (t0, t1 + 1), n_range, t_shift=False)
    return _exact_sites(taus, _gkdv_constants(params))


def _exact_sites(taus: list[list[tuple[int, int]]], consts: tuple[int, ...]) -> list[list[bool]]:
    """Per-site verdicts of the two-point map with ``lattice._map_constants``
    ``consts`` on a grid of integer taus (f, g), making no Fraction and no gcd.

    Site (j, k) reads f, g there, fn, gn at (j, k+1), ft, gt at (j+1, k), ftn,
    gtn at (j+1, k+1).  R is homogeneous in x*y = P/Q, P = gn*ft, Q = fn*gt:
    R = N1*l2 / (N2*l1), N1 = C1*Q + D1*P, N2 = C2*Q + D2*P.  A site passes when
    N1, N2 != 0 and x' = R*y is x at (j+1, k): gtn*f*N2*l1 == ftn*g*N1*l2.  Then
    y~ = x/R is y at (j, k+1), as the map keeps x*y and tau ratios have x*y at
    (j, k) = x(j+1, k)*y(j, k+1) identically; so these are the reduced x', y~ verdicts.
    Both sides of the equation, and N1 and N2, are homogeneous in each of the
    four (f, g) pairs a site reads, so the verdicts do not depend on the scale
    of any pair, as :func:`_window_taus` requires.
    """
    c1, d1, c2, d2, _, l1, l2 = consts

    def exact(f, g, fn, gn, ft, gt, ftn, gtn) -> bool:
        p, q = gn * ft, fn * gt
        n1, n2 = (c1 * q + d1 * p) * l2, (c2 * q + d2 * p) * l1
        return n1 != 0 and n2 != 0 and gtn * f * n2 == ftn * g * n1

    return [[exact(*here, *right, *above, *diag)
             for here, right, above, diag in zip(row, row[1:], up, up[1:])]
            for row, up in zip(taus, taus[1:])]


# ---------------------------------------------------------------------------
# four-parameter determinant tau and its bilinear identities


@dataclass(frozen=True)
class KPParams:
    """Parameters of the four-direction determinant tau.

    ``modes`` holds (p_i, q_i, gamma_i) rows.  All p_i and q_i must be
    distinct from each other and from the direction parameters a1, a2, b, c,
    so no matrix entry or phase base can blow up.
    """

    a1: Fraction
    a2: Fraction
    b: Fraction
    c: Fraction
    modes: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "a1", Fraction(self.a1))
        object.__setattr__(self, "a2", Fraction(self.a2))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "modes", tuple(
            (Fraction(p), Fraction(q), Fraction(g)) for p, q, g in self.modes))
        dirs = (self.a1, self.a2, self.b, self.c)
        ps = [m[0] for m in self.modes]
        qs = [m[1] for m in self.modes]
        for i, (p, q, _) in enumerate(self.modes):
            if p in dirs or q in dirs:
                raise DegenerateP(i, "p or q collides with a direction parameter")
        for i in range(len(self.modes)):
            for j in range(len(self.modes)):
                if i < j and (ps[i] == ps[j] or qs[i] == qs[j]):
                    raise DuplicateP(i, j)
                if ps[i] == qs[j]:
                    raise DenominatorClash(i, j)

    @cached_property
    def _subset_tables(self) -> tuple[int, list[int], list[tuple[list[int], int, list[int], int]]]:
        """Integer tables of the Cauchy principal-minor expansion, built on
        first use, so that the ``KPParams`` that ``analyze`` gets from
        ``validate`` only to read its modes never builds them.

        Returns (L, c, dirs).  c[S] is L * c_S for the mode subset S of
        bitmask index S, with L the common denominator.  dirs holds, for
        a1, a2, b and c in turn, the ``_subset_ratios`` list of the r_{i,d}
        with their shared denominator product D_d, then those of the
        1/r_{i,d}: entry S of the r list is D_d * prod_{i in S} r_{i,d}.
        """
        terms = [ONE]
        for i, (p, q, gamma) in enumerate(self.modes):
            w = gamma / (p - q)
            pair = [(pj - p) * (q - qj) / ((pj - q) * (p - qj))
                    for pj, qj, _ in self.modes[:i]]
            for s in range(1 << i):
                term = terms[s] * w
                for j in range(i):
                    if s >> j & 1:
                        term *= pair[j]
                terms.append(term)
        big_l = math.lcm(*(term.denominator for term in terms))
        coefs = [term.numerator * (big_l // term.denominator) for term in terms]
        dirs = []
        for d in (self.a1, self.a2, self.b, self.c):
            rs = [(q - d) / (p - d) for p, q, _ in self.modes]
            inv = [1 / r for r in rs]
            dirs.append((_subset_ratios(rs), math.prod(r.denominator for r in rs),
                         _subset_ratios(inv), math.prod(r.denominator for r in inv)))
        return big_l, coefs, dirs


def _kp_base(kp: KPParams, point: tuple[int, int, int, int],
             ) -> tuple[int, list[int], list[tuple[list[int], int, list[int], int]]]:
    """Integer subset terms of the four-direction tau at ``point``.

    Returns (M, terms, dirs).  terms[S] = c_S * prod_d R_d[S]^{|l_d|}, with
    the r or 1/r list of each direction by the sign of its exponent, is M
    times the subset term of S at ``point``, M positive; dirs are the
    direction tables of ``KPParams._subset_tables``.
    """
    scale, terms, dirs = kp._subset_tables
    for l, (up, up_den, down, down_den) in zip(point, dirs):
        if l:
            table, den = (up, up_den) if l > 0 else (down, down_den)
            terms = [c * r ** abs(l) for c, r in zip(terms, table)]
            scale *= den ** abs(l)
    return scale, terms, dirs


def _kp_sums(kp: KPParams, point: tuple[int, int, int, int],
             shifts: Sequence[tuple[int, int, int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """Integer subset sums of the four-direction tau at ``point + s`` for
    each 0/1 shift s of ``shifts``.

    Returns the scale M of :func:`_kp_base` and one (sum, extra) pair per
    shift, with tau(point + s) = sum / (M * extra).  A unit shift along d
    multiplies the base terms elementwise by d's r list, which carries the
    positive factor D_d into ``extra``, whatever the sign of l_d.
    """
    scale, terms, dirs = _kp_base(kp, point)
    sums = []
    for shift in shifts:
        shifted, extra = terms, 1
        for on, (up, up_den, _, _) in zip(shift, dirs):
            if on:
                shifted = list(map(mul, shifted, up))
                extra *= up_den
        sums.append((sum(shifted), extra))
    return scale, sums


def kp_tau(kp: KPParams, l1: int, l2: int, t: int, n: int) -> Fraction:
    """The four-direction tau at integer position (l1, l2, t, n)."""
    scale, [(total, _)] = _kp_sums(kp, (l1, l2, t, n), [(0, 0, 0, 0)])
    return Fraction(total, scale)


# the shifts at which the two bilinear identities and the reduction read tau
_BILINEAR_SHIFTS = ((1, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1),
                    (0, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 0), (0, 1, 0, 1))
_REDUCTION_SHIFTS = ((1, 1, 0, 0), (0, 0, 0, 0))


def check_kp_bilinear(kp: KPParams, point: tuple[int, int, int, int],
                      ) -> tuple[Fraction, Fraction]:
    """Exact residuals of the two three-term bilinear identities at a point.

    Both residuals are identically zero for any valid parameter set; they are
    returned rather than asserted so callers can report them.  Every product
    of r1 carries total shift (1, 0, 1, 1) and every product of r2 (0, 1, 1,
    1), so each residual is one integer combination over one common scale.
    """
    scale, sums = _kp_sums(kp, point, _BILINEAR_SHIFTS)
    tau = dict(zip(_BILINEAR_SHIFTS, sums))  # shift -> (integer sum, extra)

    def residual(a: Fraction, e1: int, e2: int) -> Fraction:
        terms = ((a - kp.b, (e1, e2, 1, 0), (0, 0, 0, 1)),
                 (kp.b - kp.c, (e1, e2, 0, 0), (0, 0, 1, 1)),
                 (kp.c - a, (e1, e2, 0, 1), (0, 0, 1, 0)))
        m = math.lcm(*(k.denominator for k, _, _ in terms))
        total = sum(k.numerator * (m // k.denominator) * tau[u][0] * tau[v][0]
                    for k, u, v in terms)
        return Fraction(total, m * scale * scale * tau[e1, e2, 1, 0][1] * tau[0, 0, 0, 1][1])

    return residual(kp.a1, 1, 0), residual(kp.a2, 0, 1)


def check_reduction(kp: KPParams, point: tuple[int, int, int, int]) -> Fraction:
    """Exact residual tau(l1+1, l2+1, t, n) - tau(l1, l2, t, n).

    Requires the reduction constraint p_i + q_i = a1 + a2 on every mode and
    raises ConstraintViolated otherwise.  Under the constraint the residual
    is identically zero.
    """
    target = kp.a1 + kp.a2
    for i, (p, q, _) in enumerate(kp.modes):
        if p + q != target:
            raise ConstraintViolated(
                f"mode {i}: p + q = {p + q}, constraint requires {target}")
    scale, [(shifted, extra), (base, _)] = _kp_sums(kp, point, _REDUCTION_SHIFTS)
    return Fraction(shifted - base * extra, scale * extra)


def random_kp_params(rng: Random, n_modes: int, *, constrained: bool = False) -> KPParams:
    """Draw a small random valid KPParams; deterministic for a seeded rng.

    With ``constrained=True`` the modes satisfy q_i = a1 + a2 - p_i, the
    premise of :func:`check_reduction`.  Raises DrawExhausted when 200
    draws find no admissible value for a mode, as happens for good once
    the pool of small fractions runs short of distinct values.
    """

    def small() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        a1, a2, b, c = (small() for _ in range(4))
        if len({a1, a2, b, c}) == 4:
            break
    dirs = {a1, a2, b, c}
    ps: set[Fraction] = set()
    qs: set[Fraction] = set()
    modes: list[tuple[Fraction, Fraction, Fraction]] = []
    for i in range(n_modes):
        for _attempt in range(200):
            p = small()
            q = a1 + a2 - p if constrained else small()
            # the checks of KPParams, on the new (p, q) only: no direction,
            # no repeat, and no p equal to any q, its own included
            if (p in dirs or q in dirs or p in ps or q in qs or p in qs
                    or q in ps or p == q):
                continue
            g = small()
            if g == 0:
                continue
            modes.append((p, q, g))
            ps.add(p)
            qs.add(q)
            break
        else:
            raise DrawExhausted(n_modes, i)
    return KPParams(a1, a2, b, c, tuple(modes))


# ---------------------------------------------------------------------------
# monotonicity scan of the closed-form laws


def _law_grid(params: SystemParams, grid_size: int) -> tuple[list[float], list[float]]:
    """v and W at p_k = span * k / (grid_size + 1), k = 1..grid_size, for
    params whose interval (0, span) the caller has checked.

    With L = lcm(den alpha, den beta) * (grid_size + 1) and the integer
    S = L * span / (grid_size + 1), each of A, B, D at p_k is a ratio of
    integer linear forms in k:

        A = (L beta - S k) / (S k + L - L alpha)
        B = (S k + L - L beta) / (L alpha - S k)
        D = (grid_size + 1 - k) / k

    Every p_k lies inside the interval, so no point needs a range check, and
    the unreduced pairs go straight to :func:`_speed` and :func:`_depth`, which
    give what they give for ``_abd(params, p_k)``, bit for bit.
    """
    g1 = grid_size + 1
    big_l = math.lcm(params.alpha.denominator, params.beta.denominator) * g1
    la = params.alpha.numerator * (big_l // params.alpha.denominator)
    lb = params.beta.numerator * (big_l // params.beta.denominator)
    s = (la + lb - big_l) // g1
    abds = [((lb - s * k, s * k + big_l - la), (s * k + big_l - lb, la - s * k), (g1 - k, k))
            for k in range(1, g1)]
    return [_speed(*abd) for abd in abds], [_depth(*abd) for abd in abds]


def scan_monotonicity(params: SystemParams, grid_size: int) -> dict:
    """Probe v(p) and W(p) on an interior grid and report monotonicity breaks.

    The grid has ``grid_size`` points p_k = k * span / (grid_size + 1),
    evaluated by :func:`_law_grid` from integer linear forms in k after one
    check of the interval; raises GridTooSmall below 3 points.  W must fall
    toward the midpoint and rise after it; v must be monotone on each half
    with the direction set by sign(alpha - beta), and constant when
    alpha = beta.  Which half a pair of neighbours lies on is an integer
    test on k, and a ``Fraction`` p is built only for the values the report
    prints.  The returned dict is the CLI's JSON payload.
    """
    if grid_size < 3:
        raise GridTooSmall(f"grid_size must be at least 3, got {grid_size}")
    span = _span(params)
    g1 = grid_size + 1
    vs, wsamp = _law_grid(params, grid_size)

    def p_str(i: int) -> str:
        # list index i holds grid point k = i + 1
        return rat_str(span * (i + 1) / g1)

    tol = 1e-12  # float noise floor for adjacent comparisons
    violations: list[dict] = []

    def check(kind: str, i: int, direction: int) -> None:
        # direction +1: must not decrease from i to i+1; -1: must not
        # increase; 0: both ends must equal 1 (v when alpha = beta)
        left, right = (vs if kind == "v" else wsamp)[i:i + 2]
        if direction > 0:
            bad = right < left - tol
        elif direction < 0:
            bad = right > left + tol
        else:
            bad = abs(left - 1.0) > 1e-9 or abs(right - 1.0) > 1e-9
        if bad:
            violations.append({
                "quantity": kind,
                "p_left": p_str(i),
                "p_right": p_str(i + 1),
                "left": left,
                "right": right,
            })

    equal_ab = params.alpha == params.beta
    v_up_first = params.alpha < params.beta  # v rises toward the midpoint
    for i in range(grid_size - 1):
        # p_{k+1} <= span / 2 and p_k >= span / 2, for k = i + 1
        if 2 * (i + 2) <= g1:
            half = "left"
        elif 2 * (i + 1) >= g1:
            half = "right"
        else:
            continue  # straddles the midpoint; no adjacent constraint
        check("w", i, -1 if half == "left" else +1)
        up = v_up_first if half == "left" else not v_up_first
        check("v", i, 0 if equal_ab else (+1 if up else -1))

    if equal_ab:
        v_ext = rat_str(span / 2)  # v is constant; the branch point is the only natural marker
    elif v_up_first:
        v_ext = p_str(max(range(grid_size), key=vs.__getitem__))
    else:
        v_ext = p_str(min(range(grid_size), key=vs.__getitem__))
    return {
        "alpha": rat_str(params.alpha),
        "beta": rat_str(params.beta),
        "grid": grid_size,
        "violations": violations,
        "v_extremum_p": v_ext,
        "w_extremum_p": p_str(min(range(grid_size), key=wsamp.__getitem__)),
    }
