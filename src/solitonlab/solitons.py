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
ratios of each direction's r and 1/r are built once per ``KPParams``, in
integer arithmetic with one gcd per stored ratio, and a point, or a unit
shift of it, costs elementwise integer products.  The constants of the
exact checks, the identities' coefficients and the reduction constraint's
verdict, are built once per ``KPParams`` in integers too, so a probe point
of ``check_kp_bilinear`` or ``check_reduction`` costs only integer products
of its subset sums.

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
factor of c_S is ((p_i - p_j) / (p_i + p_j - span))^2.  A window of one
tau is a list of integer rows, one per time (``_tau_grid``), and a window
of f and g pairs the rows at l1 = 0 and l1 = 1 (``_window_taus``).  Each
subset term changes by a constant factor per step, so a row of one term is
a geometric sequence: the rows are built as per-term lines from the
rectangle's point nearest the origin, one small-integer product per line
entry and step, and summed by column.

The lattice fields are the cross ratios x = f * g(n+1) / (g * f(n+1)) and
y = g * f(t+1) / (f * g(t+1)), exact in ``sample_field``.  The float x of
``sample_x_float`` is the ratio of two short quotients of f / g, one per
point, and is the exact x rounded once: where the quotients' enclosure of
x cannot decide the rounding, that point takes the exact ratio of the
full-width products instead.  A mode is a genuine soliton when
0 < p < span and gamma has the sign of (p - midpoint); then all four
constants A_i, B_i, C_i, D_i are positive.  With u = p - span / 2,
h_A = (1 + beta - alpha) / 2, h_B = (1 + alpha - beta) / 2 and s = span / 2,
A = (h_A - u) / (h_A + u), B = (h_B + u) / (h_B - u), D = (s - u) / (s + u),
and the mode has

    speed      v(p) = -log A / log B = artanh(u / h_A) / artanh(u / h_B)
    amplitude  W(p) = |(1 + 1/S)(1 + S) / ((1 + r)(1 + 1/r)) - 1|,
               S = sqrt(B D), r = sqrt(D / B),
               W(p) = 2P / (1 + P + sqrt(R)),  P = u^2 / (h_B s),
               R = (1 - u^2 / h_B^2)(1 - u^2 / s^2).

Both are even in u, and v's limit at the midpoint is h_B / h_A.  With
c = h_B / h_A and z = |u| / h_B, v = artanh(c z) / artanh(z), where z and
c z are below 1 as h_B - s = 1 - beta and h_A - s = 1 - alpha.  Over z,
both are power series in z^2 with positive coefficients, whose ratio
c^(2k+1) falls with k when c < 1 and rises when c > 1.  By the
Biernacki-Krzyz lemma (Ann. Univ. Mariae Curie-Sklodowska A 9, 1955), v
falls strictly with |u| when alpha < beta and rises when alpha > beta; W
rises, as P rises and R falls.  So on each half of the interval the larger
soliton is slower when alpha < beta and faster when alpha > beta, and the
fastest speed is the larger of v at u = 0 and at |u| -> s.

``_laws`` evaluates both forms, where every sum adds positive terms, over
integers |u|, h_A, h_B and s with one common denominator: ``velocity`` and
``amplitude`` are its one-point case, ``speed_bound`` its speed at u = 0
and |u| = s, and ``scan_monotonicity`` passes its grid's |u| as an integer
range (``_law_grid``), building a ``Fraction`` p only for the values its
report prints.  A speed quotient that leaves the float range raises
FloatLawUndefined naming p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import floordiv, lshift, mul, ne, truediv
from random import Random
from typing import Iterator, Sequence

from .errors import (
    ConstraintViolated,
    DegenerateP,
    DenominatorClash,
    DrawExhausted,
    DuplicateP,
    FloatLawUndefined,
    GammaSignCondition,
    GridTooSmall,
    InvalidInterval,
    POutOfRange,
    TooManyModes,
    WindowTooSmall,
    ZeroTau,
)
from .lattice import LatticeField, SystemParams, _gkdv_constants, rat_str

# read only by bench/spans.py, which wraps solitons.det by attribute
det = None

# most modes of one KPParams: its subset tables hold 2**N terms, and at
# N = 16 take ~1.6 s and ~75 MB to build (CPython 3.11), doubling per mode
MAX_MODES = 16


def validate(params: SystemParams, solitons: Sequence[tuple[Fraction, Fraction]]) -> KPParams:
    """Check an N-mode parameter list and return the ``KPParams`` of its
    reduction (see the module docstring).

    Each entry is a (p, gamma) pair.  Raises InvalidInterval when no soliton
    can exist at all.  The per-mode checks run first, in mode order.  The
    pair checks are ``KPParams``' own: a repeated p raises DuplicateP, and
    p_i = q_j, which is p_i + p_j = span, raises DenominatorClash, each with
    ``pair`` (i, j), first for i < j since the condition is symmetric.
    """
    span = _span(params)
    mid = span / 2
    modes = []
    for i, (p, gamma) in enumerate(solitons):
        p, gamma = Fraction(p), Fraction(gamma)
        a, b, d = _abd(params, p, i)
        if p == mid:
            raise DegenerateP(f"soliton {i}: p equals the interval midpoint", index=i)
        if gamma * (p - mid) <= 0:
            raise GammaSignCondition(
                f"soliton {i}: gamma must satisfy gamma * (p - midpoint) > 0", index=i)
        c = gamma / (2 * p - span)
        # guaranteed by the checks above; kept as a hard invariant because the
        # taus and the speed and amplitude laws need all four positive
        if not (a > 0 and b > 0 and c > 0 and d > 0):
            raise ConstraintViolated(
                f"mode {i}: A, B, C, D must all be positive, got {a}, {b}, {c}, {d}",
                index=i)
        modes.append((p, span - p, gamma))
    return KPParams(0, span, params.alpha - 1, params.alpha, tuple(modes))


def _span(params: SystemParams) -> Fraction:
    """Length alpha + beta - 1 of the wavenumber interval; raises
    InvalidInterval when it is empty, since then no soliton can exist."""
    span = params.alpha + params.beta - 1
    if span <= 0:
        raise InvalidInterval(
            f"alpha + beta must exceed 1 for solitons, got {params.alpha + params.beta}")
    return span


def _admissible(params: SystemParams, p: Fraction, mode: int = 0) -> Fraction:
    """p as a ``Fraction``, after its one admissibility check: the interval
    (0, alpha + beta - 1) must exist and hold p, else POutOfRange names
    ``mode``."""
    span = _span(params)
    p = Fraction(p)
    if not (0 < p < span):
        raise POutOfRange(f"soliton {mode}: p outside the admissible interval "
                          f"(p={p}, interval (0, {span}))", index=mode)
    return p


def _abd(params: SystemParams, p: Fraction, mode: int = 0) -> tuple[Fraction, Fraction, Fraction]:
    """A, B, D of wavenumber p, after :func:`_admissible`.  Unlike C, all
    three are defined at the midpoint too."""
    p = _admissible(params, p, mode)
    a = (-p + params.beta) / (p + 1 - params.alpha)
    b = (p + 1 - params.beta) / (-p + params.alpha)
    d = (params.alpha + params.beta - 1 - p) / p
    return a, b, d


# below this, log1p(y) / y rounds to 1
_TINY = 2.0 ** -54


def _laws(us: Sequence[int], ha: int, hb: int, s: int, p: Fraction,
          ) -> tuple[Iterator[float], Iterator[float]]:
    """The speed and the amplitude law, lazily, at every |u| of ``us``, with
    h_A, h_B and s over the same denominator, and ``p`` the wavenumber of
    the largest |u|.

    v = log1p(y_A) / log1p(y_B), y = 2|u| / (h - |u|), or (h_B - |u|) /
    (h_A - |u|), the ratio of the y, where both y are below 2^-54, which
    covers u = 0.  W = 2P / (1 + P + sqrt(R)).  Each y, P and R is one
    correctly rounded ``int / int``, so equal rationals give equal floats
    whatever the denominator.  As P < 1 and 0 <= R <= 1, W never raises; a
    speed quotient that leaves the float range raises FloatLawUndefined
    naming ``p``, since every quotient that can do so grows with |u|.
    """
    log1p, sqrt = math.log1p, math.sqrt

    def speeds() -> Iterator[float]:
        try:
            for u in us:
                a, b = ha - u, hb - u
                ya, yb = 2 * u / a, 2 * u / b
                yield b / a if ya < _TINY and yb < _TINY else log1p(ya) / log1p(yb)
        except OverflowError:
            raise FloatLawUndefined(f"the float speed law leaves the float range at "
                                    f"p={rat_str(p)}", p=p) from None

    hs = hb * s
    hb2, s2, hs2 = hb * hb, s * s, hs * hs
    ws = (2 * (q := u2 / hs) / (1 + q + sqrt((hb2 - u2) * (s2 - u2) / hs2))
          for u2 in map(mul, us, us))
    return speeds(), ws


def _law_constants(params: SystemParams) -> tuple[int, int, int]:
    """h_A, h_B and s of ``params``, whose interval the caller has checked,
    over the common denominator 2 lcm(den alpha, den beta); as
    h_A + h_B = 1, that denominator is the sum of the first two."""
    lc = math.lcm(params.alpha.denominator, params.beta.denominator)
    la = params.alpha.numerator * (lc // params.alpha.denominator)
    lb = params.beta.numerator * (lc // params.beta.denominator)
    return lc + lb - la, lc + la - lb, la + lb - lc


def _law_point(params: SystemParams, p: Fraction) -> tuple[list[int], int, int, int, Fraction]:
    """The arguments of :func:`_laws` at one admissible p."""
    p = _admissible(params, p)
    ha, hb, s = _law_constants(params)
    n, d = p.as_integer_ratio()
    return [abs((ha + hb) * n - s * d)], ha * d, hb * d, s * d, p


def velocity(params: SystemParams, p: Fraction) -> float:
    """Closed-form speed -log A / log B, in the form of :func:`_laws`;
    (1 + alpha - beta) / (1 + beta - alpha) at the interval midpoint."""
    return next(_laws(*_law_point(params, p))[0])


def speed_bound(params: SystemParams) -> float:
    """Supremum of the speed law over (0, span): the fastest a soliton of
    (alpha, beta) moves, in sites per step.

    The speed is monotone in |u| (module docstring), so the bound is the
    larger of the law at u = 0, h_B / h_A, and its limit at |u| -> s, where
    h_A - s = 1 - alpha and h_B - s = 1 - beta.  A quotient that leaves the
    float range raises FloatLawUndefined with p = 0, and an empty interval
    raises InvalidInterval.
    """
    _span(params)
    ha, hb, s = _law_constants(params)
    return max(_laws((0, s), ha, hb, s, Fraction(0))[0])


def amplitude(params: SystemParams, p: Fraction) -> float:
    """Closed-form trough amplitude |x_min - 1|, in the form of
    :func:`_laws`; 0 at the interval midpoint."""
    return next(_laws(*_law_point(params, p))[1])


def _subset_ratios(bases: Sequence[tuple[int, int]]) -> list[int]:
    """prod_{i in S} num_i * prod_{i not in S} den_i for every subset S of
    the (num_i, den_i) pairs ``bases``, S the bitmask index (bit i set: base
    i is in S)."""
    ratios = [1]
    for num, den in bases:
        ratios = [r * den for r in ratios] + [r * num for r in ratios]
    return ratios


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms with a positive denominator, as ``Fraction``
    stores it, by one gcd."""
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _line(term: int, left: int, right: int, up: int, down: int) -> list[int]:
    """One subset term along n: ``term`` at the anchor column, times the
    term's 1/r ratio ``down`` per step left of it (``left`` steps) and its r
    ratio ``up`` per step right of it (``right`` steps)."""
    below = list(accumulate(repeat(down, left), mul, initial=term))
    return below[:0:-1] + list(accumulate(repeat(up, right), mul, initial=term))


def _tau_grid(kp: KPParams, l1: int, t0: int, n0: int, rows: int, cols: int,
              ) -> list[list[int]]:
    """Integer rows of tau(l1, 0, t, n) on the rectangle (t0 + j, n0 + k),
    j < rows, k < cols, for the reduced ``kp`` of :func:`validate`: entry j
    is the row at time t0 + j, a list of ``cols`` integers.

    A point's integer is the subset sum of :func:`_kp_base` at (l1, 0, t,
    n), which is tau there times the positive scale M * D_a1^l1 * D_b^{|t|}
    * D_c^{|n|} (M the common denominator of the c_S, D_d the denominator
    product of d's r or 1/r list).  So the grid is canonical: a point's
    integer does not depend on the window it was read from, and the scale
    cancels from every cross ratio of f (l1 = 0) and g (l1 = 1).

    Each subset term is a geometric sequence along a row, so the grid is
    built from one :func:`_line` per term through the anchor, the
    rectangle's point nearest the origin.  Each further row multiplies
    every line by its term's entry of t's r list for a step towards +t, or
    of its 1/r list for a step towards -t, and a row is the column sums of
    its lines: one small-integer product per line entry and step, in C
    loops with no Python bytecode per point.
    """
    t1, n1 = t0 + rows - 1, n0 + cols - 1
    ta, na = min(max(0, t0), t1), min(max(0, n0), n1)
    _, terms, dirs = _kp_base(kp, (l1, 0, ta, na))
    _, _, (t_up, _, t_down, _), (n_up, _, n_down, _) = dirs
    anchor = [_line(term, na - n0, n1 - na, up, down)
              for term, up, down in zip(terms, n_up, n_down)]

    def away(steps: int, ratios: list[int]) -> list[list[int]]:
        lines, out = anchor, []
        for _ in range(steps):
            lines = [list(map(mul, line, repeat(r))) for line, r in zip(lines, ratios)]
            out.append(list(map(sum, zip(*lines))))
        return out

    return away(ta - t0, t_down)[::-1] + [list(map(sum, zip(*anchor)))] + away(t1 - ta, t_up)


def _window_taus(kp: KPParams, t_range: tuple[int, int], n_range: tuple[int, int],
                 ) -> list[tuple[list[int], list[int]]]:
    """Integer (f_row, g_row) pairs on the rectangle of times t0..t1 by sites
    n0..n1 + 1, which holds the n-shift column: f_row is the :func:`_tau_grid`
    row at l1 = 0 and g_row the one at l1 = 1, for the ``kp`` of
    :func:`validate`, which each reader calls before this checks the window.

    Each point carries its own positive scale, shared by its f and g up to
    the constant D_a1, so a consumer must be homogeneous per point:
    multiplying the f and g of one point by any positive integer may not
    change what it computes.  Both ranges are inclusive.  Raises ZeroTau
    naming the first site, row by row, where a tau vanishes.
    """
    t0, t1 = t_range
    n0, n1 = n_range
    if t1 < t0 or n1 < n0:
        raise WindowTooSmall(f"empty range: t {t_range}, n {n_range}")
    shape = (t0, n0, t1 - t0 + 1, n1 - n0 + 2)
    taus = list(zip(_tau_grid(kp, 0, *shape), _tau_grid(kp, 1, *shape)))
    for j, (fs, gs) in enumerate(taus):
        if not (all(fs) and all(gs)):
            k = next(k for k, (f, g) in enumerate(zip(fs, gs)) if not (f and g))
            raise ZeroTau(f"tau function vanished at (t={t0 + j}, n={n0 + k})",
                          point=(t0 + j, n0 + k))
    return taus


def sample_field(params: SystemParams, solitons: Sequence[tuple[Fraction, Fraction]],
                 t_range: tuple[int, int], n_range: tuple[int, int]) -> LatticeField:
    """Exact (x, y) window of the N-soliton state.

    The modes are validated first; then an empty range, both inclusive,
    raises WindowTooSmall.  x needs the n-shift column and y the t-shift
    row, so the taus are the rectangle t0..t1 + 1 by n0..n1 + 1 of
    :func:`_window_taus`.  Each x and y is one integer ratio, reduced once;
    :func:`sample_x_float` divides the same integers straight to floats.
    """
    taus = _window_taus(validate(params, solitons), (t_range[0], t_range[1] + 1), n_range)
    # x = f * gn / (g * fn) and y = g * ft / (f * gt), over shifted row slices
    xs = [list(map(Fraction, map(mul, fs, gs[1:]), map(mul, gs, fs[1:])))
          for fs, gs in taus[:-1]]
    ys = [list(map(Fraction, map(mul, gs[:-1], fts), map(mul, fs, gts)))
          for (fs, gs), (fts, gts) in zip(taus, taus[1:])]
    return LatticeField(n_lo=n_range[0], t0=t_range[0], xs=xs, ys=ys)


def sample_x_float(params: SystemParams, solitons: Sequence[tuple[Fraction, Fraction]],
                   t_range: tuple[int, int], n_range: tuple[int, int],
                   ) -> list[list[float]]:
    """x of the N-soliton state as float rows, one per time of ``t_range``.

    Equal, bit for bit, to ``sample_field(...).x_float()``, with no
    full-width product.  x needs no t-shift row: the taus are those of the
    rectangle t0..t1 by n0..n1 + 1 of :func:`_window_taus`.  Each point's
    ratio f / g is cut to the short quotient rho = floor(f * 2^K / g), and
    x = f * gn / (g * fn) is (f / g) / (fn / gn), so it lies strictly
    between lo = rho / (rhon + 1) and hi = (rho + 1) / rhon, rhon the
    quotient one site on.  ``int / int`` is correctly rounded and rounding
    is monotone, so where lo and hi round to the same float, that float is
    the correctly rounded x: Ziv's rounding test.

    The quotient is homogeneous per point, as :func:`_window_taus`
    requires.  K comes from the modes that ``validate`` checked: every
    subset term of f and g is positive there (C, A, B and D are, and the
    pair factors are squares), and the g term is the f term times its entry
    of the a1 ratio list, so g / f is at most that list's largest entry E.
    With K = 66 + the bit length of E, every rho is at least 2^66 and each
    bound is within a relative 2^-65 of x.  A point whose bounds round
    apart, about 1 in 10^4, takes the exact ``int / int`` of the two
    full-width products, :func:`_exact_x`; so does every point of a row
    with a quotient below 1, which only taus that break the premise give.
    The modes are validated before the window is checked.
    """
    kp = validate(params, solitons)
    taus = _window_taus(kp, t_range, n_range)
    _, _, ((a1_ratios, _, _, _), *_) = kp._subset_tables
    shift = 66 + max(a1_ratios).bit_length()
    rows = []
    for fs, gs in taus:
        rho = list(map(floordiv, map(lshift, fs, repeat(shift)), gs))
        if min(rho) < 1:
            rows.append([_exact_x(fs, gs, k) for k in range(len(fs) - 1)])
            continue
        up = list(map((1).__add__, rho))
        row, hi = list(map(truediv, rho, up[1:])), list(map(truediv, up, rho[1:]))
        if row != hi:
            for k in compress(range(len(row)), map(ne, row, hi)):
                row[k] = _exact_x(fs, gs, k)
        rows.append(row)
    return rows


def _exact_x(fs: list[int], gs: list[int], k: int) -> float:
    """x at column k of one (f_row, g_row) pair, f * gn / (g * fn), as one
    correctly rounded ``int / int`` of the two full-width products."""
    return fs[k] * gs[k + 1] / (gs[k] * fs[k + 1])


def check_exactness(params: SystemParams, solitons: Sequence[tuple[Fraction, Fraction]],
                    t_range: tuple[int, int], n_range: tuple[int, int],
                    ) -> list[list[bool]]:
    """Per-site verdicts of the two-parameter map on the N-soliton state.

    Row j, column k says whether the map sends x and y at site (t0 + j,
    n0 + k) to the next row's x and the next column's y, as
    :func:`_exact_sites` decides it on the unreduced integer taus of the
    rectangle t0..t1 + 1 by n0..n1 + 1 of :func:`_window_taus`, the sites
    and their t- and n-shifts.  Both ranges are inclusive, and are checked
    after the modes.
    """
    kp = validate(params, solitons)
    if t_range[1] < t_range[0]:
        raise WindowTooSmall(f"empty range: t {t_range}")
    taus = _window_taus(kp, (t_range[0], t_range[1] + 1), n_range)
    return _exact_sites(taus, _gkdv_constants(params))


def _exact_sites(taus: list[tuple[list[int], list[int]]], consts: tuple[int, ...],
                 ) -> list[list[bool]]:
    """Per-site verdicts of the two-point map with ``lattice._gkdv_constants``
    ``consts`` on integer tau rows (f_row, g_row), making no Fraction and no gcd.

    Site (j, k) reads f, g there, fn, gn at (j, k+1), ft, gt at (j+1, k), ftn,
    gtn at (j+1, k+1): the eight row slices of rows j and j+1 at offsets 0
    and 1, which the check maps over a row of sites at a time.
    R is homogeneous in x*y = P/Q, P = gn*ft, Q = fn*gt:
    R = N1*l2 / (N2*l1), N1 = C1*Q + D1*P, N2 = C2*Q + D2*P.  A site passes when
    N1, N2 != 0 and x' = R*y is x at (j+1, k): gtn*f*N2*l1 == ftn*g*N1*l2.  Then
    y~ = x/R is y at (j, k+1), as the map keeps x*y and tau ratios have x*y at
    (j, k) = x(j+1, k)*y(j, k+1) identically; so these are the reduced x', y~ verdicts.
    Both sides of the equation, and N1 and N2, are homogeneous in each of the
    four (f, g) pairs a site reads, so the verdicts do not depend on the scale
    of any point, as :func:`_window_taus` requires.
    """
    c1, d1, c2, d2, _, l1, l2 = consts

    def exact(f, g, fn, gn, ft, gt, ftn, gtn) -> bool:
        p, q = gn * ft, fn * gt
        n1, n2 = (c1 * q + d1 * p) * l2, (c2 * q + d2 * p) * l1
        return n1 != 0 and n2 != 0 and gtn * f * n2 == ftn * g * n1

    return [list(map(exact, fs, gs, fs[1:], gs[1:], fts, gts, fts[1:], gts[1:]))
            for (fs, gs), (fts, gts) in zip(taus, taus[1:])]


# ---------------------------------------------------------------------------
# four-parameter determinant tau and its bilinear identities


@dataclass(frozen=True)
class KPParams:
    """Parameters of the four-direction determinant tau.

    ``modes`` holds (p_i, q_i, gamma_i) rows, at most ``MAX_MODES`` of them
    (else TooManyModes, with ``n_modes``).  All p_i and q_i must be
    distinct from each other and from the direction parameters a1, a2, b, c,
    so no matrix entry or phase base can blow up.
    """

    a1: Fraction
    a2: Fraction
    b: Fraction
    c: Fraction
    modes: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.modes) > MAX_MODES:
            raise TooManyModes(f"{len(self.modes)} modes, more than the {MAX_MODES} "
                               "that a subset expansion is built for",
                               n_modes=len(self.modes))
        for name in ("a1", "a2", "b", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        object.__setattr__(self, "modes", tuple(
            (Fraction(p), Fraction(q), Fraction(g)) for p, q, g in self.modes))
        dirs = (self.a1, self.a2, self.b, self.c)
        for i, (p, q, _) in enumerate(self.modes):
            if p in dirs or q in dirs:
                raise DegenerateP(f"soliton {i}: p or q collides with a direction "
                                  "parameter", index=i)
        for i, (pi, qi, _) in enumerate(self.modes):
            for j, (pj, qj, _) in enumerate(self.modes):
                if i < j and (pi == pj or qi == qj):
                    raise DuplicateP(f"solitons {i} and {j}: duplicated wavenumber",
                                     pair=(i, j))
                if pi == qj:
                    raise DenominatorClash(
                        f"solitons {i} and {j}: denominator vanishes for this pair",
                        pair=(i, j))

    @cached_property
    def _subset_tables(self) -> tuple[int, list[int], list[tuple[list[int], int, list[int], int]]]:
        """Integer tables of the Cauchy principal-minor expansion, built on
        first use, so that a ``KPParams`` made only to check modes, as by a
        bare :func:`validate` call, never builds them.

        Returns (L, c, dirs).  c[S] is L * c_S for the mode subset S of
        bitmask index S, with L the common denominator.  dirs holds, for
        a1, a2, b and c in turn, the ``_subset_ratios`` list of the r_{i,d}
        with their shared denominator product D_d, then those of the
        1/r_{i,d}: entry S of the r list is D_d * prod_{i in S} r_{i,d}.

        Everything is built once per ``KPParams`` from the integer numerators
        and denominators of the modes and directions, with no ``Fraction``:
        each c_S is its parent subset's reduced c times gamma_i / (p_i - q_i)
        and its pair factors over one common denominator, reduced by one gcd,
        and each r_{i,d} by one gcd.  So L, c and dirs are the integers that
        reduced rational arithmetic gives.
        """
        modes = [[x.as_integer_ratio() for x in mode] for mode in self.modes]
        terms = [(1, 1)]  # reduced c_S, S over the modes so far
        for i, ((pn, pd), (qn, qd), (gn, gd)) in enumerate(modes):
            # (p_j - p)(q - q_j) / ((p_j - q)(p - q_j)) per earlier mode j: the
            # four differences' denominators p_j,d p_d q_d q_j,d cancel
            pair = [((pjn * pd - pn * pjd) * (qn * qjd - qjn * qd),
                     (pjn * qd - qn * pjd) * (pn * qjd - qjn * pd))
                    for (pjn, pjd), (qjn, qjd), _ in modes[:i]]
            # gamma / (p - q), times the pairs of S over all pairs' denominators
            wn, wd = gn * pd * qd, gd * (pn * qd - qn * pd) * math.prod(d for _, d in pair)
            terms += [_reduced(n * wn * r, d * wd)
                      for (n, d), r in zip(terms, _subset_ratios(pair))]
        big_l = math.lcm(*(d for _, d in terms))
        coefs = [n * (big_l // d) for n, d in terms]
        dirs = []
        for dn, dd in (d.as_integer_ratio() for d in (self.a1, self.a2, self.b, self.c)):
            # r = (q - d) / (p - d) = (q_n d_d - d_n q_d) p_d / ((p_n d_d - d_n p_d) q_d)
            rs = [_reduced((qn * dd - dn * qd) * pd, (pn * dd - dn * pd) * qd)
                  for (pn, pd), (qn, qd), _ in modes]
            inv = [(d, n) if n > 0 else (-d, -n) for n, d in rs]
            dirs.append((_subset_ratios(rs), math.prod(d for _, d in rs),
                         _subset_ratios(inv), math.prod(d for _, d in inv)))
        return big_l, coefs, dirs

    @cached_property
    def _check_constants(self) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int],
                                        tuple[int, str] | None]:
        """The rational constants of :func:`check_kp_bilinear` and
        :func:`check_reduction`, built once per ``KPParams`` in integers, on
        the first call of either.

        Returns (k1, k2, verdict).  k1 holds a - b, b - c and c - a at a = a1
        as integer numerators over their lcm m, then m; k2 the same at
        a = a2.  verdict is (i, message) for the first mode i with
        p_i + q_i != a1 + a2, or None when every mode meets the reduction
        constraint.  None of it reads the subset tables.
        """
        (an1, ad1), (an2, ad2), (bn, bd), (cn, cd) = (
            d.as_integer_ratio() for d in (self.a1, self.a2, self.b, self.c))

        def coefficients(an: int, ad: int) -> tuple[int, int, int, int]:
            # over the common denominator ad bd cd, then cancelled by the gcd
            # of all four, which leaves the lcm of the reduced denominators
            ks = ((an * bd - bn * ad) * cd, (bn * cd - cn * bd) * ad,
                  (cn * ad - an * cd) * bd, ad * bd * cd)
            g = math.gcd(*ks)
            return ks[0] // g, ks[1] // g, ks[2] // g, ks[3] // g

        # p + q = a1 + a2, cross-multiplied
        tn, td = an1 * ad2 + an2 * ad1, ad1 * ad2
        bad = next((i for i, (p, q, _) in enumerate(self.modes)
                    if (p.numerator * q.denominator + q.numerator * p.denominator) * td
                    != tn * p.denominator * q.denominator), None)
        verdict = None
        if bad is not None:
            p, q, _ = self.modes[bad]
            verdict = (bad, f"mode {bad}: p + q = {p + q}, constraint requires {self.a1 + self.a2}")
        return coefficients(an1, ad1), coefficients(an2, ad2), verdict


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
    The identities' coefficients are integer constants of ``kp``, built once
    with its tables, so a point costs only integer products of the subset
    sums of :func:`_kp_sums` and one ``Fraction`` per residual.
    """
    scale, sums = _kp_sums(kp, point, _BILINEAR_SHIFTS)
    tau = dict(zip(_BILINEAR_SHIFTS, sums))  # shift -> (integer sum, extra)
    k1, k2, _ = kp._check_constants

    def residual(ks: tuple[int, int, int, int], e1: int, e2: int) -> Fraction:
        ab, bc, ca, m = ks
        (t_b, e_b), (t_n, e_n) = tau[e1, e2, 1, 0], tau[0, 0, 0, 1]
        total = (ab * t_b * t_n + bc * tau[e1, e2, 0, 0][0] * tau[0, 0, 1, 1][0]
                 + ca * tau[e1, e2, 0, 1][0] * tau[0, 0, 1, 0][0])
        return Fraction(total, m * scale * scale * e_b * e_n)

    return residual(k1, 1, 0), residual(k2, 0, 1)


def check_reduction(kp: KPParams, point: tuple[int, int, int, int]) -> Fraction:
    """Exact residual tau(l1+1, l2+1, t, n) - tau(l1, l2, t, n).

    Requires the reduction constraint p_i + q_i = a1 + a2 on every mode and
    raises ConstraintViolated, naming the first mode that breaks it,
    otherwise.  Under the constraint the residual is identically zero, and
    term by term: r_{i,a1} r_{i,a2} = 1 for every mode, so each subset term
    is unchanged by the shift whatever its c_S.  The check therefore tests
    the a1 and a2 tables, not the c_S.  The constraint's verdict is a
    constant of ``kp``, built once with the bilinear coefficients, so a
    point costs only integer products of the subset sums of
    :func:`_kp_sums`.
    """
    verdict = kp._check_constants[2]
    if verdict is not None:
        raise ConstraintViolated(verdict[1], index=verdict[0])
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
            raise DrawExhausted(f"mode {i} of a {n_modes}-mode draw: no admissible "
                                "(p, q, gamma) in 200 draws from the pool of small "
                                "fractions", n_modes=n_modes, index=i)
    return KPParams(a1, a2, b, c, tuple(modes))


# ---------------------------------------------------------------------------
# monotonicity scan of the closed-form laws


def _law_grid(params: SystemParams, grid_size: int) -> tuple[list[float], list[float]]:
    """v and W at p_k = span * k / (grid_size + 1), k = 1..grid_size, for
    params whose interval the caller has checked: ``velocity`` and
    ``amplitude`` at p_k, bit for bit.

    Over g1 = grid_size + 1 times the denominator of :func:`_law_constants`,
    |u_k| = s |2k - g1| is linear in k.  The laws are even in u, so
    :func:`_laws` runs once per |u|, from k = 1 to the midpoint, and the
    lists are mirrored: v(p) = v(span - p) bit for bit.
    """
    ha, hb, s = _law_constants(params)
    g1 = grid_size + 1
    laws = _laws(range(s * (g1 - 2), -1, -2 * s), ha * g1, hb * g1, s * g1,
                 (params.alpha + params.beta - 1) / g1)
    vs, ws = map(list, laws)
    m = grid_size - len(vs)  # the points right of the midpoint
    return vs + vs[m - 1::-1], ws + ws[m - 1::-1]


def scan_monotonicity(params: SystemParams, grid_size: int) -> dict:
    """Probe v(p) and W(p) on an interior grid and report monotonicity breaks.

    The grid has ``grid_size`` points p_k = k * span / (grid_size + 1),
    evaluated by :func:`_law_grid` after one check of the interval; raises
    GridTooSmall below 3 points, and FloatLawUndefined naming p_1 where a
    speed quotient leaves the float range.  W must fall toward the midpoint
    and rise after it; v must rise toward it when alpha < beta and fall
    otherwise (at alpha = beta every v is exactly 1.0); the exact laws do,
    by the module docstring's theorem.  Which half a pair of
    neighbours lies on is an integer test on k, each half and quantity is
    one comparison pass over list slices, and a violation, with its
    ``Fraction`` p values, is built only where a pass flags one: pairs
    ascending, ``w`` before ``v`` within a pair.  The returned dict is the
    CLI's JSON payload.
    """
    if grid_size < 3:
        raise GridTooSmall(f"grid_size must be at least 3, got {grid_size}")
    span = _span(params)
    g1 = grid_size + 1
    vs, ws = _law_grid(params, grid_size)

    def p_str(i: int) -> str:
        # list index i holds grid point k = i + 1
        return rat_str(span * (i + 1) / g1)

    tol = 1e-12  # float noise floor for adjacent comparisons

    def breaks(xs: list[float], lo: int, hi: int, up: bool) -> list[int]:
        # the i in [lo, hi) whose pair (i, i+1) falls where ``up``, else rises
        pairs = zip(range(lo, hi), xs[lo:hi], xs[lo + 1:hi + 1])
        if up:
            return [i for i, left, right in pairs if right < left - tol]
        return [i for i, left, right in pairs if right > left + tol]

    # pair i joins k = i + 1 and i + 2: on the left half when p_{k+1} <= span / 2,
    # on the right when p_k >= span / 2; the pair straddling the midpoint has
    # no adjacent constraint.  (i, 0) flags w and (i, 1) flags v, so sorting
    # puts w before v within a pair
    v_up_first = params.alpha < params.beta  # v rises toward the midpoint
    flagged = []
    for lo, hi, left_half in ((0, g1 // 2 - 1, True), ((g1 + 1) // 2 - 1, grid_size - 1, False)):
        flagged += zip(breaks(ws, lo, hi, not left_half), repeat(0))
        flagged += zip(breaks(vs, lo, hi, v_up_first == left_half), repeat(1))
    violations = [{
        "quantity": "wv"[q],
        "p_left": p_str(i),
        "p_right": p_str(i + 1),
        "left": (ws, vs)[q][i],
        "right": (ws, vs)[q][i + 1],
    } for i, q in sorted(flagged)]

    # v is constant at alpha = beta; the branch point is the only natural marker
    v_ext = (rat_str(span / 2) if params.alpha == params.beta
             else p_str(vs.index(max(vs) if v_up_first else min(vs))))
    return {
        "alpha": rat_str(params.alpha),
        "beta": rat_str(params.beta),
        "grid": grid_size,
        "violations": violations,
        "v_extremum_p": v_ext,
        "w_extremum_p": p_str(ws.index(min(ws))),
    }
