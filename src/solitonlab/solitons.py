"""Determinant solitons, closed-form speed and amplitude laws, and the
bilinear identities behind them.

An N-soliton state of the two-parameter map is carried by a pair of tau
functions

    f(t, n) = det[ delta_ij + gamma_i / (p_i + p_j + D) * A_i^t * B_i^n ]
    g(t, n) = same, with an extra row factor (-D - p_i) / p_i

where D = 1 - alpha - beta and

    A_i = (-p_i + beta) / (p_i + 1 - alpha)
    B_i = (p_i + 1 - beta) / (-p_i + alpha).

Both determinants are evaluated by their subset (Hirota) expansion,

    f(t, n) = sum over mode subsets S of
              prod_{i in S} C_i A_i^t B_i^n
              * prod_{i<j in S} (p_i - p_j)^2 / (p_i + p_j + D)^2

with C_i = gamma_i / (2 p_i + D); g takes the same terms times
prod_{i in S} D_i.  On a window the terms are integers over one common
denominator (see ``_tau_grid``).

The lattice fields are the cross ratios x = f * g(n+1) / (g * f(n+1)) and
y = g * f(t+1) / (f * g(t+1)).  A mode is a genuine soliton when
0 < p < alpha + beta - 1 and gamma has the sign of (p - midpoint); then all
four constants A, B, C = gamma / (2p + D), D_i are positive and the mode has

    speed      v(p) = -log A / log B          (1 at the midpoint)
    amplitude  W(p) = |(1 + 1/s)(1 + s) / ((1 + r)(1 + 1/r)) - 1|,
               s = sqrt(B * D_i), r = sqrt(D_i / B).

Both laws are exactly symmetric under p -> alpha + beta - 1 - p, which is
what makes the speed/size ordering flip with the sign of alpha - beta.  They
take A, B, D as integer (numerator, denominator) pairs, from ``_abd`` for one
wavenumber, or for the whole grid of ``scan_monotonicity`` from integer
linear forms in the grid index (``_law_grid``); the scan builds a
``Fraction`` p only for the values its report prints.

The same determinant scheme in its four-parameter form (``kp_tau``),

    tau(l1, l2, t, n) = det[ delta_ij + gamma_i w_i / (p_i - q_j) ],
    w_i = prod_d r_{i,d}^{l_d},  r_{i,d} = (q_i - d) / (p_i - d),

over the directions d = a1, a2, b, c with exponents l1, l2, t, n, obeys two
three-term bilinear identities and, when p_i + q_i = a1 + a2 for every row,
a two-direction periodicity; both are exposed as exact checks.  ``kp_tau``
and both checks evaluate it by its Cauchy principal-minor expansion,

    tau = sum over mode subsets S of c_S prod_{i in S} w_i,
    c_S = prod_{i in S} gamma_i / (p_i - q_i)
          * prod_{i<j in S} (p_i - p_j)(q_j - q_i) / ((p_i - q_j)(p_j - q_i)),

as integer subset sums: the c_S over one common denominator and the subset
ratios of each direction's r and 1/r are built once per ``KPParams``, and a
point, or a unit shift of it, costs elementwise integer products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from random import Random
from typing import Callable, Sequence

from .errors import (
    ConstraintViolated,
    DegenerateP,
    DenominatorClash,
    DuplicateP,
    GammaSignCondition,
    GridTooSmall,
    InvalidInterval,
    POutOfRange,
    WindowTooSmall,
    ZeroTau,
)
# det is unused here but stays bound: bench/spans.py traces solitons.det by attribute
from .exact import ONE, Rat, det, rat_str
from .lattice import LatticeField, SystemParams


@dataclass(frozen=True)
class SolitonConstants:
    """Closed-form constants of one validated mode.

    A grows the phase per time step, B shrinks it per site, C fixes the
    initial position, and D distinguishes the second tau function.  All four
    are positive for a valid soliton.
    """

    p: Fraction
    gamma: Fraction
    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction

    @property
    def velocity(self) -> float:
        """Closed-form speed of this mode, as :func:`velocity` gives it."""
        return _speed(*_ratios((self.A, self.B, self.D)))

    @property
    def amplitude(self) -> float:
        """Closed-form amplitude of this mode, as :func:`amplitude` gives it."""
        return _depth(*_ratios((self.A, self.B, self.D)))


def validate(params: SystemParams,
             solitons: Sequence[tuple[Rat, Rat]]) -> tuple[SolitonConstants, ...]:
    """Check an N-mode parameter list and return the per-mode constants.

    Each entry is a (p, gamma) pair.  Raises InvalidInterval when no soliton
    can exist at all, and the per-mode / per-pair errors otherwise.
    """
    span = _span(params)
    mid = span / 2
    consts = []
    for i, (p, gamma) in enumerate(solitons):
        p, gamma = Fraction(p), Fraction(gamma)
        a, b, d = _abd(params, p, i)
        if p == mid:
            raise DegenerateP(i)
        if gamma * (p - mid) <= 0:
            raise GammaSignCondition(i)
        c = gamma / (2 * p + params.delta_cap)
        # guaranteed by the checks above; kept as a hard invariant because the
        # taus and the speed and amplitude laws need all four positive
        if not (a > 0 and b > 0 and c > 0 and d > 0):
            raise ConstraintViolated(
                f"mode {i}: A, B, C, D must all be positive, got {a}, {b}, {c}, {d}")
        consts.append(SolitonConstants(p=p, gamma=gamma, A=a, B=b, C=c, D=d))
    for i in range(len(consts)):
        for j in range(i + 1, len(consts)):
            if consts[i].p == consts[j].p:
                raise DuplicateP(i, j)
            # p_i + p_j - span = 0 would blow up an off-diagonal entry
            if consts[i].p + consts[j].p == span:
                raise DenominatorClash(i, j)
    return tuple(consts)


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


def _subset_products(items: Sequence, weight: Callable, cross: Callable) -> list[Fraction]:
    """prod_{i in S} weight(item_i) * prod_{j<i in S} cross(item_j, item_i)
    for every subset S of ``items``, S the bitmask index (bit i set: item i
    is in S)."""
    terms = [ONE]
    for i, item in enumerate(items):
        w = weight(item)
        pair = [cross(other, item) for other in items[:i]]
        for s in range(1 << i):
            term = terms[s] * w
            for j in range(i):
                if s >> j & 1:
                    term *= pair[j]
            terms.append(term)
    return terms


def _subset_terms(consts: Sequence[SolitonConstants], dc: Fraction, t: int, n: int,
                  weighted: bool) -> list[Fraction]:
    """Hirota term of every mode subset at (t, n): of f, or of g when weighted.

    Subset S is the bitmask index (bit i set: mode i is in S).  Its term is
    prod_{i in S} w_i * prod_{i<j in S} ((p_i - p_j) / (p_i + p_j + D))^2 with
    w_i = C_i A_i^t B_i^n, times D_i when weighted, and the terms sum to the
    determinant in the module docstring.
    """
    return _subset_products(
        consts,
        lambda ci: ci.C * ci.A ** t * ci.B ** n * (ci.D if weighted else ONE),
        lambda cj, ci: ((cj.p - ci.p) / (cj.p + ci.p + dc)) ** 2)


def _subset_ratios(bases: Sequence[Fraction]) -> list[int]:
    """prod_{i in S} num(base_i) * prod_{i not in S} den(base_i) for every
    subset S, indexed as in :func:`_subset_terms`."""
    ratios = [1]
    for base in bases:
        ratios = ([r * base.denominator for r in ratios]
                  + [r * base.numerator for r in ratios])
    return ratios


def _tau_grid(consts: Sequence[SolitonConstants], dc: Fraction, t0: int, n0: int,
              row_lengths: Sequence[int]) -> tuple[int, list[list[tuple[int, int]]]]:
    """Integer (f, g) pairs at (t0 + j, n0 + k) for k < row_lengths[j].

    The returned scale L is the common denominator of the subset terms of f
    and g at (t0, n0), and each tau of grid[j][k] is
    tau(t0 + j, n0 + k) * L * prod_i den(A_i)^j * den(B_i)^k.  That factor
    is positive and the same for every tau at the point, so it cancels from
    the cross ratios; at j = k = 0 it is L itself.

    With integer coefficients c_S = L * term_S(t0, n0), the value is
    sum_S c_S * P_S^j * Q_S^k, where P_S and Q_S are the subset ratios of
    the A_i and B_i: plain integer products, computed once per row and once
    per column.
    """
    terms = [_subset_terms(consts, dc, t0, n0, weighted) for weighted in (False, True)]
    scale = math.lcm(*(term.denominator for tts in terms for term in tts))
    coefs = [[term.numerator * (scale // term.denominator) for term in tts]
             for tts in terms]
    p_ratio = _subset_ratios([c.A for c in consts])
    q_ratio = _subset_ratios([c.B for c in consts])
    q_pows = [[1] * len(q_ratio)]
    for _ in range(max(row_lengths) - 1):
        q_pows.append([q * r for q, r in zip(q_pows[-1], q_ratio)])
    grid = []
    for length in row_lengths:
        cols = q_pows[:length]
        grid.append(list(zip(*[[sum(map(mul, cs, qs)) for qs in cols] for cs in coefs])))
        coefs = [[c * r for c, r in zip(cs, p_ratio)] for cs in coefs]
    return scale, grid


def tau_f(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
          t: int, n: int) -> Fraction:
    """First tau function at (t, n)."""
    scale, grid = _tau_grid(validate(params, solitons), params.delta_cap, t, n, [1])
    return Fraction(grid[0][0][0], scale)


def tau_g(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
          t: int, n: int) -> Fraction:
    """Second tau function at (t, n), the one with the extra row weight."""
    scale, grid = _tau_grid(validate(params, solitons), params.delta_cap, t, n, [1])
    return Fraction(grid[0][0][1], scale)


def sample_xy(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
              t: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact (x, y) of the N-soliton state at one lattice point."""
    field = sample_field(params, solitons, (t, t), (n, n))
    return field.xs[0][0], field.ys[0][0]


def _window_taus(params: SystemParams, solitons: Sequence[tuple[Rat, Rat]],
                 t_range: tuple[int, int], n_range: tuple[int, int], t_shift: bool,
                 ) -> list[list[tuple[int, int]]]:
    """Integer (f, g) pairs of :func:`_tau_grid` for a window and its n-shift
    column, plus its t-shift row when ``t_shift`` is set.

    Both ranges are inclusive.  The corner (t1 + 1, n1 + 1) is never
    evaluated: it feeds neither x nor y.  Raises ZeroTau naming the first
    site, row by row, where a tau vanishes.
    """
    t0, t1 = t_range
    n0, n1 = n_range
    if t1 < t0 or n1 < n0:
        raise WindowTooSmall(f"empty range: t {t_range}, n {n_range}")
    nn = n1 - n0 + 1
    rows = [nn + 1] * (t1 - t0 + 1) + ([nn] if t_shift else [])
    _, taus = _tau_grid(validate(params, solitons), params.delta_cap, t0, n0, rows)
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
        first use, so that draws rejected by ``random_kp_params`` never pay
        for them.

        Returns (L, c, dirs).  c[S] is L * c_S for the mode subset S of
        bitmask index S, with L the common denominator.  dirs holds, for
        a1, a2, b and c in turn, the ``_subset_ratios`` list of the r_{i,d}
        with their shared denominator product D_d, then those of the
        1/r_{i,d}: entry S of the r list is D_d * prod_{i in S} r_{i,d}.
        """
        # modes are (p, q, gamma) rows
        terms = _subset_products(
            self.modes,
            lambda mode: mode[2] / (mode[0] - mode[1]),
            lambda mj, mi: ((mj[0] - mi[0]) * (mi[1] - mj[1])
                            / ((mj[0] - mi[1]) * (mi[0] - mj[1]))))
        big_l = math.lcm(*(term.denominator for term in terms))
        coefs = [term.numerator * (big_l // term.denominator) for term in terms]
        dirs = []
        for d in (self.a1, self.a2, self.b, self.c):
            rs = [(q - d) / (p - d) for p, q, _ in self.modes]
            inv = [1 / r for r in rs]
            dirs.append((_subset_ratios(rs), math.prod(r.denominator for r in rs),
                         _subset_ratios(inv), math.prod(r.denominator for r in inv)))
        return big_l, coefs, dirs


def _kp_sums(kp: KPParams, point: tuple[int, int, int, int],
             shifts: Sequence[tuple[int, int, int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """Integer subset sums of the four-direction tau at ``point + s`` for
    each 0/1 shift s of ``shifts``.

    Returns a positive scale M and one (sum, extra) pair per shift, with
    tau(point + s) = sum / (M * extra).  The base vector c_S * prod_d
    R_d[S]^{|l_d|}, with the r or 1/r list of each direction by the sign of
    its exponent, is M times the subset terms at ``point``; a unit shift
    along d multiplies it elementwise by d's r list, which carries the
    positive factor D_d into ``extra``, whatever the sign of l_d.
    """
    scale, terms, dirs = kp._subset_tables
    for l, (up, up_den, down, down_den) in zip(point, dirs):
        if l:
            table, den = (up, up_den) if l > 0 else (down, down_den)
            terms = [c * r ** abs(l) for c, r in zip(terms, table)]
            scale *= den ** abs(l)
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
    premise of :func:`check_reduction`.
    """

    def small() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        a1, a2, b, c = (small() for _ in range(4))
        if len({a1, a2, b, c}) != 4:
            continue
        modes: list[tuple[Fraction, Fraction, Fraction]] = []
        for _ in range(n_modes):
            for _attempt in range(200):
                p = small()
                q = a1 + a2 - p if constrained else small()
                try:  # KPParams rejects a (p, q) that clashes with anything
                    KPParams(a1, a2, b, c, (*modes, (p, q, ONE)))
                except (DegenerateP, DuplicateP, DenominatorClash):
                    continue
                g = small()
                if g == 0:
                    continue
                modes.append((p, q, g))
                break
            else:
                break
        if len(modes) == n_modes:
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
