"""Independent reference implementations the tests compare against.

These are deliberately the slow, obviously-correct versions: cofactor
expansion instead of the Cauchy subset sum, scalar closed forms instead
of determinant assembly.  They were written and frozen before the library
code they check.

The module also holds the inputs that several test files share: the
paper's reference pair ``REF_PARAMS`` and ``REF_SOLITONS``,
``FALLBACK_MODES``, and :func:`soliton_systems`, the one hypothesis
strategy that draws valid soliton systems in a given regime.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from random import Random

from hypothesis import assume, strategies as st

from solitonlab.errors import (
    DegenerateP,
    DenominatorClash,
    DrawExhausted,
    DuplicateP,
    ZeroDenominator,
)
from solitonlab.lattice import (
    LatticeField,
    SystemParams,
    _coprime_fraction,
    _two_point,
    rat_str,
)
from solitonlab.solitons import KPParams, _kp_sums

# the paper's reference pair: alpha < beta, and the shallower soliton
# (p = 2/15) outruns the deeper one (p = 1/30)
REF_PARAMS = SystemParams(Fraction(5, 6), Fraction(14, 15))
REF_SOLITONS = ((Fraction(2, 15), Fraction(-1, 6)), (Fraction(1, 30), Fraction(-1, 30)))
# two modes at REF_PARAMS whose README-window analyze sampling has a point
# where the float sampler's short-quotient bounds round apart
FALLBACK_MODES = ((Fraction(1, 60), Fraction(-3, 25000)), (Fraction(3, 20), Fraction(-79, 20000)))

# alpha < beta, alpha = beta and alpha > beta
REGIMES = ("lt", "eq", "gt")


def mirror_free(ks: Sequence[int]) -> bool:
    """No mode p = span * k / 40 at the midpoint (k = 20) and no pair with
    p_i + p_j = span (k + m = 40): the modes ``validate`` accepts."""
    return all(k + m != 40 for k in ks for m in ks)


@st.composite
def soliton_systems(draw, regime: str, n_modes: int):
    """A ``SystemParams`` in ``regime`` (one of ``REGIMES``) and ``n_modes``
    modes (p, gamma) that validate.

    alpha and beta come from [11/20, 19/20]; each p is span * k / 40 for
    distinct k that are :func:`mirror_free`, and gamma is negative on the
    left half of (0, span) and positive on the right, with |gamma| in
    [1/10, 10].
    """
    lo, hi = sorted(draw(st.lists(
        st.fractions(min_value=Fraction(11, 20), max_value=Fraction(19, 20),
                     max_denominator=40), min_size=2, max_size=2, unique=True)))
    alpha, beta = {"lt": (lo, hi), "eq": (lo, lo), "gt": (hi, lo)}[regime]
    span = alpha + beta - 1
    ks = draw(st.lists(st.integers(1, 39), min_size=n_modes, max_size=n_modes, unique=True))
    assume(mirror_free(ks))
    modes = []
    for k in ks:
        mag = draw(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10),
                                max_denominator=20))
        modes.append((span * k / 40, mag if k > 20 else -mag))
    return SystemParams(alpha, beta), modes


def det_cofactor(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Laplace expansion along the first row.  Exponential, fine for n <= 6."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += sign * Fraction(rows[0][j]) * det_cofactor(minor)
        sign = -sign
    return total


def one_soliton_constants(alpha: Fraction, beta: Fraction, p: Fraction,
                          gamma: Fraction):
    """Scalar constants of a single mode, written out longhand."""
    dc = 1 - alpha - beta
    a = (-p + beta) / (p + 1 - alpha)
    b = (p + 1 - beta) / (-p + alpha)
    c = gamma / (2 * p + dc)
    d = (-dc - p) / p
    return a, b, c, d


def laws_decimal(alpha: Fraction, beta: Fraction, p: Fraction) -> tuple[Decimal, Decimal]:
    """v = -ln A / ln B and W = |(1 + 1/S)(1 + S) / ((1 + r)(1 + 1/r)) - 1|,
    S = sqrt(B D), r = sqrt(D / B), from the longhand constants in
    ``decimal``, at the limits (1 + alpha - beta) / (1 + beta - alpha) and 0
    at the midpoint, where A = B = D = 1.

    The precision is 80 digits plus twice the digits of the denominators of
    alpha, beta and p.  Away from the midpoint, A - 1, B - 1 and D - 1 are
    at least 2|u| = |2p - span| in magnitude, which is at least one over
    the product of those denominators, and W is at least of the order of
    u^2, so 80 digits survive every cancellation in these forms.
    """
    with localcontext() as ctx:
        ctx.prec = 80 + 2 * sum(len(str(x.denominator)) for x in (alpha, beta, p))
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX

        def dec(x: Fraction) -> Decimal:
            return Decimal(x.numerator) / Decimal(x.denominator)

        if p == (alpha + beta - 1) / 2:
            return dec((1 + alpha - beta) / (1 + beta - alpha)), Decimal(0)
        a, b, _, d = map(dec, one_soliton_constants(alpha, beta, p, Fraction(1)))
        s, r = (b * d).sqrt(), (d / b).sqrt()
        return -a.ln() / b.ln(), abs((1 + 1 / s) * (1 + s) / ((1 + r) * (1 + 1 / r)) - 1)


def laws_longhand(alpha: Fraction, beta: Fraction, p: Fraction) -> tuple[float, float]:
    """:func:`laws_decimal` rounded to the nearest floats."""
    v, w = laws_decimal(alpha, beta, p)
    return float(v), float(w)


def ulps(x: float, exact: Decimal) -> float:
    """|x - exact| in units of the last place of the float nearest
    ``exact``."""
    return float(abs(Decimal(x) - exact) / Decimal(math.ulp(float(exact))))


def scan_longhand(params: SystemParams, grid_size: int) -> dict:
    """The monotonicity scan's JSON payload, one neighbour pair at a time.

    The laws come from :func:`laws_longhand`, the ``decimal`` laws rounded
    to the nearest floats, at each ``Fraction`` p_k =
    span * k / (grid_size + 1); every pair (k, k + 1) is checked in turn,
    ``w`` before ``v``, against the rule of the half it lies on, and a pair
    that straddles the midpoint has no rule.
    """
    span = params.alpha + params.beta - 1
    ps = [span * k / (grid_size + 1) for k in range(1, grid_size + 1)]
    vs, ws = zip(*(laws_longhand(params.alpha, params.beta, p) for p in ps))
    tol = 1e-12
    violations = []

    def check(kind: str, i: int, direction: int) -> None:
        left, right = (vs if kind == "v" else ws)[i:i + 2]
        if direction > 0:
            bad = right < left - tol
        elif direction < 0:
            bad = right > left + tol
        else:
            bad = abs(left - 1.0) > 1e-9 or abs(right - 1.0) > 1e-9
        if bad:
            violations.append({"quantity": kind, "p_left": rat_str(ps[i]),
                               "p_right": rat_str(ps[i + 1]), "left": left, "right": right})

    v_up_first = params.alpha < params.beta
    for i in range(grid_size - 1):
        if ps[i + 1] <= span / 2:
            left_half = True
        elif ps[i] >= span / 2:
            left_half = False
        else:
            continue
        check("w", i, -1 if left_half else +1)
        up = v_up_first if left_half else not v_up_first
        check("v", i, 0 if params.alpha == params.beta else (+1 if up else -1))

    if params.alpha == params.beta:
        v_ext = rat_str(span / 2)
    else:
        pick = max if v_up_first else min
        v_ext = rat_str(ps[pick(range(grid_size), key=vs.__getitem__)])
    return {
        "alpha": rat_str(params.alpha),
        "beta": rat_str(params.beta),
        "grid": grid_size,
        "violations": violations,
        "v_extremum_p": v_ext,
        "w_extremum_p": rat_str(ps[min(range(grid_size), key=ws.__getitem__)]),
    }


def cofactor_tau(alpha: Fraction, beta: Fraction, modes: Sequence[tuple[Fraction, Fraction]],
                 t: int, n: int, weighted: bool) -> Fraction:
    """f(t, n) of the N-soliton state with (p, gamma) ``modes``, or g(t, n)
    when ``weighted``, as the documented matrix

        delta_ij + gamma_i A_i^t B_i^n (D_i) / (p_i + p_j + 1 - alpha - beta),

    assembled with the constants of :func:`one_soliton_constants` and
    expanded by cofactors.
    """
    dc = 1 - alpha - beta
    rows = []
    for i, (p, gamma) in enumerate(modes):
        a, b, _, d = one_soliton_constants(alpha, beta, p, gamma)
        w = gamma * a ** t * b ** n * (d if weighted else 1)
        rows.append([(1 if i == j else 0) + w / (p + pj + dc) for j, (pj, _) in enumerate(modes)])
    return det_cofactor(rows)


def one_soliton_xy(alpha: Fraction, beta: Fraction, p: Fraction,
                   gamma: Fraction, t: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact (x, y) of one soliton from the scalar tau functions.

    f(t, n) = 1 + C A^t B^n and g(t, n) = 1 + C D A^t B^n; the field is read
    off as x = f g(n+1) / (g f(n+1)) and y = g f(t+1) / (f g(t+1)).
    """
    a, b, c, d = one_soliton_constants(alpha, beta, p, gamma)

    def f(tt: int, nn: int) -> Fraction:
        return 1 + c * a ** tt * b ** nn

    def g(tt: int, nn: int) -> Fraction:
        return 1 + c * d * a ** tt * b ** nn

    x = f(t, n) * g(t, n + 1) / (g(t, n) * f(t, n + 1))
    y = g(t, n) * f(t + 1, n) / (f(t, n) * g(t + 1, n))
    return x, y


def gkdv_local_longhand(x: Fraction, y: Fraction, alpha: Fraction,
                        beta: Fraction) -> tuple[Fraction, Fraction]:
    """The two-parameter local update as ``Fraction`` arithmetic.

    x' = ((1-beta) + beta*x*y) / ((1-alpha) + alpha*x*y) * y, and y~ the
    reciprocal ratio times x; every intermediate is reduced by ``Fraction``.
    Raises ZeroDivisionError when a map denominator vanishes.
    """
    w = x * y
    den_a = (1 - alpha) + alpha * w
    den_b = (1 - beta) + beta * w
    return den_b / den_a * y, den_a / den_b * x


def evolve_longhand(x0_row: Sequence[Fraction], alpha: Fraction, beta: Fraction, steps: int,
                    y_left: Sequence[Fraction] | None = None,
                    ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Rows of x and of the same-time y over ``steps`` time steps, from
    :func:`gkdv_local_longhand` swept left to right once per row.

    y enters each row at ``y_left[j]``, or 1 when ``y_left`` is None, and
    the value carried past the right edge is dropped, as ``evolve_gkdv``
    documents.  Every value is ``Fraction`` arithmetic.
    """
    lefts = [Fraction(1)] * (steps + 1) if y_left is None else [Fraction(v) for v in y_left]
    row = [Fraction(v) for v in x0_row]
    xs: list[list[Fraction]] = []
    ys: list[list[Fraction]] = []
    for y in lefts:
        xs.append(row)
        ys.append([])
        next_row = []
        for x in row:
            ys[-1].append(y)
            x_up, y = gkdv_local_longhand(x, y, alpha, beta)
            next_row.append(x_up)
        row = next_row
    return xs, ys


def two_point_longhand(x: Fraction, y: Fraction, c1: Fraction, d1: Fraction,
                       c2: Fraction, d2: Fraction) -> tuple[Fraction, Fraction]:
    """The two-point map as ``Fraction`` arithmetic.

    x' = (c1 + d1*x*y) / (c2 + d2*x*y) * y and y~ = (c2 + d2*x*y) /
    (c1 + d1*x*y) * x; every intermediate is reduced by ``Fraction``.
    Raises ZeroDivisionError when either bracket vanishes.
    """
    w = x * y
    top = c1 + d1 * w
    bottom = c2 + d2 * w
    return top / bottom * y, bottom / top * x


def two_point(x: Fraction, y: Fraction, consts: tuple[int, ...], site: int = 0,
              ) -> tuple[Fraction, Fraction]:
    """``lattice._two_point`` on ``Fraction`` values: (x, y) -> (x', y~).

    The kernel's two integer pairs become fractions as they stand, with no
    reduction, so a pair that is not in lowest terms, or has a negative
    denominator, compares unequal to the reduced value.
    """
    xn, xd, yn, yd = _two_point(x.numerator, x.denominator, y.numerator, y.denominator,
                                consts, site)
    return _coprime_fraction(xn, xd), _coprime_fraction(yn, yd)


def map_constants_longhand(c1: Fraction, d1: Fraction, c2: Fraction, d2: Fraction,
                           ) -> tuple[int, ...]:
    """The constants tuple that ``lattice._two_point`` reads, for any
    R = (c1 + d1*w) / (c2 + d2*w): (C1, D1, C2, D2, K, l1, l2).

    Each pair is scaled by the lcm of its own denominators, l1 or l2, to
    integers; K = C1*D2 - D1*C2, and the gcd of l1 and l2 is divided out of
    both.
    """
    c1, d1, c2, d2 = (Fraction(v) for v in (c1, d1, c2, d2))
    l1 = math.lcm(c1.denominator, d1.denominator)
    l2 = math.lcm(c2.denominator, d2.denominator)
    big = [int(v * l) for v, l in ((c1, l1), (d1, l1), (c2, l2), (d2, l2))]
    g = math.gcd(l1, l2)
    return (*big, big[0] * big[3] - big[1] * big[2], l1 // g, l2 // g)


def bbsc_sweep_longhand(u: Sequence[int], c_box: int, c_carrier
                        ) -> tuple[list[int], list[int]]:
    """One carrier sweep, u' = min(c_box-u, v) + max(0, u+v-c_carrier).

    Returns the new occupancies and the carrier loads (the load entering
    each box, then the load after the last one).  Empty boxes are appended
    while the carrier still holds balls.
    """
    cells = list(u)
    out: list[int] = []
    loads = [0]
    v = 0
    k = 0
    while k < len(cells) or v > 0:
        uk = cells[k] if k < len(cells) else 0
        u2 = min(c_box - uk, v) + max(0, uk + v - c_carrier)
        v = uk + v - u2
        out.append(u2)
        loads.append(v)
        k += 1
    return out, loads


def ud_gaps_longhand(u: Sequence[int], c_box: int, c_carrier: int,
                     epsilons: Sequence[float]) -> list[float]:
    """Gaps between the rational map and one carrier sweep, in ``decimal``.

    With 1 - beta = e^(-c_box/eps) and 1 - alpha = e^(-c_carrier/eps), each
    box u and load v of :func:`bbsc_sweep_longhand` give x = e^(-u/eps),
    y = e^(-v/eps) and x' = y ((1-beta) + beta x y) / ((1-alpha) + alpha x y),
    evaluated directly at 60 digits, with the widest exponent range so that
    e^(-(u + v)/eps) does not underflow down to eps = 1e-6.  Returns, per
    eps, the max over the swept boxes of |-eps ln x' - u'| (boxes the sweep
    appended start empty).
    """
    new_u, loads = bbsc_sweep_longhand(u, c_box, c_carrier)
    cells = list(u) + [0] * (len(new_u) - len(u))
    gaps = []
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 60, MIN_EMIN, MAX_EMAX
        for eps in epsilons:
            e = Decimal(eps)
            one_m_beta = (-c_box / e).exp()
            one_m_alpha = (-c_carrier / e).exp()
            gap = Decimal(0)
            for uk, v, u2 in zip(cells, loads, new_u):
                x, y = (-uk / e).exp(), (-v / e).exp()
                x2 = (y * (one_m_beta + (1 - one_m_beta) * x * y)
                      / (one_m_alpha + (1 - one_m_alpha) * x * y))
                gap = max(gap, abs(-e * x2.ln() - u2))
            gaps.append(float(gap))
    return gaps


def bbsc_csv_longhand(history) -> str:
    """The ``t,n,u`` CSV of a state history, one f-string per box."""
    return "t,n,u\n" + "".join(f"{t},{n},{v}\n"
                               for t, s in enumerate(history)
                               for n, v in enumerate(s.u))


def clusters_longhand(u: Sequence[int]) -> list[tuple[int, int, int]]:
    """(leftmost, rightmost, ball count) of each run of nonzero boxes,
    found by visiting every box."""
    out = []
    start = None
    total = 0
    for k, v in enumerate(u):
        if v > 0:
            if start is None:
                start = k
                total = 0
            total += v
        elif start is not None:
            out.append((start, k - 1, total))
            start = None
    if start is not None:
        out.append((start, len(u) - 1, total))
    return out


def detect_bbsc_solitons_longhand(history) -> list[tuple[list[int], list[int], int]]:
    """Greedy cluster linking with every pair of rows' clusters compared.

    Pass 1 gives each cluster, in order, the unused previous cluster of
    largest interval overlap (the first on ties); pass 2 gives each cluster
    still unmatched the unused previous cluster of nearest leftmost box
    within (its ball count + 2) boxes.  The rest start tracks.  Returns
    (times, leftmost positions, amplitude) per track, sorted by first time
    and first position.
    """
    tracks: list[tuple[list[int], list[int], int]] = []
    prev: list[tuple[int, int, int]] = []
    prev_tracks: list = []
    for t, s in enumerate(history):
        cur = clusters_longhand(s.u)
        owner: list = [None] * len(cur)
        used: set[int] = set()
        for ci, (lo, hi, _) in enumerate(cur):
            best, best_olap = None, 0
            for pi, (plo, phi, _) in enumerate(prev):
                olap = min(hi, phi) - max(lo, plo) + 1
                if pi not in used and olap > best_olap:
                    best, best_olap = pi, olap
            if best is not None:
                owner[ci] = prev_tracks[best]
                used.add(best)
        for ci, (lo, _, _) in enumerate(cur):
            if owner[ci] is not None:
                continue
            best, best_d = None, None
            for pi, (plo, _, pcnt) in enumerate(prev):
                d = abs(lo - plo)
                if pi not in used and d <= pcnt + 2 and (best_d is None or d < best_d):
                    best, best_d = pi, d
            if best is not None:
                owner[ci] = prev_tracks[best]
                used.add(best)
        for ci, (lo, _, cnt) in enumerate(cur):
            if owner[ci] is None:
                owner[ci] = ([], [], cnt)
                tracks.append(owner[ci])
            owner[ci][0].append(t)
            owner[ci][1].append(lo)
        prev, prev_tracks = cur, owner
    return sorted(tracks, key=lambda tr: (tr[0][0], tr[1][0]))


def interp_longhand(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """Piecewise-linear interpolation of increasing knots ``xp``, found by a
    linear scan over floats: the end value at or beyond either end, a knot's
    own value at a knot, and ``slope * (x - xp[j]) + fp[j]`` inside the
    segment (xp[j], xp[j + 1]) that holds x."""
    x, xp, fp = float(x), [float(v) for v in xp], [float(v) for v in fp]
    if x <= xp[0]:
        return fp[0]
    for j in range(len(xp) - 1):
        if x == xp[j]:
            return fp[j]
        if x < xp[j + 1]:
            slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
            return slope * (x - xp[j]) + fp[j]
    return fp[-1]


def lsq_slope_exact(samples: Sequence[tuple[int, float]]) -> Fraction:
    """Pooled within-segment least-squares slope of (t, position) samples.

    A gap of more than 2 rows starts a new segment, and each segment has
    its own intercept.  Written in normal-equation form over exact
    rationals: the slope is the sum over segments of
    S_tx - S_t S_x / m, divided by the sum of S_tt - S_t^2 / m.
    Raises ZeroDivisionError when no segment has two samples.
    """
    segments: list[list[tuple[int, Fraction]]] = []
    prev = None
    for t, x in samples:
        if prev is None or t - prev > 2:
            segments.append([])
        segments[-1].append((t, Fraction(x)))
        prev = t
    num = Fraction(0)
    den = Fraction(0)
    for seg in segments:
        m = len(seg)
        s_t = sum(t for t, _ in seg)
        s_x = sum(x for _, x in seg)
        num += sum(t * x for t, x in seg) - s_t * s_x / m
        den += sum(t * t for t, _ in seg) - Fraction(s_t * s_t, m)
    return num / den


def kp_matrix_longhand(a1: Fraction, a2: Fraction, b: Fraction, c: Fraction,
                       modes, point: Sequence[int]) -> list[list[Fraction]]:
    """The four-direction tau matrix, entry by entry.

    M_ij = delta_ij + gamma_i * phi_i / (p_i - q_j), with phase
    phi_i = prod over d in (a1, a2, b, c) of ((q_i - d) / (p_i - d))^l_d
    at point (l1, l2, t, n); exponents may be negative.
    """
    rows = []
    for i, (p, q, gamma) in enumerate(modes):
        phase = Fraction(1)
        for d, exponent in zip((a1, a2, b, c), point):
            phase *= ((q - d) / (p - d)) ** exponent
        rows.append([(1 if i == j else 0) + gamma * phase / (p - qj)
                     for j, (_, qj, _) in enumerate(modes)])
    return rows


def subset_tables_longhand(kp: KPParams,
                           ) -> tuple[int, list[int], list[tuple[list[int], int, list[int], int]]]:
    """``KPParams._subset_tables`` in ``Fraction`` arithmetic, one subset at a
    time.

    Each c_S is its closed form, prod_{i in S} gamma_i / (p_i - q_i) times
    prod_{i<j in S} (p_i - p_j)(q_j - q_i) / ((p_i - q_j)(p_j - q_i)), L is
    the lcm of their reduced denominators, and entry S of a direction's r
    (or 1/r) list is prod_{i in S} num_i * prod_{i not in S} den_i of the
    reduced r_{i,d} = (q_i - d) / (p_i - d) (or its inverse), next to the
    product of all den_i.
    """
    modes, subsets = kp.modes, range(1 << len(kp.modes))

    def c(s: int) -> Fraction:
        members = [i for i in range(len(modes)) if s >> i & 1]
        term = math.prod((modes[i][2] / (modes[i][0] - modes[i][1]) for i in members),
                         start=Fraction(1))
        for a, i in enumerate(members):
            for j in members[a + 1:]:
                (pi, qi, _), (pj, qj, _) = modes[i], modes[j]
                term *= (pi - pj) * (qj - qi) / ((pi - qj) * (pj - qi))
        return term

    def ratios(bases: list[Fraction]) -> tuple[list[int], int]:
        return ([math.prod(b.numerator if s >> i & 1 else b.denominator
                           for i, b in enumerate(bases)) for s in subsets],
                math.prod(b.denominator for b in bases))

    terms = [c(s) for s in subsets]
    big_l = math.lcm(*(term.denominator for term in terms))
    dirs = []
    for d in (kp.a1, kp.a2, kp.b, kp.c):
        rs = [(q - d) / (p - d) for p, q, _ in modes]
        dirs.append((*ratios(rs), *ratios([1 / r for r in rs])))
    return big_l, [term.numerator * (big_l // term.denominator) for term in terms], dirs


def random_kp_params_longhand(rng: Random, n_modes: int, *,
                              constrained: bool = False) -> KPParams:
    """``solitons.random_kp_params`` as first written: each candidate (p, q)
    is tried by building a whole ``KPParams`` with every mode drawn so far,
    which re-checks every pair."""

    def small() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        a1, a2, b, c = (small() for _ in range(4))
        if len({a1, a2, b, c}) == 4:
            break
    modes: list[tuple[Fraction, Fraction, Fraction]] = []
    for i in range(n_modes):
        for _attempt in range(200):
            p = small()
            q = a1 + a2 - p if constrained else small()
            try:
                KPParams(a1, a2, b, c, (*modes, (p, q, Fraction(1))))
            except (DegenerateP, DuplicateP, DenominatorClash):
                continue
            g = small()
            if g == 0:
                continue
            modes.append((p, q, g))
            break
        else:
            raise DrawExhausted(f"mode {i} of a {n_modes}-mode draw", n_modes=n_modes,
                                index=i)
    return KPParams(a1, a2, b, c, tuple(modes))


def tau_grid_longhand(kp: KPParams, l1: int, t0: int, n0: int, rows: int, cols: int,
                      ) -> list[list[int]]:
    """The rows of ``solitons._tau_grid``, one point at a time.

    The integer at (t, n) is the subset sum of ``_kp_sums`` at (0, 0, t, n)
    shifted l1 steps along a1, which multiplies the same factors as the grid
    takes at (l1, 0, t, n) in another order.  Each point is built from the
    expansion's tables with its own powers, with no line and no window, so
    a grid that equals it is canonical.
    """
    return [[_kp_sums(kp, (0, 0, t0 + j, n0 + k), [(l1, 0, 0, 0)])[1][0][0]
             for k in range(cols)]
            for j in range(rows)]


def x_float_longhand(taus: list[tuple[list[int], list[int]]]) -> list[list[float]]:
    """x = f * gn / (g * fn) as float rows, from (f_row, g_row) pairs of
    ``solitons._window_taus``.

    Each x is the exact ratio of the two full-width products, rounded once
    by ``int / int``, which is correctly rounded, so this is the float of
    the reduced x with no enclosure and no fallback.
    """
    return [[f * gn / (g * fn) for f, g, fn, gn in zip(fs, gs, fs[1:], gs[1:])]
            for fs, gs in taus]


def exactness_longhand(field: LatticeField, consts: tuple[int, ...]) -> list[list[bool]]:
    """Per-site verdicts of ``verify exactness`` on reduced values.

    Site (j, k), for every (j, k) but the last row and column of a sampled
    field, passes when the two-point map with constants ``consts`` sends the
    reduced x and y there to the x at (j+1, k) and the y at (j, k+1), both
    compared as reduced fractions.  A vanishing map denominator fails the
    site.  The integer check on unreduced taus, ``solitons._exact_sites``, must
    give the same verdict at every site.
    """
    def exact_at(j: int, k: int) -> bool:
        try:
            return two_point(field.xs[j][k], field.ys[j][k], consts, field.n_lo + k) == (
                field.xs[j + 1][k], field.ys[j][k + 1])
        except ZeroDenominator:
            return False

    return [[exact_at(j, k) for k in range(len(field.xs[0]) - 1)]
            for j in range(len(field.xs) - 1)]
