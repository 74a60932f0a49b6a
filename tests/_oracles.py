"""Independent reference implementations the tests compare against.

These are deliberately the slow, obviously-correct versions: cofactor
expansion instead of the Cauchy subset sum, scalar closed forms instead
of determinant assembly.  They were written and frozen before the library
code they check.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from random import Random

from solitonlab.errors import (
    DegenerateP,
    DenominatorClash,
    DrawExhausted,
    DuplicateP,
    ZeroDenominator,
)
from solitonlab.lattice import LatticeField, _two_point
from solitonlab.solitons import KPParams, _kp_sums


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
    evaluated directly at 60 digits.  Returns, per eps, the max over the swept
    boxes of |-eps ln x' - u'| (boxes the sweep appended start empty).
    """
    new_u, loads = bbsc_sweep_longhand(u, c_box, c_carrier)
    cells = list(u) + [0] * (len(new_u) - len(u))
    gaps = []
    with localcontext() as ctx:
        ctx.prec = 60
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
            raise DrawExhausted(n_modes, i)
    return KPParams(a1, a2, b, c, tuple(modes))


def tau_grid_longhand(kp: KPParams, t0: int, n0: int,
                      row_lengths: Sequence[int]) -> list[list[tuple[int, int]]]:
    """The (f, g) grid of ``solitons._tau_grid``, one point at a time.

    The pair at (t, n) is the two subset sums of ``_kp_sums`` at
    (0, 0, t, n), unshifted and shifted along a1: each point is built from
    the expansion's tables with its own powers, with no walk and no window,
    so a grid that equals it is canonical.
    """
    grid = []
    for j, length in enumerate(row_lengths):
        row = []
        for k in range(length):
            _, [(f, _), (g, _)] = _kp_sums(kp, (0, 0, t0 + j, n0 + k),
                                           [(0, 0, 0, 0), (1, 0, 0, 0)])
            row.append((f, g))
        grid.append(row)
    return grid


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
            return _two_point(field.xs[j][k], field.ys[j][k], consts) == (
                field.xs[j + 1][k], field.ys[j][k + 1])
        except ZeroDenominator:
            return False

    return [[exact_at(j, k) for k in range(len(field.xs[0]) - 1)]
            for j in range(len(field.xs) - 1)]
