"""Independent reference implementations the tests compare against.

These are deliberately the slow, obviously-correct versions: cofactor
expansion instead of fraction-free elimination, scalar closed forms instead
of determinant assembly.  They were written and frozen before the library
code they check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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


def dkdv_local_longhand(x: Fraction, y: Fraction, delta: Fraction,
                        ) -> tuple[Fraction, Fraction]:
    """The one-parameter local update as ``Fraction`` arithmetic.

    x' = (1+delta) y / (1 + delta*x*y) and y~ = (1 + delta*x*y) x / (1+delta).
    Raises ZeroDivisionError when 1 + delta*x*y or 1 + delta vanishes.
    """
    den = 1 + delta * x * y
    one_plus = 1 + delta
    return one_plus * y / den, den * x / one_plus


def yb_map_longhand(u: Fraction, v: Fraction, a: Fraction, b: Fraction,
                    ) -> tuple[Fraction, Fraction]:
    """The symmetric normal form as ``Fraction`` arithmetic.

    u' = (1 + b*u*v) v / (1 + a*u*v) and v' = (1 + a*u*v) u / (1 + b*u*v).
    Raises ZeroDivisionError when either bracket vanishes.
    """
    w = u * v
    den_a = 1 + a * w
    den_b = 1 + b * w
    return den_b * v / den_a, den_a * u / den_b


def tropical_alt(x: float, y: float, cap_a: float, cap_b: float) -> float:
    """The piecewise-linear update written as two plateau terms."""
    return y + min(0.0, cap_b + x + y) - min(0.0, cap_a + x + y)


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
