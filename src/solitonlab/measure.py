"""Blind measurement of soliton tracks in simulated fields.

Troughs of the float rows of x (local minima below the background 1) are
located per row to sub-lattice precision with a parabolic fit in log x, then
linked across rows into tracks.  Linking is a one-to-one assignment of
tracks to the next row's detections, as many matches as a jump gate that
widens across detection gaps allows and of least total cost among those.
The cost adds a depth-similarity term to the position mismatch, so two
troughs that merge during a collision and reappear later keep their
identities.

Speeds are least-squares slopes, computed exactly from the float positions
and rounded once to a float.  Samples taken while another track is within
``EXCLUSION_RADIUS`` lattice units are dropped, where outside its life span
a track runs on along its own line at its net speed.  The fit allows a
separate intercept per surviving contiguous segment: a collision shifts a
soliton's phase, so forcing one intercept across the jump would bias the
slope.  The linker's jump gate follows the fastest speed that (alpha, beta)
allow, :func:`solitonlab.solitons.speed_bound`; a detection needs
|x - 1| above ``THRESHOLD`` and a track needs ``MIN_SAMPLES``.  A track is
never retired: it coasts to the last row, and its gate widens with its gap,
so a trough hidden for many rows inside a slow collision keeps its track
when it re-emerges.

Ball-count clusters of the box-ball automaton are linked greedily in
integer arithmetic; their speeds are exact rationals.  Both kinds build one
record, :class:`Track`: times, positions and a size per sample, where a
trough has a float position and its refined depth and a cluster its
integer leftmost box and its ball count.  ``overtake_report`` summarizes
any set of tracks of one kind, told apart by whether the positions are
integers, and for two of them tells whether the smaller soliton overtook
the larger.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from .boxball import BBSCState
from .errors import InconsistentCapacities, MixedTrackKinds, TooFewSamples
from .lattice import SystemParams
from .solitons import speed_bound

# How close (lattice units) another soliton may come before a sample is
# discarded as collision-contaminated.  Calibrated against the closed-form
# amplitudes of an exactly known two-soliton field: tail overlap biases the
# refined depth by more than 5e-3 out to roughly 4 units, while velocities
# stay within 1e-2 already at 3.  One radius serves both measurements.
EXCLUSION_RADIUS = 4.5
THRESHOLD = 1e-3  # least |x - 1| of a detected trough
MIN_SAMPLES = 3


@dataclass
class Track:
    """One persistent soliton: parallel lists of time, position and size.

    A trough track holds float positions and the refined depth of each
    sample; a box-ball cluster track holds integer leftmost positions and
    the ball count of each sample.
    """

    times: list[int] = dc_field(default_factory=list)
    positions: list[float] | list[int] = dc_field(default_factory=list)
    sizes: list[float] | list[int] = dc_field(default_factory=list)

    @property
    def first_t(self) -> int:
        return self.times[0]

    @property
    def last_t(self) -> int:
        return self.times[-1]

    @property
    def speed(self) -> Fraction:
        """Exact net displacement per step over the track's life."""
        if len(self.times) < 2:
            raise TooFewSamples("cluster seen only once")
        return ((Fraction(self.positions[-1]) - Fraction(self.positions[0]))
                / (self.times[-1] - self.times[0]))

    def position_at(self, t: int) -> float:
        """Position at time t, linearly interpolated across gaps."""
        return _interp(t, self.times, self.positions)


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """Piecewise-linear interpolation of the knots (xp, fp) at x.

    ``xp`` is increasing.  Outside its range the end values are held, at a
    knot the knot's value is returned exactly, and in between the value is
    ``slope * (x - xp[j]) + fp[j]``.
    """
    j = bisect_right(xp, x) - 1
    if j < 0:
        return float(fp[0])
    if j == len(xp) - 1 or xp[j] == x:
        return float(fp[j])
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]


def _row_minima(row: Sequence[float]) -> list[tuple[float, float]]:
    """Sub-lattice minima of one row: (position, refined depth) pairs.

    A site qualifies when x < 1 - ``THRESHOLD`` and x is a strict minimum to
    the left and weak minimum to the right (ties break leftward).  The
    position and depth are refined with a parabola through log x at the site
    and its neighbors; the offset is clamped to half a cell.
    """
    out: list[tuple[float, float]] = []
    for k in range(1, len(row) - 1):
        xk = row[k]
        if not (xk < 1.0 - THRESHOLD and row[k - 1] > xk and row[k + 1] >= xk):
            continue
        curv = 0.0
        if min(row[k - 1], xk, row[k + 1]) > 0.0:
            lm, l0, lp = math.log(row[k - 1]), math.log(xk), math.log(row[k + 1])
            curv = lm - 2.0 * l0 + lp
        if curv > 0.0:
            off = 0.5 * (lm - lp) / curv
            off = max(-0.5, min(0.5, off))
            vertex = l0 - 0.125 * (lm - lp) ** 2 / curv
            out.append((k + off, abs(math.exp(vertex) - 1.0)))
        else:  # no log parabola opens upward here: keep the site unrefined
            out.append((float(k), abs(xk - 1.0)))
    return out


def _match_cost(pred_pos: float, pred_depth: float, det_pos: float,
                det_depth: float, gate: float) -> float:
    # position mismatch normalized by the gate, depth mismatch in absolute
    # units; depths separate identities when positions are ambiguous
    return abs(pred_pos - det_pos) / gate + 3.0 * abs(pred_depth - det_depth)


def track_troughs(params: SystemParams, rows: Sequence[Sequence[float]],
                  n_lo: int, t0: int) -> list[Track]:
    """Link per-row trough detections into tracks.

    ``rows[j][k]`` is x of the system ``params`` at time ``t0 + j`` and
    site ``n_lo + k``, as :func:`solitonlab.solitons.sample_x_float` returns
    it.  A detection needs |x - 1| above ``THRESHOLD``.  The per-step jump
    gate is twice the fastest speed of the system,
    :func:`solitonlab.solitons.speed_bound`, rounded up: 2 sites at the
    reference pair, 1 wherever beta - alpha >= 1/3, 17 at (19/20, 1/5).  A
    track stays a candidate until the last row: it may coast undetected for
    any number of rows (troughs merge during collisions), and its gate
    widens with the rows it has coasted.  A bound whose quotient leaves the
    float range raises FloatLawUndefined before any row is read.  Tracks
    with fewer than ``MIN_SAMPLES`` detections are discarded as noise.
    Tracks are returned sorted by first appearance, then position.
    """
    base_gate = math.ceil(2.0 * speed_bound(params))
    tracks: list[Track] = []
    for t, row in enumerate(rows, t0):
        dets = [(n_lo + pos, depth) for pos, depth in _row_minima(row)]
        if tracks and dets:
            assignment = _assign(tracks, dets, t, base_gate)
        else:
            assignment = {}
        for ti, di in assignment.items():
            pos, depth = dets[di]
            tracks[ti].times.append(t)
            tracks[ti].positions.append(pos)
            tracks[ti].sizes.append(depth)
        claimed = set(assignment.values())
        for di, (pos, depth) in enumerate(dets):
            if di not in claimed:
                tracks.append(Track([t], [pos], [depth]))
    tracks = [tr for tr in tracks if len(tr.times) >= MIN_SAMPLES]
    tracks.sort(key=lambda tr: (tr.first_t, tr.positions[0]))
    return tracks


def _assign(tracks: Sequence[Track], dets: Sequence[tuple[float, float]],
            t: int, base_gate: float) -> dict[int, int]:
    """One-to-one track-to-detection assignment: as many matches as the
    gates allow, and of those the one with the lowest total cost."""
    cand: dict[int, dict[int, float]] = {}
    for ti, tr in enumerate(tracks):
        gap = t - tr.last_t  # >= 1
        gate = base_gate * gap
        # short linear prediction; falls back to last position for singletons
        if len(tr.times) >= 2:
            k = min(len(tr.times) - 1, 5)
            vel = (tr.positions[-1] - tr.positions[-1 - k]) / (tr.times[-1] - tr.times[-1 - k])
        else:
            vel = 0.0
        pred = tr.positions[-1] + vel * gap
        depth = statistics.median(tr.sizes[-5:])
        row = {}
        for di, (pos, dep) in enumerate(dets):
            if abs(pos - tr.positions[-1]) <= gate or abs(pos - pred) <= base_gate:
                row[di] = _match_cost(pred, depth, pos, dep, gate)
        if row:
            cand[ti] = row
    return _min_cost_matching(cand)


def _min_cost_matching(cand: dict[int, dict[int, float]]) -> dict[int, int]:
    """Largest one-to-one matching of the rows of a sparse cost table to its
    columns, of least total cost among the largest.  Returns {row: column}.

    Successive shortest augmenting paths: each round finds the cheapest path
    from an unmatched row to an unmatched column that alternates unused
    entries (cost +c) and matched ones (cost -c), and flips it.  After k
    rounds the matching is a cheapest one of size k; the rounds end when no
    such path is left.  Column potentials keep every step's cost
    non-negative, so each round is a Dijkstra search over the columns.
    """
    col_of: dict[int, int] = {}  # row -> matched column
    row_of: dict[int, int] = {}  # column -> matched row
    pot = {c: 0.0 for row in cand.values() for c in row}
    while True:
        dist: dict[int, float] = {}  # column -> cost of the cheapest path so far
        via: dict[int, int] = {}  # column -> the row that path arrives from
        settled: set[int] = set()
        expand = [(r, 0.0) for r in cand if r not in col_of]
        while True:
            for r, base in expand:
                # a matched row's potential puts its own entry at cost 0
                pr = pot[col_of[r]] - cand[r][col_of[r]] if r in col_of else 0.0
                for c, cost in cand[r].items():
                    d = base + max(0.0, cost + pr - pot[c])
                    if c not in settled and d < dist.get(c, math.inf):
                        dist[c] = d
                        via[c] = r
            reached = [c for c in dist if c not in settled]
            if not reached:
                break
            c = min(reached, key=lambda c: (dist[c], c))
            settled.add(c)
            expand = [(row_of[c], dist[c])] if c in row_of else []
        free = [c for c in dist if c not in row_of]
        if not free:
            return col_of
        c = min(free, key=lambda c: dist[c] + pot[c])
        for col, d in dist.items():
            pot[col] += d
        while True:  # flip the path, walking back from its free column
            r = via[c]
            prev = col_of.get(r)
            col_of[r] = c
            row_of[c] = r
            if prev is None:
                break
            c = prev


def _usable_samples(track: Track, others: Sequence[Track],
                    ) -> list[tuple[int, float, float]]:
    """(t, position, depth) samples not within ``EXCLUSION_RADIUS`` of any
    other track.

    Inside another track's life span its position is the interpolated
    :meth:`Track.position_at`.  Outside, the other soliton is hidden in some
    trough or beyond the window, and it runs on along its own line: from its
    nearer end position at its net speed :attr:`Track.speed`, taken as a
    float.  A track seen once holds its position.
    """
    lines = [(o, float(o.speed) if len(o.times) > 1 else 0.0)
             for o in others if o is not track and o.times]
    out = []
    for t, pos, dep in zip(track.times, track.positions, track.sizes):
        for other, speed in lines:
            if other.first_t <= t <= other.last_t:
                gap = abs(other.position_at(t) - pos)
            else:
                end = 0 if t < other.first_t else -1
                gap = abs(other.positions[end] + speed * (t - other.times[end]) - pos)
            if gap <= EXCLUSION_RADIUS:
                break
        else:
            out.append((t, pos, dep))
    return out


def measure_velocity(track: Track, others: Sequence[Track] = ()) -> float:
    """Least-squares speed of a track.

    Collision samples (within ``EXCLUSION_RADIUS`` of another track) are
    excluded; the fit shares one slope across the remaining contiguous
    segments with a free intercept each, since collisions shift the phase.
    The slope is computed exactly from the integer times and the float
    positions taken as exact rationals, and rounded once to a float.
    Raises TooFewSamples when fewer than two usable samples remain or no
    segment has two points.
    """
    return _velocity(_usable_samples(track, others))


def _velocity(usable: Sequence[tuple[int, float, float]]) -> float:
    """:func:`measure_velocity` of the samples :func:`_usable_samples` kept."""
    if len(usable) < 2:
        raise TooFewSamples(f"{len(usable)} usable samples")
    # split into contiguous runs (gap of more than 2 rows starts a new one)
    segments: list[list[tuple[int, float]]] = [[]]
    prev_t = None
    for t, pos, _ in usable:
        if prev_t is not None and t - prev_t > 2:
            segments.append([])
        segments[-1].append((t, pos))
        prev_t = t
    num = Fraction(0)
    den = Fraction(0)
    for seg in segments:
        if len(seg) < 2:
            continue
        mean_t = Fraction(sum(t for t, _ in seg), len(seg))
        for t, pos in seg:
            dt = t - mean_t
            num += dt * Fraction(pos)
            den += dt * dt
    if den == 0:
        raise TooFewSamples("no segment with two or more samples")
    return float(num / den)


def track_amplitude(track: Track, others: Sequence[Track] = ()) -> float:
    """Deepest refined trough over the track's collision-free samples.

    The refined per-sample depth oscillates slightly with the trough's
    sub-lattice phase, so the max over many samples is the right estimate of
    the true amplitude; collision samples are excluded because overlapping
    solitons distort each other's depth.
    """
    return _amplitude(_usable_samples(track, others))


def _amplitude(usable: Sequence[tuple[int, float, float]]) -> float:
    """:func:`track_amplitude` of the samples :func:`_usable_samples` kept."""
    if not usable:
        raise TooFewSamples("no collision-free samples")
    return max(dep for _, _, dep in usable)


# ---------------------------------------------------------------------------
# box-ball cluster tracks


def _clusters(occupied: Sequence[int], counts: Sequence[int],
              ) -> list[tuple[int, int, int]]:
    """(leftmost, rightmost, ball count) for each run of nonzero boxes.

    ``occupied`` lists the indices of the nonzero boxes in ascending order
    and ``counts`` their ball counts (``BBSCState.occupied`` and
    ``BBSCState.counts``), so no empty box is visited: a run is a stretch
    of consecutive indices, and its ball count the sum of their counts.
    """
    out = []
    start = last = -2
    balls = 0
    for k, c in zip(occupied, counts):
        if k != last + 1:
            if start >= 0:
                out.append((start, last, balls))
            start = k
            balls = 0
        balls += c
        last = k
    if start >= 0:
        out.append((start, last, balls))
    return out


def detect_bbsc_solitons(history: Sequence[BBSCState]) -> list[Track]:
    """Link ball clusters across a state history into tracks.

    Clusters are matched by interval overlap first, then by nearest leftmost
    position within a gate of (ball count + 2) sites.  All states must share
    both capacities.
    """
    if not history:
        return []
    caps = {(s.c_box, s.c_carrier) for s in history}
    if len(caps) > 1:
        raise InconsistentCapacities(f"mixed capacities in history: {sorted(map(str, caps))}")
    tracks: list[Track] = []
    prev: list[tuple[int, int, int]] = []
    prev_map: list[Track] = []
    for t, s in enumerate(history):
        cur = _clusters(s.occupied, s.counts)
        new_map: list[Track | None] = [None] * len(cur)
        used = [False] * len(prev)
        matched = 0
        # pass 1: interval overlap with the previous row's clusters.  Both
        # rows are sorted, disjoint intervals, so the previous clusters that
        # can overlap (lo, hi) start at the first one ending at or after lo,
        # and that first index only moves right as lo does.
        first = 0
        n_prev = len(prev)
        for ci, (lo, hi, _) in enumerate(cur):
            while first < n_prev and prev[first][1] < lo:
                first += 1
            best = None
            best_olap = 0
            for pi in range(first, n_prev):
                plo, phi, _ = prev[pi]
                if plo > hi:
                    break
                if used[pi]:
                    continue
                olap = (hi if hi < phi else phi) - (lo if lo > plo else plo) + 1
                if olap > best_olap:
                    best_olap = olap
                    best = pi
            if best is not None:
                new_map[ci] = prev_map[best]
                used[best] = True
                matched += 1
        # pass 2: nearest leftmost within the gate, while both rows still
        # hold unmatched clusters
        if matched < len(cur) and matched < n_prev:
            for ci, (lo, hi, cnt) in enumerate(cur):
                if new_map[ci] is not None:
                    continue
                best = None
                best_d = None
                for pi, (plo, _, pcnt) in enumerate(prev):
                    if used[pi]:
                        continue
                    d = abs(lo - plo)
                    if d <= pcnt + 2 and (best_d is None or d < best_d):
                        best_d = d
                        best = pi
                if best is not None:
                    new_map[ci] = prev_map[best]
                    used[best] = True
        for ci, (lo, hi, cnt) in enumerate(cur):
            tr = new_map[ci]
            if tr is None:
                tr = Track()
                tracks.append(tr)
                new_map[ci] = tr
            tr.times.append(t)
            tr.positions.append(lo)
            tr.sizes.append(cnt)
        prev = cur
        prev_map = new_map
    tracks.sort(key=lambda tr: (tr.first_t, tr.positions[0]))
    return tracks


# ---------------------------------------------------------------------------
# overtake report


def _fraction_or_float(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def overtake_report(tracks: Sequence[Track]) -> dict:
    """Summarize measured tracks: per-track amplitude/speed/span and, for
    exactly two, whether their order swaps and whether the smaller one
    outran the larger.

    Accepts any number of tracks of one kind, not mixed: cluster tracks
    have integer positions, trough tracks float ones.  The amplitude and
    speed of a trough track are measured clear of all the other tracks; a
    cluster track has its ball count at birth and its exact speed.  For
    any count other than two, ``crossing`` is false and ``anomaly`` is
    ``"none"``.  Of two tracks, ``anomaly`` is ``"smaller_faster"`` when
    the smaller-amplitude track ends ahead after starting behind, or, for
    troughs, after emerging from an unresolved collision at the start of the
    common span with the greater measured speed; else ``"none"``.
    """
    kinds = {bool(tr.positions) and all(isinstance(p, int) for p in tr.positions)
             for tr in tracks}
    if len(kinds) > 1:
        raise MixedTrackKinds("cannot mix trough and cluster tracks in one report")
    clusters = kinds == {True}
    # all amplitudes first: when several fits fail, an amplitude's is raised
    if clusters:
        amps = [tr.sizes[0] for tr in tracks]
        speeds = [tr.speed for tr in tracks]
    else:
        # one exclusion pass per track serves both fits; it skips the track
        # itself among ``tracks``
        usable = [_usable_samples(tr, tracks) for tr in tracks]
        amps = [_amplitude(samples) for samples in usable]
        speeds = [_velocity(samples) for samples in usable]
    rows = [{
        "amplitude": _fraction_or_float(amp),
        "speed": _fraction_or_float(spd),
        "first_t": tr.first_t,
        "last_t": tr.last_t,
    } for tr, amp, spd in zip(tracks, amps, speeds)]
    if len(tracks) != 2:
        return {"tracks": rows, "crossing": False, "anomaly": "none"}
    a, b = tracks
    # compare positions at the shared start and end of the common life span
    t_start = max(a.first_t, b.first_t)
    t_end = min(a.last_t, b.last_t)
    if t_end <= t_start:
        # no common life span; fall back to each track's own endpoints
        d0 = a.position_at(a.first_t) - b.position_at(b.first_t)
        d1 = a.position_at(a.last_t) - b.position_at(b.last_t)
    else:
        d0 = a.position_at(t_start) - b.position_at(t_start)
        d1 = a.position_at(t_end) - b.position_at(t_end)
    crossing = d0 * d1 < 0
    anomaly = "none"
    if amps[0] != amps[1]:
        small, big = (0, 1) if amps[0] < amps[1] else (1, 0)
        ds = (d0, d1) if small == 0 else (-d0, -d1)
        started_behind = ds[0] < 0
        # if the window opens on an unresolved collision the tracks emerge
        # closer than the exclusion radius; the smaller one being measurably
        # faster then implies it entered the collision from behind
        emerged_merged = (not clusters
                          and abs(ds[0]) <= EXCLUSION_RADIUS
                          and speeds[small] > speeds[big])
        if ds[1] > 0 and (started_behind or emerged_merged):
            anomaly = "smaller_faster"
    return {"tracks": rows, "crossing": bool(crossing), "anomaly": anomaly}
