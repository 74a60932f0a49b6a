"""Seeded job generators for the four benchmark workloads.

Every input is derived from the seed and from closed-form ``Fraction``
arithmetic written out here; nothing in this module calls the package under
measurement.  A workload is a *panel*: a fixed-size list of distinct jobs,
stratified so that each panel covers the same spread of job sizes whatever
the seed.  The benchmark loop cycles through the panel until the run time is
spent.

A job is a dict with a ``kind`` that selects how ``run.py`` executes it:

* ``cli``  - ``argv`` for ``solitonlab.cli.run``, output captured in memory
* ``bbsc`` - the library calls behind ``solitonlab bbsc --render csv``,
  followed by cluster detection
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from random import Random

# The paper's headline parameters (alpha < beta: smaller solitons are faster)
# and the README analysis window.
REF_ALPHA = F(5, 6)
REF_BETA = F(14, 15)
ANALYZE_T = (0, 60)
ANALYZE_N = (-30, 90)


def closed_consts(alpha: F, beta: F, p: F) -> tuple[F, F, F]:
    """A, B and D of one mode, longhand from the tau-function definitions."""
    a = (beta - p) / (p + 1 - alpha)
    b = (p + 1 - beta) / (alpha - p)
    d = (alpha + beta - 1 - p) / p
    return a, b, d


def closed_velocity(alpha: F, beta: F, p: F) -> float:
    """v(p) = -log A / log B, and exactly 1 where A B = 1."""
    a, b, _ = closed_consts(alpha, beta, p)
    if a * b == 1:
        return 1.0
    return -math.log(a) / math.log(b)


def closed_amplitude(alpha: F, beta: F, p: F) -> float:
    """W(p) = |(1 + 1/s)(1 + s) / ((1 + r)(1 + 1/r)) - 1|, s = sqrt(B D),
    r = sqrt(D / B)."""
    _, b, d = closed_consts(alpha, beta, p)
    if b * d == 1:
        return 0.0
    s = math.sqrt(b * d)
    r = math.sqrt(d / b)
    return abs((1 + 1 / s) * (1 + s) / ((1 + r) * (1 + 1 / r)) - 1)


def _three_digits(x: float) -> F:
    """x rounded to three significant decimal digits, as an exact rational."""
    e = math.floor(math.log10(abs(x))) - 2
    mag = F(round(abs(x) / 10.0 ** e)) * F(10) ** e
    return mag if x > 0 else -mag


def gamma_at(alpha: F, beta: F, p: F, t: float, n: float) -> F:
    """Phase constant gamma that centres mode p at site n at time t.

    One soliton's tau function is 1 + C A^t B^n with C = gamma / (2p + D),
    D = 1 - alpha - beta; its trough sits where C A^t B^n is of order one,
    so C = A^-t B^-n.  The result keeps three significant digits, so the
    input stays short, and has the sign that ``validate`` requires.
    """
    a, b, _ = closed_consts(alpha, beta, p)
    log_c = -t * math.log(a) - n * math.log(b)
    return _three_digits(math.exp(log_c) * float(2 * p + 1 - alpha - beta))


def _soliton_args(modes) -> list[str]:
    out: list[str] = []
    for p, gamma in modes:
        out += ["--soliton", f"{p}:{gamma}"]
    return out


def _system_args(alpha: F, beta: F) -> list[str]:
    return ["--alpha", str(alpha), "--beta", str(beta)]


# ---------------------------------------------------------------------------
# analyze_n2


def analyze_panel(rng: Random) -> list[dict]:
    """Nine two-soliton ``analyze`` jobs on the README window.

    The large mode has p = k/60 with k in {1, 2}, the small one k in 8..16,
    one job per small-mode k, in seeded order.  Both centres are placed at
    one site n_x in [-8, 8] at a time t_x in [0, 4], so the smaller, faster
    soliton starts level with or just behind the larger one and is ahead
    by the end of the window.  A mid-window crossing is not used: the
    speeds on this branch differ by at most 0.11, so the two troughs would
    stay closer than the measurement's exclusion radius at both window
    edges (see NOTES.md).
    """
    jobs = []
    smalls = list(range(8, 17))
    rng.shuffle(smalls)
    for ks in smalls:
        kb = rng.randint(1, 2)
        tx = rng.randint(0, 4)
        nx = rng.randint(-8, 8)
        modes = [(F(k, 60), gamma_at(REF_ALPHA, REF_BETA, F(k, 60), tx, nx))
                 for k in (kb, ks)]
        argv = (["analyze"] + _system_args(REF_ALPHA, REF_BETA) + _soliton_args(modes)
                + ["--n", "%d:%d" % ANALYZE_N, "--t", "%d:%d" % ANALYZE_T])
        jobs.append({"kind": "cli", "argv": argv, "alpha": REF_ALPHA,
                     "beta": REF_BETA, "modes": modes,
                     "crossing_in_window": ANALYZE_T[0] <= tx <= ANALYZE_T[1]})
    return jobs


# ---------------------------------------------------------------------------
# evolve_row

EVOLVE_SITES = (0, 60)  # 61 sites
# (steps, k of the large mode, k of the small mode), p = k/60
EVOLVE_SLOTS = ((12, 1, 8), (12, 3, 13), (13, 2, 10), (13, 4, 15), (14, 1, 12),
                (14, 3, 9), (15, 2, 14), (15, 4, 11), (16, 1, 16), (16, 3, 10))


def evolve_panel(rng: Random) -> list[dict]:
    """Ten ``evolve`` jobs, two per step count 12..16, in seeded order.

    Each samples one two-mode row of the reference system.  The modes are
    fixed per panel slot (p = k/60, ``EVOLVE_SLOTS``); the troughs sit at
    sites 7 and 14 of the 61-site row, each moved by a seeded quarter-site
    offset in [-1/2, 1/2], and stay inside the window for all steps.  A
    job's cost grows with the bit length of its row, which the modes and
    whole-site moves of the troughs set: drawing them from the seed (k in
    1..4 and 8..16, sites 5-9 and 12-16) moved the panel's median job by up
    to 15 % from seed to seed.
    """
    jobs = []
    slots = list(EVOLVE_SLOTS)
    rng.shuffle(slots)
    for steps, kb, ks in slots:
        modes = [(F(k, 60), gamma_at(REF_ALPHA, REF_BETA, F(k, 60), 0,
                                     site + rng.randint(-2, 2) / 4))
                 for k, site in ((kb, 7), (ks, 14))]
        argv = (["evolve"] + _system_args(REF_ALPHA, REF_BETA) + _soliton_args(modes)
                + ["--n", "%d:%d" % EVOLVE_SITES, "--t", f"0:{steps}"])
        jobs.append({"kind": "cli", "argv": argv, "alpha": REF_ALPHA,
                     "beta": REF_BETA, "modes": modes, "sites": EVOLVE_SITES,
                     "steps": steps})
    return jobs


# ---------------------------------------------------------------------------
# verify_n4

VERIFY_MODES = 4
SCAN_GRID = 2001


def _regime_params(rng: Random, regime: int) -> tuple[F, F]:
    """alpha, beta in (1/2, 1) with alpha < beta, = beta or > beta."""
    lo, hi = rng.sample(range(18, 29), 2)
    lo, hi = min(lo, hi), max(lo, hi)
    if regime == 0:
        return F(lo, 30), F(hi, 30)
    if regime == 1:
        return F(hi, 30), F(hi, 30)
    return F(hi, 30), F(lo, 30)


def _valid_modes(rng: Random, alpha: F, beta: F, count: int) -> list[tuple[F, F]]:
    """``count`` distinct modes p = span*m/40 on both branches, no pair summing
    to the span, each gamma with the sign of p - span/2."""
    span = alpha + beta - 1
    ms: list[int] = []
    while len(ms) < count:
        m = rng.randint(1, 39)
        if m == 20 or m in ms or (40 - m) in ms:
            continue
        ms.append(m)
    modes = []
    for m in ms:
        p = span * m / 40
        sign = 1 if m > 20 else -1
        modes.append((p, sign * F(rng.randint(1, 9), rng.randint(1, 9))))
    return modes


def verify_panel(rng: Random) -> list[dict]:
    """Twelve jobs, four per regime (alpha < beta, alpha = beta, alpha > beta).

    Each job is ``verify all`` with four seeded modes, ``--n-solitons 4``
    and a seeded ``--rng-seed``, followed by ``scan --grid 2001`` on the
    same parameters.
    """
    jobs = []
    for regime in (0, 1, 2) * 4:
        alpha, beta = _regime_params(rng, regime)
        modes = _valid_modes(rng, alpha, beta, VERIFY_MODES)
        verify = (["verify", "all"] + _system_args(alpha, beta) + _soliton_args(modes)
                  + ["--n-solitons", str(VERIFY_MODES),
                     "--rng-seed", str(rng.randrange(2 ** 31))])
        scan = ["scan"] + _system_args(alpha, beta) + ["--grid", str(SCAN_GRID)]
        jobs.append({"kind": "cli", "argv": verify, "scan_argv": scan,
                     "alpha": alpha, "beta": beta, "modes": modes})
    return jobs


# ---------------------------------------------------------------------------
# bbsc_carrier

BBSC_STEPS = 1000


def bbsc_panel(rng: Random) -> list[dict]:
    """Six box-ball runs of 1000 sweeps, one per capacity pair with
    c_box > c_carrier, in seeded order.

    The initial state is four clusters separated by empty gaps, at most 50
    boxes in all.  Three clusters have seeded occupancies; the fourth, at a
    seeded place, is a lone ball.  A lone ball moves one box a sweep, the
    most any soliton can when the carrier holds less than a box, so it ends
    in front and the window widens by one box a sweep whatever the seed.
    Without it the front soliton could be a slow one, and the same panel
    slot cost from 0.2 to 0.5 million box updates depending on the seed.
    """
    capacities = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]
    rng.shuffle(capacities)
    jobs = []
    for c_box, c_carrier in capacities:
        init: list[int] = []
        lone = rng.randrange(4)
        for cluster in range(4):
            init += [0] * rng.randint(2, 6)
            if cluster == lone:
                init.append(1)
            else:
                init += [rng.randint(1, c_box) for _ in range(rng.randint(1, 6))]
        init += [0] * 2
        jobs.append({"kind": "bbsc", "init": tuple(init), "c_box": c_box,
                     "c_carrier": c_carrier, "steps": BBSC_STEPS})
    return jobs


PANELS = {
    "analyze_n2": analyze_panel,
    "evolve_row": evolve_panel,
    "verify_n4": verify_panel,
    "bbsc_carrier": bbsc_panel,
}


def make_panel(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for ``seed``; the same seed gives the same jobs."""
    return PANELS[workload](Random(f"{workload}:{seed}"))
