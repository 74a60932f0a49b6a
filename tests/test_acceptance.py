"""End-to-end acceptance checks.

Each test contributes one PASS/FAIL line to a scorecard that the conftest
hook prints after the run, so `pytest tests/test_acceptance.py` ends with a
ten-line verdict.  Criteria with a runtime budget time themselves and fail
when over budget.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

import _scorecard

from solitonlab import (
    BBSCState,
    SystemParams,
    amplitude,
    check_kp_bilinear,
    check_reduction,
    detect_bbsc_solitons,
    evolve_bbsc,
    measure_velocity,
    overtake_report,
    random_kp_params,
    sample_field,
    sample_x_float,
    scan_monotonicity,
    track_amplitude,
    track_troughs,
    ud_limit_check,
    velocity,
)
from solitonlab.lattice import _gkdv_constants, _sweep

from _oracles import REF_PARAMS, REF_SOLITONS, two_point


def _record(num: int, desc: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num:2d}: {desc}"
    _scorecard.lines.append(line)
    print(line)
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_closed_form_velocity():
    v1 = velocity(REF_PARAMS, Fraction(2, 15))
    v2 = velocity(REF_PARAMS, Fraction(1, 30))
    ok = (abs(v1 - 0.783) < 1e-3 and abs(v2 - 0.723) < 1e-3
          and v1 == pytest.approx(math.log(8 / 3) / math.log(7 / 2))
          and v2 == pytest.approx(math.log(9 / 2) / math.log(8)))
    _record(1, f"closed-form velocities {v1:.4f}, {v2:.4f}", ok)


def test_criterion_02_closed_form_amplitude():
    w1 = amplitude(REF_PARAMS, Fraction(2, 15))
    w2 = amplitude(REF_PARAMS, Fraction(1, 30))
    ok = abs(w1 - 0.363) < 1e-3 and abs(w2 - 0.722) < 1e-3
    _record(2, f"closed-form amplitudes {w1:.4f}, {w2:.4f}", ok)


def test_criterion_03_exact_solution_property():
    start = time.monotonic()
    ok = True
    consts = _gkdv_constants(REF_PARAMS)
    for modes in (REF_SOLITONS[:1], REF_SOLITONS):
        field = sample_field(REF_PARAMS, modes, (0, 41), (-20, 21))
        for j in range(41):
            for k in range(41):
                xp, yn = two_point(field.xs[j][k], field.ys[j][k], consts, field.n_lo + k)
                ok = ok and xp == field.xs[j + 1][k] and yn == field.ys[j][k + 1]
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    _record(3, f"N=1,2 residuals exactly zero on 41x41 grids ({elapsed:.1f}s)", ok)


@pytest.fixture(scope="module")
def overtake_run():
    start = time.monotonic()
    rows = sample_x_float(REF_PARAMS, REF_SOLITONS, (0, 60), (-30, 90))
    tracks = track_troughs(REF_PARAMS, rows, -30, 0)
    return tracks, time.monotonic() - start


def test_criterion_04_overtaking_reproduction(overtake_run):
    tracks, build_s = overtake_run
    start = time.monotonic()
    ok = len(tracks) == 2
    detail = f"{len(tracks)} tracks"
    if ok:
        report = overtake_report(tracks)
        rows = sorted(report["tracks"], key=lambda r: r["amplitude"])
        ok = (abs(rows[0]["speed"] - 0.783) < 0.01
              and abs(rows[1]["speed"] - 0.723) < 0.01
              and abs(rows[0]["amplitude"] - 0.363) < 0.005
              and abs(rows[1]["amplitude"] - 0.722) < 0.005
              and report["anomaly"] == "smaller_faster")
        detail = (f"v={rows[0]['speed']:.4f}/{rows[1]['speed']:.4f} "
                  f"W={rows[0]['amplitude']:.4f}/{rows[1]['amplitude']:.4f} "
                  f"anomaly={report['anomaly']}")
    elapsed = build_s + time.monotonic() - start
    ok = ok and elapsed < 60
    _record(4, f"overtaking reproduced: {detail} ({elapsed:.1f}s)", ok)


def test_criterion_05_equal_parameter_degeneration():
    params = SystemParams(Fraction(5, 6), Fraction(5, 6))
    row = [Fraction(1), Fraction(5, 4), Fraction(2, 3), Fraction(1)]
    x_next, y_row = _sweep(row, Fraction(1), _gkdv_constants(params), 0)
    exchange_ok = x_next == [Fraction(1)] + row[:-1] and y_row == [Fraction(1)] + row

    sols = [(Fraction(1, 15), Fraction(-20)), (Fraction(1, 30), Fraction(-1, 60))]
    rows = sample_x_float(params, sols, (0, 40), (-10, 50))
    tracks = track_troughs(params, rows, -10, 0)
    speeds = [measure_velocity(tr, [o for o in tracks if o is not tr])
              for tr in tracks]
    speeds_ok = len(tracks) == 2 and all(abs(v - 1.0) <= 1e-6 for v in speeds)
    _record(5, "equal parameters: one step = exchange, measured speeds "
            + "/".join(f"{v:.8f}" for v in speeds), exchange_ok and speeds_ok)


def test_criterion_06_bbsc_speeds():
    history = evolve_bbsc(BBSCState((3, 0, 0, 0, 1), c_box=3, c_carrier=1), 9)
    tracks = detect_bbsc_solitons(history)
    balls = {state.balls for state in history}
    ok = (len(tracks) == 2
          and tracks[0].sizes[0] == 3 and tracks[0].speed == Fraction(1, 3)
          and tracks[1].sizes[0] == 1 and tracks[1].speed == 1
          and balls == {4} and len(history) == 10)
    _record(6, "box-ball speeds exactly 1/3 and 1, balls conserved over 9 steps", ok)


def test_criterion_07_ultradiscretization_bridge():
    state = evolve_bbsc(BBSCState((3, 0, 0, 0, 1, 0), c_box=3, c_carrier=1), 3)[-1]
    gaps = [g for _, g in ud_limit_check(state, [1.0, 0.1, 0.01, 0.001])]
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-2
    _record(7, "tropical limit gaps " + "/".join(f"{g:.2e}" for g in gaps), ok)


def test_criterion_08_kp_bilinear_identities():
    start = time.monotonic()
    rng = Random(2024)
    ok = True
    for n_modes in (1, 2):
        kp = random_kp_params(rng, n_modes)
        red = random_kp_params(rng, n_modes, constrained=True)
        for _ in range(20):
            point = tuple(rng.randint(-3, 3) for _ in range(4))
            ok = ok and check_kp_bilinear(kp, point) == (0, 0)
            ok = ok and check_reduction(red, point) == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _record(8, f"bilinear and reduction residuals exactly zero ({elapsed:.1f}s)", ok)


def test_criterion_09_monotonicity_scans():
    regimes = [
        (REF_PARAMS, -1),
        (SystemParams(Fraction(14, 15), Fraction(5, 6)), +1),
        (SystemParams(Fraction(5, 6), Fraction(5, 6)), 0),
    ]
    ok = True
    rng = Random(42)
    for params, orientation in regimes:
        report = scan_monotonicity(params, 101)
        ok = ok and report["violations"] == []
        span = params.alpha + params.beta - 1
        # larger amplitude <-> slower for beta > alpha, faster for alpha > beta
        for _ in range(100):
            p = span * rng.randint(1, 999) / 1000
            q = span * rng.randint(1, 999) / 1000
            dv = velocity(params, p) - velocity(params, q)
            dw = amplitude(params, p) - amplitude(params, q)
            if orientation == 0:
                ok = ok and dv == 0.0
            elif dw == 0.0:
                ok = ok and abs(dv) < 1e-12
            else:
                ok = ok and (dv == 0.0 or math.copysign(1, dv)
                             == orientation * math.copysign(1, dw))
    _record(9, "scans clean for all three regimes, sign relation holds 3x100", ok)


def test_criterion_10_conservation_corpus():
    rng = Random(7)
    ok = True
    # lattice evolution corpus: the product invariant at every site and step
    for _ in range(25):
        params = SystemParams(Fraction(rng.randint(1, 99), 100),
                              Fraction(rng.randint(1, 99), 100))
        row = [Fraction(rng.randint(1, 40), rng.randint(1, 40))
               for _ in range(rng.randint(2, 9))]
        for _ in range(rng.randint(1, 5)):
            x_next, y_row = _sweep(row, Fraction(1), _gkdv_constants(params), 0)
            for n, _ in enumerate(row):
                ok = ok and x_next[n] * y_row[n + 1] == row[n] * y_row[n]
            row = x_next
    # box-ball corpus: ball count and capacity bounds over 200 random runs
    for _ in range(200):
        cb = rng.randint(1, 6)
        cc = rng.choice([1, 2, 3, math.inf])
        cells = tuple(rng.randint(0, cb) for _ in range(rng.randint(1, 15)))
        state = BBSCState(cells, c_box=cb, c_carrier=cc)
        total = state.balls
        for state in evolve_bbsc(state, rng.randint(1, 6))[1:]:
            ok = ok and state.balls == total
            ok = ok and all(0 <= v <= cb for v in state.u)
    _record(10, "product invariant and ball conservation hold across corpora", ok)
