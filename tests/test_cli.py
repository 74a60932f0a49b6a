import argparse
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from solitonlab import solitons
from solitonlab.cli import _rat, _write, build_parser, run
from solitonlab.errors import OutputNotWritable, SolitonLabError
from solitonlab.lattice import SystemParams, _gkdv_constants

from _oracles import (
    FALLBACK_MODES,
    REF_PARAMS,
    REF_SOLITONS,
    REGIMES,
    exactness_longhand,
    soliton_systems,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_ARGS = ["--alpha", "5/6", "--beta", "14/15",
       "--soliton", "2/15:-1/6", "--soliton", "1/30:-1/30"]


def test_exact_writes_csv(capsys, tmp_path):
    out = tmp_path / "window.csv"
    code, _, err = invoke(capsys, "exact", *BASE_ARGS, "--n", "-5:5", "--t", "0:2",
                          "--out", str(out))
    assert code == 0 and err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "n,t,x,y"
    assert len(lines) == 1 + 11 * 3
    n, t, x, y = lines[1].split(",")
    assert (n, t) == ("-5", "0")
    float(x), float(y)


def test_exact_values_exact_are_rational(capsys):
    code, out, _ = invoke(capsys, "exact", *BASE_ARGS, "--n", "0:1", "--t", "0:0",
                          "--values", "exact")
    assert code == 0
    cell = out.splitlines()[1].split(",")[2]
    assert "/" in cell


def test_exact_stdout_default(capsys):
    code, out, _ = invoke(capsys, "exact", *BASE_ARGS, "--n", "0:0", "--t", "0:0")
    assert code == 0 and out.startswith("n,t,x,y")


def test_evolve_agrees_with_exact_sampling(capsys):
    # evolve seeds each sweep with the solution's carrier at the left edge,
    # so the lattice sweep reproduces the sampled window byte for byte; that
    # carrier is a one-column window with a t-shift row, sampled here across,
    # left of and right of n = 0, and from t < 0.  The README's one-mode
    # window warns on stderr; the t-shift row and the n-shift column of the
    # tau rectangle meet off the origin on both axes, on one row, and on one
    # site; four modes give 16 subset lines on rows of 8 columns
    two = ["2/15:-1/6", "1/30:-1/30"]
    windows = [(two, "-20:8", "0:4"), (two, "-40:-25", "0:4"), (two, "5:30", "0:4"),
               (two, "-20:8", "-4:0"), (two[:1], "-20:8", "0:4"), (two, "-20:40", "-3:12"),
               (two, "5:12", "3:7"), (two, "-10:10", "2:2"), (two, "-4:-4", "2:2"),
               (["1/30:-1/30", "2/15:-1/6", "1/2:1/2", "2/3:1"], "-3:4", "0:5")]
    for modes, n_range, t_range in windows:
        window = ["--alpha", "5/6", "--beta", "14/15",
                  *[arg for mode in modes for arg in ("--soliton", mode)],
                  "--n", n_range, "--t", t_range]
        for values in ("float", "exact"):
            code, out_exact, _ = invoke(capsys, "exact", *window, "--values", values)
            assert code == 0
            code, out_evolved, _ = invoke(capsys, "evolve", *window, "--values", values)
            assert code == 0
            assert out_evolved == out_exact


MODES = ["2/15:-1/6", "1/30:-1/30", "1/2:1/5"]


@pytest.mark.parametrize("system", [("5/6", "14/15"), ("14/15", "5/6")],
                         ids=["alpha_lt_beta", "alpha_gt_beta"])
@pytest.mark.parametrize("n_modes", [0, 1, 2, 3])
def test_evolve_equals_exact_for_each_mode_count(capsys, system, n_modes):
    # the lattice sweep against the integer tau grid: two independent paths
    argv = ["--alpha", system[0], "--beta", system[1], "--n", "-5:4", "--t", "-3:2"]
    for mode in MODES[:n_modes]:
        argv += ["--soliton", mode]
    for values in ("float", "exact"):
        code, out_exact, _ = invoke(capsys, "exact", *argv, "--values", values)
        assert code == 0
        code, out_evolved, _ = invoke(capsys, "evolve", *argv, "--values", values)
        assert code == 0
        assert out_evolved == out_exact


def test_bbsc_ascii(capsys):
    code, out, _ = invoke(capsys, "bbsc", "--cb", "3", "--cc", "1",
                          "--init", "300010", "--steps", "9",
                          "--render", "ascii")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("3...1")
    # the lone ball outruns the triple: one box per step
    assert lines[4][8] == "1"


def test_bbsc_csv(capsys):
    code, out, _ = invoke(capsys, "bbsc", "--cb", "2", "--init", "20",
                          "--steps", "2", "--render", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,n,u"


def test_bbsc_wide_occupancies_fall_back_to_csv(capsys):
    code, out, err = invoke(capsys, "bbsc", "--cb", "12", "--init", "innit",
                            "--steps", "1", "--render", "ascii")
    assert code == 1  # digit parsing fails before any automaton work
    code, out, err = invoke(capsys, "bbsc", "--cb", "12", "--cc", "12",
                            "--init", "55", "--steps", "12",
                            "--render", "ascii")
    assert code == 0
    assert out.splitlines()[0] == "t,n,u"
    assert "csv" in err.lower()


def test_analyze_reports_behavior(capsys):
    code, out, _ = invoke(capsys, "analyze", *BASE_ARGS, "--n", "-30:90",
                          "--t", "0:60")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "5/6"
    closed = payload["closed_form"]
    assert [row["p"] for row in closed] == ["2/15", "1/30"]
    assert closed[0]["velocity"] == pytest.approx(0.783, abs=1e-3)
    measured = payload["measured"]
    assert measured["anomaly"] == "smaller_faster"
    assert len(measured["tracks"]) == 2


def test_analyze_single_soliton(capsys):
    code, out, _ = invoke(capsys, "analyze", "--alpha", "5/6", "--beta",
                          "14/15", "--soliton", "1/30:-1/30",
                          "--n", "-10:50", "--t", "0:45")
    assert code == 0
    payload = json.loads(out)
    (row,) = payload["measured"]["tracks"]
    assert row["speed"] == pytest.approx(0.723, abs=0.01)
    assert row["amplitude"] == pytest.approx(0.722, abs=0.005)


def test_scan_json(capsys):
    code, out, _ = invoke(capsys, "scan", "--alpha", "5/6", "--beta", "14/15",
                          "--grid", "25")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["v_extremum_p"] == "23/60"


def test_rat_reads_each_text_form():
    assert _rat("3/4") == Fraction(3, 4)
    assert _rat("-3/4") == Fraction(-3, 4)
    assert _rat(" 7 ") == Fraction(7)
    assert _rat("0.125") == Fraction(1, 8)


def test_rat_rejects_garbage_as_a_type_error():
    for bad in ("", "1/0", "a/b", "1//2"):
        with pytest.raises(argparse.ArgumentTypeError):
            _rat(bad)


@pytest.mark.parametrize("argv, flag, message", [
    (["exact", "--alpha", "abc"], "--alpha",
     "not a rational: 'abc' (Invalid literal for Fraction: 'abc')"),
    (["exact", "--soliton", "1/2"], "--soliton", "soliton must look like p:gamma, got '1/2'"),
    (["exact", "--n", "3"], "--n", "range must look like lo:hi, got '3'"),
    (["exact", "--n", "a:b"], "--n", "range bounds must be integers, got 'a:b'"),
    (["scan", "--grid", "x"], "--grid", "not an integer: 'x'"),
    (["verify", "udlimit", "--epsilons", "a,b"], "--epsilons", "bad epsilon list 'a,b'"),
    (["bbsc", "--cb", "two"], "--cb", "capacity must be an integer or 'inf', got 'two'"),
], ids=["alpha", "soliton", "n_no_colon", "n_not_integers", "grid", "epsilons", "cb"])
def test_a_malformed_value_is_a_usage_error_naming_its_flag(capsys, argv, flag, message):
    assert invoke(capsys, *argv) == (1, "", f"usage error: argument {flag}: {message}\n")


@pytest.mark.parametrize("argv", [["bbsc", "--cb", "3", "--steps", "1"],
                                  ["verify", "udlimit"]], ids=["bbsc", "verify_udlimit"])
@pytest.mark.parametrize("init", ["30\u00b2", "3a", ""], ids=["superscript", "letter", "empty"])
def test_init_takes_only_decimal_digits(capsys, argv, init):
    # str.isdigit() passes a superscript two, which int() cannot read
    code, out, err = invoke(capsys, *argv, "--init", init)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: argument --init:")


def test_usage_errors_exit_one(capsys):
    code, _, err = invoke(capsys, "exact", "--alpha", "5/6")
    assert code == 1 and err != ""
    code, _, err = invoke(capsys, "exact", *BASE_ARGS, "--n", "5:-5", "--t", "0:0")
    assert code == 1
    code, _, err = invoke(capsys, "nonsense")
    assert code == 1


def test_domain_errors_exit_one(capsys):
    # gamma with the wrong sign is a validation error, not a crash
    code, _, err = invoke(capsys, "exact", "--alpha", "5/6", "--beta", "14/15",
                          "--soliton", "1/30:1/30", "--n", "0:1", "--t", "0:0")
    assert code == 1
    assert "gamma" in err
    # an epsilon list that goes the wrong way is rejected before any check
    code, _, err = invoke(capsys, "verify", "udlimit", "--epsilons", "1,0.9,0.95")
    assert code == 1
    assert "strictly decreasing" in err


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha", "5/6", "--beta", "14/15"],
    ["bbsc", "--cb", "1", "--init", "0111010000000", "--steps", "4"],
], ids=["scan", "bbsc"])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_an_unwritable_out_path_is_an_error_not_a_traceback(capsys, tmp_path, argv, where):
    path = str(tmp_path / "missing" / "out.txt" if where == "missing_dir" else tmp_path)
    code, out, err = invoke(capsys, *argv, "--out", path)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and path in err and err.count("\n") == 1
    # the writer's failure is typed, and nothing is emitted
    emitted = []
    with pytest.raises(OutputNotWritable) as info:
        _write(path, emitted.append)
    assert err == f"error: {info.value}\n" and emitted == []
    assert isinstance(info.value, SolitonLabError) and isinstance(info.value, ValueError)


def test_analyze_tracks_two_troughs_through_a_slow_collision(capsys):
    # the small trough hides inside the large one for 74 rows, and its
    # track coasts through them
    code, out, err = invoke(capsys, "analyze", "--alpha", "5/6", "--beta", "14/15",
                            "--soliton", "1/30:-7/10", "--soliton", "4/15:-233/1000",
                            "--t", "-40:60", "--n", "-60:90")
    assert code == 0, err
    measured = json.loads(out)["measured"]
    assert len(measured["tracks"]) == 2
    assert measured["crossing"] is True
    assert measured["anomaly"] == "smaller_faster"


# the largest relative speed error on the five collisions below is 1.83 %,
# on the last; item 1's small mode above reads 2.3 %
COLLISION_SPEED_RTOL = 0.02


@pytest.mark.parametrize("alpha, beta, modes", [
    ("5/6", "14/15", ["23/500:-499/10000000000000000", "161/750:-197/250000000"]),
    ("5/6", "14/15", ["23/1500:-137/10000000000", "23/100:-563/1000000"]),
    ("14/15", "5/6", ["23/1500:-97/25000000000000000000", "92/375:-2/390625"]),
    ("14/15", "5/6", ["299/1500:-942", "23/375:-380000"]),
    ("14/15", "5/6", ["299/1500:-171/250000000", "23/300:-413/100000000000000"]),
], ids=["a_below_b_0", "a_below_b_1", "a_above_b_0", "a_above_b_1", "a_above_b_2"])
def test_analyze_links_each_mode_through_a_collision_as_one_track(capsys, alpha, beta, modes):
    # two-mode collisions drawn in a 100-row window, with troughs centred
    # on one site; a trough hidden in the collision keeps its track, so
    # each mode is one track and its speed the closed form's
    args = [arg for mode in modes for arg in ("--soliton", mode)]
    code, out, err = invoke(capsys, "analyze", "--alpha", alpha, "--beta", beta, *args,
                            "--t", "-40:60", "--n", "-60:90")
    assert code == 0, err
    report = json.loads(out)
    measured = report["measured"]
    assert len(measured["tracks"]) == 2
    assert measured["crossing"] is True
    small_faster = Fraction(alpha) < Fraction(beta)
    assert measured["anomaly"] == ("smaller_faster" if small_faster else "none")
    by_amplitude = lambda row: row["amplitude"]
    for track, mode in zip(sorted(measured["tracks"], key=by_amplitude),
                           sorted(report["closed_form"], key=by_amplitude)):
        assert track["speed"] == pytest.approx(mode["velocity"], rel=COLLISION_SPEED_RTOL)


@pytest.mark.parametrize("modes, rel", [
    (["1/30:-177/10", "4/15:-121/250"], 4e-3),
    (["1/30:-927/100000000000", "4/15:-217/100000"], 5e-4),
    (["1/30:-19/62500", "4/15:-309/10000"], 5e-4),
])
def test_a_track_seen_late_excludes_only_its_own_line_before_it(capsys, modes, rel):
    # the 4/15 trough is detected only over the last 8 or 9 rows; before
    # that it runs back along its own line, clear of the 1/30 trough.  A
    # cone growing a site per row from its first detection stripped the
    # 1/30 track's samples and left its speed 7.9e-3, 2.4e-3 and 2.4e-3
    # off the closed form; it now reads 3.2e-3, 3.3e-4 and 3.5e-4 off
    args = [arg for mode in modes for arg in ("--soliton", mode)]
    code, out, err = invoke(capsys, "analyze", "--alpha", "5/6", "--beta", "14/15", *args,
                            "--n", "-30:90", "--t", "0:60")
    assert code == 0, err
    report = json.loads(out)
    deep = max(report["measured"]["tracks"], key=lambda row: row["amplitude"])
    assert deep["first_t"] == 0 and deep["last_t"] == 60
    assert deep["speed"] == pytest.approx(report["closed_form"][0]["velocity"], rel=rel)


# (alpha, beta, speed rtol, amplitude rtol) of one mode per run: the worst
# relative errors over k = 1, 10, 40, 49 read 3.4e-8 and 2.2e-10, 9.0e-6 and
# 6.1e-6, 1.0e-5 and 3.3e-7, 1.6e-4 and 7.8e-6, 2.2e-16 and 3.1e-3, and
# 7.3e-5 and 9.8e-6.  At alpha = beta every row samples the trough at one
# sub-lattice phase, which biases the depth (ROADMAP item 2).  At (3/5,
# 19/20), beta - alpha >= 1/3 puts the speed bound h_B / h_A at or below
# 1/2, so the linker's gate is 1 site per step
SINGLE_MODE_REGIMES = [
    ("19/20", "1/5", 1e-7, 1e-9),
    ("14/15", "5/6", 3e-5, 2e-5),
    ("3/5", "4/5", 3e-5, 1e-6),
    ("5/6", "14/15", 5e-4, 3e-5),
    ("4/5", "4/5", 1e-15, 1e-2),
    ("3/5", "19/20", 1e-4, 2e-5),
]


@pytest.mark.parametrize("k", [1, 10, 40, 49])
@pytest.mark.parametrize("alpha, beta, speed_rtol, amplitude_rtol", SINGLE_MODE_REGIMES,
                         ids=[f"{a}-{b}".replace("/", "_") for a, b, *_ in SINGLE_MODE_REGIMES])
def test_analyze_tracks_a_soliton_faster_than_one_site_per_step(
        capsys, alpha, beta, speed_rtol, amplitude_rtol, k):
    # one mode at p = span k / 50 with C = 1, in a window sized by its speed:
    # up to 8.06 sites per step at (19/20, 1/5), so the linker's gate must
    # follow the fastest speed of (alpha, beta)
    params = SystemParams(Fraction(alpha), Fraction(beta))
    span = params.alpha + params.beta - 1
    p = span * k / 50
    v = solitons.velocity(params, p)
    code, out, err = invoke(capsys, "analyze", "--alpha", alpha, "--beta", beta,
                            "--soliton", f"{p}:{2 * p - span}", "--t", "0:60",
                            "--n", f"-40:{math.floor(60 * v) + 60}")
    assert code == 0, err
    (track,) = json.loads(out)["measured"]["tracks"]
    assert track["speed"] == pytest.approx(v, rel=speed_rtol)
    assert track["amplitude"] == pytest.approx(solitons.amplitude(params, p), rel=amplitude_rtol)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: one track with no usable "
                   "samples ends the whole report")
@pytest.mark.parametrize("argv", [
    # a pair that never separates, beside a track with all 101 samples usable
    ["--alpha", "3/5", "--beta", "4/5", "--soliton", "17/125:-211/2500",
     "--soliton", "16/125:-181/2000", "--soliton", "11/125:-113/1000",
     "--t", "-40:60", "--n", "-60:90"],
    # the two examples of bench/NOTES.md
    ["--alpha", "5/6", "--beta", "14/15", "--soliton", "1/15:-101000000000",
     "--soliton", "1/5:-38400", "--n", "-30:90", "--t", "0:60"],
    ["--alpha", "5/6", "--beta", "14/15", "--soliton", "1/12:-191/100000",
     "--soliton", "1/6:-87/25000", "--n", "-30:90", "--t", "0:60"],
], ids=["never_separates", "notes_no_collision_free", "notes_one_usable"])
def test_analyze_reports_a_window_with_a_track_that_has_no_usable_samples(capsys, argv):
    code, _, err = invoke(capsys, "analyze", *argv)
    assert code == 0, err


@pytest.mark.parametrize("value", ["nan", "inf,1", "1,0.1,-inf"])
def test_verify_rejects_non_finite_epsilons(capsys, value):
    # nan would print a nan deviation and fail the check instead
    code, out, err = invoke(capsys, "verify", "udlimit", "--epsilons", value)
    assert code == 1
    assert out == "" and err.startswith("usage error:") and "finite" in err


def test_verify_udlimit_rejects_unbounded_boxes(capsys):
    # an infinite box capacity has no limit 1 - beta = exp(-c_box/eps)
    code, out, err = invoke(capsys, "verify", "udlimit", "--cb", "inf")
    assert code == 1
    assert "max deviation" not in out and "finite box capacity" in err


def test_verify_udlimit_rejects_an_unbounded_carrier(capsys):
    code, out, err = invoke(capsys, "verify", "udlimit", "--cc", "inf")
    assert code == 1
    assert "max deviation" not in out and "finite carrier capacity" in err


@pytest.mark.parametrize("argv", [
    ["all", "--cb", "inf"],
    ["all", "--cc", "inf"],
    ["all", "--epsilons", "nan"],
    ["all", "--epsilons", "1,2"],
    ["all", "--init", "9"],
    ["udlimit", "--init", "9"],
    ["udlimit", "--cb", "inf"],
], ids=["all_cb_inf", "all_cc_inf", "all_eps_nan", "all_eps_rising", "all_init_9",
        "udlimit_init_9", "udlimit_cb_inf"])
def test_verify_rejects_udlimit_inputs_before_printing(capsys, argv):
    # the udlimit inputs are checked before the first suite header, so no
    # suite of `verify all` runs and prints before the rejection
    code, out, err = invoke(capsys, "verify", *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["all", "--soliton", "9/10:1"],
    ["all", "--alpha", "1/3", "--beta", "1/3"],
    ["exactness", "--alpha", "1/3", "--beta", "1/3"],
    ["exactness", "--soliton", "1/30:1/30"],
    ["kp", "--n-solitons", "60", "--points", "1"],
], ids=["all_p_out_of_range", "all_empty_interval", "exactness_empty_interval",
        "exactness_gamma_sign", "kp_draw_exhausted"])
def test_verify_rejects_any_suite_input_before_printing(capsys, argv):
    # every selected suite runs before the first header prints, so a suite
    # that rejects its input leaves stdout empty, as udlimit's inputs do
    code, out, err = invoke(capsys, "verify", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_udlimit_passes_at_equal_capacities(capsys):
    # alpha = beta makes the limit exact: every deviation reads 0, which
    # counts as decreasing
    code, out, _ = invoke(capsys, "verify", "udlimit", "--cb", "4", "--cc", "4",
                          "--init", "4401")
    assert code == 0
    assert out.count("max deviation 0.000e+00") == 4
    assert out.endswith("verify: OK\n")


@pytest.mark.parametrize("argv", [
    ["--cb", "3", "--cc", "1"],
    ["--cb", "1", "--cc", "3", "--init", "1101"],
    ["--cb", "2", "--cc", "5", "--init", "2201"],
    ["--cb", "5", "--cc", "2", "--init", "5502"],
], ids=["cb3_cc1", "cb1_cc3", "cb2_cc5", "cb5_cc2"])
def test_verify_udlimit_passes_on_both_capacity_orders(capsys, argv):
    # the in-regime tropical limit, with c_box above and below c_carrier
    code, out, err = invoke(capsys, "verify", "udlimit", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("verify: OK\n")


def test_verify_udlimit_is_exact_on_an_empty_state(capsys):
    # no balls: every box and load is 0, so each gap is exactly 0, not the
    # rounding noise of a float log-sum
    code, out, _ = invoke(capsys, "verify", "udlimit", "--cb", "3", "--cc", "1",
                          "--init", "00", "--epsilons", "3.78,1.255,0.083")
    assert code == 0
    assert out.count("max deviation 0.000e+00") == 3
    assert out.endswith("verify: OK\n")


def test_verify_udlimit_fails_when_the_gaps_rise(capsys):
    # at eps this coarse the gap of the state 10 grows as eps shrinks
    code, out, _ = invoke(capsys, "verify", "udlimit", "--cb", "2", "--cc", "5",
                          "--init", "10", "--steps", "0", "--epsilons", "3.807,2.367")
    assert code == 2
    assert out.splitlines()[1:3] == ["eps=3.807: max deviation 3.268e-01",
                                     "eps=2.367: max deviation 3.361e-01"]
    assert "deviations are not strictly decreasing" in out
    assert out.endswith("verify: FAILED\n")


def test_verify_rejects_an_empty_epsilon_list(capsys):
    code, out, err = invoke(capsys, "verify", "udlimit", "--epsilons", ",")
    assert code == 1
    assert out == "" and err.startswith("usage error:")


@pytest.mark.parametrize("suite, flag", [("exactness", "--grid"), ("kp", "--points"),
                                         ("reduction", "--points"),
                                         ("kp", "--n-solitons")])
def test_verify_rejects_counts_below_one(capsys, suite, flag):
    # a zero count would check nothing and still print "verify: OK"
    for value in ("0", "-1"):
        code, out, err = invoke(capsys, "verify", suite, flag, value)
        assert code == 1
        assert out == "" and err.startswith("usage error:")


@pytest.mark.parametrize("argv", [["verify", "udlimit"],
                                  ["bbsc", "--cb", "3", "--init", "300010"]],
                         ids=["verify_udlimit", "bbsc"])
def test_negative_steps_are_a_usage_error(capsys, argv):
    # a negative count would run no sweep, and verify would still print OK
    for value in ("-1", "-4"):
        code, out, err = invoke(capsys, *argv, "--steps", value)
        assert code == 1
        assert out == "" and err.startswith("usage error:")
    code, out, _ = invoke(capsys, *argv, "--steps", "0")
    assert code == 0 and out != ""


def test_scan_names_the_point_where_a_float_law_fails(capsys):
    # 1 - alpha = 10^-400 and span 10^-800: h_B / h_A, the speed law's
    # quotient at every grid point, exceeds the float range, and most at p_1
    code, out, err = invoke(capsys, "scan", "--alpha", f"{10 ** 400 - 1}/{10 ** 400}",
                            "--beta", f"{10 ** 400 + 1}/{10 ** 800}", "--grid", "2001")
    assert (code, out) == (1, "")
    assert err == f"error: the float speed law leaves the float range at p=1/{2002 * 10 ** 800}\n"


def test_scan_rejects_a_grid_below_three(capsys):
    for value in ("2", "0", "-5"):
        code, out, err = invoke(capsys, "scan", "--alpha", "5/6", "--beta", "14/15",
                                "--grid", value)
        assert code == 1
        assert out == "" and err.startswith("usage error:") and "at least 3" in err


def test_verify_failure_exits_two(capsys):
    # eps = 0.5 is too coarse to bring the deviation below 1e-2
    code, out, _ = invoke(capsys, "verify", "udlimit", "--epsilons", "1,0.5")
    assert code == 2
    assert "final deviation is not below 1e-2" in out
    assert "verify: FAILED" in out


def _patch_window_taus(monkeypatch, edit):
    """Make ``verify exactness`` check a tau grid altered by ``edit``."""
    real = solitons._window_taus

    def altered(kp, t_range, n_range):
        taus = real(kp, t_range, n_range)
        edit(kp, taus)
        return taus

    monkeypatch.setattr(solitons, "_window_taus", altered)


def test_verify_exactness_catches_a_wrong_value(capsys, monkeypatch):
    # --grid 8 checks sites (j, k), j, k < 8, on the 9 x 9 taus (t, n) =
    # (0..8, -4..4); site (j, k) reads the taus at (j..j+1, k..k+1).  The
    # tau at (3, 4) is read by the four sites (2..3, 3..4), as f, fn, ft and
    # ftn, and a wrong f there fails each of them: 64 - 4 = 60
    def bump_f(kp, taus):
        taus[3][0][4] += 1

    _patch_window_taus(monkeypatch, bump_f)
    code, out, _ = invoke(capsys, "verify", "exactness", "--grid", "8")
    assert code == 2
    assert "residual 0 at 60/64 points" in out


def test_verify_exactness_counts_a_vanishing_denominator_as_failed(capsys, monkeypatch):
    # at site (0, 7), with P = gn*ft and Q = fn*gt, make N2 vanish, that is
    # (1-a)*Q + a*P for a = alpha: set the taus at (0, 8) to fn = num(a)*ft
    # and gn = -(den(a) - num(a))*gt.  Only site (0, 7) reads that corner of
    # the 9 x 9 taus, so one site fails: 63/64
    def singular(kp, taus):
        a = kp.c  # alpha, under the reduction
        (fs, gs), (fts, gts) = taus[0], taus[1]
        fs[8], gs[8] = a.numerator * fts[7], -(a.denominator - a.numerator) * gts[7]

    _patch_window_taus(monkeypatch, singular)
    code, out, _ = invoke(capsys, "verify", "exactness", "--grid", "8")
    assert code == 2
    assert "residual 0 at 63/64 points" in out


@st.composite
def exactness_cases(draw, regime: str, n_modes: int):
    """A system in ``regime`` with ``n_modes`` valid modes, a window of 1 x 1
    to 5 x 5 sites, a ``breakage`` for the test to apply, and the map
    constants to check with: those of (beta, alpha) for "swap", else the
    system's own."""
    params, modes = draw(soliton_systems(regime, n_modes))
    window = (draw(st.integers(-3, 3)), draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
    breakage = draw(st.sampled_from(["none", "swap", "taus", "n1", "n2"]))
    swapped = SystemParams(params.beta, params.alpha)
    consts = _gkdv_constants(swapped if breakage == "swap" else params)
    return params, modes, window, consts, breakage, draw(st.randoms(use_true_random=False))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
@pytest.mark.parametrize("regime", REGIMES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_exact_sites_match_the_reduced_fraction_verdicts(regime, n_modes, data):
    # the integer check against the reduced x and y of sample_field pushed
    # through the two-point map, site by site, on honest and broken inputs
    params, modes, (t0, n0, g), consts, breakage, rng = data.draw(
        exactness_cases(regime, n_modes))
    t_range, n_range = (t0, t0 + g), (n0, n0 + g)
    kp = solitons.validate(params, modes)
    # the taus sample_field reads: the window's rows and its t-shift row
    taus = solitons._window_taus(kp, (t0, t0 + g + 1), n_range)
    # the (g+1)-square block the check reads is the window the command asks for
    block = solitons._window_taus(kp, t_range, (n0, n0 + g - 1))
    assert block == [(fs[:g + 1], gs[:g + 1]) for fs, gs in taus[:g + 1]]
    if breakage == "taus":
        for _ in range(rng.randint(1, 3)):
            j, k, which = rng.randint(0, g), rng.randint(0, g), rng.randint(0, 1)
            line = taus[j][which]
            line[k] = line[k] * rng.choice([-2, -1, 1, 2]) + rng.randint(-3, 3)
            assume(line[k] != 0)
    elif breakage in ("n1", "n2"):
        # N2 = (1-alpha)*Q + alpha*P, or N1 with beta, vanishes at site (j, k);
        # at alpha = beta both vanish, and only the nonzero test fails the site
        a = params.alpha if breakage == "n2" else params.beta
        j, k = rng.randint(0, g - 1), rng.randint(0, g - 1)
        (fs, gs), (fts, gts) = taus[j], taus[j + 1]
        fs[k + 1], gs[k + 1] = a.numerator * fts[k], -(a.denominator - a.numerator) * gts[k]
    with mock.patch.object(solitons, "_window_taus", lambda *args, **kwargs: taus):
        field = solitons.sample_field(params, modes, t_range, n_range)
    got = solitons._exact_sites([(fs[:g + 1], gs[:g + 1]) for fs, gs in taus[:g + 1]], consts)
    assert got == exactness_longhand(field, consts)
    if breakage == "none":
        assert all(map(all, got))
        assert solitons.check_exactness(params, modes, (t0, t0 + g - 1), (n0, n0 + g - 1)) == got
    elif breakage in ("n1", "n2"):
        assert not got[j][k]


def _scale_each_point(taus, rng):
    """The grid with the f and g of each point times the point's own random
    positive integer."""
    scaled = []
    for fs, gs in taus:
        scales = [rng.randint(1, 2 ** 64) for _ in fs]
        scaled.append(([f * s for f, s in zip(fs, scales)], [g * s for g, s in zip(gs, scales)]))
    return scaled


@pytest.mark.parametrize("n_modes", [0, 1, 2, 4])
@pytest.mark.parametrize("regime", REGIMES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_grid_consumers_are_homogeneous_per_point(regime, n_modes, data):
    # each consumer reads a point's f and g only as a pair, so the grid may
    # pick its scale per point: x, y and the exactness verdicts stay as they are
    params, modes, (t0, n0, g), consts, breakage, rng = data.draw(
        exactness_cases(regime, n_modes))
    t_range, n_range = (t0, t0 + g), (n0, n0 + g)
    real = solitons._window_taus

    def scaled(*args, **kwargs):
        return _scale_each_point(real(*args, **kwargs), rng)

    xs = solitons.sample_x_float(params, modes, t_range, n_range)
    field = solitons.sample_field(params, modes, t_range, n_range)
    with mock.patch.object(solitons, "_window_taus", scaled):
        assert ([[v.hex() for v in row] for row in xs]
                == [[v.hex() for v in row]
                    for row in solitons.sample_x_float(params, modes, t_range, n_range)])
        again = solitons.sample_field(params, modes, t_range, n_range)
    assert (again.xs, again.ys) == (field.xs, field.ys)
    # on honest taus and on taus with a few wrong values, which fail sites
    taus = real(solitons.validate(params, modes), t_range, (n0, n0 + g - 1))
    if breakage != "none":
        for _ in range(rng.randint(1, 3)):
            j, k = rng.randint(0, g), rng.randint(0, g)
            taus[j][0][k] += rng.choice([-1, 1])
    check = solitons._exact_sites
    assert check(_scale_each_point(taus, rng), consts) == check(taus, consts)


def test_sample_x_float_reads_taus_scaled_per_point_alike_on_its_exact_path(monkeypatch):
    # a window where one point's short-quotient bounds round apart: scaling
    # each point's f and g leaves every quotient as it is, so the same
    # points take the exact path and every x keeps its hex
    params, modes = REF_PARAMS, FALLBACK_MODES
    rng = Random(29)
    calls = []
    real_exact, real_taus = solitons._exact_x, solitons._window_taus
    monkeypatch.setattr(solitons, "_exact_x",
                        lambda fs, gs, k: calls.append(k) or real_exact(fs, gs, k))

    def hex_rows():
        rows = solitons.sample_x_float(params, modes, (0, 60), (-30, 90))
        return [[v.hex() for v in row] for row in rows]

    xs = hex_rows()
    plain = list(calls)
    monkeypatch.setattr(solitons, "_window_taus", lambda *args, **kwargs: _scale_each_point(
        real_taus(*args, **kwargs), rng))
    assert hex_rows() == xs
    assert plain and calls == plain * 2


def test_verify_exactness_reads_taus_scaled_per_point_alike(capsys, monkeypatch):
    rng = Random(17)
    expected = invoke(capsys, "verify", "exactness", "--grid", "8")

    def scale(kp, taus):
        taus[:] = _scale_each_point(taus, rng)

    _patch_window_taus(monkeypatch, scale)
    assert invoke(capsys, "verify", "exactness", "--grid", "8") == expected


def solitonlab_command(*argv):
    """``python -m solitonlab *argv`` on the package in ``src``, with -O when
    these tests run under it, and the environment to run it in."""
    src = Path(__file__).resolve().parent.parent / "src"
    optimize = ["-O"] if sys.flags.optimize else []
    return ([sys.executable, *optimize, "-m", "solitonlab", *argv],
            {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"})


@pytest.mark.parametrize("argv, code, stdout_holds", [
    (["verify", "all"], 0, lambda out: out.endswith(b"verify: OK\n")),
    (["exact", *BASE_ARGS, "--n", "-30:90", "--t", "0:60"], 0,
     lambda out: out.startswith(b"n,t,x,y\n")),
    # left of and below the origin, where the rows' taus shrink along n
    # while the README window's grow
    (["analyze", *BASE_ARGS, "--t", "-60:0", "--n", "-120:0"], 0,
     lambda out: "measured" in json.loads(out)),
    # more modes than KPParams takes (its subset tables hold 2**N terms):
    # refused before any table is built, not an endless draw or build
    (["verify", "reduction", "--n-solitons", "60", "--points", "1"], 1, lambda out: out == b""),
    (["verify", "kp", "--n-solitons", "17", "--points", "1"], 1, lambda out: out == b""),
], ids=["verify_all", "exact_readme", "analyze_lower_left", "reduction_60_modes",
        "kp_17_modes"])
def test_the_entry_point_runs_each_command_within_a_minute(argv, code, stdout_holds):
    command, env = solitonlab_command(*argv)
    proc = subprocess.run(command, env=env, capture_output=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert stdout_holds(proc.stdout)


@pytest.mark.parametrize("argv, read_first", [
    (["exact", "--alpha", "5/6", "--beta", "14/15", "--soliton", "2/15:-1/6",
      "--n", "-30:90", "--t", "0:60"], True),
    (["bbsc", "--cb", "4", "--cc", "1", "--init", "000244000100030002134100",
      "--steps", "1000", "--render", "csv"], True),
    # verify prints its few hundred bytes in one burst after every suite
    # has run; they fit the pipe buffer, so a reader that waits for the
    # first line races the last write, and this reader leaves before any
    (["verify", "all"], False),
], ids=["exact", "bbsc_csv", "verify_all"])
def test_a_reader_closing_stdout_early_gets_no_traceback(argv, read_first):
    # as `solitonlab ... | head -1`: the writes after the reader has gone
    # fail with EPIPE, which exits 141 and writes nothing to stderr
    command, env = solitonlab_command(*argv)
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if read_first:
        assert proc.stdout.readline() != b""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_parser_is_built_once_and_keeps_no_state_between_runs(capsys):
    # run() reuses one parser; the --soliton values a call appends must not
    # reach the next call, and usage errors read the same before and after
    assert build_parser() is build_parser()
    system = ["--alpha", "5/6", "--beta", "14/15"]
    window = ["--n", "-3:3", "--t", "0:1"]
    bad = ["bbsc", "--cb", "3", "--init", "300010", "--steps", "-1"]
    bad_err = "usage error: argument --steps: must be at least 0, got -1\n"
    assert invoke(capsys, *bad) == (1, "", bad_err)

    def expected(modes):
        buf = io.StringIO()
        field = solitons.sample_field(REF_PARAMS, modes, (0, 1), (-3, 3))
        field.write_csv(buf, values="float")
        return buf.getvalue()

    one, other = [REF_SOLITONS[0]], [REF_SOLITONS[1]]
    for argv, modes in [(["--soliton", "2/15:-1/6"], one),
                        (["--soliton", "1/30:-1/30"], other),
                        (["--soliton", "2/15:-1/6", "--soliton", "1/30:-1/30"], one + other),
                        ([], []),
                        (["--soliton", "2/15:-1/6"], one)]:
        assert invoke(capsys, "exact", *system, *argv, *window) == (0, expected(modes), "")
    assert invoke(capsys, *bad) == (1, "", bad_err)
    code, out, err = invoke(capsys, "exact", "--alpha", "5/6")
    assert (code, out) == (1, "")
    assert err == ("usage error: the following arguments are required: "
                   "--beta, --n, --t\n")


def test_cli_start_up_imports_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import solitonlab; from solitonlab import cli; cli.build_parser(); "
            "import sys; sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-s", "-c", code], env=env).returncode == 0
