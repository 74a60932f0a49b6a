import io
import json
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
from solitonlab.cli import build_parser, run
from solitonlab.lattice import SystemParams, _gkdv_constants

from _oracles import exactness_longhand


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
    # left of and right of n = 0, and from t < 0
    windows = [("-20:8", "0:4"), ("-40:-25", "0:4"), ("5:30", "0:4"), ("-20:8", "-4:0")]
    for n_range, t_range in windows:
        window = ["--n", n_range, "--t", t_range]
        for values in ("float", "exact"):
            code, out_exact, _ = invoke(capsys, "exact", *BASE_ARGS, *window,
                                        "--values", values)
            assert code == 0
            code, out_evolved, _ = invoke(capsys, "evolve", *BASE_ARGS, *window,
                                          "--values", values)
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


def test_verify_all(capsys):
    code, out, _ = invoke(capsys, "verify", "all", "--grid", "8",
                          "--points", "6", "--steps", "2")
    assert code == 0
    assert "verify: OK" in out
    assert "residual 0 at" in out


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_analyze_tracks_two_troughs_through_a_slow_collision(capsys):
    code, out, err = invoke(capsys, "analyze", "--alpha", "5/6", "--beta", "14/15",
                            "--soliton", "1/30:-7/10", "--soliton", "4/15:-233/1000",
                            "--t", "-40:60", "--n", "-60:90")
    assert code == 0, err
    measured = json.loads(out)["measured"]
    assert len(measured["tracks"]) == 2
    assert measured["crossing"] is True
    assert measured["anomaly"] == "smaller_faster"


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


def test_verify_udlimit_passes_at_equal_capacities(capsys):
    # alpha = beta makes the limit exact: every deviation reads 0, which
    # counts as decreasing
    code, out, _ = invoke(capsys, "verify", "udlimit", "--cb", "4", "--cc", "4",
                          "--init", "4401")
    assert code == 0
    assert out.count("max deviation 0.000e+00") == 4
    assert out.endswith("verify: OK\n")


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

    def altered(params, modes, t_range, n_range, t_shift):
        taus = real(params, modes, t_range, n_range, t_shift)
        edit(params, taus)
        return taus

    monkeypatch.setattr(solitons, "_window_taus", altered)


def test_verify_exactness_catches_a_wrong_value(capsys, monkeypatch):
    # --grid 8 checks sites (j, k), j, k < 8, on the 9 x 9 taus (t, n) =
    # (0..8, -4..4); site (j, k) reads the taus at (j..j+1, k..k+1).  The
    # tau at (3, 4) is read by the four sites (2..3, 3..4), as f, fn, ft and
    # ftn, and a wrong f there fails each of them: 64 - 4 = 60
    def bump_f(params, taus):
        f, g = taus[3][4]
        taus[3][4] = (f + 1, g)

    _patch_window_taus(monkeypatch, bump_f)
    code, out, _ = invoke(capsys, "verify", "exactness", "--grid", "8")
    assert code == 2
    assert "residual 0 at 60/64 points" in out


def test_verify_exactness_counts_a_vanishing_denominator_as_failed(capsys, monkeypatch):
    # at site (0, 7), with P = gn*ft and Q = fn*gt, make N2 vanish, that is
    # (1-a)*Q + a*P for a = alpha: set the taus at (0, 8) to fn = num(a)*ft
    # and gn = -(den(a) - num(a))*gt.  Only site (0, 7) reads that corner of
    # the 9 x 9 taus, so one site fails: 63/64
    def singular(params, taus):
        a = params.alpha
        ft, gt = taus[1][7]
        taus[0][8] = (a.numerator * ft, -(a.denominator - a.numerator) * gt)

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
    lo, hi = sorted(draw(st.lists(
        st.fractions(min_value=Fraction(11, 20), max_value=Fraction(19, 20),
                     max_denominator=40), min_size=2, max_size=2, unique=True)))
    alpha, beta = {"lt": (lo, hi), "eq": (lo, lo), "gt": (hi, lo)}[regime]
    span = alpha + beta - 1
    ks = draw(st.lists(st.integers(1, 39), min_size=n_modes, max_size=n_modes, unique=True))
    # no midpoint mode and no pair with p_i + p_j = span
    assume(all(k + m != 40 for k in ks for m in ks))
    modes = []
    for k in ks:
        mag = draw(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10),
                                max_denominator=20))
        modes.append((span * k / 40, mag if 2 * k > 40 else -mag))
    window = (draw(st.integers(-3, 3)), draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
    breakage = draw(st.sampled_from(["none", "swap", "taus", "n1", "n2"]))
    params = SystemParams(alpha, beta)
    consts = _gkdv_constants(SystemParams(beta, alpha) if breakage == "swap" else params)
    return params, modes, window, consts, breakage, draw(st.randoms(use_true_random=False))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
@pytest.mark.parametrize("regime", ["lt", "eq", "gt"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_exact_sites_match_the_reduced_fraction_verdicts(regime, n_modes, data):
    # the integer check against the reduced x and y of sample_field pushed
    # through the two-point map, site by site, on honest and broken inputs
    params, modes, (t0, n0, g), consts, breakage, rng = data.draw(
        exactness_cases(regime, n_modes))
    t_range, n_range = (t0, t0 + g), (n0, n0 + g)
    taus = solitons._window_taus(params, modes, t_range, n_range, t_shift=True)
    # the (g+1)-square block the check reads is the window the command asks for
    block = solitons._window_taus(params, modes, t_range, (n0, n0 + g - 1), t_shift=False)
    assert block == [row[:g + 1] for row in taus[:g + 1]]
    if breakage == "taus":
        for _ in range(rng.randint(1, 3)):
            j, k, which = rng.randint(0, g), rng.randint(0, g), rng.randint(0, 1)
            pair = list(taus[j][k])
            pair[which] = pair[which] * rng.choice([-2, -1, 1, 2]) + rng.randint(-3, 3)
            assume(pair[which] != 0)
            taus[j][k] = tuple(pair)
    elif breakage in ("n1", "n2"):
        # N2 = (1-alpha)*Q + alpha*P, or N1 with beta, vanishes at site (j, k);
        # at alpha = beta both vanish, and only the nonzero test fails the site
        a = params.alpha if breakage == "n2" else params.beta
        j, k = rng.randint(0, g - 1), rng.randint(0, g - 1)
        ft, gt = taus[j + 1][k]
        taus[j][k + 1] = (a.numerator * ft, -(a.denominator - a.numerator) * gt)
    with mock.patch.object(solitons, "_window_taus", lambda *args, **kwargs: taus):
        field = solitons.sample_field(params, modes, t_range, n_range)
    got = solitons._exact_sites([row[:g + 1] for row in taus[:g + 1]], consts)
    assert got == exactness_longhand(field, consts)
    if breakage == "none":
        assert all(map(all, got))
        assert solitons.check_exactness(params, modes, (t0, t0 + g - 1), (n0, n0 + g - 1)) == got
    elif breakage in ("n1", "n2"):
        assert not got[j][k]


def _scale_each_point(taus, rng):
    """The grid with each (f, g) pair times its own random positive integer."""
    return [[(f * s, g * s) for (f, g), s in zip(row, [rng.randint(1, 2 ** 64) for _ in row])]
            for row in taus]


@pytest.mark.parametrize("n_modes", [0, 1, 2, 4])
@pytest.mark.parametrize("regime", ["lt", "eq", "gt"])
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
    taus = real(params, modes, t_range, (n0, n0 + g - 1), t_shift=False)
    if breakage != "none":
        for _ in range(rng.randint(1, 3)):
            j, k = rng.randint(0, g), rng.randint(0, g)
            f, gg = taus[j][k]
            taus[j][k] = (f + rng.choice([-1, 1]), gg)
    check = solitons._exact_sites
    assert check(_scale_each_point(taus, rng), consts) == check(taus, consts)


def test_verify_exactness_reads_taus_scaled_per_point_alike(capsys, monkeypatch):
    rng = Random(17)
    expected = invoke(capsys, "verify", "exactness", "--grid", "8")

    def scale(params, taus):
        taus[:] = _scale_each_point(taus, rng)

    _patch_window_taus(monkeypatch, scale)
    assert invoke(capsys, "verify", "exactness", "--grid", "8") == expected


@pytest.mark.parametrize("argv", [
    ["exact", "--alpha", "5/6", "--beta", "14/15", "--soliton", "2/15:-1/6",
     "--n", "-30:90", "--t", "0:60"],
    ["bbsc", "--cb", "4", "--cc", "1", "--init", "000244000100030002134100",
     "--steps", "1000", "--render", "csv"],
    ["verify", "all"],
], ids=["exact", "bbsc_csv", "verify_all"])
def test_a_reader_closing_stdout_early_gets_no_traceback(argv):
    # as `solitonlab ... | head -1`: the writes after the reader has gone
    # fail with EPIPE, which exits 141 and writes nothing to stderr
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "solitonlab", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
        field = solitons.sample_field(SystemParams(Fraction(5, 6), Fraction(14, 15)),
                                      modes, (0, 1), (-3, 3))
        field.write_csv(buf, values="float")
        return buf.getvalue()

    one = [(Fraction(2, 15), Fraction(-1, 6))]
    other = [(Fraction(1, 30), Fraction(-1, 30))]
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
