"""Command-line interface.

Subcommands:

* ``exact``    sample an N-soliton window exactly and write it as CSV
* ``evolve``   evolve the exact initial row under the lattice map and write CSV
* ``bbsc``     run the box-ball automaton and render ASCII or CSV
* ``analyze``  track troughs and report closed-form vs measured laws as JSON
* ``scan``     monotonicity scan of the speed/amplitude laws as JSON
* ``verify``   exact self-checks; exit 0 on success, 2 on a failed check

Exit codes: 0 success, 1 bad arguments or validation error, 2 verification
failure, 141 stdout closed early (``| head``).  ``--out -`` writes to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial
from random import Random
from typing import Sequence

from . import boxball, measure, solitons
from .errors import OutputNotWritable, SolitonLabError
from .lattice import SystemParams, evolve_gkdv, rat_str
from .solitons import random_kp_params


class _CliError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 1
        raise _CliError(message)


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _soliton(text: str) -> tuple[Fraction, Fraction]:
    p, sep, gamma = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"soliton must look like p:gamma, got {text!r}")
    return _rat(p), _rat(gamma)


def _int_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range bounds must be integers, got {text!r}")
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo_i, hi_i


def _int_at_least(minimum: int):
    """argparse type for an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _epsilons(text: str) -> list[float]:
    try:
        eps = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}")
    if not eps:
        raise argparse.ArgumentTypeError(f"no epsilons in {text!r}")
    if not all(map(math.isfinite, eps)):
        raise argparse.ArgumentTypeError(f"epsilons must be finite, got {text!r}")
    return eps


def _capacity(text: str) -> int | float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"capacity must be an integer or 'inf', got {text!r}")


def _occupancies(text: str) -> tuple[int, ...]:
    if not text.isdecimal():  # isdigit() would pass superscripts, which int() rejects
        raise argparse.ArgumentTypeError(f"must be a digit string, got {text!r}")
    return tuple(int(ch) for ch in text)


def _write(path: str, emit) -> None:
    try:
        target = nullcontext(sys.stdout) if path == "-" else open(path, "w")
    except OSError as exc:  # open() only: a BrokenPipeError from emit reaches main
        raise OutputNotWritable(f"cannot write {path}: {exc.strerror}") from None
    with target as stream:
        emit(stream)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    :func:`run`; callers must not modify it."""
    top = _Parser(prog="solitonlab",
                  description="exact soliton lattice lab and measurement tools")
    sub = top.add_subparsers(dest="command", required=True)

    def add_system(p):
        p.add_argument("--alpha", type=_rat, required=True, help="first map parameter, in (0,1)")
        p.add_argument("--beta", type=_rat, required=True, help="second map parameter, in (0,1)")

    def add_solitons(p):
        p.add_argument("--soliton", type=_soliton, action="append", default=[],
                       metavar="P:GAMMA", help="soliton mode; repeatable")

    def add_window(p):
        p.add_argument("--n", type=_int_range, required=True, metavar="LO:HI",
                       help="inclusive site window")
        p.add_argument("--t", type=_int_range, required=True, metavar="T0:T1",
                       help="inclusive time window")

    def add_out(p, what):
        p.add_argument("--out", default="-", help=f"{what} path, or - for stdout")

    for name, help_text in (("exact", "sample an N-soliton window exactly"),
                            ("evolve", "sweep the lattice map from the exact initial row "
                             "and left edge; prints what exact prints")):
        p = sub.add_parser(name, help=help_text)
        add_system(p)
        add_solitons(p)
        add_window(p)
        add_out(p, "CSV")
        p.add_argument("--values", choices=("float", "exact"), default="float",
                       help="CSV value format")

    p = sub.add_parser("bbsc", help="run the box-ball automaton")
    p.add_argument("--cb", type=_capacity, required=True, help="box capacity")
    p.add_argument("--cc", type=_capacity, default=math.inf,
                   help="carrier capacity, integer or inf (default inf)")
    p.add_argument("--init", type=_occupancies, required=True,
                   help="initial occupancies as digits, e.g. 300010")
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.add_argument("--render", choices=("ascii", "csv"), default="ascii")
    add_out(p, "output")

    p = sub.add_parser("analyze", help="measure soliton tracks and compare to closed forms")
    add_system(p)
    add_solitons(p)
    add_window(p)
    add_out(p, "JSON")

    p = sub.add_parser("scan", help="monotonicity scan of the speed/amplitude laws")
    add_system(p)
    add_out(p, "JSON")
    p.add_argument("--grid", type=_int_at_least(3), default=101,
                   help="number of interior grid points")

    p = sub.add_parser("verify", help="exact self-checks")
    p.add_argument("suite", choices=("exactness", "kp", "reduction", "udlimit", "all"))
    p.add_argument("--alpha", type=_rat, default=Fraction(5, 6))
    p.add_argument("--beta", type=_rat, default=Fraction(14, 15))
    add_solitons(p)
    p.add_argument("--grid", type=_int_at_least(1), default=20,
                   help="exactness: residual grid is grid x grid")
    p.add_argument("--n-solitons", type=_int_at_least(1), default=2,
                   help="kp/reduction: modes per random draw")
    p.add_argument("--points", type=_int_at_least(1), default=20,
                   help="kp/reduction: random probe points")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--cb", type=_capacity, default=3, help="udlimit: box capacity")
    p.add_argument("--cc", type=_capacity, default=1, help="udlimit: carrier capacity")
    p.add_argument("--init", type=_occupancies, default="300010",
                   help="udlimit: initial occupancies")
    p.add_argument("--steps", type=_int_at_least(0), default=3,
                   help="udlimit: sweeps before sampling")
    p.add_argument("--epsilons", type=_epsilons, default="1,0.1,0.01,0.001",
                   help="udlimit: comma-separated decreasing epsilons")
    return top


_DEFAULT_SOLITONS = ((Fraction(2, 15), Fraction(-1, 6)), (Fraction(1, 30), Fraction(-1, 30)))


def _cmd_exact(args) -> int:
    params = SystemParams(args.alpha, args.beta)
    field = solitons.sample_field(params, args.soliton, args.t, args.n)
    _write(args.out, lambda s: field.write_csv(s, values=args.values))
    return 0


def _cmd_evolve(args) -> int:
    params = SystemParams(args.alpha, args.beta)
    t0, t1 = args.t
    n_lo = args.n[0]
    row0 = solitons.sample_field(params, args.soliton, (t0, t0), args.n).xs[0]
    # the solution's own carrier at the left edge, so the sweep stays on it
    edge = solitons.sample_field(params, args.soliton, args.t, (n_lo, n_lo)).ys
    field = evolve_gkdv(row0, params, t1 - t0, n_lo=n_lo, t0=t0,
                        y_left=[y for (y,) in edge])
    _write(args.out, lambda s: field.write_csv(s, values=args.values))
    return 0


def _cmd_bbsc(args) -> int:
    state = boxball.BBSCState(args.init, args.cb, args.cc)
    history = boxball.evolve_bbsc(state, args.steps)
    render = args.render
    if render == "ascii" and state.c_box > 9:
        print("note: capacities above 9 cannot be drawn; writing CSV instead",
              file=sys.stderr)
        render = "csv"
    if render == "ascii":
        _write(args.out, lambda s: s.write(boxball.render_ascii(history) + "\n"))
    else:
        _write(args.out, lambda s: boxball.write_bbsc_csv(history, s))
    return 0


def _cmd_analyze(args) -> int:
    params = SystemParams(args.alpha, args.beta)
    rows = solitons.sample_x_float(params, args.soliton, args.t, args.n)
    tracks = measure.track_troughs(params, rows, args.n[0], args.t[0])
    closed = [{
        "p": rat_str(p),
        "gamma": rat_str(gamma),
        "velocity": solitons.velocity(params, p),
        "amplitude": solitons.amplitude(params, p),
    } for p, gamma in args.soliton]
    payload = {
        "alpha": rat_str(params.alpha),
        "beta": rat_str(params.beta),
        "closed_form": closed,
        "measured": measure.overtake_report(tracks),
    }
    _write(args.out, lambda s: (json.dump(payload, s, indent=2), s.write("\n")))
    return 0


def _cmd_scan(args) -> int:
    params = SystemParams(args.alpha, args.beta)
    report = solitons.scan_monotonicity(params, args.grid)
    _write(args.out, lambda s: (json.dump(report, s, indent=2), s.write("\n")))
    return 0


# each verify suite is ``args -> (lines, ok)``: it checks its inputs and
# decides its verdict without printing


def _verify_exactness(args) -> tuple[list[str], bool]:
    """Count the grid x grid sites that pass ``solitons.check_exactness``: one
    integer equation per site on the unreduced taus, y~ implied by x*y
    conservation."""
    params = SystemParams(args.alpha, args.beta)
    g, n0 = args.grid, -args.grid // 2
    sites = solitons.check_exactness(params, args.soliton or _DEFAULT_SOLITONS,
                                     (0, g - 1), (n0, n0 + g - 1))
    good = sum(map(sum, sites))
    return [f"residual 0 at {good}/{g * g} points"], good == g * g


def _verify_kp_residuals(args, what: str, constrained: bool,
                         is_zero) -> tuple[list[str], bool]:
    """Count the random probe points where ``is_zero(kp, point)`` holds, for
    a random draw of one mode and one of ``--n-solitons`` modes."""
    rng = Random(args.rng_seed)
    lines, ok = [], True
    for n_modes in (1, args.n_solitons):
        kp = random_kp_params(rng, n_modes, constrained=constrained)
        zero = sum(is_zero(kp, tuple(rng.randint(-3, 3) for _ in range(4)))
                   for _ in range(args.points))
        lines.append(f"{what} residuals 0 at {zero}/{args.points} points (N={n_modes})")
        ok = ok and zero == args.points
    return lines, ok


def _verify_udlimit(args) -> tuple[list[str], bool]:
    """Sweep ``--init`` ``--steps`` times and compare the rational map with
    the next sweep at each epsilon; ``BBSCState`` and ``ud_limit_check``
    check the suite's inputs on the way."""
    state = boxball.BBSCState(args.init, args.cb, args.cc)
    for _ in range(args.steps):  # one state at a time: no history is kept
        state = boxball.evolve_bbsc(state, 1)[1]
    gaps = boxball.ud_limit_check(state, args.epsilons)
    lines = [f"eps={e:g}: max deviation {gap:.3e}" for e, gap in gaps]
    # an exact limit (c_box == c_carrier) reads 0 at every eps
    decreasing = all(g2 < g1 or g2 == 0 for (_, g1), (_, g2) in zip(gaps, gaps[1:]))
    final_ok = gaps[-1][1] < 1e-2
    if not decreasing:
        lines.append("deviations are not strictly decreasing")
    if not final_ok:
        lines.append("final deviation is not below 1e-2")
    return lines, decreasing and final_ok


def _cmd_verify(args) -> int:
    suites = {
        "exactness": _verify_exactness,
        "kp": partial(_verify_kp_residuals, what="bilinear", constrained=False,
                      is_zero=lambda kp, pt: solitons.check_kp_bilinear(kp, pt) == (0, 0)),
        "reduction": partial(_verify_kp_residuals, what="reduction", constrained=True,
                             is_zero=lambda kp, pt: solitons.check_reduction(kp, pt) == 0),
        "udlimit": _verify_udlimit,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    # every selected suite runs, checking its inputs, before the first
    # header, so a rejected input to any of them leaves stdout empty
    results = [(name, *suites[name](args)) for name in names]
    for name, lines, _ in results:
        print(f"[{name}]", *lines, sep="\n")
    ok = all(passed for _, _, passed in results)
    print("verify: OK" if ok else "verify: FAILED")
    return 0 if ok else 2


_COMMANDS = {
    "exact": _cmd_exact,
    "evolve": _cmd_evolve,
    "bbsc": _cmd_bbsc,
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def _fold_negative_windows(argv: Sequence[str]) -> list[str]:
    """Glue values like ``-30:90`` onto their flag: argparse takes them for
    option strings, as they do not look like negative numbers, so
    ``--n -30:90`` would fail with "expected one argument"."""
    out: list[str] = []
    fold = False
    for tok in argv:
        if fold and tok.startswith("-") and len(tok) > 1 and tok[1].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
        fold = tok in ("--n", "--t", "--soliton", "--alpha", "--beta")
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_fold_negative_windows(argv))
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SolitonLabError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left (``| head``); devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
