"""solitonlab benchmark: seeded workloads, end-to-end timing, layer traces.

Run from the repository root:

    python3 bench/run.py --workload analyze_n2 --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: jobs run one after another
in this process, on one thread, through ``solitonlab.cli.run`` with output
captured in memory (``bbsc_carrier`` makes the library calls behind
``solitonlab bbsc --render csv``).  Every job's output is checked on an
independent path (``checks.py``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from ``spans.py``.  The last
line of stdout is the result as one JSON object; the lines before it record
the environment and run details.  See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tail percentile per workload, chosen so that at least ten samples lie
# beyond it once the loop has run MIN_JOBS jobs.
TAIL_PCT = {"analyze_n2": 60, "evolve_row": 70, "verify_n4": 70, "bbsc_carrier": 70}
MIN_JOBS = {wl: -(-1000 // (100 - pct)) for wl, pct in TAIL_PCT.items()}
HARD_STOP_S = 150.0  # stop starting jobs after this long, whatever MIN_JOBS says
SETUP_REPEATS = 9
KERNEL_MODULUS = (1 << 521) - 1
# the probe kernel's data (see HostSpeed)
_PROBE_RECORDS = {f"k{i}": [i, i / 2, f"v{i}", {"n": i}] for i in range(40)}
_PROBE_TEXT = " ".join(f"t={i} n={i * 7 % 13} u={i % 5}" for i in range(150))
_PROBE_PATTERN = re.compile(r"n=(\d+) u=([1-4])")
_PROBE_PAIRS = [((i * 7919) % 211, i) for i in range(300)]
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import solitonlab; from solitonlab import cli; cli.build_parser()")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "solitonlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SOLITON_LAB_THREADS", "PYTHONPATH")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup_once() -> None:
    """A fresh interpreter that imports solitonlab and builds the CLI parser."""
    subprocess.run([sys.executable, "-s", "-c", SETUP_CODE, str(SRC)], check=True,
                   env=_child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, timeout=60)


class HostSpeed:
    """Correction for host speed drift, from a fixed calibration kernel.

    On a shared host the same job runs 20-70 % slower for stretches of 0.1 s
    to minutes, with no steal time: CPU time tracks wall time.  While a job
    runs, a SIGALRM every ``PROBE_INTERVAL_S`` times one run of a short
    kernel (a probe).  The job's time, less the probes, is scaled by
    ``REFERENCE_S`` times the mean of ``1 / probe``: the work done at the
    speed the probes saw, in seconds of a host on which one probe takes
    ``REFERENCE_S``.  The reference is a constant, so runs made in a slow
    stretch and in a fast one are put on one scale.  Where no probe can run
    inside the timed call (set-up, and traced jobs, whose spans would count
    the probes), probes just before and just after it are used instead.

    The kernel is this file's own code, so a change to the package cannot
    move it.  It mixes the interpreter-wide work the jobs do (big-rational
    arithmetic, JSON, a regex, string formatting, sorting, dict building)
    on data small enough that the job's own cache use barely moves it.  A
    big-rational loop alone slowed down less than the jobs did in the
    host's slow stretches.  Raw timings are reported next to corrected ones
    in the detail line.
    """

    REFERENCE_S = 1.2e-3  # one probe: 1.0-1.6 ms on a 2-core Xeon VM, Python 3.11
    PROBE_INTERVAL_S = 0.02
    BRACKET_PROBES = 5  # probes before and after a call timed without alarms
    MIN_INSIDE = 3  # fewer probes inside a call than this: use the brackets

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._inside: list[tuple[float, float]] | None = None  # (start, seconds)
        self._last: list[float] | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def _kernel() -> float:
        t0 = time.perf_counter()
        x = Fraction(3, 7)
        for i in range(1, 30):
            x = (x * x + Fraction(1, i)) / (x + 1)
            x = Fraction(x.numerator % KERNEL_MODULUS, x.denominator % KERNEL_MODULUS + 1)
        json.loads(json.dumps(_PROBE_RECORDS))
        _PROBE_PATTERN.findall(_PROBE_TEXT)
        "".join(f"{a},{b},{a * b}\n" for a, b in _PROBE_PAIRS)
        sorted(_PROBE_PAIRS)
        {b: a for a, b in _PROBE_PAIRS}
        return time.perf_counter() - t0

    def _on_alarm(self, _signum, _frame) -> None:
        if self._inside is not None:
            start = time.perf_counter()
            self._inside.append((start, self._kernel()))

    def _bracket(self) -> list[float]:
        probes = [self._kernel() for _ in range(self.BRACKET_PROBES)]
        self.samples.extend(probes)
        return probes

    def run(self, fn, inside: bool = True) -> tuple:
        """Run ``fn``; return its result, its wall time less the probes that
        ran inside it, and the factor that puts that time on the reference
        scale.  ``inside=False`` times ``fn`` without alarms."""
        before = self._last or self._bracket()
        self._inside = []
        if inside:
            signal.setitimer(signal.ITIMER_REAL, self.PROBE_INTERVAL_S, self.PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            # a probe that started after ``end`` lies outside the timed interval
            probes = [seconds for start, seconds in self._inside if start < end]
            self._inside = None
        self._last = after = self._bracket()
        self.samples.extend(probes)
        basis = probes if len(probes) >= self.MIN_INSIDE else before + after
        factor = self.REFERENCE_S * statistics.fmean(1 / probe for probe in basis)
        return result, end - t0 - sum(probes), factor

    def summary(self) -> dict:
        return {"probe_s.p10": statistics.quantiles(self.samples, n=10)[0],
                "probe_s.p50": statistics.median(self.samples),
                "probes": len(self.samples)}


# ---------------------------------------------------------------------------
# jobs


def _sink() -> io.TextIOWrapper:
    """A captured output stream: text encoded into an in-memory byte buffer,
    as stdout encodes into a file.  ``io.StringIO`` would hold four bytes per
    character while it grows, tens of megabytes of the benchmark's own
    buffering in the peak memory of a 5 MB bbsc CSV."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")


def _captured(stream: io.TextIOWrapper) -> bytes:
    stream.flush()
    return stream.buffer.getvalue()


def _capture_cli(cli, argv) -> tuple[int, bytes]:
    out = _sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_sink()):
        rc = cli.run(argv)
    return rc, _captured(out)


def make_runner(job: dict):
    """A zero-argument callable that executes ``job`` and returns what the
    checks need.  Library names are looked up at call time, so tracing
    wrappers installed later are used."""
    from solitonlab import boxball, cli, measure

    if job["kind"] == "bbsc":
        def run_bbsc():
            out = _sink()
            state = boxball.BBSCState(job["init"], job["c_box"], job["c_carrier"])
            history = boxball.evolve_bbsc(state, job["steps"])
            boxball.write_bbsc_csv(history, out)
            tracks = measure.detect_bbsc_solitons(history)
            return {"rc": 0, "out": _captured(out), "clusters": len(tracks)}
        return run_bbsc

    def run_cli():
        rc, out = _capture_cli(cli, job["argv"])
        result = {"rc": rc, "out": out}
        if "scan_argv" in job:
            result["scan_rc"], result["scan_out"] = _capture_cli(cli, job["scan_argv"])
        return result
    return run_cli


class Loop:
    """Closed loop over a workload's panel, one client, with output checks.

    A job's output is checked in full the first time its input runs; a repeat
    must produce byte-identical output.
    """

    def __init__(self, workload: str, panel: list[dict], check) -> None:
        self.workload = workload
        self.panel = panel
        self.check = check
        self.first_output: dict[int, str] = {}
        self.results: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failing: dict[int, dict] = {}  # first failure of each panel job

    def execute(self, index: int, call, timer) -> tuple[float, float] | None:
        """Run panel job ``index`` as ``timer(lambda: call(runner))`` (see
        ``HostSpeed.run``); returns its seconds and correction factor, or
        None if it failed."""
        job = self.panel[index]
        runner = make_runner(job)
        self.attempted += 1
        problems: list[str]
        try:
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                result, elapsed, factor = timer(lambda: call(runner))
            digest = hashlib.sha256(result["out"] + result.get("scan_out", b"")).hexdigest()
            if index in self.first_output:
                problems = ([] if digest == self.first_output[index]
                            else ["output differs from an earlier run of the same input"])
            else:
                problems = self.check(job, result)
                if not problems:
                    self.first_output[index] = digest
                    if self.workload == "analyze_n2":
                        self.results[index] = result
        except Exception as exc:  # a job that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if index not in self.failing:
                argv = job["argv"] if "argv" in job else _bbsc_argv(job)
                self.failing[index] = {"argv": argv, "problems": problems[:3]}
            return None
        return elapsed, factor


def _bbsc_argv(job: dict) -> list[str]:
    """The CLI command equivalent to a ``bbsc`` job's evolve-and-write part."""
    return ["bbsc", "--cb", str(job["c_box"]), "--cc", str(job["c_carrier"]),
            "--init", "".join(map(str, job["init"])), "--steps", str(job["steps"]),
            "--render", "csv"]


def _percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _direct(runner):
    return runner()


def _keep_going(start: float, deadline: float, done: int, minimum: int, panel: int) -> bool:
    """Whether to start another job: until the deadline and ``minimum`` jobs
    are reached and the last pass over the panel is whole, so every panel
    job has run equally often."""
    now = time.perf_counter()
    return now - start < HARD_STOP_S and (now < deadline or done < minimum or done % panel)


def run_plain(loop: Loop, seconds: float) -> dict:
    """The untraced run: every end-to-end metric."""
    speed = HostSpeed()
    setup = [speed.run(measure_setup_once, inside=False)[1:] for _ in range(SETUP_REPEATS)]
    loop.execute(0, _direct, speed.run)  # warm-up: checked, not counted in the metrics
    jobs: list[tuple[float, float]] = []  # (raw seconds, correction factor)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    by_job: dict[int, list[float]] = {}  # corrected seconds per panel job
    while _keep_going(start, deadline, i, MIN_JOBS[loop.workload], len(loop.panel)):
        index = i % len(loop.panel)
        timing = loop.execute(index, _direct, speed.run)
        if timing is not None:
            jobs.append(timing)
            by_job.setdefault(index, []).append(timing[0] * timing[1])
        i += 1
    times = [raw * factor for raw, factor in jobs] or [0.0]  # 0 only if every job failed
    # the median panel job, each job at the median of its repeats: the sample
    # median of a few distinct job sizes would jump between two of them
    p50 = statistics.median(map(statistics.median, by_job.values())) if by_job else 0.0
    pct = TAIL_PCT[loop.workload]
    tail, beyond = _percentile(times, pct)
    metrics = {
        "setup_s": (statistics.median(raw * factor for raw, factor in setup), "s"),
        "job_s.p50": (p50, "s"),
        "job_s.tail": (tail, "s"),
        "jobs_per_s": (len(jobs) / sum(times) if jobs else 0.0, "1/s"),
        "pass_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "loop": "closed, 1 client", "panel": len(loop.panel), "jobs": len(jobs),
        "tail_pct": pct, "samples_beyond_tail": beyond,
        "raw_job_s.p50": statistics.median(raw for raw, _ in jobs) if jobs else 0.0,
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        **speed.summary(),
    }
    return {"metrics": metrics, "detail": detail}


def run_traced(loop: Loop, seconds: float) -> dict:
    """The traced run: per-layer metrics.

    Each panel job runs untraced and traced, back to back and in alternating
    order, so the overhead ratio compares the same input at nearly the same
    moment and a second-run advantage cancels out.  Timings are
    medians over all traced jobs; counts and accuracy come from the first
    pass over the panel, so they depend only on the seed.  The first job is
    traced once more at the end and its counts must repeat exactly.
    """
    from spans import COUNT_METRICS, SPAN_METRICS, Tracer

    tracer = Tracer()
    speed = HostSpeed()

    def traced(runner):
        tracer.reset()
        with tracer.installed():
            result = tracer.job(runner)
        tracer.counts["cli.out_bytes"] = len(result["out"]) + len(result.get("scan_out", b""))
        return result

    def bracketed(fn):
        return speed.run(fn, inside=False)

    loop.execute(0, _direct, bracketed)  # warm-up: checked, not timed
    pairs: list[tuple[float, float, int]] = []  # raw plain s, traced s, which ran first
    raw_jobs: list[tuple[dict, float]] = []  # (tracer metrics, correction factor)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while _keep_going(start, deadline, i, len(loop.panel), len(loop.panel)):
        index = i % len(loop.panel)
        timed = {}
        for call in ((traced, _direct) if i % 2 else (_direct, traced)):
            timed[call] = loop.execute(index, call, bracketed)
        if timed[_direct] is not None and timed[traced] is not None:
            (plain, _), (traced_s, factor) = timed[_direct], timed[traced]
            pairs.append((plain, traced_s, i % 2))
            raw_jobs.append((tracer.job_metrics(), factor))
        i += 1
    per_job = [{name: value if name in COUNT_METRICS else value * factor
                for name, value in metrics_raw.items()} for metrics_raw, factor in raw_jobs]
    first_pass = per_job[:len(loop.panel)]
    repeat_ok = False
    if per_job and loop.execute(0, traced, bracketed) is not None:
        again = tracer.job_metrics()
        repeat_ok = all(again[name] == raw_jobs[0][0][name] for name in COUNT_METRICS)

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS.values():
        metrics[name] = (statistics.median(job[name] for job in per_job) if per_job else 0.0,
                         "s")
    for name in COUNT_METRICS:
        unit = "bits" if "bits" in name else "bytes" if "bytes" in name else "count"
        metrics[name] = (statistics.median_low(job[name] for job in first_pass)
                         if first_pass else 0, unit)
    # each pair ran back to back, so its raw ratio is already free of slow drift;
    # the geometric mean over the two run orders cancels any second-run advantage
    ratios = [[t / p for p, t, order in pairs if order == first] for first in (0, 1)]
    overhead = (math.sqrt(statistics.median(ratios[0]) * statistics.median(ratios[1])) - 1
                if all(ratios) else 0.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics.update(accuracy_metrics(loop))
    detail = {"pairs": len(pairs), "panel": len(loop.panel), "counts_repeat": repeat_ok,
              **speed.summary()}
    return {"metrics": metrics, "detail": detail, "ok": repeat_ok}


def accuracy_metrics(loop: Loop) -> dict[str, tuple[float, str]]:
    """Measured-versus-closed-form gaps over the panel's analyze jobs; zero
    on workloads that measure no trough tracks."""
    from checks import accuracy

    v_max = w_max = 0.0
    crossing = anomalies = 0
    if loop.workload == "analyze_n2":
        for index, result in sorted(loop.results.items()):
            job = loop.panel[index]
            v_err, w_err, anomaly = accuracy(job, result)
            v_max, w_max = max(v_max, v_err), max(w_max, w_err)
            if job["crossing_in_window"]:
                crossing += 1
                anomalies += anomaly
    return {
        "measure.v_rel_err.max": (v_max, "ratio"),
        "measure.w_rel_err.max": (w_max, "ratio"),
        "measure.anomaly_frac": (anomalies / crossing if crossing else 0.0, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze_n2", "evolve_row", "verify_n4", "bbsc_carrier"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "solitonlab" / "__init__.py").is_file():
        return _fail(f"no solitonlab package under {SRC}; run from a full checkout")
    os.environ.pop("SOLITON_LAB_THREADS", None)
    # one CPU for the kernel, the jobs and the set-up children alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import solitonlab
    if Path(solitonlab.__file__).resolve().parent != SRC / "solitonlab":
        return _fail(f"imported solitonlab from {solitonlab.__file__}, not from {SRC}")

    from checks import CHECKS
    from workloads import make_panel

    env = environment(args)
    print(json.dumps({"env": env}), flush=True)
    loop = Loop(args.workload, make_panel(args.workload, args.seed), CHECKS[args.workload])
    report = run_traced(loop, args.seconds) if args.trace else run_plain(loop, args.seconds)
    print(json.dumps({"detail": report["detail"], "failing_inputs": list(loop.failing.values())}),
          flush=True)
    correct = loop.failed == 0 and report.get("ok", True)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
