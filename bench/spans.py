"""Layer spans recorded from outside the package.

``Tracer.installed()`` replaces the public functions that one layer calls on
another with wrappers, and restores them on exit.  Each wrapper records a
span; a layer's self time is the span's duration minus the time its wrapped
children cover.  Counts (calls, sizes, bit lengths, output bytes) are taken
at the same boundaries.  Work the tracer itself does after a call returns,
such as measuring bit lengths, is charged to no layer.

Spans are aggregated per job in memory; nothing is written to disk.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from solitonlab import boxball, cli, measure, solitons
from solitonlab.lattice import LatticeField

# self-time metrics, by span name
SPAN_METRICS = {
    "exact.det": "exact.det.s",
    "solitons.sample_field": "solitons.sample_field.self_s",
    "solitons.check_kp_bilinear": "solitons.check_kp_bilinear.s",
    "solitons.check_reduction": "solitons.check_reduction.s",
    "solitons.scan_monotonicity": "solitons.scan_monotonicity.s",
    "lattice.evolve_gkdv": "lattice.evolve_gkdv.s",
    "lattice.write_csv": "lattice.write_csv.s",
    "lattice.x_float": "lattice.x_float.s",
    "measure.track_troughs": "measure.track_troughs.s",
    "measure.fit": "measure.fit.s",
    "boxball.evolve_bbsc": "boxball.evolve_bbsc.s",
    "boxball.write_bbsc_csv": "boxball.write_bbsc_csv.s",
    "measure.detect_bbsc_solitons": "measure.detect_bbsc_solitons.s",
    "boxball.ud_limit_check": "boxball.ud_limit_check.s",
    "cli": "cli.self_s",
}

# counts: summed per job, except max_n and out_bits.max, which keep the largest
COUNT_METRICS = (
    "exact.det.calls", "exact.det.max_n",
    "solitons.sample_field.points", "solitons.out_bits.max", "solitons.kp_tau.calls",
    "lattice.site_updates", "lattice.out_bits.max",
    "measure.tracks", "boxball.box_updates", "measure.clusters",
    "cli.out_bytes",
)


def _field_bits(field: LatticeField) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for rows in (field.xs, field.ys) for row in rows for v in row)


class Tracer:
    """Per-job self times and counts for the layer boundaries."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time covered, per open span

    def job_metrics(self) -> dict[str, float]:
        out = {metric: self.self_s.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out

    def _charge_outside(self, seconds: float) -> None:
        """Count tracer bookkeeping as covered time of the enclosing span."""
        if self._stack:
            self._stack[-1][0] += seconds

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` updates counts."""
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dur - frame[0]
                self._charge_outside(dur)
            if after is not None:
                t1 = time.perf_counter()
                after(args, result)
                self._charge_outside(time.perf_counter() - t1)
            return result
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- count hooks --------------------------------------------------------

    def _det(self, args, _result) -> None:
        self.counts["exact.det.calls"] += 1
        self._max("exact.det.max_n", len(args[0]))

    def _sampled(self, _args, field) -> None:
        self.counts["solitons.sample_field.points"] += len(field.xs) * len(field.xs[0])
        self._max("solitons.out_bits.max", _field_bits(field))

    def _evolved(self, _args, field) -> None:
        self.counts["lattice.site_updates"] += len(field.xs) * len(field.xs[0])
        self._max("lattice.out_bits.max", _field_bits(field))

    def _max(self, name: str, value: int) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def _tracks(self, _args, tracks) -> None:
        self.counts["measure.tracks"] += len(tracks)

    def _history(self, _args, history) -> None:
        self.counts["boxball.box_updates"] += sum(len(s.u) for s in history[1:])

    def _clusters(self, _args, tracks) -> None:
        self.counts["measure.clusters"] += len(tracks)

    # -- installation -------------------------------------------------------

    def _wrappers(self):
        """(owner, attribute, wrap) for every traced boundary; ``wrap`` takes
        the attribute's current value and returns its replacement."""
        def span(name, after=None):
            return lambda fn: self.span(name, fn, after)

        fit = span("measure.fit")
        return [
            (solitons, "det", span("exact.det", self._det)),
            (solitons, "kp_tau", lambda fn: self.counted("solitons.kp_tau.calls", fn)),
            (solitons, "sample_field", span("solitons.sample_field", self._sampled)),
            (solitons, "check_kp_bilinear", span("solitons.check_kp_bilinear")),
            (solitons, "check_reduction", span("solitons.check_reduction")),
            (solitons, "scan_monotonicity", span("solitons.scan_monotonicity")),
            (cli, "evolve_gkdv", span("lattice.evolve_gkdv", self._evolved)),
            (LatticeField, "write_csv", span("lattice.write_csv")),
            (LatticeField, "x_float", span("lattice.x_float")),
            (measure, "track_troughs", span("measure.track_troughs", self._tracks)),
            (measure, "overtake_report", fit),
            (measure, "track_amplitude", fit),
            (measure, "measure_velocity", fit),
            (boxball, "evolve_bbsc", span("boxball.evolve_bbsc", self._history)),
            (boxball, "write_bbsc_csv", span("boxball.write_bbsc_csv")),
            (measure, "detect_bbsc_solitons",
             span("measure.detect_bbsc_solitons", self._clusters)),
            (boxball, "ud_limit_check", span("boxball.ud_limit_check")),
        ]

    @contextlib.contextmanager
    def installed(self):
        wrappers = self._wrappers()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in wrappers]
        try:
            for owner, attr, wrap in wrappers:
                setattr(owner, attr, wrap(owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def job(self, fn):
        """Run one job under a top-level ``cli`` span; returns its result."""
        return self.span("cli", fn)()
