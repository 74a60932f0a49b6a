"""Per-job output checks, on paths independent of the measured code.

Each check takes the job and what it produced (exit codes, and output as
UTF-8 bytes) and returns a list of problems; an empty list means the output
is correct.  Checks parse the text
the program wrote, recompute closed forms longhand (``workloads``), and
spot-check sampled values against a cofactor-expansion tau function.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction as F

from workloads import closed_amplitude, closed_consts, closed_velocity

REL_TOL = 1e-9


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# independent tau functions


def det_cofactor(rows: list[list[F]]) -> F:
    """Laplace expansion along the first row."""
    if not rows:
        return F(1)
    if len(rows) == 1:
        return rows[0][0]
    total = F(0)
    for j, head in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * head * det_cofactor(minor)
    return total


def _tau(alpha: F, beta: F, modes, t: int, n: int, weighted: bool) -> F:
    dc = 1 - alpha - beta
    rows = []
    for i, (p_i, gamma_i) in enumerate(modes):
        a, b, d = closed_consts(alpha, beta, p_i)
        w = gamma_i * a ** t * b ** n * (d if weighted else 1)
        rows.append([(1 if i == j else 0) + w / (p_i + p_j + dc)
                     for j, (p_j, _) in enumerate(modes)])
    return det_cofactor(rows)


def exact_xy(alpha: F, beta: F, modes, t: int, n: int) -> tuple[F, F]:
    """x = f g(n+1) / (g f(n+1)) and y = g f(t+1) / (f g(t+1))."""
    def f(tt, nn):
        return _tau(alpha, beta, modes, tt, nn, False)

    def g(tt, nn):
        return _tau(alpha, beta, modes, tt, nn, True)

    x = f(t, n) * g(t, n + 1) / (g(t, n) * f(t, n + 1))
    y = g(t, n) * f(t + 1, n) / (f(t, n) * g(t + 1, n))
    return x, y


# ---------------------------------------------------------------------------
# per-workload checks


def check_analyze(job: dict, run: dict) -> list[str]:
    if run["rc"] != 0:
        return [f"exit code {run['rc']}"]
    payload = json.loads(run["out"])
    problems = []
    alpha, beta = job["alpha"], job["beta"]
    closed = payload["closed_form"]
    if len(closed) != len(job["modes"]):
        problems.append(f"{len(closed)} closed_form entries for {len(job['modes'])} modes")
    for entry, (p, gamma) in zip(closed, job["modes"]):
        if (F(entry["p"]), F(entry["gamma"])) != (p, gamma):
            problems.append(f"closed_form mode {entry['p']}:{entry['gamma']} != {p}:{gamma}")
        if not _close(entry["velocity"], closed_velocity(alpha, beta, p), 1e-12):
            problems.append(f"closed-form velocity {entry['velocity']} for p={p}")
        if not _close(entry["amplitude"], closed_amplitude(alpha, beta, p), 1e-12):
            problems.append(f"closed-form amplitude {entry['amplitude']} for p={p}")
    tracks = payload["measured"]["tracks"]
    if len(tracks) != 2:
        problems.append(f"{len(tracks)} tracks, expected 2")
    for tr in tracks:
        if not (math.isfinite(tr["speed"]) and tr["amplitude"] > 0):
            problems.append(f"implausible track {tr}")
    return problems


def accuracy(job: dict, run: dict) -> tuple[float, float, bool]:
    """Worst relative speed and amplitude gap over the job's two tracks, and
    whether it reported the smaller soliton overtaking.

    Tracks are paired with modes by amplitude order.  Call only on output
    that passed :func:`check_analyze`.
    """
    payload = json.loads(run["out"])
    alpha, beta = job["alpha"], job["beta"]
    modes = sorted(job["modes"], key=lambda m: -closed_amplitude(alpha, beta, m[0]))
    tracks = sorted(payload["measured"]["tracks"], key=lambda tr: -tr["amplitude"])
    v_err = w_err = 0.0
    for (p, _), tr in zip(modes, tracks):
        v = closed_velocity(alpha, beta, p)
        w = closed_amplitude(alpha, beta, p)
        v_err = max(v_err, abs(tr["speed"] - v) / v)
        w_err = max(w_err, abs(tr["amplitude"] - w) / w)
    return v_err, w_err, payload["measured"]["anomaly"] == "smaller_faster"


def check_evolve(job: dict, run: dict) -> list[str]:
    """Row order, the per-site invariant x(t+1,k) y(t,k+1) = x(t,k) y(t,k),
    and x of the first row against the cofactor tau at three sites."""
    if run["rc"] != 0:
        return [f"exit code {run['rc']}"]
    lines = run["out"].decode().splitlines()
    if lines[0] != "n,t,x,y":
        return [f"bad header {lines[0]!r}"]
    n_lo, n_hi = job["sites"]
    width = n_hi - n_lo + 1
    rows = job["steps"] + 1
    if len(lines) != 1 + width * rows:
        return [f"{len(lines) - 1} data rows, expected {width * rows}"]
    x = [[0.0] * width for _ in range(rows)]
    y = [[0.0] * width for _ in range(rows)]
    for idx, line in enumerate(lines[1:]):
        n, t, xv, yv = line.split(",")
        j, k = divmod(idx, width)
        if (int(t), int(n)) != (j, n_lo + k):
            return [f"row {idx} is (n={n}, t={t}), expected (n={n_lo + k}, t={j})"]
        x[j][k], y[j][k] = float(xv), float(yv)
    problems = []
    for j in range(rows - 1):
        for k in range(width - 1):
            if not _close(x[j + 1][k] * y[j][k + 1], x[j][k] * y[j][k]):
                problems.append(f"product invariant broken at t={j}, n={n_lo + k}")
    # y of row 0 comes from the sweep, which enters at y = 1, so only x of
    # row 0 is the sampled solution
    deepest = min(range(width), key=lambda k: x[0][k])
    for k in sorted({0, deepest, width - 1}):
        ex, _ = exact_xy(job["alpha"], job["beta"], job["modes"], 0, n_lo + k)
        if not _close(x[0][k], float(ex)):
            problems.append(f"x of row 0 at n={n_lo + k} differs from the cofactor tau")
    return problems[:5]


def check_verify(job: dict, run: dict) -> list[str]:
    problems = []
    if run["rc"] != 0:
        problems.append(f"verify exit code {run['rc']}")
    if run["out"].decode().rstrip().splitlines()[-1:] != ["verify: OK"]:
        problems.append("verify did not end with 'verify: OK'")
    if run["scan_rc"] != 0:
        return problems + [f"scan exit code {run['scan_rc']}"]
    scan = json.loads(run["scan_out"])
    if scan["grid"] != int(job["scan_argv"][-1]):
        problems.append(f"scan grid {scan['grid']}")
    if (F(scan["alpha"]), F(scan["beta"])) != (job["alpha"], job["beta"]):
        problems.append("scan echoed other parameters")
    if scan["violations"]:
        problems.append(f"{len(scan['violations'])} monotonicity violations")
    return problems


def check_bbsc(job: dict, run: dict) -> list[str]:
    """Balls conserved on every row, every box within [0, c_box], and the
    history has steps + 1 rows."""
    lines = io.BytesIO(run["out"])  # line by line: the CSV is megabytes
    header = lines.readline()
    if header != b"t,n,u\n":
        return [f"bad header {header!r}"]
    balls = sum(job["init"])
    cap = job["c_box"]
    totals = [0] * (job["steps"] + 1)
    for line in lines:
        t, _, u = line.split(b",")
        u = int(u)
        if not 0 <= u <= cap:
            return [f"box holds {u} at t={t}, capacity {cap}"]
        totals[int(t)] += u
    bad = [t for t, s in enumerate(totals) if s != balls]
    problems = [f"ball count {totals[t]} != {balls} at t={t}" for t in bad[:3]]
    if run["clusters"] < 1:
        problems.append("no cluster tracks detected")
    return problems


CHECKS = {
    "analyze_n2": check_analyze,
    "evolve_row": check_evolve,
    "verify_n4": check_verify,
    "bbsc_carrier": check_bbsc,
}
