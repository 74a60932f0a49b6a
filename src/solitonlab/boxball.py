"""Box-ball automaton with a capacity-limited carrier, and the tropical
bridge from the rational lattice map to it.

One sweep moves a carrier left to right over boxes of capacity ``c_box``:

    u' = min(c_box - u, v) + max(0, u + v - c_carrier)
    v_next = u + v - u'

where v is the carrier load entering the box.  The carrier starts empty and
the window is extended to the right until it empties again, so the total
ball count is conserved exactly.  With an unbounded carrier this is the
plain box-ball rule.  An empty carrier leaves an empty box as it is, so a
sweep runs the rule only from each occupied box until the carrier is empty
again.  The sweep, the CSV writer and ``measure``'s cluster scan find the
occupied boxes with ``itertools.compress``, so the per-box work they do in
Python is per occupied box.

The rational map turns into this automaton under x = exp(-X/eps) as
eps -> 0 with parameters alpha = exp(-A/eps), beta = exp(-B/eps): the
update becomes

    X' = min(-X, B + Y) + max(X + Y + A, 0) - A

(``tropical_step``), and the shift U = X + A, V = Y + B turns that into the
carrier rule with c_box = A, c_carrier = B.  ``ud_limit_check`` measures the
gap between the rational map at finite eps and the tropical step.  This limit
sends alpha + beta -> 0, outside the soliton regime alpha + beta > 1, where
``solitons.validate`` raises ``InvalidInterval``.  The limit that stays in
the soliton regime sends alpha, beta -> 1, with 1 - alpha = exp(-A/eps) and
1 - beta = exp(-B/eps); this package does not check it yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import sub
from typing import IO, Sequence

from .errors import (
    CapacityViolation,
    EmptyField,
    NonFiniteSite,
    NonPositiveEpsilon,
    NonPositiveParameter,
)

Capacity = int | float  # int, or math.inf for an unbounded carrier


def _check_capacity(name: str, value: Capacity) -> Capacity:
    if value == math.inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, int):
        raise NonPositiveParameter(f"{name} must be a positive integer or inf")
    if value < 1:
        raise NonPositiveParameter(f"{name} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class BBSCState:
    """Box occupancies plus the two capacities.

    Capacity is checked on every state.  A state built here is checked in
    full: a box outside ``[0, c_box]`` raises :class:`CapacityViolation`
    naming the first such box.  A sweep output is checked by the sweep
    itself, which range-checks every box it writes and raises the same
    error naming that box; the boxes it does not write are empty copies of
    boxes of the checked input state.
    """

    u: tuple[int, ...]
    c_box: int
    c_carrier: Capacity = math.inf

    def __post_init__(self):
        u = tuple(map(int, self.u))
        object.__setattr__(self, "u", u)
        _check_capacity("c_box", self.c_box)
        _check_capacity("c_carrier", self.c_carrier)
        if u and (min(u) < 0 or max(u) > self.c_box):
            for k, v in enumerate(u):
                if not 0 <= v <= self.c_box:
                    raise CapacityViolation(
                        f"box {k} holds {v}, outside [0, {self.c_box}]")

    @property
    def balls(self) -> int:
        return sum(self.u)


def _swept(u: tuple[int, ...], like: BBSCState) -> BBSCState:
    """A state with ``like``'s capacities whose boxes :func:`_sweep` has
    range-checked; skips ``__post_init__``."""
    state = object.__new__(BBSCState)
    object.__setattr__(state, "u", u)
    object.__setattr__(state, "c_box", like.c_box)
    object.__setattr__(state, "c_carrier", like.c_carrier)
    return state


def _sweep(row: list[int], cb: Capacity, cc: Capacity,
           sites: Sequence[int]) -> None:
    """One carrier sweep of ``row``, in place.

    An empty box passed by an empty carrier is a fixed point: it stays
    empty and the carrier leaves it empty.  So the sweep jumps from one
    occupied box to the next and runs the rule from there until the carrier
    is empty again, appending boxes while it still holds balls.  Every box
    written is range-checked.  The carrier loads are not kept; the ball
    balance gives them back (see :func:`bbsc_sweep`).  ``sites`` holds the
    indices 0, 1, ... of at least every box of ``row``; iterating a list
    allocates no int per box, as a ``range`` past 256 would.
    """
    n = len(row)
    end = 0  # the boxes before this one have been swept
    for start in compress(sites, row):
        if start < end:
            continue
        v = 0
        # min and max as conditional expressions, which save two builtin
        # calls per box; w > cc never holds for cc = inf
        for k in range(start, n):
            u = row[k]
            w = u + v
            room = cb - u
            u2 = (room if room < v else v) + (w - cc if w > cc else 0)
            if not 0 <= u2 <= cb:
                raise CapacityViolation(f"box {k} holds {u2}, outside [0, {cb}]")
            v = w - u2
            row[k] = u2
            if not v:
                break
        else:
            while v:
                u2 = cb if cb < v else v  # an appended empty box; no spill since v <= cc
                v -= u2
                row.append(u2)
            return
        end = k + 1


def bbsc_step(state: BBSCState) -> BBSCState:
    """One time step of the capacity-limited rule.

    The sweep range-checks every box it writes, so the new state skips the
    constructor's whole-row check (see :class:`BBSCState`).
    """
    row = list(state.u)
    _sweep(row, state.c_box, state.c_carrier, range(len(row)))
    return _swept(tuple(row), state)


def bbsc_sweep(state: BBSCState) -> tuple[BBSCState, list[int]]:
    """One carrier sweep.  Returns (new state, carrier loads).

    The load list holds the carrier content entering each box of the new
    state plus a trailing 0 (the carrier leaves empty; the window grows to
    the right as needed to guarantee that).  The loads come from the ball
    balance: the load leaving box k is the number of balls the carrier has
    taken from boxes 0..k, the running sum of u - u'.
    """
    new = bbsc_step(state)
    return new, list(accumulate(map(sub, chain(state.u, repeat(0)), new.u),
                                initial=0))


def evolve_bbsc(state: BBSCState, steps: int) -> list[BBSCState]:
    """Apply ``steps`` sweeps; returns all ``steps + 1`` states."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    cb, cc = state.c_box, state.c_carrier
    row = list(state.u)
    sites = list(range(len(row)))
    history = [state]
    for _ in range(steps):
        _sweep(row, cb, cc, sites)
        sites += range(len(sites), len(row))
        history.append(_swept(tuple(row), state))
    return history


def render_ascii(history: Sequence[BBSCState]) -> str:
    """Draw occupancies as '.' for empty and digits 1-9, one line per state.

    Lines are right-padded to a common width.  Raises ValueError when any
    box capacity exceeds 9; export CSV instead for those.
    """
    if not history:
        raise EmptyField("nothing to render")
    if any(s.c_box > 9 for s in history):
        raise ValueError("occupancies above 9 cannot be drawn as single digits")
    width = max(len(s.u) for s in history)
    cell = ".123456789".__getitem__
    return "\n".join("".join(map(cell, s.u)).ljust(width, ".") for s in history)


def write_bbsc_csv(history: Sequence[BBSCState], stream: IO[str]) -> None:
    """Write rows ``t,n,u`` for every state in the history.

    One list holds the pieces ``",n,0\n"`` of an empty state.  For each
    state the nonzero cells are filled in, the pieces are joined with t and
    written whole, in one ``stream.write``, and the filled cells are reset,
    so the work per state beyond the join is per occupied box.
    """
    stream.write("t,n,u\n")
    width = max((len(s.u) for s in history), default=0)
    sites = list(range(width))
    empty = [f",{n},0\n" for n in sites]
    pieces: list[str] = []
    for t, s in enumerate(history):
        u = s.u
        m = len(u)
        if not m:
            continue
        del pieces[m:]
        pieces += empty[len(pieces):m]
        filled = list(compress(sites, u))
        for n in filled:
            pieces[n] = f",{n},{u[n]}\n"
        # the lines "t,n,v\n" of one state are t followed by the pieces
        # ",n,v\n" joined with t
        lead = str(t)
        stream.write(lead + lead.join(pieces))
        for n in filled:
            pieces[n] = empty[n]


# ---------------------------------------------------------------------------
# tropical bridge


@dataclass(frozen=True)
class UDField:
    """A row of finite (X, Y) values with finite tropical parameters A, B > 0.

    A nan or infinite site would turn its gap in :func:`ud_limit_check`
    into nan, or drop out of the max behind a finite one, so it raises
    :class:`NonFiniteSite` naming the first such site.
    """

    X: tuple[float, ...]
    Y: tuple[float, ...]
    A: float
    B: float

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(float(v) for v in self.X))
        object.__setattr__(self, "Y", tuple(float(v) for v in self.Y))
        if len(self.X) != len(self.Y):
            raise ValueError("X and Y must have the same length")
        if not self.X:
            raise EmptyField("field must contain at least one site")
        for k, xy in enumerate(zip(self.X, self.Y)):
            for name, v in zip("XY", xy):
                if not math.isfinite(v):
                    raise NonFiniteSite(name, k, v)
        if not (0 < self.A < math.inf and 0 < self.B < math.inf):
            raise NonPositiveParameter(
                f"A and B must be positive and finite, got {self.A}, {self.B}")


def tropical_step(field: UDField) -> tuple[float, ...]:
    """The piecewise-linear update X' = min(-X, B+Y) + max(X+Y+A, 0) - A."""
    a, b = field.A, field.B
    return tuple(min(-x, b + y) + max(x + y + a, 0.0) - a
                 for x, y in zip(field.X, field.Y))


def shift_to_uv(field: UDField) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Shift to carrier coordinates: U = X + A, V = Y + B."""
    return (tuple(x + field.A for x in field.X),
            tuple(y + field.B for y in field.Y))


def field_from_state(state: BBSCState, loads: Sequence[int]) -> UDField:
    """Tropical field whose shifted coordinates are a swept automaton state.

    ``loads`` are carrier loads as returned by :func:`bbsc_sweep` (their
    leading entries align with the boxes; the trailing one is dropped).
    Requires bounded boxes and carrier, since A = c_box and B = c_carrier.
    """
    if state.c_box == math.inf:
        raise NonPositiveParameter("need a finite box capacity for A")
    if state.c_carrier == math.inf:
        raise NonPositiveParameter("need a finite carrier capacity for B")
    a, b = float(state.c_box), float(state.c_carrier)
    xs = tuple(v - a for v in state.u)
    ys = tuple(float(l) - b for l in loads[:len(state.u)])
    return UDField(X=xs, Y=ys, A=a, B=b)


_LOG2 = math.log(2.0)


def _log1mexp(z: float) -> float:
    """log(1 - exp(z)) for z < 0, stable over the whole range."""
    if z < -_LOG2:
        return math.log1p(-math.exp(z))
    return math.log(-math.expm1(z))


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) without overflow: x + log 2 when x == y, else
    the larger argument plus log1p(exp(-|x - y|))."""
    if x == y:
        return x + _LOG2
    if x > y:
        return x + math.log1p(math.exp(y - x))
    return y + math.log1p(math.exp(x - y))


def ud_limit_check(field: UDField, epsilons: Sequence[float],
                   ) -> list[tuple[float, float]]:
    """Compare the rational map at finite eps against the tropical step.

    For each eps the rational update is evaluated in log coordinates
    (X = -eps log x), using stable log-sum forms so large X/eps never leave
    the double range, and the max absolute gap to :func:`tropical_step` is
    reported.  Epsilons must be finite, positive, strictly decreasing, and no
    smaller than 1e-6.  The gap decays like eps (times log 2 at tie points).
    """
    eps_list = [float(e) for e in epsilons]
    if not all(map(math.isfinite, eps_list)):
        raise NonPositiveEpsilon("all epsilons must be finite")
    if any(e <= 0 for e in eps_list):
        raise NonPositiveEpsilon("all epsilons must be > 0")
    if any(e < 1e-6 for e in eps_list):
        raise NonPositiveEpsilon("epsilons below 1e-6 are outside the float-validated range")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    a, b = field.A, field.B
    trop = tropical_step(field)
    out: list[tuple[float, float]] = []
    for eps in eps_list:
        # log((1-beta) + beta * x * y) with beta = exp(-B/eps):
        #   logaddexp(log(1 - exp(-B/eps)), -(B + X + Y)/eps)
        lb = _log1mexp(-b / eps)
        la = _log1mexp(-a / eps)
        gap = max(abs(y - eps * _logaddexp(lb, -(b + x + y) / eps)
                      + eps * _logaddexp(la, -(a + x + y) / eps) - tr)
                  for x, y, tr in zip(field.X, field.Y, trop))
        out.append((eps, gap))
    return out


def param_correspondence(params) -> str:
    """Which capacity dominates in the tropical limit of given parameters.

    beta > alpha makes the box capacity exceed the carrier capacity
    (``"B_gt_C"``), beta = alpha makes them equal (``"B_eq_C"``), and
    beta < alpha the reverse (``"B_lt_C"``).
    """
    if params.beta > params.alpha:
        return "B_gt_C"
    if params.beta == params.alpha:
        return "B_eq_C"
    return "B_lt_C"
