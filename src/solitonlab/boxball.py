"""Box-ball automaton with a capacity-limited carrier, and the tropical
bridge from the rational lattice map to it.

One sweep moves a carrier left to right over boxes of capacity ``c_box``:

    u' = min(c_box - u, v) + max(0, u + v - c_carrier)
    v_next = u + v - u'

where v is the carrier load entering the box.  The carrier starts empty and
the window is extended to the right until it empties again, so the total
ball count is conserved exactly.  With an unbounded carrier this is the
plain box-ball rule.  :func:`evolve_bbsc` repeats the sweep in time, and
:func:`bbsc_sweep` is one sweep that also returns the carrier loads.

An empty carrier leaves an empty box as it is, so a sweep runs the rule
only from each occupied box until the carrier is empty again.  A state is
sparse: ``BBSCState`` keeps the ascending indices of its occupied boxes,
``occupied``, their ball counts, ``counts``, and the window ``width``.  A
sweep works on one row that :func:`evolve_bbsc` keeps for the whole
history, jumps between the occupied boxes and collects the new ones and
their counts as it writes them.  So the sweep, the snapshot of each state,
the CSV writer and ``measure``'s cluster scan all do work per occupied box,
not per box of the window; only ``BBSCState.u`` builds the whole row.

The rational map x' = y ((1-beta) + beta x y) / ((1-alpha) + alpha x y)
turns into this automaton inside the soliton regime alpha + beta > 1, as
alpha, beta -> 1 with 1 - beta = exp(-c_box/eps) and
1 - alpha = exp(-c_carrier/eps).  Under x = exp(-u/eps), y = exp(-v/eps),
with u a box and v the load entering it, -eps log x' tends to

    u' = v + min(c_box, u + v) - min(c_carrier, u + v),

which is the carrier rule above for 0 <= u <= c_box, 0 <= v <= c_carrier,
with no shift of either variable.  At finite eps, -eps log x' is exactly
that tropical value less eps times a tie term in [-log 2, log 2], so
``ud_limit_check`` measures the gap between the rational map and one
:func:`bbsc_sweep` as an exact integer part plus that eps term.

The map at (alpha, beta), read in (1/x, 1/y), is the map at
(1 - beta, 1 - alpha).  So the limit alpha, beta -> 0 with
alpha = exp(-c_box/eps), beta = exp(-c_carrier/eps), outside the soliton
regime, is the same automaton read on holes: c_box - u and c_carrier - v.
That half of the parameter square holds no troughs, where
``solitons.validate`` raises ``InvalidInterval``, but it holds their mirror
images, peaks x > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import index, sub
from typing import IO, Iterable, Sequence

from .errors import (
    CapacityViolation,
    EmptyField,
    FrozenState,
    NegativeSteps,
    NonPositiveEpsilon,
    NonPositiveParameter,
    UndrawableCapacity,
    UnorderedEpsilons,
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


def _box_values(cells) -> tuple[int, ...]:
    """``cells`` as a tuple of ints.  A box that ``operator.index`` rejects,
    or that holds a bool, raises :class:`CapacityViolation` naming it."""
    u = []
    for k, v in enumerate(cells):
        try:
            n = index(v)
        except TypeError:
            n = None
        if n is None or isinstance(v, bool):
            raise CapacityViolation(f"box {k} holds {v!r}, not an integer", box=k)
        u.append(n)
    return tuple(u)


# not frozen=True: with slots=True its generated __setattr__ fails with a
# TypeError on any name but a field's, so the class refuses every name
# itself; unsafe_hash keeps the field hash that frozen=True gave
@dataclass(slots=True, init=False, repr=False, unsafe_hash=True)
class BBSCState:
    """Box occupancies plus the two capacities, stored sparse.

    ``BBSCState(u, c_box, c_carrier=inf)`` takes the full row of boxes
    ``u``.  Capacity is checked on every state.  A state built here is
    checked in full: a box that is not an integer (``operator.index``
    rejects it, or it is a bool) or lies outside ``[0, c_box]`` raises
    :class:`CapacityViolation` naming the first such box.  A sweep output
    is checked by the sweep itself, which range-checks every box it writes
    and raises the same error naming that box; the boxes it does not write
    stay empty.

    The state keeps ``occupied``, the ascending indices of the nonzero
    boxes, ``counts``, their ball counts, and ``width``, the number of
    boxes; these and the two capacities are compared and hashed, so two
    states are equal when their boxes and capacities are, and states that
    differ only in trailing empty boxes are not.  ``u`` builds the full
    row on each access, and ``repr`` shows it.  A state is immutable:
    assigning or deleting any attribute raises :class:`FrozenState`.
    """

    occupied: tuple[int, ...]
    counts: tuple[int, ...]
    width: int
    c_box: int
    c_carrier: Capacity

    def __init__(self, u: Iterable[int], c_box: int, c_carrier: Capacity = math.inf):
        u = _box_values(u)
        _check_capacity("c_box", c_box)
        _check_capacity("c_carrier", c_carrier)
        if u and (min(u) < 0 or max(u) > c_box):
            for k, v in enumerate(u):
                if not 0 <= v <= c_box:
                    raise CapacityViolation(
                        f"box {k} holds {v}, outside [0, {c_box}]", box=k)
        _fill(self, tuple(compress(range(len(u)), u)), tuple(compress(u, u)),
              len(u), c_box, c_carrier)

    def __repr__(self) -> str:
        return f"BBSCState(u={self.u!r}, c_box={self.c_box!r}, c_carrier={self.c_carrier!r})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenState(f"cannot assign to {name!r} of a frozen BBSCState")

    def __delattr__(self, name: str) -> None:
        raise FrozenState(f"cannot delete {name!r} of a frozen BBSCState")

    @property
    def u(self) -> tuple[int, ...]:
        row = [0] * self.width
        for k, c in zip(self.occupied, self.counts):
            row[k] = c
        return tuple(row)

    @property
    def balls(self) -> int:
        return sum(self.counts)


def _fill(state: BBSCState, occupied: tuple[int, ...], counts: tuple[int, ...],
          width: int, c_box: int, c_carrier: Capacity) -> BBSCState:
    """Set the fields of ``state``, which is frozen, without any check."""
    object.__setattr__(state, "occupied", occupied)
    object.__setattr__(state, "counts", counts)
    object.__setattr__(state, "width", width)
    object.__setattr__(state, "c_box", c_box)
    object.__setattr__(state, "c_carrier", c_carrier)
    return state


def _sweep(row: list[int], cb: Capacity, cc: Capacity, occupied: Sequence[int],
           ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One carrier sweep of ``row``, in place; returns the ascending indices
    of the boxes that hold balls after it and their ball counts.

    ``occupied`` lists, ascending, the indices of the nonzero boxes of
    ``row``.  An empty box passed by an empty carrier is a fixed point: it
    stays empty and the carrier leaves it empty.  So the sweep jumps from
    one occupied box to the next and runs the rule from there until the
    carrier is empty again, appending boxes while it still holds balls.
    Every box that holds balls afterwards was written by the sweep, which
    collects each box it writes nonzero, with its count, appended boxes
    included.  Every box written is range-checked.  The carrier loads are
    not kept; the ball balance gives them back (see :func:`bbsc_sweep`).
    """
    n = len(row)
    end = 0  # the boxes before this one have been swept
    out: list[int] = []
    counts: list[int] = []
    for start in occupied:
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
                raise CapacityViolation(f"box {k} holds {u2}, outside [0, {cb}]", box=k)
            v = w - u2
            row[k] = u2
            if u2:
                out.append(k)
                counts.append(u2)
            if not v:
                break
        else:
            while v:
                u2 = cb if cb < v else v  # an appended empty box; no spill since v <= cc
                v -= u2
                out.append(len(row))
                counts.append(u2)
                row.append(u2)
            break
        end = k + 1
    return tuple(out), tuple(counts)


def bbsc_sweep(state: BBSCState) -> tuple[BBSCState, list[int]]:
    """One carrier sweep.  Returns (new state, carrier loads).

    The load list holds the carrier content entering each box of the new
    state plus a trailing 0 (the carrier leaves empty; the window grows to
    the right as needed to guarantee that).  The loads come from the ball
    balance: the load leaving box k is the number of balls the carrier has
    taken from boxes 0..k, the running sum of u - u'.
    """
    new = evolve_bbsc(state, 1)[1]
    return new, list(accumulate(map(sub, chain(state.u, repeat(0)), new.u),
                                initial=0))


def evolve_bbsc(state: BBSCState, steps: int) -> list[BBSCState]:
    """Apply ``steps`` sweeps; returns all ``steps + 1`` states.

    One time step is ``evolve_bbsc(state, 1)[1]``.  One working row is
    swept in place for the whole history, and each new state keeps only
    the sweep's occupied boxes and their counts.  The sweep range-checks
    every box it writes, so each new state skips the constructor's
    whole-row check (see :class:`BBSCState`).
    """
    if steps < 0:
        raise NegativeSteps("steps must be >= 0")
    cb, cc = state.c_box, state.c_carrier
    row = list(state.u)
    occupied = state.occupied
    history = [state]
    for _ in range(steps):
        occupied, counts = _sweep(row, cb, cc, occupied)
        history.append(_fill(object.__new__(BBSCState), occupied, counts, len(row), cb, cc))
    return history


def render_ascii(history: Sequence[BBSCState]) -> str:
    """Draw occupancies as '.' for empty and digits 1-9, one line per state.

    Lines are right-padded to a common width.  Raises
    :class:`UndrawableCapacity` when any box capacity exceeds 9; export CSV
    instead for those.
    """
    if not history:
        raise EmptyField("nothing to render")
    if any(s.c_box > 9 for s in history):
        raise UndrawableCapacity("occupancies above 9 cannot be drawn as single digits")
    width = max(s.width for s in history)
    cell = ".123456789".__getitem__
    return "\n".join("".join(map(cell, s.u)).ljust(width, ".") for s in history)


def write_bbsc_csv(history: Sequence[BBSCState], stream: IO[str]) -> None:
    """Write rows ``t,n,u`` for every state in the history.

    One list holds the pieces ``",n,0\n"`` of an empty state.  For each
    state the cells listed in ``occupied`` are filled in from ``counts``,
    the pieces are joined with t and written whole, in one
    ``stream.write``, and the filled cells are reset, so the work per state
    beyond the join is per occupied box.
    """
    stream.write("t,n,u\n")
    width = max((s.width for s in history), default=0)
    empty = [f",{n},0\n" for n in range(width)]
    pieces: list[str] = []
    for t, s in enumerate(history):
        m = s.width
        if not m:
            continue
        del pieces[m:]
        pieces += empty[len(pieces):m]
        filled = s.occupied
        for n, c in zip(filled, s.counts):
            pieces[n] = f",{n},{c}\n"
        # the lines "t,n,v\n" of one state are t followed by the pieces
        # ",n,v\n" joined with t
        lead = str(t)
        stream.write(lead + lead.join(pieces))
        for n in filled:
            pieces[n] = empty[n]


# ---------------------------------------------------------------------------
# tropical bridge


def ud_limit_check(state: BBSCState, epsilons: Sequence[float],
                   ) -> list[tuple[float, float]]:
    """Compare the rational map at finite eps against one carrier sweep.

    With 1 - beta = exp(-c_box/eps), x = exp(-u/eps) for each box u,
    y = exp(-v/eps) for the load v entering it, w = u + v and
    m = min(w, c_box), the map's numerator is exactly

        (1 - beta) + beta x y = exp(-m/eps) (1 + exp(-|w - c_box|/eps) (1 - exp(-m/eps))),

    and its denominator the same with 1 - alpha = exp(-c_carrier/eps).  So
    the gap of -eps log x' to the box u' of :func:`bbsc_sweep` is
    |d - eps (T(w, c_box) - T(w, c_carrier))|: d = v - u' + min(w, c_box)
    - min(w, c_carrier) is an exact integer, 0 wherever the sweep obeys the
    tropical rule, and the tie term T, the log1p of the bracket, lies in
    [0, log 2] with no positive exponent at any eps.  For each eps the max
    gap over every box of the swept state is reported (the boxes the sweep
    appended start empty).  Both capacities must be finite.  Epsilons must
    be finite, positive, strictly decreasing, and no smaller than 1e-6.
    The gap decays like eps (times log 2 at ties, w = c); it is exactly 0
    on an empty state, where w and T are 0, and when c_box == c_carrier,
    where the map is x' = y.

    The per-box bound eps log 2 holds only because the loads fed in are the
    sweep's exact integers.  Through the lattice kernel instead, one
    ``evolve_gkdv`` sweep of x = q^u from y = 1, with q = exp(-1/eps),
    alpha = 1 - q^c_carrier and beta = 1 - q^c_box, the carried y adds its
    own O(eps) error along the row: over random states (c_box and c_carrier
    in 1..5, 3 to 15 boxes) the worst gap measured at q = 10^-3 and 10^-6
    is 4.6 eps log 2, not eps log 2.
    """
    cb, cc = state.c_box, state.c_carrier
    if cb == math.inf:
        raise NonPositiveParameter("the tropical limit needs a finite box capacity")
    if cc == math.inf:
        raise NonPositiveParameter("the tropical limit needs a finite carrier capacity")
    if not state.u:
        raise EmptyField("the tropical limit needs at least one box")
    eps_list = [float(e) for e in epsilons]
    if not all(map(math.isfinite, eps_list)):
        raise NonPositiveEpsilon("all epsilons must be finite")
    if any(e <= 0 for e in eps_list):
        raise NonPositiveEpsilon("all epsilons must be > 0")
    if any(e < 1e-6 for e in eps_list):
        raise NonPositiveEpsilon("epsilons below 1e-6 are outside the float-validated range")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise UnorderedEpsilons("epsilons must be strictly decreasing")
    new, loads = bbsc_sweep(state)
    boxes = [(u + v, v - u2 + min(u + v, cb) - min(u + v, cc))
             for u, v, u2 in zip(chain(state.u, repeat(0)), loads, new.u)]

    def tie(w: int, c: int, eps: float) -> float:
        return math.log1p(math.exp(-abs(w - c) / eps) * -math.expm1(-min(w, c) / eps))

    return [(eps, max(abs(d - eps * (tie(w, cb, eps) - tie(w, cc, eps))) for w, d in boxes))
            for eps in eps_list]
