import dataclasses
import io
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import boxball
from solitonlab import (
    BBSCState,
    SystemParams,
    bbsc_sweep,
    detect_bbsc_solitons,
    evolve_bbsc,
    evolve_gkdv,
    render_ascii,
    sample_field,
    ud_limit_check,
    write_bbsc_csv,
)
from solitonlab.errors import (
    CapacityViolation,
    EmptyField,
    FrozenState,
    NegativeSteps,
    NonPositiveEpsilon,
    NonPositiveParameter,
    SolitonLabError,
    UndrawableCapacity,
    UnorderedEpsilons,
)
from solitonlab.lattice import _gkdv_constants

from _oracles import (
    REF_PARAMS,
    REF_SOLITONS,
    bbsc_csv_longhand,
    bbsc_sweep_longhand,
    two_point,
    ud_gaps_longhand,
)


# --- automaton hand traces ----------------------------------------------------


def test_three_ball_trace():
    # one cluster of 3 with a tight carrier crawls one box per three sweeps
    state = BBSCState((3, 0, 0), c_box=3, c_carrier=1)
    seen = [s.u for s in evolve_bbsc(state, 3)]
    assert seen[1][:3] == (2, 1, 0)
    assert seen[2][:3] == (1, 2, 0)
    assert seen[3][:3] == (0, 3, 0)


def test_two_soliton_trace():
    state = BBSCState((3, 0, 0, 0, 1), c_box=3, c_carrier=1)
    rows = [s.u for s in evolve_bbsc(state, 4)]
    assert rows[1] == (2, 1, 0, 0, 0, 1)
    assert rows[2] == (1, 2, 0, 0, 0, 0, 1)
    assert rows[3] == (0, 3, 0, 0, 0, 0, 0, 1)
    assert rows[4] == (0, 2, 1, 0, 0, 0, 0, 0, 1)


def test_sweep_reports_loads():
    state, loads = bbsc_sweep(BBSCState((3, 0, 0), c_box=3, c_carrier=1))
    assert state.u[:2] == (2, 1)
    # the carrier passed site 0 empty, left it carrying 1, dropped it at site 1
    assert loads[0] == 0 and loads[1] == 1
    assert loads[-1] == 0 and len(loads) == len(state.u) + 1


def test_single_ball_speed_is_one():
    state = BBSCState((0, 1, 0, 0, 0), c_box=3, c_carrier=1)
    for t, state in enumerate(evolve_bbsc(state, 3)[1:], 1):
        assert state.u[1 + t] == 1 and sum(state.u) == 1


def test_unbounded_carrier_classic_cluster_jump():
    # 0/1 boxes, no carrier bound: a k-cluster hops k sites per step
    state = BBSCState((0, 1, 1, 0, 0, 0, 0), c_box=1)
    assert evolve_bbsc(state, 1)[-1].u[:7] == (0, 0, 0, 1, 1, 0, 0)
    # with roomier boxes the drop is still capped by free space
    tall = BBSCState((0, 4, 4, 0, 0, 0, 0, 0, 0, 0), c_box=5)
    assert evolve_bbsc(tall, 1)[-1].u[:5] == (0, 0, 1, 5, 2)


def test_state_validation():
    with pytest.raises(CapacityViolation):
        BBSCState((4,), c_box=3, c_carrier=1)
    with pytest.raises(CapacityViolation):
        BBSCState((-1,), c_box=3, c_carrier=1)
    # the message names the first box out of range
    with pytest.raises(CapacityViolation, match=r"^box 2 holds 4, outside \[0, 3\]$") as info:
        BBSCState((0, 3, 4, -1, 5), c_box=3, c_carrier=1)
    assert info.value.box == 2
    with pytest.raises(CapacityViolation, match=r"^box 1 holds -1,") as info:
        BBSCState((2, -1, 7), c_box=3)
    assert info.value.box == 1
    assert BBSCState((), c_box=3).u == ()
    with pytest.raises(NonPositiveParameter):
        BBSCState((1,), c_box=0, c_carrier=1)
    with pytest.raises(NonPositiveParameter):
        BBSCState((1,), c_box=3, c_carrier=0.5)


class Index:
    """An integer-like object that is not an int: it has only ``__index__``."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


@pytest.mark.parametrize("cells, box, shown", [
    ((1.7, 0, 0), 0, "1.7"), ((0, "2"), 1, "'2'"), ((True, 0), 0, "True"),
    ((0, 0, False), 2, "False"), ((1, None), 1, "None"),
    ((0, Fraction(1)), 1, "Fraction(1, 1)"), ((0, 1, 2.0), 2, "2.0")],
    ids=["float", "str", "true", "false", "none", "fraction", "integral_float"])
def test_state_rejects_box_values_that_are_not_integers(cells, box, shown):
    # a float used to be truncated and a str or bool converted by int()
    with pytest.raises(CapacityViolation,
                       match=rf"^box {box} holds {re.escape(shown)}, not an integer$") as info:
        BBSCState(cells, c_box=3)
    assert info.value.box == box


def test_state_accepts_what_operator_index_accepts():
    state = BBSCState((Index(2), 0, Index(1)), c_box=3)
    assert state.u == (2, 0, 1) and all(type(v) is int for v in state.u)
    assert state.occupied == (0, 2)
    # any iterable of cells, read once
    assert BBSCState((v for v in (0, 1)), c_box=1).u == (0, 1)
    with pytest.raises(CapacityViolation, match=r"^box 0 holds 4, outside \[0, 3\]$"):
        BBSCState((Index(4),), c_box=3)


occupancies = st.integers(1, 6).flatmap(
    lambda cb: st.tuples(
        st.just(cb),
        st.lists(st.integers(0, cb), min_size=1, max_size=20),
        st.one_of(st.just(math.inf), st.integers(1, 8)),
    )
)


@given(occupancies, st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_balls_conserved_and_capacities_respected(setup, steps):
    cb, cells, cc = setup
    state = BBSCState(tuple(cells), c_box=cb, c_carrier=cc)
    total = state.balls
    for state in evolve_bbsc(state, steps)[1:]:
        assert state.balls == total
        assert all(0 <= v <= cb for v in state.u)


@given(occupancies)
@settings(max_examples=200, deadline=None)
def test_sweep_matches_longhand_min_max(setup):
    cb, cells, cc = setup
    state, loads = bbsc_sweep(BBSCState(tuple(cells), c_box=cb, c_carrier=cc))
    expected_u, expected_loads = bbsc_sweep_longhand(cells, cb, cc)
    assert list(state.u) == expected_u
    assert loads == expected_loads
    assert (state.c_box, state.c_carrier) == (cb, cc)


@given(occupancies, st.booleans())
@settings(max_examples=150, deadline=None)
def test_sweep_load_never_exceeds_carrier(setup, grow):
    # checked without the longhand oracle; a full last box always leaves
    # the carrier holding balls, so the sweep appends boxes and the loads
    # must still align with the grown row
    cb, cells, cc = setup
    if grow:
        cells = cells + [cb]
    state = BBSCState(tuple(cells), c_box=cb, c_carrier=cc)
    new, loads = bbsc_sweep(state)
    if grow:
        assert len(new.u) > len(state.u)
    assert len(loads) == len(new.u) + 1
    assert loads[0] == loads[-1] == 0
    assert all(0 <= v <= cc for v in loads)


# clusters of 1-6 occupied boxes, each after a gap of 10-60 empty ones, so a
# sweep skips long runs of empty boxes
sparse_setups = st.integers(1, 6).flatmap(
    lambda cb: st.tuples(
        st.just(cb),
        st.lists(st.tuples(st.integers(10, 60),
                           st.lists(st.integers(1, cb), min_size=1, max_size=6)),
                 min_size=1, max_size=4),
        st.integers(0, 60),
        st.one_of(st.just(math.inf), st.integers(1, 8)),
        st.integers(50, 300),
    )
)


def sparse_cells(clusters, tail):
    cells = []
    for gap, cluster in clusters:
        cells += [0] * gap + cluster
    return cells + [0] * tail


@given(sparse_setups)
@settings(max_examples=25, deadline=None)
def test_long_sparse_history_matches_longhand(setup):
    cb, clusters, tail, cc, steps = setup
    cells = sparse_cells(clusters, tail)
    history = evolve_bbsc(BBSCState(tuple(cells), c_box=cb, c_carrier=cc), steps)
    assert len(history) == steps + 1
    expected = cells
    for s in history:
        assert list(s.u) == expected
        assert all(type(v) is int for v in s.u)
        # rebuilt through the checked constructor, the state is the same
        assert s == BBSCState(s.u, s.c_box, s.c_carrier)
        swept, loads = bbsc_sweep(s)
        expected, expected_loads = bbsc_sweep_longhand(expected, cb, cc)
        assert loads == expected_loads
        assert list(swept.u) == expected
        assert (swept.c_box, swept.c_carrier) == (cb, cc)


def test_sweep_range_checks_each_box_it_writes():
    # a row that bypassed the constructor: box 0 holds 5 > c_box = 3, and
    # the carrier it overloads spills 5 balls into box 1
    row = [5, 0, 0]
    with pytest.raises(CapacityViolation, match=r"^box 1 holds 5, outside \[0, 3\]$") as info:
        boxball._sweep(row, 3, 1, [0])
    assert info.value.box == 1


# --- occupied boxes ---------------------------------------------------------------


def nonzero_boxes(u):
    return tuple(k for k, v in enumerate(u) if v)


# rows that may be empty or all zero; with ``grow`` the row ends in a full
# box, so the first sweep appends boxes
occupied_setups = st.integers(1, 6).flatmap(
    lambda cb: st.tuples(
        st.just(cb),
        st.one_of(st.lists(st.integers(0, cb), max_size=20),
                  st.lists(st.just(0), max_size=20)),
        st.one_of(st.just(math.inf), st.integers(1, 8)),
        st.booleans(),
        st.integers(0, 12),
    )
)


@given(occupied_setups)
@settings(max_examples=200, deadline=None)
def test_occupied_lists_the_nonzero_boxes_of_every_swept_state(setup):
    cb, cells, cc, grow, steps = setup
    if grow:
        cells = cells + [cb]
    start = BBSCState(tuple(cells), c_box=cb, c_carrier=cc)
    evolved = evolve_bbsc(start, steps)
    stepped = [start]
    swept = [start]
    for _ in range(steps):
        stepped.append(evolve_bbsc(stepped[-1], 1)[-1])
        swept.append(bbsc_sweep(swept[-1])[0])
    if grow and steps:
        assert len(evolved[1].u) > len(start.u)
    assert [s.u for s in stepped] == [s.u for s in swept] == [s.u for s in evolved]
    for s in evolved + stepped + swept:
        u = s.u
        assert type(s.occupied) is tuple and type(s.counts) is tuple
        assert s.occupied == nonzero_boxes(u)
        assert s.counts == tuple(u[k] for k in s.occupied)
        assert s.width == len(u)
    # a swept history and the same states rebuilt through the constructor
    rebuilt = [BBSCState(s.u, s.c_box, s.c_carrier) for s in evolved]
    for a, b in ((evolved, rebuilt), (stepped, rebuilt)):
        out_a, out_b = io.StringIO(), io.StringIO()
        write_bbsc_csv(a, out_a)
        write_bbsc_csv(b, out_b)
        assert out_a.getvalue() == out_b.getvalue() == bbsc_csv_longhand(rebuilt)
        assert ([(tr.times, tr.positions, tr.sizes) for tr in detect_bbsc_solitons(a)]
                == [(tr.times, tr.positions, tr.sizes)
                    for tr in detect_bbsc_solitons(b)])


def test_occupied_of_the_empty_and_the_all_zero_state():
    for cells in ((), (0,), (0,) * 7):
        history = evolve_bbsc(BBSCState(cells, c_box=2, c_carrier=1), 3)
        assert [s.occupied for s in history] == [()] * 4
        assert [s.u for s in history] == [cells] * 4
        assert detect_bbsc_solitons(history) == []


def test_swept_and_rebuilt_states_agree_and_are_frozen():
    state = evolve_bbsc(BBSCState((3, 0, 0, 0, 1), c_box=3, c_carrier=1), 2)[-1]
    rebuilt = BBSCState(state.u, 3, 1)
    assert (state.occupied, state.counts, state.width) == ((0, 1, 6), (1, 2, 1), 7)
    assert state == rebuilt and hash(state) == hash(rebuilt)
    assert repr(state) == repr(rebuilt) == (
        "BBSCState(u=(1, 2, 0, 0, 0, 0, 1), c_box=3, c_carrier=1)")
    # the same occupied boxes in a wider window are a different state
    wider = BBSCState(state.u + (0,), 3, 1)
    assert (wider.occupied, wider.counts) == (state.occupied, state.counts)
    assert wider != state
    # slotted: no per-state __dict__
    assert not hasattr(state, "__dict__")
    for f in dataclasses.fields(BBSCState):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, f.name, ())


@pytest.mark.parametrize("change", [
    lambda state: setattr(state, "u", ()),
    lambda state: setattr(state, "balls", 0),
    lambda state: setattr(state, "label", "x"),
    lambda state: delattr(state, "u"),
    lambda state: delattr(state, "c_box"),
], ids=["assign_u", "assign_balls", "assign_unknown", "delete_u", "delete_c_box"])
def test_a_state_refuses_every_change_with_a_typed_error(change):
    # properties and unknown names too, not only fields: the error is the
    # package's own and the FrozenInstanceError a frozen dataclass raises
    state = BBSCState((3, 0, 1), c_box=3, c_carrier=1)
    with pytest.raises(FrozenState) as caught:
        change(state)
    assert isinstance(caught.value, SolitonLabError)
    assert isinstance(caught.value, dataclasses.FrozenInstanceError)
    assert state == BBSCState((3, 0, 1), 3, 1) and state.balls == 4


def test_a_long_history_keeps_only_the_occupied_boxes():
    # a lone ball moves one box a sweep, so a dense history would hold
    # ~2 million boxes (16 MB of tuples) where the sparse one holds 2000
    tracemalloc.start()
    try:
        history = evolve_bbsc(BBSCState((1,), c_box=1), 2000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert history[-1].occupied == (2000,)
    assert held < 2_000_000


# --- typed errors -------------------------------------------------------------------


@pytest.mark.parametrize("call, error", [
    (lambda: evolve_bbsc(BBSCState((1,), c_box=1), -1), NegativeSteps),
    (lambda: render_ascii([BBSCState((10,), c_box=12)]), UndrawableCapacity),
    (lambda: ud_limit_check(reference_state(), [0.1, 0.1]), UnorderedEpsilons),
    (lambda: ud_limit_check(reference_state(), [0.1, 1.0]), UnorderedEpsilons),
], ids=["negative_steps", "capacity_above_9", "equal_epsilons", "rising_epsilons"])
def test_boxball_value_errors_are_typed(call, error):
    # each is a SolitonLabError and still a ValueError
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, SolitonLabError) and isinstance(info.value, ValueError)


# --- rendering ------------------------------------------------------------------


def test_render_ascii_golden():
    history = evolve_bbsc(BBSCState((3, 0, 0), c_box=3, c_carrier=1), 3)
    text = render_ascii(history)
    lines = text.splitlines()
    assert lines[0] == "3.."
    assert lines[1] == "21."
    assert lines[3] == ".3."
    # all rows padded to one width
    assert len({len(ln) for ln in lines}) == 1
    with pytest.raises(EmptyField):
        render_ascii([])
    with pytest.raises(ValueError):
        render_ascii([BBSCState((10,), c_box=12)])


def test_write_bbsc_csv():
    history = evolve_bbsc(BBSCState((1, 0), c_box=1, c_carrier=1), 1)
    buf = io.StringIO()
    write_bbsc_csv(history, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,n,u"
    assert lines[1] == "0,0,1"


CSV_HISTORIES = {
    "empty": lambda: [],
    "one_empty_state": lambda: [BBSCState((), c_box=2)],
    # rows of 3, 0, 6 and 1 boxes
    "ragged": lambda: [BBSCState((1, 0, 2), c_box=2), BBSCState((), c_box=2),
                       BBSCState((0, 0, 1, 2, 2, 1), c_box=2),
                       BBSCState((2,), c_box=2)],
    # cells up to 12, and more than ten sites and states
    "two_digit": lambda: evolve_bbsc(
        BBSCState((9, 0, 0, 9, 9, 0, 3), c_box=12, c_carrier=5), 12),
    "unbounded_box": lambda: [BBSCState((0, 10, 123, 7), c_box=math.inf)],
}


@pytest.mark.parametrize("name", sorted(CSV_HISTORIES))
def test_write_bbsc_csv_matches_per_line_rows(name):
    history = CSV_HISTORIES[name]()
    buf = io.StringIO()
    write_bbsc_csv(history, buf)
    assert buf.getvalue() == bbsc_csv_longhand(history)


# histories built state by state: widths shrink as well as grow, states may
# be empty, and cells reach 12
csv_histories = st.integers(1, 12).flatmap(
    lambda cb: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(0, cb)), max_size=40)
        .map(lambda cells: BBSCState(tuple(cells), c_box=cb)),
        max_size=12,
    )
)


@given(csv_histories)
@settings(max_examples=200, deadline=None)
def test_write_bbsc_csv_matches_naive_writer(history):
    buf = io.StringIO()
    write_bbsc_csv(history, buf)
    assert buf.getvalue() == bbsc_csv_longhand(history)


# --- the in-regime tropical map ----------------------------------------------------


@st.composite
def swept_states(draw):
    """States of capacities 1..5 after 0..3 sweeps."""
    cb, cc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, cb), min_size=1, max_size=12))
    return evolve_bbsc(BBSCState(tuple(cells), cb, cc), draw(st.integers(0, 3)))[-1]


@given(swept_states())
@settings(max_examples=200, deadline=None)
def test_sweep_is_the_in_regime_tropical_map(state):
    # u' = v + min(c_box, u+v) - min(c_carrier, u+v) with u the box and v the
    # load entering it, unshifted, at every box of the sweep (appended boxes
    # start empty)
    new, loads = bbsc_sweep(state)
    cb, cc = state.c_box, state.c_carrier
    for k, u2 in enumerate(new.u):
        u = state.u[k] if k < len(state.u) else 0
        w = u + loads[k]
        assert u2 == loads[k] + min(cb, w) - min(cc, w)


# --- the rational-to-tropical bridge ----------------------------------------------


def reference_state():
    return evolve_bbsc(BBSCState((3, 0, 0, 0, 1, 0), c_box=3, c_carrier=1), 3)[-1]


def test_ud_limit_gap_shrinks_with_epsilon():
    gaps = ud_limit_check(reference_state(), [1.0, 0.1, 0.01, 0.001])
    eps = [e for e, _ in gaps]
    vals = [g for _, g in gaps]
    assert eps == [1.0, 0.1, 0.01, 0.001]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2
    # the leading error constant is eps * log 2 at the min/max tie sites
    assert vals[-1] == pytest.approx(0.001 * math.log(2), rel=1e-3)


def test_ud_limit_vacuum_is_exact():
    # w = u + v = 0 at every box, where the tie term is exactly 0
    epsilons = [3.78, 1.255, 1.0, 0.5, 0.25, 0.083, 1e-6]
    gaps = ud_limit_check(BBSCState((0,) * 6, c_box=3, c_carrier=1), epsilons)
    assert gaps == [(e, 0.0) for e in epsilons]


@given(swept_states())
@settings(max_examples=50, deadline=None)
def test_ud_limit_is_exact_at_equal_capacities(state):
    # alpha = beta makes the map x' = y, and the sweep u' = v
    state = BBSCState(state.u, state.c_box, state.c_box)
    assert ud_limit_check(state, [1.0, 0.1, 1e-6]) == [(1.0, 0.0), (0.1, 0.0), (1e-6, 0.0)]


def assert_gaps_equal_the_decimal_longhand(state, epsilons):
    got = [g for _, g in ud_limit_check(state, epsilons)]
    expected = ud_gaps_longhand(state.u, state.c_box, state.c_carrier, epsilons)
    assert got == pytest.approx(expected, rel=0, abs=1e-12)


@given(swept_states())
@settings(max_examples=50, deadline=None)
def test_ud_limit_gaps_equal_the_decimal_longhand(state):
    # verify's default ladder
    assert_gaps_equal_the_decimal_longhand(state, [1.0, 0.1, 0.01, 0.001])


@given(swept_states(), st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=5, unique=True))
@settings(max_examples=100, deadline=None)
def test_ud_limit_check_matches_the_decimal_longhand(state, epsilons):
    # 1 to 5 distinct epsilons from 3 down to 1e-6, taken largest first
    assert_gaps_equal_the_decimal_longhand(state, sorted(epsilons, reverse=True))


@pytest.mark.parametrize("c_box, c_carrier, match", [
    (math.inf, 1, "finite box capacity"), (3, math.inf, "finite carrier capacity"),
    (math.nan, 1, "c_box"), (3, math.nan, "c_carrier"), (-math.inf, 1, "c_box"),
    (0, 1, "c_box")], ids=["inf_box", "inf_carrier", "nan_box", "nan_carrier",
                           "neg_inf_box", "zero_box"])
def test_ud_limit_needs_finite_positive_capacities(c_box, c_carrier, match):
    # an infinite or nan capacity would turn every gap into nan; the state
    # rejects all but inf, and the limit check rejects inf
    with pytest.raises(NonPositiveParameter, match=match):
        ud_limit_check(BBSCState((1, 0), c_box=c_box, c_carrier=c_carrier), [1.0])


def test_field_from_state_needs_finite_boxes():
    state = BBSCState((1, 0), c_box=math.inf, c_carrier=1)
    with pytest.raises(NonPositiveParameter, match="finite box capacity"):
        ud_limit_check(state, [1.0])


def test_field_from_state_needs_finite_carrier():
    # the default carrier is unbounded, which has no rational counterpart
    state = BBSCState((1, 0), c_box=2)
    with pytest.raises(NonPositiveParameter, match="finite carrier capacity"):
        ud_limit_check(state, [1.0])


def test_field_from_state_round_trip():
    # the state enters the rational map as x = exp(-u/eps), y = exp(-v/eps);
    # read back through -eps log, one step lands within eps log 2 of the
    # sweep, so rounding recovers the automaton's next occupancies
    state = BBSCState((3, 0, 0), c_box=3, c_carrier=1)
    gaps = ud_limit_check(state, [0.1, 0.01])
    assert all(g < 0.5 for _, g in gaps)
    assert gaps[-1][1] <= 0.01 * math.log(2) + 1e-12


@st.composite
def padded_states(draw):
    """States of capacities 1..5 and 3..15 boxes, padded with (ball count +
    2) empty boxes, so the carrier empties inside the window."""
    cb, cc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, cb), min_size=3, max_size=15))
    return BBSCState((*cells, *[0] * (sum(cells) + 2)), cb, cc)


def _rounds_to(x: Fraction, k: int, u: int) -> bool:
    """Whether -log2(x) / k rounds to u, that is
    2^(k (u - 1/2)) < 1/x <= 2^(k (u + 1/2)), decided on the integers of a
    positive x for an even k."""
    return x.numerator << k * u < x.denominator << k // 2 <= x.numerator << k * (u + 1)


@given(padded_states(), st.sampled_from([20, 40]))
@settings(max_examples=100, deadline=None)
def test_one_lattice_sweep_rounds_to_the_carrier_sweep(state, k):
    # the lattice kernel in the tropical regime, against the automaton: with
    # q = 2^-k, x = q^u, y = 1 entering, alpha = 1 - q^c_carrier and
    # beta = 1 - q^c_box, every x' of one evolve_gkdv step rounds to q^u',
    # and the y carried into each box rounds to q^load
    q = Fraction(1, 2 ** k)
    params = SystemParams(1 - q ** state.c_carrier, 1 - q ** state.c_box)
    field = evolve_gkdv([q ** u for u in state.u], params, 1)
    new, loads = bbsc_sweep(state)
    x_next, ys, loads = field.xs[1], field.ys[0], loads[:-1]
    assert len(new.u) == len(x_next) == len(ys) == len(loads)
    assert [n for n, (x, u) in enumerate(zip(x_next, new.u)) if not _rounds_to(x, k, u)] == []
    assert [n for n, (y, v) in enumerate(zip(ys, loads)) if not _rounds_to(y, k, v)] == []


def test_ud_limit_needs_a_box():
    with pytest.raises(EmptyField):
        ud_limit_check(BBSCState((), c_box=3, c_carrier=1), [1.0])


def test_ud_limit_epsilon_validation():
    state = reference_state()
    with pytest.raises(NonPositiveEpsilon):
        ud_limit_check(state, [1.0, 0.0])
    with pytest.raises(NonPositiveEpsilon):
        ud_limit_check(state, [1.0, 1e-9])
    with pytest.raises(ValueError):
        ud_limit_check(state, [0.1, 0.1])
    # nan passes every comparison above, and inf reaches log(0)
    for eps in ([math.nan], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(NonPositiveEpsilon, match="finite"):
            ud_limit_check(state, eps)


@pytest.mark.parametrize("alpha, beta", [(REF_PARAMS.alpha, REF_PARAMS.beta),
                                         (REF_PARAMS.beta, REF_PARAMS.alpha),
                                         (Fraction(3, 4), Fraction(3, 4))])
def test_inverted_solitons_solve_the_mirror_map(alpha, beta):
    # (1/x, 1/y) of the reference modes at (alpha, beta) solve the map at
    # (1 - beta, 1 - alpha), where alpha + beta < 1: troughs become peaks
    field = sample_field(SystemParams(alpha, beta), REF_SOLITONS, (0, 3), (-6, 6))
    mirror = SystemParams(1 - beta, 1 - alpha)
    inv_x = [[1 / x for x in row] for row in field.xs]
    inv_y = [[1 / y for y in row] for row in field.ys]
    consts = _gkdv_constants(mirror)
    for j in range(3):
        for k in range(12):
            assert two_point(inv_x[j][k], inv_y[j][k], consts, field.n_lo + k) == (
                inv_x[j + 1][k], inv_y[j][k + 1])
    assert max(map(max, inv_x)) > 1

