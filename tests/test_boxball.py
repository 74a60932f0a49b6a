import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import boxball
from solitonlab import (
    BBSCState,
    UDField,
    SystemParams,
    bbsc_step,
    bbsc_sweep,
    evolve_bbsc,
    field_from_state,
    param_correspondence,
    render_ascii,
    shift_to_uv,
    tropical_step,
    ud_limit_check,
    write_bbsc_csv,
)
from solitonlab.errors import (
    CapacityViolation,
    EmptyField,
    NonFiniteSite,
    NonPositiveEpsilon,
    NonPositiveParameter,
)

from _oracles import bbsc_csv_longhand, bbsc_sweep_longhand, tropical_alt


# --- automaton hand traces ----------------------------------------------------


def test_three_ball_trace():
    # one cluster of 3 with a tight carrier crawls one box per three sweeps
    state = BBSCState((3, 0, 0), c_box=3, c_carrier=1)
    seen = [state.u]
    for _ in range(3):
        state = bbsc_step(state)
        seen.append(state.u)
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
    for t in range(1, 4):
        state = bbsc_step(state)
        assert state.u[1 + t] == 1 and sum(state.u) == 1


def test_unbounded_carrier_classic_cluster_jump():
    # 0/1 boxes, no carrier bound: a k-cluster hops k sites per step
    state = BBSCState((0, 1, 1, 0, 0, 0, 0), c_box=1)
    assert bbsc_step(state).u[:7] == (0, 0, 0, 1, 1, 0, 0)
    # with roomier boxes the drop is still capped by free space
    tall = BBSCState((0, 4, 4, 0, 0, 0, 0, 0, 0, 0), c_box=5)
    assert bbsc_step(tall).u[:5] == (0, 0, 1, 5, 2)


def test_state_validation():
    with pytest.raises(CapacityViolation):
        BBSCState((4,), c_box=3, c_carrier=1)
    with pytest.raises(CapacityViolation):
        BBSCState((-1,), c_box=3, c_carrier=1)
    # the message names the first box out of range
    with pytest.raises(CapacityViolation, match=r"^box 2 holds 4, outside \[0, 3\]$"):
        BBSCState((0, 3, 4, -1, 5), c_box=3, c_carrier=1)
    with pytest.raises(CapacityViolation, match=r"^box 1 holds -1,"):
        BBSCState((2, -1, 7), c_box=3)
    assert BBSCState((), c_box=3).u == ()
    with pytest.raises(NonPositiveParameter):
        BBSCState((1,), c_box=0, c_carrier=1)
    with pytest.raises(NonPositiveParameter):
        BBSCState((1,), c_box=3, c_carrier=0.5)


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
    for _ in range(steps):
        state = bbsc_step(state)
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
    with pytest.raises(CapacityViolation, match=r"^box 1 holds 5, outside \[0, 3\]$"):
        boxball._sweep(row, 3, 1, range(3))


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


# --- tropical form ---------------------------------------------------------------


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=12),
       st.lists(st.integers(-6, 6), min_size=12, max_size=12),
       st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_tropical_step_matches_plateau_form(xs, ys, cap_a, cap_b):
    ys = ys[:len(xs)]
    field = UDField(tuple(map(float, xs)), tuple(map(float, ys)),
                    float(cap_a), float(cap_b))
    out = tropical_step(field)
    expected = [tropical_alt(x, y, cap_a, cap_b) for x, y in zip(xs, ys)]
    assert list(out) == expected


def test_shift_to_uv_recovers_carrier_variables():
    field = UDField((-3.0, 2.0), (-1.0, 0.0), 3.0, 1.0)
    u, v = shift_to_uv(field)
    assert list(u) == [0.0, 5.0] and list(v) == [0.0, 1.0]


def test_field_from_state_round_trip():
    state = BBSCState((3, 0, 0), c_box=3, c_carrier=1)
    nxt, loads = bbsc_sweep(state)
    field = field_from_state(state, loads)
    assert field.A == 3.0 and field.B == 1.0
    u, v = shift_to_uv(field)
    assert list(u) == list(state.u)
    assert list(v) == loads[: len(state.u)]
    # one tropical step reproduces the automaton's next occupancies
    out = tropical_step(field)
    assert [x + field.A for x in out] == list(nxt.u[: len(state.u)])


def test_field_from_state_needs_finite_carrier():
    state = BBSCState((1, 0), c_box=2)
    with pytest.raises(NonPositiveParameter):
        field_from_state(state, [0, 0, 0])


def test_field_from_state_needs_finite_boxes():
    state = BBSCState((1, 0), c_box=math.inf, c_carrier=1)
    with pytest.raises(NonPositiveParameter, match="finite box capacity"):
        field_from_state(state, [0, 0, 0])


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (3.0, math.inf), (math.nan, 1.0),
                                  (3.0, math.nan), (-math.inf, 1.0), (0.0, 1.0)])
def test_ud_field_needs_positive_finite_parameters(a, b):
    # a non-finite A or B would turn every gap of ud_limit_check into nan
    with pytest.raises(NonPositiveParameter, match="positive and finite"):
        UDField((0.0,), (0.0,), a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["X", "Y"])
@pytest.mark.parametrize("site", [0, 2])
def test_ud_field_rejects_non_finite_sites(bad, name, site):
    # a later bad site would otherwise drop out of the max in ud_limit_check
    # and leave a tiny gap that reads as a pass
    row = [0.0, 0.0, 0.0]
    row[site] = bad
    other = (0.0, 0.0, 0.0)
    xy = (row, other) if name == "X" else (other, row)
    with pytest.raises(NonFiniteSite, match=f"^{name} at site {site} is ") as info:
        UDField(*xy, 3.0, 1.0)
    assert info.value.site == site


def test_ud_field_names_the_first_non_finite_site():
    with pytest.raises(NonFiniteSite, match="^Y at site 1 ") as info:
        UDField((0.0, 0.0, math.nan), (0.0, -math.inf, 0.0), 3.0, 1.0)
    assert info.value.site == 1


# --- the rational-to-tropical bridge ----------------------------------------------


def reference_field():
    state = BBSCState((3, 0, 0, 0, 1, 0), c_box=3, c_carrier=1)
    for _ in range(3):
        state = bbsc_step(state)
    nxt, loads = bbsc_sweep(state)
    return field_from_state(state, loads)


def test_ud_limit_gap_shrinks_with_epsilon():
    gaps = ud_limit_check(reference_field(), [1.0, 0.1, 0.01, 0.001])
    eps = [e for e, _ in gaps]
    vals = [g for _, g in gaps]
    assert eps == [1.0, 0.1, 0.01, 0.001]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2
    # the leading error constant is eps * log 2 at the min/max tie sites
    assert vals[-1] == pytest.approx(0.001 * math.log(2), rel=1e-3)


def test_ud_limit_vacuum_is_exact():
    vac = UDField((0.0,) * 6, (0.0,) * 6, 3.0, 1.0)
    gaps = ud_limit_check(vac, [1.0, 0.5, 0.25])
    assert all(g <= 1e-12 for _, g in gaps)


def test_ud_limit_epsilon_validation():
    field = reference_field()
    with pytest.raises(NonPositiveEpsilon):
        ud_limit_check(field, [1.0, 0.0])
    with pytest.raises(NonPositiveEpsilon):
        ud_limit_check(field, [1.0, 1e-9])
    with pytest.raises(ValueError):
        ud_limit_check(field, [0.1, 0.1])
    # nan passes every comparison above, and inf reaches log(0)
    for eps in ([math.nan], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(NonPositiveEpsilon, match="finite"):
            ud_limit_check(field, eps)


def test_param_correspondence():
    assert param_correspondence(SystemParams(Fraction(5, 6), Fraction(14, 15))) == "B_gt_C"
    assert param_correspondence(SystemParams(Fraction(14, 15), Fraction(5, 6))) == "B_lt_C"
    assert param_correspondence(SystemParams(Fraction(5, 6), Fraction(5, 6))) == "B_eq_C"
