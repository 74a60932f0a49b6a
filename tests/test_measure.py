import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    BBSCState,
    SystemParams,
    Track,
    amplitude,
    detect_bbsc_solitons,
    evolve_bbsc,
    measure_velocity,
    overtake_report,
    sample_x_float,
    track_amplitude,
    track_troughs,
    velocity,
)
from solitonlab.errors import (
    InconsistentCapacities,
    MixedTrackKinds,
    SolitonLabError,
    TooFewSamples,
)
from solitonlab import measure
from solitonlab.measure import _assign, _interp, _row_minima, _usable_samples

from _oracles import (
    REF_PARAMS,
    REF_SOLITONS,
    clusters_longhand,
    detect_bbsc_solitons_longhand,
    interp_longhand,
    lsq_slope_exact,
)


def _tracks(params, solitons, t_range, n_range):
    rows = sample_x_float(params, solitons, t_range, n_range)
    return track_troughs(params, rows, n_range[0], t_range[0])


@pytest.fixture(scope="module")
def two_soliton_tracks():
    return _tracks(REF_PARAMS, REF_SOLITONS, (0, 60), (-30, 90))


def test_two_tracks_found(two_soliton_tracks):
    assert len(two_soliton_tracks) == 2


def test_measured_velocities_match_closed_form(two_soliton_tracks):
    deep, shallow = two_soliton_tracks
    assert abs(measure_velocity(deep, [shallow])
               - velocity(REF_PARAMS, Fraction(1, 30))) < 0.01
    assert abs(measure_velocity(shallow, [deep])
               - velocity(REF_PARAMS, Fraction(2, 15))) < 0.01


def test_measured_amplitudes_match_closed_form(two_soliton_tracks):
    deep, shallow = two_soliton_tracks
    assert abs(track_amplitude(deep, [shallow])
               - amplitude(REF_PARAMS, Fraction(1, 30))) < 0.005
    assert abs(track_amplitude(shallow, [deep])
               - amplitude(REF_PARAMS, Fraction(2, 15))) < 0.005


def test_a_track_among_the_others_is_skipped(two_soliton_tracks):
    # measured against the whole list, a track ignores itself
    for tr in two_soliton_tracks:
        others = [o for o in two_soliton_tracks if o is not tr]
        assert measure_velocity(tr, two_soliton_tracks) == measure_velocity(tr, others)
        assert track_amplitude(tr, two_soliton_tracks) == track_amplitude(tr, others)


def test_overtake_inferred_from_merged_start(two_soliton_tracks):
    # the window opens mid-collision, so no order swap is visible, but the
    # smaller soliton emerges ahead with the greater speed
    report = overtake_report(two_soliton_tracks)
    assert report["anomaly"] == "smaller_faster"
    assert report["crossing"] is False
    amps = [row["amplitude"] for row in report["tracks"]]
    assert min(amps) == pytest.approx(0.3637, abs=0.005)
    assert max(amps) == pytest.approx(0.7222, abs=0.005)


def test_order_swap_visible_on_a_wider_window():
    tracks = _tracks(REF_PARAMS, REF_SOLITONS, (-30, 40), (-60, 70))
    assert len(tracks) == 2
    report = overtake_report(tracks)
    assert report["crossing"] is True
    assert report["anomaly"] == "smaller_faster"
    # both tracks survive the 30-odd rows of merged detections
    assert all(tr.first_t == -30 and tr.last_t == 40 for tr in tracks)


def test_swapped_parameters_larger_leads():
    # alpha > beta reverses the speed law: the taller soliton wins the race
    params = SystemParams(Fraction(14, 15), Fraction(5, 6))
    tracks = _tracks(params, REF_SOLITONS, (0, 60), (-30, 110))
    assert len(tracks) == 2
    report = overtake_report(tracks)
    assert report["anomaly"] == "none"
    rows = sorted(report["tracks"], key=lambda r: r["amplitude"])
    assert rows[0]["speed"] < rows[1]["speed"]


def test_equal_parameters_tracks_are_parallel():
    params = SystemParams(Fraction(5, 6), Fraction(5, 6))
    sols = [(Fraction(1, 15), Fraction(-20)), (Fraction(1, 30), Fraction(-1, 60))]
    tracks = _tracks(params, sols, (0, 40), (-10, 50))
    assert len(tracks) == 2
    for tr in tracks:
        others = [o for o in tracks if o is not tr]
        assert measure_velocity(tr, others) == pytest.approx(1.0, abs=1e-6)
    report = overtake_report(tracks)
    assert report["crossing"] is False
    assert report["anomaly"] == "none"


def test_single_soliton_measurement():
    rows = sample_x_float(REF_PARAMS, [REF_SOLITONS[1]], (0, 45), (-10, 50))
    (track,) = track_troughs(REF_PARAMS, rows, -10, 0)
    assert measure_velocity(track) == pytest.approx(0.723, abs=0.01)
    assert track_amplitude(track) == pytest.approx(0.722, abs=0.005)
    # the raw row maximum only reads true when the trough sits on a site
    centered = max(abs(v - 1.0) for row in rows for v in row)
    assert centered == pytest.approx(0.722, abs=0.005)
    report = overtake_report([track])
    assert report == {"tracks": [{"amplitude": track_amplitude(track),
                                  "speed": measure_velocity(track),
                                  "first_t": 0, "last_t": 45}],
                      "crossing": False, "anomaly": "none"}


def test_tracks_are_in_lattice_coordinates():
    # times count from t0 and positions from n_lo: each sample lies within
    # half a site of its row's minimum
    rows = sample_x_float(REF_PARAMS, [REF_SOLITONS[1]], (5, 30), (-10, 50))
    (track,) = track_troughs(REF_PARAMS, rows, -10, 5)
    assert track.times == list(range(5, 31))
    for t, pos in zip(track.times, track.positions):
        row = rows[t - 5]
        assert abs(pos - (-10 + row.index(min(row)))) <= 0.5


@pytest.mark.parametrize("row", [
    [1, 0.5, 0, 0.5, 1],  # x = 0 has no logarithm
    [1, math.nextafter(1e-300, 1), 1e-300, 1e-300, 1],  # log x is flat: no curvature
], ids=["zero", "flat_log"])
def test_a_minimum_that_no_parabola_fits_keeps_its_site_and_depth(row):
    assert _row_minima(row) == [(2.0, 1.0)]


@given(st.lists(st.integers(1, 4), min_size=1, max_size=12),
       st.integers(-20, 20),
       st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-100, 100)),
                min_size=12, max_size=12),
       st.one_of(st.integers(-30, 70), st.floats(-30, 70)))
@settings(max_examples=300, deadline=None)
def test_interp_matches_the_longhand_scan(steps, t0, values, x):
    # integer knot times, float or integer values, x on, between and
    # beyond the knots: the bisection and the scan agree bit for bit
    xp = [t0 + sum(steps[:k + 1]) for k in range(len(steps))]
    fp = values[:len(xp)]
    assert _interp(x, xp, fp).hex() == interp_longhand(x, xp, fp).hex()


def test_velocity_of_a_straight_line_is_one():
    tr = Track([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], [0.5] * 4)
    assert measure_velocity(tr) == 1.0 and tr.speed == 1


# (row step, position) pairs: steps above 2 split a track into segments, so
# the draws include gapped tracks and single-sample segments
track_samples = st.lists(
    st.tuples(st.integers(1, 5),
              st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
    min_size=2, max_size=40)


@given(st.integers(-50, 50), track_samples)
@settings(max_examples=300, deadline=None)
def test_velocity_is_the_exact_slope_rounded_once(t0, steps):
    times = []
    t = t0
    for step, _ in steps:
        t += step
        times.append(t)
    positions = [pos for _, pos in steps]
    tr = Track(times, positions, [0.5] * len(times))
    try:
        expected = lsq_slope_exact(list(zip(times, positions)))
    except ZeroDivisionError:  # no segment with two samples
        with pytest.raises(TooFewSamples):
            measure_velocity(tr)
        return
    assert measure_velocity(tr) == float(expected)


def test_too_few_samples_paths():
    lone = Track([0], [0.0], [0.5])
    with pytest.raises(TooFewSamples):
        measure_velocity(lone)
    # every sample shadowed by a nearby neighbor
    a = Track([0, 1, 2], [0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
    b = Track([0, 1, 2], [0.5, 1.5, 2.5], [0.3, 0.3, 0.3])
    with pytest.raises(TooFewSamples):
        measure_velocity(a, [b])
    with pytest.raises(TooFewSamples):
        track_amplitude(a, [b])
    # a cluster seen on one row has no speed, so it cannot be reported
    once = Track([0], [3], [1])
    with pytest.raises(TooFewSamples, match="cluster seen only once"):
        once.speed
    with pytest.raises(TooFewSamples, match="cluster seen only once"):
        overtake_report([once])


# --- box-ball cluster measurement ---------------------------------------------


def test_cluster_speeds_exact():
    hist = evolve_bbsc(BBSCState((3, 0, 0, 0, 1), c_box=3, c_carrier=1), 9)
    tracks = detect_bbsc_solitons(hist)
    assert [tr.sizes[0] for tr in tracks] == [3, 1]
    assert tracks[0].speed == Fraction(1, 3)
    assert tracks[1].speed == Fraction(1)
    report = overtake_report(tracks)
    assert report["tracks"][0]["speed"] == "1/3"
    assert report["crossing"] is False
    assert report["anomaly"] == "none"


def test_cluster_collision_reemits_the_fast_ball():
    # fast ball behind the slow cluster: it is absorbed, a ball comes out ahead
    hist = evolve_bbsc(BBSCState((1, 0, 0, 3, 0, 0, 0, 0, 0, 0),
                                 c_box=3, c_carrier=1), 12)
    tracks = detect_bbsc_solitons(hist)
    amps = [tr.sizes[0] for tr in tracks]
    assert amps.count(3) == 1 and amps.count(1) == 2
    cluster = tracks[amps.index(3)]
    emitted = [tr for tr in tracks if tr.sizes[0] == 1 and tr.first_t > 0][0]
    assert emitted.speed == 1
    # the cluster's pre-collision crawl is slower than its lifetime average
    assert cluster.positions[:2] == [3, 3] and cluster.speed > 0
    assert sum(s.balls for s in hist[-1:]) == 4


def as_tuples(tracks):
    return [(tr.times, tr.positions, tr.sizes[0]) for tr in tracks]


def run_sizes(history, tr):
    """Ball count of the longhand run that starts at each sample's position."""
    return [{lo: cnt for lo, _, cnt in clusters_longhand(history[t].u)}.get(pos)
            for t, pos in zip(tr.times, tr.positions)]


# rows built one by one, mostly empty boxes: clusters appear, vanish, split
# and merge between rows, widths shrink as well as grow, and a cluster often
# overlaps several of the previous row's, with ties
random_histories = st.integers(1, 4).flatmap(
    lambda cb: st.lists(
        st.lists(st.one_of(st.just(0), st.just(0), st.integers(0, cb)), max_size=30)
        .map(lambda cells: BBSCState(tuple(cells), c_box=cb, c_carrier=1)),
        min_size=1, max_size=15,
    )
)


@given(random_histories)
@settings(max_examples=150, deadline=None)
def test_cluster_tracks_match_longhand_on_random_rows(history):
    tracks = detect_bbsc_solitons(history)
    assert as_tuples(tracks) == detect_bbsc_solitons_longhand(history)
    assert all(tr.sizes == run_sizes(history, tr) for tr in tracks)


@given(st.integers(2, 5).flatmap(lambda cb: st.tuples(
           st.just(cb),
           st.lists(st.integers(0, cb), min_size=1, max_size=40),
           st.integers(1, cb - 1))),
       st.integers(20, 120))
@settings(max_examples=40, deadline=None)
def test_cluster_tracks_match_longhand_on_evolved_histories(setup, steps):
    # c_box > c_carrier, as on the benchmark panel: clusters collide
    cb, cells, cc = setup
    history = evolve_bbsc(BBSCState(tuple(cells), c_box=cb, c_carrier=cc), steps)
    tracks = detect_bbsc_solitons(history)
    assert as_tuples(tracks) == detect_bbsc_solitons_longhand(history)
    assert all(tr.sizes == run_sizes(history, tr) for tr in tracks)


def test_cluster_overlap_tie_goes_to_the_first_previous_cluster():
    # the merged cluster overlaps each earlier cluster by two boxes; pass 1
    # keeps the first maximum, so the left track continues
    history = [BBSCState((1, 1, 0, 0, 1, 1), c_box=1, c_carrier=1),
               BBSCState((1, 1, 1, 1, 1, 1), c_box=1, c_carrier=1)]
    expected = [([0, 1], [0, 0], 2), ([0], [4], 2)]
    assert as_tuples(detect_bbsc_solitons(history)) == expected
    assert detect_bbsc_solitons_longhand(history) == expected


def test_detect_on_an_empty_history_finds_nothing():
    assert detect_bbsc_solitons([]) == []


def test_detect_rejects_mixed_capacities():
    a = BBSCState((1, 0), c_box=3, c_carrier=1)
    b = BBSCState((0, 1), c_box=2, c_carrier=1)
    with pytest.raises(InconsistentCapacities):
        detect_bbsc_solitons([a, b])


def test_overtake_report_input_validation():
    hist = evolve_bbsc(BBSCState((3, 0, 0, 0, 1), c_box=3, c_carrier=1), 9)
    tracks = detect_bbsc_solitons(hist)
    trough = Track([0, 1], [0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        overtake_report([tracks[0], trough])
    with pytest.raises(ValueError):
        overtake_report([*tracks, trough])
    # the ValueError is a typed SolitonLabError
    with pytest.raises(MixedTrackKinds, match="cannot mix") as info:
        overtake_report([trough, tracks[0]])
    assert isinstance(info.value, SolitonLabError)


def test_overtake_report_of_no_tracks():
    assert overtake_report([]) == {"tracks": [], "crossing": False, "anomaly": "none"}


def test_overtake_report_measures_each_trough_against_the_others():
    # A runs at speed 1 through B, which stands at 10; A's depth reads 0.9
    # at the collision and 0.5 elsewhere.  C stays far from both.
    times = list(range(20))
    a = Track(times, [float(t) for t in times],
                    [0.9 if t == 10 else 0.5 for t in times])
    b = Track(times, [10.0] * 20, [0.3] * 20)
    c = Track(times, [100.0 + 0.5 * t for t in times], [0.2] * 20)
    tracks = [a, b, c]
    report = overtake_report(tracks)
    expected = []
    for tr in tracks:
        others = [o for o in tracks if o is not tr]
        expected.append({"amplitude": track_amplitude(tr, others),
                         "speed": measure_velocity(tr, others),
                         "first_t": 0, "last_t": 19})
    assert report == {"tracks": expected, "crossing": False, "anomaly": "none"}
    assert [row["amplitude"] for row in report["tracks"]] == [0.5, 0.3, 0.2]
    assert [row["speed"] for row in report["tracks"]] == [1.0, 0.0, 0.5]


def test_overtake_report_runs_one_exclusion_pass_per_trough_track(monkeypatch):
    times = list(range(20))
    tracks = [Track(times, [float(t) for t in times], [0.5] * 20),
              Track(times, [10.0] * 20, [0.3] * 20),
              Track(times, [100.0 + 0.5 * t for t in times], [0.2] * 20)]
    expected = overtake_report(tracks)
    calls = []

    def spy(track, others):
        calls.append(track)
        return _usable_samples(track, others)

    monkeypatch.setattr(measure, "_usable_samples", spy)
    assert overtake_report(tracks) == expected
    assert calls == tracks


def test_overtake_report_raises_an_amplitude_failure_before_a_speed_failure():
    # A is clear of B and C at t = 5 only, too few samples for a speed; B
    # and C are never clear, so neither has an amplitude
    a = Track(list(range(6)), [0.0] * 6, [0.5] * 6)
    b = Track(list(range(6)), [1.0] * 5 + [10.0], [0.3] * 6)
    c = Track([5], [12.0], [0.1])
    with pytest.raises(TooFewSamples, match="^1 usable samples$"):
        measure_velocity(a, [b, c])
    with pytest.raises(TooFewSamples, match="^no collision-free samples$"):
        overtake_report([a, b, c])


def test_a_track_outside_its_life_span_runs_on_along_its_own_line():
    # B runs 6 sites behind A at A's speed and is lost after t = 10; run on
    # along its own line it stays 6 sites back, outside the radius, so all
    # of A counts and A's depth after t = 20 is read
    a = Track(list(range(41)), [0.7 * t + 6 for t in range(41)],
              [0.5 if t < 20 else 0.6 for t in range(41)])
    b = Track(list(range(11)), [0.7 * t for t in range(11)], [0.3] * 11)
    assert len(_usable_samples(a, [b])) == 41
    assert track_amplitude(a, [b]) == 0.6
    # a track seen once holds its position: A is within the radius of 34
    # at t = 34..40 only
    c = Track([40], [34.0], [0.3])
    assert [t for t, _, _ in _usable_samples(a, [c])] == list(range(34))


def _cluster_rows(tracks):
    return [{"amplitude": float(tr.sizes[0]), "speed": str(tr.speed),
             "first_t": tr.first_t, "last_t": tr.last_t} for tr in tracks]


def test_overtake_report_of_one_and_three_clusters():
    hist = evolve_bbsc(BBSCState((1, 0, 0, 3, 0, 0, 0, 0, 0, 0),
                                 c_box=3, c_carrier=1), 12)
    tracks = detect_bbsc_solitons(hist)
    assert len(tracks) == 3
    for subset in (tracks[:1], tracks):
        assert overtake_report(subset) == {"tracks": _cluster_rows(subset),
                                           "crossing": False, "anomaly": "none"}


def test_overtake_report_without_a_common_life_span():
    # the spans [0, 2] and [5, 7] are disjoint, so each track's own endpoints
    # are compared: the single ball starts 5 sites behind and ends 1 ahead
    small = Track([0, 1, 2], [0, 1, 2], [1, 1, 1])
    big = Track([5, 6, 7], [5, 3, 1], [2, 2, 2])
    report = overtake_report([small, big])
    assert report["crossing"] is True
    assert report["anomaly"] == "smaller_faster"


def test_cluster_position_at():
    tr = Track([2, 4, 5], [10, 13, 14], [1, 1, 1])
    assert [tr.position_at(t) for t in (2, 4, 5)] == [10.0, 13.0, 14.0]
    assert tr.position_at(3) == 11.5
    assert tr.position_at(0) == 10.0 and tr.position_at(9) == 14.0


def test_assign_keeps_maximum_cardinality_with_many_tracks():
    # six far-apart tracks matched exactly, plus A at 10.0 and B at 11.9 with
    # detections at 10.1 and 8.1: the cheapest pair A->10.1 strands B, while
    # A->8.1 and B->10.1 match both
    far = [100.0 * (i + 1) for i in range(6)]
    active = [Track([0], [x], [0.5]) for x in far + [10.0, 11.9]]
    dets = [(x, 0.5) for x in far] + [(10.1, 0.5), (8.1, 0.5)]
    assignment = _assign(active, dets, 1, 2.0)
    assert assignment == {**{i: i for i in range(6)}, 6: 7, 7: 6}
