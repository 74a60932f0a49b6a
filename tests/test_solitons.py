import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from solitonlab import (
    KPParams,
    SystemParams,
    amplitude,
    check_kp_bilinear,
    check_reduction,
    kp_tau,
    random_kp_params,
    sample_field,
    sample_x_float,
    scan_monotonicity,
    validate,
    velocity,
)
from solitonlab import solitons
from solitonlab.lattice import _gkdv_constants, _sweep
from solitonlab.errors import (
    ConstraintViolated,
    DegenerateP,
    DenominatorClash,
    DrawExhausted,
    DuplicateP,
    FloatLawUndefined,
    GammaSignCondition,
    GridTooSmall,
    InvalidInterval,
    POutOfRange,
    SolitonLabError,
    TooManyModes,
    WindowTooSmall,
    ZeroTau,
)

from _oracles import (
    FALLBACK_MODES,
    REF_PARAMS,
    REF_SOLITONS,
    REGIMES,
    cofactor_tau,
    det_cofactor,
    kp_matrix_longhand,
    laws_decimal,
    mirror_free,
    one_soliton_xy,
    random_kp_params_longhand,
    scan_longhand,
    soliton_systems,
    subset_tables_longhand,
    tau_grid_longhand,
    ulps,
    x_float_longhand,
)

SPAN = Fraction(23, 30)
MID = SPAN / 2


# --- closed-form speed and amplitude -----------------------------------------


def test_midpoint_is_the_fixed_point():
    # the speed law's limit at the midpoint is h_B / h_A
    # = (1 + alpha - beta) / (1 + beta - alpha), and 1 at alpha = beta
    assert velocity(REF_PARAMS, MID) == 9 / 11
    assert velocity(SystemParams(Fraction(14, 15), Fraction(5, 6)), MID) == 11 / 9
    assert velocity(SystemParams(Fraction(5, 6), Fraction(5, 6)), Fraction(1, 3)) == 1.0
    assert amplitude(REF_PARAMS, MID) == 0.0


def test_equal_parameters_speed_is_one_everywhere():
    params = SystemParams(Fraction(5, 6), Fraction(5, 6))
    for k in range(1, 10):
        p = Fraction(2, 3) * k / 10
        assert velocity(params, p) == 1.0


# the float laws against laws_decimal, in units of the last place: the
# worst of 1.3e5 random draws (the unit_fractions pairs, p at random, near
# the midpoint and on the grids span * k / m) read 3.2 for v and 2.6 for W
V_ULPS, W_ULPS = 4, 3


def _assert_laws_near_decimal(params, p):
    v, w = laws_decimal(params.alpha, params.beta, p)
    assert ulps(velocity(params, p), v) <= V_ULPS
    assert ulps(amplitude(params, p), w) <= W_ULPS


unit_fractions = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                              max_denominator=1000)


@given(unit_fractions, unit_fractions, unit_fractions)
@example(Fraction(260, 493), Fraction(1, 851), Fraction(1, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_speed_and_amplitude_symmetric_about_midpoint(alpha, u, k):
    # both laws are even in p - span / 2, and evaluated on its absolute
    # value, so p and span - p give the same floats; beta = 1 - alpha +
    # alpha * u covers every admissible pair
    params = SystemParams(alpha, 1 - alpha + alpha * u)
    span = alpha * u
    for law in (velocity, amplitude):
        assert law(params, span * k).hex() == law(params, span - span * k).hex()


@given(unit_fractions, unit_fractions, unit_fractions, unit_fractions, st.booleans())
@settings(max_examples=150, deadline=None)
def test_the_speed_order_follows_alpha_minus_beta_and_the_amplitude_rises(
        alpha, u, k, m, right):
    # on one half, in decimal: |p - span / 2| grows from p1 to p2, and v
    # falls when alpha < beta and rises when alpha > beta (the theorem of the
    # solitons module docstring), while W rises
    assume(k != m)
    params = SystemParams(alpha, 1 - alpha + alpha * u)
    assume(params.alpha != params.beta)
    span = alpha * u
    p1, p2 = (span / 2 * x for x in (max(k, m), min(k, m)))
    if right:
        p1, p2 = span - p1, span - p2
    (v1, w1), (v2, w2) = (laws_decimal(params.alpha, params.beta, p) for p in (p1, p2))
    assert (v2 < v1) == (params.alpha < params.beta)
    assert v2 != v1 and w2 > w1


@st.composite
def wavenumbers(draw):
    """(params, p) in each regime alpha < beta, alpha = beta, alpha > beta;
    p is the interval midpoint in about half of the draws."""
    a, b = (draw(st.fractions(min_value=Fraction(11, 20), max_value=Fraction(19, 20),
                              max_denominator=60)) for _ in range(2))
    regime = draw(st.sampled_from(["lt", "eq", "gt"]))
    if regime == "eq":
        b = a
    else:
        assume(a != b)
        a, b = (min(a, b), max(a, b)) if regime == "lt" else (max(a, b), min(a, b))
    span = a + b - 1
    if draw(st.booleans()):
        return SystemParams(a, b), span / 2
    n = draw(st.integers(min_value=2, max_value=2000))
    return SystemParams(a, b), span * draw(st.integers(min_value=1, max_value=n - 1)) / n


@given(wavenumbers())
@settings(max_examples=200, deadline=None)
def test_laws_match_the_decimal_longhand(case):
    _assert_laws_near_decimal(*case)


SCAN_REGIMES = [REF_PARAMS, SystemParams(Fraction(14, 15), Fraction(5, 6)),
                SystemParams(Fraction(5, 6), Fraction(5, 6)),
                SystemParams(Fraction(7, 9), Fraction(11, 13))]
SCAN_IDS = ["lt", "gt", "eq", "lt_7_9_11_13"]


def _laws_via_abd(params, p):
    return velocity(params, p), amplitude(params, p)


def _assert_grid_matches_abd(params, grid_size):
    span = params.alpha + params.beta - 1
    vs, ws = solitons._law_grid(params, grid_size)
    assert len(vs) == len(ws) == grid_size
    for k in range(1, grid_size + 1):
        v, w = _laws_via_abd(params, span * k / (grid_size + 1))
        assert (vs[k - 1].hex(), ws[k - 1].hex()) == (v.hex(), w.hex()), k


@pytest.mark.parametrize("params", SCAN_REGIMES, ids=SCAN_IDS)
def test_scan_law_grid_matches_abd_bit_for_bit(params):
    # the scan's mirrored integer linear forms against the one-point laws
    _assert_grid_matches_abd(params, 2001)


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                    max_denominator=200),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                    max_denominator=200),
       st.integers(min_value=3, max_value=60))
@settings(max_examples=150, deadline=None)
def test_scan_law_grid_matches_abd_on_random_params(alpha, u, grid_size):
    # beta = 1 - alpha + alpha * u covers (1 - alpha, 1): every admissible pair
    _assert_grid_matches_abd(SystemParams(alpha, 1 - alpha + alpha * u), grid_size)


@pytest.mark.parametrize("params", SCAN_REGIMES, ids=SCAN_IDS)
def test_scan_law_grid_matches_the_longhand_constants(params):
    # a path that shares nothing with the grid or the one-point laws, on a
    # seeded sample that always holds the ends and the midpoint k = 1001
    grid_size = 2001
    span = params.alpha + params.beta - 1
    vs, ws = solitons._law_grid(params, grid_size)
    ks = {1, 1001, grid_size, *Random(11).sample(range(1, grid_size + 1), 60)}
    for k in sorted(ks):
        v, w = laws_decimal(params.alpha, params.beta, span * k / (grid_size + 1))
        assert ulps(vs[k - 1], v) <= V_ULPS and ulps(ws[k - 1], w) <= W_ULPS, k


def test_law_grid_special_cases_are_exact():
    # alpha = beta: h_A = h_B, so both log1p arguments are one float and v
    # is 1.0 exactly
    vs, _ = solitons._law_grid(SystemParams(Fraction(5, 6), Fraction(5, 6)), 2001)
    assert set(vs) == {1.0}
    # an odd grid puts k = 1001 on the midpoint, u = 0, where v is the one
    # quotient h_B / h_A and W is 0
    for params in SCAN_REGIMES:
        vs, ws = solitons._law_grid(params, 2001)
        assert (vs[1000], ws[1000]) == (float((1 + params.alpha - params.beta)
                                              / (1 + params.beta - params.alpha)), 0.0)
        assert math.copysign(1.0, ws[1000]) == 1.0


# the README's scan claims, checked on the dict that `scan` prints
README_SCAN_CASES = [
    # the README's tiny-span pairs, spans 1e-6 and 1e-4; the ids name the
    # false v violations of the cancelling forms -log A / log B there
    (SystemParams(Fraction(1, 2), Fraction(500001, 1000000)), 0),
    (SystemParams(Fraction(1, 2), Fraction(5001, 10000)), 0),
    # near alpha = beta, where every left-half difference is below the tolerance
    (SystemParams(Fraction(5, 6), Fraction(4166666667, 5000000000)), 0),
]


def _assert_scan_matches_the_longhand(params, grid_size):
    # the violations and the W extremum must be the longhand's exactly.  So
    # must the v extremum, except where v is flat to within the laws' error:
    # there the argmax of floats within V_ULPS of v may fall on another grid
    # point, and a point whose exact v is within twice that of the
    # longhand's extremum is a tie
    rep, ref = scan_monotonicity(params, grid_size), scan_longhand(params, grid_size)
    p_rep, p_ref = rep.pop("v_extremum_p"), ref.pop("v_extremum_p")
    assert json.dumps(rep) == json.dumps(ref)
    if p_rep != p_ref:
        v_rep, v_ref = (laws_decimal(params.alpha, params.beta, Fraction(p))[0]
                        for p in (p_rep, p_ref))
        assert ulps(float(v_rep), v_ref) <= 2 * V_ULPS
    return rep


@pytest.mark.parametrize("params", SCAN_REGIMES, ids=SCAN_IDS)
def test_scan_equals_the_longhand_scan(params):
    _assert_scan_matches_the_longhand(params, 2001)


@pytest.mark.parametrize("params, v_breaks", README_SCAN_CASES,
                         ids=["tiny_span_997", "tiny_span_406", "near_equal"])
def test_scan_equals_the_longhand_scan_on_the_readme_pairs(params, v_breaks):
    rep = _assert_scan_matches_the_longhand(params, 2001)
    assert [b["quantity"] for b in rep["violations"]] == ["v"] * v_breaks


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                    max_denominator=200),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                    max_denominator=200),
       st.integers(min_value=2, max_value=30), st.booleans())
@settings(max_examples=150, deadline=None)
def test_scan_equals_the_longhand_scan_on_random_params(alpha, u, half, on_grid):
    # grid_size + 1 even puts the midpoint on a grid point, odd puts it
    # between two; beta = 1 - alpha + alpha * u covers every admissible pair
    grid_size = 2 * half - 1 if on_grid else 2 * half
    _assert_scan_matches_the_longhand(SystemParams(alpha, 1 - alpha + alpha * u), grid_size)


@pytest.mark.parametrize("vs, ws, expected", [
    # midpoint on the grid (k = 3 of 5): the pairs ending and starting there
    # are checked, each against the rule of its half
    ([0.7, 0.8, 0.9, 0.8, 0.7], [0.5, 0.4, 0.45, 0.4, 0.5],
     [("w", "23/90", "23/60"), ("w", "23/60", "23/45")]),
    # midpoint between k = 2 and 3 of 4: that pair has no rule
    ([0.7, 0.8, 0.8, 0.7], [0.5, 0.4, 0.45, 0.5], []),
    # v must rise on the left and fall on the right (alpha < beta), and both
    # laws break on one pair of each half and on the pair that ends at the
    # midpoint: pairs ascending, w before v within a pair
    ([0.9, 0.8, 0.7, 0.6, 0.65], [0.3, 0.4, 0.5, 0.45, 0.4],
     [("w", "23/180", "23/90"), ("v", "23/180", "23/90"),
      ("w", "23/90", "23/60"), ("v", "23/90", "23/60"),
      ("w", "23/60", "23/45"),
      ("w", "23/45", "23/36"), ("v", "23/45", "23/36")]),
], ids=["on_grid", "between_points", "both_laws_break"])
def test_scan_halves_at_the_midpoint(monkeypatch, vs, ws, expected):
    # the laws are stubbed; which half a pair lies on is the only rule, and
    # the report lists the breaks in pair order
    monkeypatch.setattr(solitons, "_law_grid", lambda params, grid_size: (vs, ws))
    rep = scan_monotonicity(REF_PARAMS, len(vs))
    assert [(b["quantity"], b["p_left"], b["p_right"])
            for b in rep["violations"]] == expected


def test_scan_rejects_a_grid_below_three():
    for grid_size in (2, 0, -1):
        with pytest.raises(GridTooSmall, match="at least 3"):
            scan_monotonicity(REF_PARAMS, grid_size)
    assert scan_monotonicity(REF_PARAMS, 3)["grid"] == 3


@pytest.mark.parametrize("call", [
    lambda params: validate(params, []),
    lambda params: velocity(params, Fraction(1, 10)),
    lambda params: amplitude(params, Fraction(1, 10)),
    lambda params: scan_monotonicity(params, 5),
    solitons.speed_bound,
], ids=["validate", "velocity", "amplitude", "scan_monotonicity", "speed_bound"])
@pytest.mark.parametrize("alpha,beta", [(Fraction(1, 2), Fraction(1, 2)),
                                        (Fraction(1, 3), Fraction(1, 2))])
def test_an_empty_interval_raises_invalid_interval(call, alpha, beta):
    with pytest.raises(InvalidInterval, match="alpha \\+ beta must exceed 1"):
        call(SystemParams(alpha, beta))


# inputs where a quotient of the cancelling forms -log A / log B, sqrt(B D)
# and sqrt(D / B) rounded to 1 or 0 or left the float range; the
# half-angle forms have a value there
@pytest.mark.parametrize("law, p", [
    # B rounded to 1.0 beside the midpoint
    (velocity, MID + Fraction(1, 10 ** 30)),
    # B D underflowed to 0
    (amplitude, SPAN - Fraction(1, 10 ** 400)),
    # B D exceeded the float range
    (amplitude, Fraction(1, 10 ** 400)),
], ids=["speed_log_b_zero", "amplitude_underflow", "amplitude_overflow"])
def test_a_law_whose_float_quotient_fails_raises_naming_p(law, p):
    v, w = laws_decimal(REF_PARAMS.alpha, REF_PARAMS.beta, p)
    exact, bound, value = (v, V_ULPS, 9 / 11) if law is velocity else (w, W_ULPS, 0.92)
    assert law(REF_PARAMS, p) == value
    assert ulps(value, exact) <= bound


def test_each_law_raises_only_for_its_own_failure():
    # both laws have values at both inputs of the test above
    for p in (SPAN - Fraction(1, 10 ** 400), MID + Fraction(1, 10 ** 30)):
        _assert_laws_near_decimal(REF_PARAMS, p)
    assert amplitude(REF_PARAMS, MID + Fraction(1, 10 ** 30)) > 0.0


def _assert_grid_near_decimal(params, ks):
    span = params.alpha + params.beta - 1
    vs, ws = solitons._law_grid(params, 2001)
    for k in ks:
        v, w = laws_decimal(params.alpha, params.beta, span * k / 2002)
        assert ulps(vs[k - 1], v) <= V_ULPS and ulps(ws[k - 1], w) <= W_ULPS, k


@pytest.mark.parametrize("beta, first_k", [
    # span 10^-18: B rounded to 1.0 at every grid point
    (Fraction(500000000000000001, 10 ** 18), 1),
    # span 10^-14: A rounded to 1.0 first at k = 996, B from k = 999
    (Fraction(1, 2) + Fraction(1, 10 ** 14), 996),
], ids=["every_point", "near_the_midpoint"])
def test_scan_names_the_first_grid_point_where_a_law_fails(beta, first_k):
    params = SystemParams(Fraction(1, 2), beta)
    assert scan_monotonicity(params, 2001)["violations"] == []
    _assert_grid_near_decimal(params, range(first_k, first_k + 5))


def test_velocity_regimes():
    # beta > alpha: everything subluminal; swapped: superluminal
    for k in range(1, 12):
        p = SPAN * k / 13
        assert velocity(REF_PARAMS, p) <= 1.0
        assert velocity(SystemParams(Fraction(14, 15), Fraction(5, 6)), p) >= 1.0


@given(unit_fractions, unit_fractions)
@example(Fraction(260, 493), Fraction(1, 851))
@settings(max_examples=300, deadline=None)
def test_the_speed_bound_is_the_supremum_of_the_speed_law(alpha, u):
    # beta = 1 - alpha + alpha * u covers (1 - alpha, 1): every admissible pair
    params = SystemParams(alpha, 1 - alpha + alpha * u)
    beta, span = params.beta, alpha * u
    bound = solitons.speed_bound(params)
    edges = [span * k / 10 ** 6 for k in (1, 10 ** 6 - 1)]
    # the sampled speeds and the bound are each within V_ULPS of the exact
    # law, and where v is flat they may cross by that much
    assert all(velocity(params, p) <= bound * (1 + 2e-15) for p in (*edges, span / 2))
    if alpha <= beta:
        # the law at the midpoint, h_B / h_A
        assert bound == float((1 + alpha - beta) / (1 + beta - alpha))
    else:
        assert bound == pytest.approx(velocity(params, edges[0]), rel=1e-3)


def test_the_speed_bound_at_the_fast_and_the_reference_pairs():
    assert solitons.speed_bound(SystemParams(Fraction(19, 20), Fraction(1, 5))) == \
        pytest.approx(8.0669, abs=1e-4)
    assert solitons.speed_bound(SystemParams(Fraction(14, 15), Fraction(5, 6))) == \
        pytest.approx(1.4661, abs=1e-4)
    assert solitons.speed_bound(REF_PARAMS) == 9 / 11


@pytest.mark.parametrize("alpha, beta, bound", [
    # span 2^-56: both limits of A and B rounded to 1.0
    (Fraction(3, 5), Fraction(2, 5) + Fraction(1, 2 ** 56), 1.5),
    # span 0.35 * 2^-53 at alpha = 11/20: A's limit rounded to 1.0 and B's
    # did not
    (Fraction(11, 20), Fraction(9, 20) + Fraction(35, 100 * 2 ** 53), 1.2222222222222223),
], ids=["both_round_to_1", "a_rounds_to_1"])
def test_a_speed_bound_whose_float_quotient_rounds_to_1_raises(alpha, beta, bound):
    # alpha > beta, so the bound is v's limit at the edges, which v at a
    # point 10^-30 of the span from the edge matches far below an ulp
    span = alpha + beta - 1
    assert solitons.speed_bound(SystemParams(alpha, beta)) == bound
    assert ulps(bound, laws_decimal(alpha, beta, span / 10 ** 30)[0]) <= V_ULPS


@pytest.mark.parametrize("alpha, beta", [
    (Fraction(5, 6), Fraction(14, 15)),
    (Fraction(3, 5), Fraction(4, 5)),
], ids=["reference", "three_fifths"])
def test_a_speed_whose_a_quotient_alone_rounds_to_1_raises(alpha, beta):
    # just left of the midpoint A's float quotient rounded to 1 and B's did
    # not, so -log A / log B read 0.0 where the exact speed is 9/11
    # (reference) or 2/3
    params = SystemParams(alpha, beta)
    _assert_laws_near_decimal(params, (alpha + beta - 1) / 2 - Fraction(1, 2 ** 55))


def test_a_scan_whose_a_quotient_alone_rounds_to_1_names_that_grid_point():
    # span 10^-13 at alpha = 1/10: at k = 1000 A's quotient rounded to 1 and
    # no quotient raised
    params = SystemParams(Fraction(1, 10), Fraction(9, 10) + Fraction(1, 10 ** 13))
    assert scan_monotonicity(params, 2001)["violations"] == []
    _assert_grid_near_decimal(params, (999, 1000, 1001))


# each quotient that can leave the float range grows with |p - span / 2|,
# so a call names the p of its largest one: p itself, p = 0 for the bound,
# and p_1 for the scan; only when 1 - alpha and p's distance from an edge
# are both below ~1e-308
@pytest.mark.parametrize("call, alpha, beta, p", [
    (lambda params: velocity(params, Fraction(1, 10 ** 400)),
     1 - Fraction(1, 10 ** 400), Fraction(1, 2), Fraction(1, 10 ** 400)),
    (solitons.speed_bound, 1 - Fraction(1, 10 ** 400), Fraction(1, 2), Fraction(0)),
    (lambda params: scan_monotonicity(params, 2001),
     1 - Fraction(1, 10 ** 400), Fraction(1, 10 ** 400) + Fraction(1, 10 ** 800),
     Fraction(1, 10 ** 800) / 2002),
], ids=["velocity", "speed_bound", "scan_monotonicity"])
def test_a_speed_quotient_past_the_float_range_raises_naming_p(call, alpha, beta, p):
    with pytest.raises(FloatLawUndefined, match="speed law leaves the float range at p=") as info:
        call(SystemParams(alpha, beta))
    assert info.value.p == p
    assert isinstance(info.value, SolitonLabError)


# --- mode validation ----------------------------------------------------------


def test_validate_accepts_the_reference_pair():
    kp = validate(REF_PARAMS, REF_SOLITONS)
    assert isinstance(kp, KPParams)
    assert (kp.a1, kp.a2, kp.b, kp.c) == (0, SPAN, Fraction(-1, 6), Fraction(5, 6))
    assert kp.modes == tuple((p, SPAN - p, gamma) for p, gamma in REF_SOLITONS)


def test_the_reduction_carries_the_soliton_constants():
    # r_{i,b} = A_i, r_{i,c} = B_i, r_{i,a1} = D_i and gamma_i / (p_i - q_i) = C_i
    kp = validate(REF_PARAMS, REF_SOLITONS)

    def r(d):
        return [(q - d) / (p - d) for p, q, _ in kp.modes]

    assert r(kp.b) == [Fraction(8, 3), Fraction(9, 2)]
    assert r(kp.c) == [Fraction(2, 7), Fraction(1, 8)]
    assert r(kp.a1) == [Fraction(19, 4), Fraction(22)]
    assert [g / (p - q) for p, q, g in kp.modes] == [Fraction(1, 3), Fraction(1, 21)]


def test_validate_rejects_bad_modes():
    with pytest.raises(InvalidInterval):
        validate(SystemParams(Fraction(1, 2), Fraction(1, 2)), [])
    with pytest.raises(POutOfRange):
        validate(REF_PARAMS, [(SPAN + 1, Fraction(1))])
    with pytest.raises(POutOfRange):
        validate(REF_PARAMS, [(Fraction(0), Fraction(1))])
    with pytest.raises(DegenerateP):
        validate(REF_PARAMS, [(MID, Fraction(1))])
    with pytest.raises(GammaSignCondition):
        validate(REF_PARAMS, [(Fraction(1, 30), Fraction(1, 30))])
    with pytest.raises(GammaSignCondition):
        validate(REF_PARAMS, [(Fraction(1, 30), Fraction(0))])
    with pytest.raises(DuplicateP) as info:
        validate(REF_PARAMS, [(Fraction(1, 30), Fraction(-1)),
                              (Fraction(1, 30), Fraction(-2))])
    assert info.value.pair == (0, 1)
    with pytest.raises(DenominatorClash) as info:
        validate(REF_PARAMS, [(Fraction(1, 3), Fraction(-1)),
                              (SPAN - Fraction(1, 3), Fraction(1))])
    assert info.value.pair == (0, 1)


LEFT, RIGHT = (Fraction(1, 30), Fraction(-1)), (Fraction(1, 2), Fraction(1))
THIRD, PARTNER = (Fraction(1, 3), Fraction(-1)), (SPAN - Fraction(1, 3), Fraction(1))


@pytest.mark.parametrize("modes, error, pair", [
    ([THIRD, LEFT, PARTNER], DenominatorClash, (0, 2)),
    ([LEFT, RIGHT, (RIGHT[0], Fraction(2))], DuplicateP, (1, 2)),
    # p_i = q_j is symmetric in i and j, so the pair is never named (2, 1)
    ([LEFT, THIRD, PARTNER], DenominatorClash, (1, 2)),
    # every pair fails; the first pair in (i, j) order wins
    ([THIRD, (THIRD[0], Fraction(-2)), PARTNER], DuplicateP, (0, 1)),
], ids=["clash_0_2", "duplicate_1_2", "clash_1_2", "first_pair_wins"])
def test_validate_names_the_first_bad_pair(modes, error, pair):
    with pytest.raises(error) as info:
        validate(REF_PARAMS, modes)
    assert info.value.pair == pair


def test_validate_raises_on_a_nonpositive_constant(monkeypatch):
    # the positivity invariant is a raise, not an assert, so it holds under -O
    real = solitons._abd

    def broken(params, p, mode=0):
        a, b, d = real(params, p, mode)
        return (a, b, -d) if p == REF_SOLITONS[1][0] else (a, b, d)

    monkeypatch.setattr(solitons, "_abd", broken)
    with pytest.raises(ConstraintViolated, match="mode 1") as info:
        validate(REF_PARAMS, REF_SOLITONS)
    assert info.value.index == 1


# --- tau functions and the sampled field --------------------------------------


@st.composite
def valid_single_mode(draw):
    """A system in one of the three regimes and one mode that validates."""
    params, [(p, gamma)] = draw(soliton_systems(draw(st.sampled_from(REGIMES)), 1))
    return params, p, gamma


@given(valid_single_mode(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_single_mode_matches_scalar_closed_form(mode, t, n):
    (params, p, gamma) = mode
    # one point is a 1 x 1 window
    field = sample_field(params, [(p, gamma)], (t, t), (n, n))
    x, y = one_soliton_xy(params.alpha, params.beta, p, gamma, t, n)
    assert (field.xs, field.ys) == ([[x]], [[y]])


FIVE = [*REF_SOLITONS, (Fraction(1, 2), Fraction(1, 5)), (Fraction(3, 5), Fraction(2, 7)),
        (Fraction(1, 10), Fraction(-3, 4))]


def test_tau_assembly_against_cofactor_expansion():
    three = FIVE[:3]
    for modes, t, n, weighted in [
            (REF_SOLITONS, 0, 0, False), (REF_SOLITONS, 2, -3, False),
            (REF_SOLITONS, -1, 4, True), (REF_SOLITONS, 3, 2, True),
            (three, -3, -5, False), (three, -3, -5, True)]:
        # f is the reduced tau at (0, 0, t, n) and g the one at (1, 0, t, n)
        got = kp_tau(validate(REF_PARAMS, modes), int(weighted), 0, t, n)
        assert got == cofactor_tau(REF_PARAMS.alpha, REF_PARAMS.beta, modes, t, n, weighted)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_sample_field_against_cofactor_cross_ratios(n_modes):
    # every x and y of a window that straddles t = 0 and n = 0, so the walk
    # steps both ways from the grid origin
    modes = FIVE[:n_modes]
    taus = {}

    def tau(t, n, weighted):
        if (t, n, weighted) not in taus:
            taus[t, n, weighted] = cofactor_tau(REF_PARAMS.alpha, REF_PARAMS.beta,
                                                modes, t, n, weighted)
        return taus[t, n, weighted]

    field = sample_field(REF_PARAMS, modes, (-3, 2), (-5, 4))
    assert (field.t0, field.n_lo) == (-3, -5)
    assert (len(field.xs), len(field.xs[0])) == (6, 10)
    for j, t in enumerate(range(-3, 3)):
        for k, n in enumerate(range(-5, 5)):
            f, g = tau(t, n, False), tau(t, n, True)
            assert field.xs[j][k] == f * tau(t, n + 1, True) / (g * tau(t, n + 1, False))
            assert field.ys[j][k] == g * tau(t + 1, n, False) / (f * tau(t + 1, n, True))


@st.composite
def valid_modes(draw):
    """A system in one of the three regimes and 1-4 modes that validate."""
    return draw(soliton_systems(draw(st.sampled_from(REGIMES)), draw(st.integers(1, 4))))


@given(valid_modes(), st.tuples(*[st.integers(-3, 3)] * 4))
@settings(max_examples=60, deadline=None)
def test_soliton_taus_are_the_reduced_kp_tau(system, point):
    # f = tau(0, 0, t, n) and g = tau(1, 0, t, n) of the reduction; the
    # constraint p_i + q_i = a1 + a2 also makes g = tau(0, -1, t, n)
    params, modes = system
    kp = validate(params, modes)
    assert check_kp_bilinear(kp, point) == (0, 0)
    assert check_reduction(kp, point) == 0
    _, _, t, n = point
    f, g = (cofactor_tau(params.alpha, params.beta, modes, t, n, weighted)
            for weighted in (False, True))
    assert kp_tau(kp, 0, 0, t, n) == f
    assert kp_tau(kp, 1, 0, t, n) == g
    assert kp_tau(kp, 0, -1, t, n) == g


@st.composite
def big_quotients(draw):
    """(a, b) of 1k-4k bits each, both signs, whose quotient fits a float.

    Besides plain draws, a is built as m * b (+-1) for an odd 54-bit m, so
    a / b lies on, just above or just below a rounding tie, and a and b may
    share a large common factor, as the unreduced tau ratios do.
    """
    def bits(lo, hi):
        n = draw(st.integers(lo, hi))
        return draw(st.integers(2 ** (n - 1), 2 ** n - 1))

    kind = draw(st.sampled_from(["plain", "tie", "above", "below", "common"]))
    if kind == "common":
        g = bits(500, 2500)
        a, b = bits(500, 1500) * g, bits(500, 1500) * g
    elif kind == "plain":
        b = bits(1000, 4000)
        n = b.bit_length()
        a = bits(max(1000, n - 1000), min(4000, n + 1000))
    else:
        b = bits(1000, 3900)
        m = 2 * draw(st.integers(2 ** 52, 2 ** 53 - 1)) + 1
        a = m * b + {"tie": 0, "above": 1, "below": -1}[kind]
    a *= draw(st.sampled_from([1, -1]))
    b *= draw(st.sampled_from([1, -1]))
    return a, b


@settings(max_examples=300, deadline=None)
@given(big_quotients())
def test_int_true_division_is_correctly_rounded(ab):
    # the float sampler's bit-equality with sample_field(...).x_float()
    # rests on this and on monotone rounding (below): int / int rounds the
    # exact quotient once, as float(Fraction) does after reducing it, so
    # both the exact fallback and the two bounds of the enclosure are the
    # floats of their rationals
    a, b = ab
    assert (a / b).hex() == float(Fraction(a, b)).hex()


@settings(max_examples=50, deadline=None)
@given(st.integers(1000, 2900), st.integers(1030, 1100), st.data())
def test_int_true_division_overflows_like_fraction(b_bits, extra, data):
    b = data.draw(st.integers(2 ** (b_bits - 1), 2 ** b_bits - 1))
    a = data.draw(st.integers(2 ** (b_bits + extra - 1), 2 ** (b_bits + extra)))
    a *= data.draw(st.sampled_from([1, -1]))
    with pytest.raises(OverflowError):
        a / b
    with pytest.raises(OverflowError):
        float(Fraction(a, b))


@st.composite
def ordered_quotients(draw):
    """Positive (a, b, c, d) of up to ~200 bits with a / b <= c / d.

    Besides independent draws, c / d is built as (a m + e) / (b m) for a
    large m and a small e >= 0, so it lies on a / b or just above it, within
    far less than a float's spacing, as the sampler's bounds lie about x.
    """
    def big():
        return draw(st.integers(1, 2 ** draw(st.integers(1, 200))))

    a, b = big(), big()
    if draw(st.booleans()):
        m = draw(st.integers(1, 2 ** 120))
        c, d = a * m + draw(st.integers(0, 3)), b * m
    else:
        c, d = big(), big()
        if a * d > c * b:
            a, b, c, d = c, d, a, b
    return a, b, c, d


@settings(max_examples=300, deadline=None)
@given(ordered_quotients())
def test_int_true_division_rounds_monotonically(abcd):
    # the sampler's second premise: lo < x < hi as rationals gives
    # float(lo) <= float(x) <= float(hi), so equal rounded bounds are x's
    a, b, c, d = abcd
    assert a * d <= c * b
    assert a / b <= c / d


def _hex_rows(rows):
    return [[v.hex() for v in row] for row in rows]


@pytest.mark.parametrize("params", [REF_PARAMS, SystemParams(Fraction(14, 15), Fraction(5, 6))],
                         ids=["alpha_lt_beta", "alpha_gt_beta"])
@pytest.mark.parametrize("n_modes", [0, 1, 2, 3, 4, 5])
def test_sample_x_float_equals_x_float_of_sample_field(params, n_modes):
    modes = FIVE[:n_modes]
    expected = sample_field(params, modes, (-3, 2), (-5, 4)).x_float()
    assert _hex_rows(sample_x_float(params, modes, (-3, 2), (-5, 4))) == _hex_rows(expected)


def test_sample_x_float_equals_x_float_on_the_readme_window():
    expected = sample_field(REF_PARAMS, REF_SOLITONS, (0, 60), (-30, 90)).x_float()
    got = sample_x_float(REF_PARAMS, REF_SOLITONS, (0, 60), (-30, 90))
    assert (len(got), len(got[0])) == (61, 121)
    assert _hex_rows(got) == _hex_rows(expected)


def _spy_exact_x(monkeypatch) -> list[int]:
    """Count the points that take the sampler's exact path."""
    calls = []
    real = solitons._exact_x

    def spy(fs, gs, k):
        calls.append(k)
        return real(fs, gs, k)

    monkeypatch.setattr(solitons, "_exact_x", spy)
    return calls


def _random_x_window(rng: Random, regime: str, n_modes: int, t_side: str, n_side: str):
    """A system in ``regime`` with ``n_modes`` valid modes drawn as
    ``soliton_systems`` draws them, and t and n ranges on the given sides
    of 0, up to 40 steps away, so the taus run from a few bits to
    thousands."""
    lo, hi = sorted(rng.sample(range(22, 39), 2))
    alpha, beta = {"lt": (lo, hi), "eq": (lo, lo), "gt": (hi, lo)}[regime]
    params = SystemParams(Fraction(alpha, 40), Fraction(beta, 40))
    span = params.alpha + params.beta - 1
    while True:
        ks = rng.sample(range(1, 40), n_modes)
        if mirror_free(ks):
            break
    modes = [(span * k / 40, Fraction(rng.randint(2, 200), 20) * (1 if k > 20 else -1))
             for k in ks]

    def window_range(side: str, longest: int) -> tuple[int, int]:
        size = rng.randint(1, longest)
        if side == "left":
            last = -rng.randint(1, 40)
            return last - size + 1, last
        first = rng.randint(1, 40) if side == "right" else -rng.randint(0, size - 1)
        return first, first + size - 1

    return params, modes, window_range(t_side, 8), window_range(n_side, 60)


def test_sample_x_float_matches_the_longhand_on_random_windows(monkeypatch):
    # 270 seeded windows: every regime, N = 0..4 and every side of the
    # origin on both axes, with taus from a few bits (219 of the 1180 rows
    # are under 64 bits) to 3833 bits.  Measured: 7 of the 35 395 points
    # took the exact path, 0.02 %; the bound is 1 %
    rng = Random(31)
    fallbacks = _spy_exact_x(monkeypatch)
    points, narrow = 0, 0
    for regime in REGIMES:
        for n_modes in range(5):
            for t_side in ("left", "right", "across"):
                for n_side in ("left", "right", "across"):
                    for _ in range(2):
                        params, modes, t_range, n_range = _random_x_window(
                            rng, regime, n_modes, t_side, n_side)
                        taus = solitons._window_taus(validate(params, modes), t_range, n_range)
                        got = sample_x_float(params, modes, t_range, n_range)
                        assert _hex_rows(got) == _hex_rows(x_float_longhand(taus))
                        points += sum(map(len, got))
                        narrow += sum(max(fs + gs).bit_length() < 64 for fs, gs in taus)
    assert narrow > 0
    assert len(fallbacks) < points / 100


def test_sample_x_float_matches_the_longhand_far_from_the_origin():
    # ROADMAP item 1's modes on t 200:300, n 100:250: taus of up to 3204 bits, where
    # the full-width products cost most
    params = REF_PARAMS
    modes = [(Fraction(1, 30), Fraction(-7, 10)), (Fraction(4, 15), Fraction(-233, 1000))]
    taus = solitons._window_taus(validate(params, modes), (200, 300), (100, 250))
    assert max(tau.bit_length() for fs, gs in taus for tau in fs + gs) > 3000
    got = sample_x_float(params, modes, (200, 300), (100, 250))
    assert _hex_rows(got) == _hex_rows(x_float_longhand(taus))


@pytest.mark.parametrize("nudge", [-1, 0, 1], ids=["below", "on", "above"])
@pytest.mark.parametrize("mantissa", [2 ** 52, 2 ** 52 + 1], ids=["down", "up"])
def test_sample_x_float_rounds_x_beside_a_tie_exactly(monkeypatch, mantissa, nudge):
    # x = (2m + 1) / 2^53 + nudge / 2^300 is a tie between two floats that
    # rounds to the even one, or lies closer beside it than any short
    # quotient can resolve; f / g is put at a point and at its n-shift
    f, g = ((2 * mantissa + 1) << 247) + nudge, 1 << 300
    taus = [([f, 1], [g, 1]), ([1, g], [1, f])]
    monkeypatch.setattr(solitons, "_window_taus", lambda *args, **kwargs: taus)
    got = sample_x_float(REF_PARAMS, REF_SOLITONS, (0, 1), (0, 0))
    assert _hex_rows(got) == _hex_rows(x_float_longhand(taus))
    assert got == [[float(Fraction(f, g))]] * 2


def test_sample_x_float_takes_the_exact_path_on_rows_with_a_quotient_below_one(monkeypatch):
    # validated modes never give one: here g is 2^100 times f, past 2^K, in
    # one row, and f and g differ in sign in the other; the whole row goes exact
    taus = [([1, 1, 1], [1 << 100, 1, 3]), ([-3, 1, 2], [1, 1, 5])]
    monkeypatch.setattr(solitons, "_window_taus", lambda *args, **kwargs: taus)
    fallbacks = _spy_exact_x(monkeypatch)
    got = sample_x_float(REF_PARAMS, REF_SOLITONS, (0, 1), (0, 1))
    assert got == x_float_longhand(taus) == [[2.0 ** -100, 3.0], [-3.0, 2.5]]
    assert fallbacks == [0, 1, 0, 1]


def test_sample_x_float_takes_the_exact_path_where_the_bounds_round_apart(monkeypatch):
    fallbacks = _spy_exact_x(monkeypatch)
    got = sample_x_float(REF_PARAMS, FALLBACK_MODES, (0, 60), (-30, 90))
    assert len(fallbacks) >= 1
    taus = solitons._window_taus(validate(REF_PARAMS, FALLBACK_MODES), (0, 60), (-30, 90))
    assert _hex_rows(got) == _hex_rows(x_float_longhand(taus))


def test_each_reader_asks_for_the_tau_rectangle_it_reads(monkeypatch):
    # every reader needs the n-shift column; y and the map also need the
    # t-shift row, and x alone does not
    calls = []
    real = solitons._tau_grid

    def spy(kp, l1, t0, n0, rows, cols):
        calls.append((l1, t0, n0, rows, cols))
        return real(kp, l1, t0, n0, rows, cols)

    monkeypatch.setattr(solitons, "_tau_grid", spy)
    for window in (((2, 5), (-3, 6)), ((2, 2), (-3, -3))):
        for reader in (sample_field, sample_x_float, solitons.check_exactness):
            reader(REF_PARAMS, REF_SOLITONS, *window)
    # f at l1 = 0, then g at l1 = 1, on the same rectangle
    assert calls == [(l1, *shape) for shape in [(2, -3, 5, 11), (2, -3, 4, 11), (2, -3, 5, 11),
                                                (2, -3, 2, 2), (2, -3, 1, 2), (2, -3, 2, 2)]
                     for l1 in (0, 1)]


@pytest.mark.parametrize("sampler", [sample_field, sample_x_float])
def test_a_vanishing_tau_raises_zero_tau_naming_its_site(monkeypatch, sampler):
    real = solitons._tau_grid
    for which in (0, 1):  # f, then g, vanishes at (t0 + 2, n0 + 3)

        def with_a_zero(kp, l1, t0, n0, rows, cols):
            grid = real(kp, l1, t0, n0, rows, cols)
            if l1 == which:
                grid[2][3] = 0
            return grid

        monkeypatch.setattr(solitons, "_tau_grid", with_a_zero)
        with pytest.raises(ZeroTau, match=r"\(t=3, n=-2\)") as info:
            sampler(REF_PARAMS, REF_SOLITONS, (1, 5), (-5, 4))
        assert info.value.point == (3, -2)


@st.composite
def tau_windows(draw, regime: str, n_modes: int):
    """A system in ``regime`` with ``n_modes`` valid modes, and the t and n
    ranges of a window, each left of, right of or across 0."""
    params, modes = draw(soliton_systems(regime, n_modes))

    def window_range(longest: int) -> tuple[int, int]:
        size = draw(st.integers(1, longest))
        side = draw(st.sampled_from(["left", "right", "across"]))
        if side == "left":
            last = -draw(st.integers(1, 5))
            return last - size + 1, last
        first = draw(st.integers(1, 5)) if side == "right" else -draw(st.integers(0, size - 1))
        return first, first + size - 1

    # rows of up to 40 columns at N <= 2, so the number of subset terms
    # falls on both sides of the row length
    return (params, modes, window_range(4),
            window_range(39 if n_modes <= 2 else 4))


@pytest.mark.parametrize("n_modes", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("regime", REGIMES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_tau_grid_is_canonical(regime, n_modes, data):
    # each entry is the subset sum at (l1, 0, t, n), whatever the window, so
    # rectangles off the origin, on either side of it or across it, read the
    # same integers as any other
    params, modes, (t0, t1), (n0, n1) = data.draw(tau_windows(regime, n_modes))
    kp = validate(params, modes)
    shape = (t0, n0, t1 - t0 + 1, n1 - n0 + 2)
    grids = [solitons._tau_grid(kp, l1, *shape) for l1 in (0, 1)]
    assert grids == [tau_grid_longhand(kp, l1, *shape) for l1 in (0, 1)]
    assert solitons._window_taus(kp, (t0, t1), (n0, n1)) == list(zip(*grids))
    # the scale M * D_a1^l1 * D_b^|t| * D_c^|n| against the cofactor determinant
    big_l, _, dirs = kp._subset_tables

    def den(d: int, l: int) -> int:
        _, up_den, _, down_den = dirs[d]
        return (up_den if l > 0 else down_den) ** abs(l)

    for _ in range(3):
        j = data.draw(st.integers(0, shape[2] - 1))
        k = data.draw(st.integers(0, shape[3] - 1))
        t, n = t0 + j, n0 + k
        for l1, grid in enumerate(grids):
            matrix = kp_matrix_longhand(kp.a1, kp.a2, kp.b, kp.c, kp.modes, (l1, 0, t, n))
            scale = big_l * den(0, l1) * den(2, t) * den(3, n)
            assert Fraction(grid[j][k], scale) == det_cofactor(matrix)


def _side_range(side: str, size: int) -> tuple[int, int]:
    """``size`` consecutive integers left of, right of or across 0."""
    first = {"left": -size - 2, "right": 2, "across": -(size // 2)}[side]
    return first, first + size - 1


@pytest.mark.parametrize("n_modes", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n_side", ["left", "right", "across"])
@pytest.mark.parametrize("t_side", ["left", "right", "across"])
def test_tau_grid_matches_the_pointwise_oracle_on_fixed_windows(t_side, n_side, n_modes):
    # every side of the origin on both axes, in both regimes, with rows
    # shorter than the 2^N subset terms (from N = 2 on) and longer than them
    for params in (REF_PARAMS, SystemParams(Fraction(14, 15), Fraction(5, 6))):
        span = params.alpha + params.beta - 1
        modes = [(span * k / 40, Fraction(k - 20, 7)) for k in (3, 11, 26, 33)[:n_modes]]
        kp = validate(params, modes)
        for cols in (2, 2 ** n_modes + 3):
            t0, _ = _side_range(t_side, 3)
            n0, _ = _side_range(n_side, cols)
            for l1 in (0, 1):
                assert (solitons._tau_grid(kp, l1, t0, n0, 3, cols)
                        == tau_grid_longhand(kp, l1, t0, n0, 3, cols))


def test_tau_rows_of_the_readme_window_match_the_pointwise_oracle():
    # the rectangle analyze reads: times 0..60 by sites -30..91, anchored at
    # (0, 0); its first row is the anchor row, whose lines run both ways
    # from column 30, and its last row is 60 steps of every line away
    kp = validate(REF_PARAMS, REF_SOLITONS)
    taus = solitons._window_taus(kp, (0, 60), (-30, 90))
    assert len(taus) == 61
    for t in (0, 30, 60):
        row = tuple(tau_grid_longhand(kp, l1, t, -30, 1, 122)[0] for l1 in (0, 1))
        assert len(row[0]) == len(row[1]) == 122
        assert taus[t] == row


def test_two_soliton_field_solves_the_lattice_equation():
    # the determinant field, fed back through the update sweep, reproduces
    # itself exactly: x and the carries y agree at every site
    field = sample_field(REF_PARAMS, REF_SOLITONS, (0, 4), (-10, 10))
    for j in range(4):
        x_next, y_row = _sweep(field.xs[j], field.ys[j][0], _gkdv_constants(REF_PARAMS),
                               field.n_lo)
        assert x_next == field.xs[j + 1]
        assert y_row[:-1] == field.ys[j]


def test_sample_field_window_validation():
    # sample_field and check_exactness read the t-shift row t1 + 1 too, so
    # for t1 = t0 - 1 the rectangle they ask for is one row, not empty
    for reader in (sample_field, sample_x_float, solitons.check_exactness):
        for t_range, n_range in (((3, 2), (0, 4)), ((5, 2), (0, 4)), ((0, 4), (3, 2))):
            with pytest.raises(WindowTooSmall):
                reader(REF_PARAMS, REF_SOLITONS, t_range, n_range)


@pytest.mark.parametrize("modes, error", [
    ([(Fraction(1, 30), Fraction(1, 30))], GammaSignCondition),
    ([(Fraction(9, 10), Fraction(1))], POutOfRange),
    ([(Fraction(2, 15), Fraction(-1, 6))] * 2, DuplicateP),
], ids=["gamma_sign", "p_out_of_range", "duplicate_p"])
def test_each_reader_checks_the_modes_before_the_window(modes, error):
    # bad modes on an empty window: every reader names the modes, not the window
    for reader in (sample_field, sample_x_float, solitons.check_exactness):
        for t_range, n_range in (((3, 2), (0, 4)), ((0, 4), (3, 2))):
            with pytest.raises(error):
                reader(REF_PARAMS, modes, t_range, n_range)


def test_vacuum_field_is_flat():
    field = sample_field(REF_PARAMS, [], (0, 2), (0, 2))
    assert all(v == 1 for row in field.xs for v in row)
    assert all(v == 1 for row in field.ys for v in row)


# --- the four-direction tau ----------------------------------------------------


def test_kp_bilinear_identities_vanish():
    rng = Random(7)
    for n_modes in (1, 2, 3):
        kp = random_kp_params(rng, n_modes)
        for _ in range(12):
            point = tuple(rng.randint(-3, 3) for _ in range(4))
            assert check_kp_bilinear(kp, point) == (0, 0)


def test_kp_reduction_needs_the_constraint():
    rng = Random(11)
    kp = random_kp_params(rng, 2, constrained=True)
    for _ in range(12):
        point = tuple(rng.randint(-3, 3) for _ in range(4))
        assert check_reduction(kp, point) == 0
    free = random_kp_params(rng, 2)
    assert any(p + q != free.a1 + free.a2 for p, q, _ in free.modes)
    bad = next(i for i, (p, q, _) in enumerate(free.modes) if p + q != free.a1 + free.a2)
    p, q, _ = free.modes[bad]
    message = f"mode {bad}: p + q = {p + q}, constraint requires {free.a1 + free.a2}"
    # the verdict is a constant of the KPParams, built once with the
    # bilinear coefficients: the same error at every point, whichever check
    # built the constants first
    for bilinear_first in (False, True):
        kp = KPParams(free.a1, free.a2, free.b, free.c, free.modes)
        if bilinear_first:
            check_kp_bilinear(kp, (1, -2, 0, 3))
            assert "_check_constants" in vars(kp)
        for point in ((0, 0, 0, 0), (2, -1, 3, -2)):
            with pytest.raises(ConstraintViolated) as info:
                check_reduction(kp, point)
            assert (str(info.value), info.value.index) == (message, bad)


def test_subset_tables_match_the_fraction_longhand_on_seeded_draws():
    # 1-5 modes, constrained or not: the integer build gives the L, the c_S
    # list and the direction tables of reduced Fraction arithmetic, integer
    # for integer
    for seed in range(20):
        for n_modes in range(1, 6):
            for constrained in (False, True):
                kp = random_kp_params(Random(seed), n_modes, constrained=constrained)
                assert kp._subset_tables == subset_tables_longhand(kp)


@given(st.sampled_from(REGIMES), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_subset_tables_match_the_fraction_longhand_on_reductions(regime, n_modes, data):
    kp = validate(*data.draw(soliton_systems(regime, n_modes)))
    assert kp._subset_tables == subset_tables_longhand(kp)


def _with_tables(kp: KPParams, coefs: list[int], dirs: list) -> KPParams:
    """``kp`` with its subset tables' c_S list and direction tables replaced."""
    vars(kp)["_subset_tables"] = (kp._subset_tables[0], coefs, dirs)
    return kp


def test_kp_bilinear_identities_fail_on_a_wrong_coefficient():
    # the residuals are not zero by construction: one c_S off by 1 breaks both
    _, coefs, dirs = random_kp_params(Random(0), 2)._subset_tables
    for s in range(4):
        bumped = _with_tables(random_kp_params(Random(0), 2),
                              [c + (k == s) for k, c in enumerate(coefs)], dirs)
        r1, r2 = check_kp_bilinear(bumped, (0, 0, 0, 0))
        assert r1 != 0 and r2 != 0


def test_kp_reduction_fails_on_a_wrong_a1_ratio():
    # the reduction holds term by term, so it reads the a1 and a2 tables and
    # not the c_S: one entry of a1's r list off by 1 breaks it, and a c_S
    # off by 1 leaves it 0
    _, coefs, dirs = random_kp_params(Random(0), 2, constrained=True)._subset_tables
    up, up_den, down, down_den = dirs[0]
    for s in range(4):
        bumped = _with_tables(random_kp_params(Random(0), 2, constrained=True), coefs,
                              [([r + (k == s) for k, r in enumerate(up)], up_den, down, down_den),
                               *dirs[1:]])
        assert check_reduction(bumped, (0, 0, 0, 0)) != 0
    bumped = _with_tables(random_kp_params(Random(0), 2, constrained=True),
                          coefs[:3] + [coefs[3] + 1], dirs)
    assert check_reduction(bumped, (0, 0, 0, 0)) == 0


def test_kp_bilinear_residuals_are_the_three_term_sums_of_their_taus():
    # with one c_S off by 1 the residuals are not 0, and each must still be
    # its identity's three-term sum of taus, exactly: the coefficients and
    # their common denominator are right, not only the sign of the result
    rng = Random(5)
    for n_modes in (1, 2, 3):
        _, coefs, dirs = random_kp_params(Random(n_modes), n_modes)._subset_tables
        for s in range(1 << n_modes):
            kp = _with_tables(random_kp_params(Random(n_modes), n_modes),
                              [c + (k == s) for k, c in enumerate(coefs)], dirs)
            point = tuple(rng.randint(-3, 3) for _ in range(4))

            def tau(*shift: int) -> Fraction:
                return kp_tau(kp, *(l + e for l, e in zip(point, shift)))

            assert check_kp_bilinear(kp, point) == tuple(
                (a - kp.b) * tau(*e, 1, 0) * tau(0, 0, 0, 1)
                + (kp.b - kp.c) * tau(*e, 0, 0) * tau(0, 0, 1, 1)
                + (kp.c - a) * tau(*e, 0, 1) * tau(0, 0, 1, 0)
                for a, e in ((kp.a1, (1, 0)), (kp.a2, (0, 1))))


def test_check_exactness_fails_at_the_sites_that_read_a_wrong_tau(monkeypatch):
    # f at row 2, column 3 of the rectangle is read by the sites (j, k)
    # with j in {1, 2} and k in {2, 3}, and by no other
    real = solitons._tau_grid

    def with_f_off_by_one(kp, l1, t0, n0, rows, cols):
        grid = real(kp, l1, t0, n0, rows, cols)
        if l1 == 0:
            grid[2][3] += 1
        return grid

    monkeypatch.setattr(solitons, "_tau_grid", with_f_off_by_one)
    sites = solitons.check_exactness(REF_PARAMS, REF_SOLITONS, (0, 5), (-5, 5))
    assert (len(sites), len(sites[0])) == (6, 11)
    assert [(j, k) for j, row in enumerate(sites) for k, ok in enumerate(row) if not ok] == [
        (1, 2), (1, 3), (2, 2), (2, 3)]


def test_random_kp_params_draws_are_pinned():
    # draws and the rng state after them, recorded before the candidate
    # checks moved into KPParams
    F = Fraction
    rng = Random(3)
    kp = random_kp_params(rng, 2)
    assert kp == KPParams(F(-2, 9), F(-5, 6), F(3), F(-9, 8),
                          ((F(-1, 9), F(-1, 2), F(2, 3)), (F(-2, 3), F(1), F(-9, 2))))
    assert rng.randrange(10 ** 6) == 167142
    rng = Random(11)
    kp = random_kp_params(rng, 4)
    assert kp.modes == ((F(-7, 9), F(-8, 7), F(5, 3)), (F(-1), F(-7), F(-2)),
                        (F(-2), F(5, 6), F(5, 4)), (F(-9, 2), F(1), F(4, 9)))
    assert rng.randrange(10 ** 6) == 976942
    rng = Random(11)
    kp = random_kp_params(rng, 4, constrained=True)
    assert (kp.a1, kp.a2, kp.b, kp.c) == (F(5, 9), F(5, 8), F(7, 4), F(-4, 9))
    assert kp.modes == ((F(2), F(-59, 72), F(-3, 4)), (F(0), F(85, 72), F(-7, 9)),
                        (F(-8, 7), F(1171, 504), F(5, 3)),
                        (F(-1), F(157, 72), F(-7)))
    assert rng.randrange(10 ** 6) == 37384


def test_random_kp_params_raises_when_a_mode_cannot_be_drawn():
    # 60 modes need 2 * 60 + 4 distinct values from a pool of 111 small
    # fractions; the draw gives up on the first mode it cannot place
    with pytest.raises(DrawExhausted, match="of a 60-mode draw") as info:
        random_kp_params(Random(0), 60)
    assert info.value.n_modes == 60
    assert 2 * info.value.index + 4 <= 111


def test_random_kp_params_draws_as_the_whole_set_check_did():
    # each candidate is checked against the drawn modes only, yet every
    # seeded draw is the one that rebuilding a whole KPParams per candidate
    # gave; seeds 0..199 cycle N through 1..30, each N with constrained off
    # (even seed) and on (odd seed).  Above MAX_MODES both ways refuse
    for seed in range(200):
        n_modes, constrained = 1 + seed // 2 % 30, bool(seed & 1)
        if n_modes > solitons.MAX_MODES:
            for draw in (random_kp_params, random_kp_params_longhand):
                with pytest.raises(TooManyModes):
                    draw(Random(seed), n_modes, constrained=constrained)
            continue
        assert random_kp_params(Random(seed), n_modes, constrained=constrained) == (
            random_kp_params_longhand(Random(seed), n_modes, constrained=constrained))


def test_a_kp_params_of_more_modes_than_the_bound_is_refused_at_construction():
    # 2**17 subset terms would be built on first use; the check comes first,
    # so no table exists to build
    modes = tuple((Fraction(i + 10), Fraction(-i - 10), Fraction(1))
                  for i in range(solitons.MAX_MODES + 1))
    assert solitons.MAX_MODES == 16
    KPParams(0, 1, 2, 3, modes[:-1])
    with pytest.raises(TooManyModes, match="17 modes") as info:
        KPParams(0, 1, 2, 3, modes)
    assert info.value.n_modes == 17


def test_kp_tau_is_rational_and_nonzero_at_origin():
    rng = Random(3)
    kp = random_kp_params(rng, 2)
    assert isinstance(kp_tau(kp, 0, 0, 0, 0), Fraction)


kp_draws = st.builds(lambda seed, n, constrained: random_kp_params(
    Random(seed), n, constrained=constrained),
    st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.booleans())
kp_points = st.tuples(*[st.integers(-4, 4)] * 4)


def _oracle_kp_tau(kp, point):
    return det_cofactor(kp_matrix_longhand(kp.a1, kp.a2, kp.b, kp.c, kp.modes, point))


@given(kp_draws, kp_points)
@settings(max_examples=150, deadline=None)
def test_kp_tau_matches_cofactor_expansion(kp, point):
    assert kp_tau(kp, *point) == _oracle_kp_tau(kp, point)


@given(kp_draws, kp_points)
@settings(max_examples=100, deadline=None)
def test_kp_checks_combine_the_taus_at_their_shifted_points(kp, point):
    # the residuals cannot show a lost shift: with every tau taken at the
    # base point, r1 is tau^2 ((a1 - b) + (b - c) + (c - a1)) = 0 as well
    assert set(solitons._BILINEAR_SHIFTS) == {
        (1, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1),
        (0, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 0), (0, 1, 0, 1)}
    assert set(solitons._REDUCTION_SHIFTS) == {(1, 1, 0, 0), (0, 0, 0, 0)}
    for shifts in (solitons._BILINEAR_SHIFTS, solitons._REDUCTION_SHIFTS):
        scale, sums = solitons._kp_sums(kp, point, shifts)
        for shift, (total, extra) in zip(shifts, sums, strict=True):
            shifted = tuple(l + s for l, s in zip(point, shift))
            assert Fraction(total, scale * extra) == _oracle_kp_tau(kp, shifted)


def test_kp_validation():
    good = dict(a1=Fraction(2), a2=Fraction(3), b=Fraction(5), c=Fraction(7))
    with pytest.raises(DegenerateP):
        KPParams(modes=((Fraction(2), Fraction(1, 2), Fraction(1)),), **good)
    with pytest.raises(DuplicateP):
        KPParams(modes=((Fraction(1, 2), Fraction(1, 3), Fraction(1)),
                        (Fraction(1, 2), Fraction(1, 5), Fraction(1))), **good)
    with pytest.raises(DenominatorClash):
        KPParams(modes=((Fraction(1, 2), Fraction(1, 3), Fraction(1)),
                        (Fraction(1, 3), Fraction(1, 5), Fraction(1))), **good)


# --- the monotonicity scan ------------------------------------------------------


def test_scan_shape_and_clean_regimes():
    rep = scan_monotonicity(REF_PARAMS, 25)
    assert set(rep) == {"alpha", "beta", "grid", "violations",
                        "v_extremum_p", "w_extremum_p"}
    assert rep["violations"] == []
    assert rep["v_extremum_p"] == "23/60"
    assert rep["w_extremum_p"] == "23/60"
    swapped = scan_monotonicity(SystemParams(Fraction(14, 15), Fraction(5, 6)), 25)
    assert swapped["violations"] == []
    equal = scan_monotonicity(SystemParams(Fraction(5, 6), Fraction(5, 6)), 25)
    assert equal["violations"] == []
    assert equal["v_extremum_p"] == "1/3"
