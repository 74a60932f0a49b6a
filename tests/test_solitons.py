import math
import warnings
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    sample_xy,
    scan_monotonicity,
    step_gkdv,
    tau_f,
    tau_g,
    validate,
    velocity,
)
from solitonlab import solitons
from solitonlab.errors import (
    ConstraintViolated,
    DegenerateP,
    DenominatorClash,
    DuplicateP,
    GammaSignCondition,
    GridTooSmall,
    InvalidInterval,
    POutOfRange,
    WindowTooSmall,
    ZeroTau,
)

from _oracles import det_cofactor, kp_matrix_longhand, one_soliton_constants, one_soliton_xy

REF_PARAMS = SystemParams(Fraction(5, 6), Fraction(14, 15))
REF_SOLITONS = [(Fraction(2, 15), Fraction(-1, 6)),
                (Fraction(1, 30), Fraction(-1, 30))]
SPAN = Fraction(23, 30)
MID = SPAN / 2


# --- closed-form speed and amplitude -----------------------------------------


def test_reference_velocities():
    assert abs(velocity(REF_PARAMS, Fraction(2, 15)) - 0.783) < 1e-3
    assert abs(velocity(REF_PARAMS, Fraction(1, 30)) - 0.723) < 1e-3


def test_reference_amplitudes():
    assert abs(amplitude(REF_PARAMS, Fraction(2, 15)) - 0.363) < 1e-3
    assert abs(amplitude(REF_PARAMS, Fraction(1, 30)) - 0.722) < 1e-3


def test_midpoint_is_the_fixed_point():
    assert velocity(REF_PARAMS, MID) == 1.0
    assert amplitude(REF_PARAMS, MID) == 0.0


def test_equal_parameters_speed_is_one_everywhere():
    params = SystemParams(Fraction(5, 6), Fraction(5, 6))
    for k in range(1, 10):
        p = Fraction(2, 3) * k / 10
        assert velocity(params, p) == 1.0


@given(st.fractions(min_value=Fraction(1, 1000), max_value=SPAN - Fraction(1, 1000),
                    max_denominator=3000))
@settings(max_examples=150, deadline=None)
def test_speed_and_amplitude_symmetric_about_midpoint(p):
    assume(p != MID)
    assert velocity(REF_PARAMS, p) == pytest.approx(
        velocity(REF_PARAMS, SPAN - p), abs=1e-12)
    assert amplitude(REF_PARAMS, p) == pytest.approx(
        amplitude(REF_PARAMS, SPAN - p), abs=1e-12)


def _laws_longhand(alpha, beta, p):
    """v = -log A / log B and W from the longhand constants.  A B = 1 exactly
    when alpha = beta or p is the midpoint, and B D = 1 only at the midpoint,
    where C (and so the longhand constants) is undefined."""
    if p == (alpha + beta - 1) / 2:
        return 1.0, 0.0
    a, b, _, d = one_soliton_constants(alpha, beta, p, Fraction(1))
    v = 1.0 if alpha == beta else -math.log(float(a)) / math.log(float(b))
    s, r = math.sqrt(float(b * d)), math.sqrt(float(d / b))
    return v, abs((1.0 + 1.0 / s) * (1.0 + s) / ((1.0 + r) * (1.0 + 1.0 / r)) - 1.0)


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
def test_laws_equal_the_longhand_constants_bit_for_bit(case):
    params, p = case
    v, w = _laws_longhand(params.alpha, params.beta, p)
    assert velocity(params, p).hex() == v.hex()
    assert amplitude(params, p).hex() == w.hex()


SCAN_REGIMES = [REF_PARAMS, SystemParams(Fraction(14, 15), Fraction(5, 6)),
                SystemParams(Fraction(5, 6), Fraction(5, 6)),
                SystemParams(Fraction(7, 9), Fraction(11, 13))]
SCAN_IDS = ["lt", "gt", "eq", "lt_7_9_11_13"]


def _laws_via_abd(params, p):
    abd = solitons._ratios(solitons._abd(params, p))
    return solitons._speed(*abd), solitons._depth(*abd)


def _assert_grid_matches_abd(params, grid_size):
    span = params.alpha + params.beta - 1
    vs, ws = solitons._law_grid(params, grid_size)
    assert len(vs) == len(ws) == grid_size
    for k in range(1, grid_size + 1):
        v, w = _laws_via_abd(params, span * k / (grid_size + 1))
        assert (vs[k - 1].hex(), ws[k - 1].hex()) == (v.hex(), w.hex()), k


@pytest.mark.parametrize("params", SCAN_REGIMES, ids=SCAN_IDS)
def test_scan_law_grid_matches_abd_bit_for_bit(params):
    # the scan's integer linear forms against the Fraction constants of _abd
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
    # a path that shares nothing with the grid or _abd, on a seeded sample
    # that always holds the ends and the midpoint k = 1001
    grid_size = 2001
    span = params.alpha + params.beta - 1
    vs, ws = solitons._law_grid(params, grid_size)
    ks = {1, 1001, grid_size, *Random(11).sample(range(1, grid_size + 1), 60)}
    for k in sorted(ks):
        v, w = _laws_longhand(params.alpha, params.beta, span * k / (grid_size + 1))
        assert (vs[k - 1].hex(), ws[k - 1].hex()) == (v.hex(), w.hex()), k


@pytest.mark.parametrize("vs, ws, expected", [
    # midpoint on the grid (k = 3 of 5): the pairs ending and starting there
    # are checked, each against the rule of its half
    ([0.7, 0.8, 0.9, 0.8, 0.7], [0.5, 0.4, 0.45, 0.4, 0.5],
     [("w", "23/90", "23/60"), ("w", "23/60", "23/45")]),
    # midpoint between k = 2 and 3 of 4: that pair has no rule
    ([0.7, 0.8, 0.8, 0.7], [0.5, 0.4, 0.45, 0.5], []),
], ids=["on_grid", "between_points"])
def test_scan_halves_at_the_midpoint(monkeypatch, vs, ws, expected):
    # W, stubbed, falls toward the midpoint and rises after it except where
    # a pair touches the midpoint; which half a pair lies on is the only rule
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
], ids=["validate", "velocity", "amplitude", "scan_monotonicity"])
@pytest.mark.parametrize("alpha,beta", [(Fraction(1, 2), Fraction(1, 2)),
                                        (Fraction(1, 3), Fraction(1, 2))])
def test_an_empty_interval_raises_invalid_interval(call, alpha, beta):
    with pytest.raises(InvalidInterval, match="alpha \\+ beta must exceed 1"):
        call(SystemParams(alpha, beta))


def test_velocity_regimes():
    # beta > alpha: everything subluminal; swapped: superluminal
    for k in range(1, 12):
        p = SPAN * k / 13
        assert velocity(REF_PARAMS, p) <= 1.0
        assert velocity(SystemParams(Fraction(14, 15), Fraction(5, 6)), p) >= 1.0


# --- mode validation ----------------------------------------------------------


def test_validate_accepts_the_reference_pair():
    consts = validate(REF_PARAMS, REF_SOLITONS)
    assert [c.A for c in consts] == [Fraction(8, 3), Fraction(9, 2)]
    assert [c.B for c in consts] == [Fraction(2, 7), Fraction(1, 8)]
    assert [c.C for c in consts] == [Fraction(1, 3), Fraction(1, 21)]
    assert [c.D for c in consts] == [Fraction(19, 4), Fraction(22)]


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
    with pytest.raises(DuplicateP):
        validate(REF_PARAMS, [(Fraction(1, 30), Fraction(-1)),
                              (Fraction(1, 30), Fraction(-2))])
    with pytest.raises(DenominatorClash):
        validate(REF_PARAMS, [(Fraction(1, 3), Fraction(-1)),
                              (SPAN - Fraction(1, 3), Fraction(1))])


def test_validate_raises_on_a_nonpositive_constant(monkeypatch):
    # the positivity invariant is a raise, not an assert, so it holds under -O
    real = solitons._abd

    def broken(params, p, mode=0):
        a, b, d = real(params, p, mode)
        return (a, b, -d) if p == REF_SOLITONS[1][0] else (a, b, d)

    monkeypatch.setattr(solitons, "_abd", broken)
    with pytest.raises(ConstraintViolated, match="mode 1"):
        validate(REF_PARAMS, REF_SOLITONS)


# --- tau functions and the sampled field --------------------------------------


@st.composite
def valid_single_mode(draw):
    alpha = draw(st.fractions(min_value=Fraction(11, 20), max_value=Fraction(19, 20),
                              max_denominator=40))
    beta = draw(st.fractions(min_value=Fraction(11, 20), max_value=Fraction(19, 20),
                             max_denominator=40))
    span = alpha + beta - 1
    assume(span > 0)
    k = draw(st.integers(1, 19))
    p = span * k / 20
    mid = span / 2
    assume(p != mid)
    mag = draw(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10),
                            max_denominator=20))
    gamma = mag if p > mid else -mag
    return SystemParams(alpha, beta), p, gamma


@given(valid_single_mode(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_single_mode_matches_scalar_closed_form(mode, t, n):
    (params, p, gamma) = mode
    x, y = sample_xy(params, [(p, gamma)], t, n)
    assert (x, y) == one_soliton_xy(params.alpha, params.beta, p, gamma, t, n)


FIVE = REF_SOLITONS + [(Fraction(1, 2), Fraction(1, 5)), (Fraction(3, 5), Fraction(2, 7)),
                       (Fraction(1, 10), Fraction(-3, 4))]


def cofactor_tau(consts, t, n, weighted):
    """The documented matrix, assembled by hand and expanded independently."""
    dc = REF_PARAMS.delta_cap
    rows = []
    for i, ci in enumerate(consts):
        w = ci.gamma * ci.A ** t * ci.B ** n
        if weighted:
            w *= ci.D
        rows.append([(1 if i == j else 0) + w / (ci.p + cj.p + dc)
                     for j, cj in enumerate(consts)])
    return det_cofactor(rows)


def test_tau_assembly_against_cofactor_expansion():
    three = FIVE[:3]
    for modes, t, n, weighted in [
            (REF_SOLITONS, 0, 0, False), (REF_SOLITONS, 2, -3, False),
            (REF_SOLITONS, -1, 4, True), (REF_SOLITONS, 3, 2, True),
            (three, -3, -5, False), (three, -3, -5, True)]:
        expected = cofactor_tau(validate(REF_PARAMS, modes), t, n, weighted)
        got = (tau_g if weighted else tau_f)(REF_PARAMS, modes, t, n)
        assert got == expected


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_sample_field_against_cofactor_cross_ratios(n_modes):
    # every x and y of a window that straddles t = 0 and n = 0; unlike
    # tau_f and tau_g, this reaches the power tables past the grid origin
    modes = FIVE[:n_modes]
    consts = validate(REF_PARAMS, modes)
    taus = {}

    def tau(t, n, weighted):
        if (t, n, weighted) not in taus:
            taus[t, n, weighted] = cofactor_tau(consts, t, n, weighted)
        return taus[t, n, weighted]

    field = sample_field(REF_PARAMS, modes, (-3, 2), (-5, 4))
    assert (field.t0, field.n_lo) == (-3, -5)
    assert (len(field.xs), len(field.xs[0])) == (6, 10)
    for j, t in enumerate(range(-3, 3)):
        for k, n in enumerate(range(-5, 5)):
            f, g = tau(t, n, False), tau(t, n, True)
            assert field.xs[j][k] == f * tau(t, n + 1, True) / (g * tau(t, n + 1, False))
            assert field.ys[j][k] == g * tau(t + 1, n, False) / (f * tau(t + 1, n, True))


def test_sample_xy_skips_the_unused_corner(monkeypatch):
    # x needs the n-shifted taus and y the t-shifted ones; nothing needs both
    calls = []
    real = solitons._tau_grid

    def spy(consts, dc, t0, n0, row_lengths):
        calls.append(list(row_lengths))
        return real(consts, dc, t0, n0, row_lengths)

    monkeypatch.setattr(solitons, "_tau_grid", spy)
    sample_xy(REF_PARAMS, REF_SOLITONS, 2, -3)
    assert calls == [[2, 1]]


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
    # rests on this: int / int rounds the exact quotient once, as
    # float(Fraction) does after reducing it
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


def test_sample_x_float_skips_the_t_shifted_row(monkeypatch):
    calls = []
    real = solitons._tau_grid

    def spy(consts, dc, t0, n0, row_lengths):
        calls.append((t0, n0, list(row_lengths)))
        return real(consts, dc, t0, n0, row_lengths)

    monkeypatch.setattr(solitons, "_tau_grid", spy)
    sample_x_float(REF_PARAMS, REF_SOLITONS, (2, 5), (-3, 6))
    assert calls == [(2, -3, [11] * 4)]


@pytest.mark.parametrize("sampler", [sample_field, sample_x_float])
def test_a_vanishing_tau_raises_zero_tau_naming_its_site(monkeypatch, sampler):
    real = solitons._tau_grid

    def with_a_zero(consts, dc, t0, n0, row_lengths):
        scale, grid = real(consts, dc, t0, n0, row_lengths)
        f, _ = grid[2][3]
        grid[2][3] = (f, 0)  # g vanishes at (t0 + 2, n0 + 3)
        return scale, grid

    monkeypatch.setattr(solitons, "_tau_grid", with_a_zero)
    with pytest.raises(ZeroTau, match=r"\(t=3, n=-2\)") as info:
        sampler(REF_PARAMS, REF_SOLITONS, (1, 5), (-5, 4))
    assert info.value.point == (3, -2)


@pytest.mark.filterwarnings("ignore::solitonlab.errors.SolitonEscapedWindow")
def test_two_soliton_field_solves_the_lattice_equation():
    # the determinant field, fed back through the update sweep, reproduces
    # itself exactly: x and the carries y agree at every site
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = sample_field(REF_PARAMS, REF_SOLITONS, (0, 4), (-10, 10))
    for j in range(4):
        x_next, y_row = step_gkdv(field.xs[j], REF_PARAMS, y_left=field.ys[j][0])
        assert x_next == field.xs[j + 1]
        assert y_row[:-1] == field.ys[j]


def test_sample_field_window_validation():
    with pytest.raises(WindowTooSmall):
        sample_field(REF_PARAMS, REF_SOLITONS, (3, 2), (0, 4))


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
    with pytest.raises(ConstraintViolated):
        check_reduction(free, (0, 0, 0, 0))


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
