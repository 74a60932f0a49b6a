import io
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    LatticeField,
    SystemParams,
    evolve_gkdv,
    lattice,
    rat_str,
    sample_field,
)
from solitonlab.lattice import _gkdv_constants, _sweep
from solitonlab.errors import (
    NegativeSteps,
    ParamOutOfRange,
    RaggedField,
    SolitonEscapedWindow,
    SolitonLabError,
    UnknownValueMode,
    WindowTooSmall,
    ZeroDenominator,
    ZeroFieldValue,
)

from _oracles import (
    REF_PARAMS,
    REF_SOLITONS,
    evolve_longhand,
    gkdv_local_longhand,
    map_constants_longhand,
    two_point,
    two_point_longhand,
)

# open interval (0, 1), exact
unit_open = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100
)
positive = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(20), max_denominator=40
)


@st.composite
def system_params(draw):
    return SystemParams(draw(unit_open), draw(unit_open))


@given(positive, positive, system_params())
@settings(max_examples=200, deadline=None)
def test_product_is_conserved_pointwise(x, y, params):
    xp, yn = two_point(x, y, _gkdv_constants(params), 0)
    assert xp * yn == x * y


@given(positive, positive, system_params())
@settings(max_examples=100, deadline=None)
def test_equal_parameters_swap_the_pair(x, y, params):
    eq = SystemParams(params.alpha, params.alpha)
    assert two_point(x, y, _gkdv_constants(eq), 0) == (y, x)


def test_param_validation():
    with pytest.raises(ParamOutOfRange):
        SystemParams(Fraction(0), Fraction(1, 2))
    with pytest.raises(ParamOutOfRange):
        SystemParams(Fraction(1, 2), Fraction(1))
    with pytest.raises(ParamOutOfRange):
        SystemParams(Fraction(3, 2), Fraction(1, 2))


# signed rationals with numerators and denominators of up to ~4k bits
big_int = st.integers(0, 4000).flatmap(lambda bits: st.integers(1, 2 ** bits))


@st.composite
def big_pair(draw):
    """(x, y), nonzero and of either sign, where xn and yd (and yn and xd)
    often share a factor, as neighbouring lattice values do."""
    s1, s2 = draw(big_int), draw(big_int)
    xn, xd, yn, yd = (draw(big_int) for _ in range(4))
    sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    return Fraction(sx * xn * s1, xd * s2), Fraction(sy * yn * s2, yd * s1)


# 5/6 and 14/15 (also 1/6 and 5/9, 3/4 and 1/2) have denominators that
# share a factor
shared_denominators = st.sampled_from([
    (Fraction(5, 6), Fraction(14, 15)), (Fraction(14, 15), Fraction(5, 6)),
    (Fraction(1, 6), Fraction(5, 9)), (Fraction(3, 4), Fraction(1, 2)),
])
any_regime = st.one_of(
    shared_denominators,
    unit_open.map(lambda a: (a, a)),
    st.tuples(unit_open, unit_open),
)


def _lowest_terms(v: Fraction) -> bool:
    return v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


@given(big_pair(), any_regime)
@settings(max_examples=300, deadline=None)
def test_local_map_matches_longhand_fractions(pair, ab):
    x, y = pair
    params = SystemParams(*ab)
    try:
        expected = gkdv_local_longhand(x, y, params.alpha, params.beta)
    except ZeroDivisionError:
        with pytest.raises(ZeroDenominator):
            two_point(x, y, _gkdv_constants(params), 0)
        return
    got = two_point(x, y, _gkdv_constants(params), 0)
    assert got == expected
    assert all(_lowest_terms(v) for v in got)


@given(big_int, st.sampled_from([1, -1]), any_regime, st.booleans(),
       st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_local_map_vanishing_denominator_names_the_site(yn, sign, ab, use_beta, site):
    params = SystemParams(*ab)
    c = params.beta if use_beta else params.alpha
    y = Fraction(sign * yn, 7)
    x = (c - 1) / (c * y)  # (1-c) + c*x*y = 0
    with pytest.raises(ZeroDenominator) as info:
        two_point(x, y, _gkdv_constants(params), site)
    assert info.value.site == site and f"n={site}" in str(info.value)


def test_local_map_zero_denominator():
    params = SystemParams(Fraction(1, 2), Fraction(1, 3))
    # alpha*x*y = -(1-alpha) makes the denominator vanish
    x = -Fraction(1, 2) / Fraction(1, 2)
    with pytest.raises(ZeroDenominator):
        two_point(x, Fraction(1), _gkdv_constants(params), 0)


def test_window_sweep_names_the_site_of_a_vanishing_denominator():
    # at alpha = 1/2 the carrier stays 1 through the x = 1 sites, and
    # (1 - alpha) + alpha*x*y vanishes at x = -1, the third site, n = -5
    with pytest.raises(ZeroDenominator) as info:
        evolve_gkdv([1, 1, -1, 1], SystemParams(Fraction(1, 2), Fraction(1, 3)), 1, n_lo=-7)
    assert info.value.site == -5 and str(info.value) == "map denominator vanished at site n=-5"


# 2, 3, 5 and 7 are the primes of the constants below; operands built from
# their powers times random cofactors share small factors with N1 and N2, so
# each of the kernel's four small-factor gcds is often nontrivial
seven_smooth = st.lists(st.integers(0, 6), min_size=4, max_size=4).map(
    lambda e: prod(pr ** k for pr, k in zip((2, 3, 5, 7), e)))
smooth_int = st.builds(lambda s, bits, r: s * (r % 2 ** bits + 1),
                       seven_smooth, st.integers(0, 200), st.integers(0, 2 ** 200))
smooth_const = st.builds(lambda s, n, d: Fraction(s * n, d), st.sampled_from([1, -1]),
                         st.sampled_from([1, 2, 3, 5, 6, 7, 14, 15, 21, 35]),
                         st.sampled_from([1, 2, 3, 4, 6, 9, 10, 15, 28]))
smooth_positive = smooth_const.map(abs)
smooth_unit = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5),
                               Fraction(5, 6), Fraction(6, 7), Fraction(7, 9), Fraction(14, 15),
                               Fraction(1, 6), Fraction(3, 10), Fraction(5, 14)])


@st.composite
def smooth_operands(draw):
    """(x, y) of either sign with xn and yd (and yn and xd) sharing a factor,
    each part a 7-smooth number times a random cofactor; sometimes a zero."""
    s1, s2, xn, xd, yn, yd = (draw(smooth_int) for _ in range(6))
    sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    zeros = draw(st.sampled_from(["", "", "", "", "x", "y", "xy"]))
    return (Fraction(0) if "x" in zeros else Fraction(sx * xn * s1, xd * s2),
            Fraction(0) if "y" in zeros else Fraction(sy * yn * s2, yd * s1))


def _gkdv_set(ab):
    alpha, beta = ab
    return (1 - beta, beta, 1 - alpha, alpha)


def _d1_over_a_set(a, b):
    delta = 1 / b
    return (1 + delta, (1 + delta) / a, 1, delta)


# signed constants of up to ~4k bits, and 0 and -1
big_const = st.one_of(
    st.builds(lambda s, n, d: Fraction(s * n, d), st.sampled_from([1, -1]), big_int, big_int),
    st.sampled_from([Fraction(0), Fraction(-1)]),
)

# (c1, d1, c2, d2): the map's own constants, and the other shapes of
# constants that ``lattice._two_point`` accepts
two_point_constants = st.one_of(
    shared_denominators.map(_gkdv_set),                        # the two-parameter map
    smooth_unit.map(lambda a: _gkdv_set((a, a))),              # alpha = beta, K = 0
    smooth_const.map(lambda d: (1 + d, Fraction(0), Fraction(1), d)),  # D1 = 0
    st.builds(lambda a, b: (Fraction(1), b, Fraction(1), a),   # c1 = c2 = 1
              smooth_const, smooth_const),
    st.builds(_d1_over_a_set, smooth_positive, smooth_positive),  # d1 = c1/a
    st.tuples(big_const, big_const, big_const, big_const),     # big, 0 and -1
)


@given(smooth_operands(), two_point_constants)
@settings(max_examples=500, deadline=None)
def test_two_point_matches_longhand_on_smooth_operands(pair, consts):
    x, y = pair
    try:
        expected = two_point_longhand(x, y, *consts)
    except ZeroDivisionError:
        with pytest.raises(ZeroDenominator):
            two_point(x, y, map_constants_longhand(*consts), 0)
        return
    got = two_point(x, y, map_constants_longhand(*consts), 0)
    assert [(v.numerator, v.denominator) for v in got] == [
        (v.numerator, v.denominator) for v in expected]
    assert all(type(v) is Fraction and _lowest_terms(v) for v in got)


def _kernel_branches(x: Fraction, y: Fraction, consts) -> dict:
    """The branches the kernel takes on (x, y) with R = (c1 + d1*w) /
    (c2 + d2*w), found from R reduced by ``Fraction``: whether g1 =
    gcd(xn, yd) is 1, divides R's numerator or leaves a remainder, g2 =
    gcd(yn, xd) against R's denominator alike, whether the two small
    remainder tests skip f1-f4, the four gcds f1-f4 the fallback takes, and
    the sign of K."""
    big_c1, big_d1, big_c2, big_d2, big_k, l1, l2 = map_constants_longhand(*consts)
    c1, d1, c2, d2 = consts
    w = x * y
    r = (c1 + d1 * w) / (c2 + d2 * w)
    g1, g2 = gcd(x.numerator, y.denominator), gcd(y.numerator, x.denominator)
    rn, rd = r.numerator // gcd(r.numerator, g1), r.denominator // gcd(r.denominator, g2)
    a, h = x.numerator // g1, y.denominator // g1
    b, e = y.numerator // g2, x.denominator // g2

    def division(g, v):
        return "one" if g == 1 else "divides" if v % g == 0 else "remainder"

    return {"g1": division(g1, r.numerator), "g2": division(g2, r.denominator),
            "f_skipped": gcd(rn, big_c1 * big_d1 * l2) == 1 == gcd(rd, big_c2 * big_d2 * l1),
            "f": (gcd(h, big_d1 * l2, rn), gcd(b, big_c2 * l1, rd),
                  gcd(e, big_d2 * l1, rd), gcd(a, big_c1 * l2, rn)),
            "k": (big_k > 0) - (big_k < 0)}


README_CONSTS = _gkdv_set((REF_PARAMS.alpha, REF_PARAMS.beta))  # K = -9
# one (x, y, (c1, d1, c2, d2)) per kernel branch, with the branches that
# _kernel_branches must find it takes
PINNED_BRANCHES = {
    "g1_divides_rn": (Fraction(2), Fraction(1, 4), README_CONSTS, {"g1": "divides"}),
    "g1_leaves_a_remainder": (Fraction(6), Fraction(1, 12), README_CONSTS, {"g1": "remainder"}),
    "g2_divides_rd": (Fraction(1, 2), Fraction(2, 3), README_CONSTS, {"g2": "divides"}),
    "g2_leaves_a_remainder": (Fraction(1, 4), Fraction(4, 7), README_CONSTS,
                              {"g2": "remainder"}),
    "f1_to_f4_skipped": (Fraction(4, 5), Fraction(5, 2), README_CONSTS,
                         {"g1": "divides", "g2": "divides", "f_skipped": True}),
    "f1_to_f4_taken": (Fraction(2), Fraction(5, 7), README_CONSTS,
                       {"f_skipped": False, "f": (7, 5, 1, 2)}),
    "f1_to_f4_taken_for_rd_alone": (Fraction(1), Fraction(5), README_CONSTS,
                                    {"f_skipped": False, "f": (1, 5, 1, 1)}),
    "k_zero": (Fraction(2, 3), Fraction(3, 4), _gkdv_set((Fraction(5, 6), Fraction(5, 6))),
               {"k": 0}),
    "k_negative_readme_pair": (Fraction(3, 5), Fraction(7, 4), README_CONSTS, {"k": -1}),
    "k_positive": (Fraction(3, 5), Fraction(7, 4), _gkdv_set((REF_PARAMS.beta, REF_PARAMS.alpha)),
                   {"k": 1}),
    "c1_zero": (Fraction(6), Fraction(1, 6),
                (Fraction(0), Fraction(2, 3), Fraction(1, 2), Fraction(3, 4)), {"g1": "remainder"}),
    "d1_zero": (Fraction(1, 3), Fraction(9),
                (Fraction(5, 3), Fraction(0), Fraction(1), Fraction(2, 3)),
                {"g2": "divides", "f_skipped": False}),
}


@pytest.mark.parametrize("branch", PINNED_BRANCHES)
def test_two_point_matches_longhand_on_each_pinned_branch(branch):
    # hypothesis reaches each branch only by chance; these reach it by
    # construction, and _kernel_branches checks that they do
    x, y, consts, taken = PINNED_BRANCHES[branch]
    found = _kernel_branches(x, y, consts)
    assert {key: found[key] for key in taken} == taken
    got = two_point(x, y, map_constants_longhand(*consts), 0)
    assert got == two_point_longhand(x, y, *consts)


@given(system_params())
def test_gkdv_constants_scale_the_map_coefficients(params):
    # the map's own constants are the general scaling of (1 - beta, beta,
    # 1 - alpha, alpha) that the kernel test above feeds lattice._two_point
    assert _gkdv_constants(params) == map_constants_longhand(
        *_gkdv_set((params.alpha, params.beta)))


def test_two_full_size_gcds_per_site_on_a_solution_row(monkeypatch):
    """A cost guard that needs no timing.  On a sampled two-soliton row the
    kernel takes at most four gcds per site whose operands both exceed
    2**64: g1 and g2, and the gcds of g1 and g2 with the remainders of R's
    numerator and denominator, which on a solution are mostly 0 and cost
    one division each.  Reducing x' and y~ by full-size cross gcds, as
    ``Fraction`` multiplication does, takes six."""
    params, modes = REF_PARAMS, REF_SOLITONS
    t_range, n_range = (-3, 12), (-20, 40)
    row0 = sample_field(params, modes, (-3, -3), n_range).xs[0]
    edge = sample_field(params, modes, t_range, (-20, -20)).ys
    per_site: list[int] = []
    kernel = lattice._two_point

    def counting_gcd(a, b):
        if abs(a) >> 64 and abs(b) >> 64:
            per_site[-1] += 1
        return gcd(a, b)

    def counting_two_point(*args):
        per_site.append(0)
        return kernel(*args)

    monkeypatch.setattr(lattice, "gcd", counting_gcd)
    monkeypatch.setattr(lattice, "_two_point", counting_two_point)
    field = evolve_gkdv(row0, params, 15, n_lo=-20, t0=-3, y_left=[y for (y,) in edge])
    monkeypatch.undo()
    assert field == sample_field(params, modes, t_range, n_range)
    assert len(per_site) == 16 * 61
    assert max(per_site) <= 4
    # g1 divides rn and g2 divides rd at most sites, so most take g1 and
    # g2 alone, or fewer near the background where the values are short
    assert sum(c <= 2 for c in per_site) > len(per_site) // 2


def test_step_equal_parameters_is_a_shift():
    params = SystemParams(Fraction(5, 6), Fraction(5, 6))
    row = [Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(1), Fraction(1)]
    with pytest.warns(SolitonEscapedWindow):
        # force the warning path too: put mass on the right edge
        evolve_gkdv(row[:-1] + [Fraction(2)], params, 0)
    x_next, y_row = _sweep(row, Fraction(1), _gkdv_constants(params), 0)
    assert x_next == [Fraction(1)] + row[:-1]
    # incoming carries are the old row shifted, overflow carries the edge out
    assert y_row == [Fraction(1)] + row


@pytest.mark.parametrize("row, t_escaped", [
    ([Fraction(1), Fraction(10 ** 400)], 0),
    ([Fraction(10 ** 400), Fraction(1)], 1),
], ids=["first_row", "second_row"])
def test_a_right_edge_past_the_float_range_warns_with_an_infinite_deviation(row, t_escaped):
    with pytest.warns(SolitonEscapedWindow) as record:
        field = evolve_gkdv(row, REF_PARAMS, 1)
    assert len(field.xs) == 2 and field.xs[0] == row
    messages = {str(w.message) for w in record}
    assert (f"right window edge at t={t_escaped} deviates from the background by inf; "
            "content is being truncated") in messages


def test_the_escape_is_decided_on_the_exact_right_edge(recwarn):
    # 1 + ESCAPE_TOL and the float next above it both round to the same
    # float, whose distance from 1.0 reads below ESCAPE_TOL; only the exact
    # value beyond it escapes, and its message keeps the float deviation
    tol = Fraction(lattice.ESCAPE_TOL)
    evolve_gkdv([Fraction(1), 1 + tol], REF_PARAMS, 0)
    assert not recwarn.list
    with pytest.warns(SolitonEscapedWindow, match=r"^right window edge at t=0 deviates "
                      r"from the background by 1\.000e-06; content is being truncated$"):
        evolve_gkdv([Fraction(1), 1 + tol + Fraction(1, 10 ** 30)], REF_PARAMS, 0)
    with pytest.warns(SolitonEscapedWindow, match=r"^right window edge at t=3 deviates "
                      r"from the background by 2\.500e-01; content is being truncated$"):
        evolve_gkdv([Fraction(3, 4)], REF_PARAMS, 0, t0=3)


def test_step_rejects_empty_window():
    params = SystemParams(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(WindowTooSmall):
        evolve_gkdv([], params, 0)


@given(st.lists(positive, min_size=2, max_size=8), system_params(),
       st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_evolution_conserves_site_products(row, params, steps):
    # x'(n) y(n+1) = x(n) y(n) at every site, with y(n+1) the carry that
    # x(n) handed on; the window re-seeds y = 1 on the left each sweep
    field = evolve_gkdv(row, params, steps)
    for j in range(steps):
        assert field.ys[j][0] == 1
        for n in range(len(row) - 1):
            assert (field.xs[j + 1][n] * field.ys[j][n + 1]
                    == field.xs[j][n] * field.ys[j][n])


@given(st.lists(positive, min_size=1, max_size=8), any_regime, st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_evolution_matches_the_fraction_longhand_sweep(row, ab, steps, data):
    # a generic row takes the kernel's gcd fallbacks, and a drawn left
    # carrier enters the integer-pair carry at other values than 1
    params = SystemParams(*ab)
    y_left = data.draw(st.none() | st.lists(positive, min_size=steps + 1, max_size=steps + 1))
    field = evolve_gkdv(row, params, steps, y_left=y_left)
    assert (field.xs, field.ys) == evolve_longhand(row, params.alpha, params.beta, steps,
                                                   y_left)


def test_evolve_needs_one_left_carrier_per_row():
    params = SystemParams(Fraction(5, 6), Fraction(14, 15))
    row = [Fraction(1), Fraction(2), Fraction(1)]
    with pytest.raises(ValueError):
        evolve_gkdv(row, params, 2, y_left=[Fraction(1)] * 2)
    field = evolve_gkdv(row, params, 2, y_left=[Fraction(1), Fraction(3), Fraction(1, 2)])
    assert [r[0] for r in field.ys] == [1, 3, Fraction(1, 2)]


def test_field_accessors_and_csv():
    params = SystemParams(Fraction(1, 2), Fraction(1, 3))
    field = evolve_gkdv([Fraction(1), Fraction(2), Fraction(1)], params, 2,
                        n_lo=-1, t0=5)
    assert field.n_hi == 1 and field.t1 == 7
    assert list(field.times) == [5, 6, 7]
    assert list(field.sites) == [-1, 0, 1]
    buf = io.StringIO()
    field.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t,x,y"
    first = lines[1].split(",")
    assert first[0] == "-1" and first[1] == "5"
    # rows come out t-major
    assert [ln.split(",")[1] for ln in lines[1:4]] == ["5", "5", "5"]
    buf2 = io.StringIO()
    field.write_csv(buf2, values="exact")
    assert buf2.getvalue().splitlines()[1].split(",")[2] == "1"
    with pytest.raises(ValueError):
        field.write_csv(io.StringIO(), values="decimal")


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30))
def test_rat_str_round_trips(q):
    assert Fraction(rat_str(q)) == q


def test_rat_str_beyond_int_str_digit_limit():
    # CPython refuses str() of ints above 4300 digits by default; evolved
    # rows pass that within a few steps, so rat_str must not depend on it
    q = Fraction(10 ** 5000 + 1, 3)
    assert rat_str(q) == "1" + "0" * 4999 + "1/3"
    assert rat_str(Fraction(-(10 ** 5000))) == "-1" + "0" * 5000


def test_field_validation():
    with pytest.raises(WindowTooSmall):
        LatticeField(0, 0, [], [])
    with pytest.raises(ValueError):
        LatticeField(0, 0, [[Fraction(1)], [Fraction(1), Fraction(2)]],
                     [[Fraction(1)], [Fraction(1)]])


ONES = [[Fraction(1)] * 3 for _ in range(2)]
ZERO_AT_1_2 = [[Fraction(1)] * 3, [Fraction(1), Fraction(1), Fraction(0)]]


@pytest.mark.parametrize("call, error", [
    (lambda: LatticeField(0, 0, [[Fraction(1)], [Fraction(1), Fraction(2)]],
                          [[Fraction(1)], [Fraction(1)]]), RaggedField),
    (lambda: LatticeField(-4, 7, ZERO_AT_1_2, ONES), ZeroFieldValue),
    (lambda: LatticeField(0, 0, ONES, ONES[:1]), RaggedField),
    (lambda: LatticeField(0, 0, ONES, ONES).write_csv(io.StringIO(), values="decimal"),
     UnknownValueMode),
    (lambda: evolve_gkdv([Fraction(1)], SystemParams(Fraction(1, 2), Fraction(2, 3)), -1),
     NegativeSteps),
    (lambda: evolve_gkdv([Fraction(1)], SystemParams(Fraction(1, 2), Fraction(2, 3)), 2,
                         y_left=[Fraction(1)] * 2), RaggedField),
], ids=["ragged_rows", "zero_value", "unequal_row_counts", "unknown_value_mode",
        "negative_steps", "short_y_left"])
def test_lattice_value_errors_are_typed(call, error):
    # each is a SolitonLabError and still a ValueError
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, SolitonLabError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("xs, ys, message, point", [
    (ZERO_AT_1_2, ONES, "field x is 0 at (t=7, n=-2)", (7, -2)),
    (ONES, ZERO_AT_1_2, "field y is 0 at (t=7, n=-2)", (7, -2)),
    (ZERO_AT_1_2, ZERO_AT_1_2[::-1], "field y is 0 at (t=6, n=-2)", (6, -2)),
    (ZERO_AT_1_2, ZERO_AT_1_2, "field x is 0 at (t=7, n=-2)", (7, -2)),
], ids=["x", "y", "earlier_row_first", "x_before_y"])
def test_a_zero_field_value_is_named_with_its_site(xs, ys, message, point):
    # the first zero row by row, x before y within a row; entry (j, k) of
    # the lists is the site (t0 + j, n_lo + k)
    with pytest.raises(ZeroFieldValue) as info:
        LatticeField(-4, 6, xs, ys)
    assert str(info.value) == message and info.value.point == point

