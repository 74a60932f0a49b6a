"""The stdlib float layers against the numpy formulas they replace.

``measure._interp`` matches ``np.interp`` bit for bit.  ``ud_limit_check``
splits each gap into an exact integer and an eps tie term; the numpy
reference keeps the log-sum form log((1 - beta) + beta x y) =
logaddexp(-c_box/eps, log(beta) - (u + v)/eps), and the exp, expm1, log and
log1p on the two sides may each be off by an ulp or so, so the gaps are
compared within a few ulp of c_box + c_carrier, which bounds u + v.  The
module is skipped where numpy is not installed; the package itself does not
use it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import BBSCState, bbsc_sweep, evolve_bbsc
from solitonlab.boxball import ud_limit_check
from solitonlab.measure import _interp

np = pytest.importorskip("numpy")


def bits(v: float) -> str:
    return float(v).hex()


@given(st.lists(st.integers(1, 4), min_size=1, max_size=12),
       st.integers(-20, 20),
       st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-100, 100)),
                min_size=12, max_size=12),
       st.one_of(st.integers(-30, 70), st.floats(-30, 70)))
@settings(max_examples=300, deadline=None)
def test_interp_matches_numpy(steps, t0, values, x):
    xp = [t0 + sum(steps[:k + 1]) for k in range(len(steps))]
    fp = values[:len(xp)]
    assert bits(_interp(x, xp, fp)) == bits(np.interp(x, xp, fp))


def numpy_ud_gaps(state, epsilons):
    """``ud_limit_check``'s in-regime gaps written with numpy arrays."""
    def log1mexp(z):
        return np.log1p(-np.exp(z)) if z < -math.log(2.0) else np.log(-np.expm1(z))

    new, loads = bbsc_sweep(state)
    u2 = np.asarray(new.u, dtype=float)
    u = np.zeros_like(u2)
    u[:len(state.u)] = state.u
    v = np.asarray(loads[:len(u2)], dtype=float)
    cb, cc = float(state.c_box), float(state.c_carrier)
    gaps = []
    for eps in epsilons:
        t_box = np.logaddexp(-cb / eps, log1mexp(-cb / eps) - (u + v) / eps)
        t_carrier = np.logaddexp(-cc / eps, log1mexp(-cc / eps) - (u + v) / eps)
        gaps.append(float(np.max(np.abs(v - u2 - eps * (t_box - t_carrier)))))
    return gaps


@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(st.integers(0, 5), min_size=1, max_size=12), st.integers(0, 3),
       st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=5, unique=True))
@settings(max_examples=200, deadline=None)
def test_ud_limit_check_matches_numpy(c_box, c_carrier, cells, steps, epsilons):
    state = evolve_bbsc(BBSCState(tuple(min(v, c_box) for v in cells), c_box, c_carrier),
                        steps)[-1]
    epsilons = sorted(epsilons, reverse=True)
    scale = c_box + c_carrier  # u <= c_box and v <= c_carrier
    new = [g for _, g in ud_limit_check(state, epsilons)]
    for g_new, g_old in zip(new, numpy_ud_gaps(state, epsilons), strict=True):
        assert abs(g_new - g_old) <= 8 * math.ulp(scale)
