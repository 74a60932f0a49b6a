"""The stdlib float layers against the numpy formulas they replace.

``measure._interp``, ``boxball.tropical_step`` and ``boxball._logaddexp``
match their numpy counterparts bit for bit.  ``ud_limit_check`` also calls
exp, expm1, log and log1p, which numpy may evaluate with SIMD kernels that
differ from the C library by one unit in the last place, so its gaps are
compared within a few ulp of the field's scale.  The module is skipped
where numpy is not installed; the package itself does not use it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import BBSCState, UDField, bbsc_step, bbsc_sweep, field_from_state
from solitonlab.boxball import _logaddexp, tropical_step, ud_limit_check
from solitonlab.measure import _interp

np = pytest.importorskip("numpy")

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)


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


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
       positive, positive)
@settings(max_examples=300, deadline=None)
def test_tropical_step_matches_numpy(pairs, cap_a, cap_b):
    field = UDField(tuple(x for x, _ in pairs), tuple(y for _, y in pairs),
                    cap_a, cap_b)
    x = np.asarray(field.X, dtype=float)
    y = np.asarray(field.Y, dtype=float)
    with np.errstate(over="ignore"):  # huge draws overflow to inf in both
        old = np.minimum(-x, cap_b + y) + np.maximum(x + y + cap_a, 0.0) - cap_a
    assert list(map(bits, tropical_step(field))) == list(map(bits, old))


@given(st.floats(-800, 800), st.floats(-800, 800))
@settings(max_examples=300, deadline=None)
def test_logaddexp_matches_numpy(x, y):
    assert bits(_logaddexp(x, y)) == bits(np.logaddexp(x, y))
    assert bits(_logaddexp(x, x)) == bits(np.logaddexp(x, x))


def numpy_ud_gaps(field, epsilons):
    """``ud_limit_check`` as it was written with numpy arrays."""
    def log1mexp(z):
        out = np.empty_like(z)
        small = z < -math.log(2.0)
        out[small] = np.log1p(-np.exp(z[small]))
        out[~small] = np.log(-np.expm1(z[~small]))
        return out

    x = np.asarray(field.X, dtype=float)
    y = np.asarray(field.Y, dtype=float)
    a, b = field.A, field.B
    trop = np.minimum(-x, b + y) + np.maximum(x + y + a, 0.0) - a
    gaps = []
    for eps in epsilons:
        t_beta = np.logaddexp(log1mexp(np.full_like(x, -b / eps)), -(b + x + y) / eps)
        t_alpha = np.logaddexp(log1mexp(np.full_like(x, -a / eps)), -(a + x + y) / eps)
        gaps.append(float(np.max(np.abs(y - eps * t_beta + eps * t_alpha - trop))))
    return gaps


@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(st.integers(0, 5), min_size=1, max_size=12), st.integers(0, 3),
       st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=5, unique=True))
@settings(max_examples=200, deadline=None)
def test_ud_limit_check_matches_numpy(c_box, c_carrier, cells, steps, epsilons):
    state = BBSCState(tuple(min(v, c_box) for v in cells), c_box, c_carrier)
    for _ in range(steps):
        state = bbsc_step(state)
    field = field_from_state(state, bbsc_sweep(state)[1])
    epsilons = sorted(epsilons, reverse=True)
    scale = max(1.0, field.A, field.B, *map(abs, field.X), *map(abs, field.Y))
    new = [g for _, g in ud_limit_check(field, epsilons)]
    for g_new, g_old in zip(new, numpy_ud_gaps(field, epsilons), strict=True):
        assert abs(g_new - g_old) <= 8 * math.ulp(scale)
