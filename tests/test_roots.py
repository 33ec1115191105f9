"""roots.brentq and roots.minimize_bounded against the SciPy routines they
port: the same bits for the same function and bracket."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqptwalk.roots import brentq, minimize_bounded

optimize = pytest.importorskip("scipy.optimize")

coef = st.floats(-3, 3, allow_nan=False)
FAMILIES = {
    "cubic": lambda c, r: lambda x: c[0] * (x - r) * (1 + c[1] ** 2 + (x - c[2]) ** 2),
    "sine": lambda c, r: lambda x: math.sin(c[0] * (x - r)) + 1e-3 * c[1] * (x - r),
    "flat": lambda c, r: lambda x: (x - r) ** 3 * (1 + c[0] ** 2) + 1e-12 * c[1],
    "step": lambda c, r: lambda x: math.tanh(50 * (x - r)) + 1e-4 * c[2],
    "numpy": lambda c, r: lambda x: np.float64(x - r) * np.exp(c[0] * x),
    "kink": lambda c, r: lambda x: abs(x - r) ** 0.5 * (1 if x > r else -1) + c[1] * 1e-6,
}


def _same(a, b):
    return float(a) == float(b) and math.copysign(1, a) == math.copysign(1, b)


def _outcome(call):
    try:
        return call(), None
    except (ValueError, RuntimeError) as err:
        return None, type(err)


@given(st.sampled_from(sorted(FAMILIES)), st.tuples(coef, coef, coef), coef,
       st.floats(-7, 1), st.floats(-7, 1),
       st.sampled_from([2e-12, 1e-12, 1e-13, 1e-6, 1e-2]))
@settings(max_examples=600, deadline=None)
def test_brentq_matches_scipy(family, c, r, lo_exp, hi_exp, xtol):
    f = FAMILIES[family](c, r)
    a, b = r - 10 ** lo_exp, r + 10 ** hi_exp
    want = _outcome(lambda: optimize.brentq(f, a, b, xtol=xtol))
    got = _outcome(lambda: brentq(f, a, b, xtol))
    assert got[1] == want[1]
    if want[1] is None:
        assert _same(got[0], want[0])
        # reversed bracket too
        assert _same(brentq(f, b, a, xtol), optimize.brentq(f, b, a, xtol=xtol))


def test_brentq_errors_match_scipy():
    cases = [
        (lambda x: x * x + 1, -1.0, 1.0, 1e-12),              # no sign change
        (lambda x: 1e-200 * (x + 2), 0.0, 1.0, 1e-12),         # product underflows
        (lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0, 1e-12),  # NaN inside
        (lambda x: 1.0 if x > 1e-200 else -1.0, -1e300, 1e300, 1e-300),  # 100 steps
        (lambda x: x - 0.5, 0.0, 1.0, 0.0),                    # xtol not positive
    ]
    for f, a, b, xtol in cases:
        with pytest.raises((ValueError, RuntimeError)) as want:
            optimize.brentq(f, a, b, xtol=xtol)
        with pytest.raises(want.type):
            brentq(f, a, b, xtol)
    # an exact zero at an end is returned at once
    assert brentq(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
    assert brentq(lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0, 1e-12) == 0.0


@given(st.sampled_from(sorted(FAMILIES)), st.tuples(coef, coef, coef), coef,
       st.floats(-5, 5), st.floats(-4, 1), st.booleans(),
       st.sampled_from([1e-12, 1e-8, 1e-5]))
@settings(max_examples=600, deadline=None)
def test_minimize_bounded_matches_scipy(family, c, r, lo, width_exp, square, xatol):
    g = FAMILIES[family](c, r)
    f = (lambda x: -g(x) ** 2) if square else (lambda x: abs(g(x)))
    hi = lo + 10 ** width_exp
    for bounds in ((lo, hi), (np.float64(lo), np.float64(hi))):
        res = optimize.minimize_scalar(f, bounds=bounds, method="bounded",
                                       options={"xatol": xatol})
        x, fx = minimize_bounded(f, *bounds, xatol)
        assert _same(x, res.x) and _same(fx, res.fun)


def test_minimize_bounded_rejects_bad_bounds():
    with pytest.raises(ValueError):
        minimize_bounded(abs, 1.0, 0.0, 1e-12)
    with pytest.raises(ValueError):
        minimize_bounded(abs, 0.0, math.inf, 1e-12)
