"""roots.brentq and roots.minimize_bounded against the SciPy routines they
port, and the batched searches against the scalar ports they replace: the
same bits for the same function and bracket."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqptwalk.roots import brentq, minimize_bounded

coef = st.floats(-3, 3, allow_nan=False)
FAMILIES = {
    "cubic": lambda c, r: lambda x: c[0] * (x - r) * (1 + c[1] ** 2 + (x - c[2]) ** 2),
    "sine": lambda c, r: lambda x: math.sin(c[0] * (x - r)) + 1e-3 * c[1] * (x - r),
    "flat": lambda c, r: lambda x: (x - r) ** 3 * (1 + c[0] ** 2) + 1e-12 * c[1],
    "step": lambda c, r: lambda x: math.tanh(50 * (x - r)) + 1e-4 * c[2],
    "numpy": lambda c, r: lambda x: np.float64(x - r) * np.exp(c[0] * x),
    "kink": lambda c, r: lambda x: abs(x - r) ** 0.5 * (1 if x > r else -1) + c[1] * 1e-6,
}
# brentq cases that raise, or return an exact zero at an end
SPECIAL = [
    (lambda x: x * x + 1, -1.0, 1.0),                              # no sign change
    (lambda x: 1e-200 * (x + 2), 0.0, 1.0),                         # product underflows
    (lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0),   # NaN inside
    (lambda x: 1.0 if x > 1e-200 else -1.0, -1e300, 1e300),         # 100 steps
    (lambda x: x, 0.0, 1.0),                                        # zero at a
    (lambda x: x, -1.0, -0.0),                                      # -0.0 at b
    (lambda x: -0.0 if x < 0.5 else 1.0, 0.0, 1.0),                 # f(a) is -0.0
    (lambda x: math.nan if abs(x - 0.1 ** (1 / 3)) < 1e-4 else x ** 3 - 0.1,
     0.0, 1.0),                                                     # NaN at step 6
]
# minimize_bounded cases that stop at the 500-evaluation limit
BOUNDED_SPECIAL = [
    (abs, -1e300, 1e300),
    (lambda x: math.sqrt(abs(x - 1e-3)), -1e300, 1e300),
]


def _elementwise(f):
    """The array form of a scalar function, one math call per element, with
    its values as its rows."""
    return lambda xs: (np.array([f(x) for x in xs], dtype=float),) * 2


def _brentq(f, a, b, xtol):
    """brentq on a scalar f as a batch of one, given f at both bracket ends
    from its elementwise form, as every caller passes them."""
    g = _elementwise(f)
    return brentq(g, [a], [b], xtol, ends=(g([a]), g([b])))[0][0]


def _per_element(fs):
    """One batched function that applies fs[i] to the element with index i;
    its rows are (f(x), x, i)."""
    def f(xs, i):
        v = np.array([fs[j](x) for x, j in zip(xs, i)], dtype=float)
        return v, np.stack([v, xs, i], axis=-1)
    return f


def _fresh_rows(batch_f, xs):
    """batch_f's row at each xs[i] for element i, one call per element."""
    return [batch_f(np.array([x]), np.array([i]))[1][0] for i, x in enumerate(xs)]


def _same(a, b):
    return float(a) == float(b) and math.copysign(1, a) == math.copysign(1, b)


def _outcome(call):
    try:
        return call(), None
    except (ValueError, RuntimeError) as err:
        return None, type(err)


# The scalar ports the batched routines replaced, kept as their reference.

def _reference_value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _reference_brentq(f, a, b, xtol):
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    rtol = 4 * float(np.finfo(float).eps)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _reference_value(f, xpre)
    fcur = _reference_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _reference_value(f, xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _reference_sign1(v):
    if v >= 0:
        return 1.0
    return -1.0 if v < 0 else math.nan


def _reference_minimize_bounded(f, lo, hi, xatol):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _reference_sign1(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _reference_sign1(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


# Against SciPy, one element at a time.

@given(st.sampled_from(sorted(FAMILIES)), st.tuples(coef, coef, coef), coef,
       st.floats(-7, 1), st.floats(-7, 1),
       st.sampled_from([2e-12, 1e-12, 1e-13, 1e-6, 1e-2]))
@settings(max_examples=600, deadline=None)
def test_brentq_matches_scipy(family, c, r, lo_exp, hi_exp, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    f = FAMILIES[family](c, r)
    a, b = r - 10 ** lo_exp, r + 10 ** hi_exp
    want = _outcome(lambda: optimize.brentq(f, a, b, xtol=xtol))
    got = _outcome(lambda: _brentq(f, a, b, xtol))
    assert got[1] == want[1]
    if want[1] is None:
        assert _same(got[0], want[0])
        # reversed bracket too
        assert _same(_brentq(f, b, a, xtol), optimize.brentq(f, b, a, xtol=xtol))


def test_brentq_errors_match_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    cases = [(f, a, b, 1e-12) for f, a, b in SPECIAL[:4]] \
        + [(lambda x: x - 0.5, 0.0, 1.0, 0.0)]                 # xtol not positive
    for f, a, b, xtol in cases:
        with pytest.raises((ValueError, RuntimeError)) as want:
            optimize.brentq(f, a, b, xtol=xtol)
        with pytest.raises(want.type):
            _brentq(f, a, b, xtol)
    # an exact zero at an end is returned at once
    assert _brentq(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
    assert _brentq(lambda x: np.where(x < 0.5, -0.0, 1.0), 0.0, 1.0, 1e-12) == 0.0


@given(st.sampled_from(sorted(FAMILIES)), st.tuples(coef, coef, coef), coef,
       st.floats(-5, 5), st.floats(-4, 1), st.booleans(),
       st.sampled_from([1e-12, 1e-8, 1e-5]))
@settings(max_examples=600, deadline=None)
def test_minimize_bounded_matches_scipy(family, c, r, lo, width_exp, square, xatol):
    optimize = pytest.importorskip("scipy.optimize")
    g = FAMILIES[family](c, r)
    f = (lambda x: -g(x) ** 2) if square else (lambda x: abs(g(x)))
    hi = lo + 10 ** width_exp
    for bounds in ((lo, hi), (np.float64(lo), np.float64(hi))):
        res = optimize.minimize_scalar(f, bounds=bounds, method="bounded",
                                       options={"xatol": xatol})
        (x,), (fx,) = minimize_bounded(_elementwise(f), [bounds[0]], [bounds[1]], xatol)
        assert _same(x, res.x) and _same(fx, res.fun)


def test_minimize_bounded_rejects_bad_bounds():
    with pytest.raises(ValueError):
        minimize_bounded(np.abs, [1.0], [0.0], 1e-12)
    with pytest.raises(ValueError):
        minimize_bounded(np.abs, [0.0], [math.inf], 1e-12)
    with pytest.raises(ValueError):
        minimize_bounded(np.abs, [0.0, 0.0], [1.0, math.nan], 1e-12)


@pytest.mark.parametrize("n_lo, n_hi, n_ends", [(2, 3, 3), (3, 2, 3), (3, 3, 1), (1, 3, 3)])
def test_unequal_lengths_raise(n_lo, n_hi, n_ends):
    """Bracket, bound and end arrays of unequal length raise ValueError
    instead of being cut to the shortest; every bracket here is valid."""
    g = _elementwise(lambda x: x - 0.5)
    lo, hi = np.zeros(n_lo), np.ones(n_hi)
    with pytest.raises(ValueError):
        brentq(g, lo, hi, 1e-12, ends=(g(np.zeros(n_ends)), g(np.ones(n_ends))))
    if n_lo != n_hi:
        with pytest.raises(ValueError):
            minimize_bounded(g, lo, hi, 1e-12)


# Batched against the scalar ports, element by element.

_element = st.tuples(st.sampled_from(sorted(FAMILIES)), st.tuples(coef, coef, coef), coef,
                     st.floats(-7, 1), st.floats(-7, 1), st.booleans())


@given(st.lists(st.one_of(_element, st.integers(0, len(SPECIAL) - 1)),
                min_size=1, max_size=6),
       st.sampled_from([2e-12, 1e-12, 1e-13, 1e-6, 1e-2]))
@settings(max_examples=300, deadline=None)
@example([("step", (0.0, 0.0, 1.0), 0.5, -3.0, -3.0, False), 4, 5, 6], 1e-12)
@example([("cubic", (1.0, 0.0, 0.0), 0.25, -1.0, -2.0, True), 2], 1e-12)
@example([("sine", (1.0, 0.0, 0.0), 0.25, -1.0, -2.0, False), 5, 7, 3], 1e-12)
@example([4, ("kink", (1.0, 1.0, 0.0), 0.1, -2.0, 0.0, True), 7], 1e-13)
@example([3, 7], 1e-12)
@example([5, 4, 6], 1e-12)
def test_batched_brentq_equals_scalar_port(elements, xtol):
    """Each root of a batch carries the bits of the scalar search on its
    bracket, zero signs included, and its row is f's fresh row there. A
    batch raises in the first round where one of its elements does, with
    that element's error type: before any call for bad bracket ends, in the
    call whose value is NaN, after the 100th call without convergence."""
    fs, lo, hi = [], [], []
    for el in elements:
        if isinstance(el, int):
            f, a, b = SPECIAL[el]
        else:
            family, c, r, lo_exp, hi_exp, flipped = el
            f = FAMILIES[family](c, r)
            a, b = r - 10 ** lo_exp, r + 10 ** hi_exp
            if flipped:
                a, b = b, a
        fs.append(f)
        lo.append(a)
        hi.append(b)
    calls = []     # the scalar ports' evaluations, then the batch's points

    def counted(f):
        return lambda x: calls.append(1) or f(x)

    want, rounds = [], []      # per element: outcome, and calls past the two ends
    for f, a, b in zip(fs, lo, hi):
        before = len(calls)
        want.append(_outcome(lambda: _reference_brentq(counted(f), a, b, xtol)))
        rounds.append(max(len(calls) - before - 2, 0))
    scalar_calls = len(calls)
    batch_f, index = _per_element(fs), np.arange(len(fs))
    ends = tuple(batch_f(np.array(x), index) for x in (lo, hi))
    got = _outcome(lambda: brentq(lambda xs, i: calls.append(xs.size) or batch_f(xs, i),
                                  np.array(lo), np.array(hi), xtol, ends=ends, args=(index,)))
    failing = [(n, err) for n, (_, err) in zip(rounds, want) if err is not None]
    if failing:
        first = min(n for n, _ in failing)
        assert got[1] in {err for n, err in failing if n == first}
        assert len(calls) - scalar_calls == first
    else:
        assert got[1] is None
        ks, rows = got[0]
        assert ks.shape == (len(fs),) and rows.shape == (len(fs), 3)
        assert all(_same(g, w) for g, (w, _) in zip(ks, want))
        # given f at the bracket ends, the batch evaluates each element where
        # its scalar search does, except at the two ends
        assert sum(calls[scalar_calls:]) == scalar_calls - 2 * len(fs)
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in _fresh_rows(batch_f, ks)]
    for f, a, b, w in zip(fs, lo, hi, want):
        one = _outcome(lambda: _brentq(f, a, b, xtol))
        assert one[1] == w[1]
        if w[1] is None:
            assert _same(one[0], w[0])


@given(st.lists(st.one_of(st.tuples(st.sampled_from(sorted(FAMILIES)),
                                    st.tuples(coef, coef, coef), coef, st.floats(-5, 5),
                                    st.floats(-4, 1), st.booleans()),
                          st.integers(0, len(BOUNDED_SPECIAL) - 1)),
                min_size=1, max_size=6),
       st.sampled_from([1e-12, 1e-8, 1e-5]))
@settings(max_examples=300, deadline=None)
@example([0, ("cubic", (1.0, 0.0, 0.0), 0.25, -1.0, -1.0, False), 1], 1e-12)
def test_batched_minimize_bounded_equals_scalar_port(elements, xatol):
    """Each (x, f(x)) of a batch carries the bits of the scalar search on
    its bounds, also where it stops at the evaluation limit; the batch makes
    as many calls as its longest search."""
    fs, lo, hi = [], [], []
    for el in elements:
        if isinstance(el, int):
            f, a, b = BOUNDED_SPECIAL[el]
        else:
            family, c, r, a, width_exp, square = el
            g = FAMILIES[family](c, r)
            f = (lambda g: lambda x: -g(x) ** 2)(g) if square \
                else (lambda g: lambda x: abs(g(x)))(g)
            b = a + 10 ** width_exp
        fs.append(f)
        lo.append(a)
        hi.append(b)
    evaluations = []
    for f, a, b in zip(fs, lo, hi):
        calls = []
        want = _reference_minimize_bounded(lambda x: calls.append(1) or f(x), a, b, xatol)
        evaluations.append((len(calls), want))
    batch_f, rounds = _per_element(fs), []
    x, fx = minimize_bounded(lambda xs, i: rounds.append(1) or batch_f(xs, i),
                             np.array(lo), np.array(hi), xatol, args=(np.arange(len(fs)),))
    assert x.shape == fx.shape == (len(fs),)
    for xi, fi, (_, want) in zip(x, fx, evaluations):
        assert _same(xi, want[0]) and _same(fi, want[1])
    assert len(rounds) == max(n for n, _ in evaluations)
