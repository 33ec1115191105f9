"""Root finding and bounded minimization over batches, one evaluation per round.

Each routine runs one independent search per element of its flat bracket or
bound arrays, which have one length. A search is a generator that takes the
scalar steps of its SciPy counterpart: it yields its next point and is sent
f's value there. ``_drive`` calls f once per round, on the points of every
search still running in element order, so a batch costs as many calls of f
as its slowest element.

Per element, both routines reproduce the floating-point operations of their
SciPy counterparts in the same order, so a polished root or minimum carries
the same bits as the SciPy call it replaces, whatever the batch. They are
ports of SciPy code (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc.
and 2003- SciPy Developers): ``brentq`` of the C routine behind
``optimize.brentq`` (``Zeros/brentq.c``), ``minimize_bounded`` of
``_minimize_scalar_bounded`` behind ``optimize.minimize_scalar(method="bounded")``.

f is called as ``f(x, *args)``: x holds the points of the elements still
searching and each of ``args`` the same elements' rows of a per-element
parameter array. It returns ``(values, rows)``, row i being whatever else the
caller wants at x[i]. ``brentq`` returns the row of each root, so a caller
reads it there without evaluating f again.
"""
from __future__ import annotations

import math

import numpy as np

BRENTQ_RTOL = 4 * float(np.finfo(float).eps)
BRENTQ_MAXITER = 100
BOUNDED_MAXITER = 500

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _drive(f, searches, args) -> list:
    """Each search's result: every round sends each search still running f's
    value and row at its last point, then calls f once on their next points."""
    results = [None] * len(searches)
    live, replies = range(len(searches)), [None] * len(searches)
    while True:
        running, points = [], []
        for i, reply in zip(live, replies):
            try:
                points.append(searches[i].send(reply))
                running.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        if not running:
            return results
        live = running
        values, rows = f(np.array(points), *(a[live] for a in args))
        replies = zip(np.asarray(values, dtype=float).tolist(), rows)


def _arrays(results) -> tuple:
    """Both fields of the searches' results, each as an array."""
    return tuple(np.array([r[j] for r in results]) for j in range(2))


def _number(x: float, fx: float) -> float:
    """fx, refused if it is NaN."""
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brent(xpre, xcur, fpre, fcur, rpre, rcur, xtol):
    """``brentq.c`` on one bracket: yields each point, is sent (f, row)
    there, and returns the root and its row."""
    fpre, fcur = _number(xpre, fpre), _number(xcur, fcur)
    if fpre == 0:
        return xpre, rpre
    if fcur == 0:
        return xcur, rcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    rblk = None
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk, rblk = xpre, fpre, rpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            rpre, rcur, rblk = rcur, rblk, rcur
        delta = (xtol + BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, rcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # where the C code divides by zero the step is inf or NaN, which
            # fails the step test like any other rejected step
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre, rpre = xcur, fcur, rcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur, rcur = yield xcur
        _number(xcur, fcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations.")


def brentq(f, a, b, xtol: float, ends, args=()) -> tuple:
    """A root of f in each sign-changing bracket [a, b] by Brent's method.

    SciPy's ``brentq`` with rtol 4*eps and at most 100 iterations, step for
    step: the same interpolation, extrapolation and bisection choices and
    the same arithmetic. a and b are flat arrays of one length, and ``ends``
    are f's returns at a and at b, which every caller has. Returns the roots
    and f's rows at them. Raises ValueError if the arrays differ in length,
    if f(a) and f(b) of some element have the same sign or f returns NaN, and
    RuntimeError if some element does not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    (fa, ra), (fb, rb) = ends
    a, b, fa, fb = (np.asarray(v, dtype=float).tolist() for v in (a, b, fa, fb))
    searches = [_brent(*e, xtol) for e in zip(a, b, fa, fb, ra, rb, strict=True)]
    return _arrays(_drive(f, searches, args))


def _sign1(v: float) -> float:
    """np.sign(v) + (v == 0): +1 at zero, NaN stays NaN."""
    return 1.0 if v >= 0 else (-1.0 if v < 0 else math.nan)


def _bounded(a, b, xatol):
    """``_minimize_scalar_bounded`` on [a, b]: yields each point, is sent
    (f, row) there, and returns the minimum's point and value."""
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx, _ = yield xf
    num = 1
    ffulc = fnfc = fx
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not (abs(xf - xm) > (tol2 - 0.5 * (b - a)) and num < BOUNDED_MAXITER):
            return xf, fx
        parabolic = abs(e) > tol1
        if parabolic:  # parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf)
        if parabolic:
            rat = (p + 0.0) / q
            x = xf + rat
            if (x - a) < tol2 or (b - x) < tol2:
                rat = tol1 * _sign1(xm - xf)
        else:  # golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        x = xf + _sign1(rat) * max(abs(rat), tol1)
        fu, _ = yield x
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def minimize_bounded(f, lo, hi, xatol: float, args=()) -> tuple:
    """(x, f(x)) at a local minimum of f on each [lo, hi].

    SciPy's ``minimize_scalar(method="bounded")`` (Brent's golden-section
    search with parabolic steps) with at most 500 evaluations, step for
    step. Stops silently at the evaluation limit, as SciPy does. lo and hi
    are flat arrays of one length; raises ValueError if they differ in
    length.
    """
    a, b = (np.asarray(v, dtype=float) for v in (lo, hi))
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise ValueError("Optimization bounds must be finite scalars.")
    if (a > b).any():
        raise ValueError("The lower bound exceeds the upper bound.")
    searches = [_bounded(*e, xatol) for e in zip(a.tolist(), b.tolist(), strict=True)]
    return _arrays(_drive(f, searches, args))
