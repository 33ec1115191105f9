"""Root finding and bounded minimization over batches, in lockstep.

Each routine runs one independent search per element of its bracket or
bound arrays. Every iteration takes the branch of each element with masks,
evaluates the function once on all elements still searching and drops the
ones that have finished, so a batch costs as many function calls as its
slowest element. A scalar call is a batch of one.

Per element, both routines reproduce the floating-point operations of their
SciPy counterparts in the same order, so a polished root or minimum carries
the same bits as the SciPy call it replaces, whatever the batch. They are
ports of SciPy code (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc.
and 2003- SciPy Developers): ``brentq`` of the C routine behind
``optimize.brentq`` (``Zeros/brentq.c``), ``minimize_bounded`` of
``_minimize_scalar_bounded`` behind
``optimize.minimize_scalar(method="bounded")``.

The function is called as ``f(x, *args)``: x holds the points of the
elements still searching and each of ``args`` the same elements' rows of a
per-element parameter array. It must return an array of the values.
"""
from __future__ import annotations

import math

import numpy as np

BRENTQ_RTOL = 4 * float(np.finfo(float).eps)
BRENTQ_MAXITER = 100
BOUNDED_MAXITER = 500

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _batch(*ends):
    """The ends as flat float arrays of one broadcast shape, and that shape."""
    ends = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in ends))
    return [e.ravel().copy() for e in ends], ends[0].shape


def _args(args, shape) -> list:
    """Per-element parameter arrays, flat like the bracket ends."""
    return [np.broadcast_to(np.asarray(v), shape).ravel() for v in args]


def _values(x, fx) -> np.ndarray:
    """The values fx of f at the points x, refused if one is NaN."""
    fx = np.asarray(fx, dtype=float)
    nan = np.isnan(fx)
    if nan.any():
        raise ValueError(f"The function value at x={x[nan.argmax()]} is NaN; "
                         "solver cannot continue.")
    return fx


def _keep(mask, arrays) -> list:
    return [a[mask] for a in arrays]


def brentq(f, a, b, xtol: float, ends, args=()):
    """A root of f in each sign-changing bracket [a, b] by Brent's method.

    SciPy's ``brentq`` with rtol 4*eps and at most 100 iterations, step for
    step: the same interpolation, extrapolation and bisection choices and
    the same arithmetic. ``ends`` are f(a) and f(b), which every caller has.
    Returns the roots in the broadcast shape of a and b. Raises ValueError
    if f(a) and f(b) of some element have the same sign or f returns NaN,
    and RuntimeError if some element does not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    rtol = BRENTQ_RTOL
    (xpre, xcur), shape = _batch(a, b)
    args = _args(args, shape)
    out = np.empty(xpre.size)
    fpre, fcur = np.split(_values(np.concatenate([xpre, xcur]),
                                  np.concatenate(_args(ends, shape))), 2)
    end = (fpre == 0) | (fcur == 0)
    out[end] = np.where(fpre == 0, xpre, xcur)[end]
    if (np.signbit(fpre) == np.signbit(fcur))[~end].any():
        raise ValueError("f(a) and f(b) must have different signs")
    idx = np.nonzero(~end)[0]
    xpre, xcur, fpre, fcur = _keep(~end, (xpre, xcur, fpre, fcur))
    args = _keep(~end, args)
    xblk, fblk, spre, scur = (np.zeros(idx.size) for _ in range(4))
    for _ in range(BRENTQ_MAXITER):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            out[idx[done]] = xcur[done]
            idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = _keep(
                ~done, (idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
            args = _keep(~done, args)
        if not idx.size:
            break

        # where the SciPy code divides by zero the step is inf or NaN, which
        # fails the step test like any other rejected step
        with np.errstate(all="ignore"):
            # interpolate
            s_int = -fcur * (xcur - xpre) / (fcur - fpre)
            # extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            s_ext = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, s_int, s_ext)
        good = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) \
            & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)  # good short step

        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur,
                        xcur + np.where(sbis > 0, delta, -delta))
        fcur = _values(xcur, f(xcur, *args))
    else:
        raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations.")
    return out.reshape(shape)[()]


def _sign1(v: np.ndarray) -> np.ndarray:
    """np.sign(v) + (v == 0): +1 at zero, NaN stays NaN."""
    return np.where(v >= 0, 1.0, np.where(v < 0, -1.0, np.nan))


def minimize_bounded(f, lo, hi, xatol: float, args=()) -> tuple:
    """(x, f(x)) at a local minimum of f on each [lo, hi].

    SciPy's ``minimize_scalar(method="bounded")`` (Brent's golden-section
    search with parabolic steps) with at most 500 evaluations, step for
    step. Stops silently at the evaluation limit, as SciPy does. Returns
    both in the broadcast shape of lo and hi.
    """
    (a, b), shape = _batch(lo, hi)
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise ValueError("Optimization bounds must be finite scalars.")
    if (a > b).any():
        raise ValueError("The lower bound exceeds the upper bound.")
    n = a.size
    args = _args(args, shape)
    x_out, f_out = np.empty(n), np.empty(n)
    idx = np.arange(n)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = np.zeros(n)
    fx = np.asarray(f(xf, *args), dtype=float)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while True:
        done = ~(np.abs(xf - xm) > (tol2 - 0.5 * (b - a)))
        if num >= BOUNDED_MAXITER:
            done[:] = True
        if done.any():
            x_out[idx[done]], f_out[idx[done]] = xf[done], fx[done]
            idx, a, b, fulc, nfc, xf, rat, e, fx, ffulc, fnfc, xm, tol1, tol2 = _keep(
                ~done, (idx, a, b, fulc, nfc, xf, rat, e, fx, ffulc, fnfc, xm, tol1, tol2))
            args = _keep(~done, args)
        if not idx.size:
            return x_out.reshape(shape)[()], f_out.reshape(shape)[()]

        # parabolic fit; SciPy computes it only where abs(e) > tol1, so its
        # overflows and divisions by zero elsewhere are discarded
        parabolic = np.abs(e) > tol1
        with np.errstate(all="ignore"):
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            r = e
            e = np.where(parabolic, rat, e)
            parabolic &= (np.abs(p) < np.abs(0.5 * q * r)) & (p > q * (a - xf)) \
                & (p < q * (b - xf))
            rat_p = (p + 0.0) / q
        x = xf + rat_p
        rat_p = np.where(((x - a) < tol2) | ((b - x) < tol2), tol1 * _sign1(xm - xf), rat_p)
        # golden-section step
        e = np.where(parabolic, e, np.where(xf >= xm, a - xf, b - xf))
        rat = np.where(parabolic, rat_p, _GOLDEN_MEAN * e)

        step = np.abs(rat)
        x = xf + _sign1(rat) * np.where(tol1 > step, tol1, step)  # Python's max()
        fu = np.asarray(f(x, *args), dtype=float)
        num += 1
        better = fu <= fx
        a = np.where(better, np.where(x >= xf, xf, a), np.where(x < xf, x, a))
        b = np.where(better, np.where(x >= xf, b, xf), np.where(x < xf, b, x))
        near = ~better & ((fu <= fnfc) | (nfc == xf))
        far = ~better & ~near & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | near
        fulc = np.where(shift, nfc, np.where(far, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(far, fu, ffulc))
        nfc = np.where(better, xf, np.where(near, x, nfc))
        fnfc = np.where(better, fx, np.where(near, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
