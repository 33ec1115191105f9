"""Return-amplitude analysis: rate functions, geometric phases, fixed points,
critical momenta and times, and the dynamic topological order parameter.

A quench shows a dynamical transition when some momentum sector passes through
a zero of G_k(t). Zeros can only sit at momenta where the two two-mode weights
balance, which in turn requires band-population fixed points of both kinds to
exist; between fixed points the Pancharatnam geometric phase winds by a
quantized amount that jumps at the critical times.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import roots
from .errors import (
    ConfigError,
    IllDefinedPhaseError,
    PhysicsError,
    TrivialQuenchError,
    UndefinedDynamicPhaseError,
    UnresolvedPhaseJumpError,
)
from .floquet import _cabs, _row_sum, phase_increments
from .lattice import (
    MomentumGrid,
    TimeGrid,
    _buffer,
    _column_blocks,
    _run_blocks,
    normalize_angle,
)
from .quench import (
    LoschmidtField,
    QuenchSpec,
    SectorTable,
    loschmidt_field,
    overlaps,
    two_mode_table,
)

FIXED_POINT_CUT = 0.05       # grid minima below this are candidate zeros
FIXED_POINT_ACCEPT = 1e-8
FIXED_POINT_DEDUP = 1e-6
TRIVIAL_WEIGHT_MAX = 1e-10   # an overlap channel this flat is a non-quench
PHASE_JUMP_GUARD = np.pi - 0.1
DTOP_REFINE_POINTS = 16
DTOP_REFINE_DEPTH = 3
DTOP_RESOLUTION = 256        # sector momenta of an order-parameter evaluation
KINK_FACTOR = 10.0           # second differences this many medians out are kinks
DIP_CUT = 0.05               # min_k |G| below this is a rate dip
AGREEMENT_WINDOW = 0.05      # signals this close in time are one event


def _runs(values, gap) -> list:
    """An ascending sequence as arrays, split wherever one step to the next
    exceeds gap."""
    values = np.asarray(values)
    return np.split(values, np.nonzero(np.diff(values) > gap)[0] + 1) if values.size else []


def _dedup_circular(items, tol) -> list:
    """Items in ascending k without those within tol of a kept one, compared
    across the +-pi seam; the first of each cluster stays."""
    kept = []
    for p in sorted(items, key=lambda p: p.k):
        if not any(abs(normalize_angle(p.k - q.k)) < tol for q in kept):
            kept.append(p)
    return kept


def _dedup_sorted(values, tol) -> np.ndarray:
    """Ascending values without those within tol of the last kept one."""
    out = []
    for t in sorted(values):
        if not out or t - out[-1] > tol:
            out.append(t)
    return np.array(out)


@dataclass(frozen=True)
class RateTrace:
    """Return rate g(t) = -(2/N) sum_k ln |G_k(t)|; +inf marks an exact zero."""

    times: np.ndarray
    values: np.ndarray

    def kinks(self) -> np.ndarray:
        """Times where the discrete second difference is an outlier against
        the median, the nonanalyticity signature on a uniform grid."""
        d2 = np.abs(np.diff(self.values, 2))
        med = np.median(d2)
        if not np.isfinite(med) or med == 0:
            med = np.mean(d2[np.isfinite(d2)]) or 1.0
        hits = np.nonzero(d2 > KINK_FACTOR * med)[0]
        # collapse runs of nearby flagged samples to the local maximum
        out = [run[np.argmax(d2[run])] + 1 for run in _runs(hits, 2)]
        return self.times[np.array(out, dtype=int)] if out else np.array([])


def _rate(values) -> np.ndarray:
    """Return rate -(2/N) sum_k ln |G_k| per column of amplitudes with their
    N momenta on axis 0; +inf where some amplitude is exactly zero."""
    mags = np.abs(values)
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    g = -(2.0 / mags.shape[0]) * logs.sum(axis=0)
    g[np.any(mags == 0, axis=0)] = np.inf
    return g


def rate_function(field: LoschmidtField) -> RateTrace:
    """Intensive return rate of a Loschmidt field."""
    return RateTrace(field.times, _rate(field.values))


def dynamic_phase(table: SectorTable, times, out=None) -> np.ndarray:
    """Dynamical phase per momentum sector, (n_k, n_t), in out if given.

    Linear in t with rate Re[A - B] Re[E]; for mixtures that reduces to the
    (2p - 1)-weighted band imbalance. Needs a real quasienergy spectrum.
    """
    if not table.energy_is_real:
        raise UndefinedDynamicPhaseError(
            "quasienergies are complex; the dynamical phase has no meaning here")
    return np.multiply(table.dynamic_rate[:, None], np.asarray(times, dtype=float)[None, :],
                       out=out)


def _unwound(table: SectorTable, times, out=(None, None, None)) -> np.ndarray:
    """G e^{-i phi_dyn}, (n_k, n_t), whose phase is the PGP; E is taken real.
    out may give two complex and one float (n_k, n_t) buffers; the result is
    the first."""
    g, w, phi = out
    phi = dynamic_phase(table, times, out=phi)
    g = two_mode_table(table.A, table.B, table.energy.real, times, out=(g, w))
    w = np.multiply(-1j, phi, out=w)
    # the phase factor is the first operand, the order of the elided g * exp(...)
    return np.multiply(np.exp(w, out=w), g, out=g)


@dataclass(frozen=True)
class FixedPoint:
    k: float
    kind: str      # which overlap channel vanishes: "minus" kills the
                   # e^{+iEt} weight, "plus" the e^{-iEt} weight
    residual: float


@dataclass(frozen=True)
class FixedPointSet:
    spec: QuenchSpec
    points: tuple

    @property
    def ks(self) -> np.ndarray:
        return np.array([p.k for p in self.points])

    @property
    def kinds(self) -> tuple:
        return tuple(p.kind for p in self.points)

    def segments(self):
        """Cyclic intervals between consecutive fixed points; the last wraps
        past the zone edge."""
        ks = self.ks
        if ks.size < 2:
            return []
        segs = [(ks[i], ks[i + 1]) for i in range(ks.size - 1)]
        segs.append((ks[-1], ks[0] + 2 * np.pi))
        return segs


def _channel(spec: QuenchSpec, k, minus) -> np.ndarray:
    """Each element's overlap channel at its momentum: ct_minus where minus
    is set, else ct_plus, with one-momentum bits at any batch size."""
    tab = overlaps(spec, k, _rowwise=True)
    return np.where(minus, tab.ct_minus, tab.ct_plus)


def _project(c: np.ndarray, drn: np.ndarray) -> np.ndarray:
    """Re(c conj(drn)) in real arithmetic, as a scalar complex product rounds
    it (numpy's complex product may round the last bit differently)."""
    return c.real * drn.real + c.imag * drn.imag


def _projected_roots(spec: QuenchSpec, minus, lo, hi, c_lo, c_hi, drn) -> tuple:
    """Brent zero in each [lo, hi] of the channel projected onto drn, given
    the channel at both ends, and the channel's modulus there from Brent's own
    evaluation; both NaN where the projection does not change sign."""
    k0, fun = np.full(lo.shape, np.nan), np.full(lo.shape, np.nan)
    p_lo, p_hi = _project(c_lo, drn), _project(c_hi, drn)
    ok = p_lo * p_hi < 0
    if ok.any():
        def projected(k, m, d):
            c = _channel(spec, k, m)
            return _project(c, d), c
        k0[ok], c = roots.brentq(projected, lo[ok], hi[ok], xtol=1e-13, args=(minus[ok], drn[ok]),
                                 ends=((p_lo[ok], c_lo[ok]), (p_hi[ok], c_hi[ok])))
        fun[ok] = _cabs(c)
    return k0, fun


def _ends(spec: QuenchSpec, minus, lo, hi) -> tuple:
    """The channel at both ends of each interval, in one evaluation."""
    return np.split(_channel(spec, np.concatenate([lo, hi]), np.concatenate([minus, minus])), 2)


def find_fixed_points(spec: QuenchSpec, grid: MomentumGrid) -> FixedPointSet:
    """Momenta where the prepared state lies entirely in one band.

    Grid minima of each overlap channel are polished to machine precision;
    only zeros below a hard acceptance threshold count. A channel that
    vanishes identically means the quench does not change the state at all.
    Candidates of both channels are polished together per stage, one batched
    ``overlaps`` call per round; a Brent root's residual is read from its row.
    """
    ks = grid.samples
    table = overlaps(spec, ks)
    h = grid.spacing
    flips, minima = [], []   # per channel, grid indices
    drn_flip = []
    for kind, raw_vals in (("plus", table.ct_plus), ("minus", table.ct_minus)):
        vals = np.abs(raw_vals)
        if vals.max() < TRIVIAL_WEIGHT_MAX:
            raise TrivialQuenchError(
                f"the {kind} overlap vanishes at every momentum; nothing is quenched")
        local = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)) \
            & (vals < FIXED_POINT_CUT)
        # the overlap is real up to a k-smooth phase, so a zero squeezed
        # between samples still flips the aligned sign across the interval;
        # catches dips narrower than the grid spacing near PT boundaries
        step = np.roll(raw_vals, -1) - raw_vals
        rel = phase_increments(np.append(raw_vals, raw_vals[0]))
        flip = (np.abs(rel) > np.pi / 2) & (vals > 0) \
            & ~local & ~np.roll(local, -1)
        flips.append(np.nonzero(flip)[0])
        minima.append(np.nonzero(local)[0])
        drn_flip.append(step[flip])
    minus_f = np.repeat([False, True], [i.size for i in flips])
    minus_m = np.repeat([False, True], [i.size for i in minima])

    # sign flips: Brent on the channel projected onto its step across the
    # interval
    lo = ks[np.concatenate(flips)]
    hi = lo + h
    k_f, f_f = (_projected_roots(spec, minus_f, lo, hi, *_ends(spec, minus_f, lo, hi),
                                 np.concatenate(drn_flip)) if lo.size else (lo, lo))

    # minima: bounded search, then Brent on the projection onto the local
    # gradient, which is linear through a simple zero and gets closer where
    # the bounded search bottoms out near sqrt(eps)*|k| on a shallow zero
    k_m = f_m = np.empty(0)
    if minus_m.size:
        i = np.concatenate(minima)
        k0, fun = roots.minimize_bounded(lambda k, m: (_cabs(_channel(spec, k, m)),) * 2,
                                         ks[i] - h, ks[i] + h, xatol=1e-12, args=(minus_m,))
        c_hi, c_lo = _ends(spec, minus_m, k0 + h, k0 - h)
        hit_k, hit_f = _projected_roots(spec, minus_m, k0 - h, k0 + h, c_lo, c_hi, c_hi - c_lo)
        better = hit_f < fun
        k_m, f_m = np.where(better, hit_k, k0), np.where(better, hit_f, fun)

    # candidates of each channel, sign flips before minima: the dedup keeps
    # the first of two near-equal momenta
    minus = np.concatenate([minus_f, minus_m])
    order = np.argsort(minus, kind="stable")
    found = [FixedPoint(float(normalize_angle(k0)), "minus" if m else "plus", float(fun))
             for k0, m, fun in zip(np.concatenate([k_f, k_m])[order], minus[order],
                                   np.concatenate([f_f, f_m])[order])
             if fun < FIXED_POINT_ACCEPT]
    return FixedPointSet(spec, tuple(_dedup_circular(found, FIXED_POINT_DEDUP)))


@dataclass(frozen=True)
class CriticalMomentum:
    k: float
    energy: float
    t0: float      # first critical time pi / (2 E)


@dataclass(frozen=True)
class CriticalSet:
    fixed_points: FixedPointSet
    criticals: tuple
    t_max: float

    @property
    def ks(self) -> np.ndarray:
        return np.array([c.k for c in self.criticals])

    @property
    def time_scales(self) -> np.ndarray:
        """Distinct t0 values, ascending."""
        return _dedup_sorted([c.t0 for c in self.criticals], 1e-9)

    def as_dict(self) -> dict:
        """Fixed points, critical momenta, time scales and critical times as
        plain types."""
        return {
            "fixed_points": [{"k": p.k, "kind": p.kind} for p in self.fixed_points.points],
            "critical_momenta": [c.k for c in self.criticals],
            "time_scales": [float(t) for t in self.time_scales],
            "critical_times": [float(t) for t in self.critical_times],
        }

    @property
    def critical_times(self) -> np.ndarray:
        """All odd multiples (2n-1) t0 up to t_max, merged across momenta."""
        ts = []
        for c in self.criticals:
            n = 1
            while (2 * n - 1) * c.t0 <= self.t_max + 1e-12:
                ts.append((2 * n - 1) * c.t0)
                n += 1
        return _dedup_sorted(ts, 1e-9)


def find_critical(fps: FixedPointSet, t_max: float) -> CriticalSet:
    """Critical momenta: weight-balance zeros between fixed points of
    opposite kind, each carrying its periodic ladder of critical times, all
    polished with one batched ``overlaps`` call per round; E is read from its row."""
    spec = fps.spec

    def weight_h(k):
        """weight_minus - weight_plus, whose zeros are the critical momenta, and E."""
        tab = overlaps(spec, k, _rowwise=True)
        return tab.weight_minus - tab.weight_plus, tab.energy.real

    brackets = []
    pts = fps.points
    for i in range(len(pts)):
        lo = pts[i]
        hi = pts[(i + 1) % len(pts)]
        if lo.kind == hi.kind:
            continue
        k_lo = lo.k + 1e-9
        k_hi = (hi.k if i + 1 < len(pts) else hi.k + 2 * np.pi) - 1e-9
        if k_hi > k_lo:
            brackets.append((k_lo, k_hi))
    k_lo, k_hi = np.array(brackets).reshape(-1, 2).T
    if k_lo.size:
        f, e = (v.reshape(2, -1) for v in weight_h(np.concatenate([k_lo, k_hi])))
        sign_change = ~(f[0] * f[1] > 0)
        k_lo, k_hi, f, e = k_lo[sign_change], k_hi[sign_change], f[:, sign_change], e[:, sign_change]
    criticals = []
    if k_lo.size:
        kcs, es = roots.brentq(weight_h, k_lo, k_hi, xtol=1e-12, ends=tuple(zip(f, e)))
        for kc, e in zip(kcs, es):
            if e <= 1e-12:
                raise PhysicsError(f"vanishing quasienergy at critical momentum {kc}")
            criticals.append(CriticalMomentum(float(normalize_angle(kc)), float(e),
                                              float(np.pi / (2 * e))))
    return CriticalSet(fps, tuple(_dedup_circular(criticals, 1e-9)), t_max)


def _refined(spec: QuenchSpec, ks, inc, t: float, depth: int) -> float:
    """Phase accumulated over the momenta ks at time t from its increments
    inc, in momentum order; a step across the jump guard is redone on
    DTOP_REFINE_POINTS subintervals of its interval, recursively."""
    total = 0.0
    for j in range(inc.size):
        if abs(inc[j]) > PHASE_JUMP_GUARD:
            if depth >= DTOP_REFINE_DEPTH:
                raise UnresolvedPhaseJumpError(
                    f"phase step {inc[j]:.3f} rad persists after refinement at t = {t}")
            fine = np.linspace(ks[j], ks[j + 1], DTOP_REFINE_POINTS + 1)
            z = _unwound(overlaps(spec, fine), [t])[:, 0]
            if np.abs(z).min() < 1e-12:
                raise IllDefinedPhaseError(
                    f"G vanishes on the sector at t = {t}; phase winding undefined")
            total += _refined(spec, fine, phase_increments(z), t, depth + 1)
        else:
            total += inc[j]
    return total


def _sector_bounds(fps: FixedPointSet, sector: int) -> tuple:
    """Momentum bounds of a winding sector, numbered from 1."""
    segs = fps.segments()
    if not segs:
        raise PhysicsError("fewer than two fixed points; no winding sectors exist")
    if not 1 <= sector <= len(segs):
        raise ConfigError(f"sector must be in 1..{len(segs)}, got {sector}")
    return segs[sector - 1]


def dtop(fps: FixedPointSet, t: float, sector: int = 1) -> float:
    """Geometric-phase winding across one fixed-point sector at time t: the
    one-time dtop_trace.

    Sectors are numbered from 1 in momentum order; each is bounded by two
    consecutive fixed points and the phase at the ends is pinned, so for pure
    preparations the value is an integer away from critical times.
    """
    value = dtop_trace(fps, sector, [t]).values[0]
    if np.isnan(value):
        raise IllDefinedPhaseError(
            f"G vanishes on the sector at t = {t}; phase winding undefined")
    return value


@dataclass(frozen=True)
class DtopTrace:
    sector: int
    times: np.ndarray
    values: np.ndarray

    @property
    def quantized(self) -> bool:
        v = self.values[np.isfinite(self.values)]
        return bool(np.all(np.abs(v - np.round(v)) < 0.05))


def _trace_block(spec: QuenchSpec, table: SectorTable, ks, times, scratch) -> np.ndarray:
    """Order parameter at each of times from the sector table over ks, NaN
    where G vanishes on the sector; the tables live in scratch's two complex
    and one float flat buffers.

    Each time's increments are summed in momentum order (_row_sum), so a
    time has the same bits in a block of any width. Only a time whose
    increments cross the jump guard is refined, from its own column.
    """
    g, w, f = scratch
    shape, steps = (ks.size, times.size), (ks.size - 1, times.size)
    z = _unwound(table, times, (_buffer(g, shape), _buffer(w, shape), _buffer(f, shape)))
    bad = np.abs(z, out=_buffer(f, shape)).min(axis=0) < 1e-12
    inc = phase_increments(z)
    vals = _row_sum(inc) / (2 * np.pi)
    rough = (np.abs(inc, out=_buffer(f, steps)).max(axis=0) > PHASE_JUMP_GUARD) & ~bad
    vals[bad] = np.nan
    for j in np.nonzero(rough)[0]:
        try:
            vals[j] = _refined(spec, ks, inc[:, j], times[j], 0) / (2 * np.pi)
        except IllDefinedPhaseError:
            vals[j] = np.nan
    return vals


def dtop_traces(fps: FixedPointSet, sectors, times) -> list:
    """Order-parameter trace of each of sectors over one time grid, NaN where
    G vanishes on the sector.

    Each sector gets one momentum table of DTOP_RESOLUTION + 1 sector
    momenta for all times. Every sector's time blocks (lattice._column_blocks),
    sector by sector, run in one lattice._run_blocks run on the calling
    thread and one helper thread. Columns are independent, so the values do
    not depend on the blocks or the threads.
    """
    spec = fps.spec
    times = np.asarray(times, dtype=float)
    spans = _column_blocks(times.size)
    blocks = []
    for m in sectors:
        ks = np.linspace(*_sector_bounds(fps, m), DTOP_RESOLUTION + 1)
        table = overlaps(spec, ks)
        blocks += [partial(_trace_block, spec, table, ks, times[a:b]) for a, b in spans]
    size = (DTOP_RESOLUTION + 1) * (spans[0][1] - spans[0][0])
    done = _run_blocks(blocks, lambda: (np.empty(size, complex), np.empty(size, complex),
                                        np.empty(size)))
    n = len(spans)
    return [DtopTrace(m, times, np.concatenate(done[i * n:(i + 1) * n]))
            for i, m in enumerate(sectors)]


def dtop_trace(fps: FixedPointSet, sector: int, times) -> DtopTrace:
    """Order-parameter trace of one sector over a time grid, NaN where G
    vanishes on the sector (dtop_traces)."""
    return dtop_traces(fps, [sector], times)[0]


@dataclass(frozen=True)
class DqptEvent:
    t_c: float
    signals_agreeing: int


@dataclass(frozen=True)
class DqptReport:
    events: tuple
    dtop_jumps: np.ndarray


class QuenchAnalysis:
    """One analysis pass over a quench on fixed momentum and time grids.

    Each product is computed on first use and then kept, so the charts, the
    report and the transition detector share one Loschmidt field, one
    critical set and one set of order-parameter traces. A fixed-point or
    critical search that fails with a PhysicsError (a trivial quench, say)
    keeps that error as its value; callers decide whether it is fatal.
    """

    def __init__(self, spec: QuenchSpec, grid: MomentumGrid, tgrid: TimeGrid):
        self.spec = spec
        self.grid = grid
        self.tgrid = tgrid

    @cached_property
    def field(self) -> LoschmidtField:
        return loschmidt_field(self.spec, self.grid, self.tgrid)

    @cached_property
    def rate(self) -> RateTrace:
        return rate_function(self.field)

    @cached_property
    def fixed_points(self) -> FixedPointSet | PhysicsError:
        try:
            return find_fixed_points(self.spec, self.grid)
        except PhysicsError as err:
            return err

    @cached_property
    def critical(self) -> CriticalSet | PhysicsError:
        """Critical set up to the last sample time, or the search's error."""
        fps = self.fixed_points
        if isinstance(fps, PhysicsError):
            return fps
        try:
            return find_critical(fps, float(self.tgrid.samples[-1]))
        except PhysicsError as err:
            return err

    @property
    def critical_times(self) -> list:
        """Critical times for chart marks; none if the critical search failed."""
        crit = self.critical
        return [] if isinstance(crit, PhysicsError) else [float(t) for t in crit.critical_times]

    @cached_property
    def dtop_traces(self) -> list:
        """Order-parameter trace of every fixed-point sector, in sector order."""
        fps = self.fixed_points
        if isinstance(fps, PhysicsError):
            return []
        return dtop_traces(fps, range(1, len(fps.segments()) + 1), self.tgrid.samples)

    @cached_property
    def dqpt(self) -> DqptReport:
        return detect_dqpt(self)


def detect_dqpt(qa: QuenchAnalysis) -> DqptReport:
    """Reconcile three independent transition signatures.

    (1) times where min_k |G| dips toward zero, (2) the predicted ladder of
    critical times, (3) jumps of the sector order parameter across those
    times, read 0.1 before and after each. A sector whose dynamical phase is
    undefined is skipped, and an undefined order parameter is no jump.
    Candidates within the agreement window merge into one event.
    """
    field = qa.field
    minabs = np.abs(field.values).min(axis=0)
    dips = [float(field.times[run[np.argmin(minabs[run])]])
            for run in _runs(np.nonzero(minabs < DIP_CUT)[0], 1)]

    predicted = qa.critical_times
    probed = [t_c for t_c in predicted if t_c - 0.1 > 0]
    jumped = np.zeros(len(probed), dtype=bool)
    if probed:
        fps = qa.fixed_points
        # before and after each probed time, interleaved
        times = np.array(probed)[:, None] + np.array([-0.1, 0.1])
        for m in range(1, len(fps.segments()) + 1):
            try:
                vals = dtop_trace(fps, m, times.ravel()).values
            except UndefinedDynamicPhaseError:
                continue
            jumped |= np.abs(vals[1::2] - vals[::2]) > 0.25
    jumps = [t_c for t_c, hit in zip(probed, jumped) if hit]

    tagged = sorted([(t, "rate_dip") for t in dips]
                    + [(t, "predicted") for t in predicted]
                    + [(t, "dtop_jump") for t in jumps])
    events = []
    for run in _runs([t for t, _ in tagged], AGREEMENT_WINDOW):
        group, tagged = tagged[:run.size], tagged[run.size:]
        anchor = next((t for t, s in group if s == "predicted"),
                      float(np.mean([t for t, _ in group])))
        events.append(DqptEvent(float(anchor), len({s for _, s in group})))
    return DqptReport(tuple(events), np.array(jumps))


def analysis_report(qa: QuenchAnalysis) -> dict:
    """Everything the command line serializes for one quench, as plain types."""
    spec = qa.spec
    out = {
        "regime": spec.regime,
        "initial_angles": [spec.initial_angles.theta1, spec.initial_angles.theta2],
        "final_angles": [spec.final_angles.theta1, spec.final_angles.theta2],
        "loss": spec.loss,
    }
    if spec.mix_p is not None:
        out["mix_p"] = spec.mix_p

    trace = qa.rate
    out["rate_function"] = [{"t": float(t), "g": (float(g) if np.isfinite(g) else None)}
                            for t, g in zip(trace.times, trace.values)]

    crit = qa.critical
    if isinstance(crit, TrivialQuenchError):
        out["trivial_quench"] = str(crit)
        out.update(dict.fromkeys(("fixed_points", "critical_momenta", "time_scales",
                                  "critical_times", "dtop_traces"), []))
    elif isinstance(crit, PhysicsError):
        raise crit
    else:
        out.update(crit.as_dict())
        out["dtop_traces"] = [{
            "m": tr.sector,
            "t": [float(t) for t in tr.times],
            "value": [(float(v) if np.isfinite(v) else None) for v in tr.values],
        } for tr in qa.dtop_traces]

    out["dqpt_events"] = [{"t_c": e.t_c, "signals_agreeing": e.signals_agreeing}
                          for e in qa.dqpt.events]
    return out
