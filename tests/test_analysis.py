import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import circular_match, ellipse, loschmidt

from dqptwalk import analysis, lattice
from dqptwalk.analysis import (
    QuenchAnalysis,
    detect_dqpt,
    dtop,
    dtop_trace,
    dynamic_phase,
    find_critical,
    find_fixed_points,
    rate_function,
)
from dqptwalk.errors import (
    ConfigError,
    IllDefinedPhaseError,
    PhysicsError,
    TrivialQuenchError,
    UndefinedDynamicPhaseError,
    UnresolvedPhaseJumpError,
)
from dqptwalk.floquet import bloch_coefficients, pt_classify
from dqptwalk.lattice import MomentumGrid, TimeGrid, normalize_angle
from dqptwalk.presets import PRESET_IDS, preset
from dqptwalk.quench import QuenchSpec, loschmidt_field, overlaps
from test_roots import _reference_brentq, _reference_minimize_bounded

FIG2A = preset("fig2a")[0][1]
FIG2B = preset("fig2b")[0][1]
FIG3 = preset("fig3")[0][1]
FIG4A = preset("fig4a")[0][1]
FIG4B = preset("fig4b")[0][1]


def _trace_at(fps, sector, times, resolution):
    """dtop_trace with DTOP_RESOLUTION set to resolution for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "DTOP_RESOLUTION", resolution)
        return dtop_trace(fps, sector, times)


def test_rate_function_kink_at_first_critical_time(kgrid):
    tr = QuenchAnalysis(FIG2A, kgrid, TimeGrid(7.0, 0.01)).rate
    assert np.isfinite(tr.values).all()
    ks = tr.kinks()
    assert len(ks) >= 1
    assert min(abs(t - 4.0) for t in ks) < 0.05


def test_rate_function_accepts_precomputed_field(kgrid):
    field = loschmidt_field(FIG2A, kgrid, TimeGrid(3.0, 0.1))
    tr = rate_function(field)
    tr2 = QuenchAnalysis(FIG2A, kgrid, TimeGrid(3.0, 0.1)).rate
    assert np.allclose(tr.values, tr2.values)


def test_dynamic_phase_linear_and_zero_at_half_mix(kgrid):
    times = np.array([0.0, 1.0, 2.0])
    t = overlaps(FIG2A, kgrid.samples)
    ph = dynamic_phase(t, times)
    assert ph.shape == (kgrid.n_points, 3)
    assert np.allclose(ph[:, 0], 0)
    assert np.allclose(ph[:, 2], 2 * ph[:, 1], atol=1e-12)
    half = QuenchSpec(FIG2A.initial_angles, FIG2A.final_angles, mix_p=0.5)
    assert np.abs(dynamic_phase(overlaps(half, kgrid.samples), times)).max() < 1e-12


def test_dynamic_phase_refuses_complex_spectrum(kgrid):
    with pytest.raises(UndefinedDynamicPhaseError):
        dynamic_phase(overlaps(FIG4B, kgrid.samples), np.array([1.0]))


def _reference_pgp(table, times):
    """Pancharatnam geometric phase arg G - phi_dyn, wrapped to (-pi, pi]."""
    phase = np.angle(loschmidt(table, times)) - dynamic_phase(table, times)
    return np.angle(np.exp(1j * phase))


def test_pgp_wrapped(kgrid):
    table = overlaps(FIG2A, kgrid.samples)
    times = np.linspace(0.0, 7.0, 15)
    vals = _reference_pgp(table, times)
    assert vals.max() <= np.pi + 1e-12
    assert vals.min() > -np.pi - 1e-12
    # the order parameter's unwound amplitude carries the same phase
    diff = np.angle(analysis._unwound(table, times)) - vals
    assert np.abs(np.angle(np.exp(1j * diff))).max() < 1e-12


@pytest.mark.parametrize("pid", ["fig2a", "fig2b", "fig3", "mixed-p07", "mixed-p09"])
def test_single_time_dtop_equals_trace(pid, monkeypatch):
    """dtop at one time has the bits of the trace over the 701-sample grid,
    wherever the trace keeps its bulk value (no refinement fires)."""
    fps = find_fixed_points(preset(pid)[0][1], MomentumGrid(128))
    times = TimeGrid(7.0, 0.01).samples
    refined = set()
    refine = analysis._refined

    def spy(spec, ks, inc, t, depth):
        refined.add(t)
        return refine(spec, ks, inc, t, depth)

    monkeypatch.setattr(analysis, "_refined", spy)
    traces = [dtop_trace(fps, m, times).values for m in range(1, len(fps.segments()) + 1)]
    monkeypatch.undo()
    probed = 0
    for m, values in enumerate(traces, 1):
        for j in range(0, times.size, 23):
            if times[j] not in refined and np.isfinite(values[j]):
                one = np.float64(dtop(fps, times[j], m))
                assert one.tobytes() == values[j].tobytes(), (m, times[j], one, values[j])
                probed += 1
    assert probed >= 100, probed


@pytest.mark.parametrize("pid", ["fig2a", "fig2b", "fig3", "fig4a", "mixed-p07"])
def test_one_time_trace_equals_long_trace(pid):
    """A trace over one time has the bits of that time in the 701-sample
    trace, refined times included: both sum the momenta one row at a time."""
    fps = find_fixed_points(preset(pid)[0][1], MomentumGrid(128))
    times = TimeGrid(7.0, 0.01).samples
    for m in range(1, len(fps.segments()) + 1):
        values = dtop_trace(fps, m, times).values
        for j in range(0, times.size, 23):
            one = dtop_trace(fps, m, times[j:j + 1]).values
            assert one.tobytes() == values[j:j + 1].tobytes(), (m, times[j], one, values[j])


def test_refinement_reuses_the_sector_table(monkeypatch):
    """A refined time starts from its column of the trace's table: the
    resolution + 1 momenta are evaluated once, and only the refined
    intervals get tables of their own."""
    fps = find_fixed_points(FIG4A, MomentumGrid(128))
    sizes = []
    real = analysis.overlaps

    def spy(spec, ks, **kwargs):
        sizes.append(np.size(ks))
        return real(spec, ks, **kwargs)

    monkeypatch.setattr(analysis, "overlaps", spy)
    _trace_at(fps, 1, TimeGrid(7.0, 0.01).samples, 32)
    assert sizes.count(33) == 1
    assert sizes.count(analysis.DTOP_REFINE_POINTS + 1) == 6
    assert len(sizes) == 7


class TestFixedPoints:
    def test_unitary_preset_values(self):
        fps = find_fixed_points(FIG2A, MomentumGrid(2048))
        assert [round(k / np.pi, 6) for k in fps.ks] == [-0.5, 0.0, 0.5, 1.0]
        assert list(fps.kinds) == ["minus", "plus", "minus", "plus"]
        assert max(p.residual for p in fps.points) < 1e-8

    def test_single_band_quench_all_same_kind(self):
        fps = find_fixed_points(FIG3, MomentumGrid(2048))
        assert len(fps.points) == 4
        assert set(fps.kinds) == {"plus"}

    def test_broken_regime_has_none(self):
        assert find_fixed_points(FIG4B, MomentumGrid(2048)).points == ()

    def test_trivial_quench_raises(self):
        s = QuenchSpec((np.pi / 4, -np.pi / 2), (np.pi / 4, -np.pi / 2))
        with pytest.raises(TrivialQuenchError):
            find_fixed_points(s, MomentumGrid(2048))

    def test_segments_wrap_the_zone(self):
        segs = find_fixed_points(FIG2A, MomentumGrid(2048)).segments()
        assert len(segs) == 4
        lo, hi = segs[-1]
        assert hi - lo == pytest.approx(np.pi / 2)
        assert hi == pytest.approx(3 * np.pi / 2)
        assert lo == pytest.approx(np.pi)
        total = sum(b - a for a, b in segs)
        assert total == pytest.approx(2 * np.pi)


class TestCriticalSet:
    def test_unitary_momenta_and_scale(self):
        crit = find_critical(find_fixed_points(FIG2A, MomentumGrid(2048)), 7.0)
        assert sorted(round(k / np.pi, 9) for k in crit.ks) == \
            [-0.75, -0.25, 0.25, 0.75]
        assert crit.time_scales == pytest.approx([4.0], abs=1e-9)
        assert crit.critical_times == pytest.approx([4.0], abs=1e-9)

    def test_faster_protocol_hits_twice(self):
        crit = find_critical(find_fixed_points(FIG2B, MomentumGrid(2048)), 7.0)
        assert crit.time_scales == pytest.approx([2.0], abs=1e-9)
        assert crit.critical_times == pytest.approx([2.0, 6.0], abs=1e-9)

    def test_same_kind_neighbors_give_nothing(self):
        crit = find_critical(find_fixed_points(FIG3, MomentumGrid(2048)), 7.0)
        assert len(crit.criticals) == 0

    def test_mixed_state_times_identical_to_pure(self):
        grid = MomentumGrid(2048)
        pure = find_critical(find_fixed_points(FIG2A, grid), 7.0).critical_times
        mixed = find_critical(find_fixed_points(preset("mixed-p07")[0][1], grid),
                              7.0).critical_times
        assert np.allclose(pure, mixed, atol=1e-12)


class TestDtop:
    def test_integer_plateaus_and_jump(self):
        fps = find_fixed_points(FIG2A, MomentumGrid(2048))
        before = dtop(fps, 3.8)
        after = dtop(fps, 4.2)
        assert before == pytest.approx(0.0, abs=1e-6)
        assert after == pytest.approx(-1.0, abs=1e-6)

    def test_sector_argument_validated(self):
        fps = find_fixed_points(FIG2A, MomentumGrid(2048))
        with pytest.raises(ConfigError):
            dtop(fps, 1.0, sector=5)
        with pytest.raises(ConfigError):
            dtop(fps, 1.0, sector=0)

    def test_no_sectors_raises(self):
        with pytest.raises(PhysicsError):
            dtop(find_fixed_points(FIG4B, MomentumGrid(2048)), 1.0)

    def test_trace_is_nan_exactly_at_the_transition(self):
        tr = dtop_trace(find_fixed_points(FIG2A, MomentumGrid(2048)), 1, np.array([3.8, 4.0, 4.2]))
        assert np.isnan(tr.values[1])
        assert np.isfinite(tr.values[[0, 2]]).all()
        assert tr.quantized

    def test_trace_matches_single_time_calls(self):
        times = np.array([1.0, 3.0, 5.0, 7.0])
        fps = find_fixed_points(FIG2A, MomentumGrid(2048))
        tr = dtop_trace(fps, 2, times)
        singles = [dtop(fps, t, sector=2) for t in times]
        assert np.allclose(tr.values, singles, atol=1e-9)

    def test_mixed_state_loses_quantization(self):
        tr = dtop_trace(find_fixed_points(preset("mixed-p07")[0][1], MomentumGrid(2048)), 1,
                        np.arange(0.0, 7.0, 0.2))
        assert not tr.quantized


def test_unresolved_phase_jump_raises(monkeypatch):
    """A phase step that refinement cannot bring under the jump guard raises
    instead of being summed wrapped. fig4a's sector 1 at 32 momenta has one
    at t = 2.15: the real refinement depth resolves it, no refinement does
    not."""
    fps = find_fixed_points(FIG4A, MomentumGrid(128))
    times = TimeGrid().samples
    at = np.isclose(times, 2.15)
    assert at.sum() == 1
    assert np.isfinite(_trace_at(fps, 1, times, 32).values[at]).all()
    monkeypatch.setattr(analysis, "DTOP_REFINE_DEPTH", 0)
    with pytest.raises(UnresolvedPhaseJumpError,
                       match=r"phase step 3\.056 rad persists after refinement at t = 2\.15"):
        _trace_at(fps, 1, times, 32)


def _lossless_geometry(theta1, theta2):
    """Fixed points, critical momenta and critical quasienergy of a lossless
    quench from the flat band (pi/4, -pi/2), in closed form.

    The prepared ket's Bloch vector lies on the d2 axis. The fixed points are
    where the final Bloch vector is parallel to it (d3 = 0), the critical
    momenta where the two are orthogonal (d2 = 0, cos 2k = -c1 s2 / (c2 s1)),
    and there cos E = d0 = -s2 / s1. Critical momenta exist only when the
    final ellipse's margin |c2 s1| - |c1 s2| is not negative; the
    quasienergy is None otherwise.
    """
    c1, s1, c2, s2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
    fixed = [-np.pi / 2, 0.0, np.pi / 2, np.pi]
    if ellipse(theta1, theta2)[0] < 0:
        return fixed, [], None
    k = np.arccos(-c1 * s2 / (c2 * s1)) / 2
    return fixed, [k, -k, k - np.pi, np.pi - k], np.arccos(-s2 / s1)


@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(FIG2A.final_angles.theta1, FIG2A.final_angles.theta2, None)
@example(FIG2B.final_angles.theta1, FIG2B.final_angles.theta2, None)
@example(FIG3.final_angles.theta1, FIG3.final_angles.theta2, None)
@example(FIG2A.final_angles.theta1, FIG2A.final_angles.theta2, 0.7)
@settings(max_examples=60, deadline=None)
def test_lossless_geometry_equals_closed_form(theta1, theta2, mix_p):
    """On 128 momenta, the searches of random lossless pure and mixed
    quenches give the closed-form fixed points and critical momenta, the time
    scale t0 = pi / (2E) and the critical-time ladder (2n - 1) t0, all within
    1e-12. The final angles stay 0.05 away from c2 = 0, from s1 = 0 and from
    |c1 s2| = |c2 s1|.

    t0 is compared through E = pi / (2 t0): its relative error grows as 1/E
    near the boundary (up to 1.1e-12 in 12 of 4,000 draws within 0.003 of
    it), while the error of E is at most twice that of the critical
    momentum, since |dE/dk| <= 2 for this walk (4.9e-13 at most)."""
    margin = ellipse(theta1, theta2)[0]
    assume(min(abs(np.cos(theta2)), abs(np.sin(theta1)), abs(margin)) >= 0.05)
    mixture = {} if mix_p is None else {"mix_p": mix_p}
    spec = QuenchSpec(FIG2A.initial_angles, (theta1, theta2), **mixture)
    fixed, kcs, energy = _lossless_geometry(theta1, theta2)
    crit = find_critical(find_fixed_points(spec, MomentumGrid(128)), 7.0)
    assert circular_match(crit.fixed_points.ks, fixed, 1e-12) is None
    assert circular_match(crit.ks, kcs, 1e-12) is None
    if energy is None:
        assert crit.time_scales.size == 0 and crit.critical_times.size == 0
        return
    assert crit.time_scales.size == 1
    t0 = crit.time_scales[0]
    assert np.pi / (2 * t0) == pytest.approx(energy, rel=0, abs=1e-12)
    ladder = t0 * (2 * np.arange(1, int((7.0 / t0 + 1) // 2) + 1) - 1)
    # a rung within rounding of the horizon could fall either side of it
    assume(np.abs(ladder - 7.0).min(initial=1.0) > 1e-9)
    assume(abs(t0 * (2 * ladder.size + 1) - 7.0) > 1e-9)
    assert crit.critical_times == pytest.approx(ladder, rel=1e-12, abs=0)


class TestDetection:
    def test_unitary_transition_all_signals(self, kgrid):
        rep = detect_dqpt(QuenchAnalysis(FIG2A, kgrid, TimeGrid(7.0, 0.01)))
        assert any(e.signals_agreeing >= 2 for e in rep.events)
        ev = min(rep.events, key=lambda e: abs(e.t_c - 4))
        assert ev.t_c == pytest.approx(4.0, abs=0.05)
        assert ev.signals_agreeing >= 2

    def test_no_transition_without_band_crossing(self, kgrid):
        rep = detect_dqpt(QuenchAnalysis(FIG3, kgrid, TimeGrid(7.0, 0.01)))
        assert not any(e.signals_agreeing >= 2 for e in rep.events)

    def test_broken_regime_quiet(self, kgrid):
        rep = detect_dqpt(QuenchAnalysis(FIG4B, kgrid, TimeGrid(7.0, 0.01)))
        assert not any(e.signals_agreeing >= 2 for e in rep.events)


def test_report_serializable_structure(kgrid):
    import json
    rep = analysis.analysis_report(QuenchAnalysis(FIG2A, kgrid, TimeGrid(7.0, 0.1)))
    json.dumps(rep)
    assert rep["regime"] == "pure"
    assert len(rep["fixed_points"]) == 4
    assert len(rep["dtop_traces"]) == 4
    assert {e["t_c"] for e in rep["dqpt_events"]} != set()
    assert all(set(tr) == {"m", "t", "value"} for tr in rep["dtop_traces"])


def test_report_flat_traces_without_transitions(kgrid):
    rep = analysis.analysis_report(QuenchAnalysis(FIG3, kgrid, TimeGrid(7.0, 0.5)))
    assert rep["critical_momenta"] == []
    assert len(rep["dtop_traces"]) == 4
    for tr in rep["dtop_traces"]:
        vals = [v for v in tr["value"] if v is not None]
        assert np.abs(np.asarray(vals)).max() < 1e-3
    assert rep["dqpt_events"] == []


def test_report_trivial_quench_note(kgrid):
    s = QuenchSpec((np.pi / 4, -np.pi / 2), (np.pi / 4, -np.pi / 2))
    rep = analysis.analysis_report(QuenchAnalysis(s, kgrid, TimeGrid(2.0, 0.5)))
    assert rep["fixed_points"] == []
    assert "eigenbasis" in rep["trivial_quench"] or "quench" in rep["trivial_quench"]


def _reference_jumps(qa):
    """The former jump check: two single-time dtop calls per critical time
    and sector, stopping at the first sector that jumps."""
    predicted = qa.critical_times
    if not predicted:
        return []
    fps = qa.critical.fixed_points
    jumps = []
    for t_c in predicted:
        if t_c - 0.1 <= 0:
            continue
        for m in range(1, len(fps.segments()) + 1):
            try:
                before = dtop(fps, t_c - 0.1, m)
                after = dtop(fps, t_c + 0.1, m)
            except (IllDefinedPhaseError, UndefinedDynamicPhaseError):
                continue
            if abs(after - before) > 0.25:
                jumps.append(t_c)
                break
    return jumps


_REGIMES = {"pure": {}, "mixed": {"mix_p": 0.7}, "lossy": {"loss": 0.36}}


@given(regime=st.sampled_from(sorted(_REGIMES)),
       theta1=st.floats(-np.pi, np.pi), theta2=st.floats(-np.pi, np.pi))
@example("pure", -np.pi / 2, 3 * np.pi / 8)       # fig2a: one jump at t = 4
@example("pure", -np.pi / 2, np.pi / 4)           # fig2b: jumps at t = 2, 6
@example("lossy", -np.pi / 3, np.pi / 5)          # fig4a: two critical scales
@example("mixed", -np.pi / 2, 3 * np.pi / 8)
@settings(max_examples=25, deadline=None)
def test_batched_jump_check_equals_per_time_dtop(regime, theta1, theta2):
    spec = QuenchSpec(FIG2A.initial_angles, (theta1, theta2), **_REGIMES[regime])
    grid = MomentumGrid(128)
    d0 = bloch_coefficients(spec.final_angles, spec.loss, grid.samples)[0]
    if np.any(np.abs(np.abs(d0) - 1) < 1e-6):
        return  # a closed gap on the grid: the field is undefined there
    qa = QuenchAnalysis(spec, grid, TimeGrid(7.0, 0.05))
    want = _reference_jumps(qa)
    assert list(detect_dqpt(qa).dtop_jumps) == want
    if (regime, theta1, theta2) == ("pure", -np.pi / 2, 3 * np.pi / 8):
        assert want == pytest.approx([4.0])


# refinement tolerances: worst measured on 788 random pure, mixed and lossy
# quenches under the test's conditions was 4.6e-10 for the rate (fig4a alone
# 1.6e-9) and 1.3e-14 for the order parameter
RATE_REFINE_TOL = 1e-8
DTOP_REFINE_TOL = 1e-12


@given(regime=st.sampled_from(sorted(_REGIMES)),
       theta1=st.floats(-np.pi, np.pi), theta2=st.floats(-np.pi, np.pi))
@example("pure", -np.pi / 2, 3 * np.pi / 8)       # fig2a, dtop at t = 5 among others
@example("lossy", -np.pi / 3, np.pi / 5)          # fig4a
@example("mixed", -np.pi / 2, 3 * np.pi / 8)
@settings(max_examples=30, deadline=None)
def test_resolution_refinement_stable_away_from_transition(regime, theta1, theta2):
    """Away from the transition neither the return rate (1024 vs 2048
    momenta) nor the order parameter of any sector (256 vs 512 sector
    momenta) moves under refinement.

    Away means at least 0.5 from every critical time (2n - 1) t0 and
    min_k |G_k(t)| >= 0.2: a mixed state's amplitude also dips near the
    critical momentum between critical times, and the momentum sum converges
    only as fast as |G| stays off zero. The gap must stay open by a margin,
    max_k d0^2 <= 0.99: near a closing gap the phase can turn faster than 256
    sector momenta resolve.
    """
    spec = QuenchSpec(FIG2A.initial_angles, (theta1, theta2), **_REGIMES[regime])
    if pt_classify(spec.final_angles, spec.loss)[1] > 0.99:
        return
    tgrid = TimeGrid(7.0, 0.1)
    times = tgrid.samples
    coarse, fine = (QuenchAnalysis(spec, MomentumGrid(n), tgrid) for n in (1024, 2048))
    away = np.abs(fine.field.values).min(axis=0) >= 0.2
    for qa in (coarse, fine):
        if isinstance(qa.critical, PhysicsError):
            continue
        for t0 in qa.critical.time_scales:
            ladder = np.arange(t0, times[-1] + 1, 2 * t0)
            away &= np.abs(times[:, None] - ladder).min(axis=1) >= 0.5
    if (regime, theta1, theta2) == ("pure", -np.pi / 2, 3 * np.pi / 8):
        assert away[times == 5.0].all()
    if not away.any():
        return
    rate_shift = np.abs(coarse.rate.values[away] - fine.rate.values[away]).max()
    assert rate_shift <= RATE_REFINE_TOL
    fps = fine.fixed_points
    if isinstance(fps, PhysicsError):
        return
    for m in range(1, len(fps.segments()) + 1):
        a, b = (_trace_at(fps, m, times[away], n).values for n in (256, 512))
        assert np.abs(a - b).max() <= DTOP_REFINE_TOL, m


def _sector_traces(fps, times, resolution):
    """Each sector's trace as raw bytes, so NaNs compare by their bits, or
    the repr of its error."""
    out = []
    for m in range(1, len(fps.segments()) + 1):
        try:
            out.append(_trace_at(fps, m, times, resolution).values.tobytes())
        except PhysicsError as err:
            out.append(repr(err))
    return out


def _one_block(fps, times, resolution):
    """_sector_traces with each trace in one block: no helper thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "BLOCK_COLUMNS", max(times.size, 1))
        return _sector_traces(fps, times, resolution)


def _batched(fps, times, resolution):
    """Every sector's trace from one run of dtop_traces, as _sector_traces
    gives them, or the repr of its error."""
    sectors = range(1, len(fps.segments()) + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "DTOP_RESOLUTION", resolution)
        try:
            traces = analysis.dtop_traces(fps, sectors, times)
        except PhysicsError as err:
            return repr(err)
    assert [tr.sector for tr in traces] == list(sectors)
    assert all(tr.times.tobytes() == times.tobytes() for tr in traces)
    return [tr.values.tobytes() for tr in traces]


def _first_error(traces):
    """What one run of the traces gives: the first sector's error, if any."""
    return next((tr for tr in traces if isinstance(tr, str)), traces)


# fig4b and s3-b have no sectors; fig4a at resolution 64 refines one time
# per sector
_SECTOR_RUNS = [(label, spec, analysis.DTOP_RESOLUTION) for pid in PRESET_IDS
                for label, spec in preset(pid) if label not in ("fig4b", "s3-b")]
_SECTOR_RUNS.append(("fig4a", FIG4A, 64))


@pytest.mark.parametrize("label, spec, resolution", _SECTOR_RUNS,
                         ids=[f"{label}-{res}" for label, _, res in _SECTOR_RUNS])
def test_preset_trace_bits_do_not_depend_on_the_threads(label, spec, resolution, monkeypatch):
    """Every preset's sector traces over the 701-sample grid, from one run of
    time blocks shared by the caller and one helper thread, have the bits of
    each sector's one-block trace that the caller computes alone, NaNs and
    refined times included.

    The run keeps the runner's contract: it starts one helper thread, runs
    every block exactly once, on the caller or that helper, puts the results
    in block order (the bits) and joins the helper before it returns. The
    one-block traces start no thread."""
    fps = find_fixed_points(spec, MomentumGrid(128))
    assert fps.segments()
    times = TimeGrid(7.0, 0.01).samples
    started, ran, refined = [], [], []  # threads; (table, first time, thread) per block
    start, block, refine = threading.Thread.start, analysis._trace_block, analysis._refined

    def start_spy(thread):
        started.append(thread)
        return start(thread)

    def block_spy(spec, table, ks, times, scratch):
        ran.append((id(table), times[0], threading.get_ident()))
        return block(spec, table, ks, times, scratch)

    def refine_spy(spec, ks, inc, t, depth):
        if depth == 0:
            refined.append(t)
        return refine(spec, ks, inc, t, depth)

    monkeypatch.setattr(threading.Thread, "start", start_spy)
    monkeypatch.setattr(analysis, "_trace_block", block_spy)
    monkeypatch.setattr(analysis, "_refined", refine_spy)
    batched = _batched(fps, times, resolution)
    assert len(started) == 1 and not started[0].is_alive()
    assert {thread for *_, thread in ran} <= {threading.get_ident(), started[0].ident}
    blocks = [(table, t0) for table, t0, _ in ran]
    per_sector = -(-times.size // lattice.BLOCK_COLUMNS)
    assert len(blocks) == len(set(blocks)) == len(fps.segments()) * per_sector
    assert len({table for table, _ in blocks}) == len(fps.segments())
    if resolution == 64:
        assert len(refined) == len(fps.segments())
    started.clear()
    ran.clear()
    assert _one_block(fps, times, resolution) == batched
    assert not started and ran and all(thread == threading.get_ident() for *_, thread in ran)


@given(regime=st.sampled_from(sorted(_REGIMES)),
       theta1=st.floats(-np.pi, np.pi), theta2=st.floats(-np.pi, np.pi))
@settings(max_examples=20, deadline=None)
def test_random_trace_bits_do_not_depend_on_the_threads(regime, theta1, theta2):
    """On random pure, mixed and PT-unbroken lossy quenches, each sector's
    trace over the 701-sample grid has the bits of the one-block trace, or
    raises the same error."""
    spec = QuenchSpec(FIG2A.initial_angles, (theta1, theta2), **_REGIMES[regime])
    assume(pt_classify(spec.final_angles, spec.loss)[0] == "unbroken")
    try:
        fps = find_fixed_points(spec, MomentumGrid(128))
    except PhysicsError:
        return
    times = TimeGrid(7.0, 0.01).samples
    resolution = analysis.DTOP_RESOLUTION
    assert _sector_traces(fps, times, resolution) == _one_block(fps, times, resolution)


# 1, 63, 64, 65 and 701 samples: one short block, one block short of the
# width, exactly one block, one column past it, and the default grid
_TIME_GRIDS = [TimeGrid(1.0, 1.5), TimeGrid(6.2, 0.1), TimeGrid(6.3, 0.1), TimeGrid(6.4, 0.1),
               TimeGrid(7.0, 0.01)]


@given(regime=st.sampled_from(sorted(_REGIMES)),
       theta1=st.floats(-np.pi, np.pi), theta2=st.floats(-np.pi, np.pi),
       tgrid=st.sampled_from(_TIME_GRIDS))
@settings(max_examples=30, deadline=None)
@example(regime="pure", theta1=-np.pi / 2, theta2=3 * np.pi / 8, tgrid=_TIME_GRIDS[0])
@example(regime="lossy", theta1=-np.pi / 3, theta2=np.pi / 5, tgrid=_TIME_GRIDS[3])
def test_batched_traces_equal_one_sector_traces(regime, theta1, theta2, tgrid):
    """On random pure, mixed and PT-unbroken lossy quenches, the traces of
    QuenchAnalysis.dtop_traces, all sectors in one run, have the bits of each
    sector's own one-block trace, NaNs and refined times included, or raise
    the error of the first sector that fails."""
    assert [g.samples.size for g in _TIME_GRIDS] == [1, 63, 64, 65, 701]
    spec = QuenchSpec(FIG2A.initial_angles, (theta1, theta2), **_REGIMES[regime])
    assume(pt_classify(spec.final_angles, spec.loss)[0] == "unbroken")
    qa = QuenchAnalysis(spec, MomentumGrid(128), tgrid)
    if isinstance(qa.fixed_points, PhysicsError):
        return
    times = tgrid.samples
    try:
        batched = [tr.values.tobytes() for tr in qa.dtop_traces]
    except PhysicsError as err:
        batched = repr(err)
    reference = _first_error(_one_block(qa.fixed_points, times, analysis.DTOP_RESOLUTION))
    assert batched == reference


@pytest.mark.parametrize("start", [0, 180])
def test_earliest_failing_block_raises(start, monkeypatch):
    """Without refinement, fig4a's sector 1 at 32 momenta fails at t = 2.15
    and at t = 6.54. From sample 0 the first failure falls in block 3 and the
    second in block 10; from sample 180 the first falls in block 0 and the
    second in block 7. Whichever thread claims them, the trace raises the
    earliest, as the one-block trace does, and the helper is joined.

    Sector 2 fails first at t = 1.72, in block 2 from sample 0, earlier than
    sector 1's block 3; all sectors in one run still raise sector 1's error,
    because sector 1's blocks come first."""
    fps = find_fixed_points(FIG4A, MomentumGrid(128))
    times = TimeGrid().samples[start:]
    monkeypatch.setattr(analysis, "DTOP_REFINE_DEPTH", 0)
    running = threading.active_count()
    with pytest.raises(UnresolvedPhaseJumpError, match=r"at t = 6\.54"):
        _trace_at(fps, 1, times[times > 3], 32)
    for block in (lattice.BLOCK_COLUMNS, times.size):
        monkeypatch.setattr(lattice, "BLOCK_COLUMNS", block)
        with pytest.raises(UnresolvedPhaseJumpError, match=r"at t = 2\.15"):
            _trace_at(fps, 1, times, 32)
        assert threading.active_count() == running
        if start == 0:
            with pytest.raises(UnresolvedPhaseJumpError, match=r"at t = 1\.72"):
                _trace_at(fps, 2, times, 32)
        batched = _batched(fps, times, 32)
        assert batched.startswith("UnresolvedPhaseJumpError") and "at t = 2.15" in batched
        assert threading.active_count() == running


def _reference_runs(values, gap):
    """The former grouping loop: a run grows while the next step is at most
    gap."""
    out, i = [], 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] - values[j] <= gap:
            j += 1
        out.append(list(values[i:j + 1]))
        i = j + 1
    return out


@given(st.one_of(st.lists(st.integers(0, 60), max_size=30),
                 st.lists(st.floats(0.0, 7.0), max_size=30)),
       st.sampled_from([1, 2, analysis.AGREEMENT_WINDOW]))
@settings(max_examples=200, deadline=None)
def test_runs_equal_grouping_loop(values, gap):
    values = sorted(values)
    assert [run.tolist() for run in analysis._runs(values, gap)] == \
        _reference_runs(values, gap)


# The scalar polish the batched searches replaced, kept as their reference:
# one one-momentum overlaps call per function value, scalar Brent and bounded
# minimum, CPython complex arithmetic.

def _reference_find_fixed_points(spec, grid):
    def ct(k, kind):
        tab = overlaps(spec, k)
        return complex((tab.ct_minus if kind == "minus" else tab.ct_plus)[0])

    ks, h = grid.samples, grid.spacing
    table = overlaps(spec, ks)
    found = []
    for kind, raw_vals in (("plus", table.ct_plus), ("minus", table.ct_minus)):
        vals = np.abs(raw_vals)
        if vals.max() < analysis.TRIVIAL_WEIGHT_MAX:
            raise TrivialQuenchError(kind)
        local = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)) \
            & (vals < analysis.FIXED_POINT_CUT)
        rel = np.angle(np.roll(raw_vals, -1) * np.conj(raw_vals))
        flip = (np.abs(rel) > np.pi / 2) & (vals > 0) & ~local & ~np.roll(local, -1)

        def projected_root(drn, a, b):
            if abs(drn) == 0.0:
                return None
            signed = lambda k: (ct(k, kind) * drn.conjugate()).real
            if not signed(a) * signed(b) < 0:
                return None
            k0 = _reference_brentq(signed, a, b, 1e-13)
            return k0, abs(ct(k0, kind))

        cands = [projected_root(complex(raw_vals[(i + 1) % len(ks)] - raw_vals[i]),
                                ks[i], ks[i] + h) for i in np.nonzero(flip)[0]]
        for i in np.nonzero(local)[0]:
            k0, fun = _reference_minimize_bounded(lambda k: abs(ct(k, kind)),
                                                  ks[i] - h, ks[i] + h, 1e-12)
            k0, fun = float(k0), float(fun)
            hit = projected_root(ct(k0 + h, kind) - ct(k0 - h, kind), k0 - h, k0 + h)
            cands.append(hit if hit and hit[1] < fun else (k0, fun))
        found += [analysis.FixedPoint(float(normalize_angle(k0)), kind, float(fun))
                  for k0, fun in filter(None, cands) if fun < analysis.FIXED_POINT_ACCEPT]
    return analysis._dedup_circular(found, analysis.FIXED_POINT_DEDUP)


def _reference_find_critical(spec, pts):
    def weight_h(k):
        tab = overlaps(spec, k)
        return float(tab.weight_minus[0] - tab.weight_plus[0])

    criticals = []
    for i in range(len(pts)):
        lo, hi = pts[i], pts[(i + 1) % len(pts)]
        if lo.kind == hi.kind:
            continue
        k_lo = lo.k + 1e-9
        k_hi = (hi.k if i + 1 < len(pts) else hi.k + 2 * np.pi) - 1e-9
        if k_hi <= k_lo or weight_h(k_lo) * weight_h(k_hi) > 0:
            continue
        kc = _reference_brentq(weight_h, k_lo, k_hi, 1e-12)
        e = overlaps(spec, kc).energy[0].real
        if e <= 1e-12:
            raise PhysicsError(kc)
        criticals.append(analysis.CriticalMomentum(float(normalize_angle(kc)), float(e),
                                                   float(np.pi / (2 * e))))
    return analysis._dedup_circular(criticals, 1e-9)


def _bits(items, fields):
    return [tuple(getattr(x, f).hex() if isinstance(getattr(x, f), float) else getattr(x, f)
                  for f in fields) for x in items]


def _outcome(call):
    try:
        return call(), None
    except (PhysicsError, ValueError, RuntimeError) as err:
        return None, type(err)


_quench = st.one_of(
    st.builds(lambda a, b: QuenchSpec(FIG2A.initial_angles, (a, b)),
              st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    st.builds(lambda a, b, p: QuenchSpec(FIG2A.initial_angles, (a, b), mix_p=p),
              st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(0, 1)),
    st.builds(lambda a, b, l: QuenchSpec(FIG2A.initial_angles, (a, b), loss=l),
              st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(0.01, 0.9)))


@given(_quench, st.sampled_from([128, 2048]))
@example(FIG2A, 128)
@example(FIG2A, 2048)
@example(FIG3, 2048)
@example(FIG4A, 128)
@example(FIG4A, 2048)
@example(FIG4B, 2048)
@settings(max_examples=40, deadline=None)
def test_batched_polish_equals_scalar_polish(spec, n_k):
    """Fixed points (k, kind, residual) and critical momenta (k, energy, t0)
    carry the bits of the scalar polish, and the same errors."""
    grid = MomentumGrid(n_k)
    want = _outcome(lambda: _reference_find_fixed_points(spec, grid))
    got = _outcome(lambda: find_fixed_points(spec, grid))
    assert got[1] == want[1]
    if want[1] is not None:
        return
    fields = ("k", "kind", "residual")
    assert _bits(got[0].points, fields) == _bits(want[0], fields)
    want_c = _outcome(lambda: _reference_find_critical(spec, want[0]))
    got_c = _outcome(lambda: find_critical(got[0], 7.0))
    assert got_c[1] == want_c[1]
    if want_c[1] is None:
        fields = ("k", "energy", "t0")
        assert _bits(got_c[0].criticals, fields) == _bits(want_c[0], fields)


def _inline_flips(raw_vals):
    """The sign-flip mask of one channel with the inline cyclic phase step
    find_fixed_points once spelled, and that step's modulus."""
    vals = np.abs(raw_vals)
    local = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)) \
        & (vals < analysis.FIXED_POINT_CUT)
    rel = np.abs(np.angle(np.roll(raw_vals, -1) * np.conj(raw_vals)))
    return (rel > np.pi / 2) & (vals > 0) & ~local & ~np.roll(local, -1), rel


@given(_quench, st.integers(32, 512).map(lambda n: 2 * n))
@example(QuenchSpec(FIG2A.initial_angles, (0.02, -2.66), loss=0.84), 114)
@example(FIG4A, 128)
@settings(max_examples=60, deadline=None)
def test_flip_mask_equals_inline_phase_step(spec, n_k):
    """The intervals find_fixed_points brackets as sign flips are those of
    the inline step, except where its modulus is within 1e-12 of pi/2. In
    the first example the lossy channel jumps in phase next to the zone
    edge, where a loop closed on a wrong sample adds a flip."""
    grid = MomentumGrid(n_k)
    try:
        table = overlaps(spec, grid.samples)
    except PhysicsError:
        return      # find_fixed_points starts with this call
    stages = []     # the polish stages in call order: (minus, lo) or None
    projected, bounded = analysis._projected_roots, analysis.roots.minimize_bounded
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_projected_roots",
                   lambda s, minus, lo, *a: stages.append((minus, lo)) or projected(s, minus, lo, *a))
        mp.setattr(analysis.roots, "minimize_bounded",
                   lambda *a, **kw: stages.append(None) or bounded(*a, **kw))
        try:
            find_fixed_points(spec, grid)
        except TrivialQuenchError:
            return
        except (PhysicsError, ValueError, RuntimeError):
            pass
    # the flip stage comes first, and runs only if some interval flips
    minus, lo = stages[0] if stages and stages[0] is not None else (np.empty(0, bool), np.empty(0))
    for m, raw_vals in ((False, table.ct_plus), (True, table.ct_minus)):
        want, rel = _inline_flips(raw_vals)
        i = np.searchsorted(grid.samples, lo[minus == m])
        assert grid.samples[i].tolist() == lo[minus == m].tolist()
        got = np.zeros_like(want)
        got[i] = True
        assert (np.abs(rel[got != want] - np.pi / 2) <= 1e-12).all()


@pytest.mark.parametrize("spec, calls", [(FIG2A, 30), (FIG3, 27), (FIG4A, 41), (FIG4B, 41)],
                         ids=["fig2a", "fig3", "fig4a", "fig4b"])
def test_polish_overlaps_calls(spec, calls, monkeypatch):
    """find_fixed_points and find_critical at 128 momenta call overlaps for
    the grid table, the bracket ends and once per polish round, and never at
    a root: the residual and the quasienergy there come with the search's
    last round. Evaluating them again made 32, 28, 43 and 42 calls."""
    seen = []
    monkeypatch.setattr(analysis, "overlaps",
                        lambda *a, **kw: seen.append(1) or overlaps(*a, **kw))
    find_critical(find_fixed_points(spec, MomentumGrid(128)), 7.0)
    assert len(seen) == calls


@given(_quench, st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_rowwise_overlaps_equal_one_momentum_calls(spec, ks):
    """The row-wise overlaps at n momenta equal n one-momentum calls bit for
    bit in every channel."""
    ks = np.array(ks)
    d0 = bloch_coefficients(spec.final_angles, spec.loss, ks)[0]
    if np.any(np.abs(np.abs(d0) - 1) < 1e-6):
        return  # a closed gap: no eigenbasis there
    rows = overlaps(spec, ks, _rowwise=True)
    for j, k in enumerate(ks):
        one = overlaps(spec, k)
        for name in ("energy", "A", "B", "ct_plus", "ct_minus", "weight_minus",
                     "weight_plus"):
            a, b = getattr(rows, name)[j], getattr(one, name)[0]
            assert a.tobytes() == b.tobytes(), (name, k)


@given(st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 4), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
@example([(0.0, 0.0, -0.0, -0.0)])
def test_projection_rounds_like_a_scalar_complex_product(rows):
    """The polish projection Re(c conj(d)) carries the bits of CPython's
    complex product, which numpy's complex product does not always match.
    The inputs are built part by part: x + 1j * y turns y = -0.0 into +0.0."""
    cr, ci, dr, di = np.array(rows).T
    c, d = cr.astype(complex), dr.astype(complex)
    c.imag, d.imag = ci, di
    got = analysis._project(c, d)
    want = [(complex(a, b) * complex(c, d).conjugate()).real for a, b, c, d in rows]
    assert got.tobytes() == np.array(want).tobytes()
