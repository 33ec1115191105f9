"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line through the conftest reporter, with the
wall time, so the suite doubles as a release checklist. Tolerances and time
budgets are part of the contract and asserted, not just reported.
"""
import time

import numpy as np
import pytest

from conftest import circular_match, floquet_matrix, record

from dqptwalk import analysis, floquet, measurement, quench
from dqptwalk.analysis import QuenchAnalysis, dtop_trace, find_critical, find_fixed_points
from dqptwalk.errors import (
    DegenerateSpectrumError,
    InsufficientResolutionError,
    PhysicsError,
    PTBrokenError,
    TopologicalBoundaryError,
    TrivialQuenchError,
)
from dqptwalk.floquet import (
    bloch_coefficients,
    eigensystem_arrays,
    pt_classify,
    winding_global_berry,
    winding_unitary,
)
from dqptwalk.lattice import CoinAngles, MomentumGrid, TimeGrid
from dqptwalk.measurement import (
    ErrorModel,
    _setting_probs,
    monte_carlo_errorbars,
    reconstruct_pbar,
)
from dqptwalk.presets import PRESET_IDS, preset
from dqptwalk.quench import QuenchSpec, evolve_position, overlaps

FIG2A = preset("fig2a")[0][1]
FIG2B = preset("fig2b")[0][1]
FIG4A = preset("fig4a")[0][1]
FIG4B = preset("fig4b")[0][1]


def _run(n, desc, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException as err:
        record(f"criterion {n:2d} FAIL  {desc}  [{type(err).__name__}: {err}]")
        raise
    dt = time.perf_counter() - t0
    extra = f"; {detail}" if detail else ""
    record(f"criterion {n:2d} PASS  {desc}  ({dt:.2f}s{extra})")


def test_01_winding_numbers():
    def body():
        g = MomentumGrid(2048)
        cases = [
            (lambda: winding_unitary(CoinAngles(np.pi / 4, -np.pi / 2), g), 0),
            (lambda: winding_unitary(CoinAngles(-np.pi / 2, 3 * np.pi / 8), g), -2),
            (lambda: winding_unitary(CoinAngles(-np.pi / 16, -3 * np.pi / 16), g), 0),
            (lambda: winding_global_berry(CoinAngles(-np.pi / 3, np.pi / 5), 0.36, g), -2),
        ]
        got = []
        for fn, want in cases:
            t0 = time.perf_counter()
            nu = fn()
            dt = time.perf_counter() - t0
            assert dt < 1.0, f"winding took {dt:.2f}s"
            assert isinstance(nu, int) and nu == want, f"{nu} != {want}"
            got.append(nu)
        return f"windings {got}"
    _run(1, "winding numbers 0/-2/0/-2", body)


def test_02_critical_time_scales():
    def body():
        t_a = find_critical(find_fixed_points(FIG2A, MomentumGrid(2048)), 7.0).time_scales
        t_b = find_critical(find_fixed_points(FIG2B, MomentumGrid(2048)), 7.0).time_scales
        assert len(t_a) == 1 and abs(t_a[0] - 4.0) < 1e-9, t_a
        assert len(t_b) == 1 and abs(t_b[0] - 2.0) < 1e-9, t_b
        return f"t0 = {t_a[0]:.12f}, {t_b[0]:.12f}"
    _run(2, "critical time scales 4 and 2 to 1e-9", body)


def test_03_lossy_quench_caption_numbers():
    def body():
        fps = find_fixed_points(FIG4A, MomentumGrid(2048))
        crit = find_critical(fps, 7.0)
        bad = circular_match(fps.ks, np.array([-1.0094, -0.4470, -0.0094, 0.5530]) * np.pi,
                             1e-3 * np.pi)
        assert bad is None, f"fixed points: {bad}"
        bad = circular_match(crit.ks, np.array([-0.7888, -0.1534, 0.2112, 0.8466]) * np.pi,
                             1e-3 * np.pi)
        assert bad is None, f"critical momenta: {bad}"
        scales = np.sort(crit.time_scales)
        assert np.abs(scales - [1.7183, 2.1482]).max() < 1e-3, scales
        return f"scales {scales.round(4).tolist()}"
    _run(3, "lossy-quench momenta and scales to 1e-3", body)


def test_04_unitary_fixed_points_exact():
    def body():
        fps = find_fixed_points(FIG2A, MomentumGrid(2048))
        crit = find_critical(fps, 7.0)
        bad = circular_match(fps.ks, [-np.pi, -np.pi / 2, 0.0, np.pi / 2], 1e-9)
        assert bad is None, f"fixed points: {bad}"
        bad = circular_match(crit.ks, [np.pi / 4, -np.pi / 4, 3 * np.pi / 4,
                                       -3 * np.pi / 4], 1e-9)
        assert bad is None, f"critical momenta: {bad}"
        return "4 fixed points, 4 critical momenta"
    _run(4, "unitary fixed points and k_c to 1e-9", body)


def test_05_order_parameter_quantization():
    def body():
        times = np.round(np.arange(0.0, 7.0 + 1e-9, 0.05), 10)
        away = np.abs(times - 4.0) > 0.05
        fps = find_fixed_points(FIG2A, MomentumGrid(2048))
        traces = [dtop_trace(fps, m, times).values for m in (1, 2, 3, 4)]
        for m, vals in enumerate(traces, start=1):
            v = vals[away]
            assert np.isfinite(v).all(), f"sector {m} lost values away from t_c"
            assert np.abs(v - np.round(v)).max() < 1e-3, f"sector {m} not integer"
            lo = vals[np.abs(times - 3.9) < 1e-9][0]
            hi = vals[np.abs(times - 4.1) < 1e-9][0]
            assert abs(abs(hi - lo) - 1) < 1e-3, f"sector {m} jump {hi - lo}"
        t13 = np.abs(np.asarray(traces[0]) - traces[2])
        t24 = np.abs(np.asarray(traces[1]) - traces[3])
        anti = np.abs(np.asarray(traces[0]) + traces[1])
        for d in (t13, t24, anti):
            assert np.nanmax(d) < 1e-6
        return "4 sectors integer, unit jumps, antisymmetric pairs"
    _run(5, "order parameter quantized with unit jumps", body)


def test_06_mixed_states_shift_nothing_but_quantization():
    def body():
        grid = MomentumGrid(2048)
        base = find_critical(find_fixed_points(FIG2A, grid), 7.0).critical_times
        hits = []
        for pid in ("mixed-p07", "mixed-p09"):
            spec = preset(pid)[0][1]
            fps = find_fixed_points(spec, grid)
            times = find_critical(fps, 7.0).critical_times
            assert np.allclose(times, base, atol=1e-9)
            tr = dtop_trace(fps, 1, np.arange(0.0, 7.0, 0.2))
            v = tr.values[np.isfinite(tr.values)]
            off = np.abs(v - np.round(v)).max()
            assert off > 0.05, f"{pid} stayed quantized ({off:.3f})"
            hits.append(round(float(off), 3))
        return f"max integer distance {hits}"
    _run(6, "mixed states keep t_c, lose quantization", body)


def test_07_broken_symmetry_smooth():
    def body():
        table = overlaps(FIG4B, MomentumGrid(256).samples)
        g = table.loschmidt(TimeGrid(7.0, 0.01).samples)
        gmin = float(np.abs(g).min())
        assert gmin > 0.05, f"min |G| = {gmin}"
        assert find_fixed_points(FIG4B, MomentumGrid(2048)).points == ()
        tr = QuenchAnalysis(FIG4B, MomentumGrid(256), TimeGrid(7.0, 0.01)).rate
        assert np.isfinite(tr.values).all()
        assert len(tr.kinks()) == 0
        return f"min|G| {gmin:.3f}, no kinks"
    _run(7, "broken-symmetry quench stays smooth", body)


def test_08_position_fourier_oracle():
    def body():
        grid = MomentumGrid(64)
        seen, worst = set(), 0.0
        for pid in PRESET_IDS:
            for label, spec in preset(pid):
                key = (spec.initial_angles, spec.final_angles, spec.loss, spec.mix_p)
                if key in seen:
                    continue
                seen.add(key)
                table = overlaps(spec, grid.samples)
                pe = evolve_position(spec, 7)
                for t in range(8):
                    g_cf = table.loschmidt(np.array([float(t)]))[:, 0]
                    err = float(np.abs(g_cf - pe.loschmidt(grid, t)).max())
                    worst = max(worst, err)
        assert worst < 1e-10, worst
        return f"{len(seen)} quenches, worst {worst:.2e}"
    _run(8, "position-space Fourier matches closed form to 1e-10", body)


def test_09_measurement_round_trip():
    def body():
        worst = 0.0
        for p in (0.5, 0.7, 0.9, 1.0):
            if p == 1.0:
                spec = QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 2, 3 * np.pi / 8))
            else:
                spec = QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 2, 3 * np.pi / 8), mix_p=p)
            evo = evolve_position(spec, 7)
            # the ideal apparatus, as one sample
            flat = np.empty((1, 8 * sum(evo.sites(t).size for t in range(8))))
            for t, probs in enumerate(_setting_probs(evo, 1.0, np.zeros((1, 4)),
                                                     np.ones((1, 4)), flat)):
                rec = reconstruct_pbar(probs)[0]
                worst = max(worst, float(np.abs(rec - evo.pbar(t)).max()))
        assert worst < 1e-12, worst
        return f"worst {worst:.2e}"
    _run(9, "click probabilities invert to pbar at 1e-12", body)


def test_10_monte_carlo_error_model():
    def body():
        t0 = time.perf_counter()
        spec = QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 2, 3 * np.pi / 8))
        em = ErrorModel()  # stock noise model, 1000 samples
        bars = monte_carlo_errorbars(spec, "dtop", error_model=em, grid=MomentumGrid(256))
        by_t = {r[1]: r[3] + r[4] for r in bars.rows}
        ratio = by_t[4.0] / by_t[3.0]
        assert ratio > 5, f"bar ratio {ratio:.2f}"
        rate = monte_carlo_errorbars(spec, "rate_function", error_model=em,
                                     grid=MomentumGrid(256))
        mx = max(r[3] + r[4] for r in rate.rows)
        assert any(abs(r[3] - r[4]) > 0.1 * mx for r in rate.rows), \
            "no asymmetric rate bar"
        dt = time.perf_counter() - t0
        assert dt < 300, f"{dt:.0f}s"
        return f"bar ratio {ratio:.1f}"
    _run(10, "error bars blow up and skew at the transition", body)


def test_11_fixed_point_counting():
    def body():
        rng = np.random.default_rng(7)
        grid = MomentumGrid(256)
        accepted = checked = 0
        while accepted < 200:
            checked += 1
            assert checked < 6000, "sampler starved"
            th1i = rng.uniform(-np.pi, np.pi)
            s2 = rng.choice([-1.0, 1.0])
            final = (rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            loss = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
            try:
                if pt_classify((th1i, s2 * np.pi / 2), loss)[0] != "unbroken":
                    continue
                if pt_classify(final, loss)[0] != "unbroken":
                    continue
                # initial flat-band walks all carry winding 0, so the
                # winding difference equals |nu_f|; odd differences cannot
                # occur in this family
                if abs(winding_global_berry(final, loss, grid)) != 2:
                    continue
                spec = QuenchSpec((th1i, s2 * np.pi / 2), final, loss=loss)
                fps = find_fixed_points(spec, grid)
            except (TrivialQuenchError, PTBrokenError, TopologicalBoundaryError,
                    InsufficientResolutionError, DegenerateSpectrumError):
                continue
            kinds = list(fps.kinds)
            accepted += 1
            assert kinds.count("minus") >= 2 and kinds.count("plus") >= 2, \
                f"quench {th1i, s2, final, loss}: kinds {kinds}"
        return f"200 quenches from {checked} draws"
    _run(11, "band-crossing count bounded by winding change", body)


def test_12_structural_invariants():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        n = 10_000
        th1 = rng.uniform(-np.pi, np.pi, n)
        th2 = rng.uniform(-np.pi, np.pi, n)
        ks = rng.uniform(-np.pi, np.pi, n)
        ls = rng.uniform(0.0, 0.8, n)
        worst = {"norm": 0.0, "det": 0.0, "product": 0.0, "reduce": 0.0,
                 "biorth": 0.0, "recon": 0.0}
        for i in range(n):
            a = CoinAngles(th1[i], th2[i])
            d0, be, d2, d3 = bloch_coefficients(a, ls[i], ks[i])
            worst["norm"] = max(worst["norm"], abs(d0**2 - be**2 + d2**2 + d3**2 - 1))
            bloch = floquet._bloch_matrices(d0, 1j * be, d2, d3)
            m = floquet_matrix(a, ls[i], ks[i])
            worst["det"] = max(worst["det"], abs(np.linalg.det(m) - 1))
            worst["product"] = max(worst["product"], float(np.abs(bloch - m).max()))
            if i % 5 == 0:
                # the lossless operator has beta = 0 exactly and is the
                # unitary optical-element product
                d0u, beu, d2u, d3u = bloch_coefficients(a, 0.0, ks[i])
                assert beu == 0
                worst["reduce"] = max(worst["reduce"], float(np.abs(
                    floquet._bloch_matrices(d0u, 1j * beu, d2u, d3u)
                    - floquet_matrix(a, 0.0, ks[i])).max()))
                try:
                    es = eigensystem_arrays(a, ls[i], np.array([ks[i]]))
                    floquet._require_gap(es["d0"])
                except DegenerateSpectrumError:
                    continue
                psi_p, psi_m, chi_p, chi_m = (es[name][0] for name in
                                              ("psi_p", "psi_m", "chi_p", "chi_m"))
                bio = np.abs([chi_p @ psi_p - 1, chi_m @ psi_m - 1,
                              chi_p @ psi_m, chi_m @ psi_p]).max()
                worst["biorth"] = max(worst["biorth"], float(bio))
                recon = (es["lambda_plus"][0] * np.outer(psi_p, chi_p)
                         + es["lambda_minus"][0] * np.outer(psi_m, chi_m))
                worst["recon"] = max(worst["recon"], float(np.abs(recon - bloch).max()))
        assert worst["norm"] < 1e-12, worst
        assert worst["det"] < 1e-12, worst
        assert worst["product"] < 1e-12, worst
        assert worst["reduce"] < 1e-12, worst
        assert worst["biorth"] < 1e-10, worst
        assert worst["recon"] < 1e-10, worst
        dt = time.perf_counter() - t0
        assert dt < 30, f"{dt:.1f}s"
        return "norm/det/product/reduction/biorthogonality/reconstruction"
    _run(12, "structural identities on 10k random inputs", body)
