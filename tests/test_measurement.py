import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqptwalk.analysis import _rate, find_fixed_points
from dqptwalk.errors import ConfigError, PhysicsError
from dqptwalk.lattice import MomentumGrid, coin_matrix
from dqptwalk.measurement import (
    MAX_MC_SAMPLES,
    MC_BLOCK,
    U_CIRC,
    U_DIAG,
    ErrorModel,
    _analyzer,
    _setting_probs,
    monte_carlo_errorbars,
    perturb_protocol,
    poisson_counts,
    reconstruct_pbar,
)
from dqptwalk.quench import (
    QuenchSpec,
    _step_params,
    evolve_position,
    initial_state,
    overlaps,
    walk_step,
)

FLAT = (np.pi / 4, -np.pi / 2)
SPEC = QuenchSpec(FLAT, (-np.pi / 2, 3 * np.pi / 8))


def _ideal_probs(evo, eta):
    """_setting_probs of an unbatched walk under the ideal apparatus: zero
    analyzer errors, unit transmissions, one sample's count buffer."""
    flat = np.empty((1, 8 * sum(evo.sites(t).size for t in range(len(evo.states)))))
    return _setting_probs(evo, eta, np.zeros((1, 4)), np.ones((1, 4)), flat)


class TestErrorModel:
    def test_defaults(self):
        m = ErrorModel()
        assert m.wp_angle_tol == pytest.approx(np.deg2rad(0.1))
        assert m.path_loss_tol == pytest.approx(0.02)
        assert m.total_coincidences == 40000
        assert m.dephasing_eta == pytest.approx(0.97)
        assert m.mc_samples == 1000

    def test_validation(self):
        with pytest.raises(ConfigError):
            ErrorModel(wp_angle_tol=-0.1)
        with pytest.raises(ConfigError):
            ErrorModel(dephasing_eta=1.2)
        with pytest.raises(ConfigError):
            ErrorModel(total_coincidences=-5)

    @pytest.mark.parametrize("field, value", [
        ("wp_angle_tol", np.nan), ("wp_angle_tol", np.inf), ("wp_angle_tol", -np.inf),
        ("wp_angle_tol", np.nextafter(np.pi, 4)),
        ("path_loss_tol", np.nan), ("path_loss_tol", np.inf), ("path_loss_tol", -0.1),
        ("path_loss_tol", 1.0), ("path_loss_tol", 1.5), ("path_loss_tol", 1e308),
    ])
    def test_unusable_tolerance_refused(self, field, value):
        # a non-finite tolerance overflows the uniform draw, and a transmission
        # 1 + U(-tol, tol) that can reach 0 gives NaN click probabilities
        with pytest.raises(ConfigError, match=field):
            ErrorModel(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("wp_angle_tol", 0.0), ("wp_angle_tol", np.pi),
        ("path_loss_tol", 0.0), ("path_loss_tol", np.nextafter(1.0, 0))])
    def test_tolerance_range_ends_accepted(self, field, value):
        assert getattr(ErrorModel(**{field: value}), field) == value

    def test_silent_strips_all_noise(self):
        # zero tolerances and eta = 1 are valid; a draw is then the exact
        # protocol: the nominal plate angles, no basis error, full transmission
        m = ErrorModel(0.0, 0.0, 0, 1.0, seed=9)
        plates, deltas, trans = perturb_protocol(SPEC, m, [np.random.default_rng(m.seed)],
                                                 n_steps=3)
        base = _step_params(SPEC.final_angles, SPEC.loss)
        assert np.array_equal(plates, np.tile(base[:4], (1, 3, 1)))
        assert np.array_equal(deltas, np.zeros((1, 4)))
        assert np.array_equal(trans, np.ones((1, 4)))


def test_dephase_scales_coherences():
    # the analyzer dephasing keeps each path's total (the arm populations)
    # and scales only the interference term, by 2 eta - 1; eta = 1/2 is the
    # fully scrambled analyzer
    evo = evolve_position(SPEC, 4)
    ideal = _ideal_probs(evo, 1.0)
    for eta in (0.75, 0.5):
        for probs, ref in zip(_ideal_probs(evo, eta), ideal):
            for path in (slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)):
                totals = probs[:, path].sum(axis=1) - ref[:, path].sum(axis=1)
                assert np.abs(totals).max() <= 1e-15
            scaled = reconstruct_pbar(probs) - (2 * eta - 1) * reconstruct_pbar(ref)
            assert np.abs(scaled).max() <= 1e-15


def test_perturb_protocol_shapes_and_bounds(rng):
    em = ErrorModel()
    plates, deltas, trans = perturb_protocol(SPEC, em, rng.spawn(5), n_steps=7)
    assert plates.shape == (5, 7, 4)
    assert deltas.shape == (5, 4)
    assert trans.shape == (5, 4)
    # unitary protocol has no partial-measurement stage to misalign
    assert np.all(plates[..., 2] == 0)
    assert np.abs(deltas).max() <= em.wp_angle_tol
    assert np.abs(trans - 1).max() <= em.path_loss_tol


def test_perturb_protocol_reproducible():
    em = ErrorModel()
    a = perturb_protocol(SPEC, em, [np.random.default_rng(3)], n_steps=5)
    b = perturb_protocol(SPEC, em, [np.random.default_rng(3)], n_steps=5)
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y)


def test_poisson_counts_statistics(rng):
    p = np.array([0.1, 0.4, 0.0])
    draws = np.tile(p, (200, 1))
    poisson_counts(draws, 40000, rng.spawn(200))
    assert np.abs(draws.mean(axis=0) - p).max() < 0.01
    assert np.all(draws[:, 2] == 0)
    with pytest.raises(ConfigError):
        poisson_counts(p[None].copy(), 0, [rng])


@pytest.mark.parametrize("shape, leading", [((1, 6), False), ((1, 6), True),
                                            ((4, 9), False), ((4, 9), True)])
def test_poisson_counts_into_out_equals_a_fresh_result(shape, leading):
    """Counting in place, into a whole buffer or into its leading rows as
    the replay does, gives each row the bits of a fresh draw from its own
    generator and leaves each generator where that draw leaves it."""
    p = np.random.default_rng(5).uniform(-0.01, 0.3, shape)
    gens = [np.random.default_rng(40 + i) for i in range(shape[0])]
    fresh = [np.random.default_rng(40 + i) for i in range(shape[0])]
    buf = np.full((shape[0] + 3 * leading, shape[1]), np.nan)
    block = buf[:shape[0]]
    block[:] = p
    poisson_counts(block, 40000, gens)
    want = [g.poisson(np.clip(row, 0.0, None) * 40000) / 40000 for g, row in zip(fresh, p)]
    assert block.tobytes() == np.array(want).tobytes()
    assert np.isnan(buf[shape[0]:]).all()
    assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in fresh]


def test_round_trip_reconstruction():
    for p in (0.7, 1.0):
        s = SPEC if p == 1.0 else QuenchSpec(FLAT, (-np.pi / 2, 3 * np.pi / 8), mix_p=p)
        evo = evolve_position(s, 4)
        for t, probs in enumerate(_ideal_probs(evo, 1.0)):
            assert probs.shape == (1, 8, evo.sites(t).size)
            assert np.abs(reconstruct_pbar(probs)[0] - evo.pbar(t)).max() <= 1e-12


def test_dephasing_shrinks_interference():
    # pbar lives entirely in the arm coherences, so the analyzer contrast
    # eta rescales it by exactly 2 eta - 1
    em = ErrorModel()
    evo = evolve_position(SPEC, 4)
    site = np.nonzero(evo.sites(4) == -2)[0][0]
    ideal = reconstruct_pbar(_ideal_probs(evo, 1.0)[4])[0, site]
    fuzzy = reconstruct_pbar(_ideal_probs(evo, em.dephasing_eta)[4])[0, site]
    assert abs(ideal) > 0.4
    assert fuzzy == pytest.approx((2 * 0.97 - 1) * ideal, abs=1e-9)


class TestMonteCarlo:
    def test_sample_floor(self):
        with pytest.raises(ConfigError):
            monte_carlo_errorbars(SPEC, "rate_function",
                                  error_model=ErrorModel(mc_samples=10), grid=MomentumGrid(256))

    @pytest.mark.parametrize("samples", [MAX_MC_SAMPLES + 1, 10**19])
    def test_sample_cap(self, samples):
        """A sample count past the cap is refused before any replay, where
        10**19 samples would run for practically ever."""
        with pytest.raises(ConfigError, match="mc_samples"):
            monte_carlo_errorbars(SPEC, "pbar", error_model=ErrorModel(mc_samples=samples))

    def test_unknown_quantity(self):
        with pytest.raises(ConfigError):
            monte_carlo_errorbars(SPEC, "entropy",
                                  error_model=ErrorModel(mc_samples=100), grid=MomentumGrid(256))

    def test_silent_model_gives_zero_bars(self):
        # every noise source off; a zero coincidence total is no shot noise
        em = ErrorModel(0.0, 0.0, 0, 1.0, mc_samples=100)
        res = monte_carlo_errorbars(SPEC, "rate_function", error_model=em, grid=MomentumGrid(256))
        for _, _, _, ep, en in res.rows:
            assert ep == 0 and en == 0

    def test_reproducible_and_sorted(self):
        em = ErrorModel(mc_samples=100, seed=17)
        grid = MomentumGrid(256)
        a = monte_carlo_errorbars(SPEC, "pbar", error_model=em, positions=(0, 2), grid=grid)
        b = monte_carlo_errorbars(SPEC, "pbar", error_model=em, positions=(0, 2), grid=grid)
        assert a.rows == b.rows
        assert list(a.rows) == sorted(a.rows, key=lambda r: (r[0], r[1]))
        labels = {r[0] for r in a.rows}
        assert labels == {"re_pbar_x0", "im_pbar_x0", "re_pbar_x2", "im_pbar_x2"}

    def test_pbar_needs_no_grid(self):
        em = ErrorModel(mc_samples=100, seed=4)
        a = monte_carlo_errorbars(SPEC, "pbar", error_model=em, n_steps=2)
        b = monte_carlo_errorbars(SPEC, "pbar", error_model=em, n_steps=2,
                                  grid=MomentumGrid(64))
        assert a.rows == b.rows

    @pytest.mark.parametrize("quantity", ["rate_function", "dtop"])
    def test_grid_required_where_read(self, quantity):
        with pytest.raises(ConfigError, match="needs a momentum grid"):
            monte_carlo_errorbars(SPEC, quantity, error_model=ErrorModel(mc_samples=100))

    @pytest.mark.parametrize("counts", [0, 40000])
    def test_no_state_leaks_between_runs_or_blocks(self, counts):
        """Runs of every quantity in one process, each ending in a partial
        block, leave the next run's rows unchanged."""
        em = ErrorModel(total_coincidences=counts, mc_samples=3 * MC_BLOCK + 5, seed=6)
        grid = MomentumGrid(64)

        def run(quantity):
            return monte_carlo_errorbars(SPEC, quantity, em, n_steps=3, grid=grid).rows

        first = run("dtop")
        run("rate_function")
        run("pbar")
        assert run("dtop") == first

    def test_csv_contract(self, tmp_path):
        em = ErrorModel(mc_samples=100, seed=2)
        res = monte_carlo_errorbars(SPEC, "dtop", error_model=em, grid=MomentumGrid(256))
        out = tmp_path / "bars.csv"
        res.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,t,center,err_plus,err_minus,n_samples,seed"
        assert all(row.split(",")[0] == "dtop_m1" for row in lines[1:])
        assert len(lines) == 1 + 8


def _reference_mc_rate(g):
    """The Monte Carlo branch's former rate: per sample, a row of g."""
    mag = np.abs(g)
    with np.errstate(divide="ignore"):
        rate = -(2.0 / mag.shape[1]) * np.log(mag).sum(axis=1)
    return np.where((mag == 0).any(axis=1), np.inf, rate)


@given(samples=st.integers(1, 40), n_k=st.integers(1, 300),
       zeros=st.floats(0.0, 0.05), seed=st.integers(0, 2 ** 32 - 1))
@example(1, 256, 0.0, 0)
@example(33, 256, 0.01, 1)
@settings(max_examples=40, deadline=None)
def test_rate_of_transposed_samples_equals_former_formula(samples, n_k, zeros, seed):
    """_rate(g.T) sums each sample's momenta pairwise, as the row sum of the
    former formula did: the same bits, and +inf at an exact zero."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(samples, n_k)) + 1j * rng.normal(size=(samples, n_k))
    g[rng.random((samples, n_k)) < zeros] = 0
    got, want = _rate(g.T), _reference_mc_rate(g)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.isposinf(got), (g == 0).any(axis=1))


def _reference_draw(spec, model, rng, n_steps):
    """One sample's apparatus draw, one call per group: the plate angles, the
    analyzer basis errors and the transmissions."""
    base = _step_params(spec.final_angles, spec.loss)
    tol, loss_tol = model.wp_angle_tol, model.path_loss_tol
    d = rng.uniform(-tol, tol, (n_steps, 4))
    if spec.loss == 0:
        d[:, 2] = 0.0
    deltas = rng.uniform(-tol, tol, 4)
    trans = 1.0 + rng.uniform(-loss_tol, loss_tol, 4)
    return np.tile(np.array(base[:4]), (n_steps, 1)) + d, deltas, trans


@given(seed=st.integers(0, 2 ** 63 - 1), n_steps=st.integers(0, 9),
       loss=st.sampled_from([0.0, 0.36]), tol=st.sampled_from([0.0, np.deg2rad(0.1), np.pi]),
       loss_tol=st.sampled_from([0.0, 0.02, np.nextafter(1.0, 0)]))
@settings(max_examples=60, deadline=None)
def test_one_call_draw_equals_per_group_draws(seed, n_steps, loss, tol, loss_tol):
    """perturb_protocol's one draw per generator has the bits of one draw
    per group and leaves each generator's stream at the same point."""
    spec = SPEC if loss == 0 else QuenchSpec(FLAT, (-np.pi / 3, np.pi / 5), loss=loss)
    model = ErrorModel(tol, loss_tol)
    block = [np.random.default_rng(seed + i) for i in range(3)]
    serial = [np.random.default_rng(seed + i) for i in range(3)]
    got = perturb_protocol(spec, model, block, n_steps)
    for i, g in enumerate(serial):
        for part, want in zip(got, _reference_draw(spec, model, g, n_steps), strict=True):
            assert part[i].tobytes() == want.tobytes()
    assert [g.bit_generator.state for g in block] == [g.bit_generator.state for g in serial]


_DELTAS = st.one_of(
    st.sampled_from([0.0, -0.0, np.deg2rad(0.1), -np.deg2rad(0.1), np.pi, -np.pi]),
    st.floats(-np.pi, np.pi))


def _scalar_analyzer_terms(delta, u):
    """|u0|^2, |u1|^2 and conj(u0) u1 of one rotated analyzer vector, in
    numpy scalar arithmetic."""
    v = coin_matrix(delta) @ u
    return np.abs(v[0]) ** 2, np.abs(v[1]) ** 2, np.conj(v[0]) * v[1]


@given(deltas=st.lists(st.tuples(*[_DELTAS] * 4), min_size=1, max_size=12))
@example([(0.0, 0.0, 0.0, 0.0)])
@example([(np.pi, -np.pi, np.deg2rad(0.1), -np.deg2rad(0.1))])
# diagonal-setting rotations whose |u0|^2 or |u1|^2 an array square rounds
# differently from pow
@example([(0.0, 0.0012157656680298232, 0.0, -0.0016962537868609798),
          (0.0, 2.4164903160695124, 0.0, 1.2168183586489034)])
@settings(max_examples=60, deadline=None)
def test_block_analyzer_equals_scalar_vectors(deltas):
    deltas = np.array(deltas)
    terms = _analyzer(deltas)
    for i, row in enumerate(deltas):
        for k, (d, u) in enumerate(zip(row, (U_CIRC, U_DIAG, U_CIRC, U_DIAG))):
            want = _scalar_analyzer_terms(d, u)
            assert [t[i, k].tobytes() for t in terms] == [w.tobytes() for w in want]


@given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                  max_size=64))
@example([1e-200, 3.0, 1.0000000000000002, 1e154, 1.3407807929942596e154])
@settings(max_examples=80, deadline=None)
def test_float_power_squares_as_scalar_pow(x):
    """np.float_power(x, 2.0) on an array has the bits of np.float64 ** 2,
    which calls libm pow; an array ** 2 squares and may differ."""
    with np.errstate(over="ignore"):
        got = np.float_power(np.array(x), 2.0)
        want = [np.float64(v) ** 2 for v in x]
    assert got.tobytes() == np.array(want).tobytes()


def _reference_probs(spec, n_steps, run, eta):
    """One replay's eight setting probabilities per step, one sample at a
    time: serial walks per ket, scalar analyzer vectors. run is a
    _reference_draw, None the ideal apparatus."""
    init = initial_state(spec)
    base = _step_params(spec.final_angles, spec.loss)
    hists = []
    for ket in init.kets:
        psi = ket.reshape(2, 1).astype(complex)
        hist = [psi]
        for s in range(n_steps):
            angles = base[:4] if run is None else run[0][s]
            psi = walk_step(psi, *angles, base[4], base[5])
            hist.append(psi)
        hists.append(hist)
    if run is None:
        t_ev1 = t_rf1 = t_rf2 = t_ev2 = 1.0
        us = (U_CIRC, U_DIAG, U_CIRC, U_DIAG)
    else:
        t_ev1, t_rf1, t_rf2, t_ev2 = run[2]
        us = [coin_matrix(d) @ u for d, u in zip(run[1], (U_CIRC, U_DIAG, U_CIRC, U_DIAG))]

    def project(r11, r22, r12, u):
        return (np.abs(u[0]) ** 2 * r11 + np.abs(u[1]) ** 2 * r22
                + 2 * np.real(np.conj(u[0]) * u[1] * r12))

    coh = 2 * eta - 1
    out = []
    for t in range(n_steps + 1):
        nx = 4 * t + 1
        a11, a22, b11, b22 = (np.zeros(nx) for _ in range(4))
        a12, b12 = np.zeros(nx, complex), np.zeros(nx, complex)
        for w, ket, hist in zip(init.weights, init.kets, hists):
            amp = hist[t]
            v1 = np.sqrt(t_ev1) * amp[0]
            v2 = np.sqrt(t_rf1) * ket[0] * np.ones(nx, dtype=complex)
            a11 += w * np.abs(v1) ** 2
            a22 += w * np.abs(v2) ** 2
            a12 += w * v1 * np.conj(v2)
            w1 = np.sqrt(t_rf2) * ket[1] * np.ones(nx, dtype=complex)
            w2 = np.sqrt(t_ev2) * amp[1]
            b11 += w * np.abs(w1) ** 2
            b22 += w * np.abs(w2) ** 2
            b12 += w * w1 * np.conj(w2)
        n1, n2 = (t_ev1 + t_rf1) / 2, (t_rf2 + t_ev2) / 2
        a11, a22, a12 = a11 / n1, a22 / n1, coh * a12 / n1
        b11, b22, b12 = b11 / n2, b22 / n2, coh * b12 / n2
        p11, p12 = project(a11, a22, a12, us[0]), project(a11, a22, a12, us[1])
        p21, p22 = project(b11, b22, b12, us[2]), project(b11, b22, b12, us[3])
        out.append(np.stack([p11, a11 + a22 - p11, p12, a11 + a22 - p12,
                             p21, b11 + b22 - p21, p22, b11 + b22 - p22]))
    return out


def _reference_errorbars(spec, quantity, model, n_steps, grid, positions):
    """Per-sample Monte Carlo replay with one Poisson draw per step."""
    ref = _reference_probs(spec, n_steps, None, 1.0)
    sites = [np.arange(-2 * t, 2 * t + 1) for t in range(n_steps + 1)]
    if quantity == "dtop":
        segs = find_fixed_points(spec, grid).segments()
        if not segs:
            raise PhysicsError("no winding sectors exist for this quench")
        ks = np.linspace(*segs[0], 513)
        dyn_rate = overlaps(spec, ks).dynamic_rate
    else:
        ks = grid.samples

    def measure(fields, rng):
        vals = {}
        for t, probs in enumerate(fields):
            total = model.total_coincidences
            if rng is not None and total > 0:
                probs = rng.poisson(np.clip(probs, 0.0, None) * total) / total
            p1, p2 = probs[0] + probs[1], probs[4] + probs[5]
            pbar = (1j * (probs[0] - p1 / 2 - probs[4] + p2 / 2)
                    + (probs[2] - p1 / 2 + probs[6] - p2 / 2))
            g = np.exp(-1j * np.outer(ks, sites[t])) @ pbar
            if quantity == "rate_function":
                mag = np.abs(g)
                vals[("rate_function", t)] = (np.inf if np.any(mag == 0) else float(
                    -(2.0 / mag.size) * np.log(mag).sum()))
            elif quantity == "dtop":
                z = g * np.exp(-1j * dyn_rate * t)
                inc = np.angle(z[1:] * np.conj(z[:-1]))
                vals[("dtop_m1", t)] = float(inc.sum() / (2 * np.pi))
            else:
                for x in positions:
                    hit = np.nonzero(sites[t] == x)[0]
                    z = complex(pbar[hit[0]]) if hit.size else 0.0j
                    vals[(f"re_pbar_x{x}", t)] = z.real
                    vals[(f"im_pbar_x{x}", t)] = z.imag
        return vals

    center = measure(ref, None)
    hi = dict.fromkeys(center, 0.0)
    lo = dict.fromkeys(center, 0.0)
    for i in range(model.mc_samples):
        rng = np.random.default_rng(model.seed ^ i)
        fields = ref
        if spec.loss == 0:
            run = _reference_draw(spec, model, rng, n_steps)
            fields = _reference_probs(spec, n_steps, run, model.dephasing_eta)
        for key, v in measure(fields, rng).items():
            d = v - center[key]
            if np.isfinite(d):
                hi[key] = max(hi[key], d)
                lo[key] = min(lo[key], d)
    return sorted((q, float(t), float(center[(q, t)]), float(-lo[(q, t)]) + 0.0,
                   float(hi[(q, t)]) + 0.0) for q, t in center)


_REGIMES = {
    "pure": {},
    "mixed": {"mix_p": 0.7},
    "lossy": {"loss": 0.36},
}


@given(theta1=st.floats(-np.pi, np.pi), theta2=st.sampled_from([-np.pi / 2, np.pi / 2]),
       final=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
       regime=st.sampled_from(sorted(_REGIMES)), n_steps=st.integers(0, 7))
@example(*FLAT, (-np.pi / 2, 3 * np.pi / 8), "pure", 7)
@settings(max_examples=60, deadline=None)
def test_ideal_apparatus_equals_reference_probs(theta1, theta2, final, regime, n_steps):
    """The noiseless center's apparatus, zero analyzer errors and unit
    transmissions, gives every flat preparation the setting probabilities
    of the per-sample oracle's ideal apparatus, bit for bit."""
    spec = QuenchSpec((theta1, theta2), final, **_REGIMES[regime])
    got = _ideal_probs(evolve_position(spec, n_steps), 1.0)
    want = _reference_probs(spec, n_steps, None, 1.0)
    assert [g[0].tobytes() for g in got] == [w.tobytes() for w in want]


@given(regime=st.sampled_from(sorted(_REGIMES)),
       quantity=st.sampled_from(["rate_function", "dtop", "pbar"]),
       theta1=st.floats(-1.5, 1.5), theta2=st.floats(-1.5, 1.5),
       seed=st.integers(0, 2 ** 32 - 1), counts=st.sampled_from([0, 40000]))
@example("pure", "dtop", -np.pi / 2, 3 * np.pi / 8, 7, 40000)
@example("mixed", "dtop", -np.pi / 2, 3 * np.pi / 8, 8, 0)
@example("lossy", "dtop", -np.pi / 3, np.pi / 5, 9, 40000)
@example("mixed", "rate_function", -np.pi / 2, 3 * np.pi / 8, 2 ** 32 - 1, 0)
@settings(max_examples=20, deadline=None)
def test_batched_replay_equals_per_sample_reference(regime, quantity, theta1,
                                                    theta2, seed, counts):
    # counts=0 skips the Poisson pass, so the last bit of every replayed
    # probability reaches the bars
    # a sample count that leaves a partial last block
    n = 3 * MC_BLOCK + 5
    assert n >= 100 and n % MC_BLOCK
    try:
        spec = QuenchSpec(FLAT, (theta1, theta2), **_REGIMES[regime])
    except PhysicsError:
        return
    model = ErrorModel(total_coincidences=counts, mc_samples=n, seed=seed)
    grid = MomentumGrid(32)
    args = (spec, quantity, model, 3, grid, (0, 2))
    try:
        want = _reference_errorbars(*args)
    except (ConfigError, PhysicsError) as err:
        with pytest.raises(type(err)):
            monte_carlo_errorbars(spec, quantity, model, n_steps=3,
                                  positions=(0, 2), grid=grid)
        return
    got = monte_carlo_errorbars(spec, quantity, model, n_steps=3,
                               positions=(0, 2), grid=grid)
    assert list(got.rows) == want
