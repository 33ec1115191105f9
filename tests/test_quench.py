from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import floquet_matrix

from dqptwalk import cli, quench
from dqptwalk.errors import (
    ConfigError,
    DegenerateSpectrumError,
    InvalidInitialProtocolError,
)
from dqptwalk.floquet import bloch_coefficients, pt_classify
from dqptwalk.lattice import GAP_TOL, MomentumGrid
from dqptwalk.quench import (
    QuenchSpec,
    evolve_position,
    initial_state,
    loschmidt_field,
    overlaps,
    _step_params,
)

FLAT = (np.pi / 4, -np.pi / 2)


def _reference_evolve(spec, k, n_steps):
    """Prepared ket(s) after n_steps steps of the post-quench walk at
    momentum k, by matrix powers of the one-step operator; shape (m, 2)."""
    u = floquet_matrix(spec.final_angles, spec.loss, k)
    return spec.prepared.kets @ np.linalg.matrix_power(u, n_steps).T


def _reference_loschmidt(spec, k, n_steps):
    """G_k after an integer step count, by matrix powers: the route that
    the two-mode amplitude interpolates."""
    init = spec.prepared
    vals = np.einsum("ij,ij->i", init.kets.conj(), _reference_evolve(spec, k, n_steps))
    return complex(np.dot(init.weights, vals))


def _one_sector(spec, k, times):
    """G_k(t) of a single momentum on the two-mode path."""
    return overlaps(spec, [k]).loschmidt(np.asarray(times, dtype=float))[0]


def spec_pure(final=(-np.pi / 2, 3 * np.pi / 8)):
    return QuenchSpec(FLAT, final)


def _old_regime(loss, mix_p):
    """The regime the command line inferred from loss and mix_p when the spec
    still took one, or None where the spec then refused the pair."""
    regime = "nonunitary" if loss else ("mixed" if mix_p is not None else "pure")
    if regime == "nonunitary":
        return regime if 0 < loss < 1 and mix_p is None else None
    if regime == "mixed":
        return regime if 0 <= mix_p <= 1 else None
    return regime


_EDGES = [0.0, -0.0, 1.0, float("nan"), float("inf")]


class TestSpecValidation:
    @given(loss=st.one_of(st.sampled_from(_EDGES), st.floats(-0.5, 1.5)),
           mix_p=st.one_of(st.none(), st.sampled_from(_EDGES), st.floats(-0.5, 1.5)))
    @example(loss=0.36, mix_p=None)
    @example(loss=0.0, mix_p=0.7)
    @example(loss=0.36, mix_p=0.7)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_regime_rules(self, tmp_path, loss, mix_p):
        regime = _old_regime(loss, mix_p)
        if regime is None:
            with pytest.raises(ConfigError):
                QuenchSpec(FLAT, (0.3, 0.4), loss=loss, mix_p=mix_p)
        else:
            s = QuenchSpec(FLAT, (0.3, 0.4), loss=loss, mix_p=mix_p)
            assert s.regime == regime
            assert [f.name for f in fields(s)] == ["initial_angles", "final_angles",
                                                   "loss", "mix_p"]
        with pytest.raises(TypeError):
            QuenchSpec(FLAT, (0.3, 0.4), loss=loss, mix_p=mix_p, regime=regime)
        # the command line refuses the key before it builds anything
        out = tmp_path / "out"
        sets = [f"regime={regime or 'mixed'}", "final_theta1=-1/2", "final_theta2=3/8",
                f"loss={loss}"] + ([] if mix_p is None else [f"mix_p={mix_p}"])
        assert cli.main(["quench", "--out", str(out),
                         *(a for item in sets for a in ("--set", item))]) == 2
        assert not out.exists()

    def test_initial_protocol_must_be_flat(self):
        with pytest.raises(InvalidInitialProtocolError):
            QuenchSpec((np.pi / 3, np.pi / 5), (0.3, 0.4))

    def test_angle_coercion(self):
        s = QuenchSpec(FLAT, (0.3, 0.4))
        assert s.initial_angles.theta1 == pytest.approx(np.pi / 4)
        assert s.loss == 0 and s.regime == "pure"


def test_prepared_state_is_kept_on_the_spec(monkeypatch):
    calls = []
    built = quench.initial_state
    monkeypatch.setattr(quench, "initial_state",
                        lambda spec: calls.append(spec) or built(spec))
    for extra in ({}, {"mix_p": 0.7},
                  {"loss": 0.36}):
        s = QuenchSpec(FLAT, (-np.pi / 3, np.pi / 5), **extra)
        twin = QuenchSpec(FLAT, (-np.pi / 3, np.pi / 5), **extra)
        calls.clear()
        first = s.prepared
        assert s.prepared is first
        overlaps(s, MomentumGrid(16).samples)
        evolve_position(s, 2)
        assert calls == [s]
        want = built(s)
        assert np.array_equal(first.kets, want.kets)
        assert np.array_equal(first.weights, want.weights)
        # the kept state is no field: equality and hashing ignore it
        assert "prepared" in vars(s) and "prepared" not in vars(twin)
        assert s == twin and hash(s) == hash(twin)


def test_initial_state_pure_is_lower_band_eigenvector():
    s = spec_pure()
    st0 = initial_state(s)
    assert st0.kets.shape == (1, 2)
    ket = st0.kets[0]
    assert np.linalg.norm(ket) == pytest.approx(1.0)
    u = floquet_matrix(s.initial_angles, 0.0, 0.0)
    lam = (u @ ket) / ket
    assert np.abs(lam - lam[0]).max() < 1e-12
    # lower band means eigenvalue exp(+iE) with E in (0, pi)
    e = np.angle(lam[0])
    assert 0 < e < np.pi


def test_closed_preparation_gap_refused():
    # flat, but d0 = -1 on the whole zone: the prepared eigenstate is undefined
    s = QuenchSpec((np.pi / 2, np.pi / 2), (-np.pi / 2, 3 * np.pi / 8))
    with pytest.raises(DegenerateSpectrumError):
        initial_state(s)


def test_initial_state_mixed_weights():
    s = QuenchSpec(FLAT, (0.3, 0.4), mix_p=0.7)
    st0 = initial_state(s)
    assert st0.kets.shape == (2, 2)
    assert list(st0.weights) == pytest.approx([0.7, 0.3])
    # unit kets with weights summing to 1: the mixture has unit trace
    assert np.linalg.norm(st0.kets, axis=1) == pytest.approx([1.0, 1.0])
    assert st0.weights.sum() == pytest.approx(1.0)


def test_overlap_table_pure_unitary(kgrid):
    t = overlaps(spec_pure(), kgrid.samples)
    assert t.energy_is_real
    # band weights partition unity in the orthonormal unitary frame
    assert np.abs(t.A + t.B - 1).max() < 1e-12
    assert np.all(t.A.real >= -1e-12) and np.all(t.B.real >= -1e-12)


def test_loschmidt_is_one_at_t_zero(kgrid):
    for s in (spec_pure(),
              QuenchSpec(FLAT, (0.3, 0.4), mix_p=0.6),
              QuenchSpec(FLAT, (-np.pi / 3, np.pi / 5), loss=0.36)):
        g = overlaps(s, kgrid.samples).loschmidt(np.array([0.0]))
        assert np.abs(g - 1).max() < 1e-12


def test_unitary_amplitude_bounded(kgrid):
    g = overlaps(spec_pure(), kgrid.samples).loschmidt(np.linspace(0, 7, 29))
    assert np.abs(g).max() <= 1 + 1e-12


def test_two_mode_matches_direct_evolution():
    s = spec_pure()
    for k in (-1.1, 0.4, 2.9):
        for t in (1, 3, 6):
            a = _one_sector(s, k, [t])[0]
            b = _reference_loschmidt(s, k, t)
            assert a == pytest.approx(b, abs=1e-12)


def test_direct_evolution_norm_preserved():
    s = spec_pure()
    psi = initial_state(s).kets[0]
    for t in range(1, 7):
        ev = _reference_evolve(s, 0.37, t)
        assert np.linalg.norm(ev) == pytest.approx(np.linalg.norm(psi), abs=1e-12)


def test_position_walk_record():
    s = QuenchSpec(FLAT, (0.3, 0.4), mix_p=0.7)
    pe = evolve_position(s, 4)
    assert len(pe.states) == 5
    for t, st in enumerate(pe.states):
        assert st.shape == (2, 2, 4 * t + 1)
        assert list(pe.sites(t)) == list(range(-2 * t, 2 * t + 1))
    # a batched replay puts its sample axes in front of each step's field
    plates = np.broadcast_to(np.array(_step_params(s.final_angles, 0.0)[:4]), (3, 5, 4, 4))
    batched = evolve_position(s, 4, plates)
    for t, st in enumerate(batched.states):
        assert st.shape == (3, 5, 2, 2, 4 * t + 1)
        assert np.array_equal(st[2, 4], pe.states[t])


def test_position_walk_probability_conservation():
    pe = evolve_position(spec_pure(), 6)
    # unitary: each ket history keeps norm 1
    for st in pe.states:
        for j in range(len(st)):
            assert (np.abs(st[j]) ** 2).sum() == pytest.approx(1.0, abs=1e-12)


def test_position_walk_rescaled_loss_near_unity():
    # the gamma rescale balances the partial measurement, so in the
    # real-spectrum regime the norm oscillates about 1 instead of decaying
    s = QuenchSpec(FLAT, (-np.pi / 3, np.pi / 5), loss=0.36)
    pe = evolve_position(s, 5)
    probs = np.array([(np.abs(st[0]) ** 2).sum() for st in pe.states])
    assert probs[0] == pytest.approx(1.0)
    assert np.abs(probs[1:] - 1).max() > 1e-6
    assert np.all((probs > 0.8) & (probs < 1.3))


@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.sampled_from(["pure", "mixed", "nonunitary"]), st.floats(0.01, 0.89),
       st.sampled_from([16, 32, 64]))
@settings(max_examples=100, deadline=None)
@example(-np.pi / 2, 3 * np.pi / 8, "pure", 0.5, 64)
def test_position_fourier_equals_momentum_product(t1, t2, regime, x, n_k):
    """The momentum transform of the position-space walk equals the two-mode
    G at integer t for pure, mixed and lossy PT-unbroken quenches."""
    extra = {"pure": {}, "mixed": {"mix_p": x}, "nonunitary": {"loss": x}}[regime]
    s = QuenchSpec(FLAT, (t1, t2), **extra)
    assert s.regime == regime
    if regime == "nonunitary" and pt_classify(s.final_angles, s.loss)[1] > 1 - 1e-3:
        return  # broken or near the exceptional line: no real two-mode spectrum
    grid = MomentumGrid(n_k)
    d0 = bloch_coefficients(s.final_angles, s.loss, grid.samples)[0]
    gapped = np.abs(np.abs(d0) - 1) >= GAP_TOL  # the sectors with an open gap
    table = overlaps(s, grid.samples[gapped])
    pe = evolve_position(s, 7)
    for t in range(8):
        g_cf = table.loschmidt(np.array([float(t)]))[:, 0]
        assert np.abs(g_cf - pe.loschmidt(grid, t)[gapped]).max() < 1e-10


def test_field_csv_roundtrip(tmp_path, kgrid):
    from dqptwalk.lattice import TimeGrid
    field = loschmidt_field(spec_pure(), kgrid, TimeGrid(2.0, 0.5))
    out = tmp_path / "g.csv"
    field.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t,re_G,im_G,abs_G"
    assert len(lines) == 1 + kgrid.n_points * 5
    k, t, re, im, ab = lines[1].split(",")
    assert abs(float(re) + 1j * float(im)) == pytest.approx(float(ab), abs=1e-9)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_random_unitary_quench_amplitude_bound(t1, t2):
    try:
        s = QuenchSpec(FLAT, (t1, t2))
        g = overlaps(s, MomentumGrid(32).samples).loschmidt(np.array([1.0, 2.5, 6.0]))
    except (ConfigError, DegenerateSpectrumError):
        return
    assert np.abs(g).max() <= 1 + 1e-9


@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.sampled_from(["pure", "mixed", "nonunitary"]), st.floats(0.01, 0.89),
       st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_coefficient_path_equals_matrix_powers(t1, t2, regime, x, ks):
    """The two-mode coefficients of overlaps reproduce <psi|U^t|psi> at
    integer t for pure, mixed and lossy PT-unbroken quenches."""
    extra = {"pure": {}, "mixed": {"mix_p": x}, "nonunitary": {"loss": x}}[regime]
    s = QuenchSpec(FLAT, (t1, t2), **extra)
    assert s.regime == regime
    if regime == "nonunitary" and pt_classify(s.final_angles, s.loss)[1] > 1 - 1e-3:
        return  # broken or near the exceptional line: no real two-mode spectrum
    d0 = bloch_coefficients(s.final_angles, s.loss, np.array(ks))[0]
    if np.any(np.abs(np.abs(d0) - 1) < GAP_TOL):
        return  # closed gap: no two-mode decomposition
    steps = np.arange(8)
    g = overlaps(s, np.array(ks)).loschmidt(steps)
    for j, k in enumerate(ks):
        assert _one_sector(s, k, steps) == pytest.approx(g[j], abs=1e-12)
        direct = [_reference_loschmidt(s, k, int(t)) for t in steps]
        assert g[j] == pytest.approx(direct, abs=1e-9)
