import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqptwalk import floquet
from dqptwalk.errors import (
    ConfigError,
    DegenerateSpectrumError,
    PTBrokenError,
    TopologicalBoundaryError,
)
from dqptwalk.floquet import (
    alpha_beta,
    bloch_coefficients,
    bloch_nonunitary,
    bloch_unitary,
    diagonalize,
    eigensystem_arrays,
    floquet_matrix,
    phase_diagram_scan,
    pt_classify,
    step_gamma,
    winding_global_berry,
    winding_unitary,
)
from dqptwalk.lattice import CoinAngles, MomentumGrid

angle = st.floats(-np.pi, np.pi, allow_nan=False)
momentum = st.floats(-np.pi, np.pi, allow_nan=False)
loss = st.floats(0.0, 0.8, allow_nan=False)


def test_alpha_beta_endpoints():
    al, be = alpha_beta(0.0)
    assert al == pytest.approx(1.0) and be == pytest.approx(0.0)
    al, be = alpha_beta(0.36)
    # alpha^2 - beta^2 = 1 is the non-unitary normalization
    assert al * al - be * be == pytest.approx(1.0, abs=1e-12)
    assert step_gamma(0.0) == pytest.approx(1.0)
    assert step_gamma(0.36) == pytest.approx((1 - 0.36) ** -0.25)


@given(angle, angle, loss, momentum)
@settings(max_examples=300, deadline=None)
def test_bloch_matches_factor_product(t1, t2, l, k):
    a = CoinAngles(t1, t2)
    b = bloch_nonunitary(a, l, k)
    assert b.norm_residual < 1e-12
    assert np.abs(b.as_matrix() - floquet_matrix(a, l, k)).max() < 1e-12


@given(angle, angle, momentum)
@settings(max_examples=200, deadline=None)
def test_unit_determinant(t1, t2, k):
    m = floquet_matrix(CoinAngles(t1, t2), 0.47, k)
    assert abs(np.linalg.det(m) - 1) < 1e-12
    mu = floquet_matrix(CoinAngles(t1, t2), 0.0, k)
    assert np.abs(mu @ mu.conj().T - np.eye(2)).max() < 1e-12


def test_lossless_reduction():
    a = CoinAngles(-np.pi / 3, np.pi / 5)
    for k in np.linspace(-np.pi, np.pi, 17):
        b0 = bloch_nonunitary(a, 0.0, k)
        bu = bloch_unitary(a, k)
        assert np.abs(b0.as_matrix() - bu.as_matrix()).max() < 1e-14
        assert b0.d1 == 0


def test_eigenvalue_branch_convention():
    b = bloch_unitary(CoinAngles(-np.pi / 2, 3 * np.pi / 8), 0.3)
    es = diagonalize(b)
    # quasienergy on the principal arc, lower band at exp(+iE)
    assert 0 < es.quasienergy.real < np.pi
    assert es.lambda_plus == pytest.approx(np.exp(-1j * es.quasienergy))
    assert es.lambda_minus == pytest.approx(np.exp(1j * es.quasienergy))
    assert es.lambda_plus * es.lambda_minus == pytest.approx(1.0)
    assert es.quasienergy.real == pytest.approx(np.arccos(b.d0.real))


@given(angle, angle, loss, momentum)
@settings(max_examples=300, deadline=None)
def test_biorthogonal_frame(t1, t2, l, k):
    b = bloch_nonunitary(CoinAngles(t1, t2), l, k)
    try:
        es = diagonalize(b)
    except DegenerateSpectrumError:
        return
    assert abs(es.left_plus @ es.right_plus - 1) < 1e-9
    assert abs(es.left_minus @ es.right_minus - 1) < 1e-9
    assert abs(es.left_plus @ es.right_minus) < 1e-9
    assert abs(es.left_minus @ es.right_plus) < 1e-9
    assert np.abs(es.reconstruction() - b.as_matrix()).max() < 1e-9


def test_both_diagonalization_branches_used():
    rng = np.random.default_rng(5)
    methods = set()
    for _ in range(400):
        b = bloch_nonunitary(
            CoinAngles(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)),
            rng.uniform(0, 0.9), rng.uniform(-np.pi, np.pi))
        try:
            methods.add(diagonalize(b).method)
        except DegenerateSpectrumError:
            pass
    assert "closed_form" in methods and "generic" in methods


def test_degenerate_gap_raises():
    b = bloch_unitary(CoinAngles(0.0, 0.0), 0.0)  # d0 = 1 at k = 0
    with pytest.raises(DegenerateSpectrumError):
        diagonalize(b)


def test_eigensystem_arrays_matches_pointwise():
    a = CoinAngles(-np.pi / 3, np.pi / 5)
    grid = MomentumGrid(32)
    arr = eigensystem_arrays(a, 0.36, grid.samples)
    assert np.abs(arr["energy"].imag).max() < 1e-9
    for j in (0, 7, 19, 31):
        es = diagonalize(bloch_nonunitary(a, 0.36, grid.samples[j]))
        assert arr["lambda_plus"][j] == pytest.approx(es.lambda_plus)
        # columns may differ by the phase fix only when the generic path ran
        assert abs(abs(arr["psi_m"][j] @ np.conj(es.right_minus)) - np.linalg.norm(arr["psi_m"][j]) * np.linalg.norm(es.right_minus)) < 1e-9


def test_winding_values():
    assert winding_unitary(CoinAngles(np.pi / 4, -np.pi / 2)) == 0
    assert winding_unitary(CoinAngles(-np.pi / 2, 3 * np.pi / 8)) == -2
    assert winding_unitary(CoinAngles(-np.pi / 16, -3 * np.pi / 16)) == 0


def test_winding_grid_refinement_stable():
    g = MomentumGrid(256)
    a = CoinAngles(-np.pi / 2, 3 * np.pi / 8)
    assert winding_unitary(a, g) == winding_unitary(a, g.refined())


def test_winding_gapless_raises():
    with pytest.raises(TopologicalBoundaryError):
        winding_unitary(CoinAngles(0.0, 0.0))


def test_berry_route_agrees_with_unitary_route():
    for t1, t2 in ((-np.pi / 2, 3 * np.pi / 8), (np.pi / 4, -np.pi / 2), (0.9, 2.1)):
        a = CoinAngles(t1, t2)
        try:
            nu = winding_unitary(a)
        except TopologicalBoundaryError:
            continue
        assert winding_global_berry(a, 0.0) == nu


def test_pt_classification():
    status, peak = pt_classify(CoinAngles(-np.pi / 3, np.pi / 5), 0.36)
    assert status == "unbroken" and peak < 1
    # theta2 tuned past the edge at this loss closes the real-spectrum window
    from dqptwalk.presets import preset
    spec = preset("fig4b")[0][1]
    status, peak = pt_classify(spec.final_angles, spec.loss)
    assert status == "broken" and peak > 1
    with pytest.raises(PTBrokenError):
        winding_global_berry(spec.final_angles, spec.loss)


def test_nonunitary_winding_value():
    assert winding_global_berry(CoinAngles(-np.pi / 3, np.pi / 5), 0.36) == -2


def test_phase_diagram_scan_cells(tmp_path):
    pd = phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), resolution=32, n_k=64)
    assert len(pd.cells) == 32 * 32
    by_angle = {(round(c.angles.theta1, 9), round(c.angles.theta2, 9)): c
                for c in pd.cells}
    c1 = by_angle[(round(np.pi / 4, 9), round(-np.pi / 2, 9))]
    assert c1.winding == 0
    c2 = by_angle[(round(-np.pi / 2, 9), round(3 * np.pi / 8, 9))]
    assert c2.winding == -2
    out = tmp_path / "pd.csv"
    pd.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "theta1,theta2,loss,winding,pt_status,min_gap"
    assert len(out.read_text().splitlines()) == 1 + 1024


def test_phase_diagram_resolution_floor():
    with pytest.raises(ConfigError):
        phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), resolution=16)


def test_tuple_angles_accepted():
    assert winding_unitary((np.pi / 4, -np.pi / 2)) == 0
    assert pt_classify((-np.pi / 3, np.pi / 5), 0.36)[0] == "unbroken"
    m = floquet_matrix((0.3, 0.4), 0.0, 0.1)
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12


@given(angle, angle, st.floats(0.0, 0.9, exclude_max=True),
       st.lists(momentum, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_diagonalize_equals_eigensystem_rows(t1, t2, l, ks):
    a = CoinAngles(t1, t2)
    try:
        arr = eigensystem_arrays(a, l, np.array(ks))
        systems = [diagonalize(bloch_nonunitary(a, l, k)) for k in ks]
    except DegenerateSpectrumError:
        return
    names = ("psi_p", "psi_m", "chi_p", "chi_m")
    for i, es in enumerate(systems):
        got = (es.right_plus, es.right_minus, es.left_plus, es.left_minus)
        if arr["closed_form"][i]:
            # one closed form: the same bits
            assert es.method == "closed_form"
            for name, v in zip(names, got):
                assert np.array_equal(v, arr[name][i]), name
        else:
            assert es.method == "generic"
            for name, v in zip(names, got):
                assert np.abs(v - arr[name][i]).max() <= 1e-12, name
