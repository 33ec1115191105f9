import numpy as np
import pytest
from hypothesis import given, strategies as st

from dqptwalk.errors import ConfigError
from dqptwalk.lattice import (
    CoinAngles,
    MomentumGrid,
    PositionState,
    TimeGrid,
    coin_density_matrix,
    coin_matrix,
    loss_matrix,
    normalize_angle,
    shift_matrix,
    validate_density_matrix,
)

angles = st.floats(-20.0, 20.0, allow_nan=False)


@given(angles)
def test_coin_matrix_is_rotation(th):
    c = coin_matrix(th)
    assert np.allclose(c @ c.T, np.eye(2), atol=1e-12)
    assert abs(np.linalg.det(c) - 1) < 1e-12


def test_coin_matrix_convention():
    c = coin_matrix(0.3)
    assert c[0, 0] == pytest.approx(np.cos(0.3))
    assert c[0, 1] == pytest.approx(-np.sin(0.3))
    assert c[1, 0] == pytest.approx(np.sin(0.3))
    assert np.allclose(coin_matrix(0.0), np.eye(2))


def test_shift_matrix_unitary_diag():
    s = shift_matrix(0.7)
    assert s[0, 0] == pytest.approx(np.exp(1j * 0.7))
    assert s[1, 1] == pytest.approx(np.exp(-1j * 0.7))
    assert abs(s[0, 1]) == 0 and abs(s[1, 0]) == 0


def test_loss_matrix_limits():
    assert np.allclose(loss_matrix(0.0), np.eye(2))
    m = loss_matrix(0.5)
    r = np.sqrt(0.5)
    assert m[0, 0] == pytest.approx((1 + r) / 2)
    assert m[0, 1] == pytest.approx((1 - r) / 2)
    assert np.allclose(m, m.T)


@given(angles)
def test_normalize_angle_range(a):
    w = normalize_angle(a)
    assert -np.pi < w <= np.pi
    assert abs(normalize_angle(w) - w) < 1e-12
    # same point on the circle
    assert abs((a - w) % (2 * np.pi)) % (2 * np.pi) < 1e-9 or \
        abs((a - w) % (2 * np.pi) - 2 * np.pi) < 1e-9


def test_normalize_angle_seam():
    assert normalize_angle(np.pi) == pytest.approx(np.pi)
    assert normalize_angle(-np.pi) == pytest.approx(np.pi)
    assert normalize_angle(3 * np.pi) == pytest.approx(np.pi)


def test_coin_angles_normalize():
    a = CoinAngles(2.5 * np.pi, -3 * np.pi)
    assert a.theta1 == pytest.approx(0.5 * np.pi)
    assert a.theta2 == pytest.approx(np.pi)


def test_momentum_grid_contract():
    g = MomentumGrid(16)
    assert len(g.samples) == 16
    assert g.samples[-1] == pytest.approx(np.pi)
    assert g.samples[0] > -np.pi
    assert g.spacing == pytest.approx(2 * np.pi / 16)
    with pytest.raises(ConfigError):
        MomentumGrid(15)
    with pytest.raises(ConfigError):
        MomentumGrid(8)


def test_time_grid():
    tg = TimeGrid(7.0, 0.5)
    assert tg.samples[0] == 0.0
    assert tg.samples[-1] == pytest.approx(7.0)
    assert np.allclose(np.diff(tg.samples), 0.5)
    with pytest.raises(ConfigError):
        TimeGrid(0.5, 0.1)
    for t_max, dt in ((np.nan, 0.1), (np.inf, 0.1), (7.0, np.nan), (7.0, np.inf),
                      (1e300, 0.01), (1e7, 1e-3), (1e300, 1e-10)):
        with pytest.raises(ConfigError):
            TimeGrid(t_max, dt)


@given(st.floats(0.0, 1.0))
def test_coin_density_matrix_valid(p):
    lo = np.array([1.0, 0.0], dtype=complex)
    up = np.array([0.0, 1.0], dtype=complex)
    rho = coin_density_matrix(p, lo, up)
    validate_density_matrix(rho)
    assert np.trace(rho).real == pytest.approx(1.0)


def test_validate_density_matrix_rejects():
    with pytest.raises(ConfigError):
        validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not hermitian
    with pytest.raises(ConfigError):
        validate_density_matrix(np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace
    with pytest.raises(ConfigError):
        validate_density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative


def test_position_state_window():
    amps = np.zeros((2, 5), dtype=complex)
    amps[0, 2] = 1.0
    ps = PositionState(-4, amps)
    assert list(ps.sites) == [-4, -3, -2, -1, 0]
    assert ps.total_probability() == pytest.approx(1.0)
    assert ps.site_spinor(-2)[0] == pytest.approx(1.0)
    assert np.all(ps.site_spinor(99) == 0)
