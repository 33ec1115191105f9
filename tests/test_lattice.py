import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import loss_matrix, shift_matrix

from dqptwalk.errors import ConfigError
from dqptwalk.lattice import (
    MAX_MOMENTA,
    CoinAngles,
    MomentumGrid,
    TimeGrid,
    coin_matrix,
    normalize_angle,
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
    assert len(MomentumGrid(MAX_MOMENTA).samples) == MAX_MOMENTA
    with pytest.raises(ConfigError, match="n_points"):
        MomentumGrid(MAX_MOMENTA + 2)


def test_time_grid():
    tg = TimeGrid(7.0, 0.5)
    assert tg.samples[0] == 0.0
    assert tg.samples[-1] == pytest.approx(7.0)
    assert np.allclose(np.diff(tg.samples), 0.5)
    # nothing past t_max: the last sample is the largest n * dt <= t_max
    for t_max, dt, n in ((7.0, 0.4, 17), (2.0, 0.3, 6), (3.0, 0.1, 30), (7.0, 0.07, 100)):
        samples = TimeGrid(t_max, dt).samples
        assert len(samples) == n + 1
        assert samples[-1] == pytest.approx(n * dt) and samples[-1] <= t_max + 1e-12
    assert TimeGrid().samples.tobytes() == (np.arange(701) * 0.01).tobytes()
    with pytest.raises(ConfigError):
        TimeGrid(0.5, 0.1)
    for t_max, dt in ((np.nan, 0.1), (np.inf, 0.1), (7.0, np.nan), (7.0, np.inf),
                      (1e300, 0.01), (1e7, 1e-3), (1e300, 1e-10)):
        with pytest.raises(ConfigError):
            TimeGrid(t_max, dt)
