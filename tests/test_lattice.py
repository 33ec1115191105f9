import sys
import threading
import time

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
    _run_blocks,
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


def _spied_run(blocks, monkeypatch, log):
    """_run_blocks over blocks, each called as block(scratch) -> value. log
    gets the threads the run started, the (block, thread, scratch) of every
    call and the thread that made each scratch."""
    start = threading.Thread.start

    def start_spy(thread):
        log["started"].append(thread)
        return start(thread)

    def scratch():
        log["made"].append(threading.get_ident())
        return object()

    def call(b):
        def run(buffers):
            log["calls"].append((b, threading.get_ident(), buffers))
            return blocks[b](buffers)
        return run

    log.update(started=[], calls=[], made=[])
    monkeypatch.setattr(threading.Thread, "start", start_spy)
    try:
        return _run_blocks([call(b) for b in range(len(blocks))], scratch)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2, 7])
def test_run_blocks_contract(n, monkeypatch):
    """Every block runs exactly once, on the caller or the one helper that a
    run of more than one block starts, with the scratch that its thread's
    scratch() made on the calling thread; the results come back in block
    order although the later blocks finish first, and the helper is joined."""
    def block(b):
        def run(buffers):
            time.sleep(0.005 * (n - b))
            return b
        return run

    log = {}
    assert _spied_run([block(b) for b in range(n)], monkeypatch, log) == list(range(n))
    started, calls = log["started"], log["calls"]
    assert len(started) == (n > 1) and not any(t.is_alive() for t in started)
    assert sorted(b for b, _, _ in calls) == list(range(n))
    me = threading.get_ident()
    assert log["made"] == [me] * (1 + (n > 1))
    assert {t for _, t, _ in calls} <= {me} | {t.ident for t in started}
    scratch = {}
    for _, thread, buffers in calls:
        assert scratch.setdefault(thread, buffers) is buffers
    assert len({id(b) for b in scratch.values()}) == len(scratch)


@pytest.mark.parametrize("failing", [[0], [3], [3, 5], [2, 3, 4, 5]])
def test_run_blocks_raises_the_earliest_failure(failing, monkeypatch):
    """Whichever thread meets which failure first, the run raises the
    earliest failing block's error, after every block before it has run,
    and joins the helper. The first failure is slow, so the other thread
    meets a later one first."""
    def block(b):
        def run(buffers):
            time.sleep(0.02 if b == failing[0] else 0.001)
            if b in failing:
                raise ValueError(b)
            return b
        return run

    log = {}
    with pytest.raises(ValueError) as info:
        _spied_run([block(b) for b in range(8)], monkeypatch, log)
    assert info.value.args == (failing[0],)
    assert set(range(failing[0] + 1)) <= {b for b, _, _ in log["calls"]}
    assert len(log["started"]) == 1 and not log["started"][0].is_alive()


def test_run_blocks_stress():
    """A run of many tiny blocks under a short switch interval: every block
    is claimed once, so each count is 1 and each result sits at its index."""
    counts = np.zeros(5000, dtype=int)

    def block(b):
        def run(buffers):
            counts[b] += 1
            return b
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _run_blocks([block(b) for b in range(counts.size)], tuple)
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(counts.size))
    assert (counts == 1).all()
