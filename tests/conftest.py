import numpy as np
import pytest

from dqptwalk.floquet import step_gamma
from dqptwalk.lattice import MomentumGrid, TimeGrid, _as_coin_angles, coin_matrix

# one-line verdicts from the acceptance suite, echoed after the run
ACCEPTANCE_LINES = []


def record(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def circular_match(found, expected, tol):
    """Match two momentum sets on the circle, else return the offending pair."""
    found = sorted(float(x) for x in found)
    expected = sorted(float(x) for x in expected)
    if len(found) != len(expected):
        return f"count {len(found)} != {len(expected)}"
    used = [False] * len(expected)
    for f in found:
        hit = None
        for j, e in enumerate(expected):
            if used[j]:
                continue
            d = abs((f - e + np.pi) % (2 * np.pi) - np.pi)
            if d < tol:
                hit = j
                break
        if hit is None:
            return f"{f / np.pi:.5f}pi unmatched"
        used[hit] = True
    return None


# The optical elements of one walk step, multiplied out: the oracle of the
# Bloch form that the package computes.

def shift_matrix(k):
    """Momentum-sector shift diag(e^{ik}, e^{-ik}); H moves left, V right."""
    e = np.exp(1j * np.asarray(k))
    return np.array([[e, 0 * e], [0 * e, e.conj()]])


def loss_matrix(l):
    """Polarization-selective partial measurement, |+><+| + sqrt(1-l)|-><-|."""
    r = np.sqrt(1 - l)
    return np.array([[(1 + r) / 2, (1 - r) / 2], [(1 - r) / 2, (1 + r) / 2]], dtype=complex)


def floquet_matrix(angles, l, k):
    """One-step operator as the explicit optical-element product.

    Lossless: C(t1/2) S C(t2) S C(t1/2). Lossy: the middle coin splits around
    the partial measurement and the product carries the gamma rescale.
    """
    angles = _as_coin_angles(angles)
    s = shift_matrix(k)
    outer = coin_matrix(angles.theta1 / 2)
    if l == 0:
        return outer @ s @ coin_matrix(angles.theta2) @ s @ outer
    half = coin_matrix(angles.theta2 / 2)
    return step_gamma(l) * (outer @ s @ half @ loss_matrix(l) @ half @ s @ outer)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def kgrid():
    return MomentumGrid(64)


@pytest.fixture
def tgrid():
    return TimeGrid(7.0, 0.1)
