import numpy as np
import pytest

from dqptwalk.floquet import step_gamma
from dqptwalk.lattice import MomentumGrid, TimeGrid, _as_coin_angles, coin_matrix
from dqptwalk.quench import two_mode_table

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

def loschmidt(table, times):
    """(n_k, n_t) table of G_k(t) from a sector table, in one two_mode_table
    call."""
    return two_mode_table(table.A, table.B, table.energy, times)


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


def ellipse(theta1, theta2):
    """Where the origin lies against the (d2, d3) loop of the Bloch form,
    elementwise in the angles, in closed form.

    (cos2k c2 s1 + c1 s2, -sin2k c2), in units of alpha (loss only rescales
    it), runs twice across the zone around an ellipse centred at (c1 s2, 0),
    with semi-axes |c2 s1| along d2, the minor one, and |c2| along d3. The
    origin sits on the minor axis at distance |margin| from the loop, margin
    = |s1 c2| - |c1 s2|, and inside it where margin > 0. Returns the margin
    and the winding label: 2 sign(s1) inside, 0 outside, NaN on the loop.
    """
    c1, s1, c2, s2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
    margin = np.abs(s1 * c2) - np.abs(c1 * s2)
    return margin, np.where(margin > 0, 2 * np.sign(s1), np.where(margin < 0, 0.0, np.nan))


# The closed-form biorthogonal frame with one frame() call per vector, as
# floquet._closed_form first wrote it: the oracle of its stacked frames.

def closed_form_frames(be, d2, d3):
    """psi_p, psi_m, chi_p, chi_m over arrays of real Bloch components
    (d1 = i*be), each (n, 2); only the rows where the closed form holds
    (floquet._closed_form's mask) mean anything."""
    d = np.hypot(d2, d3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sin2o = np.where(d > 0, be / np.where(d > 0, d, 1.0), np.inf)
        ok = (d > 0) & (sin2o < 1.0)
        cos2o = np.sqrt(np.where(ok, 1 - sin2o**2, 1.0))
    omega = np.where(ok, np.arcsin(np.where(ok, sin2o, 0.0)) / 2, 0.0)
    norm = 1 / np.sqrt(2 * cos2o)
    ep, em = np.exp(1j * omega), np.exp(-1j * omega)
    eth = np.exp(1j * np.arctan2(d2, -d3))

    def frame(u0, u1):
        """(u0, u1) rotated back with V = exp(i pi/4 sigma_y)."""
        return np.stack(((u0 - u1) / np.sqrt(2.0), (u0 + u1) / np.sqrt(2.0)), axis=-1)

    return (frame(norm * ep, norm * eth * em), frame(-norm * em, norm * eth * ep),
            frame(norm * ep, norm * em / eth), frame(-norm * em, norm * ep / eth))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def kgrid():
    return MomentumGrid(64)


@pytest.fixture
def tgrid():
    return TimeGrid(7.0, 0.1)
