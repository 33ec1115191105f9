import cmath

import numpy as np
import pytest

from dqptwalk.floquet import phase_increments
from dqptwalk.lattice import MomentumGrid
from dqptwalk.quench import QuenchSpec, overlaps, two_mode_table, walk_step


def _random_state(rng, n, lead=()):
    shape = lead + (2, n)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return psi / np.linalg.norm(psi, axis=(-2, -1), keepdims=True)


def test_walk_step_batched_matches_serial(rng):
    # one call over S samples and two kets with per-sample plate angles
    # gives the bits of S x 2 single-walk calls
    psi = _random_state(rng, 9, (5, 2))
    angles = rng.uniform(-np.pi, np.pi, (4, 5))
    keep, gamma = np.sqrt(1 - 0.36), 1.08
    batch = walk_step(psi, *(a[:, None] for a in angles), keep, gamma)
    assert batch.shape == (5, 2, 2, 13)
    for i in range(5):
        for j in range(2):
            one = walk_step(psi[i, j], *angles[:, i], keep, gamma)
            assert np.array_equal(batch[i, j], one)


def test_walk_step_grows_window(rng):
    psi = _random_state(rng, 1)
    out = walk_step(psi, 0.1, 0.2, 0.0, 0.3, 1.0, 1.0)
    assert out.shape == (2, 5)
    # lossless step preserves norm
    assert np.abs(out).sum() > 0
    assert (np.abs(out) ** 2).sum() == pytest.approx(1.0, abs=1e-12)


def test_phase_increments_match(rng):
    z = rng.uniform(0.5, 2, 64) * np.exp(1j * np.cumsum(rng.uniform(-3.1, 3.1, 64)))
    inc = phase_increments(z)
    assert np.array_equal(inc, np.angle(z[1:] * np.conj(z[:-1])))
    assert np.all((inc > -np.pi) & (inc <= np.pi))
    # a half turn is reported as +pi, never -pi
    assert phase_increments(np.array([1.0, -1.0 + 0.0j]))[0] == np.pi
    # a table differences along its first axis, column by column
    table = z.reshape(16, 4)
    assert np.array_equal(phase_increments(table),
                          np.angle(table[1:, :] * np.conj(table[:-1, :])))


def test_two_mode_table_matches(rng):
    times = np.linspace(0, 7, 15)
    for spec in (QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 2, 3 * np.pi / 8)),
                 QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 3, np.pi / 5),
                            loss=0.36, regime="nonunitary")):
        table = overlaps(spec, MomentumGrid(32))
        g = two_mode_table(table.A, table.B, table.energy, times)
        assert g.shape == (32, 15)
        for j, k in enumerate(table.k):
            # a one-momentum table, and the formula term by term
            assert g[j] == pytest.approx(overlaps(spec, [k]).loschmidt(times)[0], abs=1e-12)
            a, b, e = complex(table.A[j]), complex(table.B[j]), complex(table.energy[j])
            scalar = [a * cmath.exp(1j * e * t) + b * cmath.exp(-1j * e * t) for t in times]
            assert g[j] == pytest.approx(scalar, abs=1e-12)
