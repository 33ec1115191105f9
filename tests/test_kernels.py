import cmath
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import loschmidt

from dqptwalk import analysis
from dqptwalk.floquet import phase_increments
from dqptwalk.lattice import MomentumGrid, TimeGrid
from dqptwalk.presets import preset
from dqptwalk.quench import QuenchSpec, overlaps, two_mode_table, walk_step

# numpy elides temporaries of 256 KiB and up: it reuses one in place and, for
# a commutative product, swaps the operands, which moves the last bits of a
# complex multiply. The references below are the kernels as plain
# expressions, whose bits therefore depend on the table size; the kernels
# keep the operand order of the elided (large-table) path at every size.
ELISION_BYTES = 256 * 1024
TIMES = TimeGrid(7.0, 0.01).samples     # the default 701-sample grid


def _reference_two_mode_table(a, b, energy, times):
    a = np.asarray(a, dtype=complex)[:, None]
    b = np.asarray(b, dtype=complex)[:, None]
    phase = 1j * np.asarray(energy, dtype=complex)[:, None] * np.asarray(times, dtype=float)[None, :]
    return a * np.exp(phase) + b * np.exp(-phase)


def _reference_unwound(table, times):
    times = np.asarray(times, dtype=float)
    phi = analysis.dynamic_phase(table, times)
    g = _reference_two_mode_table(table.A, table.B, table.energy.real + 0j, times)
    return g * np.exp(-1j * phi)


def _reference_phase_increments(z):
    z = np.asarray(z, dtype=complex)
    return np.angle(z[1:] * np.conj(z[:-1]))


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@lru_cache(maxsize=None)
def _table(pid):
    """The first fixed-point sector of a preset at the order parameter's 257
    momenta; for fig4b, whose spectrum is complex, its 128-momentum field."""
    spec = preset(pid)[0][1]
    if pid == "fig4b":
        return overlaps(spec, MomentumGrid(128).samples)
    fps = analysis.find_fixed_points(spec, MomentumGrid(128))
    lo, hi = analysis._sector_bounds(fps, 1)
    return overlaps(spec, np.linspace(lo, hi, analysis.DTOP_RESOLUTION + 1))


def _kernels(table):
    """Each kernel's table at given times: two_mode_table with complex-dtype
    E, and for a real spectrum also with real-dtype E and the unwound table."""
    out = [lambda t: two_mode_table(table.A, table.B, table.energy, t)]
    if table.energy_is_real:
        out += [lambda t: two_mode_table(table.A, table.B, table.energy.real, t),
                lambda t: analysis._unwound(table, t)]
    return out


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
    w = np.conjugate(z[:-1])
    assert _same_bits(inc, np.angle(np.multiply(w, z[1:])))
    # above the elision size the plain expression has the same bits
    big = np.resize(z, 2 * ELISION_BYTES // 16 + 1) * np.exp(0.1j * np.arange(2 * ELISION_BYTES // 16 + 1))
    assert _same_bits(phase_increments(big), _reference_phase_increments(big))
    assert np.all((inc > -np.pi) & (inc <= np.pi))
    # a half turn is reported as +pi, never -pi
    assert phase_increments(np.array([1.0, -1.0 + 0.0j]))[0] == np.pi
    # a table differences along its first axis, column by column
    table = z.reshape(16, 4)
    w = np.conjugate(table[:-1, :])
    assert _same_bits(phase_increments(table), np.angle(np.multiply(w, table[1:, :])))


def test_two_mode_table_matches(rng):
    times = np.linspace(0, 7, 15)
    for spec in (QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 2, 3 * np.pi / 8)),
                 QuenchSpec((np.pi / 4, -np.pi / 2), (-np.pi / 3, np.pi / 5), loss=0.36)):
        table = overlaps(spec, MomentumGrid(32).samples)
        g = two_mode_table(table.A, table.B, table.energy, times)
        assert g.shape == (32, 15)
        for j, k in enumerate(table.k):
            # a one-momentum table, and the formula term by term
            assert g[j] == pytest.approx(loschmidt(overlaps(spec, [k]), times)[0], abs=1e-12)
            a, b, e = complex(table.A[j]), complex(table.B[j]), complex(table.energy[j])
            scalar = [a * cmath.exp(1j * e * t) + b * cmath.exp(-1j * e * t) for t in times]
            assert g[j] == pytest.approx(scalar, abs=1e-12)


def test_kernels_keep_the_large_table_bits():
    # the fig2a sector table (257 x 701, real E) and the fig4a and fig4b
    # fields (128 x 701, complex-dtype E; complex values for fig4b)
    sector = _table("fig2a")
    g = analysis._unwound(sector, TIMES)
    assert g.nbytes >= ELISION_BYTES
    assert _same_bits(g, _reference_unwound(sector, TIMES))
    assert _same_bits(phase_increments(g), _reference_phase_increments(g))
    for energy in (sector.energy, sector.energy.real):
        assert _same_bits(two_mode_table(sector.A, sector.B, energy, TIMES),
                          _reference_two_mode_table(sector.A, sector.B, energy, TIMES))
    for pid in ("fig4a", "fig4b"):
        field = overlaps(preset(pid)[0][1], MomentumGrid(128).samples)
        g = two_mode_table(field.A, field.B, field.energy, TIMES)
        assert g.nbytes >= ELISION_BYTES
        assert _same_bits(g, _reference_two_mode_table(field.A, field.B, field.energy, TIMES))
    assert not _table("fig4b").energy_is_real


@given(pid=st.sampled_from(["fig2a", "fig2b", "fig3", "fig4a", "mixed-p07", "fig4b"]),
       t_max=st.floats(1.0, 14.0), probes=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_table_columns_equal_one_time_tables(pid, t_max, probes):
    """Column j of a kernel's table has the bits of the one-time table at
    times[j], whatever the size of either, for real and complex E."""
    times = TimeGrid(t_max, 0.01).samples
    for kernel in _kernels(_table(pid)):
        g = kernel(times)
        inc = phase_increments(g)
        for j in (p % times.size for p in probes):
            one = kernel(times[j:j + 1])
            assert _same_bits(one[:, 0], g[:, j])
            assert _same_bits(phase_increments(one[:, 0]), inc[:, j])
