"""Numpy kernels of the hot loops: the position-space walk step, wrapped
phase increments, and the two-mode amplitude table.

The walk step works on any number of leading axes, so one call advances a
whole batch of walks (samples, prepared kets) with per-walk plate angles.
"""
import numpy as np

BACKEND = "python"


def _coin(psi, theta):
    c = np.asarray(np.cos(theta))[..., None]
    s = np.asarray(np.sin(theta))[..., None]
    return np.stack((c * psi[..., 0, :] - s * psi[..., 1, :],
                     s * psi[..., 0, :] + c * psi[..., 1, :]), axis=-2)


def walk_step(psi, a_entry, a_mid1, a_mid2, a_exit, keep_amp, gamma):
    """One split-step walk step on dense two-row position arrays.

    psi has shape (..., 2, n): row 0 H amplitudes, row 1 V amplitudes,
    columns are consecutive sites. The four plate angles are scalars or
    arrays that broadcast against psi.shape[:-2], one angle per walk. Each of
    the two shifts grows the array by one site on each side (H moves left,
    V moves right), so the result has shape (..., 2, n + 4) and its leftmost
    column sits two sites left of the input's. keep_amp is sqrt(1 - loss);
    gamma rescales the step.
    """
    psi = np.asarray(psi, dtype=complex)
    lead, n = psi.shape[:-2], psi.shape[-1]

    psi = _coin(psi, a_entry)
    out = np.zeros(lead + (2, n + 2), dtype=complex)
    out[..., 0, 0:n] = psi[..., 0, :]
    out[..., 1, 2 : n + 2] = psi[..., 1, :]

    psi = _coin(out, a_mid1)
    m0 = 0.5 * (1.0 + keep_amp)
    m1 = 0.5 * (1.0 - keep_amp)
    psi = np.stack((m0 * psi[..., 0, :] + m1 * psi[..., 1, :],
                    m1 * psi[..., 0, :] + m0 * psi[..., 1, :]), axis=-2)
    psi = _coin(psi, a_mid2)

    out = np.zeros(lead + (2, n + 4), dtype=complex)
    out[..., 0, 0 : n + 2] = psi[..., 0, :]
    out[..., 1, 2 : n + 4] = psi[..., 1, :]

    psi = _coin(out, a_exit)
    return gamma * psi


def phase_increments(z):
    """Wrapped phase increments arg(z[i+1] * conj(z[i])), each in (-pi, pi]."""
    z = np.asarray(z, dtype=complex)
    return np.angle(z[1:] * np.conj(z[:-1]))


def two_mode_table(a, b, energy, times):
    """G[j, i] = a[j] e^{i E[j] t[i]} + b[j] e^{-i E[j] t[i]} (complex E allowed)."""
    a = np.asarray(a, dtype=complex)[:, None]
    b = np.asarray(b, dtype=complex)[:, None]
    phase = 1j * np.asarray(energy, dtype=complex)[:, None] * np.asarray(times, dtype=float)[None, :]
    return a * np.exp(phase) + b * np.exp(-phase)
