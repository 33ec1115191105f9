"""Quench protocols: sudden switch of the coin angles at t = 0.

The walker starts in an eigenstate of a flat-band preparation walk (momentum
independent by construction), then evolves under a different walk. Everything
downstream reduces to the two-mode amplitude per momentum sector,

    G_k(t) = A_k e^{i E_k t} + B_k e^{-i E_k t},

where E_k is the quasienergy of the post-quench walk and A, B collect the
band overlap data of the prepared state. Mixed preparations average the two
pure-state amplitudes; lossy walks use the biorthogonal left vectors, so A
and B are no longer real or positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidInitialProtocolError
from .floquet import _require_gap, bloch_coefficients, eigensystem_arrays, step_gamma
from .lattice import CoinAngles, MomentumGrid, TimeGrid, _as_coin_angles, _write_csv

FLAT_BAND_TOL = 1e-10
# most steps of a position-space walk, whose history holds about
# 64 n^2 bytes per walk after n steps: 640 kB at this cap
MAX_WALK_STEPS = 100


@dataclass(frozen=True)
class QuenchSpec:
    """Preparation walk, evolution walk, their shared loss, and the mixture
    weight of the preparation; the regime follows from loss and mix_p.

    A lossy spec (loss > 0) prepares the right eigenvector of the lossy
    preparation walk. Otherwise mix_p, if set, is the weight of the lower
    band in a classical mixture of both preparation eigenstates, and unset
    it means one eigenstate of the lossless preparation walk.
    """

    initial_angles: CoinAngles
    final_angles: CoinAngles
    loss: float = 0.0
    mix_p: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "initial_angles", _as_coin_angles(self.initial_angles))
        object.__setattr__(self, "final_angles", _as_coin_angles(self.final_angles))
        if not 0 <= self.loss < 1:
            raise ConfigError(f"loss must be in [0, 1), got {self.loss}")
        if self.mix_p is not None and (self.loss > 0 or not 0 <= self.mix_p <= 1):
            raise ConfigError(f"mix_p needs a lossless walk and lies in [0, 1], "
                              f"got mix_p {self.mix_p} at loss {self.loss}")
        _require_flat_band(self.initial_angles, self.loss)

    @property
    def regime(self) -> str:
        """The regime: "nonunitary" for a lossy walk, "mixed" for a mixture,
        else "pure"."""
        if self.loss > 0:
            return "nonunitary"
        return "pure" if self.mix_p is None else "mixed"

    @cached_property
    def prepared(self) -> InitialState:
        """The prepared coin state(s), built on first use and then kept.
        Equality and hashing see only the fields."""
        return initial_state(self)


def _require_flat_band(angles: CoinAngles, l: float) -> None:
    """The prepared eigenstate must not depend on momentum: the preparation
    walk's Bloch vector has to be constant across the zone."""
    ks = np.linspace(-np.pi, np.pi, 17)
    parts = bloch_coefficients(angles, l, ks)
    spread = max(float(np.ptp(p)) for p in parts)
    if spread > FLAT_BAND_TOL:
        raise InvalidInitialProtocolError(
            f"preparation walk disperses (Bloch spread {spread:.2e}); "
            f"eigenstates are momentum dependent at angles ({angles.theta1}, {angles.theta2})"
        )


@dataclass(frozen=True)
class InitialState:
    """The prepared coin state as a mixture: rho = sum_j weights[j]
    |kets[j]><kets[j]|."""

    kets: np.ndarray      # (m, 2) unit kets
    weights: np.ndarray   # (m,) summing to 1


def _phase_fixed(ket: np.ndarray) -> np.ndarray:
    ket = ket / np.linalg.norm(ket)
    piv = ket[np.argmax(np.abs(ket))]
    return ket * (abs(piv) / piv)


def initial_state(spec: QuenchSpec) -> InitialState:
    """Prepared coin state(s). The kets come from the lower branch of the
    preparation walk (and the upper one for mixtures), momentum independent
    because the band is flat, so one momentum solve gives them. A closed
    preparation gap is refused."""
    es = eigensystem_arrays(spec.initial_angles, spec.loss, np.zeros(1))
    _require_gap(es["d0"])
    psi_m = _phase_fixed(es["psi_m"][0])
    if spec.regime == "mixed":
        psi_p = _phase_fixed(es["psi_p"][0])
        return InitialState(np.array([psi_m, psi_p]),
                            np.array([spec.mix_p, 1 - spec.mix_p]))
    return InitialState(np.array([psi_m]), np.array([1.0]))


def two_mode_table(a, b, energy, times):
    """G[j, i] = a[j] e^{i E[j] t[i]} + b[j] e^{-i E[j] t[i]} (complex E allowed),
    spelled once on two (n_k, n_t) buffers: the same bits at every size."""
    a = np.asarray(a, dtype=complex)[:, None]
    b = np.asarray(b, dtype=complex)[:, None]
    g = np.multiply(1j * np.asarray(energy, dtype=complex)[:, None],
                    np.asarray(times, dtype=float)[None, :])
    w = None if np.isrealobj(energy) else np.negative(g)
    np.exp(g, out=g)
    # for a real-dtype E, e^{-iEt} is the bit-equal conjugate of e^{iEt}
    w = np.conjugate(g) if w is None else np.exp(w, out=w)
    # the (n_k, 1) coefficient is the first operand: numpy's elision of the
    # a * exp(...) temporary ran it in that order on tables of 256 KiB and up
    np.multiply(a, g, out=g)
    np.multiply(b, w, out=w)
    return np.add(g, w, out=g)


@dataclass(frozen=True)
class SectorTable:
    """Per-momentum quench data: quasienergies, two-mode coefficients, and
    the left-vector band overlaps ct_plus/ct_minus they are built from.

    weight_minus/weight_plus drive the fixed-point and critical-momentum
    searches: for unitary regimes they are the pure-state band populations
    |c-|^2, |c+|^2 (mixture independent), for lossy quenches the moduli
    |A|, |B| of the biorthogonal coefficients.
    """

    k: np.ndarray
    energy: np.ndarray
    A: np.ndarray
    B: np.ndarray
    ct_plus: np.ndarray
    ct_minus: np.ndarray
    weight_minus: np.ndarray
    weight_plus: np.ndarray

    @property
    def energy_is_real(self) -> bool:
        return bool(np.abs(self.energy.imag).max() < 1e-9)

    @property
    def dynamic_rate(self) -> np.ndarray:
        """Rate Re[A - B] Re[E] of the dynamical phase, linear in t."""
        return (self.A - self.B).real * self.energy.real

    def loschmidt(self, times) -> np.ndarray:
        """(n_k, n_t) table of G_k(t)."""
        return two_mode_table(self.A, self.B, self.energy, times)


def _rowwise_dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v with the bits of a one-row product in every row."""
    return np.vecdot(np.conj(m), v)


def overlaps(spec: QuenchSpec, ks, *, _rowwise: bool = False) -> SectorTable:
    """Band-overlap data of the prepared state with the post-quench walk at
    the momenta ks, a scalar or any array."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    es = eigensystem_arrays(spec.final_angles, spec.loss, ks)
    psi0 = spec.prepared.kets[0]
    # A many-row @ rounds differently from a one-row @, and the polished
    # roots carry the one-row bits, so root polishing asks for the row-wise
    # form at any batch size while grid tables keep @. ROADMAP item 1 picks
    # one dot form for both and deletes this switch.
    dot = _rowwise_dot if _rowwise else np.matmul

    ct_p = dot(es["chi_p"], psi0)
    ct_m = dot(es["chi_m"], psi0)
    b_p = dot(es["psi_p"], psi0.conj())
    b_m = dot(es["psi_m"], psi0.conj())

    if spec.regime == "nonunitary":
        A = b_m * ct_m
        B = b_p * ct_p
        wm, wp = np.abs(A), np.abs(B)
    else:
        a = np.abs(ct_m) ** 2
        b = np.abs(ct_p) ** 2
        if spec.regime == "pure":
            A, B = a.astype(complex), b.astype(complex)
        else:
            p = spec.mix_p
            A = (p * a + (1 - p) * b).astype(complex)
            B = (p * b + (1 - p) * a).astype(complex)
        wm, wp = a, b
    return SectorTable(ks, es["energy"], A, B, ct_p, ct_m, wm, wp)


@dataclass(frozen=True)
class LoschmidtField:
    """G_k(t) sampled on a momentum x time grid."""

    k: np.ndarray
    times: np.ndarray
    values: np.ndarray  # (n_k, n_t)

    def write_csv(self, path) -> None:
        # k and t texts are formatted once; |G| per element: a vectorized abs rounds differently
        times = [f"{t:.12g}" for t in self.times.tolist()]
        _write_csv(path, ["k", "t", "re_G", "im_G", "abs_G"], "%s,%s,%.12g,%.12g,%.12g", (
            zip([f"{k:.12g}"] * len(times), times, re.tolist(), im.tolist(), map(abs, g.tolist()),
                strict=True)
            for k, re, im, g in zip(self.k.tolist(), self.values.real, self.values.imag,
                                    self.values, strict=True)))


def loschmidt_field(spec: QuenchSpec, grid: MomentumGrid, tgrid: TimeGrid) -> LoschmidtField:
    table = overlaps(spec, grid.samples)
    times = tgrid.samples
    return LoschmidtField(table.k, times, table.loschmidt(times))


@dataclass(frozen=True)
class PositionEvolution:
    """Real-space walk history from a localized start at the origin.

    states[t] is the (..., m, 2, 4t + 1) spinor field after t steps,
    unnormalized for lossy walks: prepared ket j on axis -3, the H and V rows
    on axis -2 and site -2t + i in column i. A batched replay puts its sample
    axes in front.
    """

    spec: QuenchSpec
    states: tuple

    def pbar(self, t: int) -> np.ndarray:
        """Interference observable vs position after t steps.

        Per prepared ket this is sum_c conj(a_c) psi_c(x, t); the momentum
        transform of the weighted sum returns G_k(t) at integer times.
        """
        init = self.spec.prepared
        out = None
        for j, (w, ket) in enumerate(zip(init.weights, init.kets)):
            z = ket.conj() @ self.states[t][..., j, :, :]
            out = w * z if out is None else out + w * z
        return out

    def sites(self, t: int) -> np.ndarray:
        return np.arange(-2 * t, 2 * t + 1)

    def loschmidt(self, grid: MomentumGrid, t: int) -> np.ndarray:
        """G_k(t) from the position-space field (Fourier cross-check)."""
        z = self.pbar(t)
        x = self.sites(t)
        return np.exp(-1j * np.outer(grid.samples, x)) @ z

    def write_csv(self, path) -> None:
        # amplitudes of the primary (lower-branch) preparation; mixtures have
        # no single spinor field, their other branch only enters via pbar
        _write_csv(path, ["t", "x", "re_H", "im_H", "re_V", "im_V"],
                   "%d,%d,%.12g,%.12g,%.12g,%.12g", (
            zip([t] * st.shape[-1], self.sites(t).tolist(),
                *(part.tolist() for z in st[0] for part in (z.real, z.imag)), strict=True)
            for t, st in enumerate(self.states)))


def _step_params(angles: CoinAngles, l: float):
    if l == 0:
        return (angles.theta1 / 2, angles.theta2, 0.0, angles.theta1 / 2, 1.0, 1.0)
    return (angles.theta1 / 2, angles.theta2 / 2, angles.theta2 / 2,
            angles.theta1 / 2, np.sqrt(1 - l), step_gamma(l))


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


def evolve_position(spec: QuenchSpec, n_steps: int,
                    plate_angles: np.ndarray | None = None) -> PositionEvolution:
    """Run the post-quench walk in real space from a localized origin state.

    plate_angles, when given, is a (..., n_steps, 4) per-step override of the
    four coin plate angles (entry, mid, mid, exit); used to model
    miscalibrated plates. Leading axes batch independent replays, and every
    states[t] then carries them in front of its (m, 2, 4t + 1) block.
    Lossless walks ignore the second mid angle. The walk keeps every step,
    so it takes at most MAX_WALK_STEPS of them.
    """
    if not 0 <= n_steps <= MAX_WALK_STEPS:
        raise ConfigError(f"step count must be in [0, {MAX_WALK_STEPS}], got {n_steps}")
    base = _step_params(spec.final_angles, spec.loss)
    init = spec.prepared
    lead = () if plate_angles is None else np.shape(plate_angles)[:-2]
    # the prepared kets walk side by side on axis -3
    psi = np.broadcast_to(init.kets[:, :, None],
                          lead + init.kets.shape + (1,)).astype(complex)
    states = [psi]
    for s in range(n_steps):
        if plate_angles is None:
            angles = base[:4]
        else:
            angles = [a[..., None] for a in np.moveaxis(plate_angles[..., s, :], -1, 0)]
        psi = walk_step(psi, *angles, base[4], base[5])
        states.append(psi)
    return PositionEvolution(spec, tuple(states))
