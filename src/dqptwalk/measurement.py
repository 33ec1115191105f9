"""Interference-based readout of the walk and its Monte Carlo error budget.

The return amplitude is measured site by site: each evolved spinor component
interferes with a static reference copy of the prepared coin state, the two
paths are projected onto circular and diagonal analyzer settings, and the
click probabilities recombine linearly into the complex observable

    Pbar(x, t) = i (P11 - P1/2 - P21 + P2/2) + (P12 - P1/2 + P22 - P2/2),

whose momentum transform is G_k(t). Noise enters as uniform wave-plate angle
errors, uniform path-transmission imbalance, analyzer dephasing, and Poisson
counting; error bars come from extreme deviations over many noisy replays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lattice import MomentumGrid, _write_csv, coin_matrix
from .quench import QuenchSpec, evolve_position, overlaps, _step_params
from .analysis import _rate, _sector_bounds, find_fixed_points

U_CIRC = np.array([1.0, -1.0j]) / np.sqrt(2.0)
U_DIAG = np.array([1.0, 1.0]) / np.sqrt(2.0)

# Monte Carlo samples replayed together. With the block arrays allocated
# once per run, peak memory grows by about 55 KB per sample in flight: 32
# stays within 1.5 MB of a one-sample replay, while 64 would run about 12 %
# faster for 1.7 MB more (mc_errorbars wall_s 0.69-0.72 s against
# 0.61-0.63 s on a 2-core VM).
MC_BLOCK = 32
# sector momenta of a replayed order parameter
MC_DTOP_POINTS = 512


@dataclass(frozen=True)
class ErrorModel:
    """Noise budget of the optical setup.

    Angle and transmission errors are drawn uniformly on +-tolerance; eta is
    the analyzer dephasing rate applied at the recombination stage.
    """

    wp_angle_tol: float = np.deg2rad(0.1)
    path_loss_tol: float = 0.02
    total_coincidences: int = 40000
    dephasing_eta: float = 0.97
    mc_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.wp_angle_tol <= np.pi:
            raise ConfigError(f"wp_angle_tol must be in [0, pi], got {self.wp_angle_tol}")
        # a transmission 1 + U(-tol, tol) must stay positive under its sqrt
        if not 0 <= self.path_loss_tol < 1:
            raise ConfigError(f"path_loss_tol must be in [0, 1), got {self.path_loss_tol}")
        if not 0 <= self.dephasing_eta <= 1:
            raise ConfigError(f"eta must be in [0, 1], got {self.dephasing_eta}")
        if self.total_coincidences < 0:
            raise ConfigError("coincidence total must be nonnegative")


@dataclass(frozen=True)
class PerturbedRun:
    """One noisy replay of the apparatus: per-step plate angles, analyzer
    basis errors, and the four sub-arm transmissions."""

    plate_angles: np.ndarray      # (n_steps, 4) actual angles
    basis_deltas: np.ndarray      # (4,) analyzer rotations: circ1, diag1, circ2, diag2
    transmissions: np.ndarray     # (4,) evolved1, ref1, ref2, evolved2


def perturb_protocol(spec: QuenchSpec, error_model: ErrorModel,
                     rng: np.random.Generator, n_steps: int = 7) -> PerturbedRun:
    """Draw one apparatus realization.

    Every half-wave-plate angle of every step gets its own uniform error;
    lossless walks have three plates per step, so the second mid column stays
    exact there. Draw order is fixed: plates, analyzer bases, transmissions.
    """
    base = _step_params(spec.final_angles, spec.loss)
    plates = np.tile(np.array(base[:4]), (n_steps, 1))
    d = rng.uniform(-error_model.wp_angle_tol, error_model.wp_angle_tol,
                    (n_steps, 4))
    if spec.loss == 0:
        d[:, 2] = 0.0
    basis = rng.uniform(-error_model.wp_angle_tol, error_model.wp_angle_tol, 4)
    trans = 1.0 + rng.uniform(-error_model.path_loss_tol,
                              error_model.path_loss_tol, 4)
    return PerturbedRun(plates + d, basis, trans)


def poisson_counts(probabilities, total_coincidences: int, rng, out=None):
    """Replace each probability by a Poisson draw over the expected total.

    rng is one generator, or a sequence of generators with one per entry of
    the leading axis, each drawing its own row in order. Given out, the
    expected counts and then the result are written to it, and it is
    returned; it may be probabilities itself.
    """
    if total_coincidences <= 0:
        raise ConfigError("counting statistics need a positive total")
    lam = np.clip(np.asarray(probabilities, dtype=float), 0.0, None, out=out)
    lam = np.multiply(lam, total_coincidences, out=out)
    if isinstance(rng, np.random.Generator):
        return np.divide(rng.poisson(lam), total_coincidences, out=out)
    # lam[:, None] yields each entry's row as a view, also for a 1-D lam
    for g, row in zip(rng, lam[:, None], strict=True):
        np.divide(g.poisson(row), total_coincidences, out=row)
    return lam


# The batched replay reproduces the per-sample arithmetic bit for bit.
# Complex products with a temporary right factor are spelled np.multiply:
# for large temporaries `a * b` computes b * a in place, and complex
# multiplication is not bitwise commutative.

_SETTING_BASES = (U_CIRC, U_DIAG, U_CIRC, U_DIAG)


def _analyzer(runs):
    """Per-sample sub-arm transmissions (S, 4) and, per analyzer setting
    (circ1, diag1, circ2, diag2), the projector terms |u0|^2, |u1|^2 and
    conj(u0) u1, each (S, 4). runs None is the ideal apparatus as one sample.

    The terms are formed one sample at a time from numpy scalars: array
    products round differently, and the replayed values keep this rounding.
    """
    if runs is None:
        trans = np.ones((1, 4))
        bases = [_SETTING_BASES]
    else:
        trans = np.stack([r.transmissions for r in runs])
        bases = [[coin_matrix(d) @ u for d, u in zip(r.basis_deltas, _SETTING_BASES)]
                 for r in runs]
    uu0 = np.array([[np.abs(u[0]) ** 2 for u in b] for b in bases])
    uu1 = np.array([[np.abs(u[1]) ** 2 for u in b] for b in bases])
    cross = np.array([[np.conj(u[0]) * u[1] for u in b] for b in bases], dtype=complex)
    return trans, (uu0, uu1, cross)


def _projected(r11, r22, r12, terms, setting) -> np.ndarray:
    """<u| rho |u> per sample and site for 2x2 arm matrices given by entries."""
    uu0, uu1, cross = (a[:, setting, None] for a in terms)
    return (uu0 * r11 + uu1 * r22
            + 2 * np.real(cross * r12))


def _setting_probs(evo, eta: float, runs=None):
    """Per time step, the eight outcome probabilities of the four analyzer
    settings, vectorized over samples and lattice sites.

    runs holds one PerturbedRun per sample, matching the leading axis of the
    walk evo; runs None is the ideal apparatus on an unbatched walk, returned
    as one sample. Returns [probs (S, 8, nx) for each of evo.states], sites as
    in evo.sites(t), rows ordered (p11, p11', p12, p12', p21, p21', p22, p22').
    """
    trans, terms = _analyzer(runs)
    root = np.sqrt(trans)
    norm1 = ((trans[:, 0] + trans[:, 1]) / 2)[:, None]
    norm2 = ((trans[:, 2] + trans[:, 3]) / 2)[:, None]
    coh = 2 * eta - 1

    init = evo.spec.prepared
    out = []
    for t, st in enumerate(evo.states):
        sites = evo.sites(t)
        shape = (len(trans), sites.size)
        # weighted arm matrices; path 1 interferes the evolved H component
        # with the reference H amplitude, path 2 the reference V with the
        # evolved V (the reference copy is flat across the window)
        a11 = np.zeros(shape)
        a22 = np.zeros(shape)
        a12 = np.zeros(shape, dtype=complex)
        b11 = np.zeros(shape)
        b22 = np.zeros(shape)
        b12 = np.zeros(shape, dtype=complex)
        for j, (w, ket) in enumerate(zip(init.weights, init.kets)):
            amp = st[..., j, :, :].reshape(-1, 2, sites.size)
            v1 = root[:, 0, None] * amp[:, 0]
            v2 = (root[:, 1] * ket[0])[:, None] * np.ones(shape, dtype=complex)
            a11 += w * np.abs(v1) ** 2
            a22 += w * np.abs(v2) ** 2
            a12 += np.multiply(w * v1, np.conj(v2))
            w1 = (root[:, 2] * ket[1])[:, None] * np.ones(shape, dtype=complex)
            w2 = root[:, 3, None] * amp[:, 1]
            b11 += w * np.abs(w1) ** 2
            b22 += w * np.abs(w2) ** 2
            b12 += np.multiply(w * w1, np.conj(w2))
        a11, a22, a12 = a11 / norm1, a22 / norm1, coh * a12 / norm1
        b11, b22, b12 = b11 / norm2, b22 / norm2, coh * b12 / norm2
        p1_tot = a11 + a22
        p2_tot = b11 + b22
        p11 = _projected(a11, a22, a12, terms, 0)
        p12 = _projected(a11, a22, a12, terms, 1)
        p21 = _projected(b11, b22, b12, terms, 2)
        p22 = _projected(b11, b22, b12, terms, 3)
        out.append(np.stack([p11, p1_tot - p11, p12, p1_tot - p12,
                             p21, p2_tot - p21, p22, p2_tot - p22], axis=1))
    return out


@dataclass(frozen=True)
class ErrorBarResult:
    """Asymmetric per-time error bars around the noiseless center.

    The bar below the point is set by the largest upward excursion of the
    noisy replays and vice versa.
    """

    rows: tuple  # (quantity, t, center, err_plus, err_minus)
    n_samples: int
    seed: int

    def write_csv(self, path) -> None:
        _write_csv(path, ["quantity", "t", "center", "err_plus", "err_minus",
                          "n_samples", "seed"], "%s,%.12g,%.12g,%.12g,%.12g,%s,%s",
                   [(row + (self.n_samples, self.seed) for row in self.rows)])


def reconstruct_pbar(probs) -> np.ndarray:
    """Interference term per sample and site from the click probabilities
    probs (S, 8, nx) of _setting_probs."""
    p1 = probs[:, 0] + probs[:, 1]
    p2 = probs[:, 4] + probs[:, 5]
    return (1j * (probs[:, 0] - p1 / 2 - probs[:, 4] + p2 / 2)
            + (probs[:, 2] - p1 / 2 + probs[:, 6] - p2 / 2))


def _counted(probs, total_coincidences: int, rngs, out) -> list:
    """Poisson counts for every step's probabilities (S, 8, nx); each sample
    draws all of its steps in step order from its own generator. The counts
    are views into out, which has room for every step's entries side by side
    in at least S rows."""
    flat = np.concatenate([p.reshape(len(rngs), -1) for p in probs], axis=1,
                          out=out[:len(rngs)])
    poisson_counts(flat, total_coincidences, rngs, out=flat)
    ends = np.cumsum([p[0].size for p in probs])[:-1]
    return [c.reshape(p.shape) for c, p in zip(np.split(flat, ends, axis=1), probs)]


def monte_carlo_errorbars(spec: QuenchSpec, quantity: str, error_model: ErrorModel,
                          n_steps: int = 7, sector: int = 1, positions=(0,), *,
                          grid: MomentumGrid | None = None) -> ErrorBarResult:
    """Error bars for a measured quantity over integer steps.

    quantity is one of "rate_function", "dtop" (one sector, labeled
    dtop_m<sector>), or "pbar" (labeled re/im_pbar_x<position>). The rate is
    transformed onto grid, and the fixed points that bound the dtop sector
    are found on it; pbar does not read it and needs none. Each sample
    replays the full measurement with fresh apparatus draws and Poisson
    counting; lossy walks keep only the counting noise. Sample i draws from
    its own generator seeded with seed XOR i, so the result does not depend
    on how samples are grouped: they are replayed in blocks of MC_BLOCK, each
    block as one batched walk, probability and reduction pass.
    """
    if error_model.mc_samples < 100:
        raise ConfigError("mc_samples must be at least 100")
    if quantity not in ("rate_function", "dtop", "pbar"):
        raise ConfigError(f"unknown quantity {quantity!r}")
    if grid is None and quantity != "pbar":
        raise ConfigError(f"quantity {quantity!r} needs a momentum grid")
    poisson_only = spec.loss > 0
    eta = error_model.dephasing_eta

    # momentum transforms, one matrix per step (and per winding sector)
    steps = range(n_steps + 1)
    ref_evo = evolve_position(spec, n_steps)
    ref_probs = _setting_probs(ref_evo, 1.0)
    sites = [ref_evo.sites(t) for t in steps]
    if quantity == "rate_function":
        fourier = [np.exp(-1j * np.outer(grid.samples, x)) for x in sites]
    elif quantity == "dtop":
        lo, hi = _sector_bounds(find_fixed_points(spec, grid), sector)
        ks = np.linspace(lo, hi, MC_DTOP_POINTS + 1)
        dyn_rate = overlaps(spec, ks).dynamic_rate
        fourier = [np.exp(-1j * np.outer(ks, x)) for x in sites]
        unwind = [np.exp(-1j * dyn_rate * t) for t in steps]

    # the large arrays of a block, allocated once per run; a block of S
    # samples writes the leading S rows
    counted = np.empty((MC_BLOCK, sum(p[0].size for p in ref_probs)))
    if quantity != "pbar":
        n_k = len(fourier[0])
        g_buf = np.empty((MC_BLOCK, n_k, 1), dtype=complex)
    if quantity == "dtop":
        z_buf = np.empty((MC_BLOCK, n_k), dtype=complex)
        conj_buf = np.empty((MC_BLOCK, n_k - 1), dtype=complex)
        step_buf = np.empty((MC_BLOCK, n_k - 1), dtype=complex)
        angle_buf = np.empty((MC_BLOCK, n_k - 1))

    def measure(probs_by_step):
        """Quantity values keyed (label, t), one entry per sample. The
        momentum transform is one matrix-vector product per sample: a
        matrix-matrix product would round differently. A zero amplitude
        makes the rate infinite.

        The large arrays go into the run's buffers because glibc returned
        freshly allocated ones to the kernel after every block and faulted
        them in again. With out= numpy elides no temporary, so each product
        keeps the operand order written here, which the replayed bits
        depend on."""
        vals = {}
        for t, probs in zip(steps, probs_by_step):
            pbar = reconstruct_pbar(probs)
            n = len(pbar)
            if quantity != "pbar":
                g = np.matmul(fourier[t], pbar[:, :, None], out=g_buf[:n])[:, :, 0]
            if quantity == "rate_function":
                # g.T keeps each sample's momenta contiguous, so numpy sums
                # them pairwise; the replayed bits depend on that order
                vals[("rate_function", t)] = _rate(g.T)
            elif quantity == "dtop":
                z = np.multiply(g, unwind[t], out=z_buf[:n])
                # not floquet.phase_increments, whose first factor is
                # conj(z[:-1]): on AVX-512 a complex product can change in the
                # last bit when its operands swap, so that would move the
                # Monte Carlo bytes; it waits for ROADMAP item 1
                step = np.multiply(z[:, 1:], np.conj(z[:, :-1], out=conj_buf[:n]),
                                   out=step_buf[:n])
                # np.angle(step), written into the run's buffer
                inc = np.arctan2(step.imag, step.real, out=angle_buf[:n])
                vals[(f"dtop_m{sector}", t)] = inc.sum(axis=1) / (2 * np.pi)
            else:
                for x in positions:
                    hit = np.nonzero(sites[t] == x)[0]
                    z = pbar[:, hit[0]] if hit.size else np.zeros(len(pbar), complex)
                    vals[(f"re_pbar_x{x}", t)] = z.real
                    vals[(f"im_pbar_x{x}", t)] = z.imag
        return vals

    center = {key: v[0] for key, v in measure(ref_probs).items()}

    hi_dev = {key: 0.0 for key in center}
    lo_dev = {key: 0.0 for key in center}
    for start in range(0, error_model.mc_samples, MC_BLOCK):
        rngs = [np.random.default_rng(error_model.seed ^ i)
                for i in range(start, min(start + MC_BLOCK, error_model.mc_samples))]
        if poisson_only:
            probs = [np.broadcast_to(p, (len(rngs),) + p.shape[1:])
                     for p in ref_probs]
        else:
            runs = [perturb_protocol(spec, error_model, rng, n_steps) for rng in rngs]
            evo = evolve_position(spec, n_steps, np.stack([r.plate_angles for r in runs]))
            probs = _setting_probs(evo, eta, runs)
        if error_model.total_coincidences > 0:
            probs = _counted(probs, error_model.total_coincidences, rngs, counted)
        for key, v in measure(probs).items():
            d = v - center[key]
            d = d[np.isfinite(d)]
            if d.size:
                hi_dev[key] = max(hi_dev[key], d.max())
                lo_dev[key] = min(lo_dev[key], d.min())

    rows = []
    for key in center:
        q, t = key
        rows.append((q, float(t), float(center[key]),
                     float(-lo_dev[key]) + 0.0, float(hi_dev[key]) + 0.0))
    rows.sort(key=lambda r: (r[0], r[1]))
    return ErrorBarResult(tuple(rows), error_model.mc_samples, error_model.seed)
