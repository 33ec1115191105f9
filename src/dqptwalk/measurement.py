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
from .lattice import MomentumGrid, _write_csv
from .quench import QuenchSpec, evolve_position, overlaps, _step_params
from .analysis import _rate, _sector_bounds, find_fixed_points

U_CIRC = np.array([1.0, -1.0j]) / np.sqrt(2.0)
U_DIAG = np.array([1.0, 1.0]) / np.sqrt(2.0)

# Monte Carlo samples replayed together. The traced peak of a dtop replay
# grows by about 60 kB per sample in flight: 3.0 MB at 32 against 1.3 MB at
# 1 and 4.9 MB at 64, while 64 would run the mc_errorbars calls about 7 %
# faster (0.31 s against 0.34 s a pass, unprofiled, on a 2-core VM).
MC_BLOCK = 32
# sector momenta of a replayed order parameter
MC_DTOP_POINTS = 512
# samples of one call, 2-3 minutes at about 0.14 ms a sample
MAX_MC_SAMPLES = 10**6


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


def perturb_protocol(spec: QuenchSpec, error_model: ErrorModel, rngs, n_steps: int):
    """Draw one apparatus realization per generator of rngs.

    Returns the (S, n_steps, 4) actual plate angles, the (S, 4) analyzer
    basis errors (circ1, diag1, circ2, diag2) and the (S, 4) sub-arm
    transmissions (evolved1, ref1, ref2, evolved2), one sample per generator.
    Every half-wave-plate angle of every step gets its own uniform error;
    lossless walks have three plates per step, so the second mid column stays
    exact there. Each generator makes one draw with per-entry bounds, in the
    order plates, analyzer bases, transmissions: the same bits and the same
    stream position as one draw per group.
    """
    tol, loss_tol = error_model.wp_angle_tol, error_model.path_loss_tol
    plate_tol = [tol, tol, tol if spec.loss else 0.0, tol]
    hi = np.array(plate_tol * n_steps + [tol] * 4 + [loss_tol] * 4)
    d = np.array([g.uniform(-hi, hi) for g in rngs]).reshape(-1, n_steps + 2, 4)
    plates = np.add(_step_params(spec.final_angles, spec.loss)[:4], d[:, :n_steps])
    return plates, d[:, n_steps], 1.0 + d[:, n_steps + 1]


def poisson_counts(block, total_coincidences: int, rngs) -> None:
    """Replace each probability of block (S, n) in place by a Poisson draw
    over the expected total, row i from rngs[i]. Expected counts that numpy
    cannot draw are refused."""
    if total_coincidences <= 0:
        raise ConfigError("counting statistics need a positive total")
    try:
        np.multiply(np.clip(block, 0.0, None, out=block), total_coincidences, out=block)
        for g, row in zip(rngs, block, strict=True):
            np.divide(g.poisson(row), total_coincidences, out=row)
    except (ValueError, OverflowError):
        # numpy draws no count past int64, inf or NaN; a total past float overflows
        raise ConfigError("expected counts too large to draw: lower "
                          "total_coincidences or n_steps") from None


# The batched replay reproduces the per-sample arithmetic bit for bit. Each
# complex product keeps the operand order of the per-sample formula, since
# complex multiplication is not bitwise commutative, and is written with
# out=: numpy elides no temporary there, where for a large temporary `a * b`
# would compute b * a in place.

_SETTING_BASES = np.array([U_CIRC, U_DIAG, U_CIRC, U_DIAG])


def _analyzer(deltas):
    """Projector terms |u0|^2, |u1|^2 and conj(u0) u1 of each sample's four
    analyzer vectors (circ1, diag1, circ2, diag2), each (S, 4), for the basis
    rotations deltas (S, 4).

    The terms keep the bits of scalar numpy arithmetic on one vector at a
    time: float_power calls libm pow as a scalar ** 2 does, where an array
    ** 2 squares, and the cross term is spelled in real parts, as the scalar
    complex product forms it.
    """
    # each sample's coin_matrix(delta) @ u, stacked
    c, s = np.cos(deltas), np.sin(deltas)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(c.shape + (2, 2))
    u = np.matmul(rot.astype(complex), _SETTING_BASES[:, :, None])[..., 0]
    u0, u1 = np.conj(u[..., 0]), u[..., 1]
    cross = np.empty(u0.shape, dtype=complex)
    cross.real = u0.real * u1.real - u0.imag * u1.imag
    cross.imag = u0.real * u1.imag + u0.imag * u1.real
    return np.float_power(np.abs(u0), 2.0), np.float_power(np.abs(u1), 2.0), cross


def _step_views(flat, n_steps: int) -> list:
    """The per-step (S, 8, 4t + 1) views, t = 0 .. n_steps, of rows flat
    that hold every step's setting probabilities (or counts) in step order."""
    nx = 4 * np.arange(n_steps + 1) + 1
    return [b.reshape(len(flat), 8, -1)
            for b in np.split(flat, np.cumsum(8 * nx)[:-1], axis=1)]


def _setting_probs(evo, eta: float, deltas, trans, out) -> list:
    """Per time step, the eight outcome probabilities of the four analyzer
    settings, vectorized over samples and lattice sites.

    deltas (S, 4) and trans (S, 4) are each sample's analyzer basis errors
    and sub-arm transmissions, as drawn by perturb_protocol, matching the
    leading axis of the walk evo; zero errors and unit transmissions are the
    ideal apparatus. All steps' sites are laid side by side and computed
    in one pass, and each outcome row goes straight into its columns of out
    (S, 8 * sum(4t + 1)), laid out as _step_views reads it: the order in
    which a sample draws its counts. Returns the per-step (S, 8, nx) views of
    out, sites as in evo.sites(t), rows ordered (p11, p11', p12, p12', p21,
    p21', p22, p22').
    """
    uu0, uu1, cross = _analyzer(deltas)
    n_s, n_steps = len(trans), len(evo.states) - 1
    amp = np.concatenate(evo.states, axis=-1)
    amp = amp.reshape((-1,) + amp.shape[-3:])
    shape = (n_s, amp.shape[-1])
    # per outcome, the column of out of each side-by-side site
    cols = np.concatenate(_step_views(np.arange(out.shape[1])[None], n_steps), axis=-1)[0]

    root = np.sqrt(trans)
    norm1 = ((trans[:, 0] + trans[:, 1]) / 2)[:, None]
    norm2 = ((trans[:, 2] + trans[:, 3]) / 2)[:, None]
    coh = 2 * eta - 1
    init = evo.spec.prepared
    # weighted arm matrices; path 1 interferes the evolved H component with
    # the reference H amplitude, path 2 the reference V with the evolved V.
    # The reference copy is flat across the window, so its terms are one
    # column per sample.
    a11, b22 = np.zeros(shape), np.zeros(shape)
    a12, b12 = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    tmp, p, v = np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex)
    a22 = b11 = 0.0
    # times a complex one, as the per-site reference copy is formed
    ones = np.ones((n_s, 1), dtype=complex)
    for j, (w, ket) in enumerate(zip(init.weights, init.kets)):
        ref1 = (root[:, 1] * ket[0])[:, None] * ones
        ref2 = (root[:, 2] * ket[1])[:, None] * ones
        a22 = a22 + w * np.abs(ref1) ** 2
        b11 = b11 + w * np.abs(ref2) ** 2
        # path 1: w |v1|^2 and (w v1) conj(ref1), v1 the evolved H
        np.multiply(root[:, 0, None], amp[:, j, 0], out=v)
        np.add(a11, np.multiply(w, np.square(np.abs(v, out=tmp), out=tmp), out=tmp), out=a11)
        np.multiply(np.multiply(w, v, out=v), np.conj(ref1), out=v)
        np.add(a12, v, out=a12)
        # path 2: w |w2|^2 and (w ref2) conj(w2), w2 the evolved V
        np.multiply(root[:, 3, None], amp[:, j, 1], out=v)
        np.add(b22, np.multiply(w, np.square(np.abs(v, out=tmp), out=tmp), out=tmp), out=b22)
        np.multiply(w * ref2, np.conj(v, out=v), out=v)
        np.add(b12, v, out=b12)
    np.divide(a11, norm1, out=a11)
    np.divide(b22, norm2, out=b22)
    a22, b11 = a22 / norm1, b11 / norm2
    np.divide(np.multiply(coh, a12, out=a12), norm1, out=a12)
    np.divide(np.multiply(coh, b12, out=b12), norm2, out=b12)

    # <u| rho |u> = |u0|^2 r11 + |u1|^2 r22 + 2 Re(conj(u0) u1 r12) per
    # setting, its complement the path total minus it
    for setting, (r11, r22, r12) in enumerate(((a11, a22, a12), (a11, a22, a12),
                                              (b11, b22, b12), (b11, b22, b12))):
        np.multiply(uu0[:, setting, None], r11, out=p)
        np.add(p, np.multiply(uu1[:, setting, None], r22, out=v.real), out=p)
        np.multiply(cross[:, setting, None], r12, out=v)
        np.add(p, np.multiply(2, v.real, out=v.real), out=p)
        out[:, cols[2 * setting]] = p
        np.subtract(np.add(r11, r22, out=tmp), p, out=p)
        out[:, cols[2 * setting + 1]] = p
    return _step_views(out, n_steps)


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
    if not 100 <= error_model.mc_samples <= MAX_MC_SAMPLES:
        raise ConfigError(f"mc_samples must be in [100, {MAX_MC_SAMPLES}]")
    if quantity not in ("rate_function", "dtop", "pbar"):
        raise ConfigError(f"unknown quantity {quantity!r}")
    if grid is None and quantity != "pbar":
        raise ConfigError(f"quantity {quantity!r} needs a momentum grid")
    poisson_only = spec.loss > 0
    eta = error_model.dephasing_eta

    # momentum transforms, one matrix per step (and per winding sector)
    steps = range(n_steps + 1)
    ref_evo = evolve_position(spec, n_steps)
    sites = [ref_evo.sites(t) for t in steps]
    # a block's count buffer: its leading S rows hold each sample's setting
    # probabilities, then its counts, every step's entries side by side
    counted = np.empty((MC_BLOCK, 8 * sum(x.size for x in sites)))
    ref_flat = np.empty((1, counted.shape[1]))
    # the noiseless center: the ideal apparatus, as one sample
    ref_probs = _setting_probs(ref_evo, 1.0, np.zeros((1, 4)), np.ones((1, 4)), ref_flat)
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
    if quantity != "pbar":
        n_k = len(fourier[0])
        g_buf = np.empty((MC_BLOCK, n_k, 1), dtype=complex)
    if quantity == "dtop":
        z_buf = np.empty((MC_BLOCK, n_k), dtype=complex)
        conj_buf = np.empty((MC_BLOCK, n_k - 1), dtype=complex)
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
                # Monte Carlo bytes; it waits for ROADMAP item 1. The product
                # overwrites its conj factor, which numpy does elementwise
                step = np.multiply(z[:, 1:], np.conj(z[:, :-1], out=conj_buf[:n]),
                                   out=conj_buf[:n])
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
        block = counted[:len(rngs)]
        if poisson_only:
            block[:] = ref_flat
        else:
            plates, deltas, trans = perturb_protocol(spec, error_model, rngs, n_steps)
            _setting_probs(evolve_position(spec, n_steps, plates), eta, deltas, trans, block)
        if error_model.total_coincidences > 0:
            # each sample draws all of its steps' counts, in step order, from
            # its own generator
            poisson_counts(block, error_model.total_coincidences, rngs)
        for key, v in measure(_step_views(block, n_steps)).items():
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
