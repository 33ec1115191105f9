"""Momentum-space Floquet operators, spectra, PT classification, and
topological invariants of the split-step walk family.

The one-step operator at momentum k is, in Bloch form,
O = d0*s0 - i d1*s1 - i d2*s2 - i d3*s3 with

    d0 = alpha(cos2k cos t1 cos t2 - sin t1 sin t2)
    d1 = i beta
    d2 = alpha(cos2k cos t2 sin t1 + cos t1 sin t2)
    d3 = -alpha sin2k cos t2

where alpha = gamma(1+sqrt(1-l))/2, beta = gamma(1-sqrt(1-l))/2 and
gamma = (1-l)^(-1/4). The lossless case has alpha = 1, beta = 0 and a real
unit Bloch vector. alpha^2 - beta^2 = 1 keeps det = 1 for every l.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    InsufficientResolutionError,
    PTBrokenError,
    TopologicalBoundaryError,
)
from .lattice import (
    GAP_TOL,
    STRUCT_TOL,
    CoinAngles,
    MomentumGrid,
    _as_coin_angles,
    _TextIds,
    _wrap_angle,
)

# closed-form eigenvectors degenerate as cos(2*Omega) -> 0
CLOSED_FORM_COS2OMEGA_MIN = 1e-6
# integer extraction from accumulated phase
WINDING_RESIDUAL_MAX = 0.01
PT_TOL = 1e-9
# phase-map cells with |margin| at most ELLIPSE_GUARD |c2| / n_k run the
# numeric winding loop; the others take the ellipse's winding (_winding_map)
ELLIPSE_GUARD = 8
# most (momenta + 1) x cells in one batch of _winding_map's numeric loop:
# 127 cells at 256 momenta, 15 at 2048
LOOP_ENTRIES = 2**15
# most points per axis of a phase-diagram scan: 2^20 cells, whose status
# array alone is 32 MB and whose SVG is about 100 MB
MAX_RESOLUTION = 1024
# the values of a pt_status map, in the order of their codes (_pt_status)
PT_STATUS = np.array(["unbroken", "broken", "boundary"], dtype=object)

_SQ2 = np.sqrt(2.0)


def alpha_beta(l: float) -> tuple[float, float]:
    g = step_gamma(l)
    r = np.sqrt(1 - l)
    return g * (1 + r) / 2, g * (1 - r) / 2


def step_gamma(l: float) -> float:
    """Per-step rescaling that restores det = 1 in the lossy walk."""
    if not 0 <= l < 1:
        raise ConfigError(f"loss must be in [0, 1), got {l}")
    return (1 - l) ** -0.25


def _bloch_matrices(d0, d1, d2, d3) -> np.ndarray:
    """The (..., 2, 2) operators d0*s0 - i(d1*s1 + d2*s2 + d3*s3)."""
    return np.stack((np.stack((d0 - 1j * d3, -1j * d1 - d2), axis=-1),
                     np.stack((-1j * d1 + d2, d0 + 1j * d3), axis=-1)), axis=-2)


def bloch_coefficients(angles: CoinAngles, l: float, k):
    """Vectorized (d0, beta, d2, d3) over scalar or array k; d1 = i*beta."""
    angles = _as_coin_angles(angles)
    al, be = alpha_beta(l)
    c1, s1 = np.cos(angles.theta1), np.sin(angles.theta1)
    c2, s2 = np.cos(angles.theta2), np.sin(angles.theta2)
    c2k, s2k = np.cos(2 * np.asarray(k, dtype=float)), np.sin(2 * np.asarray(k, dtype=float))
    d0 = al * (c2k * c1 * c2 - s1 * s2)
    d2 = al * (c2k * c2 * s1 + c1 * s2)
    d3 = -al * s2k * c2
    return d0, be * np.ones_like(d0), d2, d3


def _eigenvalues(d0):
    """lambda_pm = d0 -+ i sqrt(1 - d0^2), principal branch; E = i log(lambda_plus)."""
    s = np.sqrt((1 - d0) * (1 + d0) + 0j)
    lam_p = d0 - 1j * s
    lam_m = d0 + 1j * s
    return lam_p, lam_m, 1j * np.log(lam_p)


def _closed_form(be, d2, d3):
    """Closed-form biorthogonal frame over arrays of real Bloch components
    (d1 = i*be). Returns the mask of momenta where it holds and the (n, 2)
    arrays psi_p, psi_m, chi_p, chi_m; rows outside the mask are
    meaningless."""
    d = np.hypot(d2, d3)
    # a vanishing d overflows sin2o; such rows fail the mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sin2o = np.where(d > 0, be / np.where(d > 0, d, 1.0), np.inf)
        ok = (d > 0) & (sin2o < 1.0)
        cos2o = np.sqrt(np.where(ok, 1 - sin2o**2, 1.0))
    ok &= cos2o >= CLOSED_FORM_COS2OMEGA_MIN

    omega = np.where(ok, np.arcsin(np.where(ok, sin2o, 0.0)) / 2, 0.0)
    vth = np.arctan2(d2, -d3)
    norm = 1 / np.sqrt(2 * cos2o)
    ep, em = np.exp(1j * omega), np.exp(-1j * omega)
    eth = np.exp(1j * vth)

    # each frame (u0, u1) rotated back with V = exp(i pi/4 sigma_y), all four
    # in one stacked subtract, add and divide (np.array stacks with less
    # overhead than np.stack, which counts at the few momenta of a polish)
    u0 = np.array((norm * ep, -norm * em) * 2)
    u1 = np.array((norm * eth * em, norm * eth * ep, norm * em / eth, norm * ep / eth))
    return ok, tuple(np.stack((u0 - u1, u0 + u1), axis=-1) / _SQ2)


def _cabs(z):
    """|z| elementwise as hypot(re, im), the modulus a scalar abs() gives."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def _require_gap(d0) -> None:
    """Raise for the first of the d0 values whose gap is closed."""
    d0 = np.atleast_1d(d0)
    closed = (_cabs(d0 - 1) < GAP_TOL) | (_cabs(d0 + 1) < GAP_TOL)
    if closed.any():
        raise DegenerateSpectrumError(f"gap closed at d0 = {d0[closed.argmax()]}")


def _generic(d0, d1, d2, d3):
    """Numerical eigen data over arrays of Bloch components, one stacked
    solve: eigenvalues (n, 2) as (lambda_plus, lambda_minus), right
    eigenvectors as the columns of (n, 2, 2) arrays and left covectors as
    the rows of their inverses. Each right vector has unit norm and its
    largest component real positive."""
    lam_p = _eigenvalues(d0)[0]
    lam, right = np.linalg.eig(_bloch_matrices(d0, d1, d2, d3))
    swap = _cabs(lam[:, 0] - lam_p) > _cabs(lam[:, 1] - lam_p)
    lam[swap] = lam[swap, ::-1]
    right[swap] = right[swap, :, ::-1]
    if (_cabs(lam[:, 0] - lam[:, 1]) < GAP_TOL).any():
        raise DegenerateSpectrumError("eigenvalues coincide; biorthogonal frame undefined")
    # one contiguous row per eigenvector; np.vecdot takes the squared norm
    # through the same dot product as np.linalg.norm on one vector. The
    # pivot is picked by the vectorized np.abs, as on one vector, but its
    # modulus in the phase factor is hypot, as abs() of one number gives:
    # the two can differ in the last bit and so break near-ties differently.
    cols = np.swapaxes(right, -1, -2).copy()
    norm = np.sqrt(np.vecdot(cols.real, cols.real) + np.vecdot(cols.imag, cols.imag))
    cols = cols / norm[..., None]
    piv = np.take_along_axis(cols, np.abs(cols).argmax(axis=-1)[..., None], axis=-1)
    right = np.swapaxes(cols * (_cabs(piv) / piv), -1, -2)
    return lam, right, np.linalg.inv(right)


def eigensystem_arrays(angles: CoinAngles, l: float, ks: np.ndarray) -> dict:
    """Vectorized closed-form eigen data over a momentum array.

    Returns E, lambda_plus and (n, 2) eigenvector arrays psi_p/psi_m plus row
    covector arrays chi_p/chi_m. Points where the closed form is invalid
    (PT-broken or near-degenerate sectors) go to the generic path in one
    stacked solve.
    """
    ks = np.asarray(ks, dtype=float)
    d0, be, d2, d3 = bloch_coefficients(angles, l, ks)
    lam_p, lam_m, energy = _eigenvalues(d0)
    ok, (psi_p, psi_m, chi_p, chi_m) = _closed_form(be, d2, d3)
    bad = ~ok
    if bad.any():
        _require_gap(d0[bad])
        _, right, left = _generic(d0[bad], 1j * be[bad], d2[bad], d3[bad])
        psi_p[bad], psi_m[bad] = right[..., 0], right[..., 1]
        chi_p[bad], chi_m[bad] = left[:, 0], left[:, 1]
    return {
        "d0": d0, "energy": energy,
        "lambda_plus": lam_p, "lambda_minus": lam_m,
        "psi_p": psi_p, "psi_m": psi_m, "chi_p": chi_p, "chi_m": chi_m,
        "closed_form": ok,
    }


def _gap_check(d0: np.ndarray) -> None:
    if (1 - d0.real**2).min() <= GAP_TOL:
        raise TopologicalBoundaryError("gap closes on the momentum grid; winding undefined")


def phase_increments(z):
    """Wrapped phase increments arg(z[i+1] * conj(z[i])) along axis 0, each
    in (-pi, pi]."""
    z = np.asarray(z, dtype=complex)
    w = np.conjugate(z[:-1])
    # the conjugate is the first operand, the order of the elided z[1:] * conj(...);
    # in place, so that a call holds one complex temporary
    np.multiply(w, z[1:], out=w)
    # np.angle's own arctan2
    return np.arctan2(w.imag, w.real)


def _row_sum(inc):
    """Sum of inc over axis 0 in row order, so that a column has the same
    bits alone as in an array of any width. numpy sums the rows of a 2-D
    array in order, but a 1-D array or a lone column pairwise."""
    if inc.ndim == 2 and inc.shape[1] > 1:
        return inc.sum(axis=0)
    return np.add.accumulate(inc, axis=0)[-1]


def _loop_phase(x, y):
    """Phase that x + i y accumulates around the closed momentum loop on
    axis 0, one value per loop, summed in momentum order (_row_sum)."""
    z = x + 1j * y
    return _row_sum(phase_increments(np.concatenate((z, z[:1]))))


def _integer_from_phase(total: float, what: str) -> int:
    raw = total / (2 * np.pi)
    nu = round(raw)
    if abs(raw - nu) >= WINDING_RESIDUAL_MAX:
        raise InsufficientResolutionError(
            f"{what} accumulated {raw:.6f} windings; not within {WINDING_RESIDUAL_MAX} of an integer"
        )
    return -nu


def winding_unitary(angles: CoinAngles, grid: MomentumGrid) -> int:
    """Winding of the Bloch vector's (d2, d3) components around the origin."""
    d0, _, d2, d3 = bloch_coefficients(angles, 0.0, grid.samples)
    _gap_check(d0)
    if np.hypot(d2, d3).min() < 1e-14:
        raise TopologicalBoundaryError("Bloch vector touches the winding axis")
    return _integer_from_phase(float(_loop_phase(-d3, d2)), "winding")


def winding_global_berry(angles: CoinAngles, l: float, grid: MomentumGrid) -> int:
    """Winding number from the biorthogonal Berry phase summed over both bands.

    Cross-checked internally against the polar-angle accumulation of
    (d2, d3); both Brillouin-zone loops must give the same integer.
    """
    status, _ = pt_classify(angles, l)
    if status != "unbroken":
        raise PTBrokenError(f"global Berry winding restricted to the unbroken regime ({status})")

    d0, _, d2, d3 = bloch_coefficients(angles, l, grid.samples)
    _gap_check(d0)
    nu_polar = _integer_from_phase(float(_loop_phase(-d3, d2)), "polar route")

    es = eigensystem_arrays(angles, l, grid.samples)
    total = 0.0
    for psi, chi in ((es["psi_p"], es["chi_p"]), (es["psi_m"], es["chi_m"])):
        links = np.einsum("ij,ij->i", chi, np.roll(psi, -1, axis=0))
        total += float(np.angle(links).sum())
    nu_berry = _integer_from_phase(total, "Berry route")

    if nu_polar != nu_berry:
        raise InsufficientResolutionError(
            f"winding routes disagree: polar {nu_polar}, Berry {nu_berry}"
        )
    return nu_berry


def _d0_range(theta1, theta2, l: float):
    """Smallest and largest d0 over the zone, elementwise in the angles: d0
    is affine in cos2k, so its extremes sit at cos2k = +-1."""
    al, _ = alpha_beta(l)
    a = np.cos(theta1) * np.cos(theta2)
    b = -np.sin(theta1) * np.sin(theta2)
    ends = al * (b - a), al * (b + a)
    return np.minimum(*ends), np.maximum(*ends)


def pt_classify(angles: CoinAngles, l: float):
    """PT status and max_k d0^2: entirely real spectrum iff below 1."""
    angles = _as_coin_angles(angles)
    lo, hi = _d0_range(angles.theta1, angles.theta2, l)
    max_sq = float(max(lo**2, hi**2))
    return str(_pt_status(max_sq)), max_sq


def _pt_status(max_sq):
    """PT status from max_k d0^2, elementwise: "unbroken" below 1,
    "broken" above, "boundary" within PT_TOL. An array's cells are the three
    shared strings of PT_STATUS, picked by a uint8 code: 8 bytes a cell."""
    code = np.full(np.shape(max_sq), 2, dtype=np.uint8)
    code[max_sq < 1 - PT_TOL] = 0
    code[max_sq > 1 + PT_TOL] = 1
    return PT_STATUS[code]


def _winding_map(t1s, t2s, ks, al) -> np.ndarray:
    """Turns of (d2, d3) around the momentum loop ks, with theta1 on axis 0
    and theta2 on axis 1; al is the loss's alpha.

    (d2, d3) runs twice around an ellipse centred at (al c1 s2, 0), and the
    origin sits on its minor axis, al |margin| from the loop, with margin =
    |s1 c2| - |c1 s2|: inside where margin > 0, so the loop turns -2 sign(s1)
    times there and 0 times elsewhere. One sample step is an arc of at most
    2 al |c2| (2pi / n) for n momenta. Where |margin| exceeds
    ELLIPSE_GUARD |c2| / n, each step turns by less than pi/2, so that
    integer is the numeric loop's wrapped sum. Only the cells within the
    guard run the numeric loop, in batches of at most LOOP_ENTRIES momenta x
    cells; a cell's sum has the same bits in any batch (_row_sum).
    """
    c1, s1 = np.cos(t1s), np.sin(t1s)
    c2, s2 = np.cos(t2s), np.sin(t2s)
    margin = np.abs(np.outer(s1, c2)) - np.abs(np.outer(c1, s2))
    raw = np.where(margin > 0, -2 * np.sign(s1)[:, None], 0.0)
    near = np.abs(margin) <= ELLIPSE_GUARD * np.abs(c2) / ks.size
    c2k, s2k = np.cos(2 * ks), np.sin(2 * ks)
    rows, cols = np.nonzero(near)
    step = max(1, LOOP_ENTRIES // (ks.size + 1))
    for lo in range(0, rows.size, step):
        i, j = rows[lo:lo + step], cols[lo:lo + step]
        # -d3 and d2, each product in the operand order the outputs were recorded with
        x = -(-al * np.outer(s2k, c2[j]))
        y = al * (np.outer(c2k, c2[j] * s1[i]) + c1[i] * s2[j])
        raw[i, j] = _loop_phase(x, y) / (2 * np.pi)
    return raw


@dataclass(frozen=True)
class PhaseDiagram:
    """Winding/PT map over the (resolution,) angle axes theta1 and theta2, in
    (-pi, pi]: winding, pt_status and min_gap are (resolution, resolution)
    arrays with row i at theta1[i] and column j at theta2[j], winding NaN
    where unlabeled and pt_status holding the words of PT_STATUS."""

    theta1: np.ndarray
    theta2: np.ndarray
    winding: np.ndarray
    pt_status: np.ndarray
    min_gap: np.ndarray
    loss: float

    @property
    def resolution(self) -> int:
        return len(self.theta1)

    def write_csv(self, path) -> None:
        # each axis value, distinct min_gap and winding bit pattern and distinct
        # tail ",loss,winding,pt_status,min_gap" is formatted once; a tail's key
        # packs the gap's and winding's ids (each below 2^30, as no map has more
        # cells) and the status code. 16 rows are looked up at a time, and row i
        # is written as lead + lead.join(theta2 + tail) with lead "theta1[i],".
        loss = f",{self.loss:.12g},"
        gaps = _TextIds(lambda k: [f"{g:.12g}" for g in k.view(float).tolist()])
        labels = _TextIds(lambda k: ["" if np.isnan(w) else str(int(w)) for w in k.view(float).tolist()])
        tails = _TextIds(lambda k: [f"{loss}{labels.text[c >> 2 & 0x3FFFFFFF]},"
                                    f"{PT_STATUS[c & 3]},{gaps.text[c >> 32]}\r\n" for c in k.tolist()])
        theta2 = np.array([f"{x:.12g}" for x in self.theta2.tolist()], dtype=object)
        with open(path, "w", newline="") as fh:
            fh.write("theta1,theta2,loss,winding,pt_status,min_gap\r\n")
            for rows in (slice(lo, lo + 16) for lo in range(0, self.resolution, 16)):
                status = self.pt_status[rows]
                texts = tails(gaps.ids(self.min_gap[rows].view(np.int64)) << 32
                              | labels.ids(self.winding[rows].view(np.int64)) << 2
                              | (status == "broken") | (status == "boundary") << 1)
                for t1, tail in zip(self.theta1[rows].tolist(), texts):
                    lead = f"{t1:.12g},"
                    fh.write(lead + lead.join((theta2 + tail).tolist()))


def phase_diagram_scan(theta1_range, theta2_range, resolution: int, l: float,
                       n_k: int) -> PhaseDiagram:
    """Winding/PT map over a coin-angle window of width at most 2pi per axis,
    sampled at resolution points from each lower edge.

    Cells whose gap closes get no winding. n_k momenta sample the winding
    loop of the cells near the winding boundary, the only ones that run it
    (_winding_map).
    """
    if not 32 <= resolution <= MAX_RESOLUTION:
        raise ConfigError(f"resolution must be in [32, {MAX_RESOLUTION}] per axis, "
                          f"got {resolution}")
    for name, (start, stop) in (("theta1", theta1_range), ("theta2", theta2_range)):
        # a wider window would scan some angles twice
        if not 0 < stop - start <= 2 * np.pi + STRUCT_TOL:
            raise ConfigError(f"{name} window must satisfy min < max <= min + 2pi, got "
                              f"[{start / np.pi:.6g}pi, {stop / np.pi:.6g}pi]")
    t1s = theta1_range[0] + (theta1_range[1] - theta1_range[0]) * np.arange(resolution) / resolution
    t2s = theta2_range[0] + (theta2_range[1] - theta2_range[0]) * np.arange(resolution) / resolution
    raw = _winding_map(t1s, t2s, MomentumGrid(n_k).samples, alpha_beta(l)[0])

    lo, hi = _d0_range(t1s[:, None], t2s, l)
    crosses = ((lo <= 1) & (1 <= hi)) | ((lo <= -1) & (-1 <= hi))
    min_gap = np.where(crosses, 0.0, np.minimum(np.abs(1 - lo**2), np.abs(1 - hi**2)))
    # a closed gap puts max d0^2 at or above 1 - GAP_TOL >= 1 - PT_TOL, so no
    # such cell is "unbroken"
    status = _pt_status(np.maximum(lo**2, hi**2))

    nu = np.rint(raw)
    winding = np.where((min_gap <= GAP_TOL) | (np.abs(raw - nu) >= WINDING_RESIDUAL_MAX),
                       np.nan, -nu)
    return PhaseDiagram(_wrap_angle(t1s), _wrap_angle(t2s), winding, status, min_gap, l)
