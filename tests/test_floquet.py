import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import closed_form_frames, ellipse, floquet_matrix

from dqptwalk import floquet, roots
from dqptwalk.errors import (
    ConfigError,
    DegenerateSpectrumError,
    PTBrokenError,
    TopologicalBoundaryError,
)
from dqptwalk.floquet import (
    MAX_RESOLUTION,
    alpha_beta,
    bloch_coefficients,
    eigensystem_arrays,
    phase_diagram_scan,
    pt_classify,
    step_gamma,
    winding_global_berry,
    winding_unitary,
)
from dqptwalk.lattice import GAP_TOL, CoinAngles, MomentumGrid
from dqptwalk.presets import preset

angle = st.floats(-np.pi, np.pi, allow_nan=False)
momentum = st.floats(-np.pi, np.pi, allow_nan=False)
loss = st.floats(0.0, 0.8, allow_nan=False)


def test_alpha_beta_endpoints():
    al, be = alpha_beta(0.0)
    assert al == pytest.approx(1.0) and be == pytest.approx(0.0)
    al, be = alpha_beta(0.36)
    # alpha^2 - beta^2 = 1 is the non-unitary normalization
    assert al * al - be * be == pytest.approx(1.0, abs=1e-12)
    assert step_gamma(0.0) == pytest.approx(1.0)
    assert step_gamma(0.36) == pytest.approx((1 - 0.36) ** -0.25)


@given(angle, angle, loss, momentum)
@settings(max_examples=300, deadline=None)
def test_bloch_matches_factor_product(t1, t2, l, k):
    a = CoinAngles(t1, t2)
    d0, be, d2, d3 = bloch_coefficients(a, l, k)
    # d1 = i beta, so the unit norm reads d0^2 - beta^2 + d2^2 + d3^2 = 1
    assert abs(d0**2 - be**2 + d2**2 + d3**2 - 1) < 1e-12
    m = floquet._bloch_matrices(d0, 1j * be, d2, d3)
    assert np.abs(m - floquet_matrix(a, l, k)).max() < 1e-12


@given(angle, angle, momentum)
@settings(max_examples=200, deadline=None)
def test_unit_determinant(t1, t2, k):
    m = floquet_matrix(CoinAngles(t1, t2), 0.47, k)
    assert abs(np.linalg.det(m) - 1) < 1e-12
    mu = floquet_matrix(CoinAngles(t1, t2), 0.0, k)
    assert np.abs(mu @ mu.conj().T - np.eye(2)).max() < 1e-12


def test_lossless_reduction():
    a = CoinAngles(-np.pi / 3, np.pi / 5)
    ks = np.linspace(-np.pi, np.pi, 17)
    d0, be, d2, d3 = bloch_coefficients(a, 0.0, ks)
    assert np.all(be == 0)
    m = floquet._bloch_matrices(d0, 1j * be, d2, d3)
    for j, k in enumerate(ks):
        assert np.abs(m[j] - floquet_matrix(a, 0.0, k)).max() < 1e-14


def test_eigenvalue_branch_convention():
    es = eigensystem_arrays(CoinAngles(-np.pi / 2, 3 * np.pi / 8), 0.0, np.array([0.3]))
    energy, lam_p, lam_m = es["energy"][0], es["lambda_plus"][0], es["lambda_minus"][0]
    # quasienergy on the principal arc, lower band at exp(+iE)
    assert 0 < energy.real < np.pi
    assert lam_p == pytest.approx(np.exp(-1j * energy))
    assert lam_m == pytest.approx(np.exp(1j * energy))
    assert lam_p * lam_m == pytest.approx(1.0)
    assert energy.real == pytest.approx(np.arccos(es["d0"][0]))


@given(angle, angle, loss, momentum)
@settings(max_examples=300, deadline=None)
def test_biorthogonal_frame(t1, t2, l, k):
    a = CoinAngles(t1, t2)
    try:
        es = eigensystem_arrays(a, l, np.array([k]))
        floquet._require_gap(es["d0"])  # the closed form alone does not check
    except DegenerateSpectrumError:
        return
    psi_p, psi_m, chi_p, chi_m = (es[name][0] for name in ("psi_p", "psi_m", "chi_p", "chi_m"))
    assert abs(chi_p @ psi_p - 1) < 1e-9
    assert abs(chi_m @ psi_m - 1) < 1e-9
    assert abs(chi_p @ psi_m) < 1e-9
    assert abs(chi_m @ psi_p) < 1e-9
    d0, be, d2, d3 = bloch_coefficients(a, l, k)
    recon = (es["lambda_plus"][0] * np.outer(psi_p, chi_p)
             + es["lambda_minus"][0] * np.outer(psi_m, chi_m))
    assert np.abs(recon - floquet._bloch_matrices(d0, 1j * be, d2, d3)).max() < 1e-9


def test_both_diagonalization_branches_used():
    rng = np.random.default_rng(5)
    methods = set()
    for _ in range(400):
        a = CoinAngles(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        try:
            es = eigensystem_arrays(a, rng.uniform(0, 0.9), np.array([rng.uniform(-np.pi, np.pi)]))
            floquet._require_gap(es["d0"])
        except DegenerateSpectrumError:
            continue
        methods.add("closed_form" if es["closed_form"][0] else "generic")
    assert "closed_form" in methods and "generic" in methods


def test_degenerate_gap_raises():
    with pytest.raises(DegenerateSpectrumError):
        eigensystem_arrays(CoinAngles(0.0, 0.0), 0.0, np.array([0.0]))  # d0 = 1 at k = 0


def test_eigensystem_arrays_matches_pointwise():
    a = CoinAngles(-np.pi / 3, np.pi / 5)
    grid = MomentumGrid(32)
    arr = eigensystem_arrays(a, 0.36, grid.samples)
    assert np.abs(arr["energy"].imag).max() < 1e-9
    d0, be, d2, d3 = bloch_coefficients(a, 0.36, grid.samples)
    m = floquet._bloch_matrices(d0, 1j * be, d2, d3)
    for j in (0, 7, 19, 31):
        assert arr["lambda_plus"][j] == pytest.approx(d0[j] - 1j * np.sqrt(1 - d0[j] ** 2))
        # each column is a right eigenvector of its own sector's operator
        for lam, psi in ((arr["lambda_plus"][j], arr["psi_p"][j]),
                         (arr["lambda_minus"][j], arr["psi_m"][j])):
            assert np.abs(m[j] @ psi - lam * psi).max() < 1e-9


def test_winding_values():
    g = MomentumGrid(2048)
    assert winding_unitary(CoinAngles(np.pi / 4, -np.pi / 2), g) == 0
    assert winding_unitary(CoinAngles(-np.pi / 2, 3 * np.pi / 8), g) == -2
    assert winding_unitary(CoinAngles(-np.pi / 16, -3 * np.pi / 16), g) == 0


def test_winding_grid_refinement_stable():
    g = MomentumGrid(256)
    a = CoinAngles(-np.pi / 2, 3 * np.pi / 8)
    assert winding_unitary(a, g) == winding_unitary(a, MomentumGrid(512))


def test_winding_gapless_raises():
    with pytest.raises(TopologicalBoundaryError):
        winding_unitary(CoinAngles(0.0, 0.0), MomentumGrid(2048))


def test_berry_route_agrees_with_unitary_route():
    g = MomentumGrid(2048)
    for t1, t2 in ((-np.pi / 2, 3 * np.pi / 8), (np.pi / 4, -np.pi / 2), (0.9, 2.1)):
        a = CoinAngles(t1, t2)
        try:
            nu = winding_unitary(a, g)
        except TopologicalBoundaryError:
            continue
        assert winding_global_berry(a, 0.0, g) == nu


def test_pt_classification():
    status, peak = pt_classify(CoinAngles(-np.pi / 3, np.pi / 5), 0.36)
    assert status == "unbroken" and peak < 1
    # the closed form keeps the former grid search's bits on the lossy presets
    assert peak == 0.8449973694691728
    assert _reference_pt_classify(CoinAngles(-np.pi / 3, np.pi / 5), 0.36)[1] == peak
    # theta2 tuned past the edge at this loss closes the real-spectrum window
    spec = preset("fig4b")[0][1]
    status, peak = pt_classify(spec.final_angles, spec.loss)
    assert status == "broken" and peak > 1
    assert peak == 1.009365294937453
    assert _reference_pt_classify(spec.final_angles, spec.loss)[1] == peak
    with pytest.raises(PTBrokenError):
        winding_global_berry(spec.final_angles, spec.loss, MomentumGrid(2048))


def test_nonunitary_winding_value():
    assert winding_global_berry(CoinAngles(-np.pi / 3, np.pi / 5), 0.36, MomentumGrid(2048)) == -2


def test_phase_diagram_scan_cells(tmp_path):
    pd = phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), 32, 0.0, 64)
    assert pd.theta1.shape == pd.theta2.shape == (32,)
    for values in (pd.winding, pd.pt_status, pd.min_gap):
        assert values.shape == (32, 32)

    def winding_at(t1, t2):
        hit = np.outer(np.abs(pd.theta1 - t1) < 1e-9, np.abs(pd.theta2 - t2) < 1e-9)
        assert hit.sum() == 1
        return pd.winding[hit][0]

    assert winding_at(np.pi / 4, -np.pi / 2) == 0
    assert winding_at(-np.pi / 2, 3 * np.pi / 8) == -2
    out = tmp_path / "pd.csv"
    pd.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "theta1,theta2,loss,winding,pt_status,min_gap"
    assert len(out.read_text().splitlines()) == 1 + 1024


def _cell_gap_pt(t1, t2, l):
    """Gap and PT status of one cell: d0 is affine in cos2k, so its extremes
    sit at cos2k = +-1."""
    al, _ = alpha_beta(l)
    a = np.cos(t1) * np.cos(t2)
    b = -np.sin(t1) * np.sin(t2)
    ends = np.array([al * (b - a), al * (b + a)])
    lo, hi = ends.min(), ends.max()
    crosses = (lo <= 1 <= hi) or (lo <= -1 <= hi)
    min_gap = 0.0 if crosses else float(np.abs(1 - ends**2).min())
    max_sq = float((ends**2).max())
    if max_sq < 1 - floquet.PT_TOL:
        status = "unbroken"
    elif max_sq > 1 + floquet.PT_TOL:
        status = "broken"
    else:
        status = "boundary"
    return min_gap, status


def _reference_scan(theta1_range, theta2_range, resolution, l, n_k):
    """The phase-diagram scan one cell at a time: winding of (d2, d3) per
    theta1 row, scalar gap/PT test, CoinAngles normalization. Returns the
    theta1, theta2, winding, pt_status and min_gap arrays."""
    t1s = theta1_range[0] + (theta1_range[1] - theta1_range[0]) * np.arange(resolution) / resolution
    t2s = theta2_range[0] + (theta2_range[1] - theta2_range[0]) * np.arange(resolution) / resolution
    ks = MomentumGrid(n_k).samples
    c2k, s2k = np.cos(2 * ks), np.sin(2 * ks)
    al, _ = alpha_beta(l)
    cells = []
    for t1 in t1s:
        d2 = al * (np.outer(np.cos(t2s) * np.sin(t1), c2k) + (np.cos(t1) * np.sin(t2s))[:, None])
        d3 = -al * np.outer(np.cos(t2s), s2k)
        z = -d3 + 1j * d2
        z = np.concatenate([z, z[:, :1]], axis=1)
        raw = np.angle(z[:, 1:] * np.conj(z[:, :-1])).sum(axis=1) / (2 * np.pi)
        for t2, r in zip(t2s, raw):
            min_gap, status = _cell_gap_pt(t1, t2, l)
            if min_gap <= GAP_TOL:
                winding = np.nan
                status = "boundary" if status == "unbroken" else status
            else:
                nu = round(float(r))
                winding = -nu if abs(r - nu) < floquet.WINDING_RESIDUAL_MAX else np.nan
            angles = CoinAngles(t1, t2)
            cells.append((angles.theta1, angles.theta2, winding, status, min_gap))
    return [np.array(col).reshape(resolution, resolution) for col in zip(*cells)]


@given(st.floats(-2, 2), st.floats(0.01, 2), st.floats(-2, 2), st.floats(0.01, 2),
       st.integers(32, 64), st.integers(8, 256), st.floats(0.0, 0.9, exclude_max=True))
@settings(max_examples=40, deadline=None)
@example(-1.0, 2.0, -1.0, 2.0, 32, 32, 0.0)
@example(-1.0, 2.0, -1.0, 2.0, 40, 64, 0.2)
@example(-1.0, 2.0, -1.0, 2.0, 64, 256, 0.5)
# resolutions that are not a power of two, one of them odd
@example(-1.0, 2.0, -1.0, 2.0, 100, 128, 0.5)
@example(-1.0, 2.0, -1.0, 2.0, 129, 64, 0.0)
def test_phase_diagram_scan_equals_cell_reference(lo1, w1, lo2, w2, res, half_k, l):
    """The array scan reproduces the cell-by-cell scan (windows and widths in
    units of pi). A zero winding may differ in sign: the loop phase sums the
    momenta in another order than the reference's inline steps, and no
    output shows that sign."""
    t1r = (lo1 * np.pi, (lo1 + w1) * np.pi)
    t2r = (lo2 * np.pi, (lo2 + w2) * np.pi)
    pd = phase_diagram_scan(t1r, t2r, res, l, 2 * half_k)
    ref = _reference_scan(t1r, t2r, res, l, 2 * half_k)
    assert pd.loss == l and pd.resolution == res
    assert pd.theta1.shape == pd.theta2.shape == (res,)
    # each cell's angles, from the two axes
    theta1, theta2 = np.meshgrid(pd.theta1, pd.theta2, indexing="ij")
    for name, got, expected in zip(("theta1", "theta2", "winding", "pt_status", "min_gap"),
                                   (theta1, theta2, pd.winding, pd.pt_status, pd.min_gap), ref):
        assert got.shape == expected.shape, name
        assert np.array_equal(got, expected, equal_nan=name == "winding"), name


# the benchmark's phase_64 and phase_256_loss02, and an odd resolution
_SCAN_RUNS = [(64, 0.0), (256, 0.2), (129, 0.0)]


def _every_cell_turns(t1s, t2s, ks, al):
    """Turns of every cell through _loop_phase, one whole theta1 row at a
    time, in the scan's operand order and without blocks."""
    c2k, s2k = np.cos(2 * ks), np.sin(2 * ks)
    c1, s1, c2, s2 = np.cos(t1s), np.sin(t1s), np.cos(t2s), np.sin(t2s)
    x = -(-al * np.outer(s2k, c2))
    return np.array([floquet._loop_phase(x, al * (np.outer(c2k, c2 * s1[i]) + c1[i] * s2))
                     for i in range(t1s.size)])


@pytest.mark.parametrize("resolution, l", _SCAN_RUNS,
                         ids=[f"{res}-loss{l}" for res, l in _SCAN_RUNS])
def test_scan_loops_only_near_the_boundary(resolution, l, monkeypatch):
    """The scan starts no thread, and only the cells within ELLIPSE_GUARD
    |c2| / n_k of the ellipse reach _loop_phase, in row order. Their loop
    phases have the bits of a numeric loop over every cell, and every other
    cell's closed-form turns are that loop's integer."""
    maps, phases = [], []
    winding_map, loop_phase = floquet._winding_map, floquet._loop_phase

    def map_spy(*args):
        maps.append((args, winding_map(*args)))
        return maps[-1][1]

    def loop_spy(*args):
        phases.append(loop_phase(*args))
        return phases[-1]

    def no_thread(self):
        raise AssertionError("the scan started a thread")

    monkeypatch.setattr(floquet, "_winding_map", map_spy)
    monkeypatch.setattr(floquet, "_loop_phase", loop_spy)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    window = (-np.pi, np.pi)
    pd = phase_diagram_scan(window, window, resolution, l, 256)
    monkeypatch.undo()
    ((t1s, t2s, ks, al), raw), = maps
    margin = ellipse(t1s[:, None], t2s)[0]
    near = np.abs(margin) <= floquet.ELLIPSE_GUARD * np.abs(np.cos(t2s)) / ks.size
    assert 0 < near.sum() < near.size / 10
    every = _every_cell_turns(t1s, t2s, ks, al)
    assert np.concatenate(phases).tobytes() == every[near].tobytes()
    assert raw[near].tobytes() == (every[near] / (2 * np.pi)).tobytes()
    turns = every[~near] / (2 * np.pi)
    assert np.array_equal(raw[~near], np.rint(turns))
    assert np.abs(turns - raw[~near]).max() < floquet.WINDING_RESIDUAL_MAX
    labeled = ~np.isnan(pd.winding)
    assert np.array_equal(pd.winding[labeled & ~near], -raw[labeled & ~near])


def test_loop_phase_bits_do_not_depend_on_the_width(rng):
    """Each loop has the same bits alone, as a lone column and in a wider
    array: the steps add up in momentum order, where numpy would sum a 1-D
    array or a lone column pairwise."""
    x, y = rng.uniform(-1, 1, (2, 256, 5))
    full = floquet._loop_phase(x, y)
    for j in range(5):
        assert floquet._loop_phase(x[:, j], y[:, j]) == full[j]
        assert floquet._loop_phase(x[:, j:j + 1], y[:, j:j + 1])[0] == full[j]


def test_scan_memory_does_not_grow_with_the_map():
    """At resolution 256, going from 256 to 1024 momenta raises the scan's
    traced peak by at most 8.4 MB, the block buffers of the former two-thread
    scan at 1024 momenta. The cells within the guard shrink as 1 / n_k while
    each of their loops grows as n_k, so one theta1 row's loop arrays keep
    about their size. A scan that held (momenta, resolution) row temporaries
    rose by 11.4 MB."""
    window = (-np.pi, np.pi)

    def peak(n_k):
        tracemalloc.start()
        try:
            phase_diagram_scan(window, window, 256, 0.0, n_k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1024) - peak(256) <= 8_396_800


@given(angle, st.floats(0.0, 1.0, exclude_min=True), st.booleans(), st.integers(0, 3),
       st.integers(8, 256), st.floats(0.0, 0.85))
@settings(max_examples=200, deadline=None)
@example(-1.2, 1e-6, True, 0, 8, 0.0)     # just outside the guard at 16 momenta
@example(-1.2, 1e-6, False, 2, 8, 0.2)
@example(1.1875, 0.25, True, 0, 8, 0.75)
def test_scan_label_beyond_the_guard_equals_the_numeric_windings(t1, excess, inside,
                                                                 quadrant, half_k, l):
    """A scan cell just beyond the guard, where the scan takes the ellipse's
    label without a loop, gets winding_unitary's winding on its own grid, and
    for PT-unbroken angles winding_global_berry's on 2048 momenta. theta2 is
    solved from theta1 for |margin| = (ELLIPSE_GUARD + excess) |c2| / n_k,
    inside or outside the ellipse; cells whose gap closes are skipped."""
    n_k = 2 * half_k
    c1, s1 = np.cos(t1), np.sin(t1)
    step = (floquet.ELLIPSE_GUARD + excess) / n_k
    # margin = |c2| (|s1| - |c1| |tan t2|)
    assume(c1 != 0)
    tan2 = (abs(s1) - step if inside else abs(s1) + step) / abs(c1)
    assume(tan2 > 0)
    t2 = float(np.arctan(tan2))
    t2 = (t2, -t2, np.pi - t2, t2 - np.pi)[quadrant]
    margin, expected = ellipse(t1, t2)
    assume(abs(margin) > floquet.ELLIPSE_GUARD * abs(np.cos(t2)) / n_k)
    pd = phase_diagram_scan((t1, t1 + 1), (t2, t2 + 1), 32, l, n_k)
    cell = CoinAngles(t1, t2)
    assert (pd.theta1[0], pd.theta2[0]) == (cell.theta1, cell.theta2)
    assume(pd.min_gap[0, 0] > GAP_TOL)
    label = pd.winding[0, 0]
    assert label == expected
    grid = MomentumGrid(n_k)
    try:
        assert winding_unitary(cell, grid) == label
    except TopologicalBoundaryError:
        assume(False)  # the lossless gap closes on the grid
    if pt_classify(cell, l)[0] == "unbroken":
        # the Berry links need a finer grid than the loop: at 16 momenta the
        # two routes disagree for (1.1875, 0.25, True, 0, 8, 0.75)
        assert winding_global_berry(cell, l, MomentumGrid(2048)) == label


@given(angle, angle, st.one_of(st.just(0.0), loss), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(-np.pi / 3, np.pi / 5, 0.36, 257, 0)
@example(-np.pi / 2, 3 * np.pi / 8, 0.0, 1, 1)
def test_stacked_frames_equal_per_vector_frames(theta1, theta2, l, n, seed):
    """The four frames of floquet._closed_form, formed in one stacked pass,
    equal the per-vector closed form byte for byte on every row where the
    closed form holds, lossless and lossy, at 1-300 momenta."""
    ks = np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
    _, be, d2, d3 = bloch_coefficients(CoinAngles(theta1, theta2), l, ks)
    ok, frames = floquet._closed_form(be, d2, d3)
    for got, want in zip(frames, closed_form_frames(be, d2, d3), strict=True):
        assert got.shape == want.shape == (n, 2)
        assert got[ok].tobytes() == want[ok].tobytes()


def _reference_pt_classify(angles, l, grid=MomentumGrid(2048)):
    """The former PT classification: max d0^2 over the grid samples, then a
    bounded search for the maximum around the largest one."""
    ks = grid.samples
    sq = bloch_coefficients(angles, l, ks)[0] ** 2
    i = int(np.argmax(sq))
    _, (fun,) = roots.minimize_bounded(lambda k: (-bloch_coefficients(angles, l, k)[0] ** 2,) * 2,
                                       [ks[i] - grid.spacing], [ks[i] + grid.spacing], xatol=1e-12)
    max_sq = max(float(sq[i]), float(-fun))
    return str(floquet._pt_status(max_sq)), max_sq


@given(st.floats(-2, 2), st.floats(0.01, 2), st.floats(-2, 2), st.floats(0.01, 2),
       st.floats(0.0, 0.9, exclude_max=True))
@settings(max_examples=20, deadline=None)
@example(-1.0, 2.0, -1.0, 2.0, 0.36)
def test_pt_classify_equals_scan_status(lo1, w1, lo2, w2, l):
    """The closed-form PT maximum gives each scan cell's status (windows and
    widths in units of pi)."""
    pd = phase_diagram_scan((lo1 * np.pi, (lo1 + w1) * np.pi),
                            (lo2 * np.pi, (lo2 + w2) * np.pi), 32, l, 16)
    for i, j in np.ndindex(pd.pt_status.shape):
        angles = (pd.theta1[i], pd.theta2[j])
        assert pt_classify(angles, l)[0] == pd.pt_status[i, j], (angles, l)


@given(angle, angle, st.floats(0.0, 0.9, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_pt_classify_equals_grid_search(t1, t2, l):
    status, max_sq = pt_classify((t1, t2), l)
    ref_status, ref_sq = _reference_pt_classify((t1, t2), l)
    assert status == ref_status
    assert abs(max_sq - ref_sq) <= 1e-15


def test_phase_diagram_resolution_floor():
    with pytest.raises(ConfigError):
        phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), 16, 0.0, 256)


def test_phase_diagram_resolution_cap(monkeypatch):
    def started(*args):
        raise AssertionError("the scan started")

    # refused by the check alone: a scan that got past it fails at once
    monkeypatch.setattr(floquet, "MomentumGrid", started)
    with pytest.raises(ConfigError, match="resolution"):
        phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), MAX_RESOLUTION + 1, 0.0, 256)


def test_tuple_angles_accepted():
    assert winding_unitary((np.pi / 4, -np.pi / 2), MomentumGrid(2048)) == 0
    assert pt_classify((-np.pi / 3, np.pi / 5), 0.36)[0] == "unbroken"
    d0, be, d2, d3 = bloch_coefficients((0.3, 0.4), 0.0, 0.1)
    m = floquet._bloch_matrices(d0, 1j * be, d2, d3)
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12


@given(angle, angle, st.floats(0.0, 0.9, exclude_max=True),
       st.lists(momentum, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_eigensystem_rows_equal_single_momentum_solves(t1, t2, l, ks):
    """Batch independence: every row of one eigensystem_arrays call has the
    bits of that momentum solved alone, on either path."""
    a = CoinAngles(t1, t2)
    try:
        arr = eigensystem_arrays(a, l, np.array(ks))
    except DegenerateSpectrumError:
        return
    for i, k in enumerate(ks):
        one = eigensystem_arrays(a, l, np.array([k]))
        for name in ("d0", "energy", "lambda_plus", "lambda_minus", "psi_p", "psi_m",
                     "chi_p", "chi_m", "closed_form"):
            assert arr[name][i].tobytes() == one[name][0].tobytes(), name


def _generic_row(d0, d1, d2, d3):
    """The generic solve of one sector as written before it was batched: one
    np.linalg.eig and one np.linalg.inv per matrix, (lambda_plus,
    lambda_minus) order, each right vector normalized and rotated so its
    largest component is real positive."""
    lam_p = d0 - 1j * np.sqrt((1 - d0) * (1 + d0) + 0j)
    lam, right = np.linalg.eig(floquet._bloch_matrices(d0, d1, d2, d3))
    if abs(lam[0] - lam_p) > abs(lam[1] - lam_p):
        lam = lam[::-1]
        right = right[:, ::-1]
    for j in range(2):
        col = right[:, j]
        col = col / np.linalg.norm(col)
        piv = col[np.argmax(np.abs(col))]
        right[:, j] = col * (abs(piv) / piv)
    return lam, right, np.linalg.inv(right)


@given(angle, angle, st.floats(0.0, 0.95, exclude_max=True),
       st.lists(momentum, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
@example(0.3 * np.pi, -0.6 * np.pi, 0.6, list(np.linspace(-np.pi, np.pi, 40)))
@example(0.0, 0.0, 0.34375, [0.03125])  # pivot moduli tie up to the last bit
def test_batched_generic_equals_row_reference(t1, t2, l, ks):
    """One stacked generic solve gives each row the bits of its own solve,
    directly and inside eigensystem_arrays."""
    a = CoinAngles(t1, t2)
    d0, be, d2, d3 = bloch_coefficients(a, l, np.array(ks))
    gapped = (np.abs(d0 - 1) >= GAP_TOL) & (np.abs(d0 + 1) >= GAP_TOL)
    try:
        want = [_generic_row(d0[i], 1j * be[i], d2[i], d3[i]) for i in np.nonzero(gapped)[0]]
        lam, right, left = floquet._generic(d0[gapped], 1j * be[gapped], d2[gapped],
                                            d3[gapped])
        arr = eigensystem_arrays(a, l, np.array(ks)[gapped])
    except DegenerateSpectrumError:
        return
    for i, (lam_i, right_i, left_i) in enumerate(want):
        assert lam[i].tobytes() == lam_i.tobytes()
        assert right[i].tobytes() == right_i.tobytes()
        assert left[i].tobytes() == left_i.tobytes()
        if not arr["closed_form"][i]:
            for name, v in (("psi_p", right_i[:, 0]), ("psi_m", right_i[:, 1]),
                            ("chi_p", left_i[0]), ("chi_m", left_i[1])):
                assert arr[name][i].tobytes() == v.tobytes(), name
