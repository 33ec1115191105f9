"""Every CSV file, the phase-map SVG and the line chart against references
that format each element on its own: the same bytes for the same input. The
CSV references join per-element f"{x:.12g}" texts with "," and "\r\n" by
hand; the SVG references format every cell and point on its own, as the
writers did before each distinct text was formatted once and shared."""
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqptwalk import cli, svgplot
from dqptwalk.analysis import DtopTrace, RateTrace
from dqptwalk.floquet import PhaseDiagram, phase_diagram_scan
from dqptwalk.measurement import ErrorBarResult
from dqptwalk.quench import LoschmidtField, PositionEvolution
from dqptwalk.svgplot import H, MB, ML, MR, MT, PALETTE, W, _Canvas, _finite_span, _frame

NAN = float("nan")


def _g(x):
    return f"{x:.12g}"


def _write_rows(path, header, rows):
    """header and rows of cell texts, joined with "," and CRLF line ends."""
    text = "".join(",".join(cells) + "\r\n" for cells in [header, *rows])
    Path(path).write_bytes(text.encode())


def _cell_angles(pd):
    """theta1 and theta2 of every cell, as (resolution, resolution) maps."""
    return np.meshgrid(pd.theta1, pd.theta2, indexing="ij")


def _reference_write_csv(path, pd):
    rows = []
    for t1, t2, w, status, gap in zip(*(np.ravel(a).tolist() for a in (
            *_cell_angles(pd), pd.winding, pd.pt_status, pd.min_gap))):
        rows.append([_g(t1), _g(t2), _g(pd.loss), "" if np.isnan(w) else str(int(w)),
                     status, _g(gap)])
    _write_rows(path, ["theta1", "theta2", "loss", "winding", "pt_status", "min_gap"], rows)


def _reference_loschmidt_csv(path, field):
    _write_rows(path, ["k", "t", "re_G", "im_G", "abs_G"], [
        [_g(k), _g(t), _g(z.real), _g(z.imag), _g(abs(z))]
        for k, g in zip(field.k.tolist(), field.values.tolist())
        for t, z in zip(field.times.tolist(), g)])


def _reference_field_csv(path, evo):
    rows = []
    for t, st_ in enumerate(evo.states):
        h, v = st_[0].tolist()
        rows += [[str(t), str(i - 2 * t), _g(a.real), _g(a.imag), _g(b.real), _g(b.imag)]
                 for i, (a, b) in enumerate(zip(h, v))]
    _write_rows(path, ["t", "x", "re_H", "im_H", "re_V", "im_V"], rows)


def _reference_rate_csv(path, trace):
    _write_rows(path, ["t", "g"], [[_g(t), _g(g)] for t, g in
                                   zip(trace.times.tolist(), trace.values.tolist())])


def _reference_dtop_csv(path, traces):
    _write_rows(path, ["m", "t", "value"], [
        [str(tr.sector), _g(t), _g(v) if np.isfinite(v) else ""]
        for tr in traces for t, v in zip(tr.times.tolist(), tr.values.tolist())])


def _reference_errorbars_csv(path, result):
    _write_rows(path, ["quantity", "t", "center", "err_plus", "err_minus", "n_samples", "seed"],
                [[q, _g(t), _g(c), _g(ep), _g(em), str(result.n_samples), str(result.seed)]
                 for q, t, c, ep, em in result.rows])


def _reference_color(w, status):
    if np.isnan(w):
        return "#b0b0b0" if status == "boundary" else "#707070"
    table = {0: "#f2f2e8", -2: "#3a6fb0", 2: "#c04a3a", -1: "#7fa8d0",
             1: "#d08a7f", -4: "#1d3a60", 4: "#6e2218"}
    return table.get(int(w), "#caa0d0")


def _reference_phase_map(path, diagram, title=""):
    res = diagram.resolution
    cw = (W - ML - MR) / res
    ch = (H - MT - MB) / res
    cv = _Canvas(title, "theta1", "theta2")
    i1, i2 = (np.unique(a.ravel(), return_inverse=True)[1].reshape(res, res)
              for a in _cell_angles(diagram))

    def rows():
        for row in zip(i1.tolist(), i2.tolist(), diagram.winding.tolist(),
                       diagram.pt_status.tolist()):
            yield "\n".join(f'<rect x="{ML + c1 * cw:.1f}" y="{H - MB - (c2 + 1) * ch:.1f}" '
                            f'width="{cw + 0.5:.1f}" height="{ch + 0.5:.1f}" '
                            f'fill="{_reference_color(w, status)}"/>'
                            for c1, c2, w, status in zip(*row))
        yield (f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" '
               f'height="{H - MT - MB}" fill="none" stroke="#333"/>')

    cv.finish(path, rows())


def _reference_line_chart(path, series, vlines=(), title="", xlabel="t", ylabel=""):
    series = [(lab, np.asarray(x, float), np.asarray(y, float))
              for lab, x, y in series]
    xlo, xhi = _finite_span([x for _, x, _ in series])
    ylo, yhi = _finite_span([y for _, _, y in series])
    cv = _Canvas(title, xlabel, ylabel)
    sx, sy = _frame(cv, xlo, xhi, ylo, yhi)
    for v in vlines:
        if xlo <= v <= xhi:
            px = sx(v)
            cv.parts.append(f'<line x1="{px:.1f}" y1="{MT}" x2="{px:.1f}" '
                            f'y2="{H - MB}" stroke="#888" stroke-dasharray="4 3"/>')
    for i, (label, x, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = []
        chunks = []
        for xi, yi in zip(x, y):
            if np.isfinite(yi):
                pts.append(f"{sx(xi):.1f},{sy(yi):.1f}")
            elif pts:
                chunks.append(pts)
                pts = []
        if pts:
            chunks.append(pts)
        for ch in chunks:
            cv.parts.append(f'<polyline points="{" ".join(ch)}" fill="none" '
                            f'stroke="{color}" stroke-width="1.4"/>')
        if label:
            ly = MT + 14 + 14 * i
            cv.parts.append(f'<line x1="{W - MR - 90}" y1="{ly - 4}" '
                            f'x2="{W - MR - 70}" y2="{ly - 4}" stroke="{color}" '
                            f'stroke-width="2"/>')
            cv.parts.append(f'<text x="{W - MR - 65}" y="{ly}" '
                            f'font-family="sans-serif" font-size="11">{label}</text>')
    cv.finish(path)


def _write(path, artifact):
    artifact.write_csv(path)


def _same_bytes(write, reference, *args, **kwargs):
    with tempfile.TemporaryDirectory() as d:
        new, old = Path(d) / "new", Path(d) / "old"
        write(new, *args, **kwargs)
        reference(old, *args, **kwargs)
        return new.read_bytes() == old.read_bytes()


def _diagram(theta1, theta2, winding, status, gap, loss=0.2):
    return PhaseDiagram(*(np.array(a, dtype=float) for a in (theta1, theta2, winding)),
                        np.array(status), np.array(gap, dtype=float), loss)


# both zeros, repeats, both NaN signs and windings off the colour table
ANGLE = st.sampled_from([0.0, -0.0, np.pi, -np.pi, 0.5, 1 / 3, NAN, -NAN]) | st.floats(-4, 4)
WINDING = st.sampled_from([NAN, -NAN, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0,
                           4.0, -4.0, 6.0, -6.0])
STATUS = st.sampled_from(["unbroken", "broken", "boundary"])
GAP = st.sampled_from([0.0, -0.0, 1e-9]) | st.floats(0, 2)
LOSS = st.sampled_from([0.0, -0.0, 0.2, 0.36])


@st.composite
def diagrams(draw):
    res = draw(st.integers(1, 6))

    def grid(elements):
        return np.array(draw(st.lists(elements, min_size=res * res, max_size=res * res)),
                        dtype=object).reshape(res, res).tolist()

    t1s, t2s = (draw(st.lists(ANGLE, min_size=res, max_size=res)) for _ in range(2))
    return _diagram(t1s, t2s, grid(WINDING), grid(STATUS), grid(GAP), draw(LOSS))


# each zero in both orders: a cache keyed by value writes one text for both
SIGNED_ZEROS = _diagram([0.0, -0.0], [-0.0, 0.0],
                        [[0.0, -0.0], [NAN, -NAN]], [["boundary", "broken"], ["boundary", "unbroken"]],
                        [[-0.0, 0.0], [0.0, -0.0]], -0.0)


# one gap bit pattern under other windings and statuses (a text cache keyed
# by gap alone writes one tail for all), both NaN signs of gap and winding in
# one row, and a row whose cells are all distinct
SHARED_GAP = _diagram([0.5, 1.0, 1.5], [0.1, 0.2, 0.3],
                      [[2.0, -2.0, 2.0], [NAN, -NAN, 1.0], [1.0, -1.0, 0.0]],
                      [["unbroken", "unbroken", "broken"], ["boundary", "boundary", "unbroken"],
                       ["unbroken", "broken", "boundary"]],
                      [[0.25, 0.25, 0.25], [NAN, -NAN, 0.25], [0.1, 0.2, 0.3]])


def _late_rows():
    """20 rows: the last 4, after the writer's first block of 16 rows, add gaps
    and windings whose bits sort below the ones seen before them."""
    rng = np.random.default_rng(7)

    def cells(first, later):
        return np.concatenate((rng.choice(np.array(first, dtype=object), (16, 20)),
                               rng.choice(np.array(first + later, dtype=object), (4, 20)))).tolist()

    return _diagram(np.linspace(-3, 3, 20), np.linspace(-1, 1, 20),
                    cells([0.0, 2.0, NAN], [-0.0, -2.0, -NAN, 1.0]),
                    cells(["unbroken", "broken", "boundary"], []),
                    cells([1e-9, 0.1 + 0.2, 1.5, NAN], [-0.0, 0.0, 5e-324, -NAN, 0.75]))


LATE_ROWS = _late_rows()


@given(diagrams())
@example(SIGNED_ZEROS)
@example(SHARED_GAP)
@example(LATE_ROWS)
@settings(max_examples=200, deadline=None)
def test_phase_diagram_csv_bytes(pd):
    assert _same_bytes(_write, _reference_write_csv, pd)


@given(diagrams(), st.sampled_from(["", "winding map, loss=0.2"]))
@example(SIGNED_ZEROS, "")
@settings(max_examples=200, deadline=None)
def test_phase_map_svg_bytes(pd, title):
    assert _same_bytes(svgplot.phase_map, _reference_phase_map, pd, title=title)


@pytest.mark.parametrize("theta1_range, theta2_range, resolution, loss, n_k", [
    ((-np.pi, np.pi), (-np.pi / 2, np.pi / 2), 32, 0.2, 32),
    # windows across the +-pi seam, where the wrapped angles rank out of index order
    ((0, 2 * np.pi), (-np.pi / 2, 3 * np.pi / 2), 33, 0.0, 64),
    ((0, 2 * np.pi), (-np.pi / 2, 3 * np.pi / 2), 33, 0.5, 64),
], ids=["centred", "seam-lossless", "seam-loss05"])
def test_scanned_map_bytes(theta1_range, theta2_range, resolution, loss, n_k):
    pd = phase_diagram_scan(theta1_range, theta2_range, resolution, loss, n_k)
    assert _same_bytes(_write, _reference_write_csv, pd)
    assert _same_bytes(svgplot.phase_map, _reference_phase_map, pd, title="map")


def test_map_emit_memory_does_not_hold_whole_map_angles(tmp_path):
    """At resolution 256 and loss 0.2, one call after a warm-up, the SVG
    traces at most 3.0 MB and the CSV at most 0.6 MB above entry: 2.28 and
    1.07 MB with one text per axis value, 3.74 and 2.13 MB when the two
    angles were (resolution, resolution) maps that the SVG ranked and the
    CSV formatted cell by cell; the CSV writer that formats each distinct
    tail once, 16 rows at a time, traces 0.46 MB."""
    pd = phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), 256, 0.2, 256)

    def peak(write, path):
        write(path)
        tracemalloc.start()
        try:
            write(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda p: svgplot.phase_map(p, pd, title="map"), tmp_path / "map.svg") \
        <= 3_000_000
    assert peak(pd.write_csv, tmp_path / "map.csv") <= 600_000


def test_scan_status_is_a_three_value_category():
    """At resolution 256 and loss 0.2 the status map holds 8 bytes a cell,
    references to three shared strings (a '<U8' map held 32), and the scan
    traces at most 5.0 MB: 4.33 MB against 5.91 MB with the '<U8' map."""
    def scan():
        return phase_diagram_scan((-np.pi, np.pi), (-np.pi, np.pi), 256, 0.2, 256)

    pd = scan()
    assert pd.pt_status.nbytes <= 8 * pd.pt_status.size
    assert len({id(s) for s in pd.pt_status.ravel().tolist()}) <= 3
    assert set(pd.pt_status.ravel().tolist()) <= {"unbroken", "broken", "boundary"}
    tracemalloc.start()
    try:
        scan()
        assert tracemalloc.get_traced_memory()[1] <= 5_000_000
    finally:
        tracemalloc.stop()


Y = st.sampled_from([NAN, np.inf, -np.inf, 0.0, -0.0, 1.0]) | st.floats(-1e3, 1e3)
X = st.floats(-10, 10) | st.just(NAN)


@st.composite
def curves(draw):
    n = draw(st.integers(0, 40))
    x = draw(st.lists(X, min_size=n, max_size=n))
    if draw(st.booleans()):
        x = sorted(x)
    return draw(st.sampled_from(["", "sector 1"])), x, draw(st.lists(Y, min_size=n, max_size=n))


T8 = np.linspace(0, 7, 8)


@given(st.lists(curves(), min_size=1, max_size=3), st.lists(st.floats(-20, 20), max_size=3))
@example([("nan at both ends and in runs", T8, [NAN, 1, 2, NAN, NAN, 3, 4, NAN])], [])
@example([("", T8, [NAN] * 8), ("a", T8, [NAN, NAN, NAN, 5, NAN, NAN, NAN, NAN])], [])
@example([("constant", T8, [2.0] * 8), ("", T8, [-np.inf, 2, np.inf, 2, 2, 2, 2, 2])],
         [-100.0, 3.5, 100.0])
@settings(max_examples=200, deadline=None)
def test_line_chart_bytes(series, vlines):
    assert _same_bytes(svgplot.line_chart, _reference_line_chart, series, vlines,
                       title="t", ylabel="g(t)")



# both zeros, both infinities, NaN, a subnormal, a large and a small power of
# ten, an exact 12-digit rounding tie each way, and a 17-digit value
SPECIAL = [0.0, -0.0, np.inf, -np.inf, NAN, 5e-324, 1e16, 1e-5,
           123456789012.5, 123456789013.5, 0.1 + 0.2]
SPECIALS = np.array(SPECIAL)
VALUE = st.sampled_from(SPECIAL) | st.floats()
# |G| of finite parts must not overflow: Python's abs raises there
AMPLITUDE = st.sampled_from(SPECIAL) | st.floats(-1e300, 1e300)
# 1-row blocks and blocks of many rows
ROWS = st.integers(1, 12)


def _table(draw, r, c, values=VALUE):
    return np.array(draw(st.lists(values, min_size=r * c, max_size=r * c)),
                    dtype=float).reshape(r, c)


def _complex(re, im):
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


@st.composite
def fields(draw):
    n_k, n_t = draw(st.integers(1, 4)), draw(ROWS)
    k, t = _table(draw, 1, n_k)[0], _table(draw, 1, n_t)[0]
    return LoschmidtField(k, t, _complex(*_table(draw, 2 * n_k, n_t, AMPLITUDE).reshape(2, n_k, n_t)))


@given(fields())
# one momentum of many times, and many momenta of one time each
@example(LoschmidtField(SPECIALS[:1], SPECIALS, _complex(SPECIALS[None], SPECIALS[None, ::-1])))
@example(LoschmidtField(SPECIALS, SPECIALS[:1], _complex(SPECIALS[:, None], SPECIALS[::-1, None])))
@settings(max_examples=50, deadline=None)
def test_loschmidt_csv_bytes(field):
    assert _same_bytes(_write, _reference_loschmidt_csv, field)


@st.composite
def walks(draw):
    # states[t] is the (1, 2, 4t + 1) field; H and V each from a real and an imaginary row
    return PositionEvolution(None, tuple(
        _complex(*_table(draw, 4, 4 * t + 1).reshape(2, 2, 4 * t + 1))[None]
        for t in range(draw(st.integers(1, 3)))))


@given(walks())
@example(PositionEvolution(None, (_complex(SPECIALS[:2, None], SPECIALS[2:4, None])[None],
                                  _complex(np.resize(SPECIALS, (2, 5)),
                                           np.resize(SPECIALS[::-1], (2, 5)))[None])))
@settings(max_examples=50, deadline=None)
def test_field_csv_bytes(evo):
    assert _same_bytes(_write, _reference_field_csv, evo)


@st.composite
def rates(draw):
    return RateTrace(*_table(draw, 2, draw(ROWS)))


@given(rates())
@example(RateTrace(SPECIALS, SPECIALS[::-1]))
@example(RateTrace(np.array([0.0]), np.array([np.inf])))
@settings(max_examples=50, deadline=None)
def test_rate_csv_bytes(trace):
    assert _same_bytes(cli._write_rate_csv, _reference_rate_csv, trace)


@given(st.lists(rates(), min_size=1, max_size=4))
@example([RateTrace(np.array([0.5]), np.array([NAN])), RateTrace(SPECIALS, SPECIALS[::-1])])
@settings(max_examples=50, deadline=None)
def test_dtop_csv_bytes(parts):
    # a non-finite value writes an empty cell
    traces = [DtopTrace(m + 1, tr.times, tr.values) for m, tr in enumerate(parts)]
    assert _same_bytes(cli._write_dtop_csv, _reference_dtop_csv, traces)


@st.composite
def error_bars(draw):
    cells = _table(draw, draw(st.integers(0, 12)), 4).tolist()
    quantities = draw(st.lists(st.sampled_from(["dtop", "rate", "pbar"]),
                               min_size=len(cells), max_size=len(cells)))
    return ErrorBarResult(tuple(zip(quantities, *zip(*cells))) if cells else (),
                          draw(st.integers(100, 10**6)), draw(st.integers(0, 2**63)))


@given(error_bars())
@example(ErrorBarResult(tuple(("dtop", *[x] * 4) for x in SPECIAL), 100, 0))
@example(ErrorBarResult((("rate", *SPECIAL[4:8]),), 1000, 2**63 - 1))
@settings(max_examples=50, deadline=None)
def test_errorbars_csv_bytes(result):
    assert _same_bytes(_write, _reference_errorbars_csv, result)


@given(VALUE)
def test_g12_template_equals_format(x):
    """The writers' %-templates print each value as f"{x:.12g}" would."""
    assert "%.12g" % x == f"{x:.12g}"


@given(st.integers())
def test_d_template_equals_str(n):
    assert "%d" % n == str(n)
