"""Minimal static SVG output: line charts with event markers, error-bar
charts, and a winding-number heat map. No drawing toolkit, just shapes."""
from __future__ import annotations

import numpy as np

from .lattice import _shared_text

PALETTE = ("#2060a8", "#c03020", "#208040", "#9040a0", "#c08020", "#508090")
W, H = 720, 420
ML, MR, MT, MB = 62, 16, 34, 46


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 6
    mag = 10 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    t0 = np.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 else float(t))
        t += step
    return out


class _Canvas:
    def __init__(self, title, xlabel, ylabel):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{W / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
            f'<text x="{(ML + W - MR) / 2}" y="{H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>',
            f'<text x="14" y="{(MT + H - MB) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(MT + H - MB) / 2})">{ylabel}</text>',
        ]

    def finish(self, path, body=()):
        """Write the parts, then each element of body as it is generated,
        so a large drawing is never held as one list of strings."""
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts))
            fh.writelines("\n" + part for part in body)
            fh.write("\n</svg>")


def _frame(cv, xlo, xhi, ylo, yhi):
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    sx = lambda x: ML + (x - xlo) / (xhi - xlo) * (W - ML - MR)
    sy = lambda y: H - MB - (y - ylo) / (yhi - ylo) * (H - MT - MB)
    cv.parts.append(f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" '
                    f'height="{H - MT - MB}" fill="none" stroke="#333"/>')
    for t in _ticks(xlo, xhi):
        px = sx(t)
        cv.parts.append(f'<line x1="{px:.1f}" y1="{H - MB}" x2="{px:.1f}" '
                        f'y2="{H - MB + 4}" stroke="#333"/>')
        cv.parts.append(f'<text x="{px:.1f}" y="{H - MB + 16}" text-anchor="middle" '
                        f'font-family="sans-serif" font-size="10">{t:.6g}</text>')
    for t in _ticks(ylo, yhi):
        py = sy(t)
        cv.parts.append(f'<line x1="{ML - 4}" y1="{py:.1f}" x2="{ML}" '
                        f'y2="{py:.1f}" stroke="#333"/>')
        cv.parts.append(f'<text x="{ML - 7}" y="{py + 3:.1f}" text-anchor="end" '
                        f'font-family="sans-serif" font-size="10">{t:.6g}</text>')
    return sx, sy


def _finite_span(arrs):
    vals = np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrs]) \
        if arrs else np.array([])
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return 0.0, 1.0
    lo, hi = float(vals.min()), float(vals.max())
    pad = 0.05 * (hi - lo) or 0.5
    return lo - pad, hi + pad


def line_chart(path, series, vlines, title, ylabel):
    """series: iterable of (label, x, y). Non-finite y breaks the line;
    vlines draw dashed event markers."""
    series = [(lab, np.asarray(x, float), np.asarray(y, float))
              for lab, x, y in series]
    xlo, xhi = _finite_span([x for _, x, _ in series])
    ylo, yhi = _finite_span([y for _, _, y in series])
    cv = _Canvas(title, "t", ylabel)
    sx, sy = _frame(cv, xlo, xhi, ylo, yhi)
    for v in vlines:
        if xlo <= v <= xhi:
            px = sx(v)
            cv.parts.append(f'<line x1="{px:.1f}" y1="{MT}" x2="{px:.1f}" '
                            f'y2="{H - MB}" stroke="#888" stroke-dasharray="4 3"/>')
    for i, (label, x, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # sx and sy over whole arrays are the IEEE operations of one point,
        # in the same order, so the same bits
        px, py = sx(x).tolist(), sy(y).tolist()
        # a non-finite y breaks the line: one polyline per run of finite ones
        edges = np.flatnonzero(np.diff(np.r_[0, np.isfinite(y), 0])).tolist()
        for a, b in zip(edges[::2], edges[1::2]):
            pts = " ".join(f"{u:.1f},{v:.1f}" for u, v in zip(px[a:b], py[a:b]))
            cv.parts.append(f'<polyline points="{pts}" fill="none" '
                            f'stroke="{color}" stroke-width="1.4"/>')
        if label:
            ly = MT + 14 + 14 * i
            cv.parts.append(f'<line x1="{W - MR - 90}" y1="{ly - 4}" '
                            f'x2="{W - MR - 70}" y2="{ly - 4}" stroke="{color}" '
                            f'stroke-width="2"/>')
            cv.parts.append(f'<text x="{W - MR - 65}" y="{ly}" '
                            f'font-family="sans-serif" font-size="11">{label}</text>')
    cv.finish(path)


def errorbar_chart(path, rows, title, ylabel):
    """rows: (t, center, err_plus, err_minus) tuples for one quantity."""
    rows = sorted(rows)
    ts = np.array([r[0] for r in rows])
    cs = np.array([r[1] for r in rows])
    up = cs + np.array([r[2] for r in rows])
    dn = cs - np.array([r[3] for r in rows])
    xlo, xhi = _finite_span([ts])
    ylo, yhi = _finite_span([cs, up, dn])
    cv = _Canvas(title, "t", ylabel)
    sx, sy = _frame(cv, xlo, xhi, ylo, yhi)
    color = PALETTE[0]
    for t, c, u, d in zip(ts, cs, up, dn):
        if not np.isfinite(c):
            continue
        px = sx(t)
        cv.parts.append(f'<line x1="{px:.1f}" y1="{sy(d):.1f}" x2="{px:.1f}" '
                        f'y2="{sy(u):.1f}" stroke="{color}"/>')
        for yy in (u, d):
            cv.parts.append(f'<line x1="{px - 3:.1f}" y1="{sy(yy):.1f}" '
                            f'x2="{px + 3:.1f}" y2="{sy(yy):.1f}" stroke="{color}"/>')
        cv.parts.append(f'<circle cx="{px:.1f}" cy="{sy(c):.1f}" r="2.5" '
                        f'fill="{color}"/>')
    cv.finish(path)


def _winding_color(w, boundary):
    if np.isnan(w):
        return "#b0b0b0" if boundary else "#707070"
    table = {0: "#f2f2e8", -2: "#3a6fb0", 2: "#c04a3a", -1: "#7fa8d0",
             1: "#d08a7f", -4: "#1d3a60", 4: "#6e2218"}
    return table.get(int(w), "#caa0d0")


def phase_map(path, diagram, title):
    """Winding heat map of a PhaseDiagram; boundary cells gray."""
    res = diagram.resolution
    cw = (W - ML - MR) / res
    ch = (H - MT - MB) / res
    cv = _Canvas(title, "theta1", "theta2")
    # a cell is head + mid + fill; each is formatted once: the x of each
    # column, the y of each row with the one size, the colour of each
    # distinct (winding, boundary) pair. theta1[i] sits in the column and
    # theta2[j] in the row of its rank among its axis's distinct values.
    u1, i1 = np.unique(diagram.theta1, return_inverse=True)
    u2, i2 = np.unique(diagram.theta2, return_inverse=True)
    head = np.array([f'<rect x="{ML + c * cw:.1f}" y="' for c in range(len(u1))], dtype=object)[i1]
    mid = np.array([f'{H - MB - (c + 1) * ch:.1f}" width="{cw + 0.5:.1f}" '
                    f'height="{ch + 0.5:.1f}" fill="' for c in range(len(u2))], dtype=object)[i2]
    boundary = diagram.pt_status == "boundary"
    fill = np.empty(boundary.shape, dtype=object)
    for mask, flag in ((boundary, True), (~boundary, False)):
        fill[mask] = _shared_text(diagram.winding[mask], lambda w: f'{_winding_color(w, flag)}"/>')

    def rows():
        # one string per theta1 row: few writes, and never the whole map at once
        for h, f in zip(head.tolist(), fill):
            yield "\n".join((h + mid + f).tolist())
        yield (f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" '
               f'height="{H - MT - MB}" fill="none" stroke="#333"/>')

    cv.finish(path, rows())
