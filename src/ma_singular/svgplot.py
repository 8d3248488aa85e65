"""Minimal deterministic SVG output.

Hand-rolled on purpose: the plots must be byte-identical across repeat
runs, so every coordinate is formatted with a fixed "%.6f" and nothing
environment-dependent (fonts, timestamps, library versions) is embedded.
"""

from __future__ import annotations

import numpy as np

__all__ = ["curves_overlay_svg", "image_curves_svg", "residual_strip_svg"]

_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8e44ad", "#b8860b", "#444444")

_SIZE = 640
_MARGIN = 40

#: Most levels ``image_curves_svg`` draws and most node columns
#: ``residual_strip_svg`` draws; longer axes are evenly strided.
_MAX_LEVELS = 24
_MAX_COLS = 128

#: The log10 |residual| range of the heat strip's colour scale.
_LOG_LO = -12.0
_LOG_HI = 0.0


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
        f'<title>{title}</title>',
    ]


def _data_transform(points_list):
    """Map data coordinates to pixels, preserving aspect, with margin."""
    all_pts = np.concatenate([np.asarray(p, dtype=float) for p in points_list])
    finite = all_pts[np.all(np.isfinite(all_pts), axis=1)]
    if finite.size == 0:
        finite = np.zeros((1, 2))
    lo = finite.min(axis=0)
    hi = finite.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (_SIZE - 2 * _MARGIN) / span
    center = 0.5 * (lo + hi)

    def to_px(pts):
        pts = np.asarray(pts, dtype=float)
        px = _MARGIN + (_SIZE - 2 * _MARGIN) / 2 + (pts[:, 0] - center[0]) * scale
        py = _MARGIN + (_SIZE - 2 * _MARGIN) / 2 - (pts[:, 1] - center[1]) * scale
        return px, py

    return to_px


def _polyline(px, py, color: str, width: float, closed: bool) -> str:
    points = np.column_stack([px, py]).ravel().tolist()
    coords = " ".join(["%.6f,%.6f"] * len(px)) % tuple(points)
    tag = "polygon" if closed else "polyline"
    return (f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>')


def curves_overlay_svg(curves) -> str:
    """Overlay closed curves given as (label, (n, 2) points) pairs."""
    to_px = _data_transform([pts for _, pts in curves])
    parts = _header("curves")
    legend_y = _MARGIN
    for i, (label, pts) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        px, py = to_px(np.asarray(pts, dtype=float))
        parts.append(_polyline(px, py, color, 1.5, closed=True))
        parts.append(f'<text x="{_MARGIN}" y="{legend_y}" fill="{color}" '
                     f'font-size="14">{label}</text>')
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def image_curves_svg(x: np.ndarray, y: np.ndarray) -> str:
    """The family of image curves (x, y)(., v_k) nesting around the origin.

    ``x`` and ``y`` have shape (levels, n_u); at most ``_MAX_LEVELS`` are
    drawn, evenly strided, innermost lightest.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_levels = x.shape[0]
    stride = max(1, int(np.ceil(n_levels / _MAX_LEVELS)))
    rows = list(range(0, n_levels, stride))
    if rows[-1] != n_levels - 1:
        rows.append(n_levels - 1)
    pts = [np.column_stack([x[k], y[k]]) for k in rows]
    to_px = _data_transform(pts + [np.zeros((1, 2))])
    parts = _header("image curves")
    for i, (k, p) in enumerate(zip(rows, pts)):
        shade = 0.25 + 0.75 * (i / max(len(rows) - 1, 1))
        level = int(round(120 * (1 - shade)))
        color = f"#{level:02x}{level:02x}{int(round(90 + 130 * shade)):02x}"
        px, py = to_px(p)
        parts.append(_polyline(px, py, color, 1.0, closed=True))
    ox, oy = to_px(np.zeros((1, 2)))
    parts.append(f'<circle cx="{_fmt(ox[0])}" cy="{_fmt(oy[0])}" r="3" '
                 f'fill="#c23b22"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


#: Heat-map colour stops at t = 0 (blue), 0.5 (near-white) and 1 (red).
_HEAT_STOPS = np.array([[0x21, 0x66, 0xac], [0xf7, 0xf7, 0xf7],
                        [0xb2, 0x18, 0x2b]])

#: Fill of cells whose residual is not finite.
_NAN_FILL = 0xd9d9d9


def _heat_rgb(t: np.ndarray) -> np.ndarray:
    """0xRRGGBB per entry of t, clipped to [0, 1]; linear in RGB per half."""
    t = np.clip(t, 0.0, 1.0)
    r, g, b = (np.rint(np.interp(t, (0.0, 0.5, 1.0), stop)).astype(np.int64)
               for stop in _HEAT_STOPS.T)
    return (r << 16) | (g << 8) | b


def _texts(template: str, values: np.ndarray) -> np.ndarray:
    """``template % value`` for each value, as an object array."""
    return np.array([template % value for value in values.tolist()],
                    dtype=object)


def residual_strip_svg(residuals: np.ndarray, v: np.ndarray) -> str:
    """Heat strip of log10 |residual| over (level, node); NaN cells gray."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    n_levels, n_u = residuals.shape
    stride = max(1, int(np.ceil(n_u / _MAX_COLS)))
    grid = residuals[:, ::stride]
    n_cols = grid.shape[1]
    cell_w = (_SIZE - 2 * _MARGIN) / n_cols
    cell_h = (_SIZE - 2 * _MARGIN) / n_levels
    finite = np.isfinite(grid)
    mag = np.log10(np.maximum(np.abs(np.where(finite, grid, 0.0)),
                              10.0 ** _LOG_LO))
    fill = np.where(finite, _heat_rgb((mag - _LOG_LO) / (_LOG_HI - _LOG_LO)),
                    _NAN_FILL)
    # Each column's x, each level's y and each distinct fill is formatted
    # once; the text of a cell joins the three.
    xs = _MARGIN + np.arange(n_cols) * cell_w
    ys = _SIZE - _MARGIN - np.arange(1, n_levels + 1) * cell_h
    fills, index = np.unique(fill, return_inverse=True)
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="#'
    pieces = np.empty((n_levels, n_cols, 3), dtype=object)
    pieces[..., 0] = _texts('<rect x="%.6f" y="', xs)
    pieces[..., 1] = _texts("%.6f" + size, ys)[:, None]
    pieces[..., 2] = _texts('%06x"/>\n', fills)[index.reshape(fill.shape)]
    rects = "".join(pieces.ravel().tolist())[:-1]
    parts = _header("residual")
    parts.append(rects)
    parts.append(f'<text x="{_MARGIN}" y="{_SIZE - 12}" fill="#444444" '
                 f'font-size="12">v from {v[0]:.4g} to {v[-1]:.4g}, '
                 f'log10 scale {_LOG_LO:g}..{_LOG_HI:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
