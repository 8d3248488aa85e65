"""Artifact text (strip CSV, patch CSV, SVG) against per-cell reference code.

The writers format whole arrays at once; the reference functions below
format one cell at a time, the way the artifacts were first written.  The
two must agree byte for byte on every input, including NaN, infinities,
signed zeros, subnormals and values at the heat-map clip edges.
"""

import dataclasses
import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ma_singular.cli import _strip_csv
from ma_singular.coeffs import builtin_field
from ma_singular.curves import builtin_curve
from ma_singular.geometry import (
    _CSV_CHUNK_CELLS,
    RESIDUAL_J_FLOOR,
    GraphPatch,
    _format_17g,
    patch_from_csv,
    patch_to_csv,
    reconstruct_graph,
    strip_from_csv,
)
from ma_singular.march import MarchParams, StripSolution, march
from ma_singular.svgplot import (
    _MARGIN,
    _SIZE,
    _fmt,
    _header,
    _polyline,
    residual_strip_svg,
)

PATCH_COLUMNS = ("r", "s", "t", "J", "residual")
GRAPH_COLUMNS = ("x", "y", "z", "p", "q") + PATCH_COLUMNS


# ---------------------------------------------------------------------------
# Per-cell reference writers


def reference_grid_header(v, n_u):
    return [f"# n_u: {n_u}", "# v: " + " ".join(f"{val:.17g}" for val in v)]


def reference_strip_csv(strip):
    lines = [
        "# format: 2",
        f"# status: {strip.status}",
        f"# detail: {strip.detail}",
        f"# params: {json.dumps(vars(strip.params))}",
        f"# curve: {json.dumps(strip.curve.to_dict())}",
        f"# field: {json.dumps(strip.field.to_dict())}",
        *reference_grid_header(strip.v, strip.n_u),
        "x,y,z,p,q",
    ]
    for k in range(strip.n_levels):
        for j in range(strip.n_u):
            row = [strip.states[k, i, j] for i in range(5)]
            lines.append(",".join(f"{val:.17g}" for val in row))
    return "\n".join(lines) + "\n"


def reference_patch_to_csv(patch):
    lines = [
        "# format: 2",
        f"# provenance: {patch.provenance}",
        f"# multivalued: {str(patch.multivalued).lower()}",
        f"# r_min: {patch.r_min:.17g}",
        f"# r_max: {patch.r_max:.17g}",
        f"# levels: {patch.n_levels}",
        *reference_grid_header(patch.v, patch.n_u),
        ",".join(PATCH_COLUMNS),
    ]
    columns = [getattr(patch, name) for name in PATCH_COLUMNS]
    for k in range(patch.n_levels):
        for j in range(patch.n_u):
            lines.append(",".join(f"{col[k, j]:.17g}" for col in columns))
    return "\n".join(lines) + "\n"


def reference_17g(values, sep=","):
    return "".join(f"{val:.17g}{sep}" for val in values.tolist())


def strip_of(patch):
    """A strip whose levels are the patch's, as ``reconstruct_graph`` reads them."""
    states = np.stack([patch.x, patch.y, patch.z, patch.p, patch.q], axis=1)
    return StripSolution(
        v=patch.v, u=patch.u, states=states,
        high_frac=np.zeros(patch.n_levels), min_disc=np.ones(patch.n_levels),
        status="completed", detail="drawn", curve=builtin_curve("circle"),
        field=builtin_field("pure-one"), params=MarchParams())


def reference_polyline(px, py, color, width, closed):
    coords = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
    tag = "polygon" if closed else "polyline"
    return (f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>')


def reference_heat_color(t):
    stops = ((0x21, 0x66, 0xac), (0xf7, 0xf7, 0xf7), (0xb2, 0x18, 0x2b))
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        w = t / 0.5
        lo, hi = stops[0], stops[1]
    else:
        w = (t - 0.5) / 0.5
        lo, hi = stops[1], stops[2]
    rgb = tuple(int(round(a + (b - a) * w)) for a, b in zip(lo, hi))
    return "#%02x%02x%02x" % rgb


def reference_residual_strip_svg(residuals, v):
    max_cols, log_lo, log_hi = 128, -12.0, 0.0
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    n_levels, n_u = residuals.shape
    stride = max(1, int(np.ceil(n_u / max_cols)))
    cols = list(range(0, n_u, stride))
    cell_w = (_SIZE - 2 * _MARGIN) / len(cols)
    cell_h = (_SIZE - 2 * _MARGIN) / n_levels
    parts = _header("residual")
    for i in range(n_levels):
        for jc, j in enumerate(cols):
            value = residuals[i, j]
            if not np.isfinite(value):
                color = "#d9d9d9"
            else:
                mag = np.log10(max(abs(value), 10.0 ** log_lo))
                color = reference_heat_color((mag - log_lo) / (log_hi - log_lo))
            x0 = _MARGIN + jc * cell_w
            y0 = _SIZE - _MARGIN - (i + 1) * cell_h
            parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                         f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                         f'fill="{color}"/>')
    parts.append(f'<text x="{_MARGIN}" y="{_SIZE - 12}" fill="#444444" '
                 f'font-size="12">v from {v[0]:.4g} to {v[-1]:.4g}, '
                 f'log10 scale {log_lo:g}..{log_hi:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Drawn arrays

#: Values every formatter must get right, and the heat-map edges: the clip
#: floor 1e-12, the clip ceiling 1, the mid stop 1e-6, and their neighbours.
#: 1e-9 and 1e-3 put a colour channel exactly halfway between two integers
#: (green 174.5, red 212.5), where the rounding rule decides the byte.
EDGE_VALUES = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
    1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0), -1e-12,
    1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -1.0,
    1e-6, np.nextafter(1e-6, 0.0), np.nextafter(1e-6, 1.0), 1e-9, -1e-3,
]

cell_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.tuples(st.floats(min_value=-13.0, max_value=1.0), st.booleans()).map(
        lambda pair: (-1.0 if pair[1] else 1.0) * 10.0 ** pair[0]),
)


def grids(n_levels, n_u):
    return arrays(np.float64, (n_levels, n_u), elements=cell_values)


csv_shapes = st.tuples(st.integers(min_value=1, max_value=4),
                       st.integers(min_value=1, max_value=8))

#: The strip draws at most 128 columns: 128 needs no stride, 129 and 256
#: a stride of 2, and 300 a stride of 3 that does not divide it.
svg_shapes = st.tuples(st.integers(min_value=1, max_value=3),
                       st.sampled_from([1, 3, 128, 129, 256, 300]))


# ---------------------------------------------------------------------------
# Byte identity


@settings(deadline=None, max_examples=25)
@given(st.data(), csv_shapes)
def test_strip_csv_matches_per_cell_reference(data, shape):
    n_levels, n_u = shape
    states = data.draw(grids(n_levels, 5 * n_u)).reshape(n_levels, 5, n_u)
    strip = StripSolution(
        v=data.draw(grids(1, n_levels))[0], u=data.draw(grids(1, n_u))[0],
        states=states, high_frac=np.zeros(n_levels),
        min_disc=np.ones(n_levels), status="completed", detail="drawn",
        curve=builtin_curve("circle"), field=builtin_field("pure-one"),
        params=MarchParams())
    assert _strip_csv(strip) == reference_strip_csv(strip)


@settings(deadline=None, max_examples=25)
@given(st.data(), csv_shapes, st.booleans())
def test_patch_csv_matches_per_cell_reference(data, shape, multivalued):
    n_levels, n_u = shape
    columns = {name: data.draw(grids(n_levels, n_u)) for name in GRAPH_COLUMNS}
    patch = GraphPatch(
        v=data.draw(grids(1, n_levels))[0],
        u=2.0 * np.pi * np.arange(n_u) / n_u,
        r_min=data.draw(cell_values), r_max=data.draw(cell_values),
        multivalued=multivalued, provenance="drawn", field=None, **columns)
    text = patch_to_csv(patch)
    assert text == reference_patch_to_csv(patch)
    strip_text = reference_strip_csv(strip_of(patch))
    back = patch_from_csv(text, strip_text)
    assert patch_to_csv(back) == text
    assert _strip_csv(strip_of(back)) == strip_text


@settings(deadline=None, max_examples=25)
@given(st.data(), svg_shapes)
def test_residual_svg_matches_per_cell_reference(data, shape):
    n_levels, n_u = shape
    residuals = data.draw(grids(n_levels, n_u))
    v = np.linspace(0.0, 0.15, n_levels)
    assert (residual_strip_svg(residuals, v)
            == reference_residual_strip_svg(residuals, v))


@settings(deadline=None, max_examples=25)
@given(st.data(), st.integers(min_value=0, max_value=40), st.booleans())
def test_polyline_matches_per_cell_reference(data, n, closed):
    points = data.draw(grids(2, n))
    assert (_polyline(points[0], points[1], "#1b6ca8", 1.5, closed)
            == reference_polyline(points[0], points[1], "#1b6ca8", 1.5, closed))


def test_residual_svg_matches_reference_on_a_strided_grid():
    # Strides 2, 2, 3 and 8; 200, 300 and 1000 are not multiples of 128.
    rng = np.random.default_rng(3)
    for n_u in (256, 200, 300, 1000):
        residuals = 10.0 ** rng.uniform(-14.0, 1.0, size=(151, n_u))
        residuals[::7, ::5] = np.nan
        residuals[1::3] *= -1.0
        v = np.linspace(0.0, 0.15, 151)
        assert (residual_strip_svg(residuals, v)
                == reference_residual_strip_svg(residuals, v))


# ---------------------------------------------------------------------------
# The cell formatter against "%.17g"

#: Cells whose certificate decides the text: exact ties (to even, down and
#: up), a value whose log10 rounds up to -6, the edges of fixed notation
#: (1e-5 and 1e17 are in exponent form, 1e-4 and 1e16 are not), and the
#: smallest subnormal.
PINNED_CELLS = {
    1234567890123456.25: "1234567890123456.2",
    1234567890123456.75: "1234567890123456.8",
    -9.9999999999999995e-07: "-9.9999999999999995e-07",
    1e-5: "1.0000000000000001e-05",
    1e-4: "0.0001",
    1e16: "10000000000000000",
    1e17: "1e+17",
    5e-324: "4.9406564584124654e-324",
}


def seps_of(values, sep=","):
    return np.full(values.size, ord(sep), np.uint8)


@settings(deadline=None, max_examples=300)
@given(arrays(np.float64, st.integers(min_value=1, max_value=40),
              elements=st.floats()))
def test_cells_match_17g(values):
    assert _format_17g(values, seps_of(values)) == reference_17g(values)


def test_pinned_cells_match_17g():
    values = np.array(list(PINNED_CELLS))
    text = _format_17g(values, seps_of(values, "\n"))
    assert text.splitlines() == list(PINNED_CELLS.values())
    assert text == reference_17g(values, "\n")


def edge_cells():
    """1.5 times each power of ten, and each power and its neighbours, from
    the smallest normal to the largest finite double, both signs."""
    powers = 10.0 ** np.arange(-307.0, 309.0)
    values = np.concatenate([1.5 * powers[:-1], powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    return np.concatenate([values, -values])


def test_cells_at_the_layout_edges_match_17g():
    values = edge_cells()
    assert _format_17g(values, seps_of(values)) == reference_17g(values)


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_cells_match_17g_when_log10_misses(monkeypatch, direction):
    # A log10 that errs by an ulp at every cell, either way, puts k off by
    # one at powers of ten and their neighbours; the certificate must send
    # those cells to "%.17g".
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    values = edge_cells()
    assert _format_17g(values, seps_of(values)) == reference_17g(values)


def test_random_cells_match_17g():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 31, 20000)
    sevenths = np.arange(1, 10001) / 7.0
    for values in (bits, scaled, sevenths):
        assert _format_17g(values, seps_of(values)) == reference_17g(values)


@pytest.mark.parametrize("n_levels, n_u", [(29, 128), (3, 2048)])
def test_strip_csv_matches_reference_across_chunks(n_levels, n_u):
    # 29 levels of 640 cells fill whole chunks and end in part of one; a
    # level of 2048 nodes is wider than a chunk, so each chunk is one level.
    per_chunk = _CSV_CHUNK_CELLS // (5 * n_u)
    assert per_chunk == 0 or (n_levels > per_chunk and n_levels % per_chunk)
    rng = np.random.default_rng(n_u)
    states = (rng.standard_normal((n_levels, 5, n_u))
              * 10.0 ** rng.integers(-8, 9, (n_levels, 5, n_u)))
    states[0, :3] = 0.0  # the axis level maps to the origin
    strip = StripSolution(
        v=np.linspace(0.0, 0.15, n_levels), u=2.0 * np.pi * np.arange(n_u) / n_u,
        states=states, high_frac=np.zeros(n_levels),
        min_disc=np.ones(n_levels), status="completed", detail="drawn",
        curve=builtin_curve("circle"), field=builtin_field("pure-one"),
        params=MarchParams())
    assert _strip_csv(strip) == reference_strip_csv(strip)


def test_patch_csv_with_masked_residual_matches_reference():
    patch = reconstruct_graph(march(builtin_curve("ellipse"),
                                    builtin_field("pure-one"), MarchParams()))
    # Nodes at the Jacobian floor, as reconstruct_graph masks them.
    J = patch.J.copy()
    J[::7, ::3] = 0.5 * RESIDUAL_J_FLOOR
    residual = np.where(np.abs(J) > RESIDUAL_J_FLOOR, patch.residual, np.nan)
    patch = dataclasses.replace(patch, J=J, residual=residual)
    assert np.isnan(patch.residual).any()
    assert patch_to_csv(patch) == reference_patch_to_csv(patch)


# ---------------------------------------------------------------------------
# The CSV reader at float64 midpoints


def midpoint_texts():
    """Decimal texts exactly at float64 midpoints, and 1e-60 relative to
    either side of them, in both signs.  The midpoints lie above and below
    random doubles, every seventh power of two (where the one below is at
    a quarter of the spacing above), subnormals, zero and the largest
    double."""
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.uniform(1.0, 2.0, 200) * 2.0 ** rng.integers(-1021, 1023, 200),
        2.0 ** np.arange(-1074.0, 1024.0, 7.0),
        rng.integers(1, 2 ** 52, 100, dtype=np.uint64).view(np.float64),
        [0.0, np.finfo(np.float64).max],
    ])
    ctx = decimal.Context(prec=800)  # exact: a midpoint has < 770 digits
    above = [ctx.add(1, decimal.Decimal(f"{sign}1e-60")) for sign in "+-"]
    texts = []
    for value in values.tolist():
        for neighbour in (math.nextafter(value, math.inf), math.nextafter(value, 0.0)):
            if neighbour in (value, math.inf):
                continue
            mid = ctx.divide(ctx.add(decimal.Decimal(value),
                                     decimal.Decimal(neighbour)), 2)
            for text in [mid] + [ctx.multiply(mid, scale) for scale in above]:
                texts += [str(text), f"-{text}"]
    return texts


def test_cells_at_float64_midpoints_read_as_float_reads_them():
    texts = midpoint_texts()
    texts += ["0"] * (-len(texts) % 5)
    rows = [",".join(texts[i:i + 5]) for i in range(0, len(texts), 5)]
    text = (f"# format: 2\n# n_u: {len(rows)}\n# v: 0\nx,y,z,p,q\n"
            + "\n".join(rows) + "\n")
    _, states = strip_from_csv(text)
    cells = np.moveaxis(states, 1, -1).ravel()
    expected = np.array([float(text) for text in texts])
    np.testing.assert_array_equal(cells.view(np.uint64),
                                  expected.view(np.uint64))
