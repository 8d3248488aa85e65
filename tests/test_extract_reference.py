"""PatchSampler against its rebuild-per-call form, Hausdorff distance
against brute force.

The sampler builds its tables (rho(theta), the sorted inverse angle
table, the interpolant coefficients) once, from one angle analysis of
all levels, keeps the bracket table of the last angle set, finds every
bracket with one count over that table, and evaluates one cos/sin basis
per Newton step.  The reference code below analyses one level at a time,
rebuilds everything on every call and brackets each angle with its own
searchsorted, the way extraction was first written.  The two must agree
bit for bit, so the comparisons use np.array_equal.  The Hausdorff
distance solves for foot points; its reference is the distance between
dense point samples of the two curves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from ma_singular.coeffs import builtin_field
from ma_singular.curves import PeriodicCurve, builtin_curve, eval_curve
from ma_singular.errors import CoverageError, ValidationError
from ma_singular.extract import PatchSampler, hausdorff_distance, patch_sampler
from ma_singular.geometry import (
    GraphPatch,
    _level_tables,
    _nested_family,
    reconstruct_graph,
    reflect_solution,
)
from ma_singular.march import MarchParams, march

# ---------------------------------------------------------------------------
# Reference code: every table rebuilt on every call


def reference_unwrap_angles(x: np.ndarray, y: np.ndarray):
    """Per-level unwrapped angle tables and the winding number.

    Returns (theta, winding) where theta[j] is continuous in j and
    theta[n] - theta[0] = 2*pi*winding would close the loop.
    """
    theta = np.unwrap(np.arctan2(y, x))
    closing = np.arctan2(y[0], x[0]) - theta[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    total = (theta[-1] + closing) - theta[0]
    winding = int(np.round(total / (2.0 * np.pi)))
    return theta, winding


def reference_level_cover(x: np.ndarray, y: np.ndarray, extra_rows=(), unwrapped=None):
    """Reduce one level curve to a single star-shaped traversal.

    A level with winding m and monotone angle is accepted when it is an
    exact m-fold cover: every row repeats with period n/m (the doubly
    traced constructions produce exactly this, to march round-off, while
    genuinely self-overlapping images do not).  Returns (x_red, y_red)
    or None when the level is not a cover of a star-shaped curve.
    ``unwrapped`` is ``reference_unwrap_angles(x, y)`` when the caller has it.
    """
    theta, winding = reference_unwrap_angles(x, y) if unwrapped is None else unwrapped
    m = abs(winding)
    if m == 0:
        return None
    steps = np.diff(theta)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        return None
    if m == 1:
        return x, y
    n = x.size
    if n % m:
        return None
    shift = n // m
    for row in (x, y, *extra_rows):
        tol = 1e-8 * (1.0 + float(np.max(np.abs(row))))
        if np.max(np.abs(row - np.roll(row, shift))) > tol:
            return None
    return x[:shift], y[:shift]


def reference_radius_table(x: np.ndarray, y: np.ndarray, unwrapped=None):
    """The rho(theta) table of one closed level curve: (theta_ext, rho_ext, period).

    theta_ext increases and its last entry closes the loop one period
    after the first.  ``unwrapped`` is ``reference_unwrap_angles(x, y)`` when
    the caller has it.
    """
    theta, winding = reference_unwrap_angles(x, y) if unwrapped is None else unwrapped
    rho = np.hypot(x, y)
    if theta[0] > theta[-1]:
        theta, rho = theta[::-1], rho[::-1]
    period = 2.0 * np.pi * abs(winding) if winding != 0 else 2.0 * np.pi
    theta_ext = np.concatenate([theta, [theta[0] + period]])
    rho_ext = np.concatenate([rho, [rho[0]]])
    return theta_ext, rho_ext, period


def reference_radius_lookup(table, query: np.ndarray) -> np.ndarray:
    """rho at the query angles by periodic linear interpolation of a table."""
    theta_ext, rho_ext, period = table
    q = (query - theta_ext[0]) % period + theta_ext[0]
    return np.interp(q, theta_ext, rho_ext)


def reference_nested_family(x: np.ndarray, y: np.ndarray, extra=()) -> bool:
    """True when every level reduces to a star-shaped curve and they nest.

    ``extra`` carries further per-level sample rows (z, p, q) that must
    also repeat on multiply covered levels: matching (x, y) alone would
    accept two sheets at different heights.
    """
    n_levels = x.shape[0]
    reduced = []
    for k in range(n_levels):
        red = reference_level_cover(x[k], y[k], tuple(e[k] for e in extra))
        if red is None:
            return False
        reduced.append(red)
    query = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    prev = reference_radius_lookup(reference_radius_table(*reduced[0]), query)
    for k in range(1, n_levels):
        cur = reference_radius_lookup(reference_radius_table(*reduced[k]), query)
        if not np.all(cur > prev):
            return False
        prev = cur
    return True

def reference_sampler_tables(patch):
    """The per-level tables PatchSampler built, one level at a time."""
    if patch.multivalued:
        raise ValidationError(
            "cannot sample a multivalued patch on circles")
    tables, inverse = [], []
    for k in range(patch.n_levels):
        x, y = patch.x[k], patch.y[k]
        unwrapped = reference_unwrap_angles(x, y)
        if reference_level_cover(x, y, (patch.z[k], patch.p[k], patch.q[k]),
                                 unwrapped) is None:
            raise ValidationError("patch level is not star-shaped")
        tables.append(reference_radius_table(x, y, unwrapped))
        theta = unwrapped[0]
        order = np.argsort(theta)
        inverse.append((theta[order], patch.u[order]))
    query = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    r_lo = float(np.max(reference_radius_lookup(tables[0], query)))
    r_hi = float(np.min(reference_radius_lookup(tables[-1], query)))
    return tables, inverse, r_lo, r_hi


def reference_trig_eval(spec, n, u, deriv=0):
    k = np.arange(spec.size)
    a = 2.0 * spec.real / n
    b = -2.0 * spec.imag / n
    a[0] *= 0.5
    if n % 2 == 0:
        a[-1] *= 0.5
    ku = np.multiply.outer(u, k)
    if deriv == 0:
        return np.cos(ku) @ a + np.sin(ku) @ b
    return np.sin(ku) @ (-k * a) + np.cos(ku) @ (k * b)


def reference_radius_at_angles(x, y, query):
    theta, winding = reference_unwrap_angles(x, y)
    rho = np.hypot(x, y)
    if theta[0] > theta[-1]:
        theta, rho = theta[::-1], rho[::-1]
    period = 2.0 * np.pi * abs(winding) if winding != 0 else 2.0 * np.pi
    theta_ext = np.concatenate([theta, [theta[0] + period]])
    rho_ext = np.concatenate([rho, [rho[0]]])
    q = (query - theta_ext[0]) % period + theta_ext[0]
    return np.interp(q, theta_ext, rho_ext)


class ReferenceSampler:
    def __init__(self, patch):
        self._n_u = patch.n_u
        self._x = patch.x
        self._y = patch.y
        self._spec = {name: np.fft.rfft(getattr(patch, name), axis=-1)
                      for name in ("x", "y", "p", "q")}
        self._u_grid = patch.u
        self._theta = [reference_unwrap_angles(patch.x[k], patch.y[k])[0]
                       for k in range(patch.n_levels)]
        query = np.linspace(-np.pi, np.pi, 720, endpoint=False)
        self.r_lo = float(np.max(
            reference_radius_at_angles(patch.x[0], patch.y[0], query)))
        self.r_hi = float(np.min(
            reference_radius_at_angles(patch.x[-1], patch.y[-1], query)))
        self._levels = patch.n_levels

    def level_values(self, k, theta_q):
        theta = self._theta[k]
        n = self._n_u
        order = np.argsort(theta)
        theta_sorted = theta[order]
        u_sorted = self._u_grid[order]
        period = 2.0 * np.pi
        lo = theta_sorted[0]
        tq = (theta_q - lo) % period + lo
        u = np.interp(tq, theta_sorted, u_sorted,
                      left=u_sorted[0], right=u_sorted[-1])
        sx, sy = self._spec["x"][k], self._spec["y"][k]
        for _ in range(3):
            x = reference_trig_eval(sx, n, u)
            y = reference_trig_eval(sy, n, u)
            dx = reference_trig_eval(sx, n, u, deriv=1)
            dy = reference_trig_eval(sy, n, u, deriv=1)
            f = np.arctan2(y, x) - theta_q
            f = (f + np.pi) % (2.0 * np.pi) - np.pi
            dtheta = (x * dy - y * dx) / (x * x + y * y)
            u = u - f / dtheta
        x = reference_trig_eval(sx, n, u)
        y = reference_trig_eval(sy, n, u)
        rho = np.hypot(x, y)
        p = reference_trig_eval(self._spec["p"][k], n, u)
        q = reference_trig_eval(self._spec["q"][k], n, u)
        return rho, p, q

    def __call__(self, r, thetas):
        r = float(r)
        thetas = np.asarray(thetas, dtype=float)
        rho_tab = np.stack([
            reference_radius_at_angles(self._x[k], self._y[k], thetas)
            for k in range(self._levels)
        ])
        idx = reference_brackets(rho_tab, r)
        p_out = np.empty(thetas.size)
        q_out = np.empty(thetas.size)
        for k in np.unique(idx):
            sel = idx == k
            rho_a, p_a, q_a = self.level_values(k, thetas[sel])
            rho_b, p_b, q_b = self.level_values(k + 1, thetas[sel])
            w = (r - rho_a) / (rho_b - rho_a)
            p_out[sel] = (1.0 - w) * p_a + w * p_b
            q_out[sel] = (1.0 - w) * q_a + w * q_b
        return p_out, q_out


def reference_brackets(rho_tab, r):
    """Per column of rho_tab, the last row <= r, clipped to a level pair."""
    idx = np.empty(rho_tab.shape[1], dtype=int)
    for i in range(rho_tab.shape[1]):
        idx[i] = np.searchsorted(rho_tab[:, i], r, side="right") - 1
    return np.clip(idx, 0, rho_tab.shape[0] - 2)


def reference_directed_distance(curve_a, curve_b, m=2 ** 16, coarse=2 ** 12):
    """max over m samples of A of the distance to the nearest of m of B.

    Exact for those point sets without searching all m of B for each of A:
    the coarse samples of B are among the m, so the distance U to them is
    at least the distance D to all m, and at most D + h, where h is the
    largest distance from one of the m to its nearest coarse sample.  Only
    samples of A with U >= max U - h can hold the maximum of D.
    """
    u = 2.0 * np.pi * np.arange(m) / m
    P = np.column_stack(eval_curve(curve_a, u)[:2])
    Q = np.column_stack(eval_curve(curve_b, u)[:2])
    coarse_tree = cKDTree(Q[::m // coarse])
    h = np.max(coarse_tree.query(Q)[0])
    upper = coarse_tree.query(P)[0]
    candidates = P[upper >= np.max(upper) - h]
    return float(np.max(cKDTree(Q).query(candidates)[0]))


# ---------------------------------------------------------------------------
# Patches

# Support function h(t) = 1 + 0.04 cos 2t + 0.01 sin 3t, the form the
# benchmark's convex curves take: strictly convex, negatively oriented.
CONVEX = PeriodicCurve([0.0, 1.06, 0.0, -0.02, 0.0],
                       [0.0, 0.0, 0.02, 0.0, -0.01],
                       [0.0, 0.0, -0.02, 0.0, -0.01],
                       [0.0, -0.94, 0.0, 0.02, 0.0])
TWICE_TRACED_CIRCLE = PeriodicCurve([0.0, 0.0, 1.0], [0.0], [0.0],
                                    [0.0, 0.0, -1.0])


def _patch(curve, field="pure-one", params=MarchParams()):
    return reconstruct_graph(march(curve, builtin_field(field), params))


@pytest.fixture(scope="module", params=[
    "circle", "wobble", "convex", "convex-reflected", "twice-traced-circle",
    "remark42"])
def samplers(request):
    name = request.param
    if name == "remark42":
        patch = _patch(builtin_curve("remark42"), "remark42",
                       MarchParams(R=0.05, n_u=256))
    elif name == "twice-traced-circle":
        patch = _patch(TWICE_TRACED_CIRCLE)
    elif name.startswith("convex"):
        patch = _patch(CONVEX)
        if name == "convex-reflected":
            patch = reflect_solution(patch)
    else:
        patch = _patch(builtin_curve(name))
    return patch_sampler(patch), ReferenceSampler(patch)


def _radii(sampler):
    try:
        ladder = sampler.suggest_radii()
    except CoverageError:
        # remark42's band holds less than one radius halving.
        ladder = tuple(np.linspace(sampler.r_lo, sampler.r_hi, 5)[1:-1])
    return ladder + (sampler.r_lo, sampler.r_hi)


ANGLES = {
    "uniform": 2.0 * np.pi * np.arange(256) / 256,
    "unsorted": np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, 97),
    "outside-period": np.concatenate([
        np.linspace(-9.0, -1e-3, 24), np.linspace(2.0 * np.pi, 15.0, 24),
        [-2.0 * np.pi, 4.0 * np.pi, -np.pi, np.pi]]),
}


# ---------------------------------------------------------------------------
# Sampler


def test_sampler_band_matches_reference(samplers):
    sampler, reference = samplers
    assert sampler.r_lo == reference.r_lo
    assert sampler.r_hi == reference.r_hi


@pytest.mark.parametrize("angles", sorted(ANGLES))
def test_sampler_matches_reference_bitwise(samplers, angles):
    sampler, reference = samplers
    thetas = ANGLES[angles]
    for r in _radii(sampler):
        p, q = sampler(r, thetas)
        p_ref, q_ref = reference(r, thetas)
        assert np.array_equal(p, p_ref), r
        assert np.array_equal(q, q_ref), r


def test_level_values_match_reference_bitwise(samplers):
    sampler, reference = samplers
    thetas = np.concatenate([ANGLES["unsorted"], ANGLES["outside-period"]])
    levels = reference._levels
    for k in (0, 1, levels // 2, levels - 2, levels - 1):
        got = sampler._level_values(k, thetas)
        want = reference.level_values(k, thetas)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), k


@pytest.mark.parametrize("angles", sorted(ANGLES))
def test_brackets_match_searchsorted_loop(samplers, angles):
    # One count over the radius table equals a searchsorted per angle
    # where every column increases, which nested levels guarantee.
    sampler, _ = samplers
    thetas = ANGLES[angles]
    for r in _radii(sampler) + (0.5 * sampler.r_lo, 2.0 * sampler.r_hi):
        got = sampler._brackets(r, thetas)
        rho_tab = sampler._rho_memo[1]
        assert np.all(np.diff(rho_tab, axis=0) > 0)
        assert np.array_equal(got, reference_brackets(rho_tab, r)), r


def test_sampler_at_two_angle_sets_in_turn_matches_fresh_samplers():
    # The bracket table is kept for the last angle set only; switching
    # sets, and coming back, must give exactly what a new sampler gives.
    patch = _patch(CONVEX)
    sampler = patch_sampler(patch)
    ladder = sampler.suggest_radii()
    uniform, unsorted = ANGLES["uniform"], ANGLES["unsorted"]
    for r, thetas in ((ladder[0], uniform), (ladder[1], unsorted),
                      (ladder[1], uniform), (ladder[2], uniform.copy()),
                      (ladder[0], unsorted), (ladder[2], unsorted[:40])):
        p, q = sampler(r, thetas)
        p_new, q_new = patch_sampler(patch)(r, thetas)
        assert np.array_equal(p, p_new) and np.array_equal(q, q_new), r


# ---------------------------------------------------------------------------
# One angle analysis of all levels against the per-level helpers

#: Level kinds: winding (0, +-1, 2, 3), monotone or not, and m-fold covers
#: that repeat exactly, to within the tolerance, or not at all.  "sector"
#: has a monotone angle that spans less than a turn, so winding 0.
LEVEL_KINDS = ("star", "star-reversed", "double", "double-sheets",
               "double-near", "double-far", "triple", "winding-0",
               "non-monotone", "sector")


def _level(kind, n, scale, a, b, c):
    """x, y, z, p, q rows of one level curve of the given kind."""
    folds = {"double": 2, "double-sheets": 2, "double-near": 2,
             "double-far": 2, "triple": 3}.get(kind, 1)
    size = n // folds if n % folds == 0 else n
    t = folds * 2.0 * np.pi * np.arange(size) / n
    wobble = 2.0 if kind == "non-monotone" else 0.5 * a
    phi = t + wobble * np.sin(t + c)
    if kind == "star-reversed":
        phi = -phi
    elif kind == "sector":
        phi = 0.4 * t + c
    rho = scale * (1.0 + 0.25 * b * np.cos(2.0 * t + c))
    rows = np.stack([rho * np.cos(phi), rho * np.sin(phi),
                     scale * np.cos(t), np.cos(phi), np.sin(phi)])
    if kind == "winding-0":
        rows[0] += 3.0 * scale
    rows = np.tile(rows, (1, n // size))
    if kind == "double-sheets":
        rows[2, size:] += 0.5
    elif kind in ("double-near", "double-far"):
        rows[0, size:] += 1e-12 if kind == "double-near" else 1e-5
    return rows


def level_patch(kinds, n, scales, params):
    """A patch whose level k is ``_level(kinds[k], n, scales[k], ...)``."""
    x, y, z, p, q = np.stack([_level(kind, n, scale, *abc) for kind, scale, abc
                              in zip(kinds, scales, params)], axis=1)
    zeros = np.zeros_like(x)
    return GraphPatch(
        v=0.01 * np.arange(1, len(kinds) + 1),
        u=2.0 * np.pi * np.arange(n) / n, x=x, y=y, z=z, p=p, q=q,
        r=zeros, s=zeros, t=zeros, J=zeros + 1.0, residual=zeros,
        r_min=0.0, r_max=1.0, multivalued=False, provenance="test",
        field=None)


def assert_tables_match(got, want):
    assert len(got) == len(want)
    for got_table, want_table in zip(got, want):
        assert [np.asarray(a).tobytes() for a in got_table] == \
            [np.asarray(a, dtype=float).tobytes() for a in want_table]


def assert_tables_match_reference(patch):
    extra = (patch.z, patch.p, patch.q)
    # The nested test's tables: one traversal of each level.
    reduced = [reference_level_cover(patch.x[k], patch.y[k],
                                     tuple(e[k] for e in extra))
               for k in range(patch.n_levels)]
    tables = _level_tables(patch.x, patch.y, extra)[1]
    if any(red is None for red in reduced):
        assert tables is None
    else:
        assert_tables_match(tables, [reference_radius_table(*red)
                                     for red in reduced])
    nested = _nested_family(patch.x, patch.y, extra=extra)
    assert nested == reference_nested_family(patch.x, patch.y, extra=extra)
    try:
        want = reference_sampler_tables(patch)
    except ValidationError as err:
        with pytest.raises(ValidationError) as info:
            PatchSampler(patch)
        assert str(info.value) == str(err)
        return nested, None
    sampler = PatchSampler(patch)
    tables, inverse, r_lo, r_hi = want
    assert_tables_match(sampler._tables, tables)
    assert len(sampler._inverse) == len(inverse)
    for got, ref in zip(sampler._inverse, inverse):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    assert (sampler.r_lo, sampler.r_hi) == (r_lo, r_hi)
    return nested, sampler


#: (kinds, n, scales): nested 1- and 2-fold covers, mixed windings, and
#: each way a level or a family fails.
LEVEL_CASES = {
    "star": (("star",) * 3, 16, (1.0, 2.0, 3.0)),
    "double": (("double",) * 3, 16, (1.0, 2.0, 3.0)),
    "double-near": (("double", "double-near"), 16, (1.0, 2.0)),
    "mixed-windings": (("star", "double", "star-reversed", "triple"), 12,
                       (1.0, 2.0, 3.0, 4.0)),
    "crossing": (("star", "star"), 16, (2.0, 1.0)),
    "winding-0": (("star", "winding-0"), 16, (1.0, 2.0)),
    "sector": (("star", "sector"), 16, (1.0, 2.0)),
    "non-monotone": (("star", "non-monotone"), 16, (1.0, 2.0)),
    "double-sheets": (("double", "double-sheets"), 16, (1.0, 2.0)),
    "double-far": (("double-far", "double"), 16, (1.0, 2.0)),
    "triple-on-16": (("star", "triple"), 16, (1.0, 2.0)),
}


@pytest.mark.parametrize("name, nested, samples", [
    ("star", True, True), ("double", True, True), ("double-near", True, True),
    ("mixed-windings", True, True), ("crossing", False, True),
    ("winding-0", False, False), ("sector", False, False),
    ("non-monotone", False, False),
    ("double-sheets", False, False), ("double-far", False, False),
    ("triple-on-16", False, False),
])
def test_level_tables_match_reference_on_each_case(name, nested, samples):
    kinds, n, scales = LEVEL_CASES[name]
    patch = level_patch(kinds, n, scales, [(0.3, 0.5, 0.1)] * len(kinds))
    got_nested, sampler = assert_tables_match_reference(patch)
    # The comparison must reach each decision, not only the accepting one.
    assert (got_nested, sampler is not None) == (nested, samples)


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([12, 16, 24]),
       st.lists(st.tuples(st.sampled_from(LEVEL_KINDS), st.floats(0.5, 4.0),
                          st.tuples(_unit, _unit, st.floats(0.0, 6.0))),
                min_size=2, max_size=5),
       st.booleans())
def test_level_tables_match_reference(n, levels, nested):
    kinds, scales, params = zip(*levels)
    if nested:
        scales = np.cumsum(scales)
    assert_tables_match_reference(level_patch(kinds, n, scales, params))


# ---------------------------------------------------------------------------
# Hausdorff distance


@pytest.mark.parametrize("a, b, full_search", [
    ("ellipse", "wobble", 0.4641924390), ("circle", "remark42", 0.7357913842)],
    ids=["ellipse-wobble", "circle-remark42"])
def test_hausdorff_of_far_apart_curves_matches_brute_force(a, b, full_search):
    # The largest distance lies between samples, on a segment normal to
    # both curves; each point of the twice-traced remark42 is reached at
    # two parameters.  full_search is what a search of all 2^16 x 2^16
    # pairs reads.
    a, b = builtin_curve(a), builtin_curve(b)
    reference = max(reference_directed_distance(a, b),
                    reference_directed_distance(b, a))
    assert reference == pytest.approx(full_search, abs=1e-10)
    assert abs(hausdorff_distance(a, b) - reference) <= 1e-7
