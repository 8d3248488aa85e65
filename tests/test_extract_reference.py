"""PatchSampler against its rebuild-per-call form, Hausdorff distance
against brute force.

The sampler builds its tables (per level the increasing angles, rho and
u at them, the interpolant coefficients) once, from one angle analysis
of all levels, keeps the bracket table of the last angle set, finds every
bracket with one count over that table, solves for all (angle, level)
pairs of a call in one Newton pass, and blends each bracket's two levels
by the cubic Hermite interpolant in radius, with the slopes the Hessian
gives along the ray.  The reference code below analyses one level at a
time, rebuilds everything on every call, brackets each angle with its own
searchsorted, evaluates each bracket's angles (Hessian included) with
cos/sin matrix products, the way extraction was first written, and blends
with the Hermite basis functions.  The tables and brackets must agree
bit for bit.  The sampled values agree to round-off (1e-13): the
reference's matrix products sum a row differently depending on how many
rows share it, so its bits are not a fixed point, while the sampler's row
sums are, which a permuted call and single-angle calls check exactly.  The Hausdorff
distance compares support functions; its reference is the distance between
dense point samples of the two curves, and at a few angles the support
functions found by a dense search polished by a scalar minimisation.
The reflected branch's sampler and march are checked against the direct
ones mapped by the Z2 symmetry, which roundtrip's reflected keys rest on.
"""

import dataclasses
import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from ma_singular import geometry
from ma_singular.coeffs import CoefficientField, builtin_field
from ma_singular.curves import (
    PeriodicCurve,
    builtin_curve,
    builtin_curve_names,
    classify_curve,
    eval_curve,
    fit_curve,
)
from ma_singular.errors import ValidationError
from ma_singular.extract import (
    PatchSampler,
    _support_function,
    hausdorff_distance,
    limit_gradient,
    patch_sampler,
)
from ma_singular.geometry import (
    GraphPatch,
    _level_tables,
    _rising,
    reconstruct_graph,
    reflect_field,
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
                      for name in ("x", "y", "p", "q", "r", "s", "t")}
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
        return (rho, *(reference_trig_eval(self._spec[name][k], n, u)
                       for name in ("p", "q", "r", "s", "t")))

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
            rho_a, p_a, q_a, r_a, s_a, t_a = self.level_values(k, thetas[sel])
            rho_b, p_b, q_b, r_b, s_b, t_b = self.level_values(k + 1, thetas[sel])
            # Cubic Hermite in rho; the slopes are the Hessian applied to the
            # unit vector of the ray.
            e = np.stack([np.cos(thetas[sel]), np.sin(thetas[sel])])
            h = rho_b - rho_a
            w = (r - rho_a) / h
            h00, h10 = (1.0 + 2.0 * w) * (1.0 - w) ** 2, w * (1.0 - w) ** 2
            h01, h11 = w * w * (3.0 - 2.0 * w), w * w * (w - 1.0)
            for out, f_a, f_b, row_a, row_b in (
                    (p_out, p_a, p_b, (r_a, s_a), (r_b, s_b)),
                    (q_out, q_a, q_b, (s_a, t_a), (s_b, t_b))):
                slope_a = np.sum(np.stack(row_a) * e, axis=0)
                slope_b = np.sum(np.stack(row_b) * e, axis=0)
                out[sel] = (h00 * f_a + h01 * f_b
                            + h * (h10 * slope_a + h11 * slope_b))
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


def reference_support_function(curve, thetas, m=2 ** 16, polish=True):
    """max over m samples u of <gamma(u), e(theta)>, per theta.

    With ``polish`` a bounded scalar maximisation over the two sample
    spacings around the best sample finds the support point between them.
    """
    s = 2.0 * np.pi * np.arange(m) / m
    x, y = eval_curve(curve, s)[:2]
    h = []
    for theta in thetas:
        e = np.array([np.cos(theta), np.sin(theta)])
        j = int(np.argmax(x * e[0] + y * e[1]))
        best = x[j] * e[0] + y[j] * e[1]
        if polish:
            # Over the offset from s[j]: the bounded search's tolerance is
            # relative.
            def minus_h(t):
                return -float(np.dot(eval_curve(curve, s[j] + t)[:2], e))
            best = max(best, -minimize_scalar(
                minus_h, bounds=(-s[1], s[1]), method="bounded",
                options={"xatol": 1e-13}).fun)
        h.append(best)
    return np.array(h)


def reference_support_distance(curve_a, curve_b, n):
    """``hausdorff_distance(curve_a, curve_b, n)`` from reference support
    functions at the n angles, with the parabola refinement it documents."""
    thetas = 2.0 * np.pi * np.arange(n) / n
    d = np.abs(reference_support_function(curve_a, thetas)
               - reference_support_function(curve_b, thetas))
    k = int(np.argmax(d))
    f_prev, f_top, f_next = d[[k - 1, k, (k + 1) % n]]
    bend = f_prev - 2.0 * f_top + f_next
    return f_top - (f_prev - f_next) ** 2 / (8.0 * bend) if bend < 0 else f_top


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
    # The ladder fills the lowest eighth of the band; the rest of the band
    # is read at evenly spaced radii, its ends included.
    return sampler.suggest_radii() + tuple(
        np.linspace(sampler.r_lo, sampler.r_hi, 5))


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
    # To round-off only: see the module docstring.
    sampler, reference = samplers
    thetas = ANGLES[angles]
    for r in _radii(sampler):
        p, q = sampler(r, thetas)
        p_ref, q_ref = reference(r, thetas)
        assert np.max(np.abs(p - p_ref), initial=0.0) <= 1e-13, r
        assert np.max(np.abs(q - q_ref), initial=0.0) <= 1e-13, r


@pytest.mark.parametrize("angles", sorted(ANGLES))
def test_sampler_value_does_not_depend_on_the_other_angles(samplers, angles):
    # The value at an angle is the same bit for bit in a permuted call and
    # in a call of its own.
    sampler, _ = samplers
    thetas = ANGLES[angles]
    perm = np.random.default_rng(5).permutation(thetas.size)
    for r in _radii(sampler):
        p, q = sampler(r, thetas)
        p_perm, q_perm = sampler(r, thetas[perm])
        assert np.array_equal(p_perm, p[perm]), r
        assert np.array_equal(q_perm, q[perm]), r
        for i in range(0, thetas.size, 5):
            p_one, q_one = sampler(r, thetas[i:i + 1])
            assert (p_one[0], q_one[0]) == (p[i], q[i]), (r, i)


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
    # One table per whole level: an m-fold cover over all its nodes.
    levels = range(patch.n_levels)
    covers = [reference_level_cover(patch.x[k], patch.y[k],
                                    tuple(e[k] for e in extra))
              for k in levels]
    tables = _level_tables(patch.x, patch.y, extra)
    if any(cover is None for cover in covers):
        assert tables is None
    else:
        theta, rho, _, period = tables
        assert_tables_match(list(zip(theta, rho, period)),
                            [reference_radius_table(patch.x[k], patch.y[k])
                             for k in levels])
    nested = tables is not None and bool(np.all(_rising(tables)))
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
    theta, rho, _, period = sampler._tables
    assert_tables_match(list(zip(theta, rho, period)), tables)
    # Without their closing entries, the angle table and u at its angles
    # are the sorted inverse table; the closing u is the first one turn on.
    assert len(sampler._u) == len(inverse)
    for got, ref in zip(zip(theta[:, :-1], sampler._u[:, :-1]), inverse):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    turn = np.sign(sampler._u[:, -2] - sampler._u[:, 0]) * 2.0 * np.pi
    assert np.array_equal(sampler._u[:, -1], sampler._u[:, 0] + turn)
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
# The level analysis of a strip against the per-level helpers


@functools.cache
def _strip(name):
    curve = {"convex": CONVEX, "twice-traced-circle": TWICE_TRACED_CIRCLE}.get(name)
    if name == "remark42":
        return march(builtin_curve(name), builtin_field(name),
                     MarchParams(R=0.05, n_u=256))
    return march(curve or builtin_curve(name), builtin_field("pure-one"),
                 MarchParams())


@pytest.mark.parametrize("v_min", [None, "first", 0.03, 0.3, 0.9])
@pytest.mark.parametrize("name", ["convex", "twice-traced-circle", "remark42",
                                  "limacon"])
def test_reconstruction_slices_the_level_analysis(name, v_min):
    # The tables, the multivalued flag and the radii of any selection of
    # levels (v_min a fraction of R) are those of the per-level helpers on
    # the selected rows.
    strip = _strip(name)
    if v_min == "first":
        v_min = strip.v[1]
    elif v_min is not None:
        v_min *= strip.params.R
    patch = reconstruct_graph(strip, v_min)
    extra = (patch.z, patch.p, patch.q)
    covers = [reference_level_cover(patch.x[k], patch.y[k],
                                    tuple(e[k] for e in extra))
              for k in range(patch.n_levels)]
    if any(cover is None for cover in covers):
        assert patch.level_tables is None
    else:
        theta, rho, _, period = patch.level_tables
        assert_tables_match(list(zip(theta, rho, period)),
                            [reference_radius_table(patch.x[k], patch.y[k])
                             for k in range(patch.n_levels)])
    assert patch.multivalued is not reference_nested_family(patch.x, patch.y,
                                                             extra=extra)
    rho = np.hypot(patch.x, patch.y)
    assert (patch.r_min, patch.r_max) == (float(np.min(rho)),
                                          float(np.max(rho)))


def test_inner_levels_that_do_not_nest_are_multivalued_from_the_first():
    # Levels 2 and 3 swapped: each is still a level of the system, with
    # J > 0, but their image curves no longer nest.
    marched = _strip("convex")
    states = np.array(marched.states)
    states[[2, 3]] = states[[3, 2]]
    strip = dataclasses.replace(marched, states=states)
    assert not reconstruct_graph(strip).multivalued
    assert reconstruct_graph(strip, strip.v[1]).multivalued
    assert not reconstruct_graph(strip, strip.v[3]).multivalued
    with pytest.raises(ValidationError, match="multivalued"):
        patch_sampler(reconstruct_graph(strip, strip.v[1]))


def test_level_analysis_is_released_with_its_strip():
    strip = march(CONVEX, builtin_field("pure-one"), MarchParams(R=0.05))
    patch = reconstruct_graph(strip)
    assert strip in geometry._ANALYSES
    entries = len(geometry._ANALYSES)
    alive = weakref.ref(strip)
    del strip
    gc.collect()
    assert alive() is None
    assert len(geometry._ANALYSES) == entries - 1
    # The patch keeps its rows of the tables.
    assert patch_sampler(patch).r_lo > 0


def _newton_u(patch, k, theta, u, steps=8):
    """u where level k of the patch meets angle theta, by Newton from u on
    the reference interpolant."""
    sx, sy = (np.fft.rfft(row) for row in (patch.x[k], patch.y[k]))
    for _ in range(steps):
        x, y, dx, dy = (reference_trig_eval(spec, patch.n_u, np.array([u]), d)[0]
                        for spec, d in ((sx, 0), (sy, 0), (sx, 1), (sy, 1)))
        f = (np.arctan2(y, x) - theta + np.pi) % (2.0 * np.pi) - np.pi
        u -= f / ((x * dy - y * dx) / (x * x + y * y))
    return u


@pytest.mark.parametrize("name", ["convex", "twice-traced-circle"])
def test_guess_in_the_last_interval_of_a_turn_is_near_the_solution(name):
    # Half an angle step short of one turn past each level's first node:
    # for a single cover that is between the last node and the closing
    # entry, where the guess once took the last node's u.
    patch = reconstruct_graph(_strip(name))
    sampler = patch_sampler(patch)
    theta = sampler._tables[0]
    lev = np.arange(patch.n_levels)
    theta_q = theta[:, 0] - 0.5 * (theta[:, -1] - theta[:, -2])
    guess = sampler._guess(lev, theta_q)
    for k in lev:
        u = _newton_u(patch, k, theta_q[k], guess[k])
        assert abs((guess[k] - u + np.pi) % (2.0 * np.pi) - np.pi) <= 1e-3, k


# ---------------------------------------------------------------------------
# Hausdorff distance


@pytest.mark.parametrize("a, b, full_search", [
    ("ellipse", "wobble", 0.4641924390)], ids=["ellipse-wobble"])
def test_hausdorff_of_far_apart_curves_matches_brute_force(a, b, full_search):
    # The largest distance lies between samples, on a segment normal to
    # both curves.  full_search is what a search of all 2^16 x 2^16 pairs
    # reads.
    a, b = builtin_curve(a), builtin_curve(b)
    reference = max(reference_directed_distance(a, b),
                    reference_directed_distance(b, a))
    assert reference == pytest.approx(full_search, abs=1e-10)
    assert abs(hausdorff_distance(a, b) - reference) <= 1e-9


def test_support_function_of_wobble_matches_brute_force():
    # The best of 2^16 samples is a lower bound within |gamma''| (pi/2^16)^2
    # / 2 < 1.4 * 2.3e-9 / 2 of the support function.
    wobble = builtin_curve("wobble")
    thetas = 2.0 * np.pi * np.arange(256) / 256
    h = _support_function(wobble, 256)
    below = h - reference_support_function(wobble, thetas, polish=False)
    assert np.all(below >= -1e-15)
    assert np.max(below) <= 2e-9


def _noisy_fit(curve, seed, scale=1e-3, n=256):
    """A degree-16 Fourier fit of the curve's samples plus seeded noise."""
    alpha, beta = eval_curve(curve, 2.0 * np.pi * np.arange(n) / n)[:2]
    noise = scale * np.random.default_rng(seed).standard_normal((2, n))
    return fit_curve(alpha + noise[0], beta + noise[1], 16)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@pytest.mark.parametrize("name", ["wobble", "convex"])
def test_hausdorff_at_few_samples_matches_brute_force(name, n):
    # n <= 2 * degree: the support functions of degree-16 curves at a few
    # angles come from a grid that does not depend on n.
    a = CONVEX if name == "convex" else builtin_curve(name)
    b = _noisy_fit(a, n)
    reference = reference_support_distance(a, b, n)
    assert reference > 1e-4
    assert abs(hausdorff_distance(a, b, n) - reference) <= 1e-14


# hausdorff_distance on every pair of strictly convex gallery curves.
GALLERY_DISTANCES = {
    ("circle", "ellipse"): 0.4,
    ("circle", "wobble"): 0.10000000000000009,
    ("ellipse", "wobble"): 0.46419243908890623,
}
# Per seed of the roundtrip-convex benchmark stream, the distance from the
# input curve to the recovered one on the direct and the reflected branch.
ROUNDTRIP_DISTANCES = {
    1: (6.266070995408768e-11, 6.266367424956342e-11),
    2: (9.622496401619765e-11, 9.622262543629829e-11),
    3: (1.4382638939474347e-10, 1.4384526686008647e-10),
}


def test_gallery_distances_are_pinned():
    reports = {name: classify_curve(builtin_curve(name))
               for name in builtin_curve_names()}
    convex = [name for name, report in reports.items()
              if report.strictly_convex and report.embedded]
    assert set(GALLERY_DISTANCES) == set(itertools.combinations(convex, 2))
    for (a, b), pinned in GALLERY_DISTANCES.items():
        got = hausdorff_distance(builtin_curve(a), builtin_curve(b))
        assert abs(got - pinned) <= 1e-15, (a, b)


@pytest.mark.parametrize("seed", sorted(ROUNDTRIP_DISTANCES))
def test_roundtrip_distances_are_pinned(seed, benchmark_workloads):
    # The first curve of the roundtrip-convex stream for the seed, marched
    # by default and extracted from its reported patch (v >= 0.1 R).
    curve = PeriodicCurve.from_dict(
        benchmark_workloads.convex_curve(np.random.default_rng([seed, 2])))
    patch = _patch(curve)
    for branch, pinned in zip((patch, reflect_solution(patch)),
                              ROUNDTRIP_DISTANCES[seed]):
        sampler = patch_sampler(branch)
        lg = limit_gradient(sampler, sampler.suggest_radii())
        assert abs(hausdorff_distance(curve, lg.curve) - pinned) <= 1e-15


# ---------------------------------------------------------------------------
# The Z2 symmetry: roundtrip fills its reflected branch from the direct one

_SYMMETRY_BOX = {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                 "p": [-4, 4], "q": [-4, 4]}
#: The fields of test_cli's general-field roundtrips, and the default one.
SYMMETRY_FIELDS = {
    "pure-one": builtin_field("pure-one"),
    "remark42": builtin_field("remark42"),
    "constant-abc": CoefficientField.from_dict({
        "A": "0.3", "B": "0.1", "C": "0.2", "E": "1 + 0.5*p^2",
        "box": _SYMMETRY_BOX}),
    "xy-ac": CoefficientField.from_dict({
        "A": "x", "B": "0", "C": "y", "E": "2 + z", "box": _SYMMETRY_BOX}),
}
GALLERY_CONVEX = sorted({name for pair in GALLERY_DISTANCES for name in pair})
#: rho(x, y, z, p, q) = (-x, -y, -z, p, q) on a (..., 5, n_u) state block.
RHO = np.array([-1.0, -1.0, -1.0, 1.0, 1.0])[:, None]


@functools.cache
def _direct_strip(curve, field):
    return march(builtin_curve(curve), SYMMETRY_FIELDS[field], MarchParams())


@pytest.mark.parametrize("field", sorted(SYMMETRY_FIELDS))
@pytest.mark.parametrize("curve", GALLERY_CONVEX)
def test_reflected_sampler_reads_the_direct_one_half_a_turn_on(curve, field):
    # The sampler of reflect_solution(patch) at theta is the patch's at
    # theta + pi, at every radius of the ladder roundtrip samples.
    patch = reconstruct_graph(_direct_strip(curve, field))
    direct = patch_sampler(patch)
    reflected = patch_sampler(reflect_solution(patch))
    thetas = np.concatenate(list(ANGLES.values()))
    for r in direct.suggest_radii():
        p, q = direct(r, thetas + np.pi)
        p_ref, q_ref = reflected(r, thetas)
        assert np.max(np.abs(p_ref - p)) <= 1e-14, r
        assert np.max(np.abs(q_ref - q)) <= 1e-14, r


@settings(max_examples=24, deadline=None, derandomize=True)
@given(curve=st.sampled_from(GALLERY_CONVEX),
       field=st.sampled_from(sorted(SYMMETRY_FIELDS)))
def test_reversed_march_under_the_reflected_field_is_the_mapped_strip(curve,
                                                                     field):
    # gamma(-u) under reflect_field(F) marches, level by level, to
    # rho(S)(u_{-j}) of the direct strip S.
    direct = _direct_strip(curve, field)
    strip = march(builtin_curve(curve).reverse(),
                  reflect_field(SYMMETRY_FIELDS[field]), MarchParams())
    assert (strip.status, strip.n_levels) == (direct.status, direct.n_levels)
    assert np.array_equal(strip.v, direct.v)
    mirror = -np.arange(direct.states.shape[-1]) % direct.states.shape[-1]
    mapped = RHO * direct.states[:, :, mirror]
    assert np.max(np.abs(strip.states - mapped)) <= 1e-12
