"""PatchSampler and Hausdorff distance against their rebuild-per-call forms.

The sampler builds its per-level tables (rho(theta), the sorted inverse
angle table, the interpolant coefficients) once, and evaluates one
cos/sin basis per Newton step; the Hausdorff distance works on x/y
components of per-segment data gathered once.  The reference code below
rebuilds everything on every call, the way extraction was first written.
The two must agree bit for bit, so the comparisons use np.array_equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from ma_singular.coeffs import builtin_field
from ma_singular.curves import PeriodicCurve, builtin_curve, eval_curve
from ma_singular.errors import CoverageError
from ma_singular.extract import _directed_hausdorff, hausdorff_distance, patch_sampler
from ma_singular.geometry import _unwrap_angles, reconstruct_graph, reflect_solution
from ma_singular.march import MarchParams, march

# ---------------------------------------------------------------------------
# Reference code: every table rebuilt on every call


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
    theta, winding = _unwrap_angles(x, y)
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
        self._theta = [_unwrap_angles(patch.x[k], patch.y[k])[0]
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
        idx = np.empty(thetas.size, dtype=int)
        for i in range(thetas.size):
            idx[i] = np.searchsorted(rho_tab[:, i], r, side="right") - 1
        idx = np.clip(idx, 0, self._levels - 2)
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


def reference_directed_hausdorff(P, Q, tree, k=6):
    n = Q.shape[0]
    k = min(k, n)
    _, nearest = tree.query(P, k=k)
    nearest = np.asarray(nearest, dtype=int).reshape(P.shape[0], k)
    seg_idx = np.concatenate([nearest, (nearest - 1) % n], axis=1)
    starts = Q[seg_idx]
    ends = Q[(seg_idx + 1) % n]
    d = ends - starts
    rel = P[:, None, :] - starts
    denom = np.sum(d * d, axis=-1)
    t = np.clip(np.sum(rel * d, axis=-1) / np.maximum(denom, 1e-300), 0.0, 1.0)
    foot = starts + t[..., None] * d
    dist = np.linalg.norm(P[:, None, :] - foot, axis=-1)
    return float(np.max(np.min(dist, axis=1)))


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


# ---------------------------------------------------------------------------
# Hausdorff distance

_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_vertex = st.tuples(_coord, _coord)


@st.composite
def closed_polylines(draw):
    """1 to 12 distinct draws, each repeated 1-3 times: short polylines and
    zero-length segments are both common."""
    base = draw(st.lists(_vertex, min_size=1, max_size=12))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(base),
                            max_size=len(base)))
    return np.repeat(np.array(base, dtype=float).reshape(-1, 2), repeats,
                     axis=0)


@settings(max_examples=25, deadline=None)
@given(closed_polylines(), closed_polylines())
def test_directed_hausdorff_matches_reference_bitwise(P, Q):
    tree = cKDTree(Q)
    got = _directed_hausdorff(P, Q, tree)
    assert got == reference_directed_hausdorff(P, Q, tree)
    expected = max(got, reference_directed_hausdorff(Q, P, cKDTree(P)))
    assert hausdorff_distance(P, Q) == expected


def test_hausdorff_of_curves_matches_reference_bitwise():
    u = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    for a, b in (("ellipse", "wobble"), ("circle", "remark42")):
        P = np.column_stack(eval_curve(builtin_curve(a), u)[:2])
        Q = np.column_stack(eval_curve(builtin_curve(b), u)[:2])
        expected = max(reference_directed_hausdorff(P, Q, cKDTree(Q)),
                       reference_directed_hausdorff(Q, P, cKDTree(P)))
        assert hausdorff_distance(builtin_curve(a), builtin_curve(b)) == expected

