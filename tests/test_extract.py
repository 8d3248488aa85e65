"""Extrapolation to the axis, patch sampling, limit-gradient extraction."""

import dataclasses

import numpy as np
import pytest

from ma_singular import extract, geometry
from ma_singular.coeffs import builtin_field
from ma_singular.curves import PeriodicCurve, builtin_curve, eval_curve
from ma_singular.errors import CoverageError, ValidationError
from ma_singular.extract import (
    _support_function,
    geometric_radii,
    hausdorff_distance,
    limit_gradient,
    paraboloid_sampler,
    patch_sampler,
    radial_reference_height,
    radial_reference_sampler,
    radial_reference_slope,
)
from ma_singular.geometry import reconstruct_graph
from ma_singular.march import MarchParams, march


@pytest.fixture(scope="module")
def circle_sampler():
    strip = march(builtin_curve("circle"), builtin_field("pure-one"),
                  MarchParams())
    return patch_sampler(reconstruct_graph(strip))


# ---------------------------------------------------------------------------
# Extrapolation to the axis


#: The angles limit_gradient samples at n_theta = 64.
THETAS_64 = 2.0 * np.pi * np.arange(64) / 64


def _values_sampler(f):
    """A sampler whose p at radius r is f(r, thetas), and q = 2 p."""

    def sample(r, thetas):
        p = f(r, thetas)
        return p, 2.0 * p

    return sample


def _limit_samples(monkeypatch, f, radii):
    """(p at rho = 0 on ``THETAS_64``, residual) of limit_gradient."""
    captured = []

    def capture(p, q, degree, _original=extract.fit_curve):
        captured.append(p)
        return _original(p, q, degree)

    monkeypatch.setattr(extract, "fit_curve", capture)
    lg = limit_gradient(_values_sampler(f), radii, n_theta=THETAS_64.size,
                        degree=8)
    return captured[0], lg.residual


@pytest.mark.parametrize("radii", [
    extract._chebyshev_radii(0.0, 0.4),
    geometric_radii(0.8, 5),
    (0.31, 0.3, 0.17, 0.02, 0.011),
], ids=["chebyshev", "geometric", "uneven"])
def test_extrapolation_is_exact_for_polynomials_of_degree_below_the_count(
        monkeypatch, radii):
    # Degree 4 through 5 radii; a different polynomial at each angle.
    def f(r, thetas):
        return (np.cos(thetas) - r + 0.3 * r**2 * np.sin(thetas)
                + 2.0 * r**3 - 1.5 * r**4)

    limit, _ = _limit_samples(monkeypatch, f, radii)
    assert np.max(np.abs(limit - np.cos(THETAS_64))) <= 1e-13


def test_extrapolation_on_a_ratio_2_ladder_is_richardson(monkeypatch):
    # Richardson's tableau for f(r) = f(0) + c1 r + c2 r^2 + ... on
    # r0 2^{-m} is Neville's algorithm at 0 on the same nodes.
    radii = geometric_radii(0.3, 5)

    def f(r, thetas):
        return np.exp(r * np.cos(thetas)) + np.sin(2.0 * r + thetas)

    table = [f(radii[0], THETAS_64)]
    for m in range(1, len(radii)):
        row = [f(radii[m], THETAS_64)]
        for k in range(1, m + 1):
            row.append((2.0 ** k * row[k - 1] - table[k - 1]) / (2.0 ** k - 1.0))
        table = row
    limit, _ = _limit_samples(monkeypatch, f, radii)
    assert np.max(np.abs(limit - table[-1])) <= 1e-14


def test_extrapolation_residual_is_the_change_from_dropping_the_smallest_radius(
        monkeypatch):
    radii = extract._chebyshev_radii(0.0, 1.0)

    def f(r, thetas):
        return np.exp(r) * (1.0 + 0.1 * np.cos(thetas))

    limit, residual = _limit_samples(monkeypatch, f, radii)
    coarse, _ = _limit_samples(monkeypatch, f, radii[:-1])
    # q = 2 p, so the residual is read from q.
    assert residual == pytest.approx(2.0 * np.max(np.abs(limit - coarse)),
                                     rel=1e-12)
    assert 0.0 < residual
    np.testing.assert_allclose(limit, 1.0 + 0.1 * np.cos(THETAS_64), atol=1e-12)


def test_geometric_radii_halve():
    radii = geometric_radii(0.12, 4)
    assert radii == (0.12, 0.06, 0.03, 0.015)
    for r0, count in ((-1.0, 5), (np.inf, 3), (np.nan, 3), (0.1, 2.5),
                      (0.1, True), (0.1, 1), ("a", 3), (True, 3)):
        with pytest.raises(ValidationError):
            geometric_radii(r0, count)


# ---------------------------------------------------------------------------
# PatchSampler


def assert_radial_gradient(sampler, radii):
    thetas = 2.0 * np.pi * np.arange(64) / 64
    for r in radii:
        p, q = sampler(r, thetas)
        slope = radial_reference_slope(r)
        np.testing.assert_allclose(p, slope * np.cos(thetas), atol=2e-6)
        np.testing.assert_allclose(q, slope * np.sin(thetas), atol=2e-6)


def test_sampler_matches_radial_closed_form(circle_sampler):
    assert_radial_gradient(circle_sampler, (0.02, 0.05, 0.1, 0.14))


def test_sampler_samples_twice_traced_circle():
    # u -> gamma(2u): every level is an exact 2-fold cover of a circle, the
    # rotational solution at twice the height v, so its band starts at
    # sinh(2 * 0.015) and r = 0.02 is not covered.
    twice = PeriodicCurve([0.0, 0.0, 1.0], [0.0], [0.0], [0.0, 0.0, -1.0])
    patch = reconstruct_graph(march(twice, builtin_field("pure-one"),
                                    MarchParams()))
    assert not patch.multivalued
    assert_radial_gradient(patch_sampler(patch), (0.05, 0.1, 0.14))


def test_sampler_samples_doubly_covered_remark42():
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(R=0.05, n_u=256))
    patch = reconstruct_graph(strip)
    assert not patch.multivalued
    sampler = patch_sampler(patch)
    # At a stored node's own radius and angle the sampler returns that
    # node's gradient.
    k = patch.n_levels // 2
    rho = patch.radii()[k]
    theta = np.arctan2(patch.y[k], patch.x[k])
    nodes = np.flatnonzero((rho >= sampler.r_lo) & (rho <= sampler.r_hi))
    assert nodes.size > 16
    for j in nodes[::nodes.size // 8]:
        p, q = sampler(rho[j], theta[j:j + 1])
        assert abs(p[0] - patch.p[k, j]) < 1e-10
        assert abs(q[0] - patch.q[k, j]) < 1e-10


def test_sampler_reuses_the_level_tables_of_reconstruction(monkeypatch):
    calls = []

    def counted(*args, _original=geometry._level_rows, **kwargs):
        calls.append(args)
        return _original(*args, **kwargs)

    # Both the strip's level analysis and a patch's own tables go through
    # _level_rows.
    monkeypatch.setattr(geometry, "_level_rows", counted)
    strip = march(builtin_curve("wobble"), builtin_field("pure-one"),
                  MarchParams())
    patch = reconstruct_graph(strip)
    sampler = patch_sampler(patch)
    assert len(calls) == 1
    # A patch reconstruct_graph did not make builds its own tables, and
    # samples to the same bits.
    other = patch_sampler(dataclasses.replace(patch))
    assert len(calls) == 2
    thetas = np.linspace(-np.pi, np.pi, 37)
    for r in (0.05, 0.1):
        for got, want in zip(sampler(r, thetas), other(r, thetas)):
            assert got.tobytes() == want.tobytes()


def test_sampler_band_matches_annulus(circle_sampler):
    assert circle_sampler.r_lo == pytest.approx(np.sinh(0.015), rel=1e-2)
    assert circle_sampler.r_hi == pytest.approx(np.sinh(0.15), rel=1e-2)


def test_sampler_rejects_out_of_band_radius(circle_sampler):
    with pytest.raises(CoverageError):
        circle_sampler(0.5, np.zeros(4))
    with pytest.raises(CoverageError):
        circle_sampler(1e-4, np.zeros(4))


@pytest.mark.parametrize("thetas", [
    0.5, np.zeros((2, 4)), np.array([0.1, np.nan]),
    np.array([np.inf, 0.2]), np.array([-np.inf]), ["a", "b"]],
    ids=["scalar", "2-d", "nan", "inf", "-inf", "strings"])
def test_sampler_rejects_angles_that_are_not_a_finite_vector(circle_sampler,
                                                             thetas):
    with pytest.raises(ValidationError, match="finite 1-D"):
        circle_sampler(0.1, thetas)


def test_sampler_accepts_no_angles(circle_sampler):
    p, q = circle_sampler(0.1, np.array([]))
    assert p.shape == (0,) and q.shape == (0,)


def test_sampler_suggest_radii_fit_the_band(circle_sampler):
    # 5 Chebyshev points of the first kind on the lowest eighth of the band.
    r_lo, r_hi = circle_sampler.r_lo, circle_sampler.r_hi
    radii = circle_sampler.suggest_radii()
    assert len(radii) == 5
    assert r_lo < radii[-1] and radii[0] < r_lo + (r_hi - r_lo) / 8
    assert all(b < a for a, b in zip(radii, radii[1:]))
    mid, half = r_lo + (r_hi - r_lo) / 16, (r_hi - r_lo) / 16
    angles = (2 * np.arange(5) + 1) * np.pi / 10
    np.testing.assert_allclose(radii, mid + half * np.cos(angles),
                               rtol=0, atol=1e-16)


def test_sampler_rejects_multivalued_patch():
    strip = march(builtin_curve("limacon"), builtin_field("pure-one"),
                  MarchParams())
    patch = reconstruct_graph(strip)
    with pytest.raises(ValidationError):
        patch_sampler(patch)


def test_sampler_refuses_a_hessian_that_is_not_finite():
    # legendre puts NaN where the dual Hessian is singular; the blend's
    # slopes would carry it into the samples.
    strip = march(builtin_curve("circle"), builtin_field("pure-one"),
                  MarchParams())
    patch = reconstruct_graph(strip)
    s = patch.s.copy()
    s[3, 7] = np.nan
    with pytest.raises(ValidationError, match="Hessian is not finite"):
        patch_sampler(dataclasses.replace(patch, s=s))


def test_sampler_matches_radial_closed_form_to_round_off(circle_sampler):
    # The Hermite blend in radius with the exact slopes leaves round-off.
    thetas = 2.0 * np.pi * np.arange(256) / 256
    reference = radial_reference_sampler()
    for r in circle_sampler.suggest_radii():
        for got, want in zip(circle_sampler(r, thetas), reference(r, thetas)):
            assert np.max(np.abs(got - want)) <= 1e-12, r


def _judge_distance(curve, dv=1e-3):
    """The roundtrip judge's distance: the limit gradient of the patch from
    the strip's first level against the input curve (or builtin name)."""
    if isinstance(curve, str):
        curve = builtin_curve(curve)
    strip = march(curve, builtin_field("pure-one"), MarchParams(dv=dv))
    sampler = patch_sampler(reconstruct_graph(strip, strip.v[1]))
    lg = limit_gradient(sampler, sampler.suggest_radii())
    return hausdorff_distance(curve, lg.curve)


def test_judge_distance_on_circle_and_ellipse_is_below_the_blend_floor():
    # With a linear blend the circle read 3.6e-7 and the ellipse 3.06e-7.
    assert _judge_distance("circle") <= 1e-9
    assert _judge_distance("ellipse") <= 3.06e-8


def test_judge_distance_on_circle_is_round_off():
    assert _judge_distance("circle") <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_judge_distance_on_convex_draws_is_round_off(seed, benchmark_workloads):
    # The first curve of the roundtrip-convex stream for the seed; the
    # degree-16 fit holds it exactly, so the extrapolation binds.
    curve = PeriodicCurve.from_dict(
        benchmark_workloads.convex_curve(np.random.default_rng([seed, 2])))
    assert _judge_distance(curve) <= 1e-12


@pytest.mark.parametrize("name", ["circle", "ellipse", "wobble"])
def test_judge_distance_holds_at_a_coarser_march(name):
    # dv = 5e-3 stays within 2x of dv = 1e-3; with a linear blend the
    # circle and the ellipse lost a factor of 26-28.  The circle reads
    # 9e-14 at dv = 1e-3 and 8.5e-12 at 5e-3, where the blend's error
    # binds, so it keeps an absolute bound.
    if name == "circle":
        assert _judge_distance(name, dv=5e-3) <= 1e-10
    else:
        assert _judge_distance(name, dv=5e-3) <= 2.0 * _judge_distance(name)


# ---------------------------------------------------------------------------
# limit_gradient


def test_limit_of_radial_oracle_is_unit_circle():
    lg = limit_gradient(radial_reference_sampler(), geometric_radii(0.05, 5))
    dist = hausdorff_distance(builtin_curve("circle"), lg.curve)
    assert dist < 1e-9
    assert lg.residual < 1e-6
    assert lg.jordan


def test_limit_of_paraboloid_degenerates_to_point():
    lg = limit_gradient(paraboloid_sampler(), geometric_radii(0.05, 5))
    assert lg.classification.orientation == "degenerate"
    assert not lg.jordan


def test_limit_gradient_validates_resolution():
    with pytest.raises(ValidationError):
        limit_gradient(radial_reference_sampler(), geometric_radii(0.05, 3),
                       n_theta=16, degree=16)


def test_limit_gradient_rejects_ragged_radii():
    for radii in ((0.05, 0.1), (0.05, 0.03, 0.03), (0.05, 0.03, -0.01)):
        with pytest.raises(ValidationError,
                           match="radii must be positive and strictly decreasing"):
            limit_gradient(radial_reference_sampler(), radii)
    with pytest.raises(ValidationError, match="radii must be finite"):
        limit_gradient(radial_reference_sampler(), (np.inf, 0.03))


def test_limit_gradient_accepts_any_decreasing_radii():
    # Not a ratio-2 ladder: the polynomial through them needs no pattern.
    lg = limit_gradient(radial_reference_sampler(), (0.05, 0.03, 0.02, 0.004))
    assert hausdorff_distance(builtin_curve("circle"), lg.curve) < 1e-7
    assert lg.radii == (0.05, 0.03, 0.02, 0.004)


def test_limit_gradient_rejects_fractional_n_theta():
    # 64.5 would otherwise sample 65 angles.
    with pytest.raises(ValidationError, match="must be integers"):
        limit_gradient(radial_reference_sampler(), geometric_radii(0.05, 3),
                       n_theta=64.5, degree=8)


def test_limit_gradient_rejects_negative_degree():
    with pytest.raises(ValidationError, match="degree >= 0"):
        limit_gradient(radial_reference_sampler(), geometric_radii(0.05, 3),
                       n_theta=64, degree=-1)


@pytest.mark.parametrize("radii", [["a", "b"], None], ids=["strings", "none"])
def test_limit_gradient_rejects_radii_that_are_not_numbers(radii):
    with pytest.raises(ValidationError, match="radii must be numbers"):
        limit_gradient(radial_reference_sampler(), radii)


def test_roundtrip_recovers_input_circle(circle_sampler):
    lg = limit_gradient(circle_sampler, circle_sampler.suggest_radii())
    dist = hausdorff_distance(builtin_curve("circle"), lg.curve)
    assert dist < 1e-4


# ---------------------------------------------------------------------------
# closed-form helpers


def test_radial_height_and_slope_are_consistent():
    r = np.linspace(0.01, 2.0, 50)
    h = 1e-6
    dz = (radial_reference_height(r + h) - radial_reference_height(r - h)) / (2 * h)
    np.testing.assert_allclose(dz, radial_reference_slope(r), atol=1e-9)


def test_radial_height_vanishes_at_origin():
    assert radial_reference_height(0.0) == 0.0
    assert radial_reference_slope(0.0) == 1.0


# ---------------------------------------------------------------------------
# Hausdorff distance


def test_hausdorff_of_concentric_circles_is_radius_gap():
    a = builtin_curve("circle")
    b = PeriodicCurve([0.0, 1.1], [0.0], [0.0], [0.0, -1.1])
    assert hausdorff_distance(a, b) == pytest.approx(0.1, abs=1e-12)


def test_hausdorff_of_shifted_circle():
    a = builtin_curve("circle")
    shifted = PeriodicCurve([0.05, 1.0], [0.0], [0.0], [0.0, -1.0])
    assert hausdorff_distance(a, shifted) == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("scale", [1.1, 0.97, 1.0 + 1e-9])
def test_hausdorff_of_ellipses_scaled_about_their_centre(scale):
    # Semi-axes 0.8 and 0.6 about (0.3, -0.2): every point moves by at most
    # |scale - 1| * 0.8 and the major vertices move exactly that far along
    # their normals, well inside the radius of curvature 0.6^2 / 0.8.
    a = PeriodicCurve([0.3, 0.8], [0.0], [-0.2], [0.0, -0.6])
    b = PeriodicCurve([0.3, 0.8 * scale], [0.0], [-0.2], [0.0, -0.6 * scale])
    expected = 0.8 * abs(scale - 1.0)
    assert hausdorff_distance(a, b) == pytest.approx(expected, abs=1e-12)
    assert hausdorff_distance(b, a) == pytest.approx(expected, abs=1e-12)


def test_hausdorff_is_symmetric_and_zero_on_self():
    a = builtin_curve("ellipse")
    b = builtin_curve("wobble")
    assert hausdorff_distance(a, a) < 1e-12
    assert hausdorff_distance(a, b) == pytest.approx(
        hausdorff_distance(b, a), rel=1e-9)


def test_hausdorff_reparametrization_invariance():
    # Same image, opposite orientation and shifted start.
    a = builtin_curve("ellipse")
    b = a.reverse().shift(1.3)
    assert hausdorff_distance(a, b) < 1e-12


@pytest.mark.parametrize("name", ["circle", "wobble"])
def test_hausdorff_of_curve_against_its_own_shift(name):
    # Shifts by a half sample and by an unrelated amount, in both
    # orientations.
    a = builtin_curve(name)
    for shift in (np.pi / 1024, 0.7):
        assert hausdorff_distance(a, a.shift(shift)) < 1e-12
        assert hausdorff_distance(a, a.reverse().shift(shift)) < 1e-12


#: An ellipse with axes 1 and 1e-3, its vertices between the 2048 points of
#: classify_curve's grid: its tangent turns more than pi/2 between two of
#: them, so the support function doubles its grid once.
THIN_ELLIPSE = PeriodicCurve([0.0, 1.0], [0.0], [0.0], [0.0, -1e-3]).shift(
    np.pi / 2048)


@pytest.mark.parametrize("a, support", [
    (builtin_curve("circle"), lambda t: np.ones_like(t)),
    (builtin_curve("ellipse"),
     lambda t: np.sqrt(0.64 * np.cos(t) ** 2 + 0.36 * np.sin(t) ** 2)),
    (THIN_ELLIPSE, lambda t: np.sqrt(np.cos(t) ** 2 + 1e-6 * np.sin(t) ** 2)),
], ids=["circle", "ellipse", "thin-ellipse"])
def test_support_function_of_circle_and_ellipse(a, support):
    # In both orientations and from any start.
    n = 1024
    want = support(2.0 * np.pi * np.arange(n) / n)
    for curve in (a, a.reverse(), a.shift(0.7), a.reverse().shift(2.9)):
        assert np.max(np.abs(_support_function(curve, n) - want)) <= 1e-13


def test_support_function_refuses_a_tangent_its_largest_grid_misses():
    # Axes 1 and 1e-9: the tangent turns through pi within 1e-8 of u at
    # each vertex, which a grid of 2**16 points resolves only when it
    # samples the vertex itself.
    thin = PeriodicCurve([0.0, 1.0], [0.0], [0.0], [0.0, -1e-9])
    with pytest.raises(ValidationError, match="strictly convex"):
        _support_function(thin.shift(0.3), 1024)


@pytest.mark.parametrize("curve", [
    builtin_curve("remark42"),  # curvature zeros, traced twice
    builtin_curve("limacon"),  # locally convex, turning number 2
    PeriodicCurve([0.1], [0.0], [0.3], [0.0]),
    limit_gradient(paraboloid_sampler(), geometric_radii(0.05, 5)).curve,
], ids=["remark42", "limacon", "point", "paraboloid-limit"])
def test_hausdorff_rejects_curves_that_are_not_strictly_convex(curve):
    circle = builtin_curve("circle")
    for a, b in ((curve, circle), (circle, curve)):
        with pytest.raises(ValidationError, match="strictly convex"):
            hausdorff_distance(a, b)


@pytest.mark.parametrize("a, b, n", [
    (np.empty((0, 2)), "circle", 1024),
    ("circle", np.empty((0, 2)), 1024),
    (np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), "circle", 1024),
    ("circle", np.array([[0.0, 1.0], [0.5, np.inf]]), 1024),
    (np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), "circle", 1024),
    ("circle", "ellipse", 0),
    ("circle", "ellipse", 2),
    ("circle", "ellipse", 100.5),
], ids=["empty-a", "empty-b", "nan", "inf", "array", "n=0", "n=2", "n=100.5"])
def test_hausdorff_rejects_empty_or_non_finite_polylines(a, b, n):
    # Arrays of points are not curves, whatever their contents.
    a = builtin_curve(a) if isinstance(a, str) else a
    b = builtin_curve(b) if isinstance(b, str) else b
    with pytest.raises(ValidationError):
        hausdorff_distance(a, b, n=n)
