"""Richardson extrapolation, patch sampling, limit-gradient extraction."""

import numpy as np
import pytest

from ma_singular.coeffs import builtin_field
from ma_singular.curves import PeriodicCurve, builtin_curve, eval_curve
from ma_singular.errors import CoverageError, ValidationError
from ma_singular.extract import (
    geometric_radii,
    hausdorff_distance,
    limit_gradient,
    paraboloid_sampler,
    patch_sampler,
    radial_reference_height,
    radial_reference_sampler,
    radial_reference_slope,
    richardson_extrapolate,
)
from ma_singular.geometry import reconstruct_graph
from ma_singular.march import MarchParams, march


@pytest.fixture(scope="module")
def circle_sampler():
    strip = march(builtin_curve("circle"), builtin_field("pure-one"),
                  MarchParams())
    return patch_sampler(reconstruct_graph(strip))


# ---------------------------------------------------------------------------
# Richardson


def test_richardson_kills_linear_error_exactly():
    radii = geometric_radii(0.4, 4)
    values = [3.0 + 2.5 * r for r in radii]
    limit, err = richardson_extrapolate(values)
    assert limit == pytest.approx(3.0, abs=1e-14)
    assert err < 1e-13


def test_richardson_kills_polynomial_error_exactly():
    radii = geometric_radii(0.8, 5)
    values = [1.0 - r + 0.3 * r**2 + 2.0 * r**3 for r in radii]
    limit, _ = richardson_extrapolate(values)
    assert limit == pytest.approx(1.0, abs=1e-13)


def test_richardson_error_estimate_tracks_truth():
    radii = geometric_radii(0.5, 4)
    values = [np.exp(r) for r in radii]   # infinite series, estimate > 0
    limit, err = richardson_extrapolate(values)
    assert abs(limit - 1.0) < err * 10
    assert err > 0


def test_richardson_works_elementwise():
    radii = geometric_radii(0.2, 3)
    values = [np.array([r, 2.0 * r]) for r in radii]
    limit, err = richardson_extrapolate(values)
    np.testing.assert_allclose(limit, [0.0, 0.0], atol=1e-14)
    assert err.shape == (2,)


def test_richardson_needs_two_values():
    with pytest.raises(ValidationError):
        richardson_extrapolate([np.array([1.0])])


def test_geometric_radii_halve():
    radii = geometric_radii(0.12, 4)
    assert radii == (0.12, 0.06, 0.03, 0.015)
    with pytest.raises(ValidationError):
        geometric_radii(-1.0)


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
    radii = circle_sampler.suggest_radii()
    assert len(radii) == 4
    assert radii[0] == pytest.approx(0.8 * circle_sampler.r_hi)
    assert radii[-1] >= circle_sampler.r_lo
    for a, b in zip(radii, radii[1:]):
        assert b == pytest.approx(a / 2)


def test_sampler_rejects_multivalued_patch():
    strip = march(builtin_curve("limacon"), builtin_field("pure-one"),
                  MarchParams())
    patch = reconstruct_graph(strip)
    with pytest.raises(ValidationError):
        patch_sampler(patch)


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
    with pytest.raises(ValidationError):
        limit_gradient(radial_reference_sampler(), (0.05, 0.03, 0.02))


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


@pytest.mark.parametrize("name", ["circle", "wobble", "remark42"])
def test_hausdorff_of_curve_against_its_own_shift(name):
    # Shifts by a half sample and by an unrelated amount, in both
    # orientations.  remark42 (the curve the construct-remark42 benchmark
    # workload shifts) is traced twice per period.
    a = builtin_curve(name)
    for shift in (np.pi / 1024, 0.7):
        assert hausdorff_distance(a, a.shift(shift)) < 1e-12
        assert hausdorff_distance(a, a.reverse().shift(shift)) < 1e-12


@pytest.mark.parametrize("a, b, n", [
    (np.empty((0, 2)), "circle", 1024),
    ("circle", np.empty((0, 2)), 1024),
    (np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), "circle", 1024),
    ("circle", np.array([[0.0, 1.0], [0.5, np.inf]]), 1024),
    (np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), "circle", 1024),
    ("circle", "ellipse", 0),
    ("circle", "ellipse", 2),
], ids=["empty-a", "empty-b", "nan", "inf", "array", "n=0", "n=2"])
def test_hausdorff_rejects_empty_or_non_finite_polylines(a, b, n):
    # Arrays of points are not curves, whatever their contents.
    a = builtin_curve(a) if isinstance(a, str) else a
    b = builtin_curve(b) if isinstance(b, str) else b
    with pytest.raises(ValidationError):
        hausdorff_distance(a, b, n=n)
