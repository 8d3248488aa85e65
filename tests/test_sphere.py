"""Hemisphere lift of planar curves and the orientation correspondence."""

import numpy as np
import pytest

from ma_singular.curves import builtin_curve, classify_curve, eval_curve
from ma_singular.errors import ValidationError
from ma_singular.sphere import (
    SphereCurve,
    geodesic_curvature_det,
    plane_sphere,
    sphere_plane,
    spherical_orientation,
)

GALLERY = ("circle", "ellipse", "limacon", "remark42", "wobble")


def planar_samples(name, n=256):
    u = 2.0 * np.pi * np.arange(n) / n
    alpha, beta, *_ = eval_curve(builtin_curve(name), u)
    return np.column_stack([alpha, beta])


@pytest.mark.parametrize("convention", ["normal", "gnomonic"])
@pytest.mark.parametrize("name", GALLERY)
def test_round_trip_is_identity(name, convention):
    sphere = plane_sphere(builtin_curve(name), convention=convention)
    back = sphere_plane(sphere, convention=convention)
    assert np.max(np.abs(back - planar_samples(name))) < 1e-12


def test_conventions_differ_by_antipode_in_the_plane():
    curve = builtin_curve("ellipse")
    a = plane_sphere(curve, convention="normal")
    b = plane_sphere(curve, convention="gnomonic")
    np.testing.assert_allclose(a.sigma[:, 2], b.sigma[:, 2], atol=1e-15)
    np.testing.assert_allclose(a.sigma[:, :2], -b.sigma[:, :2], atol=1e-15)


def test_mismatched_conventions_do_not_round_trip():
    curve = builtin_curve("ellipse")
    sphere = plane_sphere(curve, convention="normal")
    wrong = sphere_plane(sphere, convention="gnomonic")
    assert np.max(np.abs(wrong - planar_samples("ellipse"))) > 0.1


def test_sigma_is_on_the_sphere_and_hemisphere():
    sphere = plane_sphere(builtin_curve("wobble"))
    np.testing.assert_allclose(np.linalg.norm(sphere.sigma, axis=1), 1.0,
                               atol=1e-14)
    assert np.min(sphere.sigma[:, 2]) > 0


def test_sphere_curve_leaves_the_callers_array_writeable():
    # The curve freezes a copy of its samples, not the caller's array.
    samples = plane_sphere(builtin_curve("wobble")).sigma.copy()
    sphere = SphereCurve(samples)
    assert samples.flags.writeable
    assert not sphere.sigma.flags.writeable
    samples[0] = (0.0, 0.0, 1.0)
    assert sphere.sigma[0, 2] < 1.0


def test_circle_geodesic_det_is_constant():
    sphere = plane_sphere(builtin_curve("circle"))
    det = geodesic_curvature_det(sphere)
    # Raw det[sigma, sigma', sigma''] is -1/(2 sqrt 2); the speed^3
    # normalization (|sigma'| = 1/sqrt 2) scales it to exactly -1.
    np.testing.assert_allclose(det, -1.0, atol=1e-10)


@pytest.mark.parametrize("name", GALLERY)
def test_orientation_agrees_with_planar_classification(name):
    planar = classify_curve(builtin_curve(name))
    orient, margin = spherical_orientation(plane_sphere(builtin_curve(name)))
    if planar.strictly_convex:
        assert orient == "negative" and margin > 0
    else:
        assert orient == "degenerate"
        assert margin == pytest.approx(0.0, abs=1e-9)


def test_orientation_flips_with_parametrization():
    orient, margin = spherical_orientation(
        plane_sphere(builtin_curve("circle").reverse()))
    assert orient == "positive" and margin > 0


def test_rejects_non_unit_samples():
    bad = np.column_stack([np.ones(8), np.zeros(8), np.ones(8)])
    with pytest.raises(ValidationError, match="unit vectors"):
        SphereCurve(bad)


def test_rejects_equator_touching_curve():
    # Points with zero height violate the open-hemisphere condition.
    theta = 2.0 * np.pi * np.arange(16) / 16
    equator = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(16)])
    with pytest.raises(ValidationError, match="hemisphere condition"):
        SphereCurve(equator)
    # The lower hemisphere is not the upper one.
    with pytest.raises(ValidationError, match="hemisphere condition"):
        SphereCurve(-plane_sphere(builtin_curve("circle")).sigma)


def test_rejects_odd_sample_count():
    with pytest.raises(ValidationError):
        plane_sphere(builtin_curve("circle"), n=255)


def test_unknown_convention():
    with pytest.raises(ValidationError):
        plane_sphere(builtin_curve("circle"), convention="stereographic")
