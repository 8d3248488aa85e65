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
    assert np.min(sphere.sigma @ sphere.v0) > 0


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
    with pytest.raises(ValidationError):
        SphereCurve(bad, (0, 0, 1.0), (1.0, 0, 0), (0, 1.0, 0))


def test_rejects_equator_touching_curve():
    # Points with zero height violate the open-hemisphere condition.
    theta = 2.0 * np.pi * np.arange(16) / 16
    equator = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(16)])
    with pytest.raises(ValidationError):
        SphereCurve(equator, (0, 0, 1.0), (1.0, 0, 0), (0, 1.0, 0))


def test_rejects_left_handed_basis():
    sphere = plane_sphere(builtin_curve("circle"))
    with pytest.raises(ValidationError):
        SphereCurve(sphere.sigma, (0, 0, 1.0), (0, 1.0, 0), (1.0, 0, 0))


def test_rejects_odd_sample_count():
    with pytest.raises(ValidationError):
        plane_sphere(builtin_curve("circle"), n=255)


def test_unknown_convention():
    with pytest.raises(ValidationError):
        plane_sphere(builtin_curve("circle"), convention="stereographic")


def test_tilted_basis_round_trips():
    # Any right-handed orthonormal frame works, not just the axes.
    rot = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis = (rot[0], rot[1], rot[2])
    sphere = plane_sphere(builtin_curve("ellipse"), basis=basis)
    back = sphere_plane(sphere)
    assert np.max(np.abs(back - planar_samples("ellipse"))) < 1e-12
