"""Sphere <-> plane correspondence for limit normals.

A curve of unit normals on the sphere corresponds to a planar curve by
central (gnomonic) projection from the upper hemisphere z > 0.  Two sign
conventions are in circulation: the bare projection of the samples
("gnomonic") and the one induced by the canonical upward normal
(-p, -q, 1)/|..| of a graph ("normal"), which flips both planar signs.
Round-trip identities hold per matched convention; ``convention`` must
therefore agree between the two directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PeriodicCurve, eval_curve
from .errors import ValidationError
from .march import spectral_du

__all__ = [
    "SphereCurve",
    "geodesic_curvature_det",
    "plane_sphere",
    "sphere_plane",
    "spherical_orientation",
]

_CONVENTIONS = ("normal", "gnomonic")

#: Curvature dets within this of zero make ``spherical_orientation``
#: report "degenerate".
_ORIENTATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SphereCurve:
    """Closed sampled curve on the upper unit hemisphere.

    ``sigma`` is (n, 3) with unit rows, and every sample satisfies the
    hemisphere condition sigma_z > 0.  Samples are uniform in the curve
    parameter, which is what makes spectral differentiation meaningful.
    """

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)  # frozen below: a copy
        if sigma.ndim != 2 or sigma.shape[1] != 3:
            raise ValidationError("sigma must have shape (n, 3)")
        norms = np.linalg.norm(sigma, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValidationError("sigma samples must be unit vectors to 1e-12")
        if np.min(sigma[:, 2]) <= 0:
            raise ValidationError(
                f"hemisphere condition violated: min sigma_z = "
                f"{float(np.min(sigma[:, 2])):.3g}")
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValidationError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}")


def plane_sphere(curve: PeriodicCurve, n: int = 256,
                 convention: str = "normal") -> SphereCurve:
    """Lift a planar curve to the sphere.

    "normal": sigma = (-alpha, -beta, 1)/sqrt(1 + alpha^2 + beta^2), the
    canonical upward normal when (alpha, beta) is a gradient curve.
    "gnomonic": sigma = (alpha, beta, 1)/sqrt(...), the bare inverse of
    central projection.
    """
    _check_convention(convention)
    if n % 2:
        raise ValidationError("n must be even for spectral differentiation")
    u = 2.0 * np.pi * np.arange(n) / n
    alpha, beta, *_ = eval_curve(curve, u)
    sign = -1.0 if convention == "normal" else 1.0
    sigma = np.column_stack([sign * alpha, sign * beta, np.ones_like(alpha)])
    sigma /= np.sqrt(1.0 + alpha * alpha + beta * beta)[:, None]
    return SphereCurve(sigma)


def sphere_plane(sphere: SphereCurve, convention: str = "normal") -> np.ndarray:
    """Project a sphere curve back to the plane; returns (n, 2) samples.

    The hemisphere condition is already structural on SphereCurve, so
    the division is always safe.
    """
    _check_convention(convention)
    c1, c2, c3 = sphere.sigma.T
    sign = -1.0 if convention == "normal" else 1.0
    return np.column_stack([sign * c1 / c3, sign * c2 / c3])


def geodesic_curvature_det(sphere: SphereCurve) -> np.ndarray:
    """det[sigma, sigma', sigma''] / |sigma'|^3 per sample.

    The sign-definite quantity behind spherical strict convexity; the
    derivatives are spectral, so samples must be uniform in parameter.
    """
    sigma = sphere.sigma
    d1 = np.stack([spectral_du(sigma[:, i]) for i in range(3)], axis=1)
    d2 = np.stack([spectral_du(d1[:, i]) for i in range(3)], axis=1)
    dets = np.einsum("ij,ij->i", sigma, np.cross(d1, d2))
    speed = np.linalg.norm(d1, axis=1)
    if np.min(speed) <= 1e-12:
        raise ValidationError("sphere curve has vanishing speed")
    return dets / speed ** 3


def spherical_orientation(sphere: SphereCurve):
    """("negative"|"positive"|"degenerate", margin) from the curvature det.

    "negative" (det < 0 everywhere) is what the spherical image of a
    negatively oriented strictly convex planar curve produces; margin is
    the distance of the det from zero, or 0.0 when not sign-definite.
    """
    dets = geodesic_curvature_det(sphere)
    if np.max(dets) < -_ORIENTATION_TOL:
        return "negative", float(-np.max(dets))
    if np.min(dets) > _ORIENTATION_TOL:
        return "positive", float(np.min(dets))
    return "degenerate", 0.0
