"""Sphere <-> plane correspondence for limit normals.

A curve of unit normals on the sphere corresponds to a planar curve by
central (gnomonic) projection from the hemisphere around a reference
direction.  Two sign conventions are in circulation: the bare projection
of the samples ("gnomonic") and the one induced by the canonical upward
normal (-p, -q, 1)/|..| of a graph ("normal"), which flips both planar
signs.  Round-trip identities hold per matched convention; ``convention``
must therefore agree between the two directions.
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

_CANONICAL = (np.array([1.0, 0.0, 0.0]),
              np.array([0.0, 1.0, 0.0]),
              np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True, eq=False)
class SphereCurve:
    """Closed sampled curve on the unit sphere with a hemisphere frame.

    ``sigma`` is (n, 3) with unit rows; (e1, e2, v0) is a positively
    oriented orthonormal basis and every sample satisfies the hemisphere
    condition <sigma, v0> > 0.  Samples are uniform in the curve
    parameter, which is what makes spectral differentiation meaningful.
    """

    sigma: np.ndarray
    v0: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[1] != 3:
            raise ValidationError("sigma must have shape (n, 3)")
        norms = np.linalg.norm(sigma, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValidationError("sigma samples must be unit vectors to 1e-12")
        basis = [np.asarray(v, dtype=float) for v in (self.e1, self.e2, self.v0)]
        gram = np.array([[a @ b for b in basis] for a in basis])
        if np.max(np.abs(gram - np.eye(3))) > 1e-12:
            raise ValidationError("(e1, e2, v0) must be orthonormal to 1e-12")
        if np.linalg.det(np.stack(basis)) < 0:
            raise ValidationError("(e1, e2, v0) must be positively oriented")
        heights = sigma @ basis[2]
        if np.min(heights) <= 0:
            raise ValidationError(
                f"hemisphere condition violated: min <sigma, v0> = "
                f"{float(np.min(heights)):.3g}")
        for name, arr in zip(("sigma", "e1", "e2", "v0"),
                             (sigma, *basis[:2], basis[2])):
            arr = np.asarray(arr, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValidationError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}")


def plane_sphere(curve: PeriodicCurve, n: int = 256,
                 convention: str = "normal", basis=None) -> SphereCurve:
    """Lift a planar curve to the sphere.

    "normal": sigma = (-alpha, -beta, 1)/sqrt(1 + alpha^2 + beta^2), the
    canonical upward normal when (alpha, beta) is a gradient curve.
    "gnomonic": sigma = (alpha, beta, 1)/sqrt(...), the bare inverse of
    central projection.  Components are taken in the given (e1, e2, v0)
    basis (canonical axes by default).
    """
    _check_convention(convention)
    if n % 2:
        raise ValidationError("n must be even for spectral differentiation")
    e1, e2, v0 = _CANONICAL if basis is None else \
        tuple(np.asarray(v, dtype=float) for v in basis)
    u = 2.0 * np.pi * np.arange(n) / n
    alpha, beta, *_ = eval_curve(curve, u)
    if convention == "normal":
        c1, c2 = -alpha, -beta
    else:
        c1, c2 = alpha, beta
    norm = np.sqrt(1.0 + c1 * c1 + c2 * c2)
    sigma = (c1[:, None] * e1 + c2[:, None] * e2 + np.ones_like(c1)[:, None] * v0)
    sigma /= norm[:, None]
    return SphereCurve(sigma=sigma, v0=v0, e1=e1, e2=e2)


def sphere_plane(sphere: SphereCurve, convention: str = "normal") -> np.ndarray:
    """Project a sphere curve back to the plane; returns (n, 2) samples.

    The hemisphere condition is already structural on SphereCurve, so
    the division is always safe.
    """
    _check_convention(convention)
    c1 = sphere.sigma @ sphere.e1
    c2 = sphere.sigma @ sphere.e2
    c3 = sphere.sigma @ sphere.v0
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
