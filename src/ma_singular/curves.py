"""Truncated Fourier plane curves and their classification.

A curve is gamma(u) = (alpha(u), beta(u)) with alpha, beta finite
cosine/sine series in u, hence exactly 2*pi-periodic and real analytic.
These are the candidate limit gradients; classification checks the three
gates that matter downstream: regularity (min speed), strict convexity
with negative orientation (min of alpha'' beta' - alpha' beta''), and
embeddedness.  Embeddedness of a regular, locally strictly convex curve
(convexity expression of one strict sign) is decided in O(n) by its
turning number, which is +-1 exactly for embedded ones (Hopf's
Umlaufsatz); every other curve goes through the O(n^2) polyline
self-intersection test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DegenerateCurveError, ValidationError

#: Default samples for the Jordan polyline test.
JORDAN_SAMPLES = 2048

#: Margins below this count as degenerate rather than signed.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PeriodicCurve:
    """Fourier coefficients of gamma(u) = (alpha(u), beta(u)).

    Coefficient k multiplies cos(k u) / sin(k u).  All four arrays are
    padded to a common length degree+1; index 0 of the sine arrays is
    kept for alignment and forced to zero (sin(0*u) contributes nothing).
    """

    alpha_cos: np.ndarray
    alpha_sin: np.ndarray
    beta_cos: np.ndarray
    beta_sin: np.ndarray

    def __post_init__(self):
        try:
            arrays = [np.atleast_1d(np.asarray(a, dtype=float)) for a in
                      (self.alpha_cos, self.alpha_sin, self.beta_cos,
                       self.beta_sin)]
        except (TypeError, ValueError):
            raise ValidationError("curve coefficients must be numbers") from None
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValidationError("curve coefficients must be finite")
        m = max(a.size for a in arrays)
        padded = [np.concatenate([a, np.zeros(m - a.size)]) for a in arrays]
        padded[1] = padded[1].copy()
        padded[3] = padded[3].copy()
        padded[1][0] = 0.0
        padded[3][0] = 0.0
        for name, a in zip(("alpha_cos", "alpha_sin", "beta_cos", "beta_sin"), padded):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def degree(self) -> int:
        return self.alpha_cos.size - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicCurve):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("alpha_cos", "alpha_sin",
                                "beta_cos", "beta_sin"))

    def reverse(self) -> "PeriodicCurve":
        """The curve u -> gamma(-u): sine coefficients change sign."""
        return PeriodicCurve(self.alpha_cos, -self.alpha_sin,
                             self.beta_cos, -self.beta_sin)

    def shift(self, c: float) -> "PeriodicCurve":
        """The curve u -> gamma(u + c), again as a Fourier curve."""
        k = np.arange(self.degree + 1)
        ck, sk = np.cos(k * c), np.sin(k * c)
        # cos(k(u+c)) = cos kc cos ku - sin kc sin ku, and likewise for sin.
        return PeriodicCurve(
            self.alpha_cos * ck + self.alpha_sin * sk,
            -self.alpha_cos * sk + self.alpha_sin * ck,
            self.beta_cos * ck + self.beta_sin * sk,
            -self.beta_cos * sk + self.beta_sin * ck,
        )

    def to_dict(self) -> dict:
        return {
            "alpha_cos": self.alpha_cos.tolist(),
            "alpha_sin": self.alpha_sin.tolist(),
            "beta_cos": self.beta_cos.tolist(),
            "beta_sin": self.beta_sin.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PeriodicCurve":
        try:
            return cls(data["alpha_cos"], data["alpha_sin"],
                       data["beta_cos"], data["beta_sin"])
        except KeyError as missing:
            raise ValidationError(f"curve literal is missing key {missing}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PeriodicCurve":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValidationError(f"curve literal is not valid JSON: {err}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class CurveReport:
    """Classification margins and flags from ``classify_curve``."""

    regularity_margin: float      # min over u of |gamma'(u)|
    convexity_margin: float       # min over u of alpha'' beta' - alpha' beta''
    orientation: str              # "negative" | "positive" | "degenerate"
    regular: bool
    strictly_convex: bool         # convexity margin > tol (negative orientation)
    embedded: bool                # turning number or Jordan polyline test
    u_star: float                 # location of the convexity minimum
    tol: float = field(default=DEFAULT_TOL)


def eval_curve(curve: PeriodicCurve, u):
    """Evaluate (alpha, beta, alpha', beta', alpha'', beta'') at u.

    Exact for the truncated series (term-wise differentiation); u may be
    a scalar or an array.
    """
    u = np.asarray(u, dtype=float)
    k = np.arange(curve.degree + 1)
    ku = np.multiply.outer(u, k)
    cos_ku, sin_ku = np.cos(ku), np.sin(ku)
    a_c, a_s = curve.alpha_cos, curve.alpha_sin
    b_c, b_s = curve.beta_cos, curve.beta_sin
    alpha = cos_ku @ a_c + sin_ku @ a_s
    beta = cos_ku @ b_c + sin_ku @ b_s
    d_alpha = sin_ku @ (-k * a_c) + cos_ku @ (k * a_s)
    d_beta = sin_ku @ (-k * b_c) + cos_ku @ (k * b_s)
    k2 = k * k
    dd_alpha = cos_ku @ (-k2 * a_c) + sin_ku @ (-k2 * a_s)
    dd_beta = cos_ku @ (-k2 * b_c) + sin_ku @ (-k2 * b_s)
    return alpha, beta, d_alpha, d_beta, dd_alpha, dd_beta


def signed_curvature(curve: PeriodicCurve, u):
    """Signed curvature (alpha' beta'' - alpha'' beta') / |gamma'|^3.

    Note the sign is opposite to the convexity expression used by
    ``classify_curve``: a negatively oriented strictly convex curve has
    negative signed curvature.
    """
    _, _, da, db, dda, ddb = eval_curve(curve, u)
    speed2 = da * da + db * db
    if np.any(np.sqrt(speed2) <= 1e-12):
        raise DegenerateCurveError("curve speed vanishes at the requested parameter")
    return (da * ddb - dda * db) / speed2 ** 1.5


def _convexity(curve: PeriodicCurve, u):
    _, _, da, db, dda, ddb = eval_curve(curve, u)
    return dda * db - da * ddb


def _speed2(curve: PeriodicCurve, u):
    _, _, da, db, _, _ = eval_curve(curve, u)
    return da * da + db * db


def _refined_min(fun, grid, values) -> tuple[float, float]:
    """Polish the grid minimum of a periodic scalar function."""
    j = int(np.argmin(values))
    h = grid[1] - grid[0]
    lo, hi = grid[j] - h, grid[j] + h
    result = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                             options={"xatol": 1e-12})
    if result.fun < values[j]:
        return float(result.fun), float(result.x % (2 * np.pi))
    return float(values[j]), float(grid[j])


def _polyline_self_intersects(points: np.ndarray) -> bool:
    """O(n^2) proper/collinear intersection test over closed polyline segments.

    Adjacent segments (sharing a vertex along the polyline) are excluded;
    everything else that touches, crosses, or overlaps counts.  Exact
    duplicate points (doubly covered curves) therefore register.
    """
    n = points.shape[0]
    starts = points
    ends = np.roll(points, -1, axis=0)
    span = float(np.max(np.ptp(points, axis=0)))
    # Cross products of honestly separated segments scale like h^3; doubly
    # covered arcs only reproduce to round-off, so compare against that.
    tol_cross = 1e-12 * span * span

    def cross(o, a, b):
        return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
                - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))

    for i in range(n - 2):
        # Segments j > i+1, excluding the wrap-around neighbor of segment 0.
        j_hi = n - 1 if i == 0 else n
        j = np.arange(i + 2, j_hi)
        if j.size == 0:
            continue
        p1, p2 = starts[i], ends[i]
        q1, q2 = starts[j], ends[j]
        d1 = cross(p1[None, :], p2[None, :], q1)
        d2 = cross(p1[None, :], p2[None, :], q2)
        d3 = cross(q1, q2, np.broadcast_to(p1, q1.shape))
        d4 = cross(q1, q2, np.broadcast_to(p2, q1.shape))
        proper = (d1 * d2 < 0) & (d3 * d4 < 0)
        if np.any(proper):
            return True
        # Collinear or touching configurations: any vanishing cross product
        # with overlapping bounding boxes means the curve revisits a point.
        touching = ((np.abs(d1) <= tol_cross) | (np.abs(d2) <= tol_cross)
                    | (np.abs(d3) <= tol_cross) | (np.abs(d4) <= tol_cross))
        if np.any(touching):
            lo_i = np.minimum(p1, p2)
            hi_i = np.maximum(p1, p2)
            lo_j = np.minimum(q1, q2)
            hi_j = np.maximum(q1, q2)
            boxes = np.all((hi_j >= lo_i) & (hi_i >= lo_j), axis=1)
            if np.any(touching & boxes):
                return True
    return False


def _turning_number(d_alpha, d_beta):
    """Rotation index of the closed tangent polygon, or None if unresolved.

    The unwrapped change of atan2(beta', alpha') around the closed grid is
    an exact multiple of 2*pi once every step is resolved.  The answer is
    only trusted when every step turns the same way by less than pi/2, so
    a tangent spinning past a coarse sample at low speed cannot alias.
    """
    theta = np.arctan2(d_beta, d_alpha)
    steps = (np.roll(theta, -1) - theta + np.pi) % (2 * np.pi) - np.pi
    if not (np.all(steps > 0) or np.all(steps < 0)):
        return None
    if np.max(np.abs(steps)) >= np.pi / 2:
        return None
    return int(round(float(np.sum(steps)) / (2 * np.pi)))


def classify_curve(curve: PeriodicCurve, n_grid: int = 2048,
                   tol: float = DEFAULT_TOL) -> CurveReport:
    """Scan margins on a grid, refine the extrema, and decide embeddedness.

    ``n_grid`` must be at least 8*(degree+1) so the extrema scan cannot
    alias past a genuine dip.  Degenerate curves produce reports with the
    appropriate flags down, never exceptions.

    A regular curve whose convexity expression keeps one strict sign has a
    strictly monotone tangent angle, so by Hopf's Umlaufsatz it is embedded
    exactly when its turning number is +-1; that O(n) test decides it.
    Every other curve, and any curve whose tangent the grid does not
    resolve, goes through the polyline self-intersection test.
    """
    if n_grid < 8 * (curve.degree + 1):
        raise ValidationError(
            f"n_grid={n_grid} is below 8*(degree+1)={8 * (curve.degree + 1)}")
    grid = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    _, _, da, db, dda, ddb = eval_curve(curve, grid)

    speed2 = da * da + db * db
    reg2, _ = _refined_min(lambda u: _speed2(curve, u), grid, speed2)
    regularity_margin = float(np.sqrt(max(reg2, 0.0)))

    conv = dda * db - da * ddb
    convexity_margin, u_star = _refined_min(lambda u: _convexity(curve, u), grid, conv)

    if convexity_margin > tol:
        orientation = "negative"
    elif convexity_margin < -tol:
        orientation = "positive"
    else:
        orientation = "degenerate"

    # Sign-definite convexity: the refined minimum is positive, or the
    # refined maximum (minimum of the negation) is negative.
    locally_convex = regularity_margin > tol and (
        convexity_margin > tol
        or -_refined_min(lambda u: -_convexity(curve, u), grid, -conv)[0] < -tol)
    turning = _turning_number(da, db) if locally_convex else None
    if turning is not None:
        embedded = abs(turning) == 1
    else:
        pts_u = np.linspace(0.0, 2 * np.pi, JORDAN_SAMPLES, endpoint=False)
        alpha, beta, *_ = eval_curve(curve, pts_u)
        embedded = not _polyline_self_intersects(np.column_stack([alpha, beta]))

    return CurveReport(
        regularity_margin=regularity_margin,
        convexity_margin=convexity_margin,
        orientation=orientation,
        regular=regularity_margin > tol,
        strictly_convex=convexity_margin > tol,
        embedded=embedded,
        u_star=u_star,
        tol=tol,
    )


def fit_curve(alpha_samples, beta_samples, degree: int) -> PeriodicCurve:
    """Least-squares Fourier fit from uniform periodic samples.

    With uniformly spaced samples the projection is a plain rFFT
    truncation; ``degree`` must leave the kept modes below Nyquist.
    """
    alpha_samples = np.asarray(alpha_samples, dtype=float)
    beta_samples = np.asarray(beta_samples, dtype=float)
    n = alpha_samples.size
    if beta_samples.size != n:
        raise ValidationError("alpha/beta sample counts differ")
    if degree > (n - 1) // 2:
        raise ValidationError(f"degree {degree} needs more than {n} samples")
    if not (np.all(np.isfinite(alpha_samples)) and np.all(np.isfinite(beta_samples))):
        raise ValidationError("curve coefficients must be finite")

    def coefficients(samples):
        spec = np.fft.rfft(samples)
        cos_c = np.zeros(degree + 1)
        sin_c = np.zeros(degree + 1)
        cos_c[0] = spec[0].real / n
        cos_c[1:] = 2.0 * spec[1:degree + 1].real / n
        sin_c[1:] = -2.0 * spec[1:degree + 1].imag / n
        return cos_c, sin_c

    a_c, a_s = coefficients(alpha_samples)
    b_c, b_s = coefficients(beta_samples)
    return PeriodicCurve(a_c, a_s, b_c, b_s)


_BUILTIN_CURVES = {
    # Unit circle, negatively oriented: the configuration with a closed form.
    "circle": {"alpha_cos": [0.0, 1.0], "beta_sin": [0.0, -1.0]},
    # Axis-aligned ellipse; convexity expression is identically 0.48.
    "ellipse": {"alpha_cos": [0.0, 0.8], "beta_sin": [0.0, -0.6]},
    # Strictly convex degree-2 perturbation of the circle.
    "wobble": {"alpha_cos": [0.0, 1.0, 0.1], "beta_sin": [0.0, -1.0, 0.1]},
    # (1/8)(4 sin 2u, 4 cos 2u + 4 sin 2u - cos 4u): convex but with
    # curvature zeros, traced twice per period.
    "remark42": {
        "alpha_sin": [0.0, 0.0, 0.5],
        "beta_cos": [0.0, 0.0, 0.5, 0.0, -0.125],
        "beta_sin": [0.0, 0.0, 0.5],
    },
    # Limacon with an inner loop: locally strictly convex, not embedded.
    "limacon": {"alpha_cos": [0.25, 0.25, 0.25], "beta_sin": [0.0, -0.25, -0.25]},
}


def builtin_curve(name: str) -> PeriodicCurve:
    """Look up a gallery curve by name."""
    try:
        spec_dict = _BUILTIN_CURVES[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_CURVES))
        raise ValidationError(f"unknown curve {name!r}; known: {known}") from None
    return PeriodicCurve(
        spec_dict.get("alpha_cos", [0.0]),
        spec_dict.get("alpha_sin", [0.0]),
        spec_dict.get("beta_cos", [0.0]),
        spec_dict.get("beta_sin", [0.0]),
    )


def builtin_curve_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_CURVES))
