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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurveError, ValidationError

#: Fewest grid points of ``classify_curve``; a curve of degree d is scanned
#: at max(JORDAN_SAMPLES, 8*(d+1)), which the polyline test reuses.
JORDAN_SAMPLES = 2048

#: Margins below this count as degenerate rather than signed.
TOL = 1e-9

#: The coefficient arrays of a ``PeriodicCurve``, in field order.
_COEFFICIENTS = ("alpha_cos", "alpha_sin", "beta_cos", "beta_sin")


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
            arrays = [np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
                      for name in _COEFFICIENTS]
        except (TypeError, ValueError):
            raise ValidationError("curve coefficients must be numbers") from None
        if any(a.ndim != 1 for a in arrays) or not any(a.size for a in arrays):
            raise ValidationError(
                "curve coefficients must be flat lists, not all of them empty")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValidationError("curve coefficients must be finite")
        m = max(a.size for a in arrays)
        padded = [np.concatenate([a, np.zeros(m - a.size)]) for a in arrays]
        padded[1][0] = padded[3][0] = 0.0
        for name, a in zip(_COEFFICIENTS, padded):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def degree(self) -> int:
        return self.alpha_cos.size - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicCurve):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _COEFFICIENTS)

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
        return {name: getattr(self, name).tolist() for name in _COEFFICIENTS}

    @classmethod
    def from_dict(cls, data: dict) -> "PeriodicCurve":
        if not isinstance(data, dict):
            raise ValidationError(f"curve literal must be an object, got {data!r}")
        try:
            return cls(*(data[name] for name in _COEFFICIENTS))
        except KeyError as missing:
            raise ValidationError(f"curve literal is missing key {missing}") from None


@dataclass(frozen=True)
class CurveReport:
    """Classification margins and flags from ``classify_curve``."""

    regularity_margin: float      # min over u of |gamma'(u)|
    convexity_margin: float       # min over u of alpha'' beta' - alpha' beta''
    orientation: str              # "negative" | "positive" | "degenerate"
    regular: bool
    strictly_convex: bool         # convexity margin > TOL (negative orientation)
    locally_convex: bool          # regular, convexity of one strict sign
    embedded: bool                # turning number or Jordan polyline test
    u_star: float                 # location of the convexity minimum


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


def _spectra(curve: PeriodicCurve) -> np.ndarray:
    """Complex c, (6, degree+1): ``eval_curve`` output i is Re sum_k c[i, k] e^{iku}."""
    k = np.arange(curve.degree + 1)
    c = np.stack([curve.alpha_cos - 1j * curve.alpha_sin,
                  curve.beta_cos - 1j * curve.beta_sin])
    return np.concatenate([c, 1j * k * c, -(k * k) * c])


def _eval_uniform(curve: PeriodicCurve, n: int):
    """``eval_curve`` at u_j = 2*pi*j/n, j < n, by one inverse FFT.

    The spectra are zero-padded onto m points, m the least multiple of n
    with m >= 2*degree + 2, so every mode lies below Nyquist and none
    folds onto another; every (m/n)-th point is kept.
    """
    stride = -(-(2 * curve.degree + 2) // n)
    m = n * stride
    spec = np.zeros((6, m // 2 + 1), dtype=complex)
    spec[:, :curve.degree + 1] = _spectra(curve)
    spec[:, 1:] *= 0.5  # Re(c e^{iku}) is c/2 at k plus its conjugate at -k
    return tuple(np.fft.irfft(spec, m, norm="forward")[:, ::stride])


def _running_basis(u: np.ndarray, size: int) -> np.ndarray:
    """(u.size, size) complex e^{iku}, k < size: one exponential, then block
    doubling.  With columns k < n filled, e^{i(n+j)u} = e^{iju} e^{inu}
    fills columns n..2n-1, so ceil(log2 size) - 1 block multiplies make
    them all.  The array is the transpose of a C-ordered (size, u.size)
    one, so each block is contiguous."""
    rows = np.empty((size, u.size), dtype=complex)
    rows[:1] = 1.0
    rows[1:2] = np.exp(1j * u)
    n = 2
    while n < size:
        m = min(n, size - n)
        np.multiply(rows[:m], rows[n - 1] * rows[1], out=rows[n:n + m])
        n *= 2
    return rows.T


def _eval_running(curve: PeriodicCurve, u):
    """``eval_curve`` at a 1-D array u, with e^{iku} from ``_running_basis``.

    One complex exponential per point and a few block multiplies replace
    the dense cos/sin matrices, as in ``PatchSampler``'s Newton solve.
    """
    basis = _running_basis(np.asarray(u, dtype=float), curve.degree + 1)
    return tuple((basis @ _spectra(curve).T).real.T)


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


def _series(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c with samples_j = Re sum_k c_k e^{iku_j}, u_j = 2*pi*j/n, along the last
    axis: rfft / n, doubled between k = 0 and Nyquist (``_spectra``'s
    convention), in one pass over the modes that double; into ``out`` when
    given."""
    c = np.fft.rfft(samples, axis=-1, norm="forward", out=out)
    c[..., 1:(samples.shape[-1] + 1) // 2] *= 2.0
    return c


def _refined_min(values: np.ndarray, degree: int) -> tuple[float, float]:
    """(min, argmin) of the trigonometric polynomial of degree <= 2*degree
    sampled as ``values`` at u_j = 2*pi*j/n: Newton steps on its ``_series``
    from the grid minimum, kept if they lower it within one grid step."""
    h = 2 * np.pi / values.size
    j = int(np.argmin(values))
    c = _series(values)[:2 * degree + 1]
    k = np.arange(c.size)
    u = j * h
    for _ in range(4):
        terms = c * np.exp(1j * k * u)
        d1, d2 = (1j * k * terms).sum().real, -(k * k * terms).sum().real
        if not abs(d1) < h * d2:  # a constant, or a step past the grid step
            break
        u -= d1 / d2
    value = (c * np.exp(1j * k * u)).sum().real
    if value < values[j] and abs(u - j * h) <= h:
        return float(value), float(u % (2 * np.pi))
    return float(values[j]), float(j * h)


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


def _tangent_steps(d_alpha, d_beta):
    """Turn of atan2(beta', alpha') from each grid point to the next around
    the closed grid, wrapped into [-pi, pi)."""
    theta = np.arctan2(d_beta, d_alpha)
    return (np.roll(theta, -1) - theta + np.pi) % (2 * np.pi) - np.pi


def _turning_number(d_alpha, d_beta):
    """Rotation index of the closed tangent polygon, or None if unresolved.

    The unwrapped change of atan2(beta', alpha') around the closed grid is
    an exact multiple of 2*pi once every step is resolved.  The answer is
    only trusted when every step turns the same way by less than pi/2, so
    a tangent spinning past a coarse sample at low speed cannot alias.
    """
    steps = _tangent_steps(d_alpha, d_beta)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        return None
    if np.max(np.abs(steps)) >= np.pi / 2:
        return None
    return int(round(float(np.sum(steps)) / (2 * np.pi)))


def classify_curve(curve: PeriodicCurve) -> CurveReport:
    """Scan margins on a grid, refine the extrema, and decide embeddedness.

    The grid has max(JORDAN_SAMPLES, 8*(degree+1)) points, so the extrema
    scan cannot alias past a genuine dip at any degree; its values and
    both derivatives come from one inverse FFT.  Speed squared and the
    convexity expression have degree <= 2*degree, so their grid samples fix
    them exactly and each extremum is polished on their series, with no
    further curve evaluation.  Degenerate curves produce reports with the
    appropriate flags down, never exceptions.

    A regular curve whose convexity expression keeps one strict sign has a
    strictly monotone tangent angle, so by Hopf's Umlaufsatz it is embedded
    exactly when its turning number is +-1; that O(n) test decides it.
    Every other curve, and any curve whose tangent the grid does not
    resolve, goes through the polyline self-intersection test.
    """
    n_grid = max(JORDAN_SAMPLES, 8 * (curve.degree + 1))
    alpha, beta, da, db, dda, ddb = _eval_uniform(curve, n_grid)

    reg2, _ = _refined_min(da * da + db * db, curve.degree)
    regularity_margin = float(np.sqrt(max(reg2, 0.0)))

    conv = dda * db - da * ddb
    convexity_margin, u_star = _refined_min(conv, curve.degree)

    if convexity_margin > TOL:
        orientation = "negative"
    elif convexity_margin < -TOL:
        orientation = "positive"
    else:
        orientation = "degenerate"

    # Sign-definite convexity: the refined minimum is positive, or the
    # refined maximum (minimum of the negation) is negative.
    locally_convex = regularity_margin > TOL and (
        convexity_margin > TOL
        or -_refined_min(-conv, curve.degree)[0] < -TOL)
    turning = _turning_number(da, db) if locally_convex else None
    if turning is not None:
        embedded = abs(turning) == 1
    else:
        embedded = not _polyline_self_intersects(np.column_stack([alpha, beta]))

    return CurveReport(
        regularity_margin=regularity_margin,
        convexity_margin=convexity_margin,
        orientation=orientation,
        regular=regularity_margin > TOL,
        strictly_convex=convexity_margin > TOL,
        locally_convex=locally_convex,
        embedded=embedded,
        u_star=u_star,
    )


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def fit_curve(alpha_samples, beta_samples, degree: int) -> PeriodicCurve:
    """Least-squares Fourier fit from uniform periodic samples.

    With uniformly spaced samples the projection is a plain rFFT
    truncation; ``degree`` must leave the kept modes below Nyquist.
    """
    if not (_is_count(degree) and degree >= 0):
        raise ValidationError(f"degree must be an integer >= 0, got {degree!r}")
    alpha_samples = np.asarray(alpha_samples, dtype=float)
    beta_samples = np.asarray(beta_samples, dtype=float)
    n = alpha_samples.size
    if beta_samples.size != n:
        raise ValidationError("alpha/beta sample counts differ")
    if degree > (n - 1) // 2:
        raise ValidationError(f"degree {degree} needs more than {n} samples")
    if not (np.all(np.isfinite(alpha_samples)) and np.all(np.isfinite(beta_samples))):
        raise ValidationError("curve coefficients must be finite")

    # Re(c e^{iku}) = Re c cos ku - Im c sin ku, with c from ``_series``.
    a, b = _series(np.stack([alpha_samples, beta_samples]))[:, :degree + 1]
    return PeriodicCurve(a.real, -a.imag, b.real, -b.imag)


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
