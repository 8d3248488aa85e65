"""Limit-gradient extraction: sample the gradient on shrinking circles,
extrapolate to the axis, fit a Fourier curve.

The gradient restricted to the circle of radius rho converges to the
limit curve linearly in rho (smooth-up-to-boundary expansion), so
Richardson extrapolation over radii r0, r0/2, r0/4, ... recovers the
boundary values to high order from a handful of circles.  Samplers are
plain callables (r, thetas) -> (p, q); one interpolates a reconstructed
GraphPatch, the others are closed forms used as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .curves import CurveReport, PeriodicCurve, classify_curve, eval_curve, fit_curve
from .errors import CoverageError, ValidationError
from .geometry import GraphPatch, _level_tables, _radius_lookup

__all__ = [
    "LimitGradientResult",
    "PatchSampler",
    "geometric_radii",
    "hausdorff_distance",
    "limit_gradient",
    "paraboloid_sampler",
    "patch_sampler",
    "radial_reference_height",
    "radial_reference_sampler",
    "radial_reference_slope",
    "richardson_extrapolate",
]


# ---------------------------------------------------------------------------
# Richardson extrapolation (ratio-2 radii, first-order base error)


def richardson_extrapolate(values):
    """Extrapolate f(r_m) -> f(0) for r_m = r0 * 2^{-m}, error c1 r + c2 r^2 + ...

    ``values`` is the sequence f(r_0), f(r_1), ... (scalars or arrays).
    Entry m of the returned pair is the top of the extrapolation tableau
    (orders 1..m-1 eliminated) and the magnitude of the last tableau
    correction, the usual error estimate.
    """
    vals = [np.asarray(v, dtype=float) for v in values]
    if len(vals) < 2:
        raise ValidationError("richardson_extrapolate needs at least two values")
    table = [vals[0]]
    for m in range(1, len(vals)):
        row = [vals[m]]
        for k in range(1, m + 1):
            factor = 2.0 ** k
            row.append((factor * row[k - 1] - table[k - 1]) / (factor - 1.0))
        prev_best = table[-1]
        table = row
    return table[-1], np.abs(table[-1] - prev_best)


def geometric_radii(r0: float, count: int = 5) -> tuple:
    """(r0, r0/2, ..., r0 * 2^{-(count-1)})."""
    if not (r0 > 0) or count < 2:
        raise ValidationError("need r0 > 0 and count >= 2")
    return tuple(r0 * 0.5 ** k for k in range(count))


def _check_radii(radii) -> tuple:
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2:
        raise ValidationError("limit_gradient needs at least two radii")
    for a, b in zip(radii, radii[1:]):
        if not (0 < b < a):
            raise ValidationError("radii must be positive and strictly decreasing")
        if abs(b / a - 0.5) > 1e-9:
            raise ValidationError(
                f"radii must halve (ratio 2): got {a:g} -> {b:g}")
    return radii


def _check_n_theta(n_theta: int, degree: int) -> None:
    if n_theta < 2 * (degree + 1):
        raise ValidationError(
            f"n_theta={n_theta} cannot resolve degree {degree}")


# ---------------------------------------------------------------------------
# Patch sampler


class PatchSampler:
    """Evaluate (p, q) of a single-valued patch on circles around the origin.

    Per level the image curve is star-shaped, so the angle is invertible:
    a query angle is located by a linear guess on the stored angle table
    and polished with Newton on the trigonometric interpolant, then p, q
    and the radius are evaluated spectrally at that parameter.  Between
    levels the values are blended linearly in radius.  Queries outside
    the covered band [r_lo, r_hi] raise CoverageError; angles must be a
    finite 1-D array (possibly empty, any real values), else
    ValidationError.

    Everything that depends only on the patch is built once here, from
    one angle analysis of all levels: per level the rho(theta) table, the
    sorted (theta, u) inverse table and the interpolant coefficients of
    x, y, p and q.  The bracket table of radii at the query angles is
    kept for the last angle set, since ``limit_gradient`` asks for every
    radius at the same angles.
    """

    def __init__(self, patch: GraphPatch):
        if patch.multivalued:
            raise ValidationError(
                "cannot sample a multivalued patch on circles")
        theta, self._tables = _level_tables(
            patch.x, patch.y, (patch.z, patch.p, patch.q), reduced=False)
        if self._tables is None:
            raise ValidationError("patch level is not star-shaped")
        # The angle table may be decreasing in u for negatively oriented
        # curves, hence the sort.
        order = np.argsort(theta, axis=-1)
        self._inverse = list(zip(np.take_along_axis(theta, order, axis=-1),
                                 patch.u[order]))
        self._rho_memo = (None, None)
        # The interpolant of n uniform real samples with rfft spectrum c is
        # sum_k a_k cos(k u) + b_k sin(k u); its u-derivative has the
        # coefficients -k a_k (of sin) and k b_k (of cos).
        n = patch.n_u
        self._k = np.arange(n // 2 + 1)
        self._coef = {}
        for name in ("x", "y", "p", "q"):
            spec = np.fft.rfft(getattr(patch, name), axis=-1)
            a = 2.0 * spec.real / n
            b = -2.0 * spec.imag / n
            a[:, 0] *= 0.5
            if n % 2 == 0:
                a[:, -1] *= 0.5
            self._coef[name] = (a, b, -self._k * a, self._k * b)
        query = np.linspace(-np.pi, np.pi, 720, endpoint=False)
        self.r_lo = float(np.max(_radius_lookup(self._tables[0], query)))
        self.r_hi = float(np.min(_radius_lookup(self._tables[-1], query)))

    def suggest_radii(self, max_count: int = 5) -> tuple:
        """Largest ratio-2 ladder that fits the covered band, top at 0.8 r_hi."""
        r0 = 0.8 * self.r_hi
        if r0 <= self.r_lo:
            raise CoverageError(
                f"band [{self.r_lo:.3g}, {self.r_hi:.3g}] too thin to sample")
        count = min(max_count, int(np.floor(np.log2(r0 / self.r_lo))) + 1)
        if count < 2:
            raise CoverageError(
                f"band [{self.r_lo:.3g}, {self.r_hi:.3g}] spans less than one "
                "radius halving")
        return geometric_radii(r0, count)

    def _level_values(self, k: int, theta_q: np.ndarray):
        """(rho, p, q) of level k at exact angles theta_q."""
        # Linear inverse guess on the (theta, u) table, then Newton on the
        # interpolant, with one cos/sin basis per evaluation point set.
        theta_sorted, u_sorted = self._inverse[k]
        period = 2.0 * np.pi
        lo = theta_sorted[0]
        tq = (theta_q - lo) % period + lo
        u = np.interp(tq, theta_sorted, u_sorted,
                      left=u_sorted[0], right=u_sorted[-1])
        ax, bx, dax, dbx = (c[k] for c in self._coef["x"])
        ay, by, day, dby = (c[k] for c in self._coef["y"])
        for _ in range(3):
            ku = np.multiply.outer(u, self._k)
            C, S = np.cos(ku), np.sin(ku)
            x = C @ ax + S @ bx
            y = C @ ay + S @ by
            dx = S @ dax + C @ dbx
            dy = S @ day + C @ dby
            f = np.arctan2(y, x) - theta_q
            f = (f + np.pi) % (2.0 * np.pi) - np.pi
            dtheta = (x * dy - y * dx) / (x * x + y * y)
            u = u - f / dtheta
        ku = np.multiply.outer(u, self._k)
        C, S = np.cos(ku), np.sin(ku)
        rho = np.hypot(C @ ax + S @ bx, C @ ay + S @ by)
        ap, bp = (c[k] for c in self._coef["p"][:2])
        aq, bq = (c[k] for c in self._coef["q"][:2])
        return rho, C @ ap + S @ bp, C @ aq + S @ bq

    def _brackets(self, r: float, thetas: np.ndarray) -> np.ndarray:
        """Per angle, the level k with rho_k <= r < rho_{k+1}, clipped: nested
        levels make each column of the radius table increase."""
        key = thetas.tobytes()
        if self._rho_memo[0] != key:
            self._rho_memo = (key, np.stack([_radius_lookup(table, thetas)
                                             for table in self._tables]))
        return np.clip(np.count_nonzero(self._rho_memo[1] <= r, axis=0) - 1,
                       0, len(self._tables) - 2)

    def __call__(self, r: float, thetas: np.ndarray):
        r = float(r)
        if not (self.r_lo - 1e-12 <= r <= self.r_hi + 1e-12):
            raise CoverageError(
                f"radius {r:.6g} outside covered band "
                f"[{self.r_lo:.6g}, {self.r_hi:.6g}]")
        try:
            thetas = np.asarray(thetas, dtype=float)
        except (TypeError, ValueError):
            thetas = None
        if thetas is None or thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
            raise ValidationError("sampler angles must be a finite 1-D array")
        idx = self._brackets(r, thetas)
        p_out = np.empty(thetas.size)
        q_out = np.empty(thetas.size)
        for k in np.unique(idx):
            sel = idx == k
            rho_a, p_a, q_a = self._level_values(k, thetas[sel])
            rho_b, p_b, q_b = self._level_values(k + 1, thetas[sel])
            w = (r - rho_a) / (rho_b - rho_a)
            p_out[sel] = (1.0 - w) * p_a + w * p_b
            q_out[sel] = (1.0 - w) * q_a + w * q_b
        return p_out, q_out


def patch_sampler(patch: GraphPatch) -> PatchSampler:
    return PatchSampler(patch)


# ---------------------------------------------------------------------------
# Closed-form samplers


def radial_reference_height(r):
    """z(r) = (r sqrt(1+r^2) + asinh r) / 2, the rotational peak solution."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (r * np.sqrt(1.0 + r * r) + np.arcsinh(r))


def radial_reference_slope(r):
    """|grad z| = sqrt(1 + r^2) for the rotational peak solution."""
    r = np.asarray(r, dtype=float)
    return np.sqrt(1.0 + r * r)


def radial_reference_sampler():
    """Gradient sampler of the rotational solution; limit is the unit circle."""

    def sample(r, thetas):
        thetas = np.asarray(thetas, dtype=float)
        slope = float(radial_reference_slope(r))
        return slope * np.cos(thetas), slope * np.sin(thetas)

    return sample


def paraboloid_sampler():
    """Gradient sampler of z = (x^2+y^2)/2; the limit degenerates to a point."""

    def sample(r, thetas):
        thetas = np.asarray(thetas, dtype=float)
        return r * np.cos(thetas), r * np.sin(thetas)

    return sample


# ---------------------------------------------------------------------------
# Limit gradient


@dataclass(frozen=True, eq=False)
class LimitGradientResult:
    """Fitted limit curve plus extrapolation and classification evidence."""

    curve: PeriodicCurve
    residual: float
    classification: CurveReport
    radii: tuple
    n_theta: int

    @property
    def jordan(self) -> bool:
        """True when the fitted limit is a regular embedded curve."""
        return self.classification.regular and self.classification.embedded


def limit_gradient(sampler, radii, n_theta: int = 256,
                   degree: int = 16) -> LimitGradientResult:
    """Extrapolate the gradient circles to the axis and fit a Fourier curve.

    Args:
        sampler: callable (r, thetas) -> (p, q) arrays.
        radii: strictly decreasing ratio-2 sequence, largest first.
        n_theta: uniform angle samples per circle.
        degree: Fourier degree of the fitted curve.

    Returns:
        LimitGradientResult; ``residual`` is the max last Richardson
        correction over all samples, an a-posteriori error estimate.

    Raises:
        CoverageError: a circle left the sampled annulus.
    """
    radii = _check_radii(radii)
    _check_n_theta(n_theta, degree)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    p_rows = []
    q_rows = []
    for r in radii:
        p, q = sampler(r, thetas)
        p_rows.append(np.asarray(p, dtype=float))
        q_rows.append(np.asarray(q, dtype=float))
    p_limit, p_err = richardson_extrapolate(p_rows)
    q_limit, q_err = richardson_extrapolate(q_rows)
    residual = float(max(np.max(p_err), np.max(q_err)))
    curve = fit_curve(p_limit, q_limit, degree)
    report = classify_curve(curve)
    return LimitGradientResult(curve=curve, residual=residual,
                               classification=report, radii=radii,
                               n_theta=n_theta)


# ---------------------------------------------------------------------------
# Hausdorff distance between closed curves


def _directed_distance(curve_a, curve_b, n: int) -> float:
    """max over n samples of A of the distance to B, by Newton foot points.

    Each sample starts at its nearest of 4n samples of B and takes 4 Newton
    steps on g(u) = (b(u) - a) . b'(u), g' = |b'|^2 + (b - a) . b'', none
    where g' <= 0.  A step is kept only if the squared distance does not
    grow, else halved for the next try.  The top foot distance is refined
    by the vertex of the parabola through it and its neighbours, if concave.
    """
    s = 2.0 * np.pi * np.arange(4 * n) / (4 * n)
    ax, ay = eval_curve(curve_a, s[::4])[:2]
    bx, by = eval_curve(curve_b, s)[:2]
    _, nearest = cKDTree(np.column_stack([bx, by])).query(
        np.column_stack([ax, ay]))
    t = t_best = s[nearest]
    d2_best = np.full(n, np.inf)
    step = np.zeros(n)
    for _ in range(5):
        x, y, dx, dy, ddx, ddy = eval_curve(curve_b, t)
        ex, ey = x - ax, y - ay
        d2 = ex * ex + ey * ey
        keep = d2 <= d2_best
        t_best, d2_best = np.where(keep, t, t_best), np.where(keep, d2, d2_best)
        dg = dx * dx + dy * dy + ex * ddx + ey * ddy
        newton = np.divide(-(ex * dx + ey * dy), dg, out=np.zeros(n),
                           where=dg > 0)
        step = np.where(keep, newton, 0.5 * step)
        t = t_best + step
    k = int(np.argmax(d2_best))
    f_prev, f_top, f_next = np.sqrt(d2_best[[k - 1, k, (k + 1) % n]])
    bend = f_prev - 2.0 * f_top + f_next
    if bend < 0:
        f_top -= (f_prev - f_next) ** 2 / (8.0 * bend)
    return float(f_top)


def hausdorff_distance(curve_a: PeriodicCurve, curve_b: PeriodicCurve,
                       n: int = 1024) -> float:
    """Hausdorff distance between the images of two closed PeriodicCurves.

    Each curve is sampled at n points, whose foot points on the other curve
    are solved for with its exact derivatives: there is no chord floor, and
    parametrization and orientation do not matter.  Near a ridge, where two
    feet are equally near, it keeps the accuracy of the 4n seed samples.  A
    non-curve argument and n < 3 raise ValidationError.
    """
    if not all(isinstance(c, PeriodicCurve) for c in (curve_a, curve_b)):
        raise ValidationError("hausdorff_distance takes two PeriodicCurves")
    if n < 3:
        raise ValidationError(f"hausdorff_distance needs n >= 3, got {n}")
    return max(_directed_distance(curve_a, curve_b, n),
               _directed_distance(curve_b, curve_a, n))
