"""Limit-gradient extraction: sample the gradient on shrinking circles,
extrapolate to the axis, fit a Fourier curve.

The gradient along a ray is analytic in the radius rho at 0 (smooth up to
the boundary), so the polynomial through its values on a few circles,
evaluated at rho = 0 in barycentric form (Berrut and Trefethen, SIAM
Review 46, 2004), recovers the boundary values.  The circles sit at
Chebyshev points of the first kind on the lowest eighth of the covered
band, nearest the answer (Trefethen, Approximation Theory and
Approximation Practice, ch. 5, 8).  Samplers are plain callables
(radii, thetas) -> (p, q) of shape (radii, thetas); one interpolates a
reconstructed GraphPatch, spectrally along each level and by the cubic
Hermite interpolant in radius between levels, with the slopes the
patch's Hessian gives; the other is the closed form of the radial
reference, used as an oracle.  The fit keeps the modes the extrapolated
samples resolve.  Recovered curves are judged by ``hausdorff_distance``,
which for the strictly convex curves of the class M2 is the largest gap
between support functions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .curves import (
    JORDAN_SAMPLES,
    CurveReport,
    PeriodicCurve,
    _eval_running,
    _eval_uniform,
    _is_count,
    _running_basis,
    _series,
    _tangent_steps,
    _turning_number,
    classify_curve,
    fit_curve,
)
from .errors import CoverageError, ValidationError
from .geometry import GraphPatch, _level_tables, _radii_at

__all__ = [
    "LimitGradientResult",
    "PatchSampler",
    "geometric_radii",
    "hausdorff_distance",
    "limit_gradient",
    "patch_sampler",
    "radial_reference_height",
    "radial_reference_sampler",
    "radial_reference_slope",
]

#: Radii on the ladders of ``_chebyshev_radii``.
_N_RADII = 5
#: The share of a band, from its lower end, that ``_chebyshev_radii`` fills.
_BAND_FRACTION = 0.125


# ---------------------------------------------------------------------------
# Radii and extrapolation to the axis


def _chebyshev_radii(lo: float, hi: float) -> tuple:
    """``_N_RADII`` Chebyshev points of the first kind on the lowest
    ``_BAND_FRACTION`` of the band [lo, hi], largest first; all lie strictly
    inside it."""
    half = 0.5 * _BAND_FRACTION * (hi - lo)
    angles = (2 * np.arange(_N_RADII) + 1) * np.pi / (2 * _N_RADII)
    return tuple(float(r) for r in lo + half + half * np.cos(angles))


def _weights_at_zero(radii: np.ndarray) -> np.ndarray:
    """l_j(0), so that p(0) = sum_j l_j(0) f_j for the polynomial p through
    (radii[j], f_j): the second barycentric formula, whose weights add up
    to 1."""
    gaps = radii[:, None] - radii[None, :]
    np.fill_diagonal(gaps, 1.0)
    weights = 1.0 / (np.prod(gaps, axis=1) * -radii)
    return weights / np.sum(weights)


def geometric_radii(r0: float, count: int = 5) -> tuple:
    """(r0, r0/2, ..., r0 * 2^{-(count-1)})."""
    if not (_is_real(r0) and r0 > 0 and np.isfinite(r0)
            and _is_count(count) and count >= 2):
        raise ValidationError(
            f"need finite r0 > 0 and integer count >= 2: got {r0!r}, {count!r}")
    return tuple(r0 * 0.5 ** k for k in range(count))


def _as_radii(radii) -> np.ndarray:
    """radii as a 1-D float array of finite reals, else ValidationError;
    strings, booleans and nested sequences are not numbers."""
    values = list(radii) if np.iterable(radii) else [None]
    if not all(_is_real(r) for r in values):
        raise ValidationError(
            f"radii must be numbers in a flat sequence, got {radii!r}")
    values = np.array(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"radii must be finite, got {radii!r}")
    return values


def _check_radii(radii) -> tuple:
    radii = _as_radii(radii)
    if radii.size < 2:
        raise ValidationError("limit_gradient needs at least two radii")
    if not (radii[-1] > 0 and np.all(np.diff(radii) < 0)):
        raise ValidationError("radii must be positive and strictly decreasing")
    return tuple(radii.tolist())


#: The angles per circle of ``limit_gradient`` (and of every CLI
#: extraction): even, so theta + pi is on the grid; it resolves degree 127.
_N_THETA = 256
#: The round-off of ``limit_gradient``'s samples, relative to the largest:
#: no mode below it is resolved.
_ROUND_OFF = 1e-14


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Patch sampler


class PatchSampler:
    """Evaluate (p, q) of a single-valued patch on circles around the origin.

    Per level the image curve is star-shaped, so the angle is invertible:
    a query angle is located by a cubic Hermite guess on the stored angle
    table, with the exact slope du/dtheta = rho^2 / (x y_u - y x_u) at its
    entries, and polished by 2 Newton steps on the trigonometric
    interpolant.  The final step evaluates x, y, p, q and the Hessian
    r, s, t spectrally at that parameter.  Between the two levels that
    bracket the query radius the values are blended by the cubic Hermite
    interpolant in radius (dense output, Hairer, Norsett and Wanner,
    Solving ODEs I, II.6), whose end slopes are the exact radial
    derivatives d(p, q)/drho = (r cos theta + s sin theta,
    s cos theta + t sin theta).  A patch whose r, s or t is not finite on
    every node, or that is multivalued, raises ValidationError.  A call
    (radii, thetas) returns p and q of shape (radii, thetas); radii outside
    the covered band [r_lo, r_hi] raise CoverageError, and radii that are
    not finite reals or angles that are not a finite 1-D array (either
    may be empty) ValidationError.

    Everything that depends only on the patch is built once here, and no
    call changes it: the angle tables of all levels (angles in increasing
    order, rho and u at them; the patch's own tables when
    ``reconstruct_graph`` made them), du/dtheta at every node, and the
    complex interpolant coefficients of x, y, p, q, r, s and t.  A call
    sorts the (angle, level) pairs of the brackets of all its radii by level
    and works once per run of same-level pairs: one search of the level's
    angle table for the guess, and per Newton step the run's basis e^{iku}
    and one product that broadcasts the level's coefficient rows against
    each pair's basis row, so no pair's bits depend on the others.
    """

    def __init__(self, patch: GraphPatch):
        if patch.multivalued:
            raise ValidationError(
                "cannot sample a multivalued patch on circles")
        if not all(np.all(np.isfinite(a)) for a in (patch.r, patch.s, patch.t)):
            raise ValidationError(
                "cannot sample a patch whose Hessian is not finite")
        self._tables = patch.level_tables
        if self._tables is None:
            self._tables = _level_tables(patch.x, patch.y,
                                         (patch.z, patch.p, patch.q))
        if self._tables is None:
            raise ValidationError("patch level is not star-shaped")
        # Per level the interpolants Re sum_k c_k e^{iku} of ``_series`` of
        # x, y, p, q, r, s and t, after i k c_k of x and y, which are those
        # of x_u and y_u.
        k = np.arange(patch.n_u // 2 + 1)
        self._coef = np.empty((patch.n_levels, 9, k.size), dtype=complex)
        for row, samples in enumerate((patch.x, patch.y, patch.p, patch.q,
                                       patch.r, patch.s, patch.t), 2):
            _series(samples, out=self._coef[:, row])
        self._coef[:, :2] = derivative = 1j * k * self._coef[:, 2:4]
        # du/dtheta = rho^2 / (x y_u - y x_u) at the nodes.  The irfft of
        # the derivative rows doubles x_u and y_u: it counts each mode k
        # below Nyquist as k and -k, and the rows vanish at k = 0 and
        # Nyquist on the nodes.
        x_u2, y_u2 = np.moveaxis(
            np.fft.irfft(derivative, patch.n_u, norm="forward"), 1, 0)
        self._du = 2.0 * (patch.x ** 2 + patch.y ** 2) / (
            patch.x * y_u2 - patch.y * x_u2)
        # u at the increasing angles: reversed for negatively oriented
        # curves.  The closing angle entry is the first node one turn of u
        # on, on an m-fold cover too.
        u = patch.u[self._tables[2]]
        turn = np.where(u[:, :1] < u[:, -1:], 2.0 * np.pi, -2.0 * np.pi)
        self._u = np.concatenate([u, u[:, :1] + turn], axis=-1)
        self._rho_min = np.min(self._tables[1], axis=1)
        query = np.linspace(-np.pi, np.pi, 720, endpoint=False)
        inner, outer = _radii_at(self._tables, query, [0, -1])
        self.r_lo, self.r_hi = float(np.max(inner)), float(np.min(outer))

    def suggest_radii(self) -> tuple:
        """``_chebyshev_radii`` of the covered band [r_lo, r_hi]."""
        if self.r_hi <= self.r_lo:
            raise CoverageError(
                f"band [{self.r_lo:.3g}, {self.r_hi:.3g}] too thin to sample")
        return _chebyshev_radii(self.r_lo, self.r_hi)

    def _guess(self, level: int, theta_q: np.ndarray) -> np.ndarray:
        """u where the level meets each angle of theta_q, cubic Hermite on
        the level's (theta, u) table with du/dtheta at its entries."""
        # The closing entry counts only when every entry does, so the clip
        # to the last interval makes j the same as without it.  Entry j is
        # node order[j], and the closing entry is the first node again.
        theta, order = self._tables[0][level], self._tables[2][level]
        tq = (theta_q - theta[0]) % (2.0 * np.pi) + theta[0]
        j = np.clip(np.searchsorted(theta, tq, side="right") - 1,
                    0, order.size - 1)
        t0, t1 = theta[j], theta[j + 1]
        u, du = self._u[level], self._du[level]
        h = t1 - t0
        m0 = h * du[order[j]]
        m1 = h * du[order[(j + 1) % order.size]]
        return np.where(tq < t1, _hermite((tq - t0) / h, u[j], u[j + 1], m0, m1),
                        u[j + 1])

    def _sums(self, u: np.ndarray, runs, *rows: slice) -> list:
        """Per slice of ``rows``, those coefficient rows summed at each
        pair's e^{iku}, (rows, pairs); run (level, a, b) reads pairs a:b on
        that level, and builds the basis of those pairs alone."""
        # Broadcasting the level's rows gives each pair a (1, modes) @
        # (modes, rows) product of its own, with no copy of the rows.
        sums = [np.empty((u.size, 1, r.stop - r.start), dtype=complex)
                for r in rows]
        for level, a, b in runs:
            basis = _running_basis(u[a:b], self._coef.shape[-1])[:, None, :]
            for out, r in zip(sums, rows):
                np.matmul(basis, self._coef[level, r].T, out=out[a:b])
        return [s[:, 0].T.real for s in sums]

    def _solve(self, levels: np.ndarray, theta_q: np.ndarray):
        """(rho, p, q, r, s, t) where level levels[i] meets angle theta_q[i],
        per pair; levels is sorted, and each run of one level is worked
        once."""
        # ``_guess`` polished by 2 Newton steps on x_u, y_u, x and y; at the
        # end x and y, then p, q, r, s and t.
        starts = np.flatnonzero(np.diff(levels, prepend=-1))
        runs = [(levels[a], a, b)
                for a, b in zip(starts, [*starts[1:], levels.size])]
        u = np.empty(theta_q.size)
        for level, a, b in runs:
            u[a:b] = self._guess(level, theta_q[a:b])
        for _ in range(2):
            dx, dy, x, y = self._sums(u, runs, slice(0, 4))[0]
            f = np.arctan2(y, x) - theta_q
            f = (f + np.pi) % (2.0 * np.pi) - np.pi
            dtheta = (x * dy - y * dx) / (x * x + y * y)
            u = u - f / dtheta
        (x, y), rest = self._sums(u, runs, slice(2, 4), slice(4, 9))
        return (np.hypot(x, y), *rest)

    def _brackets(self, radii: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Per radius r and angle, the level k with rho_k <= r < rho_{k+1},
        clipped: nested levels make each column of the radius table increase.

        The table runs to the last level whose smallest tabled radius is
        <= the largest r.  Its rho at any angle interpolates the table, so
        every later level lies beyond every r at every angle and adds nothing
        to a count; the margin covers the rounding of the interpolation.
        """
        top = np.max(radii, initial=0.0)
        reach = 1 + int(np.max(np.flatnonzero(self._rho_min <= top + 1e-12 * top),
                               initial=-1))
        rho = _radii_at(self._tables, thetas, slice(0, reach))
        return np.clip(np.count_nonzero(rho <= radii[:, None, None], axis=1) - 1,
                       0, self._coef.shape[0] - 2)

    def __call__(self, radii, thetas: np.ndarray):
        radii = _as_radii(radii)
        outside = radii[(radii < self.r_lo - 1e-12) | (radii > self.r_hi + 1e-12)]
        if outside.size:
            raise CoverageError(f"radius {outside[0]:.6g} outside covered band "
                                f"[{self.r_lo:.6g}, {self.r_hi:.6g}]")
        try:
            thetas = np.asarray(thetas, dtype=float)
        except (TypeError, ValueError):
            thetas = None
        if thetas is None or thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
            raise ValidationError("sampler angles must be a finite 1-D array")
        idx = self._brackets(radii, thetas)
        # One solve over the pairs (angle, level below r) and (angle, level
        # above) of every r, sorted by level into runs.
        levels = np.stack([idx, idx + 1]).ravel()
        order = np.argsort(levels, kind="stable")
        angles = np.tile(thetas, 2 * radii.size)[order]
        solved = np.empty((6, levels.size))
        solved[:, order] = self._solve(levels[order], angles)
        rho_0, p_0, q_0, r_0, s_0, t_0 = solved.reshape(6, 2, *idx.shape)[:, 0]
        rho_1, p_1, q_1, r_1, s_1, t_1 = solved.reshape(6, 2, *idx.shape)[:, 1]
        h = rho_1 - rho_0
        w = (radii[:, None] - rho_0) / h
        # The slopes in w are h d(p, q)/drho, and along the ray at theta
        # d(p, q)/drho = (r cos theta + s sin theta, s cos theta + t sin theta).
        hx, hy = h * np.cos(thetas), h * np.sin(thetas)
        return (_hermite(w, p_0, p_1, r_0 * hx + s_0 * hy, r_1 * hx + s_1 * hy),
                _hermite(w, q_0, q_1, s_0 * hx + t_0 * hy, s_1 * hx + t_1 * hy))


def _hermite(w, f_0, f_1, m_0, m_1):
    """The cubic with values f_0, f_1 and slopes m_0, m_1 at w = 0 and 1."""
    return f_0 + w * (m_0 + w * (3.0 * (f_1 - f_0) - 2.0 * m_0 - m_1
                                 + w * (2.0 * (f_0 - f_1) + m_0 + m_1)))


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

    def sample(radii, thetas):
        slope = radial_reference_slope(_as_radii(radii))[:, None]
        return slope * np.cos(thetas), slope * np.sin(thetas)

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

    @property
    def jordan(self) -> bool:
        """True when the fitted limit is in the class M2: a regular, strictly
        convex Jordan curve, in either orientation."""
        return self.classification.locally_convex and self.classification.embedded


def limit_gradient(sampler, radii) -> LimitGradientResult:
    """Extrapolate the gradient circles to the axis and fit a Fourier curve.

    The fit keeps the modes up to the last one below Nyquist whose
    amplitude exceeds ``residual`` and the samples' round-off: an analytic
    curve's modes decay geometrically, so those past it are below the
    error of the extrapolation (Aurentz and Trefethen, ACM TOMS 43, 2017).

    Args:
        sampler: callable (radii, thetas) -> (p, q), each of shape
            (radii, thetas); it is called once, with every radius.
        radii: strictly decreasing positive radii, largest first.

    Returns:
        LimitGradientResult; ``residual`` is the largest change of any
        extrapolated sample when the smallest radius is dropped.  It is an
        a-posteriori estimate, not a bound: it does not bracket the error
        of the curve, and it sets the floor below which modes are dropped.

    Raises:
        CoverageError: a circle left the sampled annulus.
        ValidationError: malformed radii, or samples that are not two
            finite (radii, thetas) arrays.
    """
    radii = _check_radii(radii)
    thetas = 2.0 * np.pi * np.arange(_N_THETA) / _N_THETA
    shape = (len(radii), _N_THETA)
    try:
        samples = np.array(sampler(radii, thetas), dtype=float)
    except (TypeError, ValueError):
        samples = None
    if samples is None or samples.shape != (2, *shape):
        raise ValidationError(f"the sampler must return (p, q), each of shape {shape}")
    if not np.all(np.isfinite(samples)):
        raise ValidationError("the sampler's samples must be finite")
    # The polynomial in rho through every radius, and through all but the
    # smallest, evaluated at rho = 0.
    nodes = np.array(radii)
    limit = np.tensordot(_weights_at_zero(nodes), samples, (0, 1))
    coarse = np.tensordot(_weights_at_zero(nodes[:-1]), samples[:, :-1], (0, 1))
    residual = float(np.max(np.abs(coarse - limit)))
    # The degree: the last mode k below Nyquist whose amplitude
    # |(a_k, b_k)| exceeds the floor, else 0.
    floor = max(residual, _ROUND_OFF * float(np.max(np.abs(samples))))
    amplitude = np.hypot(*np.abs(_series(limit)[:, :(_N_THETA + 1) // 2]))
    degree = int(max(np.flatnonzero(amplitude > floor), default=0))
    curve = fit_curve(limit[0], limit[1], degree)
    report = classify_curve(curve)
    return LimitGradientResult(curve=curve, residual=residual,
                               classification=report, radii=radii)


# ---------------------------------------------------------------------------
# Hausdorff distance between strictly convex curves


#: Most grid points ``_support_function`` doubles its grid to.
_SUPPORT_GRID_MAX = 1 << 16
#: The uniform angles at which ``hausdorff_distance`` compares support
#: functions.
_HAUSDORFF_ANGLES = 1024


def _support_function(curve: PeriodicCurve, n: int) -> np.ndarray:
    """h(theta_j) = max_u <gamma(u), e(theta_j)> at theta_j = 2*pi*j/n.

    The tangent angle on ``classify_curve``'s grid must turn strictly
    monotonically through exactly one turn, in either orientation (its
    turning number is +-1), else ValidationError.  Where every step turns
    the same way but some step is too long for ``_turning_number`` to
    trust, the grid doubles, up to ``_SUPPORT_GRID_MAX`` points.  The
    outward-normal angle, unwrapped and made increasing, gives each
    theta_j a linear guess of its support parameter, which 3 Newton steps
    on g(u) = <gamma'(u), e(theta_j)>, g' = <gamma''(u), e(theta_j)>,
    polish.
    """
    n_grid = max(JORDAN_SAMPLES, 8 * (curve.degree + 1))
    while True:
        da, db = _eval_uniform(curve, n_grid)[2:4]
        turn = _turning_number(da, db)
        if turn is not None or n_grid >= _SUPPORT_GRID_MAX:
            break
        steps = _tangent_steps(da, db)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            break
        n_grid *= 2
    if turn not in (1, -1):
        raise ValidationError("hausdorff_distance needs regular, strictly "
                              "convex embedded curves")
    # The outward normal is the tangent turned by -turn * pi/2; times turn,
    # its angle increases through one turn.
    psi = turn * np.unwrap(np.arctan2(db, da)) - 0.5 * np.pi
    psi = np.append(psi, psi[0] + 2.0 * np.pi)
    theta = 2.0 * np.pi * np.arange(n) / n
    target = (turn * theta - psi[0]) % (2.0 * np.pi) + psi[0]
    u = np.interp(target, psi, 2.0 * np.pi * np.arange(n_grid + 1) / n_grid)
    cos, sin = np.cos(theta), np.sin(theta)
    for step in range(4):
        x, y, dx, dy, ddx, ddy = _eval_running(curve, u)
        if step == 3:
            return x * cos + y * sin
        u = u - (dx * cos + dy * sin) / (ddx * cos + ddy * sin)


def hausdorff_distance(curve_a: PeriodicCurve, curve_b: PeriodicCurve) -> float:
    """Hausdorff distance between two strictly convex closed PeriodicCurves.

    For convex bodies it is max over theta of |h_a - h_b|, the gap of their
    support functions (Schneider, Convex Bodies, 2nd ed., Lemma 1.8.14).
    Both are solved for at ``_HAUSDORFF_ANGLES`` uniform angles with exact
    derivatives, so parametrization and orientation do not matter, and the
    top gap is refined by the vertex of the parabola through it and its
    neighbours, if concave.  A non-curve argument, and a curve whose
    tangent does not turn strictly monotonically through one turn (not
    regular, convex and embedded), or turns too fast for a grid of
    ``_SUPPORT_GRID_MAX`` points, raise ValidationError.
    """
    if not all(isinstance(c, PeriodicCurve) for c in (curve_a, curve_b)):
        raise ValidationError("hausdorff_distance takes two PeriodicCurves")
    n = _HAUSDORFF_ANGLES
    gap = np.abs(_support_function(curve_a, n) - _support_function(curve_b, n))
    k = int(np.argmax(gap))
    f_prev, f_top, f_next = gap[[k - 1, k, (k + 1) % n]]
    bend = f_prev - 2.0 * f_top + f_next
    if bend < 0:
        f_top -= (f_prev - f_next) ** 2 / (8.0 * bend)
    return float(f_top)
