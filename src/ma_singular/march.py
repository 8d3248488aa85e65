"""Cauchy march for the first-order system Z_v = M(Z) Z_u.

Z = (x, y, z, p, q) starts from axis data (0, 0, 0, alpha(u), beta(u)) and
is integrated upward in v with fixed-step RK4, spectral differentiation in
u, and a per-step exponential Fourier filter.  The march is an elliptic
Cauchy problem: mode k of any perturbation grows like e^{|k| v}, so the
filter and a high-mode growth monitor are load-bearing, not cosmetic.
Everything here is deterministic; two runs with identical inputs produce
bit-identical output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, _field_values, eval_field
from .curves import PeriodicCurve, eval_curve
from .errors import (
    BoxExitError,
    EllipticityAbortError,
    EllipticityError,
    FieldEvalError,
    InstabilityError,
    NonFiniteAbortError,
    OutOfBoxError,
    ValidationError,
)

__all__ = [
    "MarchParams",
    "StripSolution",
    "assemble_rhs",
    "march",
    "spectral_du",
    "spectral_filter",
    "stability_monitor",
]


def spectral_du(values: np.ndarray) -> np.ndarray:
    """d/du of a periodic sample vector by Fourier differentiation.

    Exact (to round-off) for trigonometric polynomials below Nyquist; the
    Nyquist mode itself is zeroed, the standard symmetric choice.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n % 2 != 0:
        raise ValidationError(f"spectral_du needs an even grid, got {n}")
    spec = np.fft.rfft(values)
    k = np.arange(n // 2 + 1)
    spec *= 1j * k
    spec[..., -1] = 0.0
    return np.fft.irfft(spec, n=n)


@dataclass(frozen=True)
class MarchParams:
    """Parameters of the strip march; defaults meet the |k|*R budget."""

    R: float = 0.15
    n_u: int = 128
    dv: float = 1e-3
    filter_strength: float = 36.0
    filter_order: int = 16
    filter_cutoff: float = 1.0
    monitor_threshold: float = 1e-3
    box_policy: str = "truncate"  # or "raise"
    negative_v: bool = False

    def validate(self, curve: PeriodicCurve | None = None) -> None:
        if not (self.R > 0):
            raise ValidationError(f"R must be positive, got {self.R}")
        if not (0 < self.dv <= self.R):
            raise ValidationError(f"dv={self.dv} must lie in (0, R={self.R}]")
        n = self.n_u
        if n < 4 or n & (n - 1):
            raise ValidationError(f"n_u={n} is not a power of two >= 4")
        if curve is not None and n < 4 * (curve.degree + 1):
            raise ValidationError(
                f"n_u={n} is below 4*(degree+1)={4 * (curve.degree + 1)}")
        if self.filter_strength <= 0 or self.filter_order < 2:
            raise ValidationError("filter strength must be > 0 and order >= 2")
        if not (0 < self.filter_cutoff <= 1):
            raise ValidationError(
                f"filter_cutoff={self.filter_cutoff} must lie in (0, 1]")
        if self.monitor_threshold <= 0:
            raise ValidationError("monitor threshold must be positive")
        if self.box_policy not in ("truncate", "raise"):
            raise ValidationError(
                f"box_policy must be 'truncate' or 'raise', got {self.box_policy!r}")


@dataclass(frozen=True, eq=False)
class StripSolution:
    """Levels of the marched strip plus per-level diagnostics.

    ``states`` has shape (levels, 5, n_u) with component order x,y,z,p,q.
    Level 0 is the axis data exactly.  ``status`` is one of "completed",
    "box-exit", "instability-abort", "ellipticity", "non-finite"; levels
    stored always passed the stability monitor.  ``levels_skipped`` counts
    the levels that tripped it once and drove the next step unstored.
    """

    v: np.ndarray
    u: np.ndarray
    states: np.ndarray
    high_frac: np.ndarray
    min_disc: np.ndarray
    status: str
    detail: str
    curve: PeriodicCurve
    field: CoefficientField
    params: MarchParams
    levels_skipped: int = 0

    def __post_init__(self):
        for name in ("v", "u", "states", "high_frac", "min_disc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_levels(self) -> int:
        return self.states.shape[0]

    @property
    def n_u(self) -> int:
        return self.states.shape[2]

    def level(self, k: int) -> np.ndarray:
        """The (5, n_u) state block at level k."""
        return self.states[k]


def assemble_rhs(level: np.ndarray, field: CoefficientField,
                 values=None) -> np.ndarray:
    """Z_v for one level: spectral Z_u pushed through the system matrix.

    ``level`` is the (5, n_u) block (x, y, z, p, q), or a (5, ..., n_u)
    stack of such blocks along the middle axes.  Rows follow the
    quasilinear system; for a pure field they reduce to
    x_v = -q_u/sqrt(E), y_v = p_u/sqrt(E), z_v = (q p_u - p q_u)/sqrt(E),
    p_v = -sqrt(E) y_u, q_v = sqrt(E) x_u.  ``values`` is (A, B, C, E, D)
    already evaluated at ``level``; without it the field is evaluated here.
    """
    x, y, z, p, q = level
    x_u, y_u, p_u, q_u = spectral_du(level[[0, 1, 3, 4]])
    a, b, c, e, disc = _field_values(field, level) if values is None else values
    root = np.sqrt(disc)
    x_v = (b * x_u - a * y_u - q_u) / root
    y_v = (c * x_u - b * y_u + p_u) / root
    z_v = ((b * p + c * q) * x_u - (a * p + b * q) * y_u
           + q * p_u - p * q_u) / root
    p_v = (-e * y_u + b * p_u + c * q_u) / root
    q_v = (e * x_u - a * p_u - b * q_u) / root
    return np.stack([x_v, y_v, z_v, p_v, q_v])


@functools.lru_cache(maxsize=16)
def _filter_factors(params: MarchParams) -> np.ndarray:
    """1 - sigma(k) for the compensated filter update, per rfft bin.

    sigma(k) = exp(-strength * (k / (cutoff * k_max))^order).  Computed
    via expm1 so the shoulder keeps sub-ulp damping accuracy; factors
    below 1e-18 are then snapped to exact zero so the deep passband is
    bitwise transparent at any data scale.  Cached per parameter set and
    read-only, since every step of a march uses the same factors.
    """
    k = np.arange(params.n_u // 2 + 1, dtype=float)
    k_cut = params.filter_cutoff * (params.n_u / 2)
    f = -np.expm1(-params.filter_strength * (k / k_cut) ** params.filter_order)
    f[f < 1e-18] = 0.0
    f.flags.writeable = False
    return f


def spectral_filter(level: np.ndarray, params: MarchParams) -> np.ndarray:
    """Damp the top Fourier modes of every field of a level.

    Implemented as level - irfft((1 - sigma) * rfft(level)): band-limited
    data is perturbed only through the spectral round-off junk the filter
    removes from the stopband, below 1e-15 of the data scale per step.
    """
    level = np.asarray(level, dtype=float)
    correction = _filter_factors(params) * np.fft.rfft(level)
    return level - np.fft.irfft(correction, n=level.shape[-1])


def stability_monitor(level: np.ndarray, params: MarchParams) -> tuple[float, bool]:
    """(worst high-mode energy fraction, exceeded flag) for a level.

    Per field, the fraction of spectral energy sitting in the top third
    of retained modes; smooth analytic levels give ~1e-16, noise-driven
    blowup heads toward 1/3.  The total includes the DC mode on purpose:
    a level that is all offset and no structure is quiet, not unstable.
    """
    level = np.atleast_2d(np.asarray(level, dtype=float))
    n = level.shape[-1]
    spec = np.fft.rfft(level)
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    energy = weights * np.abs(spec) ** 2
    k_band = (2 * (n // 2)) // 3
    total = np.sum(energy, axis=-1)
    high = np.sum(energy[..., k_band + 1:], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(total > 1e-300, high / np.maximum(total, 1e-300), 0.0)
    worst = float(np.max(frac))
    return worst, worst > params.monitor_threshold


def _rk4_step(level: np.ndarray, h: float, field: CoefficientField,
              values) -> np.ndarray:
    """One RK4 step; ``values`` is the field at ``level``, reused by k1."""
    k1 = assemble_rhs(level, field, values)
    k2 = assemble_rhs(level + 0.5 * h * k1, field)
    k3 = assemble_rhs(level + 0.5 * h * k2, field)
    k4 = assemble_rhs(level + h * k3, field)
    return level + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def march(curve: PeriodicCurve, field: CoefficientField,
          params: MarchParams | None = None) -> StripSolution:
    """Integrate the strip from the axis to v = R (or -R).

    Axis data the field rejects (outside the box, a non-finite
    coefficient, D <= 0) is a ValidationError: there is no partial
    solution to salvage.  Later failures follow ``box_policy``:
    "truncate" returns the strip marched so far with a status string,
    "raise" raises the matching error carrying the partial solution.

    Returns:
        StripSolution with status "completed" when v = R was reached, else
        "box-exit" / "instability-abort" / "ellipticity" / "non-finite".
    """
    if params is None:
        params = MarchParams()
    params.validate(curve)

    n_u = params.n_u
    u = 2.0 * np.pi * np.arange(n_u) / n_u
    alpha, beta, *_ = eval_curve(curve, u)
    zeros = np.zeros(n_u)
    level = np.stack([zeros, zeros.copy(), zeros.copy(), alpha, beta])

    # Box, evaluation and ellipticity failures on the axis data are
    # input errors: they surface here, before any step.  Each check's
    # values feed the k1 stage of the next step.
    try:
        values = eval_field(field, tuple(level))
    except FieldEvalError as err:
        raise ValidationError(f"initial data: {err}") from None

    sign = -1.0 if params.negative_v else 1.0

    v_list = [0.0]
    levels = [level]
    frac0, _ = stability_monitor(level, params)
    fracs = [frac0]
    discs = [float(np.min(values[4]))]

    status, detail = "completed", f"reached v={sign * params.R:.6g}"
    streak = skipped = 0
    v_now = 0.0
    step_index = 0

    def fail(kind: str, message: str, exc_type):
        nonlocal status, detail
        status, detail = kind, message
        if params.box_policy == "raise":
            partial = StripSolution(
                np.array(v_list), u, np.stack(levels), np.array(fracs),
                np.array(discs), status, detail, curve, field, params,
                skipped)
            raise exc_type(message, partial=partial)

    while v_now < params.R - 1e-12 * params.R:
        h = min(params.dv, params.R - v_now)
        try:
            nxt = _rk4_step(level, sign * h, field, values)
        except OutOfBoxError as err:
            fail("box-exit",
                 f"stage state left the box after v={sign * v_now:.6g}: {err}",
                 BoxExitError)
            break
        except EllipticityError as err:
            fail("ellipticity",
                 f"ellipticity lost after v={sign * v_now:.6g}: {err}",
                 EllipticityAbortError)
            break
        except FieldEvalError as err:
            fail("non-finite",
                 f"field evaluation failed after v={sign * v_now:.6g}: {err}",
                 NonFiniteAbortError)
            break

        nxt = spectral_filter(nxt, params)
        v_now = (step_index + 1) * params.dv if h == params.dv else params.R
        step_index += 1

        if not np.all(np.isfinite(nxt)):
            fail("non-finite", f"non-finite state at v={sign * v_now:.6g}",
                 NonFiniteAbortError)
            break

        try:
            values = _field_values(field, nxt)
        except OutOfBoxError as err:
            fail("box-exit", f"state left the box at v={sign * v_now:.6g}: {err}",
                 BoxExitError)
            break
        except EllipticityError as err:
            fail("ellipticity", f"ellipticity lost at v={sign * v_now:.6g}: {err}",
                 EllipticityAbortError)
            break
        except FieldEvalError as err:
            fail("non-finite",
                 f"field evaluation failed at v={sign * v_now:.6g}: {err}",
                 NonFiniteAbortError)
            break

        frac, exceeded = stability_monitor(nxt, params)
        if exceeded:
            streak += 1
            if streak >= 2:
                fail("instability-abort",
                     f"high-mode fraction {frac:.3g} > "
                     f"{params.monitor_threshold:.3g} on two consecutive "
                     f"levels at v={sign * v_now:.6g}", InstabilityError)
                break
            # Offending level drives the next step but is never stored.
            skipped += 1
            level = nxt
            continue

        streak = 0
        level = nxt
        v_list.append(sign * v_now)
        levels.append(nxt)
        fracs.append(frac)
        discs.append(float(np.min(values[4])))

    return StripSolution(np.array(v_list), u, np.stack(levels), np.array(fracs),
                         np.array(discs), status, detail, curve, field, params,
                         skipped)
