"""Cauchy march for the first-order system Z_v = M(Z) Z_u.

Z = (x, y, z, p, q) starts from axis data (0, 0, 0, alpha(u), beta(u)) and
is integrated upward in v with fixed-step RK4, spectral differentiation in
u, and a per-step exponential Fourier filter.  Z_u of a level comes from
its monitor's rfft, and of a later RK4 stage from one matrix product on
up to ``_DU_MATRIX_MAX_N`` points, else by FFT.  The march is an elliptic
Cauchy problem: mode k of any perturbation grows like e^{|k| v}, so the
filter and a high-mode growth monitor are load-bearing, not cosmetic.
Everything here is deterministic; two runs with identical inputs produce
bit-identical output.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, _field_values, eval_field
from .curves import PeriodicCurve, eval_curve
from .errors import EllipticityError, FieldEvalError, OutOfBoxError, ValidationError

__all__ = [
    "MarchParams",
    "StripSolution",
    "assemble_rhs",
    "march",
    "spectral_du",
    "spectral_filter",
    "stability_monitor",
]


#: The filter of every step is sigma(k) = exp(-FILTER_STRENGTH
#: (k / (FILTER_CUTOFF k_max))^FILTER_ORDER) on the rfft bins k.
FILTER_STRENGTH = 36.0
FILTER_ORDER = 16
FILTER_CUTOFF = 1.0
#: A level whose high-band energy fraction exceeds this trips the monitor.
MONITOR_THRESHOLD = 1e-3


def _even_grid(values: np.ndarray, name: str) -> int:
    """The size of the last axis of ``values``, which must be even."""
    if values.ndim == 0:
        raise ValidationError(f"{name} needs a grid on the last axis, "
                              "got a 0-d value")
    n = values.shape[-1]
    if n % 2 != 0:
        raise ValidationError(f"{name} needs an even grid, got {n}")
    return n


def spectral_du(values: np.ndarray) -> np.ndarray:
    """d/du of a periodic sample vector by Fourier differentiation.

    Exact (to round-off) for trigonometric polynomials below Nyquist; the
    Nyquist mode itself is zeroed, the standard symmetric choice.
    """
    values = np.asarray(values, dtype=float)
    n = _even_grid(values, "spectral_du")
    return _du_of_spectrum(np.fft.rfft(values), n)


@functools.lru_cache(maxsize=16)
def _du_factors(n: int) -> np.ndarray:
    """i k per rfft bin of an n-point grid; cached per size and read-only."""
    factors = 1j * np.arange(n // 2 + 1)
    factors.flags.writeable = False
    return factors


#: The largest grid whose RK4 stages differentiate by ``_du_matrix``.  On
#: a 2-core x86-64 host (one OpenBLAS thread) the product took the default
#: march from 28 to 22 ms (faster in 75 of 80 interleaved pairs); at 256
#: points it was faster in only 30 of 80.
_DU_MATRIX_MAX_N = 128


@functools.lru_cache(maxsize=16)
def _du_matrix(n: int) -> np.ndarray:
    """``spectral_du`` of the identity rows: ``values @ _du_matrix(n)`` is
    d/du of ``values``.  Cached per size and read-only."""
    matrix = spectral_du(np.eye(n))
    matrix.flags.writeable = False
    return matrix


def _du_of_spectrum(spec: np.ndarray, n: int, out=None) -> np.ndarray:
    """``spectral_du`` from the rfft spectrum, which is overwritten; the
    derivative is written into ``out`` when given."""
    spec *= _du_factors(n)
    spec[..., -1] = 0.0
    return np.fft.irfft(spec, n=n, out=out)


@dataclass(frozen=True)
class MarchParams:
    """Parameters of the strip march; defaults meet the |k|*R budget."""

    R: float = 0.15
    n_u: int = 128
    dv: float = 1e-3

    def validate(self, curve: PeriodicCurve | None = None) -> None:
        if not (0 < self.R < math.inf):
            raise ValidationError(f"R must be positive and finite, got {self.R}")
        if not (0 < self.dv <= self.R):
            raise ValidationError(f"dv={self.dv} must lie in (0, R={self.R}]")
        n = self.n_u
        if n < 4 or n & (n - 1):
            raise ValidationError(f"n_u={n} is not a power of two >= 4")
        if curve is not None and n < 4 * (curve.degree + 1):
            raise ValidationError(
                f"n_u={n} is below 4*(degree+1)={4 * (curve.degree + 1)}")


@dataclass(frozen=True, eq=False)
class StripSolution:
    """Levels of the marched strip plus per-level diagnostics.

    ``states`` has shape (levels, 5, n_u) with component order x,y,z,p,q.
    Level 0 is the axis data exactly.  ``status`` is one of "completed",
    "box-exit", "instability-abort", "ellipticity", "non-finite"; levels
    stored always passed the stability monitor.  ``levels_skipped`` counts
    the levels that tripped it once and drove the next step unstored.

    ``states_u`` and ``states_v`` are Z_u and Z_v at each stored level,
    shaped as ``states``, as the march took them: Z_v is the k1 of the
    step that left the level (the last level's is the same system, taken
    when the march ends).  They are None on a strip the march did not
    make, ``dataclasses.replace`` included, whose analysis derives them
    from its states.
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
    states_u: np.ndarray | None = dataclasses.field(default=None, init=False,
                                                    repr=False)
    states_v: np.ndarray | None = dataclasses.field(default=None, init=False,
                                                    repr=False)

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


#: Stands for the coefficient of a term that is the constant 1.
_UNIT = object()
#: Slots of the coefficients a term can carry: the field's A, B, C and E,
#: the state components p and q, and the sums B p + C q and A p + B q.
_A, _B, _C, _E, _P, _Q, _BP_CQ, _AP_BQ = range(8)
#: The two sums as (negative, coefficient, state row) terms, left to right.
_SUMS = (((False, _B, 3), (False, _C, 4)),
         ((False, _A, 3), (False, _B, 4)))
#: The rows of sqrt(D) Z_v as (negative, coefficient, row of Z_u) terms,
#: left to right, in the order x, y, z, p, q.
_ROWS = (
    ((False, _B, 0), (True, _A, 1), (True, _UNIT, 4)),
    ((False, _C, 0), (True, _B, 1), (False, _UNIT, 3)),
    ((False, _BP_CQ, 0), (True, _AP_BQ, 1), (False, _Q, 3), (True, _P, 4)),
    ((True, _E, 1), (False, _B, 3), (False, _C, 4)),
    ((False, _E, 0), (True, _A, 3), (True, _B, 4)),
)


def _kind(constant):
    """0 or 1 for a coefficient that is that constant, else None: any
    other constant is multiplied in as a state-dependent value is."""
    if constant is not None:
        if constant == 0:
            return 0
        if constant == 1:
            return 1
    return None


@functools.lru_cache(maxsize=None)
def _rhs_plan(kinds: tuple) -> tuple:
    """(sums, rows, divide) of ``assemble_rhs`` for the ``_kind`` of A, B,
    C, E and D.

    ``sums`` and ``rows`` are tuples of term lists (negative, slot, row)
    in their order; a term whose coefficient is the constant 0 is gone,
    and the slot of a constant 1 is None.  A sum with no terms left is
    the constant 0 in the rows that carry it.  ``divide`` is False when
    sqrt(D) is the constant 1.  At most 3**5 kind patterns exist, so the
    cache is bounded whatever fields are seen.
    """
    kind = {_UNIT: 1, _P: None, _Q: None, **dict(zip((_A, _B, _C, _E), kinds))}

    def resolve(terms):
        return tuple((negative, None if kind[slot] == 1 else slot, row)
                     for negative, slot, row in terms if kind[slot] != 0)

    sums = tuple(map(resolve, _SUMS))
    kind[_BP_CQ], kind[_AP_BQ] = (None if terms else 0 for terms in sums)
    return sums, tuple(map(resolve, _ROWS)), kinds[4] != 1


def _sum_into(out, terms, coefficients, factors):
    """``out`` = the sum of +-coefficients[slot] * factors[row] over the
    (negative, slot, row) terms, left to right; slot None is a unit
    coefficient.  Keeps the bits of the full sum up to the sign of an
    exact zero."""
    negative, slot, row = terms[0]
    if slot is not None:
        np.multiply(coefficients[slot], factors[row], out=out)
        if negative:
            np.negative(out, out=out)
    elif negative:
        np.negative(factors[row], out=out)
    else:
        out[...] = factors[row]
    for negative, slot, row in terms[1:]:
        term = factors[row] if slot is None else coefficients[slot] * factors[row]
        (np.subtract if negative else np.add)(out, term, out=out)
    return out


def assemble_rhs(level: np.ndarray, field: CoefficientField,
                 values=None, level_u=None, out=None, plan=None) -> np.ndarray:
    """Z_v for one level: spectral Z_u pushed through the system matrix.

    ``level`` is the (5, n_u) block (x, y, z, p, q), or a (5, ..., n_u)
    stack of such blocks along the middle axes.  Rows follow the
    quasilinear system; for a pure field they reduce to
    x_v = -q_u/sqrt(E), y_v = p_u/sqrt(E), z_v = (q p_u - p q_u)/sqrt(E),
    p_v = -sqrt(E) y_u, q_v = sqrt(E) x_u.  ``values`` is (A, B, C, E, D)
    already evaluated at ``level``; without it the field is evaluated here.
    ``level_u`` is ``spectral_du(level)`` when the caller has it.  Z_v is
    written into ``out`` when given.  The terms are resolved once per
    pattern of constant 0 and 1 coefficients (``_rhs_plan``; ``plan`` is
    the field's, when the caller resolved it): a term whose coefficient is
    the constant 0 is skipped, and so are a product by a constant 1 and
    the division by a constant sqrt(D) = 1; the sums keep their order, so
    only the sign of an exact zero can differ from the full formula.
    """
    level_u = spectral_du(level) if level_u is None else level_u
    values = _field_values(field, level) if values is None else values
    plan = _plan_of(field) if plan is None else plan
    return _rhs(level, level_u, values, plan,
                np.empty(np.shape(level)) if out is None else out)


def _plan_of(field: CoefficientField) -> tuple:
    """The ``_rhs_plan`` of a field's coefficient kinds."""
    return _rhs_plan(tuple(map(_kind, field._constants)))


def _rhs(level, level_u, values, plan, out: np.ndarray) -> np.ndarray:
    """``assemble_rhs`` with its inputs at hand, written into ``out``."""
    sums, rows, divide = plan
    coefficients = [*values[:4], level[3], level[4]]
    for terms in sums:
        coefficients.append(_sum_into(np.empty(np.shape(level)[1:]), terms,
                                      coefficients, level) if terms else None)
    for row, terms in zip(out, rows):
        _sum_into(row, terms, coefficients, level_u)
    if divide:
        np.divide(out, np.sqrt(values[4]), out=out)
    return out


@functools.lru_cache(maxsize=16)
def _filter_factors(n: int) -> np.ndarray:
    """1 - sigma(k) for the compensated filter update, per rfft bin of an
    n-point grid.

    Computed via expm1 so the shoulder keeps sub-ulp damping accuracy;
    factors below 1e-18 are then snapped to exact zero so the deep
    passband is bitwise transparent at any data scale.  Cached per size
    and read-only, since every step of a march uses the same factors.
    """
    k = np.arange(n // 2 + 1, dtype=float)
    k_cut = FILTER_CUTOFF * (n / 2)
    f = -np.expm1(-FILTER_STRENGTH * (k / k_cut) ** FILTER_ORDER)
    f[f < 1e-18] = 0.0
    f.flags.writeable = False
    return f


def spectral_filter(level: np.ndarray) -> np.ndarray:
    """Damp the top Fourier modes of every field of a level.

    Implemented as level - irfft((1 - sigma) * rfft(level)): band-limited
    data is perturbed only through the spectral round-off junk the filter
    removes from the stopband, below 1e-15 of the data scale per step.
    The grid is the level's last axis, which must be even.
    """
    level = np.array(level, dtype=float)
    factors = _filter_factors(_even_grid(level, "spectral_filter"))
    return _filter_in_place(level, factors)


def _filter_in_place(level: np.ndarray, factors: np.ndarray,
                     spectrum=None, real=None) -> np.ndarray:
    """``spectral_filter`` with its ``factors``, written over ``level``;
    the correction's rfft and irfft go into ``spectrum`` and ``real`` when
    given."""
    correction = np.fft.rfft(level, out=spectrum)
    correction *= factors
    level -= np.fft.irfft(correction, n=level.shape[-1], out=real)
    return level


@functools.lru_cache(maxsize=16)
def _monitor_weights(n_bins: int) -> np.ndarray:
    """Energy weight per rfft bin: 1 at DC and the last bin, 2 between
    (each of those bins stands for a conjugate pair); read-only."""
    weights = np.full(n_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    weights.flags.writeable = False
    return weights


def stability_monitor(level: np.ndarray) -> tuple[float, bool]:
    """(worst high-mode energy fraction, exceeded flag) for a level.

    Per field, the fraction of spectral energy sitting in the top third
    of retained modes; smooth analytic levels give ~1e-16, noise-driven
    blowup heads toward 1/3.  The total includes the DC mode on purpose:
    a level that is all offset and no structure is quiet, not unstable.
    A complex ``level`` is taken as the level's rfft, which the march
    computes once for the monitor and the next step's first RK4 stage.
    A level whose spectrum or energy is not finite reads as exceeded,
    with a fraction of NaN.  Exceeded is a fraction above
    ``MONITOR_THRESHOLD``.
    """
    spec = np.atleast_2d(level)
    if spec.dtype.kind != "c":
        level = np.asarray(spec, dtype=float)
        if not np.isfinite(level).all():
            return math.nan, True
        spec = np.fft.rfft(level)
    magnitude = np.abs(spec)
    # Below _MONITOR_PEAK no energy can overflow; a larger or non-finite
    # spectrum, or a field of (nearly) zero energy, takes the guarded
    # formula.
    if magnitude.max() < _MONITOR_PEAK:
        total, high = _band_energies(magnitude)
        if total.min() > 1e-300:
            worst = float((high / total).max())
            return worst, worst > MONITOR_THRESHOLD
    with np.errstate(all="ignore"):
        total, high = _band_energies(magnitude)
        frac = np.where(total > 1e-300, high / np.maximum(total, 1e-300), 0.0)
    if not np.isfinite(total).all():
        return math.nan, True
    worst = float(frac.max())
    return worst, worst > MONITOR_THRESHOLD


#: A spectral magnitude up to which the energy of a bin, at most 2e300,
#: and its sum over fewer than 8e7 bins stay finite.
_MONITOR_PEAK = 1e150


def _band_energies(magnitude: np.ndarray):
    """(total, high-band) energy per field from rfft magnitudes."""
    n_bins = magnitude.shape[-1]
    energy = np.square(magnitude)
    energy *= _monitor_weights(n_bins)
    k_band = (2 * (n_bins - 1)) // 3
    return energy.sum(axis=-1), energy[..., k_band + 1:].sum(axis=-1)


#: A field failure mid-march as (error, status, what failed), most
#: specific error first.  ``{}`` is "stage " inside an RK4 step.
_FIELD_FAILURES = (
    (OutOfBoxError, "box-exit", "{}state left the box"),
    (EllipticityError, "ellipticity", "ellipticity lost"),
    (FieldEvalError, "non-finite", "field evaluation failed"),
)


def _field_failure(err: FieldEvalError, stage: str, where: str,
                   v: float) -> tuple[str, str]:
    """(status, detail) of a field failure mid-march."""
    _, status, what = next(row for row in _FIELD_FAILURES
                           if isinstance(err, row[0]))
    return status, f"{what.format(stage)} {where} v={v:.6g}: {err}"


def _rk4_step(level: np.ndarray, h: float, field: CoefficientField, plan,
              k1: np.ndarray, work, out: np.ndarray) -> np.ndarray:
    """One RK4 step from ``level``, whose slope ``k1`` the caller took,
    written into ``out`` (which may be ``level`` itself).

    ``work`` holds the march's buffers: the stage state, a spectrum, the
    stage's Z_u, and k2, k3, k4.  Each stage state level + c h k is formed
    in place, and the new level level + (h/6)(k1 + 2(k2 + k3) + k4) over
    k2, with the operations of those formulas in their order, so the bits
    are theirs.  A stage's Z_u is a product with ``_du_matrix`` on up to
    ``_DU_MATRIX_MAX_N`` points, else rfft, i k and irfft.
    """
    stage, spectrum, stage_u, k2, k3, k4 = work
    n = level.shape[-1]
    matrix = _du_matrix(n) if n <= _DU_MATRIX_MAX_N else None
    for step, slope, k in ((0.5 * h, k1, k2), (0.5 * h, k2, k3), (h, k3, k4)):
        np.multiply(step, slope, out=stage)
        np.add(level, stage, out=stage)
        if matrix is None:
            _du_of_spectrum(np.fft.rfft(stage, out=spectrum), n, stage_u)
        else:
            np.matmul(stage, matrix, out=stage_u)
        assemble_rhs(stage, field, None, stage_u, k, plan)
    total = np.add(k2, k3, out=k2)
    np.multiply(2.0, total, out=total)
    np.add(k1, total, out=total)
    total += k4
    total *= h / 6.0
    return np.add(level, total, out=out)


#: Levels the march makes room for at first, whatever R/dv; the room
#: doubles when full.  The default march (151 levels) needs no second
#: buffer, and a row is only paged in when a level is written to it.
_FIRST_ROOM = 256


def _grown(rows: np.ndarray, count: int) -> np.ndarray:
    """A buffer of twice the room holding the first ``count`` of ``rows``."""
    bigger = np.empty((2 * len(rows),) + rows.shape[1:])
    bigger[:count] = rows[:count]
    return bigger


def _min_disc(disc) -> float:
    """min D of a level; a folded field's D is a float, taken as it is."""
    return float(disc) if isinstance(disc, float) else float(disc.min())


def march(curve: PeriodicCurve, field: CoefficientField,
          params: MarchParams | None = None) -> StripSolution:
    """Integrate the strip from the axis up to v = R.

    Axis data the field rejects (outside the box, a non-finite
    coefficient, D <= 0) is a ValidationError: there is no strip to
    return.  A later failure ends the march without an exception: the
    strip marched so far is returned, its status and detail saying why.

    The system is invariant under (u, v) -> (-u, -v), so the strip below
    the axis is that of ``curve.reverse()``, with u mirrored.

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
    axis = np.stack([zeros, zeros.copy(), zeros.copy(), alpha, beta])

    # Box, evaluation and ellipticity failures on the axis data are
    # input errors: they surface here, before any step.  Each check's
    # field values and the monitor's spectrum feed the k1 stage of the
    # next step.
    try:
        values = eval_field(field, tuple(axis))
    except FieldEvalError as err:
        raise ValidationError(f"initial data: {err}") from None

    factors = _filter_factors(n_u)
    plan = _plan_of(field)
    # One spectrum buffer holds, in turn, a level's rfft for the monitor
    # (which k1 then differentiates in place), each stage's and the
    # filter's.
    spectrum = np.fft.rfft(axis)
    work = (np.empty_like(axis), spectrum,
            *(np.empty_like(axis) for _ in range(4)))
    # The stored levels and the Z_u and k1 of each, in buffers whose room
    # doubles when full.  A new level is written into the row after the
    # last stored one, and a skipped level stays there while it drives the
    # next step.
    states, states_u, states_v = (np.empty((_FIRST_ROOM,) + axis.shape)
                                  for _ in range(3))
    states[0] = level = axis
    count = 1
    derived = 0         # stored levels whose Z_u and k1 are in the buffers
    kept = True         # whether ``level`` is the last stored level

    v_list = [0.0]
    frac0, _ = stability_monitor(spectrum)
    fracs = [frac0]
    discs = [_min_disc(values[4])]

    status, detail = "completed", f"reached v={params.R:.6g}"
    streak = skipped = 0
    v_now = 0.0
    step_index = 0

    while v_now < params.R - 1e-12 * params.R:
        h = min(params.dv, params.R - v_now)
        slot_u = slot_v = None
        if kept:
            slot_u, slot_v = states_u[count - 1], states_v[count - 1]
            derived = count
        k1 = assemble_rhs(level, field, values,
                          _du_of_spectrum(spectrum, n_u, slot_u), slot_v, plan)
        if count == len(states):
            states, states_u, states_v = (_grown(rows, count) for rows in
                                          (states, states_u, states_v))
        try:
            nxt = _rk4_step(level, h, field, plan, k1, work, states[count])
        except FieldEvalError as err:
            status, detail = _field_failure(err, "stage ", "after", v_now)
            break

        nxt = _filter_in_place(nxt, factors, spectrum, work[2])
        v_now = (step_index + 1) * params.dv if h == params.dv else params.R
        step_index += 1

        if not np.isfinite(nxt).all():
            status = "non-finite"
            detail = f"non-finite state at v={v_now:.6g}"
            break

        try:
            values = _field_values(field, nxt)
        except FieldEvalError as err:
            status, detail = _field_failure(err, "", "at", v_now)
            break

        spectrum = np.fft.rfft(nxt, out=spectrum)
        frac, exceeded = stability_monitor(spectrum)
        level = nxt
        kept = not exceeded
        if exceeded:
            streak += 1
            if streak >= 2:
                status = "instability-abort"
                detail = (f"high-mode fraction {frac:.3g} > "
                          f"{MONITOR_THRESHOLD:.3g} on two consecutive "
                          f"levels at v={v_now:.6g}")
                break
            # Offending level drives the next step but is never stored.
            skipped += 1
            continue

        streak = 0
        count += 1
        v_list.append(v_now)
        fracs.append(frac)
        discs.append(_min_disc(values[4]))

    if derived < count:
        # The last stored level drove no step: its derivatives are taken
        # here, from its check's field values and its monitor's spectrum.
        _rhs(level, _du_of_spectrum(spectrum, n_u, states_u[count - 1]),
             values, plan, states_v[count - 1])
    strip = StripSolution(np.array(v_list), u, states[:count], np.array(fracs),
                          np.array(discs), status, detail, curve, field, params,
                          skipped)
    for name, rows in (("states_u", states_u), ("states_v", states_v)):
        rows = rows[:count]
        rows.flags.writeable = False
        object.__setattr__(strip, name, rows)
    return strip
