"""Geometry views against the per-call derivative passes they replaced.

``jacobian``, ``hessian_from_strip``, ``pde_residual``,
``reconstruct_graph`` and ``legendre_dual_normals`` read one cached
analysis per strip.  The reference code below is the earlier form: each
call differentiates its own selection of levels, re-evaluates the field,
and recovers the Hessian again; the nested star-shaped test that decides
``multivalued`` analyses one level at a time.  Arrays must agree bit for
bit, and failures must raise the same exception with the same message.
"""

import dataclasses
import importlib
from unittest import mock

import numpy as np
import pytest

from ma_singular.coeffs import CoefficientField, builtin_field, eval_field
from ma_singular.curves import builtin_curve
from ma_singular.errors import SingularJacobianError, ValidationError
from ma_singular.geometry import (
    JACOBIAN_GUARD,
    RESIDUAL_J_FLOOR,
    RESIDUAL_V_MIN_FRAC,
    GraphPatch,
    HessianLevel,
    ResidualReport,
    _interior_levels,
    hessian_from_strip,
    jacobian,
    legendre_dual_normals,
    pde_residual,
    reconstruct_graph,
)
from ma_singular.march import MarchParams, assemble_rhs, march, spectral_du

# ---------------------------------------------------------------------------
# Reference code: one derivative pass and one field evaluation per call


def reference_states(strip, levels):
    return np.moveaxis(strip.states[levels], -2, 0)


def reference_derivatives(strip, levels):
    Z = reference_states(strip, levels)
    return Z, spectral_du(Z), assemble_rhs(Z, strip.field)


def reference_jacobian(strip):
    _, Z_u, Z_v = reference_derivatives(strip, slice(None))
    J = Z_u[0] * Z_v[1] - Z_v[0] * Z_u[1]
    min_positive = float(np.min(J[1:])) if strip.n_levels > 1 else float("nan")
    return J, min_positive


def reference_hessian_from_derivatives(x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v,
                                       guard=JACOBIAN_GUARD):
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in
                                   (x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v)))
    x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v = arrays
    J = x_u * y_v - x_v * y_u
    valid = np.abs(J) > guard
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_J = np.where(valid, J, 1.0)
        r = (p_u * y_v - p_v * y_u) / safe_J
        s_p = (p_v * x_u - p_u * x_v) / safe_J
        s_q = (q_u * y_v - q_v * y_u) / safe_J
        t = (q_v * x_u - q_u * x_v) / safe_J
    nan = np.where(valid, 0.0, np.nan)
    r = r + nan
    t = t + nan
    s = 0.5 * (s_p + s_q) + nan
    sym_defect = np.abs(s_p - s_q) + nan
    return r, s, t, sym_defect, J, valid


def reference_hessian_from_strip(strip, level, guard=JACOBIAN_GUARD):
    Z, (x_u, y_u, _, p_u, q_u), (x_v, y_v, _, p_v, q_v) = \
        reference_derivatives(strip, level)
    r, s, t, sym_defect, J, valid = reference_hessian_from_derivatives(
        x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v, guard=guard)
    dead = np.atleast_1d(~np.any(valid, axis=-1))
    if np.any(dead):
        k = np.atleast_1d(np.arange(strip.n_levels)[level])[np.argmax(dead)]
        raise SingularJacobianError(
            f"level {k} (v={strip.v[k]:.6g}) has |J| <= {guard} everywhere")

    a, b, c, e, disc = eval_field(strip.field, tuple(Z))
    root = np.sqrt(disc)
    rel = np.stack([
        root * y_v - ((c + r) * x_u - (b - s) * y_u),
        root * y_u + ((c + r) * x_v - (b - s) * y_v),
        root * x_v - ((b - s) * x_u - (a + t) * y_u),
        root * x_u + ((b - s) * x_v - (a + t) * y_v),
    ])
    fin_residual = np.max(np.abs(rel), axis=0)
    return HessianLevel(r=r, s=s, t=t, sym_defect=sym_defect,
                        fin_residual=fin_residual, J=J, valid=valid)


def reference_residual(a, b, c, e, hess):
    return a * hess.r + 2.0 * b * hess.s + c * hess.t \
        + hess.r * hess.t - hess.s ** 2 - e


def reference_pde_residual(strip, field=None, v_min=None,
                           j_floor=RESIDUAL_J_FLOOR):
    if field is None:
        field = strip.field
    v_min, idx = _interior_levels(strip, v_min, default_frac=0.2)
    if not idx:
        raise ValidationError(
            f"no stored levels at v >= {v_min:.6g}; strip reached {strip.v[-1]:.6g}")
    hess = reference_hessian_from_strip(strip, idx)
    a, b, c, e, _ = eval_field(field, tuple(reference_states(strip, idx)))
    keep = hess.valid & (np.abs(hess.J) > j_floor)
    residuals = np.where(keep, reference_residual(a, b, c, e, hess), np.nan)
    count = int(np.sum(keep))
    if count == 0:
        raise SingularJacobianError(
            f"no nodes above |J| > {j_floor} in the selected levels")
    finite = residuals[np.isfinite(residuals)]
    return ResidualReport(
        max_abs=float(np.max(np.abs(finite))),
        rms=float(np.sqrt(np.mean(finite ** 2))),
        level_indices=tuple(idx),
        residuals=residuals,
        n_nodes=count,
    )


# The nested star-shaped test, one level at a time.


def reference_unwrap_angles(x: np.ndarray, y: np.ndarray):
    """Per-level unwrapped angle tables and the winding number.

    Returns (theta, winding) where theta[j] is continuous in j and
    theta[n] - theta[0] = 2*pi*winding would close the loop.
    """
    theta = np.unwrap(np.arctan2(y, x))
    closing = np.arctan2(y[0], x[0]) - theta[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    total = (theta[-1] + closing) - theta[0]
    winding = int(np.round(total / (2.0 * np.pi)))
    return theta, winding


def reference_level_cover(x: np.ndarray, y: np.ndarray, extra_rows=(), unwrapped=None):
    """Reduce one level curve to a single star-shaped traversal.

    A level with winding m and monotone angle is accepted when it is an
    exact m-fold cover: every row repeats with period n/m (the doubly
    traced constructions produce exactly this, to march round-off, while
    genuinely self-overlapping images do not).  Returns (x_red, y_red)
    or None when the level is not a cover of a star-shaped curve.
    ``unwrapped`` is ``reference_unwrap_angles(x, y)`` when the caller has it.
    """
    theta, winding = reference_unwrap_angles(x, y) if unwrapped is None else unwrapped
    m = abs(winding)
    if m == 0:
        return None
    steps = np.diff(theta)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        return None
    if m == 1:
        return x, y
    n = x.size
    if n % m:
        return None
    shift = n // m
    for row in (x, y, *extra_rows):
        tol = 1e-8 * (1.0 + float(np.max(np.abs(row))))
        if np.max(np.abs(row - np.roll(row, shift))) > tol:
            return None
    return x[:shift], y[:shift]


def reference_radius_table(x: np.ndarray, y: np.ndarray, unwrapped=None):
    """The rho(theta) table of one closed level curve: (theta_ext, rho_ext, period).

    theta_ext increases and its last entry closes the loop one period
    after the first.  ``unwrapped`` is ``reference_unwrap_angles(x, y)`` when
    the caller has it.
    """
    theta, winding = reference_unwrap_angles(x, y) if unwrapped is None else unwrapped
    rho = np.hypot(x, y)
    if theta[0] > theta[-1]:
        theta, rho = theta[::-1], rho[::-1]
    period = 2.0 * np.pi * abs(winding) if winding != 0 else 2.0 * np.pi
    theta_ext = np.concatenate([theta, [theta[0] + period]])
    rho_ext = np.concatenate([rho, [rho[0]]])
    return theta_ext, rho_ext, period


def reference_radius_lookup(table, query: np.ndarray) -> np.ndarray:
    """rho at the query angles by periodic linear interpolation of a table."""
    theta_ext, rho_ext, period = table
    q = (query - theta_ext[0]) % period + theta_ext[0]
    return np.interp(q, theta_ext, rho_ext)


def reference_nested_family(x: np.ndarray, y: np.ndarray, extra=()) -> bool:
    """True when every level reduces to a star-shaped curve and they nest.

    ``extra`` carries further per-level sample rows (z, p, q) that must
    also repeat on multiply covered levels: matching (x, y) alone would
    accept two sheets at different heights.
    """
    n_levels = x.shape[0]
    reduced = []
    for k in range(n_levels):
        red = reference_level_cover(x[k], y[k], tuple(e[k] for e in extra))
        if red is None:
            return False
        reduced.append(red)
    query = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    prev = reference_radius_lookup(reference_radius_table(*reduced[0]), query)
    for k in range(1, n_levels):
        cur = reference_radius_lookup(reference_radius_table(*reduced[k]), query)
        if not np.all(cur > prev):
            return False
        prev = cur
    return True


def reference_reconstruct_graph(strip, v_min=None, j_floor=RESIDUAL_J_FLOOR):
    v_min, idx = _interior_levels(strip, v_min, default_frac=0.1)
    if len(idx) < 2:
        raise ValidationError(
            f"graph reconstruction needs >= 2 levels at v >= {v_min:.6g}; "
            f"strip reached v={strip.v[-1]:.6g} with status {strip.status!r}")

    hess = reference_hessian_from_strip(strip, idx)
    folded = np.any(hess.J <= 0, axis=-1)
    if np.any(folded):
        k = idx[int(np.argmax(folded))]
        raise SingularJacobianError(
            f"J <= 0 at level {k} (v={strip.v[k]:.6g}); "
            "the selected interior is not a local graph")
    Z = reference_states(strip, idx)
    a, b, c, e, _ = eval_field(strip.field, tuple(Z))
    x, y, z, p, q = Z
    residual = np.where(np.abs(hess.J) > j_floor,
                        reference_residual(a, b, c, e, hess), np.nan)

    rho = np.hypot(x, y)
    multivalued = not reference_nested_family(x, y, extra=(z, p, q))
    return GraphPatch(
        v=strip.v[idx], u=strip.u, x=x, y=y, z=z, p=p, q=q,
        r=hess.r, s=hess.s, t=hess.t, J=hess.J, residual=residual,
        r_min=float(np.min(rho)), r_max=float(np.max(rho)),
        multivalued=multivalued,
        provenance=f"march:levels[{idx[0]}:{idx[-1] + 1}]:{strip.status}",
        field=strip.field,
    )


def reference_legendre_dual_normals(strip, v_min=None, a=0.0, c=0.0):
    v_min, idx = _interior_levels(strip, v_min, default_frac=0.2)
    if not idx:
        raise ValidationError(f"no stored levels at v >= {v_min:.6g}")
    (x, y, z, p, q), _, (x_v, y_v, z_v, p_v, q_v) = \
        reference_derivatives(strip, idx)
    xi = p + c * x
    eta = q + a * y
    z_star = z + 0.5 * c * x ** 2 + 0.5 * a * y ** 2
    zeta = x * xi + y * eta - z_star
    xi_u, eta_u, zeta_u = spectral_du(np.stack([xi, eta, zeta]))

    xi_v = p_v + c * x_v
    eta_v = q_v + a * y_v
    zeta_v = x_v * xi + x * xi_v + y_v * eta + y * eta_v \
        - z_v - c * x * x_v - a * y * y_v

    normal = np.stack([
        eta_u * zeta_v - zeta_u * eta_v,
        zeta_u * xi_v - xi_u * zeta_v,
        xi_u * eta_v - eta_u * xi_v,
    ], axis=-1)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    return normal * np.where(normal[..., 2] >= 0, 1.0, -1.0)[..., None]


# ---------------------------------------------------------------------------
# Strips and calls

PURE_ONE = builtin_field("pure-one")
REMARK42 = builtin_field("remark42")
# A, B and C all nonzero, so every term of the residual carries weight;
# D = 1 + 0.02 x y stays positive in the box.
GENERAL = CoefficientField.from_dict({
    "A": "0.1*x", "B": "p^2", "C": "0.2*y", "E": "1 + p^4",
    "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
            "p": [-4, 4], "q": [-4, 4]}})

STRIPS = {
    "circle": ("circle", PURE_ONE, MarchParams()),
    "wobble": ("wobble", PURE_ONE, MarchParams()),
    # The ellipse's strip below the axis: by the march's symmetry
    # (u, v) -> (-u, -v), its reverse marched up.  J < 0 on it.
    "ellipse-negative-v": (builtin_curve("ellipse").reverse(), PURE_ONE,
                           MarchParams(R=0.05)),
    "remark42": ("remark42", REMARK42, MarchParams(n_u=256, R=0.05)),
    "limacon": ("limacon", PURE_ONE, MarchParams()),
    "wobble-remark42-field": ("wobble", REMARK42, MarchParams()),
    "ellipse-general-field": ("ellipse", GENERAL, MarchParams(R=0.1)),
    # |p| = 1 on the axis, so the march box-exits at its first step and
    # stores the axis level alone.
    "axis-only": ("circle", CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": "1",
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-1, 1], "q": [-1, 1]}}), MarchParams()),
}


def pde_residual_under_floor(strip, j_floor=RESIDUAL_J_FLOOR):
    """``pde_residual`` with ``RESIDUAL_J_FLOOR`` set to ``j_floor`` for the
    call."""
    geometry = importlib.import_module("ma_singular.geometry")
    with mock.patch.object(geometry, "RESIDUAL_J_FLOOR", j_floor):
        return pde_residual(strip)


def below_window(fn):
    """``fn`` on the strip's levels below the residual window, as a march
    that stopped there would leave them."""
    def call(strip, *args, **kwargs):
        # The window takes levels within 1e-15 below its edge.
        keep = strip.v < RESIDUAL_V_MIN_FRAC * strip.params.R - 1e-15
        cut = dataclasses.replace(strip, **{
            name: getattr(strip, name)[keep]
            for name in ("v", "states", "high_frac", "min_disc")})
        return fn(cut, *args, **kwargs)
    return call


#: (label, new function, reference function, positional args, keywords)
CALLS = [
    ("jacobian", jacobian, reference_jacobian, (), {}),
    ("hessian-1", hessian_from_strip, reference_hessian_from_strip, (1,), {}),
    ("hessian-last", hessian_from_strip, reference_hessian_from_strip,
     (-1,), {}),
    ("hessian-axis", hessian_from_strip, reference_hessian_from_strip,
     (0,), {}),
    ("hessian-slice", hessian_from_strip, reference_hessian_from_strip,
     (slice(1, None),), {}),
    ("hessian-list", hessian_from_strip, reference_hessian_from_strip,
     ([5, 0, 1],), {}),
    ("residual", pde_residual, reference_pde_residual, (), {}),
    # The residual's fixed v_min window at another j floor.
    ("residual-v_min-j_floor", pde_residual_under_floor,
     reference_pde_residual, (), {"j_floor": 1e-3}),
    ("residual-empty", below_window(pde_residual),
     below_window(reference_pde_residual), (), {}),
    ("reconstruct", reconstruct_graph, reference_reconstruct_graph, (), {}),
    ("normals", legendre_dual_normals, reference_legendre_dual_normals,
     (), {}),
    ("normals-a2-c1", legendre_dual_normals, reference_legendre_dual_normals,
     (), {"a": 2, "c": 1}),
]


@pytest.fixture(scope="module")
def strips():
    return {name: march(builtin_curve(curve) if isinstance(curve, str) else curve,
                        field, params)
            for name, (curve, field, params) in STRIPS.items()}


def outcome(fn, *args, **kwargs):
    """The result of a call, or (exception class, message) if it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)


def assert_identical(actual, expected, where="result"):
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert actual.shape == expected.shape, where
        assert actual.dtype == expected.dtype, where
        assert actual.tobytes() == expected.tobytes(), where
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert np.float64(actual).tobytes() == np.float64(expected).tobytes(), \
            where
    elif isinstance(expected, (HessianLevel, ResidualReport, GraphPatch)):
        assert type(actual) is type(expected), where
        for name, value in vars(expected).items():
            assert_identical(getattr(actual, name), value, f"{where}.{name}")
    elif isinstance(expected, tuple) and isinstance(actual, tuple) \
            and len(actual) == len(expected) and expected \
            and not isinstance(expected[0], type):
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_identical(a, e, f"{where}[{i}]")
    else:  # raised errors, ints, strings, flags, the field reference
        assert actual == expected, where


@pytest.mark.parametrize("label, fn, reference, args, kwargs", CALLS,
                         ids=[call[0] for call in CALLS])
@pytest.mark.parametrize("strip_name", list(STRIPS))
def test_view_matches_reference(strips, strip_name, label, fn, reference,
                                args, kwargs):
    strip = strips[strip_name]
    expected = outcome(reference, strip, *args, **kwargs)
    assert_identical(outcome(fn, strip, *args, **kwargs), expected, label)


def test_reference_cases_reach_the_failure_paths(strips):
    # The comparison above must cover raised errors too, not only values.
    with pytest.raises(SingularJacobianError, match="J <= 0 at level 5 "):
        reconstruct_graph(strips["ellipse-negative-v"])
    with pytest.raises(SingularJacobianError, match="level 0 "):
        hessian_from_strip(strips["circle"], [5, 0, 1])
    assert reconstruct_graph(strips["limacon"]).multivalued
    axis_only = strips["axis-only"]
    assert (axis_only.status, axis_only.n_levels) == ("box-exit", 1)
