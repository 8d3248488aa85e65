"""Geometric verification of marched strips: Jacobian, Hessian, residuals,
graph reconstruction, the reflection map, and the Legendre transform.

The marched chart (u, v) is degenerate on the axis v = 0 by construction
(the whole axis maps to the origin), so everything here either stays away
from the axis or treats it explicitly.  Hessian recovery is one 2x2 solve
per node; the four first-order relations the system satisfies are then
demoted to residual checks, which makes them genuinely independent
evidence rather than part of the construction.  One cached analysis per
strip computes all of this once; the public functions are views of it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import weakref
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, eval_field, pure_field
from .curves import PeriodicCurve, eval_curve
from .errors import SingularJacobianError, ValidationError
from .expr import Expr, Neg, Var, parse_expr, substitute, to_string, variables_of
from .march import StripSolution, assemble_rhs, spectral_du

__all__ = [
    "GraphPatch",
    "HessianLevel",
    "ResidualReport",
    "curvature_to_field",
    "hessian_from_derivatives",
    "hessian_from_strip",
    "jacobian",
    "jv_axis",
    "legendre",
    "legendre_dual_normals",
    "patch_from_csv",
    "patch_to_csv",
    "pde_residual",
    "reconstruct_graph",
    "reflect_field",
    "reflect_solution",
    "strip_from_csv",
    "strip_to_csv",
]

#: |J| at or below this is treated as a chart-degenerate node.
JACOBIAN_GUARD = 1e-10

#: Residual statistics only count nodes safely off the axis.
RESIDUAL_J_FLOOR = 1e-6

#: The residual and the dual normals read the levels at v >= this times R.
RESIDUAL_V_MIN_FRAC = 0.2

#: The reported patch starts at v = this times R unless told otherwise.
PATCH_V_MIN_FRAC = 0.1


# ---------------------------------------------------------------------------
# Hessian recovery: one analysis per strip, read by every view


@dataclass(frozen=True, eq=False)
class HessianLevel:
    """Recovered (r, s, t) on stored levels with its consistency evidence.

    Every field has shape (n_u,) for one level and (L, n_u) for a
    selection of L levels.  ``valid`` marks nodes above the Jacobian
    guard; guarded nodes carry NaN.  ``sym_defect`` is |s_from_p - s_from_q|
    before symmetrization; ``fin_residual`` is the worst of the four
    first-order relations that the marched system satisfies identically
    in exact arithmetic.
    """

    r: np.ndarray
    s: np.ndarray
    t: np.ndarray
    sym_defect: np.ndarray
    fin_residual: np.ndarray
    J: np.ndarray
    valid: np.ndarray


def hessian_from_derivatives(x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v):
    """Pointwise chain-rule Hessian from chart derivatives.

    [r s; s t] = [p_u p_v; q_u q_v] · [x_u x_v; y_u y_v]^{-1}.  Returns
    (r, s, t, sym_defect, J, valid); nodes with |J| <= JACOBIAN_GUARD
    are NaN.  Inputs may be scalars or arrays of a common shape.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in
                                   (x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v)))
    x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v = arrays
    J = x_u * y_v - x_v * y_u
    valid = np.abs(J) > JACOBIAN_GUARD
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


#: A strip is frozen and hashes by identity, so it keys its own analysis.
_ANALYSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _strip_analysis(strip: StripSolution):
    """(Z, Z_v, hessian, residual, ok, tables, rising), made once per strip.

    Z and Z_v are (5, levels, n_u); Z_v is the marched system at each
    level, so it is exact for the semi-discrete flow; the PDE residual is
    unmasked.  A marched strip carries the Z_u and Z_v its march took;
    any other strip's are computed here from its states, with the same
    bits.  ok, tables and rising are the level analysis of levels 1..L:
    ``_level_rows`` of x and y, with z, p and q, and ``_rising`` of its
    tables; row k - 1 is level k, and rising[k - 1] is the pair (k, k + 1).
    Every array is read-only.  A level outside the field's box raises
    even when it is not selected; a marched strip stores only levels that
    passed the field check, so only a hand-built strip can hit that.
    """
    analysis = _ANALYSES.get(strip)
    if analysis is not None:
        return analysis
    Z = np.moveaxis(strip.states, -2, 0)
    a, b, c, e, disc = values = eval_field(strip.field, tuple(Z))
    if strip.states_v is None:
        Z_u = spectral_du(Z)
        Z_v = assemble_rhs(Z, strip.field, values, Z_u)
    else:
        Z_u, Z_v = (np.moveaxis(rows, -2, 0)
                    for rows in (strip.states_u, strip.states_v))
    x_u, y_u, _, p_u, q_u = Z_u
    x_v, y_v, _, p_v, q_v = Z_v
    r, s, t, sym_defect, J, valid = hessian_from_derivatives(
        x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v)
    root = np.sqrt(disc)
    # The marched system satisfies these four identities exactly; after
    # recovery they are free consistency evidence.
    rel = np.stack([
        root * y_v - ((c + r) * x_u - (b - s) * y_u),
        root * y_u + ((c + r) * x_v - (b - s) * y_v),
        root * x_v - ((b - s) * x_u - (a + t) * y_u),
        root * x_u + ((b - s) * x_v - (a + t) * y_v),
    ])
    hessian = HessianLevel(r=r, s=s, t=t, sym_defect=sym_defect,
                           fin_residual=np.max(np.abs(rel), axis=0),
                           J=J, valid=valid)
    residual = a * r + 2.0 * b * s + c * t + r * t - s ** 2 - e
    # A contiguous copy: on strided rows arctan2 and hypot may take
    # another kernel, and the tables must keep their bits.
    x, y, z, p, q = np.array(Z[:, 1:])
    ok, tables = _level_rows(x, y, extra=(z, p, q))
    rising = _rising(tables)
    for arr in (Z_v, residual, *vars(hessian).values(), ok, rising, *tables):
        arr.flags.writeable = False
    analysis = _ANALYSES[strip] = (Z, Z_v, hessian, residual, ok, tables,
                                   rising)
    return analysis


def jacobian(strip: StripSolution):
    """J = x_u y_v - x_v y_u per (level, node), plus min over v > 0.

    Level 0 is identically zero in exact arithmetic (the axis data has
    x = y = 0); it is returned as computed, which is zero to round-off.
    J is read-only.
    """
    _, _, hessian, *_ = _strip_analysis(strip)
    J = hessian.J
    min_positive = float(np.min(J[1:])) if strip.n_levels > 1 else float("nan")
    return J, min_positive


def jv_axis(curve: PeriodicCurve, field: CoefficientField, n_u: int = 128) -> np.ndarray:
    """The axis derivative J_v(u, 0) = (beta' alpha'' - beta'' alpha') / D.

    D is the ellipticity discriminant at the axis state (0,0,0,alpha,beta).
    Positive values are what make the image curves leave the origin.
    """
    u = 2.0 * np.pi * np.arange(n_u) / n_u
    alpha, beta, d_alpha, d_beta, dd_alpha, dd_beta = eval_curve(curve, u)
    zeros = np.zeros(n_u)
    disc = eval_field(field, (zeros, zeros, zeros, alpha, beta))[4]
    return (d_beta * dd_alpha - dd_beta * d_alpha) / disc


def hessian_from_strip(strip: StripSolution, level) -> HessianLevel:
    """The Hessian and the four relations on stored levels.

    ``level`` is one level index, giving (n_u,) fields, or a selection
    (slice, index list) of L levels, giving (L, n_u) fields: read-only
    rows of the strip's analysis, or copies for an index list.

    Raises SingularJacobianError when every node of a selected level is
    below the guard (the axis level, in particular); the message names
    the first such level.
    """
    _, _, full, *_ = _strip_analysis(strip)
    dead = np.atleast_1d(~np.any(full.valid[level], axis=-1))
    if np.any(dead):
        k = np.atleast_1d(np.arange(strip.n_levels)[level])[np.argmax(dead)]
        raise SingularJacobianError(
            f"level {k} (v={strip.v[k]:.6g}) has |J| <= {JACOBIAN_GUARD} everywhere")
    return HessianLevel(**{name: arr[level] for name, arr in vars(full).items()})


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """PDE residual statistics over the interior of a strip."""

    max_abs: float
    rms: float
    level_indices: tuple
    residuals: np.ndarray  # (len(level_indices), n_u); NaN where excluded
    n_nodes: int


def _interior_levels(strip: StripSolution, v_min: float | None,
                     default_frac: float = RESIDUAL_V_MIN_FRAC):
    if v_min is None:
        v_min = default_frac * strip.params.R
    idx = [k for k in range(1, strip.n_levels) if strip.v[k] >= v_min - 1e-15]
    return v_min, idx


def pde_residual(strip: StripSolution) -> ResidualReport:
    """residual = A r + 2B s + C t + (r t - s^2) - E over the strip interior.

    Levels below RESIDUAL_V_MIN_FRAC R and nodes with
    |J| <= RESIDUAL_J_FLOOR are excluded: the chart is degenerate at the
    axis and the quotient blows up the recovery there.  Identically, the
    residual equals (A+t)(C+r) - (B-s)^2 - D.
    """
    v_min, idx = _interior_levels(strip, None)
    if not idx:
        raise ValidationError(
            f"no stored levels at v >= {v_min:.6g}; strip reached {strip.v[-1]:.6g}")
    hess = hessian_from_strip(strip, idx)
    _, _, _, unmasked, *_ = _strip_analysis(strip)
    keep = hess.valid & (np.abs(hess.J) > RESIDUAL_J_FLOOR)
    residuals = np.where(keep, unmasked[idx], np.nan)
    count = int(np.sum(keep))
    if count == 0:
        raise SingularJacobianError(
            f"no nodes above |J| > {RESIDUAL_J_FLOOR} in the selected levels")
    finite = residuals[np.isfinite(residuals)]
    return ResidualReport(
        max_abs=float(np.max(np.abs(finite))),
        rms=float(np.sqrt(np.mean(finite ** 2))),
        level_indices=tuple(idx),
        residuals=residuals,
        n_nodes=count,
    )


# ---------------------------------------------------------------------------
# Graph reconstruction


@dataclass(frozen=True, eq=False)
class GraphPatch:
    """Solution samples (x, y, z, p, q, r, s, t) on an annulus at the origin.

    Arrays keep the (level, node) structure of the generating strip; the
    flat view is what serialization emits.  ``multivalued`` marks patches
    whose image curves are not a nested star-shaped family: those samples
    are still a surface, just not a graph over the punctured plane.
    ``field`` is None for transformed patches that no longer track a PDE.
    ``level_tables`` holds the rows of the strip's level analysis that
    ``reconstruct_graph`` selected, as ``_level_tables`` of x and y (with
    z, p and q) gives them; it is None on any other patch,
    ``dataclasses.replace`` included, and where a selected level is not
    star-shaped.
    """

    v: np.ndarray
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    t: np.ndarray
    J: np.ndarray
    residual: np.ndarray
    r_min: float
    r_max: float
    multivalued: bool
    provenance: str
    field: CoefficientField | None
    level_tables: tuple | None = dataclasses.field(default=None, init=False,
                                                   repr=False)

    def __post_init__(self):
        for name in ("v", "u", "x", "y", "z", "p", "q", "r", "s", "t",
                     "J", "residual"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_levels(self) -> int:
        return self.x.shape[0]

    @property
    def n_u(self) -> int:
        return self.x.shape[1]

    def radii(self) -> np.ndarray:
        return np.hypot(self.x, self.y)


def _level_rows(x: np.ndarray, y: np.ndarray, extra=()):
    """The angle analysis of every level of a (levels, n) block at once.

    (ok, tables).  ok[k] is True when level k is a star-shaped curve
    traversed once, or an exact m-fold cover of one: monotone angle,
    winding m != 0, and for m >= 2 every row of x, y and ``extra`` (z, p,
    q; matching x, y alone would accept two sheets at different heights)
    repeating with period n/m, as the doubly traced constructions do to
    march round-off.  tables is (theta, rho, order, period), per level over
    all n nodes: the unwrapped angles in increasing order, closed by an
    entry one period 2*pi*m after the first, rho at those entries, the node
    order of the first n entries (identity or reversal), and the period;
    its rows mean nothing where ok is False.  Every row depends on its
    level alone.
    """
    raw = np.arctan2(y, x)
    theta = np.unwrap(raw, axis=-1)
    n = x.shape[-1]
    # theta[n] would close the loop; only the rounded turn count of the
    # closing step is used.
    closing = (raw[:, 0] - theta[:, -1] + np.pi) % (2.0 * np.pi) - np.pi
    folds = np.abs(np.round((theta[:, -1] + closing - theta[:, 0])
                            / (2.0 * np.pi)))
    steps = np.diff(theta, axis=-1)
    ok = (folds != 0) & (np.all(steps > 0, axis=-1) | np.all(steps < 0, axis=-1))
    # Not np.unique: its first call imports numpy.ma, 20-40 ms of a fresh run.
    for m in sorted(set(folds[ok & (folds > 1)].astype(int).tolist())):
        rows = np.flatnonzero(folds == m)
        ok[rows] &= n % m == 0
        for block in (x, y, *extra):
            block = block[rows]
            tol = 1e-8 * (1.0 + np.max(np.abs(block), axis=-1))
            moved = np.max(np.abs(block - np.roll(block, n // m, axis=-1)), axis=-1)
            ok[rows] &= ~(moved > tol)

    flip = theta[:, :1] > theta[:, -1:]
    order = np.where(flip, np.arange(n)[::-1], np.arange(n))
    theta, rho = (np.where(flip, a[:, ::-1], a) for a in (theta, np.hypot(x, y)))
    period = 2.0 * np.pi * folds
    return ok, (np.concatenate([theta, theta[:, :1] + period[:, None]], axis=-1),
                np.concatenate([rho, rho[:, :1]], axis=-1), order, period)


def _level_tables(x: np.ndarray, y: np.ndarray, extra=()):
    """The tables of ``_level_rows``, or None unless every level is ok."""
    ok, tables = _level_rows(x, y, extra)
    return tables if np.all(ok) else None


def _radii_at(tables, query: np.ndarray, levels=slice(None)) -> np.ndarray:
    """rho at the query angles on the selected levels, (levels, queries),
    by periodic linear interpolation of each level's table."""
    theta, rho, _, period = (arr[levels] for arr in tables)
    start = theta[:, :1]
    wrapped = (query - start) % period[:, None] + start
    # A reshape, not np.stack: a strip with no level off the axis has none.
    return np.reshape([np.interp(q, th, rh)
                       for q, th, rh in zip(wrapped, theta, rho)],
                      wrapped.shape)


def _rising(tables) -> np.ndarray:
    """Per pair of adjacent levels of ``tables``, whether rho increases
    strictly from the one to the next at 512 angles.  A pair with a level
    that is not ok reads anything."""
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = _radii_at(tables, np.linspace(-np.pi, np.pi, 512, endpoint=False))
    return np.all(np.diff(rho, axis=0) > 0, axis=-1)


def reconstruct_graph(strip: StripSolution, v_min: float | None = None) -> GraphPatch:
    """Emit the strip's interior levels as annulus samples, no re-gridding.

    Requires J > 0 on the selected levels (the chart must be locally a
    graph); global injectivity is then decided by the nested star-shaped
    test and recorded as the ``multivalued`` flag rather than raised, so
    the non-embedded constructions remain first-class results.  The angle
    tables and the nesting of each pair of levels come from the strip's
    level analysis, made once per strip, so a second reconstruction of
    the same strip only slices it.

    The default v_min is PATCH_V_MIN_FRAC R, lower than the residual
    report's RESIDUAL_V_MIN_FRAC R: the annulus should reach close to the
    singularity, and the Hessian is still well conditioned there (J ~ v,
    far above the guard).  The residual column is masked at
    |J| <= RESIDUAL_J_FLOOR.
    """
    v_min, idx = _interior_levels(strip, v_min, PATCH_V_MIN_FRAC)
    if len(idx) < 2:
        raise ValidationError(
            f"graph reconstruction needs >= 2 levels at v >= {v_min:.6g}; "
            f"strip reached v={strip.v[-1]:.6g} with status {strip.status!r}")

    # v increases along a strip, so the selection is the run of levels
    # idx[0]..L: rows idx[0] - 1 on of the level analysis.
    levels, rows = slice(idx[0], None), slice(idx[0] - 1, None)
    hess = hessian_from_strip(strip, levels)
    folded = np.any(hess.J <= 0, axis=-1)
    if np.any(folded):
        k = idx[int(np.argmax(folded))]
        raise SingularJacobianError(
            f"J <= 0 at level {k} (v={strip.v[k]:.6g}); "
            "the selected interior is not a local graph")
    Z, _, _, unmasked, ok, tables, rising = _strip_analysis(strip)
    x, y, z, p, q = Z[:, idx]
    residual = np.where(np.abs(hess.J) > RESIDUAL_J_FLOOR, unmasked[levels],
                        np.nan)

    single = bool(np.all(ok[rows]))
    tables = tuple(arr[rows] for arr in tables)
    rho = tables[1]
    patch = GraphPatch(
        v=strip.v[idx], u=strip.u, x=x, y=y, z=z, p=p, q=q,
        r=hess.r, s=hess.s, t=hess.t, J=hess.J, residual=residual,
        r_min=float(np.min(rho)), r_max=float(np.max(rho)),
        multivalued=not (single and np.all(rising[rows])),
        provenance=f"march:levels[{idx[0]}:{idx[-1] + 1}]:{strip.status}",
        field=strip.field,
    )
    if single:
        object.__setattr__(patch, "level_tables", tables)
    return patch


# ---------------------------------------------------------------------------
# The Z2 reflection


def reflect_field(field: CoefficientField) -> CoefficientField:
    """The field that z~(x, y) = -z(-x, -y) solves, with the box mirrored.

    With rho(x, y, z, p, q) = (-x, -y, -z, p, q): A~ = -A o rho,
    B~ = -B o rho, C~ = -C o rho and E~ = E o rho, so D = A C - B^2 + E
    is unchanged.
    """
    mapping = {name: Neg(Var(name)) for name in ("x", "y", "z")}
    box = dict(field.box)
    for name in ("x", "y", "z"):
        lo, hi = field.box[name]
        box[name] = (-hi, -lo)
    A, B, C = (Neg(substitute(e, mapping)) for e in (field.A, field.B, field.C))
    return CoefficientField(A, B, C, substitute(field.E, mapping), box)


def reflect_solution(patch: GraphPatch) -> GraphPatch:
    """z~(x, y) = -z(-x, -y): flips the Hessian sign, keeps the gradient.

    Sample map (x,y,z,p,q,r,s,t) -> (-x,-y,-z,p,q,-r,-s,-t).  J and the
    residual are invariant, so they are carried over unchanged; the field
    reference is reflected alongside (``reflect_field``).  A patch without
    a field (a Legendre dual) raises ValidationError.
    """
    if patch.field is None:
        raise ValidationError("reflect_solution needs a patch with a field")
    return GraphPatch(
        v=patch.v, u=patch.u,
        x=-patch.x, y=-patch.y, z=-patch.z, p=patch.p, q=patch.q,
        r=-patch.r, s=-patch.s, t=-patch.t,
        J=patch.J, residual=patch.residual,
        r_min=patch.r_min, r_max=patch.r_max,
        multivalued=patch.multivalued,
        provenance=patch.provenance + "+reflected",
        field=reflect_field(patch.field),
    )


# ---------------------------------------------------------------------------
# Legendre transform


def _legendre_map(x, y, z, p, q, a: float, c: float):
    """(xi, eta, zeta) of ``legendre``'s dual surface at (x, y, z, p, q)."""
    xi, eta = p + c * x, q + a * y
    return xi, eta, x * xi + y * eta - (z + 0.5 * c * x ** 2 + 0.5 * a * y ** 2)


def legendre(patch: GraphPatch, a: float = 0.0, c: float = 0.0) -> GraphPatch:
    """Generalized Legendre dual of a patch.

    With z* = z + (c/2) x^2 + (a/2) y^2 the dual surface is
    (xi, eta, zeta) = (p + c x, q + a y, x xi + y eta - z*), whose
    gradient in (xi, eta) is exactly (x, y) for every a, c; a = c = 0 is
    the classical involution.  The dual Hessian is the inverse of
    [r + c, s; s, t + a]; nodes where that matrix is singular get NaN.
    """
    xi, eta, zeta = _legendre_map(patch.x, patch.y, patch.z, patch.p, patch.q, a, c)
    det = (patch.r + c) * (patch.t + a) - patch.s ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = np.abs(det) > 1e-12
        safe = np.where(ok, det, 1.0)
        r_dual = np.where(ok, (patch.t + a) / safe, np.nan)
        s_dual = np.where(ok, -patch.s / safe, np.nan)
        t_dual = np.where(ok, (patch.r + c) / safe, np.nan)

    rho = np.hypot(xi, eta)
    nan = np.full_like(patch.J, np.nan)
    return GraphPatch(
        v=patch.v, u=patch.u,
        x=xi, y=eta, z=zeta, p=patch.x, q=patch.y,
        r=r_dual, s=s_dual, t=t_dual,
        J=nan, residual=nan,
        r_min=float(np.min(rho)), r_max=float(np.max(rho)),
        multivalued=patch.multivalued,
        provenance=patch.provenance + f"+legendre(a={a:g},c={c:g})",
        field=None,
    )


def legendre_dual_normals(strip: StripSolution, a: float = 0.0,
                          c: float = 0.0) -> np.ndarray:
    """Unit normals of the Legendre dual surface from its chart derivatives.

    Computed as the normalized cross product L_u x L_v with L_u spectral
    and L_v from the marched system (exact chain rule, no differencing
    across levels).  Returns an array of shape (levels, n_u, 3) over the
    levels at v >= RESIDUAL_V_MIN_FRAC R; the orientation is fixed to a
    positive third component.  This is the independent check that the
    dual's normal is (-x, -y, 1)/sqrt(1 + x^2 + y^2).
    """
    v_min, idx = _interior_levels(strip, None)
    if not idx:
        raise ValidationError(f"no stored levels at v >= {v_min:.6g}")
    Z, Z_v, *_ = _strip_analysis(strip)
    x, y, z, p, q = Z[:, idx]
    x_v, y_v, z_v, p_v, q_v = Z_v[:, idx]
    xi, eta, zeta = _legendre_map(x, y, z, p, q, a, c)
    xi_u, eta_u, zeta_u = spectral_du(np.stack([xi, eta, zeta]))

    xi_v = p_v + c * x_v
    eta_v = q_v + a * y_v
    # Full product rule with the system's z_v; the reduction
    # d(zeta) = x d(xi) + y d(eta) is left to emerge, not assumed.
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
# Prescribed curvature

def curvature_to_field(K, box=None) -> CoefficientField:
    """det D^2 z = K(x, y, z) (1 + |Dz|^2)^2 as a pure coefficient field."""
    expr = K if isinstance(K, Expr) else parse_expr(str(K))
    extra = variables_of(expr) - {"x", "y", "z"}
    if extra:
        raise ValidationError(
            f"curvature may depend on x, y, z only; found {sorted(extra)}")
    e_expr = parse_expr(f"({to_string(expr)}) * (1 + p^2 + q^2)^2")
    return pure_field(e_expr, box)


# ---------------------------------------------------------------------------
# Strip and patch CSV

#: Layout version; both files open with "# format: 2" and nothing else is read.
CSV_FORMAT = 2

#: Each file holds only what the other does not: the patch's x, y, z, p, q
#: are rows of the strip, and v and u sit in the header of both.
_STRIP_COLUMNS = ("x", "y", "z", "p", "q")
_PATCH_COLUMNS = ("r", "s", "t", "J", "residual")


#: Cells per chunk of ``_csv_text``: whole levels, at least one.  It bounds
#: the formatter's temporaries, a few hundred bytes per cell.
_CSV_CHUNK_CELLS = 4096

#: Decimal exponents k that ``_decimal_digits`` tables: those of
#: 1e-250 < |x| < 1e250, and one more on each side for a log10 miss.
_K_LO, _K_HI = -252, 251

#: Rows of ``_format_17g``'s block, one byte per cell each: sign, "0.000"
#: prefix (fixed notation below 1), 17 digits and a point, exponent
#: ("e+dd" or "e-ddd"), separator.  The longest "%.17g" text has 24 bytes.
_SIGN, _PREFIX, _DIGITS, _EXPONENT, _SEP = (
    0, slice(1, 6), slice(6, 24), slice(24, 29), 29)


def _csv_text(header, columns) -> str:
    """``header`` lines, then one "%.17g" CSV row per (level, node).

    ``columns`` broadcast to (levels, n_u); rows run over nodes within a
    level.  ``_format_17g`` writes a chunk of whole levels at a time, and
    the chunks are joined once at the end.
    """
    columns = np.broadcast_arrays(*columns)
    n_levels, n_u = columns[0].shape
    step = max(1, _CSV_CHUNK_CELLS // max(1, n_u * len(columns)))
    seps = np.full((step * n_u, len(columns)), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    text = ["\n".join(header) + "\n"]
    for lo in range(0, n_levels, step):
        cells = np.stack([col[lo:lo + step] for col in columns], axis=-1).ravel()
        text.append(_format_17g(cells.astype(np.float64, copy=False),
                                seps[:cells.size]))
    return "".join(text)


@functools.cache
def _format_tables():
    """(scale, digits, zeros, prefix, exponent), built on first use, read-only.

    Column k - _K_LO of scale is 10^(16 - k) as the double-double hi + lo,
    with hi split into halves of 26 bits for Dekker's product: rows hi,
    hi_big, hi_small, lo.  Row g of digits holds the 4 ASCII digits of
    g < 10^4, and zeros[g] counts their trailing zeros.  Column k - _K_LO
    of prefix holds "0." and -1 - k zeros for -4 <= k <= -1, and of
    exponent "e%+03d" % k for k < -4 or k > 16; NULs fill the rest.
    """
    ks = range(_K_LO, _K_HI + 1)
    scale = np.empty((4, len(ks)))
    prefix = np.zeros((5, len(ks)), np.uint8)
    exponent = np.zeros((5, len(ks)), np.uint8)
    for i, k in enumerate(ks):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        scale[0, i] = hi
        scale[3, i] = (num * hi_den - hi_num * den) / (den * hi_den)
        if -4 <= k < 0:
            prefix[:1 - k, i] = list(b"0." + b"0" * (-1 - k))
        elif not 0 <= k <= 16:
            text = f"e{k:+03d}".encode()
            exponent[:len(text), i] = list(text)
    big = scale[0] * 134217729.0  # Veltkamp's split, 2^27 + 1
    scale[1] = big - (big - scale[0])
    scale[2] = scale[0] - scale[1]
    q = np.arange(10 ** 4)
    digits = np.empty((q.size, 4), np.uint8)
    zeros = np.zeros(q.size, np.int64)
    for i in range(4):
        digits[:, 3 - i] = q // 10 ** i % 10 + ord("0")
        zeros += q % 10 ** (i + 1) == 0
    tables = (scale, digits, zeros.astype(np.uint8), prefix, exponent)
    for table in tables:
        table.flags.writeable = False
    return tables


def _decimal_digits(x: np.ndarray):
    """(k, n, ok): each float64 cell as N 10^(k - 16), where certified.

    For 1e-250 < |x| < 1e250, k = floor(log10 |x|) and the 17 digits
    N = round(|x| 10^(16 - k)) come from the double-double 10^(16 - k) and
    Dekker's exact product (Numer. Math. 18, 1971), whose parts neither
    overflow nor underflow in that range: floor and fraction of
    |x| 10^(16 - k) are off by less than 2^-47.  As in Grisu3 (Loitsch,
    PLDI 2010), a cell is certified only when that error cannot change N
    or k: its fraction is more than 2^-40 from 1/2 (ties, and near-ties,
    would need the exact value), and 10^16 < floor < 10^17 - 1, so N has
    17 digits and log10 did not miss.  A zero is certified with k = N = 0.
    The other cells (NaN, infinities, extreme magnitudes, near-ties, log10
    misses) have N = 0 and ok False.
    """
    scale = _format_tables()[0]
    a = np.abs(x)
    fast = (a > 1e-250) & (a < 1e250)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int16)
    hi, hi_big, hi_small, lo = np.take(scale, k - _K_LO, axis=1)
    p = a * hi
    a_big = a * 134217729.0
    a_big -= a_big - a
    a_small = a - a_big
    # rest = (p's rounding error, exactly) + a lo, in place.
    rest = a_big * hi_big
    rest -= p
    rest += a_big * hi_small
    rest += a_small * hi_big
    rest += a_small * hi_small
    rest += a * lo
    whole = np.floor(rest)
    rest -= whole
    floor = p.astype(np.int64)
    floor += whole.astype(np.int64)
    fast &= ((floor > 10 ** 16) & (floor < 10 ** 17 - 1)
             & (np.abs(rest - 0.5) > 2.0 ** -40))
    floor += rest > 0.5
    floor[~fast] = 0
    return k, floor, fast | (x == 0.0)


def _format_17g(x: np.ndarray, seps: np.ndarray) -> str:
    """Each float64 cell of ``x`` as "%.17g", followed by its byte of ``seps``.

    Cells that ``_decimal_digits`` certifies are laid out as Python's %g
    does: fixed notation for -4 <= k < 17, else "e%+03d", and no trailing
    zeros after the point.  Their text goes into a (30, cells) byte block,
    one column per cell and NULs where a cell has no byte; "%.17g" itself
    writes the other cells into the same block.
    """
    k, n, ok = _decimal_digits(x)
    prefix, exponent = _format_tables()[3:]
    block = np.zeros((30, x.size), np.uint8)
    block[_SIGN] = np.signbit(x) * np.uint8(ord("-"))
    block[_PREFIX] = np.take(prefix, k - _K_LO, axis=1)
    _place_digits(block[_DIGITS], k, n)
    block[_EXPONENT] = np.take(exponent, k - _K_LO, axis=1)
    block[_SEP] = seps
    slow = np.flatnonzero(~ok)
    if slow.size:
        # Each text fills the _SEP rows before the separator, NUL-padded.
        text = np.array(["%.17g" % v for v in x[slow].tolist()], f"S{_SEP}")
        block[:_SEP, slow] = text.view(np.uint8).reshape(slow.size, _SEP).T
    return block.T.tobytes().translate(None, b"\0").decode("ascii")


def _place_digits(region: np.ndarray, k: np.ndarray, n: np.ndarray) -> None:
    """Write the 17 digits N of each cell, and its point, into ``region``.

    ``region`` is (18, cells).  The digits drop the trailing zeros of the
    fraction and keep those of the integer part.  The point follows digit
    ``point`` - 1 when a digit follows it; below 1 in fixed notation
    (-4 <= k < 0) the prefix holds it instead.  Its temporaries are freed
    before ``_format_17g`` turns the block into text.
    """
    digit_table, zero_table = _format_tables()[1:3]
    groups = []  # N as a leading digit and four groups of 4 digits
    for _ in range(4):
        high = n // 10 ** 4
        groups.insert(0, n - high * 10 ** 4)
        n = high
    digits = np.empty((17, n.size), np.uint8)
    digits[0] = n + ord("0")
    for i, group in enumerate(groups):
        digits[1 + 4 * i:5 + 4 * i] = np.take(digit_table, group, axis=0).T
    zeros = [np.take(zero_table, group) for group in groups]
    trailing = zeros[3] + (groups[3] == 0) * (
        zeros[2] + (groups[2] == 0) * (zeros[1] + (groups[1] == 0) * zeros[0]))
    n_digits = np.int16(17) - trailing

    point = np.where(k < 0, 18, k + 1)
    point[(k < -4) | (k > 16)] = 1
    rows = np.arange(17, dtype=np.int16)[:, None]
    digits *= rows < np.maximum(n_digits, point * (k >= 0))
    before = rows < point
    np.multiply(digits, before, out=region[:17])
    digits *= np.logical_not(before, out=before)
    region[1:] += digits
    dotted = np.flatnonzero(n_digits > point)
    region[point[dotted], dotted] = ord(".")


def _grid_header(v, n_u: int) -> list:
    """The level values and n_u; u_j = 2 pi j / n_u, as the march builds it."""
    return [f"# n_u: {n_u}", "# v: " + " ".join(f"{val:.17g}" for val in v)]


def strip_to_csv(strip: StripSolution) -> str:
    """The marched levels as CSV, columns x,y,z,p,q; floats at 17 digits."""
    header = [
        f"# format: {CSV_FORMAT}",
        f"# status: {strip.status}",
        f"# detail: {strip.detail}",
        f"# params: {json.dumps(vars(strip.params))}",
        f"# curve: {json.dumps(strip.curve.to_dict())}",
        f"# field: {json.dumps(strip.field.to_dict())}",
        *_grid_header(strip.v, strip.n_u),
        ",".join(_STRIP_COLUMNS),
    ]
    return _csv_text(header, [strip.states[:, i] for i in range(5)])


def patch_to_csv(patch: GraphPatch) -> str:
    """The patch's Hessian, J and residual as CSV, with provenance headers.

    x, y, z, p, q are not written: for a patch that ``reconstruct_graph``
    made they are the strip's rows at the patch's levels, bit for bit, and
    ``patch_from_csv`` takes them from the strip CSV.

    Raises:
        ValidationError: the patch was reflected or Legendre transformed
            (its provenance has a "+" step), so the strip does not hold it.
    """
    if "+" in patch.provenance:
        raise ValidationError(
            f"patch CSV keeps no x, y, z, p, q, and those of a transformed "
            f"patch ({patch.provenance}) are not the strip's")
    header = [
        f"# format: {CSV_FORMAT}",
        f"# provenance: {patch.provenance}",
        f"# multivalued: {str(patch.multivalued).lower()}",
        f"# r_min: {patch.r_min:.17g}",
        f"# r_max: {patch.r_max:.17g}",
        f"# levels: {patch.n_levels}",
        *_grid_header(patch.v, patch.n_u),
        ",".join(_PATCH_COLUMNS),
    ]
    return _csv_text(header, [getattr(patch, name) for name in _PATCH_COLUMNS])


#: The line boundaries of ``str.splitlines`` other than "\n" and "\r\n",
#: each made "\n" before a CSV is read.
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_TO_NEWLINE = str.maketrans(dict.fromkeys(_LINE_BREAKS, "\n"))

#: A row of a CSV body: a line that is not blank.
_ROW = re.compile(r"^.*\S.*$", re.M)


def _read_csv(text: str, columns, what: str):
    """(meta, v, cells) of a format-2 CSV; cells is (levels, n_u, columns).

    Blank lines, CRLF line ends and trailing whitespace are tolerated.
    The rows are counted against the header, then one ``np.loadtxt`` call
    reads them from a lazy iterator over the text, so no list of lines is
    built beside the array it fills.

    Raises:
        ValidationError: naming ``what``, when the text is not a
            well-formed format-2 CSV with these columns.
    """
    if any(char in text for char in _LINE_BREAKS):
        text = text.replace("\r\n", "\n").translate(_TO_NEWLINE)
    meta, column_line, pos = {}, None, 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line, pos = text[pos:end].strip(), end + 1
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line:
            column_line = line
            break
    found = meta.get("format")
    if found != str(CSV_FORMAT):
        found = f"format {found}" if found else "no '# format:' line (format 1)"
        raise ValidationError(
            f"{what} has {found}; only format {CSV_FORMAT} is read")
    expected = ",".join(columns)
    if column_line != expected:
        raise ValidationError(f"{what} lacks the column line {expected!r}")
    try:
        n_u = int(meta["n_u"])
        v = np.array([float(tok) for tok in meta["v"].split()])
    except KeyError as err:
        raise ValidationError(f"{what} lacks its '# {err.args[0]}:' line") from None
    except ValueError as err:
        raise ValidationError(f"{what} has a malformed value: {err}") from None

    n_rows = sum(1 for _ in _ROW.finditer(text, pos))
    if n_u < 1 or v.size < 1 or n_rows != v.size * n_u:
        raise ValidationError(f"{what} has {n_rows} rows for {v.size} "
                              f"levels of {n_u} nodes")
    rows = (row[0] for row in _ROW.finditer(text, pos))
    try:
        cells = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"{what} has a malformed row: {err}") from None
    if cells.shape[1] != len(columns):
        raise ValidationError(f"{what} rows must have {len(columns)} cells")
    return meta, v, cells.reshape(v.size, n_u, len(columns))


def _level_run(strip_v: np.ndarray, v: np.ndarray) -> int:
    """First index where ``strip_v`` holds ``v`` bit for bit, contiguously."""
    have, want = strip_v.view(np.uint64), v.view(np.uint64)
    for start in np.flatnonzero(have == want[0]):
        if np.array_equal(have[start:start + want.size], want):
            return int(start)
    raise ValidationError("strip CSV does not hold the patch CSV's levels "
                          "as a contiguous run of its v values")


def strip_from_csv(strip_text: str):
    """(v, states) of a strip CSV, states (levels, 5, n_u) as in a strip.

    Raises ValidationError when the text is not a format-2 strip CSV.
    """
    _, v, cells = _read_csv(strip_text, _STRIP_COLUMNS, "strip CSV")
    return v, np.moveaxis(cells, -1, 1)


def patch_from_csv(patch_text: str, strip_text: str) -> GraphPatch:
    """Rebuild a patch from its CSV and the strip CSV of the same run.

    x, y, z, p, q are the strip rows whose v values are the patch's, bit
    for bit; the field reference does not survive.

    Raises:
        ValidationError: either text is not a well-formed format-2 CSV,
            or the strip does not hold the patch's levels.
    """
    meta, v, cells = _read_csv(patch_text, _PATCH_COLUMNS, "patch CSV")
    strip_v, states = strip_from_csv(strip_text)
    n_levels, n_u = cells.shape[:2]
    if states.shape[2] != n_u:
        raise ValidationError(f"strip CSV has n_u={states.shape[2]}, "
                              f"patch CSV has n_u={n_u}")
    start = _level_run(strip_v, v)
    try:
        r_min = float(meta.get("r_min", "nan"))
        r_max = float(meta.get("r_max", "nan"))
    except ValueError as err:
        raise ValidationError(f"patch CSV has a malformed value: {err}") from None
    rows = states[start:start + n_levels]
    grids = {name: rows[:, i] for i, name in enumerate(_STRIP_COLUMNS)}
    grids.update((name, cells[..., i]) for i, name in enumerate(_PATCH_COLUMNS))
    return GraphPatch(
        v=v, u=2.0 * np.pi * np.arange(n_u) / n_u,
        multivalued=meta.get("multivalued", "false") == "true",
        r_min=r_min,
        r_max=r_max,
        provenance=meta.get("provenance", "csv"),
        field=None,
        **grids,
    )
