"""Geometric verification of marched strips: Jacobian, Hessian, residuals,
graph reconstruction, the reflection map, and the Legendre transform.

The marched chart (u, v) is degenerate on the axis v = 0 by construction
(the whole axis maps to the origin), so everything here either stays away
from the axis or treats it explicitly.  Hessian recovery is one 2x2 solve
per node; the four first-order relations the system satisfies are then
demoted to residual checks, which makes them genuinely independent
evidence rather than part of the construction.
"""

from __future__ import annotations

import json
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
]

#: |J| at or below this is treated as a chart-degenerate node.
JACOBIAN_GUARD = 1e-10

#: Residual statistics only count nodes safely off the axis.
RESIDUAL_J_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Jacobian of the strip chart


def _strip_states(strip: StripSolution, levels) -> np.ndarray:
    """States (x, y, z, p, q) first: (5, n_u) for an int, else (5, L, n_u)."""
    return np.moveaxis(strip.states[levels], -2, 0)


def _strip_derivatives(strip: StripSolution, levels):
    """(Z, Z_u, Z_v) on one level index or a selection of levels.

    Each is a (5, n_u) block for an int and (5, L, n_u) for a selection,
    rows x, y, z, p, q.  u-derivatives are spectral; v-derivatives
    re-evaluate the marched system on the stored levels, so they are
    exact for the semi-discrete flow rather than a finite difference
    across levels.
    """
    Z = _strip_states(strip, levels)
    return Z, spectral_du(Z), assemble_rhs(Z, strip.field)


def jacobian(strip: StripSolution):
    """J = x_u y_v - x_v y_u per (level, node), plus min over v > 0.

    Level 0 is identically zero in exact arithmetic (the axis data has
    x = y = 0); it is returned as computed, which is zero to round-off.
    """
    _, Z_u, Z_v = _strip_derivatives(strip, slice(None))
    J = Z_u[0] * Z_v[1] - Z_v[0] * Z_u[1]
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


# ---------------------------------------------------------------------------
# Hessian recovery


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


def hessian_from_derivatives(x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v,
                             guard: float = JACOBIAN_GUARD):
    """Pointwise chain-rule Hessian from chart derivatives.

    [r s; s t] = [p_u p_v; q_u q_v] · [x_u x_v; y_u y_v]^{-1}.  Returns
    (r, s, t, sym_defect, J, valid); guarded nodes are NaN.  Inputs may
    be scalars or arrays of a common shape.
    """
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


def hessian_from_strip(strip: StripSolution, level,
                       guard: float = JACOBIAN_GUARD) -> HessianLevel:
    """Recover the Hessian on stored levels and check the four relations.

    ``level`` is one level index, giving (n_u,) fields, or a selection
    (slice, index list) of L levels, giving (L, n_u) fields.

    Raises SingularJacobianError when every node of a selected level is
    below the guard (the axis level, in particular); the message names
    the first such level.
    """
    Z, (x_u, y_u, _, p_u, q_u), (x_v, y_v, _, p_v, q_v) = \
        _strip_derivatives(strip, level)
    r, s, t, sym_defect, J, valid = hessian_from_derivatives(
        x_u, x_v, y_u, y_v, p_u, p_v, q_u, q_v, guard=guard)
    dead = np.atleast_1d(~np.any(valid, axis=-1))
    if np.any(dead):
        k = np.atleast_1d(np.arange(strip.n_levels)[level])[np.argmax(dead)]
        raise SingularJacobianError(
            f"level {k} (v={strip.v[k]:.6g}) has |J| <= {guard} everywhere")

    a, b, c, e, disc = eval_field(strip.field, tuple(Z))
    root = np.sqrt(disc)
    # The marched system satisfies these four identities exactly; after
    # recovery they are free consistency evidence.
    rel = np.stack([
        root * y_v - ((c + r) * x_u - (b - s) * y_u),
        root * y_u + ((c + r) * x_v - (b - s) * y_v),
        root * x_v - ((b - s) * x_u - (a + t) * y_u),
        root * x_u + ((b - s) * x_v - (a + t) * y_v),
    ])
    fin_residual = np.max(np.abs(rel), axis=0)
    return HessianLevel(r=r, s=s, t=t, sym_defect=sym_defect,
                        fin_residual=fin_residual, J=J, valid=valid)


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """PDE residual statistics over the interior of a strip."""

    max_abs: float
    rms: float
    level_indices: tuple
    residuals: np.ndarray  # (len(level_indices), n_u); NaN where excluded
    n_nodes: int


def _residual(a, b, c, e, hess: HessianLevel) -> np.ndarray:
    """A r + 2B s + C t + (r t - s^2) - E at the recovered Hessian."""
    return a * hess.r + 2.0 * b * hess.s + c * hess.t \
        + hess.r * hess.t - hess.s ** 2 - e


def _interior_levels(strip: StripSolution, v_min: float | None,
                     default_frac: float = 0.2):
    if v_min is None:
        v_min = default_frac * strip.params.R
    idx = [k for k in range(1, strip.n_levels) if abs(strip.v[k]) >= v_min - 1e-15]
    return v_min, idx


def pde_residual(strip: StripSolution, field: CoefficientField | None = None,
                 v_min: float | None = None,
                 j_floor: float = RESIDUAL_J_FLOOR) -> ResidualReport:
    """residual = A r + 2B s + C t + (r t - s^2) - E over the strip interior.

    Levels below v_min (default 0.2 R) and nodes with |J| <= j_floor are
    excluded: the chart is degenerate at the axis and the quotient blows
    up the recovery there.  Identically, the residual equals
    (A+t)(C+r) - (B-s)^2 - D.
    """
    if field is None:
        field = strip.field
    v_min, idx = _interior_levels(strip, v_min)
    if not idx:
        raise ValidationError(
            f"no stored levels at v >= {v_min:.6g}; strip reached {strip.v[-1]:.6g}")
    hess = hessian_from_strip(strip, idx)
    a, b, c, e, _ = eval_field(field, tuple(_strip_states(strip, idx)))
    keep = hess.valid & (np.abs(hess.J) > j_floor)
    residuals = np.where(keep, _residual(a, b, c, e, hess), np.nan)
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


def _unwrap_angles(x: np.ndarray, y: np.ndarray):
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


def _level_cover(x: np.ndarray, y: np.ndarray, extra_rows=()):
    """Reduce one level curve to a single star-shaped traversal.

    A level with winding m and monotone angle is accepted when it is an
    exact m-fold cover: every row repeats with period n/m (the doubly
    traced constructions produce exactly this, to march round-off, while
    genuinely self-overlapping images do not).  Returns (x_red, y_red)
    or None when the level is not a cover of a star-shaped curve.
    """
    theta, winding = _unwrap_angles(x, y)
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


def _radius_at_angles(x: np.ndarray, y: np.ndarray, query: np.ndarray) -> np.ndarray:
    """rho(theta) by periodic linear interpolation of one closed level curve."""
    theta, winding = _unwrap_angles(x, y)
    rho = np.hypot(x, y)
    if theta[0] > theta[-1]:
        theta, rho = theta[::-1], rho[::-1]
    period = 2.0 * np.pi * abs(winding) if winding != 0 else 2.0 * np.pi
    theta_ext = np.concatenate([theta, [theta[0] + period]])
    rho_ext = np.concatenate([rho, [rho[0]]])
    q = (query - theta_ext[0]) % period + theta_ext[0]
    return np.interp(q, theta_ext, rho_ext)


def _nested_family(x: np.ndarray, y: np.ndarray, extra=()) -> bool:
    """True when every level reduces to a star-shaped curve and they nest.

    ``extra`` carries further per-level sample rows (z, p, q) that must
    also repeat on multiply covered levels: matching (x, y) alone would
    accept two sheets at different heights.
    """
    n_levels = x.shape[0]
    reduced = []
    for k in range(n_levels):
        red = _level_cover(x[k], y[k], tuple(e[k] for e in extra))
        if red is None:
            return False
        reduced.append(red)
    query = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    prev = _radius_at_angles(*reduced[0], query)
    for k in range(1, n_levels):
        cur = _radius_at_angles(*reduced[k], query)
        if not np.all(cur > prev):
            return False
        prev = cur
    return True


def reconstruct_graph(strip: StripSolution, v_min: float | None = None,
                      j_floor: float = RESIDUAL_J_FLOOR) -> GraphPatch:
    """Emit the strip's interior levels as annulus samples, no re-gridding.

    Requires J > 0 on the selected levels (the chart must be locally a
    graph); global injectivity is then decided by the nested star-shaped
    test and recorded as the ``multivalued`` flag rather than raised, so
    the non-embedded constructions remain first-class results.

    The default v_min is 0.1 R, lower than the residual report's 0.2 R:
    the annulus should reach close to the singularity, and the Hessian is
    still well conditioned there (J ~ v, far above the guard).
    """
    v_min, idx = _interior_levels(strip, v_min, default_frac=0.1)
    if len(idx) < 2:
        raise ValidationError(
            f"graph reconstruction needs >= 2 levels at v >= {v_min:.6g}; "
            f"strip reached v={strip.v[-1]:.6g} with status {strip.status!r}")

    hess = hessian_from_strip(strip, idx)
    folded = np.any(hess.J <= 0, axis=-1)
    if np.any(folded):
        k = idx[int(np.argmax(folded))]
        raise SingularJacobianError(
            f"J <= 0 at level {k} (v={strip.v[k]:.6g}); "
            "the selected interior is not a local graph")
    Z = _strip_states(strip, idx)
    a, b, c, e, _ = eval_field(strip.field, tuple(Z))
    x, y, z, p, q = Z
    residual = np.where(np.abs(hess.J) > j_floor, _residual(a, b, c, e, hess),
                        np.nan)

    rho = np.hypot(x, y)
    multivalued = not _nested_family(x, y, extra=(z, p, q))
    return GraphPatch(
        v=strip.v[idx], u=strip.u, x=x, y=y, z=z, p=p, q=q,
        r=hess.r, s=hess.s, t=hess.t, J=hess.J, residual=residual,
        r_min=float(np.min(rho)), r_max=float(np.max(rho)),
        multivalued=multivalued,
        provenance=f"march:levels[{idx[0]}:{idx[-1] + 1}]:{strip.status}",
        field=strip.field,
    )


# ---------------------------------------------------------------------------
# The Z2 reflection


def reflect_field(field: CoefficientField) -> CoefficientField:
    """phi~(x,y,z,p,q) = phi(-x,-y,-z,p,q) for a pure field, box mirrored."""
    if not field.pure:
        raise ValidationError("the reflection construction needs a pure field "
                              "(A = B = C = 0)")
    mapping = {name: Neg(Var(name)) for name in ("x", "y", "z")}
    box = dict(field.box)
    for name in ("x", "y", "z"):
        lo, hi = field.box[name]
        box[name] = (-hi, -lo)
    return CoefficientField(field.A, field.B, field.C,
                            substitute(field.E, mapping), box)


def reflect_solution(patch: GraphPatch) -> GraphPatch:
    """z~(x, y) = -z(-x, -y): flips the Hessian sign, keeps the gradient.

    Sample map (x,y,z,p,q,r,s,t) -> (-x,-y,-z,p,q,-r,-s,-t).  J and the
    residual are invariant, so they are carried over unchanged; the field
    reference is reflected alongside.
    """
    if patch.field is None or not patch.field.pure:
        raise ValidationError("reflect_solution is defined for patches of a "
                              "pure field")
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


def legendre(patch: GraphPatch, a: float = 0.0, c: float = 0.0) -> GraphPatch:
    """Generalized Legendre dual of a patch.

    With z* = z + (c/2) x^2 + (a/2) y^2 the dual surface is
    (xi, eta, zeta) = (p + c x, q + a y, x xi + y eta - z*), whose
    gradient in (xi, eta) is exactly (x, y) for every a, c; a = c = 0 is
    the classical involution.  The dual Hessian is the inverse of
    [r + c, s; s, t + a]; nodes where that matrix is singular get NaN.
    """
    xi = patch.p + c * patch.x
    eta = patch.q + a * patch.y
    z_star = patch.z + 0.5 * c * patch.x ** 2 + 0.5 * a * patch.y ** 2
    zeta = patch.x * xi + patch.y * eta - z_star

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


def legendre_dual_normals(strip: StripSolution, v_min: float | None = None,
                          a: float = 0.0, c: float = 0.0) -> np.ndarray:
    """Unit normals of the Legendre dual surface from its chart derivatives.

    Computed as the normalized cross product L_u x L_v with L_u spectral
    and L_v from the marched system (exact chain rule, no differencing
    across levels).  Returns an array of shape (levels, n_u, 3) over the
    interior levels; the orientation is fixed to a positive third
    component.  This is the independent check that the dual's normal is
    (-x, -y, 1)/sqrt(1 + x^2 + y^2).
    """
    v_min, idx = _interior_levels(strip, v_min)
    if not idx:
        raise ValidationError(f"no stored levels at v >= {v_min:.6g}")
    (x, y, z, p, q), _, (x_v, y_v, z_v, p_v, q_v) = \
        _strip_derivatives(strip, idx)
    xi = p + c * x
    eta = q + a * y
    z_star = z + 0.5 * c * x ** 2 + 0.5 * a * y ** 2
    zeta = x * xi + y * eta - z_star
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
# Patch serialization

_PATCH_COLUMNS = ("x", "y", "z", "p", "q", "r", "s", "t", "J", "residual")


def _csv_text(header, columns) -> str:
    """``header`` lines, then one "%.17g" CSV row per (level, node).

    ``columns`` broadcast to (levels, n_u); rows run over nodes within a
    level.  Each level is formatted by one ``%`` over a repeated row
    template, so the text is built a level at a time.
    """
    block = np.stack(np.broadcast_arrays(*columns), axis=-1)
    n_u, n_cols = block.shape[1:]
    template = (",".join(["%.17g"] * n_cols) + "\n") * n_u
    text = ["\n".join(header) + "\n"]
    text += [template % tuple(level.ravel().tolist()) for level in block]
    return "".join(text)


def patch_to_csv(patch: GraphPatch) -> str:
    """CSV with provenance headers; floats at 17 significant digits."""
    header = [
        f"# provenance: {patch.provenance}",
        f"# multivalued: {str(patch.multivalued).lower()}",
        f"# r_min: {patch.r_min:.17g}",
        f"# r_max: {patch.r_max:.17g}",
        f"# levels: {patch.n_levels}",
        f"# n_u: {patch.n_u}",
        "# v: " + " ".join(f"{val:.17g}" for val in patch.v),
        ",".join(_PATCH_COLUMNS),
    ]
    return _csv_text(header, [getattr(patch, name) for name in _PATCH_COLUMNS])


def patch_from_csv(text: str) -> GraphPatch:
    """Rebuild a patch from its CSV; the field reference does not survive.

    Raises:
        ValidationError: the text is not a well-formed patch CSV.
    """
    meta = {}
    v = None
    rows = []
    try:
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                key = key.strip()
                if key == "v":
                    v = np.array([float(tok) for tok in value.split()])
                else:
                    meta[key] = value.strip()
            elif line and not line.startswith(_PATCH_COLUMNS[0] + ","):
                rows.append(line)
        n_u = int(meta["n_u"]) if "n_u" in meta else None
        r_min = float(meta.get("r_min", "nan"))
        r_max = float(meta.get("r_max", "nan"))
    except ValueError as err:
        raise ValidationError(f"patch CSV has a malformed value: {err}") from None
    if v is None or n_u is None:
        raise ValidationError("patch CSV is missing its header block")
    if any(row.count(",") != len(_PATCH_COLUMNS) - 1 for row in rows):
        raise ValidationError(
            f"patch CSV rows must have {len(_PATCH_COLUMNS)} cells")
    if n_u < 1 or not rows or len(rows) % n_u:
        raise ValidationError("patch CSV row count does not match n_u")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"patch CSV has a malformed value: {err}") from None
    n_levels = data.shape[0] // n_u
    if v.size != n_levels:
        raise ValidationError(
            f"patch CSV header lists {v.size} v values for {n_levels} levels")
    grids = {name: data[:, i].reshape(n_levels, n_u)
             for i, name in enumerate(_PATCH_COLUMNS)}
    return GraphPatch(
        v=v, u=2.0 * np.pi * np.arange(n_u) / n_u,
        multivalued=meta.get("multivalued", "false") == "true",
        r_min=r_min,
        r_max=r_max,
        provenance=meta.get("provenance", "csv"),
        field=None,
        **grids,
    )
