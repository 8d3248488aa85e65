"""Isolated singularities of elliptic Monge-Ampere equations in the plane.

Given a closed convex gradient-limit curve, the package marches the
associated first-order Cauchy system away from the singular point,
reconstructs the solution as a graph patch over a punctured disk, and
extracts the limit gradient curve back from any such patch.  The cli
module exposes the same pipeline as the ``ma-singular`` console script.
"""

from __future__ import annotations

from .coeffs import (
    DEFAULT_BOX,
    CoefficientField,
    builtin_field,
    builtin_field_names,
    eval_field,
    pure_field,
)
from .curves import (
    CurveReport,
    PeriodicCurve,
    builtin_curve,
    builtin_curve_names,
    classify_curve,
    eval_curve,
    fit_curve,
    signed_curvature,
)
from .errors import (
    ArtifactWriteError,
    CoverageError,
    DegenerateCurveError,
    EllipticityError,
    FieldEvalError,
    OutOfBoxError,
    ParseError,
    SingularJacobianError,
    ValidationError,
)
from .expr import evaluate, parse_expr, to_string, variables_of
from .extract import (
    PatchSampler,
    geometric_radii,
    hausdorff_distance,
    limit_gradient,
    patch_sampler,
    radial_reference_height,
    radial_reference_sampler,
    radial_reference_slope,
)
from .geometry import (
    GraphPatch,
    HessianLevel,
    ResidualReport,
    hessian_from_strip,
    jacobian,
    jv_axis,
    legendre,
    legendre_dual_normals,
    patch_from_csv,
    patch_to_csv,
    pde_residual,
    reconstruct_graph,
    reflect_solution,
    strip_from_csv,
    strip_to_csv,
)
from .march import (
    MarchParams,
    StripSolution,
    assemble_rhs,
    march,
    spectral_du,
    stability_monitor,
)
from .sphere import (
    plane_sphere,
    sphere_plane,
    spherical_orientation,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactWriteError",
    "CoefficientField",
    "CoverageError",
    "CurveReport",
    "DEFAULT_BOX",
    "DegenerateCurveError",
    "EllipticityError",
    "FieldEvalError",
    "GraphPatch",
    "HessianLevel",
    "MarchParams",
    "OutOfBoxError",
    "ParseError",
    "PatchSampler",
    "PeriodicCurve",
    "ResidualReport",
    "SingularJacobianError",
    "StripSolution",
    "ValidationError",
    "__version__",
    "assemble_rhs",
    "builtin_curve",
    "builtin_curve_names",
    "builtin_field",
    "builtin_field_names",
    "classify_curve",
    "eval_curve",
    "eval_field",
    "evaluate",
    "fit_curve",
    "geometric_radii",
    "hausdorff_distance",
    "hessian_from_strip",
    "jacobian",
    "jv_axis",
    "legendre",
    "legendre_dual_normals",
    "limit_gradient",
    "march",
    "parse_expr",
    "patch_from_csv",
    "patch_sampler",
    "patch_to_csv",
    "pde_residual",
    "plane_sphere",
    "pure_field",
    "radial_reference_height",
    "radial_reference_sampler",
    "radial_reference_slope",
    "reconstruct_graph",
    "reflect_solution",
    "signed_curvature",
    "spectral_du",
    "sphere_plane",
    "spherical_orientation",
    "stability_monitor",
    "strip_from_csv",
    "strip_to_csv",
    "to_string",
    "variables_of",
]
