"""Config-driven command line front end.

Subcommands: construct (march + reconstruct + verify residuals),
roundtrip (limit-gradient extraction against the input curve, both
reflection branches), verify (closed-form rotational oracle), plot
(deterministic SVGs from saved run outputs).

Exit codes separate scientific outcomes from usage errors:

    0   success (single-valued where that is the claim)
    2   validation / config error, nothing was run
    3   construction succeeded but is multivalued
    4   instability abort or non-finite state
    5   ellipticity lost
    6   the marched state left the domain box
    7   roundtrip precondition failed (curve not strictly convex Jordan)
    8   a verification tolerance was exceeded
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from .coeffs import CoefficientField, builtin_field, eval_field
from .curves import PeriodicCurve, builtin_curve, classify_curve, eval_curve
from .errors import (
    BoxExitError,
    CoverageError,
    EllipticityAbortError,
    MarchError,
    SingularJacobianError,
    ValidationError,
)
from .extract import (
    geometric_radii,
    hausdorff_distance,
    limit_gradient,
    patch_sampler,
    radial_reference_height,
    radial_reference_sampler,
    radial_reference_slope,
)
from .geometry import (
    _csv_text,
    jacobian,
    patch_from_csv,
    patch_to_csv,
    pde_residual,
    reconstruct_graph,
    reflect_solution,
)
from .march import MarchParams, StripSolution, march
from .svgplot import curves_overlay_svg, image_curves_svg, residual_strip_svg

__all__ = ["DEFAULT_CONFIG", "main", "report_schema", "run_command"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MULTIVALUED = 3
EXIT_INSTABILITY = 4
EXIT_ELLIPTICITY = 5
EXIT_BOX = 6
EXIT_PRECONDITION = 7
EXIT_TOLERANCE = 8

_STATUS_EXIT = {
    "completed": EXIT_OK,
    "box-exit": EXIT_BOX,
    "instability-abort": EXIT_INSTABILITY,
    "non-finite": EXIT_INSTABILITY,
    "ellipticity": EXIT_ELLIPTICITY,
}

#: Exit code of an error that ends a command, subclasses before MarchError.
_ERROR_EXIT = ((ValidationError, EXIT_VALIDATION), (CoverageError, EXIT_TOLERANCE),
               (BoxExitError, EXIT_BOX), (EllipticityAbortError, EXIT_ELLIPTICITY),
               (MarchError, EXIT_INSTABILITY))

DEFAULT_CONFIG = {
    "curve": {"builtin": "circle", "file": None, "literal": None,
              "auto_reverse": False},
    "field": {"builtin": "pure-one", "file": None, "literal": None},
    "march": {"R": 0.15, "n_u": 128, "dv": 0.001, "filter_strength": 36.0,
              "filter_order": 16, "filter_cutoff": 1.0,
              "monitor_threshold": 0.001, "box_policy": "truncate",
              "negative_v": False},
    "reconstruct": {"v_min": None},
    "residual": {"v_min": None, "j_floor": 1e-6},
    "extract": {"degree": 16, "n_theta": 256, "radii": None},
    "roundtrip": {"tolerance": 0.001, "reflected": True},
    "verify": {"oracle": "radial-reference", "z_tolerance": 1e-4,
               "slope_tolerance": 1e-4, "circle_tolerance": 1e-6},
    "out": "out",
    "emit": {"csv": True, "json": True, "svg": False},
    "seed": 0,
}

_STRIP_CSV = "strip.csv"
_PATCH_CSV = "patch.csv"
_REPORT_JSON = "report.json"
_SVG_FILES = ("curves.svg", "images.svg", "residual.svg")


# ---------------------------------------------------------------------------
# Config handling


def _merge(defaults, overrides, path="config"):
    if overrides is None:
        return copy.deepcopy(defaults)
    if not isinstance(overrides, dict):
        raise ValidationError(f"{path} must be an object")
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ValidationError(f"unknown config key {path}.{key}")
        if isinstance(defaults[key], dict) and defaults[key]:
            merged[key] = _merge(defaults[key], value, f"{path}.{key}")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _apply_set(config: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ValidationError(f"--set needs key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ValidationError(f"unknown config key {key!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ValidationError(f"unknown config key {key!r}")
    node[parts[-1]] = value


def load_config(path: str | None, sets=(), out: str | None = None) -> dict:
    user = None
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            user = json.loads(file.read_text())
        except json.JSONDecodeError as err:
            raise ValidationError(f"config is not valid JSON: {err}") from None
    config = _merge(DEFAULT_CONFIG, user)
    for assignment in sets:
        _apply_set(config, assignment)
    if out is not None:
        config["out"] = out
    return config


def _load_curve(cfg: dict) -> PeriodicCurve:
    spec = cfg["curve"]
    if spec.get("literal") is not None:
        return PeriodicCurve.from_dict(spec["literal"])
    if spec.get("file") is not None:
        path = Path(spec["file"])
        if not path.is_file():
            raise ValidationError(f"curve file not found: {spec['file']}")
        return PeriodicCurve.from_json(path.read_text())
    return builtin_curve(spec["builtin"])


def _load_field(cfg: dict) -> CoefficientField:
    spec = cfg["field"]
    if spec.get("literal") is not None:
        return CoefficientField.from_dict(spec["literal"])
    if spec.get("file") is not None:
        path = Path(spec["file"])
        if not path.is_file():
            raise ValidationError(f"field file not found: {spec['file']}")
        return CoefficientField.from_json(path.read_text())
    return builtin_field(spec["builtin"])


def _march_params(cfg: dict) -> MarchParams:
    m = cfg["march"]
    try:
        return MarchParams(
            R=float(m["R"]), n_u=int(m["n_u"]), dv=float(m["dv"]),
            filter_strength=float(m["filter_strength"]),
            filter_order=int(m["filter_order"]),
            filter_cutoff=float(m["filter_cutoff"]),
            monitor_threshold=float(m["monitor_threshold"]),
            box_policy=str(m["box_policy"]),
            negative_v=bool(m["negative_v"]))
    except (TypeError, KeyError) as err:
        raise ValidationError(f"bad march parameters: {err}") from None


def _prepare(cfg: dict):
    """Fail-fast pass: parse everything before any numerics run."""
    for key, nullable in (("reconstruct.v_min", True), ("residual.v_min", True),
                          ("residual.j_floor", False)):
        section, name = key.split(".")
        value = cfg[section][name]
        if nullable and value is None:
            continue
        # A bool is an int; the comparison rejects inf, NaN and huge ints.
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:
            raise ValidationError(f"{key} must be a finite number"
                                  f"{' or null' if nullable else ''}, got {value!r}")
    curve = _load_curve(cfg)
    field = _load_field(cfg)
    params = _march_params(cfg)
    params.validate(curve)
    report = classify_curve(curve)
    reversed_curve = False
    if cfg["curve"]["auto_reverse"] and report.orientation == "positive":
        curve = curve.reverse()
        report = classify_curve(curve)
        reversed_curve = True
    return curve, field, params, report, reversed_curve


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _classification_dict(report) -> dict:
    return {
        "regularity_margin": float(report.regularity_margin),
        "convexity_margin": float(report.convexity_margin),
        "orientation": report.orientation,
        "regular": bool(report.regular),
        "strictly_convex": bool(report.strictly_convex),
        "embedded": bool(report.embedded),
        "u_star": float(report.u_star),
    }


def _strip_csv(strip: StripSolution) -> str:
    header = [
        f"# status: {strip.status}",
        f"# detail: {strip.detail}",
        f"# params: {json.dumps(vars(strip.params))}",
        f"# curve: {strip.curve.to_json()}",
        f"# field: {strip.field.to_json()}",
        "v,u,x,y,z,p,q",
    ]
    return _csv_text(header, [strip.v[:, None], strip.u]
                     + [strip.states[:, i] for i in range(5)])


def _ellipticity_spot_check(field: CoefficientField, seed: int, n: int = 256):
    """Random in-box states; the march only visits a curve through the box."""
    rng = np.random.default_rng(seed)
    state = []
    for name in ("x", "y", "z", "p", "q"):
        lo, hi = field.box[name]
        state.append(rng.uniform(lo, hi, size=n))
    try:
        disc = eval_field(field, tuple(state))[4]
        return {"n": n, "min_disc": float(np.min(disc)), "error": None}
    except Exception as err:  # noqa: BLE001 - reported, not fatal
        return {"n": n, "min_disc": None, "error": str(err)}


def _construct_pipeline(cfg: dict, prepared):
    """march + diagnostics + reconstruction; shared by several commands.

    ``prepared`` is the tuple ``_prepare(cfg)`` returned, so a command that
    has already classified its input curve does not classify it again.
    """
    curve, field, params, report, reversed_curve = prepared
    strip = march(curve, field, params)
    result = {
        "classification": _classification_dict(report),
        "auto_reversed": reversed_curve,
        "status": strip.status,
        "detail": strip.detail,
        "march": {
            "levels": int(strip.n_levels),
            "levels_skipped": int(strip.levels_skipped),
            "v_max": float(strip.v[-1]),
            "min_disc": float(np.min(strip.min_disc)),
            "max_high_frac": float(np.max(strip.high_frac)),
        },
        "ellipticity_spot_check": _ellipticity_spot_check(field, cfg["seed"]),
    }

    J, min_positive = jacobian(strip)
    positive_levels = np.flatnonzero(np.min(J[1:], axis=1) > 0) + 1
    result["jacobian"] = {
        "min_over_positive_v": min_positive,
        "largest_v_with_positive_J": (
            float(strip.v[positive_levels[-1]]) if positive_levels.size else None),
    }

    patch = None
    try:
        patch = reconstruct_graph(strip, v_min=cfg["reconstruct"]["v_min"])
        result["patch"] = {
            "levels": int(patch.n_levels),
            "r_min": patch.r_min,
            "r_max": patch.r_max,
            "multivalued": bool(patch.multivalued),
        }
    except (ValidationError, SingularJacobianError) as err:
        result["patch"] = {"error": str(err)}

    residual_report = None
    try:
        residual_report = pde_residual(strip, v_min=cfg["residual"]["v_min"],
                                       j_floor=cfg["residual"]["j_floor"])
        result["residual"] = {
            "max_abs": residual_report.max_abs,
            "rms": residual_report.rms,
            "n_nodes": residual_report.n_nodes,
        }
    except (ValidationError, SingularJacobianError) as err:
        result["residual"] = {"error": str(err)}

    return curve, field, strip, patch, residual_report, result


def _strict_json(value):
    """Copy of ``value`` with non-finite floats as null (RFC 8259 has no NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def _write_outputs(cfg: dict, strip, patch, residual_report, report: dict,
                   curve=None, extra_curves=()):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if cfg["emit"]["csv"] and strip is not None:
        (out / _STRIP_CSV).write_text(_strip_csv(strip))
        if patch is not None:
            (out / _PATCH_CSV).write_text(patch_to_csv(patch))
    if cfg["emit"]["json"]:
        (out / _REPORT_JSON).write_text(
            json.dumps(_strict_json(report), indent=2, sort_keys=True,
                       allow_nan=False) + "\n")
    if cfg["emit"]["svg"]:
        _write_svgs(out, cfg, report, strip, patch, residual_report,
                    curve=curve, extra_curves=extra_curves)


def _curve_polyline(curve: PeriodicCurve, n: int = 720) -> np.ndarray:
    u = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    alpha, beta, *_ = eval_curve(curve, u)
    return np.column_stack([alpha, beta])


def _write_svgs(out: Path, cfg: dict, report: dict, strip, patch,
                residual_report, curve=None, extra_curves=()):
    overlays = []
    if curve is not None:
        overlays.append(("input", _curve_polyline(curve)))
    for label, extra in extra_curves:
        overlays.append((label, _curve_polyline(extra)))
    if overlays:
        (out / "curves.svg").write_text(curves_overlay_svg(overlays))
    if patch is not None:
        (out / "images.svg").write_text(image_curves_svg(patch.x, patch.y))
    elif strip is not None and strip.n_levels > 1:
        (out / "images.svg").write_text(
            image_curves_svg(strip.states[1:, 0, :], strip.states[1:, 1, :]))
    if residual_report is not None:
        v = [strip.v[k] for k in residual_report.level_indices]
        (out / "residual.svg").write_text(
            residual_strip_svg(residual_report.residuals, np.asarray(v)))


# ---------------------------------------------------------------------------
# Commands


def _pipeline_exit(strip, patch) -> int:
    """Exit code of a pipeline run whose claim is a single-valued patch."""
    code = _STATUS_EXIT[strip.status]
    if code == EXIT_OK and (patch is None or patch.multivalued):
        code = EXIT_MULTIVALUED if patch is not None else EXIT_VALIDATION
    return code


def cmd_construct(cfg: dict) -> int:
    curve, field, strip, patch, residual_report, result = \
        _construct_pipeline(cfg, _prepare(cfg))
    code = _STATUS_EXIT[strip.status]
    if code == EXIT_OK and patch is not None and patch.multivalued:
        code = EXIT_MULTIVALUED
    report = {"command": "construct", "exit_code": code, "config": cfg}
    report.update(result)
    _write_outputs(cfg, strip, patch, residual_report, report, curve=curve)
    return code


def cmd_roundtrip(cfg: dict) -> int:
    prepared = _prepare(cfg)
    cls = prepared[3]
    if not (cls.regular and cls.strictly_convex and cls.embedded):
        report = {
            "command": "roundtrip", "exit_code": EXIT_PRECONDITION,
            "config": cfg, "classification": _classification_dict(cls),
            "status": "precondition-failed",
            "detail": "curve must be regular, strictly convex (negatively "
                      "oriented) and embedded",
        }
        _write_outputs(cfg, None, None, None, report)
        return EXIT_PRECONDITION

    curve, field, strip, patch, residual_report, result = \
        _construct_pipeline(cfg, prepared)
    report = {"command": "roundtrip", "config": cfg}
    report.update(result)
    code = _pipeline_exit(strip, patch)
    if code != EXIT_OK:
        report["exit_code"] = code
        _write_outputs(cfg, strip, patch, residual_report, report, curve=curve)
        return code

    tol = float(cfg["roundtrip"]["tolerance"])
    extract_cfg = cfg["extract"]
    extra_curves = []

    def one_branch(branch_patch):
        sampler = patch_sampler(branch_patch)
        radii = extract_cfg["radii"]
        radii = sampler.suggest_radii() if radii is None else tuple(radii)
        lg = limit_gradient(sampler, radii,
                            n_theta=int(extract_cfg["n_theta"]),
                            degree=int(extract_cfg["degree"]))
        distance = hausdorff_distance(curve, lg.curve)
        return lg, distance

    lg, distance = one_branch(patch)
    report["limit"] = {
        "residual": lg.residual, "jordan": bool(lg.jordan),
        "radii": list(lg.radii),
    }
    report["hausdorff"] = distance
    report["recovered_curve"] = lg.curve.to_dict()
    extra_curves.append(("recovered", lg.curve))
    worst = distance

    if cfg["roundtrip"]["reflected"]:
        lg_r, distance_r = one_branch(reflect_solution(patch))
        report["hausdorff_reflected"] = distance_r
        report["recovered_curve_reflected"] = lg_r.curve.to_dict()
        extra_curves.append(("recovered (reflected)", lg_r.curve))
        worst = max(worst, distance_r)

    code = EXIT_OK if worst <= tol else EXIT_TOLERANCE
    report["exit_code"] = code
    _write_outputs(cfg, strip, patch, residual_report, report, curve=curve,
                   extra_curves=extra_curves)
    return code


def cmd_verify(cfg: dict) -> int:
    oracle = cfg["verify"]["oracle"]
    if oracle != "radial-reference":
        raise ValidationError(f"unknown oracle {oracle!r}; known: radial-reference")

    curve, field, strip, patch, residual_report, result = \
        _construct_pipeline(cfg, _prepare(cfg))
    report = {"command": "verify", "config": cfg, "oracle": oracle}
    report.update(result)
    code = _pipeline_exit(strip, patch)
    if code != EXIT_OK:
        report["exit_code"] = code
        _write_outputs(cfg, strip, patch, residual_report, report, curve=curve)
        return code

    rho = patch.radii()
    z_err = float(np.max(np.abs(patch.z - radial_reference_height(rho))))
    slope_err = float(np.max(np.abs(np.hypot(patch.p, patch.q)
                                    - radial_reference_slope(rho))))
    lg = limit_gradient(radial_reference_sampler(), geometric_radii(0.05, 5),
                        n_theta=int(cfg["extract"]["n_theta"]),
                        degree=int(cfg["extract"]["degree"]))
    circle_dist = hausdorff_distance(builtin_curve("circle"), lg.curve)
    report["oracle_errors"] = {
        "max_z_error": z_err,
        "max_slope_error": slope_err,
        "limit_circle_hausdorff": circle_dist,
    }
    ok = (z_err <= float(cfg["verify"]["z_tolerance"])
          and slope_err <= float(cfg["verify"]["slope_tolerance"])
          and circle_dist <= float(cfg["verify"]["circle_tolerance"]))
    code = EXIT_OK if ok else EXIT_TOLERANCE
    report["exit_code"] = code
    _write_outputs(cfg, strip, patch, residual_report, report, curve=curve,
                   extra_curves=[("limit gradient", lg.curve)])
    return code


def cmd_plot(cfg: dict) -> int:
    out = Path(cfg["out"])
    report_path = out / _REPORT_JSON
    if not report_path.is_file():
        raise ValidationError(
            f"no {_REPORT_JSON} in {out}; run construct/roundtrip/verify first")
    try:
        report = json.loads(report_path.read_text())
    except json.JSONDecodeError as err:
        raise ValidationError(f"{report_path} is not valid JSON: {err}") from None
    if not isinstance(report, dict):
        raise ValidationError(f"{report_path} does not hold a JSON object")

    run_cfg = _merge(DEFAULT_CONFIG, report.get("config"))
    overlays = [("input", _curve_polyline(_load_curve(run_cfg)))]
    for key, label in (("recovered_curve", "recovered"),
                       ("recovered_curve_reflected", "recovered (reflected)")):
        if key in report:
            overlays.append(
                (label, _curve_polyline(PeriodicCurve.from_dict(report[key]))))
    (out / "curves.svg").write_text(curves_overlay_svg(overlays))

    patch_path = out / _PATCH_CSV
    if patch_path.is_file():
        patch = patch_from_csv(patch_path.read_text())
        (out / "images.svg").write_text(image_curves_svg(patch.x, patch.y))
        (out / "residual.svg").write_text(
            residual_strip_svg(patch.residual, patch.v))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


_COMMANDS = {
    "construct": cmd_construct,
    "roundtrip": cmd_roundtrip,
    "verify": cmd_verify,
    "plot": cmd_plot,
}


def run_command(name: str, cfg: dict) -> int:
    return _COMMANDS[name](cfg)


def report_schema() -> dict:
    """JSON schema (draft-07) that every emitted report validates against."""
    number_or_null = {"type": ["number", "null"]}
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "required": ["command", "exit_code", "config"],
        "properties": {
            "command": {"enum": sorted(_COMMANDS)},
            "exit_code": {"type": "integer", "minimum": 0, "maximum": 8},
            "config": {"type": "object"},
            "status": {"type": "string"},
            "detail": {"type": "string"},
            "auto_reversed": {"type": "boolean"},
            "classification": {
                "type": "object",
                "required": ["orientation", "regular", "strictly_convex",
                             "embedded"],
                "properties": {
                    "regularity_margin": {"type": "number"},
                    "convexity_margin": {"type": "number"},
                    "orientation": {"enum": ["negative", "positive",
                                             "degenerate"]},
                    "regular": {"type": "boolean"},
                    "strictly_convex": {"type": "boolean"},
                    "embedded": {"type": "boolean"},
                    "u_star": {"type": "number"},
                },
            },
            "march": {"type": "object"},
            "jacobian": {
                "type": "object",
                "properties": {
                    "min_over_positive_v": number_or_null,
                    "largest_v_with_positive_J": number_or_null,
                },
            },
            "patch": {"type": "object"},
            "residual": {"type": "object"},
            "ellipticity_spot_check": {"type": "object"},
            "limit": {"type": "object"},
            "hausdorff": {"type": "number"},
            "hausdorff_reflected": {"type": "number"},
            "recovered_curve": {"type": "object"},
            "recovered_curve_reflected": {"type": "object"},
            "oracle": {"type": "string"},
            "oracle_errors": {"type": "object"},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ma-singular",
        description="Construct and verify solutions of elliptic "
                    "Monge-Ampere equations with an isolated singularity.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file (defaults apply)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="override a dotted config key, JSON-parsed value")
    parser.add_argument("--print-config", action="store_true",
                        help="print the merged config and exit")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, sets=args.set, out=args.out)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        return run_command(args.command, cfg)
    except (ValidationError, CoverageError, MarchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXIT if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
