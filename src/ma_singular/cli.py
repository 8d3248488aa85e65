"""Config-driven command line front end.

Subcommands: construct (march + reconstruct + verify residuals),
roundtrip (limit-gradient extraction against the input curve, both
reflection branches), verify (closed-form rotational oracle), plot
(deterministic SVGs from saved run outputs).

Exit codes separate scientific outcomes from usage errors:

    0   success (single-valued where that is the claim)
    2   validation / config error, nothing was run; or a completed march
        that gave no graph patch (report.json says why)
    3   construction succeeded but is multivalued
    4   instability abort or non-finite state
    5   ellipticity lost
    6   the marched state left the domain box
    7   roundtrip precondition failed (curve not strictly convex Jordan)
    8   a verification tolerance was exceeded, or a roundtrip's extraction
        left the patch's covered band (report.json -> limit.error)

A failed march is a status of its run, not an exception, and ``main``
catches only ValidationError.  So exit 2 without report.json means
nothing ran, and every other exit writes report.json (with emit.json on).
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
    CoverageError,
    FieldEvalError,
    SingularJacobianError,
    ValidationError,
)
from .extract import (
    _check_n_theta,
    _check_radii,
    geometric_radii,
    hausdorff_distance,
    limit_gradient,
    patch_sampler,
    radial_reference_height,
    radial_reference_sampler,
    radial_reference_slope,
)
from .geometry import (
    jacobian,
    patch_from_csv,
    patch_to_csv,
    pde_residual,
    reconstruct_graph,
    reflect_solution,
    strip_from_csv,
    strip_to_csv as _strip_csv,  # the name perfbench/baseline.py traces
)
from .march import MarchParams, march
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

DEFAULT_CONFIG = {
    "curve": {"builtin": "circle", "file": None, "literal": None,
              "auto_reverse": False},
    "field": {"builtin": "pure-one", "file": None, "literal": None},
    "march": {"R": 0.15, "n_u": 128, "dv": 0.001, "filter_strength": 36.0,
              "filter_order": 16, "filter_cutoff": 1.0,
              "monitor_threshold": 0.001, "negative_v": False},
    "reconstruct": {"v_min": None},
    "residual": {"v_min": None, "j_floor": 1e-6},
    "extract": {"degree": 16, "n_theta": 256, "radii": None},
    "roundtrip": {"tolerance": 0.001, "reflected": True},
    "verify": {"z_tolerance": 1e-4, "slope_tolerance": 1e-4,
               "circle_tolerance": 1e-6},
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


def _merge(base, overrides, shape=DEFAULT_CONFIG, path="config"):
    """``base`` with ``overrides`` merged into the sections of ``shape``."""
    if overrides is None:
        return copy.deepcopy(base)
    if not isinstance(overrides, dict):
        raise ValidationError(f"{path} must be an object")
    merged = copy.deepcopy(base)
    for key, value in overrides.items():
        if key not in shape:
            raise ValidationError(f"unknown config key {path}.{key}")
        if isinstance(shape[key], dict):
            merged[key] = _merge(base[key], value, shape[key], f"{path}.{key}")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _number(value) -> bool:
    # A bool is not a number here; the comparison rejects inf, NaN and huge ints.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


#: What a config leaf may hold, by the words its error message uses.
_KINDS = {
    "a boolean": lambda value: type(value) is bool,
    "an integer": lambda value: type(value) is int,
    "a non-negative integer": lambda value: type(value) is int and value >= 0,
    "a finite number": _number,
    "a finite number >= 0": lambda value: _number(value) and value >= 0,
    "a finite number or null": lambda value: value is None or _number(value),
    "a string": lambda value: type(value) is str,
    "a string or null": lambda value: value is None or type(value) is str,
    "an object or null": lambda value: value is None or type(value) is dict,
    "a list of finite numbers or null": lambda value: value is None or (
        type(value) is list and all(map(_number, value))),
}
_DEFAULT_KINDS = {bool: "a boolean", int: "an integer",
                  float: "a finite number", str: "a string"}

#: The leaves whose default does not give their kind.  The ranges and
#: names a library call checks (march parameters, radii) are not here.
_LEAF_KINDS = {
    "curve.file": "a string or null", "field.file": "a string or null",
    "curve.literal": "an object or null", "field.literal": "an object or null",
    "reconstruct.v_min": "a finite number or null",
    "residual.v_min": "a finite number or null",
    "residual.j_floor": "a finite number >= 0",
    "extract.degree": "a non-negative integer",
    "extract.radii": "a list of finite numbers or null",
    "seed": "a non-negative integer",
}


def _check_config(cfg: dict, defaults: dict = DEFAULT_CONFIG, path: str = ""):
    """Raise ValidationError unless every leaf of a merged config has its kind."""
    for key, default in defaults.items():
        value = cfg[key]
        if isinstance(default, dict):
            _check_config(value, default, f"{path}{key}.")
            continue
        kind = _LEAF_KINDS.get(path + key) or _DEFAULT_KINDS[type(default)]
        if not _KINDS[kind](value):
            raise ValidationError(f"{path}{key} must be {kind}, got {value!r}")


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
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise ValidationError(f"--set needs key=value, got {assignment!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):  # a.b=v is {"a": {"b": v}}
            value = {part: value}
        config = _merge(config, value)
    if out is not None:
        config["out"] = out
    _check_config(config)
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


def _prepare(cfg: dict):
    """Fail-fast pass: parse everything before any numerics run."""
    curve = _load_curve(cfg)
    field = _load_field(cfg)
    params = MarchParams(**cfg["march"])
    params.validate(curve)
    extract_cfg = cfg["extract"]
    if extract_cfg["radii"] is not None:
        _check_radii(extract_cfg["radii"])
    _check_n_theta(extract_cfg["n_theta"], extract_cfg["degree"])
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
    except FieldEvalError as err:  # reported, not fatal
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

    try:
        residual = pde_residual(strip, v_min=cfg["residual"]["v_min"],
                                j_floor=cfg["residual"]["j_floor"])
        result["residual"] = {
            "max_abs": residual.max_abs,
            "rms": residual.rms,
            "n_nodes": residual.n_nodes,
        }
    except (ValidationError, SingularJacobianError) as err:
        result["residual"] = {"error": str(err)}

    return curve, strip, patch, result


def _strict_json(value):
    """Copy of ``value`` with non-finite floats as null (RFC 8259 has no NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def _write_outputs(cfg: dict, curve: PeriodicCurve, strip, patch, report: dict):
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
        _write_svgs(out, _figure_curves(curve, report),
                    None if strip is None else strip.states, patch)


def _figure_curves(curve: PeriodicCurve, report: dict) -> list:
    """The input curve and the report's recovered curves, with their labels."""
    curves = [("input", curve)]
    for key, label in (("recovered_curve", "recovered"),
                       ("recovered_curve_reflected", "recovered (reflected)")):
        if key in report:
            curves.append((label, PeriodicCurve.from_dict(report[key])))
    return curves


def _curve_polyline(curve: PeriodicCurve, n: int = 720) -> np.ndarray:
    u = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    alpha, beta, *_ = eval_curve(curve, u)
    return np.column_stack([alpha, beta])


def _write_svgs(out: Path, curves: list, states, patch):
    """The figures of a run; ``emit.svg`` and ``plot`` both draw them here.

    ``curves.svg`` overlays the labelled curves.  With a patch,
    ``images.svg`` draws its levels and ``residual.svg`` its residual;
    without one, ``images.svg`` draws the strip's (levels, 5, n_u)
    ``states`` after the axis, and there is no ``residual.svg``.
    """
    (out / "curves.svg").write_text(curves_overlay_svg(
        [(label, _curve_polyline(curve)) for label, curve in curves]))
    if patch is not None:
        (out / "images.svg").write_text(image_curves_svg(patch.x, patch.y))
        (out / "residual.svg").write_text(
            residual_strip_svg(patch.residual, patch.v))
    elif states is not None and len(states) > 1:
        (out / "images.svg").write_text(
            image_curves_svg(states[1:, 0, :], states[1:, 1, :]))


# ---------------------------------------------------------------------------
# Commands


def _pipeline_exit(strip, patch) -> int:
    """Exit code of a pipeline run whose claim is a single-valued patch."""
    code = _STATUS_EXIT[strip.status]
    if code == EXIT_OK and (patch is None or patch.multivalued):
        code = EXIT_MULTIVALUED if patch is not None else EXIT_VALIDATION
    return code


def cmd_construct(cfg: dict) -> int:
    curve, strip, patch, result = _construct_pipeline(cfg, _prepare(cfg))
    code = _pipeline_exit(strip, patch)
    report = {"command": "construct", "exit_code": code, "config": cfg}
    report.update(result)
    _write_outputs(cfg, curve, strip, patch, report)
    return code


def cmd_roundtrip(cfg: dict) -> int:
    prepared = _prepare(cfg)
    cls = prepared[3]
    if not (cls.regular and cls.strictly_convex and cls.embedded):
        report = {
            "command": "roundtrip", "exit_code": EXIT_PRECONDITION,
            "config": cfg, "classification": _classification_dict(cls),
            "auto_reversed": prepared[4],
            "status": "precondition-failed",
            "detail": "curve must be regular, strictly convex (negatively "
                      "oriented) and embedded",
        }
        _write_outputs(cfg, prepared[0], None, None, report)
        return EXIT_PRECONDITION

    curve, strip, patch, result = _construct_pipeline(cfg, prepared)
    report = {"command": "roundtrip", "config": cfg}
    report.update(result)
    code = _pipeline_exit(strip, patch)
    if code != EXIT_OK:
        report["exit_code"] = code
        _write_outputs(cfg, curve, strip, patch, report)
        return code

    extract_cfg = cfg["extract"]

    def one_branch(branch_patch):
        sampler = patch_sampler(branch_patch)
        radii = extract_cfg["radii"]
        radii = sampler.suggest_radii() if radii is None else radii
        lg = limit_gradient(sampler, radii, n_theta=extract_cfg["n_theta"],
                            degree=extract_cfg["degree"])
        distance = hausdorff_distance(curve, lg.curve)
        return lg, distance

    try:
        lg, distance = one_branch(patch)
        reflected = (one_branch(reflect_solution(patch))
                     if cfg["roundtrip"]["reflected"] else None)
    except CoverageError as err:
        report["limit"] = {"error": str(err)}
        report["exit_code"] = EXIT_TOLERANCE
        _write_outputs(cfg, curve, strip, patch, report)
        return EXIT_TOLERANCE

    report["limit"] = {
        "residual": lg.residual, "jordan": bool(lg.jordan),
        "radii": list(lg.radii),
    }
    report["hausdorff"] = distance
    report["recovered_curve"] = lg.curve.to_dict()
    worst = distance

    if reflected is not None:
        lg_r, distance_r = reflected
        report["hausdorff_reflected"] = distance_r
        report["recovered_curve_reflected"] = lg_r.curve.to_dict()
        worst = max(worst, distance_r)

    code = EXIT_OK if worst <= cfg["roundtrip"]["tolerance"] else EXIT_TOLERANCE
    report["exit_code"] = code
    _write_outputs(cfg, curve, strip, patch, report)
    return code


def cmd_verify(cfg: dict) -> int:
    curve, strip, patch, result = _construct_pipeline(cfg, _prepare(cfg))
    report = {"command": "verify", "config": cfg, "oracle": "radial-reference"}
    report.update(result)
    code = _pipeline_exit(strip, patch)
    if code != EXIT_OK:
        report["exit_code"] = code
        _write_outputs(cfg, curve, strip, patch, report)
        return code

    rho = patch.radii()
    z_err = float(np.max(np.abs(patch.z - radial_reference_height(rho))))
    slope_err = float(np.max(np.abs(np.hypot(patch.p, patch.q)
                                    - radial_reference_slope(rho))))
    lg = limit_gradient(radial_reference_sampler(), geometric_radii(0.05, 5),
                        n_theta=cfg["extract"]["n_theta"],
                        degree=cfg["extract"]["degree"])
    circle_dist = hausdorff_distance(builtin_curve("circle"), lg.curve)
    report["oracle_errors"] = {
        "max_z_error": z_err,
        "max_slope_error": slope_err,
        "limit_circle_hausdorff": circle_dist,
    }
    tol = cfg["verify"]
    ok = (z_err <= tol["z_tolerance"] and slope_err <= tol["slope_tolerance"]
          and circle_dist <= tol["circle_tolerance"])
    code = EXIT_OK if ok else EXIT_TOLERANCE
    report["exit_code"] = code
    _write_outputs(cfg, curve, strip, patch, report)
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

    try:
        run_cfg = _merge(DEFAULT_CONFIG, report.get("config"))
        _check_config(run_cfg)
    except ValidationError as err:
        raise ValidationError(f"{err} in {report_path}") from None
    curve = _load_curve(run_cfg)
    if report.get("auto_reversed") is True:
        curve = curve.reverse()

    patch = states = None
    patch_path, strip_path = out / _PATCH_CSV, out / _STRIP_CSV
    if patch_path.is_file():
        if not strip_path.is_file():
            raise ValidationError(f"{patch_path} needs the {_STRIP_CSV} of its "
                                  f"run, and {out} has none")
        patch = patch_from_csv(patch_path.read_text(), strip_path.read_text())
    elif strip_path.is_file():
        _, states = strip_from_csv(strip_path.read_text())
    _write_svgs(out, _figure_curves(curve, report), states, patch)
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
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
