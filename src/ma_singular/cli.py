"""Config-driven command line front end.

Subcommands: construct (march + reconstruct + verify residuals),
roundtrip (limit-gradient extraction against the input curve; the
reflected branch is filled from the Z2 symmetry, not extracted again),
verify (closed-form rotational oracle), plot (deterministic SVGs of a
saved run, marched again from the config in its report.json).

Exit codes separate scientific outcomes from usage errors:

    0   success (single-valued where that is the claim)
    2   validation / config error, nothing was run; or a completed march
        that gave no graph patch (report.json says why)
    3   construction succeeded but is multivalued
    4   instability abort or non-finite state
    5   ellipticity lost
    6   the marched state left the domain box
    7   roundtrip precondition failed (curve not strictly convex Jordan)
    8   a verification tolerance was exceeded, a roundtrip's extraction
        from the strip's first stored level failed: a radius left its
        covered band, or that level's patch does not reconstruct or is
        multivalued (report.json -> limit.error), or a
        roundtrip recovered a limit curve outside the class M2 of regular,
        strictly convex Jordan curves (report.json -> limit.detail names
        the cause and the branches, and the report gives no distance)
    9   an artifact could not be written (a full disk, say); out holds the
        earlier run's files

A failed march is a status of its run, not an exception, and ``main``
catches only ValidationError and ArtifactWriteError.  So exit 2 without
report.json means nothing ran, and every other exit but 9 writes
report.json (with emit.json on).  A run that writes rewrites or removes
each artifact an earlier run left in its out directory.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .coeffs import CoefficientField, builtin_field, eval_field
from .curves import PeriodicCurve, builtin_curve, classify_curve, eval_curve
from .errors import (
    ArtifactWriteError,
    CoverageError,
    FieldEvalError,
    SingularJacobianError,
    ValidationError,
)
from .extract import (
    _check_n_theta,
    _check_radii,
    _chebyshev_radii,
    hausdorff_distance,
    limit_gradient,
    patch_sampler,
    radial_reference_height,
    radial_reference_sampler,
    radial_reference_slope,
)
from .geometry import (
    jacobian,
    patch_from_csv,  # the name perfbench/spans.py traces
    patch_to_csv,
    pde_residual,
    reconstruct_graph,
    reflect_solution,  # the name perfbench/spans.py traces
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
EXIT_WRITE = 9

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
    "march": dataclasses.asdict(MarchParams()),
    "extract": {"degree": 16, "n_theta": 256, "radii": None},
    "roundtrip": {"tolerance": 0.001, "reflected": True},
    "verify": {"z_tolerance": 1e-4, "slope_tolerance": 1e-4,
               "circle_tolerance": 1e-6},
    "out": "out",
    "emit": {"csv": True, "json": True, "svg": False},
}

_STRIP_CSV = "strip.csv"
_PATCH_CSV = "patch.csv"
_REPORT_JSON = "report.json"
_SVG_FILES = ("curves.svg", "images.svg", "residual.svg")
#: Every file a run writes into its out directory.
_ARTIFACTS = (_STRIP_CSV, _PATCH_CSV, _REPORT_JSON, *_SVG_FILES)


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
    "extract.degree": "a non-negative integer",
    "extract.radii": "a list of finite numbers or null",
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


def _read(path, what: str, as_json: bool = False):
    """The text of a file the CLI reads, or with ``as_json`` its JSON value.

    A missing, unreadable, non-UTF-8 or unparsable (or too deeply nested)
    file raises ValidationError naming ``what`` and the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except OSError as err:
        raise ValidationError(f"cannot read {what} {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{what} {path} is not UTF-8 text") from None
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValidationError(f"{what} {path} is not valid JSON: {err}") from None


def load_config(path: str | None, sets=(), out: str | None = None) -> dict:
    user = None if path is None else _read(path, "config file", as_json=True)
    config = _merge(DEFAULT_CONFIG, user)
    for assignment in sets:
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise ValidationError(f"--set needs key=value, got {assignment!r}")
        try:
            value = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):
            value = raw
        for part in reversed(key.split(".")):  # a.b=v is {"a": {"b": v}}
            value = {part: value}
        config = _merge(config, value)
    if out is not None:
        config["out"] = out
    _check_config(config)
    return config


def _load(cfg: dict, section: str, from_dict, builtin):
    """The curve or field of a config section: literal, then file, then builtin."""
    spec = cfg[section]
    if spec["literal"] is not None:
        return from_dict(spec["literal"])
    if spec["file"] is not None:
        return from_dict(_read(spec["file"], f"{section} file", as_json=True))
    return builtin(spec["builtin"])


def _check_artifact_paths(out: Path, names) -> None:
    """Refuse a run that would write or remove something not a regular file."""
    for name in names:
        if (out / name).exists() and not (out / name).is_file():
            raise ValidationError(f"{out / name} exists and is not a regular file")


def _prepare(cfg: dict):
    """Fail-fast pass: parse everything before any numerics run."""
    out = Path(cfg["out"])
    if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
        raise ValidationError(f"out {out} is not a directory")
    _check_artifact_paths(out, _ARTIFACTS)
    curve = _load(cfg, "curve", PeriodicCurve.from_dict, builtin_curve)
    field = _load(cfg, "field", CoefficientField.from_dict, builtin_field)
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


def _ellipticity_spot_check(field: CoefficientField, n: int = 256):
    """Random in-box states, seeded; the march only visits a curve through
    the box."""
    rng = np.random.default_rng(0)
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
    """march + diagnostics + reconstruction of what ``_prepare`` returned."""
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
        "ellipticity_spot_check": _ellipticity_spot_check(field),
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
        patch = reconstruct_graph(strip)
        result["patch"] = {
            "levels": int(patch.n_levels),
            "r_min": patch.r_min,
            "r_max": patch.r_max,
            "multivalued": bool(patch.multivalued),
        }
    except (ValidationError, SingularJacobianError) as err:
        result["patch"] = {"error": str(err)}

    try:
        residual = pde_residual(strip)
        result["residual"] = {
            "max_abs": residual.max_abs,
            "rms": residual.rms,
            "n_nodes": residual.n_nodes,
        }
    except (ValidationError, SingularJacobianError) as err:
        result["residual"] = {"error": str(err)}

    return strip, patch, result


def _strict_json(value):
    """Copy of ``value`` with non-finite floats as null (RFC 8259 has no NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def _curve_polyline(curve: PeriodicCurve, n: int = 720) -> np.ndarray:
    u = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    alpha, beta, *_ = eval_curve(curve, u)
    return np.column_stack([alpha, beta])


def _figures(curve: PeriodicCurve, report: dict, states, patch) -> dict:
    """The SVGs of a run by file name; ``emit.svg`` and ``plot`` both draw here.

    ``curves.svg`` overlays the input curve and the report's recovered
    curves.  With a patch, ``images.svg`` draws its levels and
    ``residual.svg`` its residual; without one, ``images.svg`` draws the
    strip's (levels, 5, n_u) ``states`` after the axis, and
    ``residual.svg`` is None.
    """
    curves = [("input", _curve_polyline(curve))]
    for key, label in (("recovered_curve", "recovered"),
                       ("recovered_curve_reflected", "recovered (reflected)")):
        if key in report:
            curves.append((label, _curve_polyline(
                PeriodicCurve.from_dict(report[key]))))
    figures = dict.fromkeys(_SVG_FILES)
    figures["curves.svg"] = curves_overlay_svg(curves)
    if patch is not None:
        figures["images.svg"] = image_curves_svg(patch.x, patch.y)
        figures["residual.svg"] = residual_strip_svg(patch.residual, patch.v)
    elif states is not None and len(states) > 1:
        figures["images.svg"] = image_curves_svg(states[1:, 0, :],
                                                 states[1:, 1, :])
    return figures


def _write_outputs(out: Path, artifacts: dict):
    """Write each artifact that has text; remove the file of each that is None.

    So no file an earlier run left in ``out`` outlives a run that writes.
    Every text is written as UTF-8 under a temporary name in ``out`` before
    any is renamed into place, so a write that fails (a full disk, say)
    leaves ``out`` as it was and raises ArtifactWriteError naming the file.
    """
    staged = {}
    target = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            if text is not None:
                target = out / name
                staged[name] = out / f".{name}.tmp"
                staged[name].write_text(text, encoding="utf-8")
        for name, text in artifacts.items():
            target = out / name
            if text is None:
                target.unlink(missing_ok=True)
            else:
                os.replace(staged.pop(name), target)
    except OSError as err:
        for path in staged.values():
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise ArtifactWriteError(
            f"cannot write {target}: {err.strerror or err}") from None


# ---------------------------------------------------------------------------
# Commands


def _pipeline_exit(strip, patch) -> int:
    """Exit code of a pipeline run whose claim is a single-valued patch."""
    code = _STATUS_EXIT[strip.status]
    if code == EXIT_OK and (patch is None or patch.multivalued):
        code = EXIT_MULTIVALUED if patch is not None else EXIT_VALIDATION
    return code


def _run(cfg: dict, head: dict, judge=None, convex: bool = False):
    """(exit code, artifacts) of one marching command.

    ``head`` starts the report.  ``judge(cfg, curve, strip, patch, report)``
    runs only when the pipeline exits 0; it adds its findings to the report and
    returns the exit code.  With ``convex`` a curve that is not regular,
    strictly convex and embedded ends the run before the march.
    """
    prepared = _prepare(cfg)
    curve, _, _, cls, auto_reversed = prepared
    report = {**head, "config": cfg}
    strip = patch = None
    if convex and not (cls.regular and cls.strictly_convex and cls.embedded):
        code = EXIT_PRECONDITION
        report.update({
            "classification": _classification_dict(cls),
            "auto_reversed": auto_reversed,
            "status": "precondition-failed",
            "detail": "curve must be regular, strictly convex (negatively "
                      "oriented) and embedded",
        })
    else:
        strip, patch, result = _construct_pipeline(cfg, prepared)
        report.update(result)
        code = _pipeline_exit(strip, patch)
        if code == EXIT_OK and judge is not None:
            code = judge(cfg, curve, strip, patch, report)
    report["exit_code"] = code

    emit = cfg["emit"]
    artifacts = dict.fromkeys(_ARTIFACTS)
    if emit["csv"] and strip is not None:
        artifacts[_STRIP_CSV] = _strip_csv(strip)
        if patch is not None:
            artifacts[_PATCH_CSV] = patch_to_csv(patch)
    if emit["json"]:
        artifacts[_REPORT_JSON] = json.dumps(
            _strict_json(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if emit["svg"]:
        artifacts.update(_figures(curve, report,
                                  None if strip is None else strip.states, patch))
    return code, artifacts


def _m2_distance(curve: PeriodicCurve, lg) -> float | None:
    """``hausdorff_distance`` from ``curve`` to the limit curve of ``lg``, or
    None when that limit is not in M2 (``lg.jordan`` is False) or the
    judge's grid cannot resolve the tangent of one of the two curves
    (``lg.jordan`` is True); ``_NO_DISTANCE`` words both causes."""
    if not lg.jordan:
        return None
    try:
        return hausdorff_distance(curve, lg.curve)
    except ValidationError:
        return None


#: Why ``_m2_distance`` gave no distance, by ``lg.jordan``.
_NO_DISTANCE = {
    False: ("the recovered limit curve is not a regular, strictly convex "
            "Jordan curve (class M2)"),
    True: ("the Hausdorff judge's grid does not resolve the tangent of the "
           "input or the recovered limit curve"),
}


def _judge_roundtrip(cfg: dict, curve: PeriodicCurve, strip, patch,
                     report: dict) -> int:
    """The limit gradient of each reflection branch against the input curve.

    The sampler reads the strip from its first stored level (v = dv), not
    the reported patch, whose levels from 0.1 R (``PATCH_V_MIN_FRAC``)
    leave the band too thin for the ladder as the curve leaves the circle.  A
    first-level patch that does not reconstruct, is multivalued or does
    not cover the radii ends in ``limit.error`` and exit 8.

    Only the direct branch is extracted.  The sampler of the reflected
    branch ``reflect_solution(patch)`` reads at angle theta what the
    patch's reads at theta + pi, so its limit curve is the direct one
    shifted by pi: the same set, hence the same distance and M2 membership.
    """
    extract_cfg = cfg["extract"]
    try:
        sampler = patch_sampler(reconstruct_graph(strip, v_min=strip.v[1]))
        radii = extract_cfg["radii"]
        radii = sampler.suggest_radii() if radii is None else radii
        lg = limit_gradient(sampler, radii, n_theta=extract_cfg["n_theta"],
                            degree=extract_cfg["degree"])
    except (CoverageError, SingularJacobianError, ValidationError) as err:
        report["limit"] = {"error": str(err)}
        return EXIT_TOLERANCE

    branches = {"direct": lg}
    if cfg["roundtrip"]["reflected"]:
        branches["reflected"] = dataclasses.replace(lg, curve=lg.curve.shift(np.pi))
    distance = _m2_distance(curve, lg)
    report["limit"] = {"residual": lg.residual, "radii": list(lg.radii)}
    for name, branch in branches.items():
        suffix = "" if name == "direct" else "_reflected"
        report["limit"]["jordan" + suffix] = bool(branch.jordan)
        report["recovered_curve" + suffix] = branch.curve.to_dict()
        if distance is not None:
            report["hausdorff" + suffix] = distance

    if distance is None:
        names = " and the ".join(f"{name} branch" for name in branches)
        report["limit"]["detail"] = f"{_NO_DISTANCE[bool(lg.jordan)]} on the {names}"
        return EXIT_TOLERANCE
    return EXIT_OK if distance <= cfg["roundtrip"]["tolerance"] else EXIT_TOLERANCE


def _judge_verify(cfg: dict, curve: PeriodicCurve, strip, patch,
                  report: dict) -> int:
    """The patch and a recovered limit curve against the radial reference."""
    rho = patch.radii()
    z_err = float(np.max(np.abs(patch.z - radial_reference_height(rho))))
    slope_err = float(np.max(np.abs(np.hypot(patch.p, patch.q)
                                    - radial_reference_slope(rho))))
    lg = limit_gradient(radial_reference_sampler(), _chebyshev_radii(0.0, 0.05),
                        n_theta=cfg["extract"]["n_theta"],
                        degree=cfg["extract"]["degree"])
    circle_dist = _m2_distance(builtin_curve("circle"), lg)
    report["oracle_errors"] = {
        "max_z_error": z_err,
        "max_slope_error": slope_err,
        "limit_circle_hausdorff": circle_dist,
    }
    tol = cfg["verify"]
    ok = (z_err <= tol["z_tolerance"] and slope_err <= tol["slope_tolerance"]
          and circle_dist is not None and circle_dist <= tol["circle_tolerance"])
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_construct(cfg: dict):
    return _run(cfg, {"command": "construct"})


def cmd_roundtrip(cfg: dict):
    return _run(cfg, {"command": "roundtrip"}, _judge_roundtrip, convex=True)


def cmd_verify(cfg: dict):
    return _run(cfg, {"command": "verify", "oracle": "radial-reference"},
                _judge_verify)


def cmd_plot(cfg: dict):
    """(EXIT_OK, the figures) of the run whose report.json is in ``out``.

    The run is marched again from the report's config by the installed
    code, so its curve and field files must still be readable; the
    recovered curves are the report's.
    """
    out = Path(cfg["out"])
    _check_artifact_paths(out, _SVG_FILES)
    report_path = out / _REPORT_JSON
    report = _read(report_path, "report", as_json=True)
    if not isinstance(report, dict):
        raise ValidationError(f"{report_path} does not hold a JSON object")
    # Every report has a config object; _merge would read a missing one as
    # the defaults and draw a run that never happened.
    if not isinstance(report.get("config"), dict):
        raise ValidationError(f"{report_path} has no config object")

    try:
        run_cfg = _merge(DEFAULT_CONFIG, report["config"])
        _check_config(run_cfg)
    except ValidationError as err:
        raise ValidationError(f"{err} in {report_path}") from None
    run_cfg["out"] = cfg["out"]
    prepared = _prepare(run_cfg)
    states = patch = None
    if report.get("status") != "precondition-failed":
        strip, patch, _ = _construct_pipeline(run_cfg, prepared)
        states = strip.states
    return EXIT_OK, _figures(prepared[0], report, states, patch)


# ---------------------------------------------------------------------------
# Entry point


_COMMANDS = {
    "construct": cmd_construct,
    "roundtrip": cmd_roundtrip,
    "verify": cmd_verify,
    "plot": cmd_plot,
}


def run_command(name: str, cfg: dict) -> int:
    """Run a command and write its artifacts into ``cfg["out"]``."""
    code, artifacts = _COMMANDS[name](cfg)
    _write_outputs(Path(cfg["out"]), artifacts)
    return code


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
            "limit": {
                "type": "object",
                "properties": {
                    "error": {"type": "string"},
                    "detail": {"type": "string"},
                    "jordan": {"type": "boolean"},
                    "jordan_reflected": {"type": "boolean"},
                },
            },
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
    except ArtifactWriteError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_WRITE


if __name__ == "__main__":
    sys.exit(main())
