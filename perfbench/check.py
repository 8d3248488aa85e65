"""Output check for one CLI command of an op.

A command passes when:

- no exception escaped ``main``;
- the exit code is in the CLI's documented table and agrees with the
  report's ``status`` and ``exit_code``;
- ``report.json`` parses as strict RFC 8259 JSON (NaN and Infinity are
  rejected) and validates against ``report_schema()``;
- it exited 0, as every generated input is one the pipeline solves, and
  then meets its config tolerances (and the residual tolerance of
  acceptance criterion 3);
- the facts known from how the input was generated hold (classification
  flags, stored levels), and the artifacts it should write exist;
- ``plot`` wrote its three SVGs.

Alongside the verdict the check returns the accuracy headrooms,
log10(tolerance / error), of the tolerances the command is held to.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

from workloads import RESIDUAL_TOLERANCE, Command

#: Exit codes documented in ``ma_singular.cli``.
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6, 7, 8}

#: Exit codes each report status may come with.  A completed march can
#: still end multivalued (3), without a patch (2) or over a tolerance (8).
STATUS_EXITS = {"completed": {0, 2, 3, 8}, "precondition-failed": {7},
                "box-exit": {6}, "instability-abort": {4}, "non-finite": {4},
                "ellipticity": {5}}

SVG_FILES = ("curves.svg", "images.svg", "residual.svg")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _headroom(tolerance: float, error: float) -> float:
    # An exact zero error would give an infinite headroom, which JSON lacks.
    return math.log10(tolerance / max(error, 1e-300))


class Checker:
    """Checks commands against the schema of the CLI under test."""

    def __init__(self, report_schema: dict):
        self._validator = jsonschema.Draft7Validator(report_schema)

    def check(self, cmd: Command, outdir: Path, code, error) -> tuple:
        """(problems, headrooms) for one finished command.

        ``code`` is what ``main`` returned; ``error`` is the exception that
        escaped it, or None.  ``headrooms`` maps "residual", "hausdorff"
        and "oracle" to log10(tolerance / error) where the command has one.
        """
        if error is not None:
            return [f"exception escaped main: {type(error).__name__}: {error}"], {}
        problems = []
        if code not in DOCUMENTED_EXITS:
            problems.append(f"exit code {code!r} is not documented")
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        if cmd.name == "plot":
            missing = [f for f in SVG_FILES if not (outdir / f).is_file()
                       or (outdir / f).stat().st_size == 0]
            if missing:
                problems.append(f"plot did not write {', '.join(missing)}")
            return problems, {}

        try:
            report = json.loads((outdir / "report.json").read_text(),
                                parse_constant=_reject_constant)
        except (OSError, ValueError) as err:
            return problems + [f"report.json unreadable: {err}"], {}
        errors = sorted(self._validator.iter_errors(report), key=str)
        if errors:
            problems.append(f"report.json fails the schema: {errors[0].message}")
        if report.get("exit_code") != code:
            problems.append(f"report exit_code {report.get('exit_code')} != {code}")
        status = report.get("status")
        if code not in STATUS_EXITS.get(status, ()):
            problems.append(f"status {status!r} does not agree with exit {code}")

        missing = [f for f in cmd.expect.get("files", ())
                   if not (outdir / f).is_file()]
        if missing:
            problems.append(f"missing artifacts: {', '.join(missing)}")
        for key, want in cmd.expect.get("classification", {}).items():
            got = report.get("classification", {}).get(key)
            if got != want:
                problems.append(f"classification.{key} = {got!r}, expected {want!r}")
        levels = report.get("march", {}).get("levels")
        if "levels" in cmd.expect and levels != cmd.expect["levels"]:
            problems.append(f"march stored {levels} levels, expected "
                            f"{cmd.expect['levels']}")

        headrooms = {}
        try:
            residual = float(report["residual"]["max_abs"])
            headrooms["residual"] = _headroom(RESIDUAL_TOLERANCE, residual)
            if not residual <= RESIDUAL_TOLERANCE:
                problems.append(f"residual {residual!r} above {RESIDUAL_TOLERANCE}")
            if report.get("patch", {}).get("multivalued") is not False:
                problems.append("patch is not single-valued")
            cfg = report["config"]
            if cmd.name == "roundtrip":
                tol = float(cfg["roundtrip"]["tolerance"])
                worst = max(float(report["hausdorff"]),
                            float(report["hausdorff_reflected"]))
                headrooms["hausdorff"] = _headroom(tol, worst)
                if not worst <= tol:
                    problems.append(f"hausdorff {worst!r} above {tol}")
            if cmd.name == "verify":
                errs = report["oracle_errors"]
                vt = cfg["verify"]
                pairs = ((errs["max_z_error"], vt["z_tolerance"]),
                         (errs["max_slope_error"], vt["slope_tolerance"]),
                         (errs["limit_circle_hausdorff"], vt["circle_tolerance"]))
                headrooms["oracle"] = min(_headroom(float(t), float(e))
                                          for e, t in pairs)
                if any(not float(e) <= float(t) for e, t in pairs):
                    problems.append(f"oracle errors {errs} above tolerance")
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"report lacks an accuracy field: {err!r}")
        return problems, headrooms
