"""End-to-end command line behaviour, config handling, and exit codes."""

import importlib
import importlib.util
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ma_singular import cli
from ma_singular.cli import (
    DEFAULT_CONFIG,
    load_config,
    main,
    report_schema,
)
from ma_singular.curves import classify_curve
from ma_singular.errors import ValidationError

SMALL_BOX_FIELD = {
    "A": "0", "B": "0", "C": "0", "E": "1",
    "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
            "p": [-1.005, 1.005], "q": [-1.005, 1.005]},
}


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which RFC 8259 forbids")


def read_report(out_dir):
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    jsonschema.validate(report, report_schema())
    return report


# ---------------------------------------------------------------------------
# Config plumbing


def test_defaults_pass_through():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    assert cfg is not DEFAULT_CONFIG


def test_config_file_merges_partially(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"march": {"R": 0.05}}))
    cfg = load_config(str(path))
    assert cfg["march"]["R"] == 0.05
    assert cfg["march"]["n_u"] == 128  # untouched default


def test_unknown_keys_are_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"march": {"step": 0.1}}))
    with pytest.raises(ValidationError):
        load_config(str(path))


def test_missing_config_file():
    with pytest.raises(ValidationError):
        load_config("/no/such/file.json")


def test_set_overrides_parse_json_values():
    cfg = load_config(None, sets=["march.R=0.3", "emit.svg=true",
                                  "curve.builtin=ellipse",
                                  "extract.radii=[0.1, 0.05]"])
    assert cfg["march"]["R"] == 0.3
    assert cfg["emit"]["svg"] is True
    assert cfg["curve"]["builtin"] == "ellipse"
    assert cfg["extract"]["radii"] == [0.1, 0.05]


def test_set_rejects_unknown_key():
    with pytest.raises(ValidationError):
        load_config(None, sets=["march.steps=10"])
    with pytest.raises(ValidationError):
        load_config(None, sets=["no-equals-sign"])


def test_print_config_exits_zero(capsys):
    assert main(["construct", "--print-config", "--set", "seed=3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["seed"] == 3


# ---------------------------------------------------------------------------
# construct


def test_construct_circle_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out), "--set", "march.R=0.05"])
    assert code == 0
    report = read_report(out)
    assert report["status"] == "completed"
    assert report["exit_code"] == 0
    assert report["residual"]["max_abs"] < 1e-8
    assert report["ellipticity_spot_check"]["min_disc"] == 1.0
    assert (out / "strip.csv").exists()
    assert (out / "patch.csv").exists()
    assert not (out / "curves.svg").exists()  # svg off by default
    header = (out / "strip.csv").read_text().splitlines()[:6]
    assert header[0].startswith("# status: completed")
    assert header[5] == "v,u,x,y,z,p,q"


def test_construct_multivalued_exits_three(tmp_path):
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out),
                 "--set", "curve.builtin=limacon"])
    assert code == 3
    report = read_report(out)
    assert report["patch"]["multivalued"] is True
    assert report["status"] == "completed"


def test_construct_box_exit_is_six(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"literal": SMALL_BOX_FIELD}}))
    out = tmp_path / "run"
    code = main(["construct", "--config", str(cfg), "--out", str(out)])
    assert code == 6
    assert read_report(out)["status"] == "box-exit"


def test_box_exit_report_is_strict_json(tmp_path):
    # The march leaves the box before its first level, so no level has a
    # positive Jacobian and its minimum is not a number.
    field = dict(SMALL_BOX_FIELD, box=dict(SMALL_BOX_FIELD["box"],
                                           x=[-1e-3, 1e-3]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"literal": field},
                               "march": {"R": 0.5, "dv": 0.4}}))
    out = tmp_path / "run"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 6
    assert read_report(out)["jacobian"]["min_over_positive_v"] is None


def test_construct_ellipticity_loss_is_five(tmp_path):
    field = dict(SMALL_BOX_FIELD, E="1 - 60*z",
                 box={"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                      "p": [-4, 4], "q": [-4, 4]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"literal": field}}))
    code = main(["construct", "--config", str(cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 5


def test_construct_bad_builtin_is_two(tmp_path, capsys):
    code = main(["construct", "--out", str(tmp_path / "run"),
                 "--set", "curve.builtin=astroid"])
    assert code == 2
    assert "unknown curve" in capsys.readouterr().err


@pytest.mark.parametrize("E", ["-1", "1/(p-p)", "1/0"])
def test_construct_inadmissible_axis_data_is_two(tmp_path, capsys, E):
    field = dict(SMALL_BOX_FIELD, E=E,
                 box={"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                      "p": [-4, 4], "q": [-4, 4]})
    code = main(["construct", "--out", str(tmp_path / "run"),
                 "--set", f"field.literal={json.dumps(field)}"])
    assert code == 2
    assert "error: initial data" in capsys.readouterr().err


def test_construct_remark42_completes(tmp_path):
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out),
                 "--set", "curve.builtin=remark42",
                 "--set", "field.builtin=remark42",
                 "--set", "march.R=0.05", "--set", "march.n_u=256"])
    assert code == 0
    report = read_report(out)
    assert report["patch"]["multivalued"] is False
    assert report["jacobian"]["min_over_positive_v"] > 0


def test_construct_reports_skipped_levels(tmp_path, monkeypatch):
    march_module = importlib.import_module("ma_singular.march")
    real_monitor = march_module.stability_monitor
    calls = []

    def trip_once(level, params):
        calls.append(level)
        frac, exceeded = real_monitor(level, params)
        return frac, exceeded or len(calls) == 5

    monkeypatch.setattr(march_module, "stability_monitor", trip_once)
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out), "--set", "march.R=0.03"]) == 0
    report = read_report(out)
    assert report["march"]["levels_skipped"] == 1
    assert report["march"]["levels"] == 30


def test_construct_report_is_deterministic(tmp_path):
    args = ["construct", "--set", "march.R=0.03"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "report.json").read_text()
    b = (tmp_path / "b" / "report.json").read_text()
    assert a.replace(str(tmp_path / "a"), "X") == \
        b.replace(str(tmp_path / "b"), "X")


def test_curve_file_and_auto_reverse(tmp_path):
    from ma_singular.curves import builtin_curve
    path = tmp_path / "curve.json"
    path.write_text(builtin_curve("ellipse").reverse().to_json())
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out),
                 "--set", f'curve.file="{path}"',
                 "--set", "curve.auto_reverse=true",
                 "--set", "march.R=0.05"])
    assert code == 0
    report = read_report(out)
    assert report["auto_reversed"] is True
    assert report["classification"]["orientation"] == "negative"


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_circle_passes_both_branches(tmp_path, monkeypatch):
    import ma_singular.cli as cli
    calls = []

    def counting_classify(curve, *args, **kwargs):
        calls.append(curve)
        return classify_curve(curve, *args, **kwargs)

    monkeypatch.setattr(cli, "classify_curve", counting_classify)
    out = tmp_path / "run"
    code = main(["roundtrip", "--out", str(out)])
    assert code == 0
    assert len(calls) == 1  # the input curve is classified once
    report = read_report(out)
    assert report["hausdorff"] < 1e-3
    assert report["hausdorff_reflected"] < 1e-3
    assert report["limit"]["jordan"] is True


def test_roundtrip_precondition_is_seven(tmp_path):
    out = tmp_path / "run"
    code = main(["roundtrip", "--out", str(out),
                 "--set", "curve.builtin=limacon"])
    assert code == 7
    assert read_report(out)["status"] == "precondition-failed"


@pytest.mark.parametrize("command", ["construct", "roundtrip"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_curve_literal_is_two(tmp_path, capsys, command, bad):
    # The sine coefficient of the circle made non-finite: construct used to
    # blame the initial data, roundtrip to call the curve embedded.
    literal = ('{"alpha_cos": [0, 1], "alpha_sin": [0, %s], '
               '"beta_cos": [0], "beta_sin": [0, -1]}' % bad)
    out = tmp_path / "run"
    code = main([command, "--out", str(out),
                 "--set", f"curve.literal={literal}"])
    assert code == 2
    assert "curve coefficients must be finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["construct", "roundtrip"])
@pytest.mark.parametrize("assignment", [
    'reconstruct.v_min="x"',
    'residual.v_min="x"',
    "residual.v_min=[1]",
    'residual.j_floor="x"',
    "residual.j_floor=null",
    "residual.j_floor=true",
    "residual.v_min=1e400",
    "reconstruct.v_min=" + "9" * 400,
])
def test_bad_residual_and_reconstruct_numbers_are_two(tmp_path, capsys,
                                                      command, assignment):
    out = tmp_path / "run"
    assert main([command, "--out", str(out), "--set", assignment]) == 2
    key = assignment.partition("=")[0]
    assert f"error: {key} must be a finite number" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, config, sets, code, message", [
    ("construct", {"field": {"literal": SMALL_BOX_FIELD}},
     ["march.box_policy=raise"], 6, "left the box"),
    ("construct", {"field": {"literal": dict(
        SMALL_BOX_FIELD, E="1 - 60*z",
        box={"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
             "p": [-4, 4], "q": [-4, 4]})}},
     ["march.box_policy=raise"], 5, "ellipticity lost"),
    ("roundtrip", {}, ["extract.radii=[1.0, 0.5, 0.25]"], 8,
     "outside covered band"),
], ids=["box-exit", "ellipticity", "coverage"])
def test_raised_errors_map_to_exit_codes(tmp_path, capsys, command, config,
                                         sets, code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    for assignment in sets:
        argv += ["--set", assignment]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "report.json").exists()


def test_roundtrip_impossible_tolerance_is_eight(tmp_path):
    code = main(["roundtrip", "--out", str(tmp_path / "run"),
                 "--set", "roundtrip.tolerance=1e-12"])
    assert code == 8


# ---------------------------------------------------------------------------
# verify


def test_verify_radial_oracle(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "--out", str(out)])
    assert code == 0
    errors = read_report(out)["oracle_errors"]
    assert errors["max_z_error"] < 1e-4
    assert errors["max_slope_error"] < 1e-4
    assert errors["limit_circle_hausdorff"] < 1e-6


def test_verify_unknown_oracle_is_two(tmp_path):
    code = main(["verify", "--out", str(tmp_path / "run"),
                 "--set", 'verify.oracle="planar"'])
    assert code == 2


# ---------------------------------------------------------------------------
# plot


def test_plot_renders_previous_run(tmp_path):
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out)]) == 0
    assert main(["plot", "--out", str(out)]) == 0
    for name in ("curves.svg", "images.svg", "residual.svg"):
        tree = ET.fromstring((out / name).read_text())
        assert tree.tag.endswith("svg")
    labels = (out / "curves.svg").read_text()
    assert "recovered" in labels


def test_plot_without_run_is_two(tmp_path):
    assert main(["plot", "--out", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
def test_plot_corrupt_report_is_two(tmp_path, capsys, text):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.json").write_text(text)
    assert main(["plot", "--out", str(out)]) == 2
    assert "report.json" in capsys.readouterr().err


def _corrupt_cell(lines):
    lines[-1] = "oops," + lines[-1].partition(",")[2]


def _empty_v_header(lines):
    lines[:] = ["# v:" if line.startswith("# v:") else line
                for line in lines]


def _short_row(lines):
    lines[-1] = lines[-1].rpartition(",")[0]


@pytest.mark.parametrize("corrupt",
                         [_corrupt_cell, _empty_v_header, _short_row])
def test_plot_corrupt_patch_csv_is_two(tmp_path, capsys, corrupt):
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out), "--set", "march.R=0.03"]) == 0
    patch_csv = out / "patch.csv"
    lines = patch_csv.read_text().splitlines()
    corrupt(lines)
    patch_csv.write_text("\n".join(lines) + "\n")
    assert main(["plot", "--out", str(out)]) == 2
    assert "patch CSV" in capsys.readouterr().err


def test_cli_keeps_the_names_the_benchmark_traces():
    # perfbench/spans.py and perfbench/baseline.py wrap these attributes of
    # ma_singular.cli; a rename must fail here, not in a traced run.
    for name in ("_strip_csv", "patch_to_csv", "patch_from_csv",
                 "curves_overlay_svg", "image_curves_svg",
                 "residual_strip_svg"):
        assert callable(getattr(cli, name, None)), name


def test_every_benchmark_trace_target_resolves():
    # perfbench/spans.py wraps each TARGETS entry by module and dotted
    # attribute (PatchSampler.__call__, for one); a rename must fail here.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) > 6
    for module, attribute, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module}.{attribute}"
        assert callable(owner), f"{module}.{attribute}"


# ---------------------------------------------------------------------------
# emit toggles


def test_emit_svg_during_construct(tmp_path):
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out), "--set", "emit.svg=true",
                 "--set", "march.R=0.05"])
    assert code == 0
    assert (out / "curves.svg").exists()
    assert (out / "images.svg").exists()
    assert (out / "residual.svg").exists()


def test_emit_csv_off(tmp_path):
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out), "--set", "emit.csv=false",
                 "--set", "march.R=0.05"])
    assert code == 0
    assert not (out / "strip.csv").exists()
    assert (out / "report.json").exists()
