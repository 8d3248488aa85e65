"""End-to-end command line behaviour, config handling, and exit codes."""

import importlib
import json
import xml.etree.ElementTree as ET

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


@pytest.mark.parametrize("E", ["-1", "1/(p-p)"])
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
