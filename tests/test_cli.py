"""End-to-end command line behaviour, config handling, and exit codes."""

import contextlib
import dataclasses
import errno
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from ma_singular import cli, geometry
from ma_singular.cli import (
    DEFAULT_CONFIG,
    load_config,
    main,
    report_schema,
)
from ma_singular.coeffs import (
    CoefficientField,
    builtin_field,
    builtin_field_names,
    eval_field,
)
from ma_singular.curves import (
    PeriodicCurve,
    builtin_curve,
    builtin_curve_names,
    classify_curve,
)
from ma_singular.errors import (
    FieldEvalError,
    SingularJacobianError,
    ValidationError,
)
from ma_singular.geometry import reflect_field
from ma_singular.march import MarchParams

DEFAULT_BOX = builtin_field("pure-one").to_dict()["box"]

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


def write_raw(path, text):
    """Write ``text`` as UTF-8, but each lone surrogate U+DCxx as the byte xx,
    so that a test can put bytes that are not UTF-8 into a file."""
    path.write_bytes(text.encode(errors="surrogateescape"))


#: Not UTF-8, and JSON nested past the interpreter's recursion limit.
NOT_UTF8 = "\udcff\udcfe{}"
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@contextlib.contextmanager
def recorded_marches():
    """Record what each ``march`` of the CLI returns, in the yielded list."""
    strips = []
    real_march = cli.march

    def recording_march(*args):
        strips.append(real_march(*args))
        return strips[-1]

    with mock.patch.object(cli, "march", recording_march):
        yield strips


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


@pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP],
                         ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("source", ["config", "curve.file", "field.file"])
def test_unreadable_input_file_is_two(tmp_path, capsys, source, text):
    path = tmp_path / "input.json"
    write_raw(path, text)
    out = tmp_path / "run"
    argv = ["construct", "--out", str(out)]
    if source == "config":
        argv += ["--config", str(path)]
    else:
        argv += ["--set", f"{source}={json.dumps(str(path))}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {path} is not " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "roundtrip", "verify"])
@pytest.mark.parametrize("below", [False, True], ids=["out", "parent"])
def test_out_naming_a_file_is_two_before_the_march(tmp_path, capsys, command,
                                                   below):
    # A file at --out, or at a directory --out would be made in.
    file = tmp_path / "file"
    file.write_text("kept")
    out = file / "run" if below else file
    with recorded_marches() as strips:
        assert main([command, "--out", str(out)]) == 2
    assert strips == []
    assert f"error: out {out} is not a directory" in capsys.readouterr().err
    assert file.read_text() == "kept"


@pytest.mark.parametrize("command", ["construct", "roundtrip", "verify"])
def test_artifact_path_that_is_a_directory_is_two_before_the_march(
        tmp_path, capsys, command):
    # report.json is written last, so a directory there would fail only
    # after the march and the CSV files; patch.csv may only be removed.
    out = tmp_path / "run"
    for name in ("report.json", "patch.csv"):
        (out / name / "inside").mkdir(parents=True)
        with recorded_marches() as strips:
            assert main([command, "--out", str(out)]) == 2
        assert strips == []
        err = capsys.readouterr().err
        assert f"error: {out / name} exists and is not a regular file" in err
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) \
            == [name, f"{name}/inside"]
        shutil.rmtree(out / name)


def test_set_overrides_parse_json_values():
    cfg = load_config(None, sets=["march.R=0.3", "emit.svg=true",
                                  "curve.builtin=ellipse",
                                  'curve.literal={"alpha_cos": [0, 1]}'])
    assert cfg["march"]["R"] == 0.3
    assert cfg["emit"]["svg"] is True
    assert cfg["curve"]["builtin"] == "ellipse"
    assert cfg["curve"]["literal"] == {"alpha_cos": [0, 1]}


def test_set_rejects_unknown_key():
    with pytest.raises(ValidationError):
        load_config(None, sets=["march.steps=10"])
    with pytest.raises(ValidationError):
        load_config(None, sets=["no-equals-sign"])


def test_set_section_merges_like_a_config_file():
    cfg = load_config(None, sets=['march={"R": 0.05}', "march.n_u=64"])
    assert cfg["march"] == dict(DEFAULT_CONFIG["march"], R=0.05, n_u=64)


@pytest.mark.parametrize("command, assignment", [
    ("construct", "emit=5"),
    ("construct", "verify=5"),
    ("construct", "curve=5"),
    ("roundtrip", "roundtrip=5"),
    ("construct", 'march="x"'),
    # Not JSON to the parser, so a string, like any other such value.
    pytest.param("construct", "curve=" + TOO_DEEP, id="construct-too-deep"),
])
def test_scalar_for_a_config_section_is_two(tmp_path, capsys, command,
                                            assignment):
    out = tmp_path / "run"
    assert main([command, "--out", str(out), "--set", assignment]) == 2
    key = assignment.partition("=")[0]
    assert f"error: config.{key} must be an object" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_print_config_exits_zero(capsys):
    assert main(["construct", "--print-config", "--set", "march.n_u=64"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["march"]["n_u"] == 64


def test_settable_values_are_pinned():
    # A new config key or march parameter is a change to this list.
    assert [key for key, _ in _config_leaves()] == [
        "curve.builtin", "curve.file", "curve.literal",
        "field.builtin", "field.file", "field.literal",
        "march.R", "march.n_u", "march.dv",
        "roundtrip.tolerance", "roundtrip.reflected",
        "verify.z_tolerance", "verify.slope_tolerance",
        "verify.circle_tolerance",
        "out",
        "emit.csv", "emit.json", "emit.svg",
    ]
    assert [field.name for field in dataclasses.fields(MarchParams)] == \
        ["R", "n_u", "dv"]


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_kinds_table_names_the_leaves_of_the_config_check():
    # One row per leaf: its key, the config check's kind, and its default.
    readme = _README.read_text()
    table = readme.partition("| leaf | kind |")[2].partition("\n\n")[0]
    rows = {}
    for row in table.splitlines()[2:]:
        key, kind, default = (cell.strip().strip("`")
                              for cell in row.split("|")[1:4])
        rows[key] = (kind, json.loads(default))
    assert rows, "no leaf table in README.md"
    leaves = dict(_config_leaves())
    assert {key: kind for key, (kind, _) in rows.items()} == leaves
    for key, (_, default) in rows.items():
        section = DEFAULT_CONFIG
        for part in key.split("."):
            section = section[part]
        assert (type(default), default) == (type(section), section), key


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    # Each print of the first Python block against its "# ~value" comment,
    # to within a decade, or its quoted string.
    block = _README.read_text().partition("```python\n")[2].partition("```")[0]
    comments = [line.partition("#")[2].split()[0] for line in block.splitlines()
                if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 3
    for value, comment in zip(printed, comments):
        if comment.startswith("~"):
            assert abs(np.log10(float(value) / float(comment[1:]))) <= 1, \
                (value, comment)
        else:
            assert value == json.loads(comment)


def test_benchmark_configs_load(tmp_path, benchmark_workloads):
    # Each command config of each workload's first op at seed 1, so that
    # dropping a leaf a workload sets fails here, not in every benchmark op.
    for name, workload in benchmark_workloads.WORKLOADS.items():
        configs = [command.config for command in next(workload.ops(1))
                   if command.config is not None]
        assert configs, name
        for k, config in enumerate(configs):
            path = tmp_path / f"{name}-{k}.json"
            path.write_text(json.dumps(config))
            load_config(str(path))


#: The config leaves that became constants, the values they always held,
#: and the key an override of each is refused by: the residual,
#: reconstruct and extract sections are gone as a whole.
_REMOVED_LEAVES = {
    "march.filter_strength": (36.0, "march.filter_strength"),
    "march.filter_order": (16, "march.filter_order"),
    "march.filter_cutoff": (1.0, "march.filter_cutoff"),
    "march.monitor_threshold": (1e-3, "march.monitor_threshold"),
    "march.negative_v": (False, "march.negative_v"),
    "residual.v_min": (None, "residual"),
    "residual.j_floor": (1e-6, "residual"),
    "reconstruct.v_min": (None, "reconstruct"),
    "seed": (0, "seed"),
    "extract.radii": (None, "extract"),
    "extract.n_theta": (256, "extract"),
    "curve.auto_reverse": (False, "curve.auto_reverse"),
    "extract.degree": (16, "extract"),
}


@pytest.mark.parametrize("key", list(_REMOVED_LEAVES))
def test_removed_config_keys_are_two(tmp_path, capsys, key):
    value, unknown = _REMOVED_LEAVES[key]
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out), "--set",
                 f"{key}={json.dumps(value)}"]) == 2
    assert f"error: unknown config key config.{unknown}\n" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()
    # A report written before the keys went: plot refuses its config.
    assert main(["construct", "--out", str(out), "--set", "march.R=0.01"]) == 0
    report = read_report(out)
    section = report["config"]
    *path, leaf = key.split(".")
    for part in path:
        section = section.setdefault(part, {})
    section[leaf] = value
    (out / "report.json").write_text(json.dumps(report))
    assert main(["plot", "--out", str(out)]) == 2
    assert (f"error: unknown config key config.{unknown} in "
            f"{out / 'report.json'}\n") in capsys.readouterr().err
    assert not any((out / name).exists()
                   for name in ("curves.svg", "images.svg", "residual.svg"))


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
    header = (out / "strip.csv").read_text().splitlines()[:9]
    assert header[0] == "# format: 2"
    assert header[1].startswith("# status: completed")
    assert header[8] == "x,y,z,p,q"


def test_strip_csv_headers_read_back_to_the_runs_curve_and_field(tmp_path):
    out = tmp_path / "run"
    main(["construct", "--out", str(out), "--set", "curve.builtin=remark42",
          "--set", "field.builtin=remark42", "--set", "march.R=0.05"])
    header = dict(line[2:].split(": ", 1) for line in
                  (out / "strip.csv").read_text().splitlines()[:7])
    curve = PeriodicCurve.from_dict(json.loads(header["curve"]))
    field = CoefficientField.from_dict(json.loads(header["field"]))
    assert curve == builtin_curve("remark42")
    assert field.to_dict() == builtin_field("remark42").to_dict()


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


@pytest.mark.parametrize("E", ["(" * 493 + "1" + ")" * 493, "-" * 493 + "p",
                               "+".join(["1"] * 993)],
                         ids=["parentheses", "unary-minus", "sum"])
def test_field_expression_nested_too_deeply_is_two(tmp_path, capsys, E):
    field = dict(SMALL_BOX_FIELD, E=E)
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out),
                 "--set", f"field.literal={json.dumps(field)}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested deeper than 256 levels")
    assert not out.exists()


@pytest.mark.parametrize("E", ["-1", "1/(p-p)", "1/0"])
def test_construct_inadmissible_axis_data_is_two(tmp_path, capsys, E):
    field = dict(SMALL_BOX_FIELD, E=E,
                 box={"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                      "p": [-4, 4], "q": [-4, 4]})
    code = main(["construct", "--out", str(tmp_path / "run"),
                 "--set", f"field.literal={json.dumps(field)}"])
    assert code == 2
    assert "error: initial data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "roundtrip", "verify"])
def test_completed_march_without_a_patch_is_two(tmp_path, command):
    # A strip of one level off the axis leaves too few to reconstruct.
    out = tmp_path / "run"
    assert main([command, "--out", str(out), "--set", "march.R=0.001",
                 "--set", "march.dv=0.001"]) == 2
    report = read_report(out)
    assert report["exit_code"] == 2
    assert report["status"] == "completed"
    assert "graph reconstruction needs" in report["patch"]["error"]


def test_construct_writes_only_the_cells_it_cannot_derive(tmp_path):
    # Default circle: 151 strip levels of x,y,z,p,q and 136 patch levels
    # of r,s,t,J,residual, 128 nodes each; v and u sit in the headers.
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out)]) == 0
    cells = {}
    for name in ("strip.csv", "patch.csv"):
        lines = (out / name).read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")][1:]
        cells[name] = sum(line.count(",") + 1 for line in body)
    assert cells == {"strip.csv": 96_640, "patch.csv": 87_040}


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

    def trip_once(level):
        calls.append(level)
        frac, exceeded = real_monitor(level)
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
    # A positively oriented convex curve is reversed; no key asks for it.
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(builtin_curve("ellipse").reverse().to_dict()))
    out = tmp_path / "run"
    code = main(["construct", "--out", str(out),
                 "--set", f'curve.file="{path}"',
                 "--set", "march.R=0.05"])
    assert code == 0
    report = read_report(out)
    assert report["auto_reversed"] is True
    assert report["classification"]["orientation"] == "negative"


@pytest.mark.parametrize("name, reverses", [("ellipse", True),
                                            ("remark42", False)])
def test_only_a_locally_convex_curve_is_reversed(tmp_path, name, reverses):
    # remark42 turned round classifies "positive", but its convexity changes
    # sign, so it has no orientation of its own; it is marched as given.
    turned = builtin_curve(name).reverse()
    cfg = load_config(None, sets=["curve.literal=" + json.dumps(turned.to_dict()),
                                  "march.n_u=256"], out=str(tmp_path))
    curve, _, _, report, reversed_curve = cli._prepare(cfg)
    assert reversed_curve is reverses
    assert curve == (turned.reverse() if reverses else turned)
    assert (report.orientation == "negative") is reverses


@pytest.mark.parametrize("text", ["5", "[1]", '"a"'])
@pytest.mark.parametrize("which", ["curve", "field"])
def test_non_object_curve_or_field_file_is_two(tmp_path, capsys, which, text):
    path = tmp_path / f"{which}.json"
    path.write_text(text)
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out),
                 "--set", f"{which}.file={json.dumps(str(path))}"]) == 2
    err = capsys.readouterr().err
    assert f"error: {which} literal must be an object" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_circle_passes_both_branches(tmp_path, monkeypatch):
    # One extraction: the reflected branch is filled from the direct one.
    calls = {"classify_curve": 0, "patch_sampler": 0, "limit_gradient": 0}

    def counted(name):
        real = getattr(cli, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    out = tmp_path / "run"
    code = main(["roundtrip", "--out", str(out)])
    assert code == 0
    # The input curve is classified once, the patch sampled and extracted once.
    assert calls == {"classify_curve": 1, "patch_sampler": 1, "limit_gradient": 1}
    report = read_report(out)
    assert report["hausdorff"] < 1e-3
    assert report["hausdorff_reflected"] == report["hausdorff"]
    assert report["limit"]["jordan"] is report["limit"]["jordan_reflected"] is True
    assert report["recovered_curve_reflected"] == PeriodicCurve.from_dict(
        report["recovered_curve"]).shift(np.pi).to_dict()


def test_roundtrip_samples_the_patch_five_times(tmp_path, monkeypatch):
    # The ladder is 5 radii, all in one sampler call.
    import ma_singular.extract as extract
    calls = []

    def counted(self, radii, thetas, _real=extract.PatchSampler.__call__):
        calls.append(list(radii))
        return _real(self, radii, thetas)

    monkeypatch.setattr(extract.PatchSampler, "__call__", counted)
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out)]) == 0
    assert calls == [read_report(out)["limit"]["radii"]]
    assert len(calls[0]) == 5


@pytest.mark.parametrize("reflected, detail", [
    ("false", "on the direct branch"),
    ("true", "on the direct branch and the reflected branch"),
], ids=["direct", "both"])
def test_roundtrip_recovered_curve_that_is_not_jordan_is_eight(
        tmp_path, monkeypatch, reflected, detail):
    # The recovered curve is classified once; the reflected branch, its
    # shift by pi, is the same set and leaves M2 with it.
    import ma_singular.extract as extract
    calls = []

    def classify(curve, *args, **kwargs):
        calls.append(curve)
        report = classify_curve(curve, *args, **kwargs)
        return dataclasses.replace(report, embedded=False)

    monkeypatch.setattr(extract, "classify_curve", classify)
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out),
                 "--set", f"roundtrip.reflected={reflected}"]) == 8
    assert len(calls) == 1
    report = read_report(out)
    flags = ("jordan", "jordan_reflected") if reflected == "true" else ("jordan",)
    assert {key: value for key, value in report["limit"].items()
            if key.startswith("jordan")} == dict.fromkeys(flags, False)
    assert ("recovered_curve_reflected" in report) is (reflected == "true")
    assert report["limit"]["detail"] == (
        "the recovered limit curve is not a regular, strictly convex Jordan "
        "curve (class M2) " + detail)
    assert "hausdorff" not in report and "hausdorff_reflected" not in report


def test_roundtrip_detail_names_a_failed_extrapolation_over_a_thin_band(
        tmp_path):
    # h = 1 + a cos 3t with 8a = 0.9 at march.dv 5e-3: the judge's band is
    # under 1e-3 wide and the extrapolation over its lowest eighth fails,
    # so the detail names the band and the residual, not M2.
    a = 0.9 / 8
    curve = {"alpha_cos": [0.0, 1.0, 2 * a, 0.0, -a], "alpha_sin": [0.0],
             "beta_cos": [0.0], "beta_sin": [0.0, -1.0, 2 * a, 0.0, a]}
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out), "--set", "emit.csv=false",
                 "--set", "march.dv=5e-3",
                 "--set", "curve.literal=" + json.dumps(curve)]) == 8
    limit = read_report(out)["limit"]
    assert limit["residual"] > DEFAULT_CONFIG["roundtrip"]["tolerance"]
    assert limit["jordan"] is limit["jordan_reflected"] is False
    strip = cli.march(PeriodicCurve.from_dict(curve), builtin_field("pure-one"),
                      MarchParams(dv=5e-3))
    sampler = cli.patch_sampler(cli.reconstruct_graph(strip, v_min=strip.v[1]))
    assert sampler.r_hi - sampler.r_lo < 1e-3
    assert limit["detail"] == (
        f"the extrapolation to the axis over a band "
        f"{sampler.r_hi - sampler.r_lo:.3g} wide failed (residual "
        f"{limit['residual']:.3g} above the tolerance 0.001) on the direct "
        "branch and the reflected branch")


def test_roundtrip_recovered_curve_that_is_jordan_but_not_convex_is_eight(
        tmp_path, monkeypatch):
    # A mode-3 ripple of relative size 0.2 in the gradient's length makes
    # the recovered curves star-shaped about the origin, hence Jordan, with
    # curvature of both signs.
    patch_sampler = cli.patch_sampler

    def rippled(branch_patch):
        sampler = patch_sampler(branch_patch)

        def sample(radii, thetas):
            p, q = sampler(radii, thetas)
            ripple = 1.0 + 0.2 * np.cos(3.0 * np.asarray(thetas))
            return ripple * p, ripple * q

        sample.suggest_radii = sampler.suggest_radii
        return sample

    monkeypatch.setattr(cli, "patch_sampler", rippled)
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out)]) == 8
    report = read_report(out)
    assert report["limit"]["detail"] == (
        "the recovered limit curve is not a regular, strictly convex Jordan "
        "curve (class M2) on the direct branch and the reflected branch")
    assert report["limit"]["jordan"] is report["limit"]["jordan_reflected"] is False
    assert "hausdorff" not in report and "hausdorff_reflected" not in report
    for key in ("recovered_curve", "recovered_curve_reflected"):
        recovered = classify_curve(PeriodicCurve.from_dict(report[key]))
        assert recovered.regular and recovered.embedded
        assert not recovered.locally_convex


def test_judge_gives_no_distance_where_hausdorff_distance_refuses(
        tmp_path, monkeypatch):
    # An ellipse with axes 1 and 1e-3, its vertices between grid points, is
    # in M2 by classify_curve (the polyline test finds it embedded), and its
    # tangent turns more than pi/2 between two of the judge's 2048 grid
    # points, but always the same way, so the judge doubles its grid and
    # gives the distance.
    thin = PeriodicCurve([0.0, 1.0], [0.0], [0.0], [0.0, -1e-3]).shift(
        np.pi / 2048)
    report = classify_curve(thin)
    assert report.locally_convex and report.embedded
    assert cli.hausdorff_distance(thin, thin) == 0.0
    circle = SimpleNamespace(curve=builtin_curve("circle"), jordan=True)
    assert cli._m2_distance(thin, circle) == pytest.approx(0.999, abs=1e-12)

    # A roundtrip whose judge is refused on both branches, whose recovered
    # curves are in M2, exits 8 and names the grid, not M2.
    def refuse(curve_a, curve_b, n=1024):
        raise ValidationError("hausdorff_distance needs regular, strictly "
                              "convex embedded curves")

    monkeypatch.setattr(cli, "hausdorff_distance", refuse)
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out), "--set", "emit.csv=false"]) == 8
    report = read_report(out)
    assert report["limit"]["jordan"] is report["limit"]["jordan_reflected"] is True
    assert report["limit"]["detail"] == (
        "the Hausdorff judge's grid does not resolve the tangent of the input "
        "or the recovered limit curve on the direct branch and the reflected "
        "branch")
    assert "hausdorff" not in report and "hausdorff_reflected" not in report


def test_roundtrip_detail_names_each_cause_of_no_distance(tmp_path, monkeypatch):
    # A recovered curve outside M2 and a judge refusal each hold on both
    # branches at once, since the reflected limit curve is the direct one
    # shifted by pi: the detail names both branches under the one cause.
    import ma_singular.extract as extract

    def not_embedded(curve, *args, **kwargs):
        return dataclasses.replace(classify_curve(curve, *args, **kwargs),
                                   embedded=False)

    def refuse(curve_a, curve_b, n=1024):
        raise ValidationError("hausdorff_distance needs regular, strictly "
                              "convex embedded curves")

    for jordan, module, name, fake in (
            (False, extract, "classify_curve", not_embedded),
            (True, cli, "hausdorff_distance", refuse)):
        out = tmp_path / name
        with monkeypatch.context() as patched:
            patched.setattr(module, name, fake)
            assert main(["roundtrip", "--out", str(out),
                         "--set", "emit.csv=false"]) == 8
        report = read_report(out)
        assert report["limit"]["jordan"] is jordan
        assert report["limit"]["jordan_reflected"] is jordan
        assert report["limit"]["detail"] == (
            cli._NO_DISTANCE[jordan]
            + " on the direct branch and the reflected branch")


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
    # Both sections are gone, so each of their keys is unknown.
    section = assignment.partition(".")[0]
    assert f"error: unknown config key config.{section}\n" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, assignment, message", [
    # Keys that are gone, whatever their value.
    ("roundtrip", 'seed="abc"', "unknown config key config.seed"),
    ("roundtrip", "seed=-1", "unknown config key config.seed"),
    ("roundtrip", 'roundtrip.tolerance="a"',
     "roundtrip.tolerance must be a finite number >= 0, got 'a'"),
    # A negative tolerance used to march, judge and exit 8.
    ("roundtrip", "roundtrip.tolerance=-1",
     "roundtrip.tolerance must be a finite number >= 0, got -1"),
    *[("verify", f"verify.{key}=-1e-9",
       f"verify.{key} must be a finite number >= 0, got -1e-09")
      for key in ("z_tolerance", "slope_tolerance", "circle_tolerance")],
    ("roundtrip", "march.filter_order=1e400",
     "unknown config key config.march.filter_order"),
    *[(command, f"{key}=5", f"{key} must be {kind}, got 5")
      for command in ("construct", "roundtrip", "verify")
      for key, kind in (("field.literal", "an object or null"),
                        ("curve.literal", "an object or null"),
                        ("curve.file", "a string or null"))],
    ("verify", 'verify.z_tolerance="x"',
     "verify.z_tolerance must be a finite number >= 0, got 'x'"),
    ("construct", "out=null", "out must be a string, got None"),
    ("construct", 'march.negative_v="false"',
     "unknown config key config.march.negative_v"),
    ("construct", "march.R=true", "march.R must be a finite number, got True"),
    ("construct", "march.n_u=128.5", "march.n_u must be an integer, got 128.5"),
    ("construct", "march.n_u=128.0", "march.n_u must be an integer, got 128.0"),
    ("construct", 'emit.csv="no"', "emit.csv must be a boolean, got 'no'"),
    ("construct", "residual.j_floor=-1", "unknown config key config.residual"),
    ("construct", 'verify.oracle="planar"',
     "unknown config key config.verify.oracle"),
    # A march past MAX_MARCH_CELLS, named by its cell count.
    ("construct", "march.n_u=1099511627776", "(R/dv + 1)*n_u = 1.66e+14 cells"),
    ("construct", "march.dv=1e-300", "(R/dv + 1)*n_u = 1.92e+301 cells"),
    ("roundtrip", "march.R=1e300", "(R/dv + 1)*n_u = 1.28e+305 cells"),
], ids=["seed-string", "seed-negative", "tolerance-string",
        "tolerance-negative",
        *[f"{key}-negative" for key in ("z-tolerance", "slope-tolerance",
                                        "circle-tolerance")],
        "filter-order-overflow",
        *[f"{command}-{key}" for command in ("construct", "roundtrip", "verify")
          for key in ("field-literal", "curve-literal", "curve-file")],
        "z-tolerance-string", "out-null",
        "negative-v-string", "R-bool", "n-u-fraction", "n-u-float",
        "emit-csv-string", "j-floor-negative", "oracle-unknown",
        "cells-n-u", "cells-dv", "cells-R"])
def test_bad_config_values_are_two_before_the_march(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    assignment, message):
    # Each of these used to end in a traceback and exit 1, some only after
    # the whole march, or to be accepted and change what the run did.
    def no_march(*args):
        raise AssertionError("marched with a bad config")

    monkeypatch.setattr(cli, "march", no_march)
    out = tmp_path / "run"
    # The directory comes through --set, so that out=null can replace it.
    assert main([command, "--set", f"out={json.dumps(str(out))}",
                 "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_roundtrip_coverage_failure_is_eight_with_its_report(tmp_path, capsys,
                                                             monkeypatch):
    # The largest radius lies outside the band the strip covers from its
    # first stored level, so the extraction stops after a completed march;
    # the report says why.
    import ma_singular.extract as extract
    monkeypatch.setattr(extract.PatchSampler, "suggest_radii",
                        lambda self: (1.0, 0.5, 0.25))
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out)]) == 8
    assert capsys.readouterr().err == ""
    report = read_report(out)
    assert report["exit_code"] == 8
    assert report["status"] == "completed"
    assert report["limit"]["error"].startswith(
        "radius 1 outside covered band [0.001, 0.150563]")
    assert "hausdorff" not in report


def test_roundtrip_impossible_tolerance_is_eight(tmp_path):
    code = main(["roundtrip", "--out", str(tmp_path / "run"),
                 "--set", "roundtrip.tolerance=1e-17"])
    assert code == 8


class _Budget:
    """A numpy Generator whose ``uniform`` draw is ``budget``: the support
    function budget s of ``convex_curve``, which draws nothing else so."""

    def __init__(self, seed, budget):
        self._rng = np.random.default_rng(seed)
        self._budget = budget

    def uniform(self, low, high):
        return self._budget

    def __getattr__(self, name):
        return getattr(self._rng, name)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       budget=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
def test_roundtrip_passes_on_the_support_function_family(benchmark_workloads,
                                                         seed, budget):
    # h = 1 + sum_{k=2..K} (a_k cos kt + b_k sin kt), K <= 4, with budget
    # s = sum (k^2 - 1)(|a_k| + |b_k|) up to 0.95, where the reported patch
    # alone no longer holds two ratio-2 radii: the judge samples the strip
    # from its first level.
    curve = benchmark_workloads.convex_curve(_Budget(seed, budget))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        assert main(["roundtrip", "--out", str(out), "--set", "emit.csv=false",
                     "--set", "curve.literal=" + json.dumps(curve)]) == 0
        report = read_report(out)
    assert report["hausdorff"] <= DEFAULT_CONFIG["roundtrip"]["tolerance"]
    assert len(report["limit"]["radii"]) == 5


@pytest.mark.parametrize("args", [
    ["curve.literal=" + json.dumps({"alpha_cos": [0.0, 1.3], "alpha_sin": [0.0],
                                    "beta_cos": [0.0], "beta_sin": [0.0, -0.5]})],
    ["curve.builtin=wobble",
     "field.literal=" + json.dumps({"A": "0", "B": "0", "C": "0",
                                    "E": "1 + x^2 + q^2",
                                    "box": DEFAULT_BOX})],
], ids=["ellipse-1.3x0.5", "wobble-E-1+x2+q2"])
def test_roundtrip_samples_below_the_reported_patch(tmp_path, args):
    # Both once ended in exit 8: the reported patch, from v = 0.1 R, holds
    # two ratio-2 radii only, and the distance exceeded the tolerance.
    out = tmp_path / "run"
    argv = ["roundtrip", "--out", str(out), "--set", "emit.csv=false"]
    assert main(argv + [arg for value in args for arg in ("--set", value)]) == 0
    report = read_report(out)
    assert report["hausdorff"] < 1e-3
    assert len(report["limit"]["radii"]) == 5


@pytest.mark.parametrize("assignment", [
    "curve.builtin=ellipse",
    "curve.builtin=wobble",
    "curve.literal=" + json.dumps({"alpha_cos": [0.0, 1.3], "alpha_sin": [0.0],
                                   "beta_cos": [0.0], "beta_sin": [0.0, -0.5]}),
], ids=["ellipse", "wobble", "ellipse-1.3x0.5"])
def test_roundtrip_fits_the_degree_the_samples_resolve(tmp_path, assignment):
    # A fit at a fixed degree 16 read 2.4e-8, 7.0e-5 and 2.5e-4 here, its
    # own truncation error; the extrapolation resolves 2e-9 or better.
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out), "--set", "emit.csv=false",
                 "--set", assignment]) == 0
    assert read_report(out)["hausdorff"] <= 1e-8


def test_roundtrip_fits_no_mode_below_the_residual(tmp_path):
    # h = 1 + 0.3 cos 2t (s = 0.9) on a coarse march.  With round-off alone
    # as the floor, the fit kept noise up to degree 127, the recovered
    # curve was not convex, and the run exited 8.
    curve = {"alpha_cos": [0.0, 1.45, 0.0, -0.15], "alpha_sin": [0.0],
             "beta_cos": [0.0], "beta_sin": [0.0, -0.55, 0.0, 0.15]}
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out), "--set", "emit.csv=false",
                 "--set", "march.dv=5e-3",
                 "--set", "curve.literal=" + json.dumps(curve)]) == 0


@pytest.mark.parametrize("refusal, error", [
    ("raises", "J <= 0 at level 1 (v=0.001); the selected interior is not a "
               "local graph"),
    ("multivalued", "cannot sample a multivalued patch on circles"),
], ids=["raises", "multivalued"])
def test_first_level_refusal_is_eight(tmp_path, capsys, monkeypatch, refusal,
                                      error):
    # The reported patch is single-valued; only the judge's reconstruction
    # from the first stored level refuses.  No fallback, no traceback.
    real = cli.reconstruct_graph

    def first_level_refuses(strip, v_min=None):
        patch = real(strip, v_min=v_min)
        if v_min != strip.v[1]:
            return patch
        if refusal == "raises":
            raise SingularJacobianError(error)
        return dataclasses.replace(patch, multivalued=True)

    monkeypatch.setattr(cli, "reconstruct_graph", first_level_refuses)
    out = tmp_path / "run"
    assert main(["roundtrip", "--out", str(out), "--set", "emit.csv=false"]) == 8
    assert capsys.readouterr().err == ""
    report = read_report(out)
    assert report["patch"]["multivalued"] is False
    assert report["limit"] == {"error": error}
    assert "hausdorff" not in report


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


def test_verify_limit_circle_is_round_off_from_five_samples(tmp_path,
                                                           monkeypatch):
    calls = []

    def counted(_real=cli.radial_reference_sampler):
        sample = _real()

        def count(radii, thetas):
            calls.append(radii)
            return sample(radii, thetas)
        return count

    monkeypatch.setattr(cli, "radial_reference_sampler", counted)
    out = tmp_path / "run"
    assert main(["verify", "--out", str(out), "--set", "emit.csv=false"]) == 0
    # roundtrip-convex's headroom_dec reads log10(1e-6 / this distance),
    # 9.654 at 2.2e-16; 4.4e-16 would cost 0.30 dec, past its 0.25 bound.
    assert read_report(out)["oracle_errors"]["limit_circle_hausdorff"] <= 2.3e-16
    assert len(calls) == 1 and len(calls[0]) == 5


def test_verify_limit_outside_m2_is_eight(tmp_path, monkeypatch):
    # The gradient of the paraboloid z = (x^2 + y^2)/2 has a point for its
    # limit, fitted at degree 0: no distance, and exit 8.
    def paraboloid_sampler():
        def sample(radii, thetas):
            r = np.asarray(radii)[:, None]
            return r * np.cos(thetas), r * np.sin(thetas)
        return sample

    monkeypatch.setattr(cli, "radial_reference_sampler", paraboloid_sampler)
    out = tmp_path / "run"
    assert main(["verify", "--out", str(out)]) == 8
    assert read_report(out)["oracle_errors"]["limit_circle_hausdorff"] is None


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


def test_plot_without_a_patch_draws_the_strip_levels(tmp_path):
    # construct with emit.svg draws images.svg from strip levels 1.. when
    # there is no patch; plot on strip.csv alone draws the same figure.
    # residual.svg draws the patch's residual, so neither path writes it.
    svg, csv = tmp_path / "svg", tmp_path / "csv"
    no_patch = ["--set", "march.R=0.001", "--set", "march.dv=0.001"]
    assert main(["construct", "--out", str(svg), "--set", "emit.svg=true",
                 *no_patch]) == 2
    assert main(["construct", "--out", str(csv), *no_patch]) == 2
    assert not (csv / "patch.csv").exists()
    assert main(["plot", "--out", str(csv)]) == 0
    assert (csv / "images.svg").read_bytes() == (svg / "images.svg").read_bytes()
    assert not (svg / "residual.svg").exists()
    assert not (csv / "residual.svg").exists()


@pytest.mark.parametrize("command, sets", [
    ("construct", []),
    ("roundtrip", []),
    ("verify", []),
    ("construct", ["march.R=0.001", "march.dv=0.001"]),
    ("roundtrip", ["curve.builtin=limacon"]),
    ("construct", ["curve.literal=" + json.dumps(
        {"alpha_cos": [0, 1], "alpha_sin": [0, 0],
         "beta_cos": [0, 0], "beta_sin": [0, 1]})]),
    ("roundtrip", ["emit.csv=false"]),
], ids=["construct", "roundtrip", "verify", "no-patch", "precondition",
        "auto-reversed", "no-csv"])
def test_plot_redraws_the_figures_of_emit_svg(tmp_path, command, sets):
    out = tmp_path / "run"
    argv = [command, "--out", str(out), "--set", "emit.svg=true"]
    for assignment in sets:
        argv += ["--set", assignment]
    main(argv)
    drawn = {path.name: path.read_bytes() for path in out.glob("*.svg")}
    assert "curves.svg" in drawn
    for name in drawn:
        (out / name).unlink()
    assert main(["plot", "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in out.glob("*.svg")} == drawn


def test_plot_without_run_is_two(tmp_path):
    assert main(["plot", "--out", str(tmp_path / "empty")]) == 2


def test_plot_with_a_directory_at_a_figure_path_is_two(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out)]) == 0
    before = sorted(p.name for p in out.iterdir())
    (out / "curves.svg").mkdir()
    assert main(["plot", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {out / 'curves.svg'} exists and is not a regular file" in err
    assert sorted(p.name for p in out.iterdir()) == sorted(before + ["curves.svg"])
    assert not any((out / "curves.svg").iterdir())


@pytest.mark.parametrize("text", [
    "{bad", "[1, 2]",
    '{"config": {"curve": {"literal": 5}}}',
    '{"config": {"curve": {"file": 7}}}',
    '{}', '{"config": null}', '{"command": "construct"}',
    pytest.param(NOT_UTF8, id="not-utf8"),
    pytest.param(TOO_DEEP, id="too-deep"),
])
def test_plot_corrupt_report_is_two(tmp_path, capsys, text):
    out = tmp_path / "run"
    out.mkdir()
    write_raw(out / "report.json", text)
    assert main(["plot", "--out", str(out)]) == 2
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize("value", [5, [1], "a"])
@pytest.mark.parametrize("key", ["recovered_curve", "recovered_curve_reflected"])
def test_plot_non_object_recovered_curve_is_two(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.json").write_text(json.dumps({"config": {}, key: value}))
    assert main(["plot", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: curve literal must be an object" in err
    assert "Traceback" not in err


def _corrupt_cell(lines):
    lines[-1] = "oops," + lines[-1].partition(",")[2]


def _empty_v_header(lines):
    lines[:] = ["# v:" if line.startswith("# v:") else line
                for line in lines]


def _short_row(lines):
    lines[-1] = lines[-1].rpartition(",")[0]


def _not_utf8(lines):
    lines[-1] += NOT_UTF8


def _rewrite(name, corrupt):
    """Damage to a run: the lines of ``name`` edited by ``corrupt``."""
    def damage(out):
        lines = (out / name).read_text().splitlines()
        corrupt(lines)
        write_raw(out / name, "\n".join(lines) + "\n")
    return damage


def format_1_patch_csv(patch):
    """The format-1 writer: ten columns, no format line."""
    columns = ("x", "y", "z", "p", "q", "r", "s", "t", "J", "residual")
    lines = [
        f"# provenance: {patch.provenance}",
        f"# multivalued: {str(patch.multivalued).lower()}",
        f"# r_min: {patch.r_min:.17g}",
        f"# r_max: {patch.r_max:.17g}",
        f"# levels: {patch.n_levels}",
        f"# n_u: {patch.n_u}",
        "# v: " + " ".join(f"{val:.17g}" for val in patch.v),
        ",".join(columns),
    ]
    grids = [getattr(patch, name) for name in columns]
    for k in range(patch.n_levels):
        for j in range(patch.n_u):
            lines.append(",".join(f"{col[k, j]:.17g}" for col in grids))
    return "\n".join(lines) + "\n"


def _format_1_patch(out):
    patch = cli.patch_from_csv((out / "patch.csv").read_text(),
                               (out / "strip.csv").read_text())
    (out / "patch.csv").write_text(format_1_patch_csv(patch))


def _delete(*names):
    def damage(out):
        for name in names:
            (out / name).unlink()
    return damage


#: Each way a run's CSVs can be damaged or missing, by test id.
_CSV_DAMAGE = {
    **{f"{name[:-4]}-{corrupt.__name__[1:]}": _rewrite(name, corrupt)
       for name in ("patch.csv", "strip.csv")
       for corrupt in (_corrupt_cell, _empty_v_header, _short_row, _not_utf8)},
    "format-1-patch": _format_1_patch,
    "no-patch-csv": _delete("patch.csv"),
    "no-strip-csv": _delete("strip.csv"),
    "no-csv": _delete("patch.csv", "strip.csv"),
}


@pytest.mark.parametrize("damage", _CSV_DAMAGE.values(), ids=_CSV_DAMAGE.keys())
def test_plot_draws_the_intact_figures_whatever_the_csvs_hold(tmp_path, damage):
    # plot marches the run again from report.json and reads no CSV, so a
    # damaged or missing one changes no figure.  tests/test_geometry.py
    # pins that the library readers still refuse each damaged text.
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out), "--set", "march.R=0.03"]) == 0
    assert main(["plot", "--out", str(out)]) == 0
    intact = {path.name: path.read_bytes() for path in out.glob("*.svg")}
    assert sorted(intact) == sorted(_SVGS)
    _fill_stale(out, _SVGS)
    damage(out)
    assert main(["plot", "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in out.glob("*.svg")} == intact


def test_plot_without_the_field_file_of_its_run_is_two(tmp_path, capsys):
    # plot marches the run again, so it needs the run's field file as it
    # needs its curve file; without it plot writes nothing.
    field = tmp_path / "field.json"
    field.write_text(json.dumps(builtin_field("pure-one").to_dict()))
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out), "--set", "march.R=0.03",
                 "--set", f"field.file={json.dumps(str(field))}"]) == 0
    field.unlink()
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["plot", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read field file {field}: ")
    assert "Traceback" not in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cli_keeps_the_names_the_benchmark_traces():
    # perfbench/spans.py and perfbench/baseline.py wrap these attributes of
    # ma_singular.cli; a rename must fail here, not in a traced run.
    for name in ("_strip_csv", "patch_to_csv", "patch_from_csv",
                 "reflect_solution", "curves_overlay_svg", "image_curves_svg",
                 "residual_strip_svg"):
        assert callable(getattr(cli, name, None)), name


def test_every_benchmark_trace_target_resolves(benchmark_spans):
    # perfbench/spans.py wraps each TARGETS entry by module and dotted
    # attribute (PatchSampler.__call__, for one), and perfbench/baseline.py
    # adds cli._strip_csv; a dropped name must fail here, not in a traced run.
    targets = [(module, attribute)
               for module, attribute, _ in benchmark_spans.TARGETS]
    assert len(targets) > 6
    for module, attribute in targets + [("ma_singular.cli", "_strip_csv")]:
        owner, name = benchmark_spans._resolve(module, attribute)
        assert callable(getattr(owner, name, None)), f"{module}.{attribute}"


def test_import_leaves_scipy_optimize_unloaded():
    # Every console-script call pays the import; scipy.optimize alone holds
    # about half of the scipy modules a command would otherwise load.
    code = ("import sys, ma_singular.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _every_command_in_a_fresh_python(tmp_path, prologue, epilogue):
    """Run construct, plot, roundtrip and verify in one new interpreter."""
    out = [str(tmp_path / name) for name in ("construct", "roundtrip", "verify")]
    code = (f"{prologue}; from ma_singular.cli import main; "
            "assert main(['construct', '--print-config']) == 0; "
            f"assert main(['construct', '--out', {out[0]!r}]) == 0; "
            f"assert main(['plot', '--out', {out[0]!r}]) == 0; "
            f"assert main(['roundtrip', '--out', {out[1]!r}]) == 0; "
            f"assert main(['verify', '--out', {out[2]!r}]) == 0; "
            f"{epilogue}")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)


def test_commands_leave_scipy_unloaded(tmp_path):
    # numpy is the one runtime dependency: no command loads a scipy module.
    run = _every_command_in_a_fresh_python(
        tmp_path, "import sys",
        "loaded = sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'scipy'); "
        "sys.exit(repr(loaded) if loaded else 0)")
    assert run.returncode == 0, run.stderr


def test_commands_run_without_scipy(tmp_path):
    # A None entry in sys.modules makes every import of scipy fail.
    run = _every_command_in_a_fresh_python(
        tmp_path, "import sys; sys.modules['scipy'] = None", "pass")
    assert run.returncode == 0, run.stderr


def test_import_builds_no_march_table():
    # The march's tables are made on first use, so import time (what a
    # console-script call pays before any work) does not grow with them.
    code = ("import sys, ma_singular.cli; m = sys.modules['ma_singular.march']; "
            "sys.exit(sum(f.cache_info().currsize for f in (m._du_factors, "
            "m._du_matrix, m._monitor_weights, m._filter_factors)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


# ---------------------------------------------------------------------------
# The exit-code contract, fuzzed


def _config_leaves(defaults=DEFAULT_CONFIG, path=""):
    """(dotted key, kind) of every leaf, from the config check's own table."""
    for key, default in defaults.items():
        if isinstance(default, dict):
            yield from _config_leaves(default, f"{path}{key}.")
        else:
            yield path + key, (cli._LEAF_KINDS.get(path + key)
                               or cli._DEFAULT_KINDS[type(default)])


_COEFFICIENT = st.sampled_from([0.0, 0.05, -0.1, 0.3])

#: Curves of degree <= 2 around a unit circle, either orientation.
_CURVES = st.builds(
    lambda a1, b1, rest: {"alpha_cos": [0.0, a1, rest[0]],
                          "alpha_sin": [0.0, rest[1], rest[2]],
                          "beta_cos": [0.0, rest[3]],
                          "beta_sin": [0.0, b1, rest[4]]},
    st.sampled_from([1.0, 0.8]), st.sampled_from([-1.0, -0.6, 1.0]),
    st.lists(_COEFFICIENT, min_size=5, max_size=5))

#: Expressions from a small grammar over the state variables.
_EXPRESSIONS = st.recursive(
    st.sampled_from(["1", "0.5", "x", "y", "z", "p", "q"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda parts: "(%s %s %s)" % parts),
        st.tuples(st.sampled_from(["sin", "exp", "log", "sqrt"]), inner).map(
            lambda parts: "%s(%s)" % parts)),
    max_leaves=4)

_FIELDS = st.fixed_dictionaries({
    "A": st.just("0") | _EXPRESSIONS.map(lambda e: f"0.01*{e}"),
    "B": st.just("0") | _EXPRESSIONS.map(lambda e: f"0.01*{e}"),
    "C": st.just("0") | _EXPRESSIONS.map(lambda e: f"0.01*{e}"),
    "E": _EXPRESSIONS.map(lambda e: f"1 + 0.1*{e}") | _EXPRESSIONS,
    "box": st.sampled_from([SMALL_BOX_FIELD["box"],
                            {name: [-1, 1] for name in "xyzpq"}]),
})

#: Valid values of each kind.  Keys below that name a size draw small
#: values, so that every run stays at n_u <= 32 and R <= 0.02.
_VALID_KINDS = {
    "a boolean": st.booleans(),
    "a finite number": st.floats(-1.0, 1.0),
    "a finite number >= 0": st.floats(0.0, 1.0),
    "a string or null": st.none() | st.just("no-such-file.json"),
    "an object or null": st.none(),
}
_VALID_KEYS = {
    "march.R": st.floats(0.002, 0.02),
    "march.n_u": st.sampled_from([8, 16, 32]),
    "march.dv": st.floats(0.001, 0.02),
    "curve.builtin": st.sampled_from(builtin_curve_names()),
    "field.builtin": st.sampled_from(builtin_field_names()),
}
#: Values of the wrong kind for most leaves (and of the right kind for a few).
_ANY_VALUE = st.sampled_from([None, True, 0, -1, 5, 2.5, float("inf"),
                              float("nan"), "x", [1], {"a": 1}])
#: Every leaf but the output directory, which is the test's own.
_LEAVES = [(key, _VALID_KEYS[key] if key in _VALID_KEYS else _VALID_KINDS[kind])
           for key, kind in _config_leaves() if key != "out"]


@st.composite
def _overrides(draw):
    """Up to four valid leaf values, and one of any value half the time."""
    picks = draw(st.lists(st.sampled_from(_LEAVES), max_size=4,
                          unique_by=lambda leaf: leaf[0]))
    values = [(key, draw(valid)) for key, valid in picks]
    if draw(st.booleans()):
        values.append((draw(st.sampled_from(_LEAVES))[0], draw(_ANY_VALUE)))
    return values


#: The exit codes of the table in the README and the cli docstring, but
#: 9, which only a write that fails gives.
_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 8}

#: Every file a run may write into its out directory.
_ARTIFACTS = ("strip.csv", "patch.csv", "report.json",
              "curves.svg", "images.svg", "residual.svg")
_SVGS = _ARTIFACTS[3:]


def _fill_stale(out, names):
    """An earlier run's files: each of ``names`` in ``out`` holds "stale"."""
    out.mkdir(exist_ok=True)
    for name in names:
        (out / name).write_text("stale")


def _stale(out, names):
    return {name for name in names
            if (out / name).is_file() and (out / name).read_text() == "stale"}


#: The exit codes a report's status allows; exit 2 is a march without a
#: patch, 3 a multivalued patch and 8 a missed tolerance.
_STATUS_EXITS = {
    "completed": {0, 2, 3, 8}, "box-exit": {6}, "instability-abort": {4},
    "non-finite": {4}, "ellipticity": {5}, "precondition-failed": {7},
}


@settings(max_examples=50, deadline=None, derandomize=True)
@example(command="roundtrip", curve=None, field=None,
         overrides=[("field.builtin", "remark42")])
@example(command="roundtrip", curve=None, field=None,
         overrides=[("curve.builtin", "wobble")])
@example(command="verify", curve=None, field=None,
         overrides=[("curve.builtin", "wobble")])
@given(command=st.sampled_from(["construct", "roundtrip", "verify"]),
       curve=st.none() | _CURVES, field=st.none() | _FIELDS,
       overrides=_overrides())
def test_every_input_ends_in_a_documented_exit_code(command, curve, field,
                                                    overrides):
    overrides = [("curve.literal", curve), ("field.literal", field),
                 *overrides]
    sets = ["march.n_u=32", "march.R=0.02"]
    sets += [f"{key}={json.dumps(value)}" for key, value in overrides]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        _fill_stale(out, _ARTIFACTS)
        argv = [command, "--out", str(out)]
        for assignment in sets:
            argv += ["--set", assignment]
        # strips: what march returned; axis data it rejects returns none.
        with recorded_marches() as strips:
            code = main(argv)  # an exception escaping main fails the test
        event(f"exit {code}")
        assert code in _EXIT_CODES
        # A run that gets to write its report rewrites or removes every
        # artifact an earlier run left; exit 2 before the march leaves them.
        marched = code != 2 or bool(strips)
        stale = _stale(out, _ARTIFACTS)
        assert stale == (set() if marched else set(_ARTIFACTS))
        written = (out / "report.json").exists() and not stale
        if written:
            report = read_report(out)
            assert report["exit_code"] == code
            assert code in _STATUS_EXITS[report["status"]]
        # Exit 2 without a report means nothing was marched; every other
        # exit writes one.  Without emit.json no exit writes a report.
        if dict(overrides).get("emit.json") is not False:
            assert written == marched


# ---------------------------------------------------------------------------
# A write that fails after the march


def _files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _disk_full_at(out, failing):
    """A ``Path.open`` whose ``failing``-th file in ``out`` takes half of the
    first text written to it and then raises ENOSPC."""
    real_open = Path.open
    opened = []

    def open_(self, *args, **kwargs):
        file = real_open(self, *args, **kwargs)
        if self.parent == out:
            opened.append(self)
            if len(opened) == failing:
                def write(text):
                    type(file).write(file, text[:len(text) // 2])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                                  str(self))
                file.write = write
        return file

    return open_


@pytest.mark.parametrize("failing", [1, 2, 3, None],
                         ids=["first", "middle", "last", "none"])
def test_a_failing_write_is_nine_and_leaves_the_earlier_run(
        tmp_path, capsys, monkeypatch, failing):
    # The earlier run drew figures the failing one would remove.  The k-th
    # file opened in out (strip.csv, patch.csv, report.json in turn) takes
    # half of the first text written to it and then finds the disk full.
    out = tmp_path / "run"
    argv = ["construct", "--out", str(out), "--set", "march.R=0.05"]
    assert main(argv + ["--set", "emit.svg=true"]) == 0
    earlier = _files(out)
    assert sorted(earlier) == sorted(_ARTIFACTS)
    monkeypatch.setattr(Path, "open", _disk_full_at(out, failing))
    code = main(argv + ["--set", "curve.builtin=wobble"])
    err = capsys.readouterr().err
    if failing is None:
        assert code == 0 and err == ""
        assert sorted(_files(out)) == ["patch.csv", "report.json", "strip.csv"]
        assert read_report(out)["config"]["curve"]["builtin"] == "wobble"
        return
    name = ("strip.csv", "patch.csv", "report.json")[failing - 1]
    assert code == 9
    assert err == f"error: cannot write {out / name}: No space left on device\n"
    assert _files(out) == earlier


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    RuntimeError("the formatter failed"),
], ids=["os-error", "other-error"])
def test_a_failure_while_a_csv_streams_leaves_the_earlier_run(
        tmp_path, capsys, monkeypatch, error):
    # strip.csv is formatted as it is written; its third chunk fails.  An
    # OSError is a failed write, exit 9; anything else propagates.  Either
    # way the staged files go and out holds the earlier run.
    out = tmp_path / "run"
    argv = ["construct", "--out", str(out), "--set", "march.R=0.05"]
    assert main(argv + ["--set", "emit.svg=true"]) == 0
    earlier = _files(out)
    real_format = geometry._format_17g
    calls = []

    def format_17g(*args):
        calls.append(args)
        if len(calls) == 3:
            raise error
        return real_format(*args)

    monkeypatch.setattr(geometry, "_format_17g", format_17g)
    argv += ["--set", "curve.builtin=wobble"]
    if isinstance(error, OSError):
        assert main(argv) == 9
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'strip.csv'}: No space left on device\n")
    else:
        with pytest.raises(RuntimeError, match="the formatter failed"):
            main(argv)
    assert len(calls) == 3
    assert not list(out.glob(".*.tmp"))
    assert _files(out) == earlier


def test_default_construct_peaks_under_eight_megabytes(tmp_path):
    # The march's buffers hold its 151 levels, the analysis keeps no
    # unread evidence, and the CSVs are written chunk by chunk with no
    # whole-file text: about 6 MiB.  With room for 256 levels, the four
    # relations and whole CSV texts it peaked at 11.2 MiB.
    assert main(["construct", "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["construct", "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# The reflection of the general equation


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coefficients=st.lists(_EXPRESSIONS, min_size=4, max_size=4),
       box=st.sampled_from([{name: [-1, 1] for name in "xyzpq"},
                            {"x": [-0.5, 1], "y": [0.1, 0.9], "z": [-2, 0.3],
                             "p": [-4, 4], "q": [-1, 3]}]),
       seed=st.integers(0, 2**32 - 1))
def test_reflect_field_is_the_field_of_the_reflected_solution(coefficients,
                                                               box, seed):
    # At rho(S) = (-x, -y, -z, p, q) the reflected field holds -A, -B, -C
    # and E of the field at S, and the same D, bit for bit.
    field = CoefficientField.from_dict({**dict(zip("ABCE", coefficients)),
                                        "box": box})
    rng = np.random.default_rng(seed)
    state = np.array([rng.uniform(*field.box[name], size=64) for name in "xyzpq"])
    mirrored = state * np.array([-1.0, -1.0, -1.0, 1.0, 1.0])[:, None]
    try:
        direct = eval_field(field, tuple(state))
    except FieldEvalError as err:
        event(type(err).__name__)
        with pytest.raises(type(err)):
            eval_field(reflect_field(field), tuple(mirrored))
        return
    event("evaluated")
    reflected = eval_field(reflect_field(field), tuple(mirrored))
    expected = (-direct[0], -direct[1], -direct[2], direct[3], direct[4])
    for got, want in zip(reflected, expected):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


_GENERAL_BOX = {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-4, 4], "q": [-4, 4]}


@pytest.mark.parametrize("curve", ["circle", "ellipse", "wobble"])
@pytest.mark.parametrize("field", [
    "field.builtin=remark42",
    "field.literal=" + json.dumps({"A": "0.3", "B": "0.1", "C": "0.2",
                                   "E": "1 + 0.5*p^2", "box": _GENERAL_BOX}),
    "field.literal=" + json.dumps({"A": "x", "B": "0", "C": "y",
                                   "E": "2 + z", "box": _GENERAL_BOX}),
], ids=["remark42", "constant-abc", "xy-ac"])
def test_roundtrip_of_a_general_field_passes_both_branches(tmp_path, field,
                                                           curve):
    out = tmp_path / "run"
    argv = ["roundtrip", "--out", str(out), "--set", "emit.csv=false",
            "--set", f"curve.builtin={curve}", "--set", field]
    assert main(argv) == 0
    report = read_report(out)
    assert report["hausdorff"] < 1e-3
    assert report["hausdorff_reflected"] == pytest.approx(report["hausdorff"],
                                                          rel=1e-10)


# ---------------------------------------------------------------------------
# The plot half of the exit-code contract, fuzzed


@pytest.fixture(scope="module")
def plot_runs(tmp_path_factory):
    """The artifacts of one real construct and one real roundtrip run, with
    the figures plot draws of them."""
    root = tmp_path_factory.mktemp("plot-runs")
    for command, curve in (("construct", "ellipse"), ("roundtrip", "circle")):
        assert main([command, "--out", str(root / command),
                     "--set", "march.n_u=32", "--set", "march.R=0.05",
                     "--set", f"curve.builtin={curve}"]) == 0
        assert main(["plot", "--out", str(root / command)]) == 0
    return root


_JSON_KINDS = {type(None): "null", bool: "boolean", int: "number",
               float: "number", str: "string", list: "array", dict: "object"}
#: One value of each JSON kind.
_JSON_VALUES = [None, True, 5, "a", [1], {"a": 1}]


def _json_paths(value, path=()):
    """The path of every value in nested objects, the root's included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))


def _mutate_report(data, text):
    """Replace a value with one of another kind, or delete its key."""
    report = json.loads(text)
    path = data.draw(st.sampled_from(list(_json_paths(report))))
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else report
    if path and data.draw(st.booleans()):
        del parent[path[-1]]
        return json.dumps(report)
    new = data.draw(st.sampled_from(
        [value for value in _JSON_VALUES
         if _JSON_KINDS[type(value)] != _JSON_KINDS[type(old)]]))
    if not path:
        return json.dumps(new)
    parent[path[-1]] = new
    return json.dumps(report)


def _unreadable(data, text):
    """Append bytes that are not UTF-8, or nest JSON past the recursion limit."""
    return text + NOT_UTF8 if data.draw(st.booleans()) else TOO_DEEP


def _mutate_csv(data, text):
    """Drop or repeat a header line, put text in a cell, or cut rows."""
    lines = text.splitlines()
    head = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    mutation = data.draw(st.sampled_from(["drop", "repeat", "text", "cut"]))
    if mutation in ("drop", "repeat"):  # a comment or the column line
        k = data.draw(st.integers(0, head))
        lines[k:k + 1] = [] if mutation == "drop" else [lines[k]] * 2
    elif mutation == "text":
        k = data.draw(st.integers(head + 1, len(lines) - 1))
        cells = lines[k].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = "oops"
        lines[k] = ",".join(cells)
    else:
        del lines[len(lines) - data.draw(st.integers(1, len(lines) - head - 1)):]
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_plot_of_a_mutated_run_exits_zero_or_two(plot_runs, data):
    run = data.draw(st.sampled_from(["construct", "roundtrip"]))
    name = data.draw(st.sampled_from(["report.json", "strip.csv", "patch.csv"]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(plot_runs / run, out)
        _fill_stale(out, _SVGS)
        mutate = data.draw(st.sampled_from(
            [_mutate_report if name == "report.json" else _mutate_csv,
             _unreadable]))
        write_raw(out / name, mutate(data, (out / name).read_text()))
        code = main(["plot", "--out", str(out)])  # no exception may escape
        event(f"{name}, {mutate.__name__}: exit {code}")
        assert code in (0, 2)
        if name != "report.json":
            # plot reads no CSV, so it draws the unmutated run's figures.
            assert code == 0
            for svg in _SVGS:
                drawn = (plot_runs / run / svg).read_bytes()
                assert (out / svg).read_bytes() == drawn, svg
        if code == 0:
            # Both runs have a patch, so plot owes all three figures.
            for svg in _SVGS:
                assert (out / svg).is_file(), svg
        # Exit 0 redraws every figure; exit 2 leaves the earlier ones.
        assert _stale(out, _SVGS) == (set() if code == 0 else set(_SVGS))
