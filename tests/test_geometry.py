"""Jacobian, Hessian recovery, graph reconstruction, reflection, Legendre."""

import dataclasses
import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_singular import geometry
from ma_singular.coeffs import (
    DEFAULT_BOX,
    CoefficientField,
    builtin_field,
    eval_field,
    pure_field,
)
from ma_singular.curves import builtin_curve
from ma_singular.errors import OutOfBoxError, SingularJacobianError, ValidationError
from ma_singular.geometry import (
    GraphPatch,
    curvature_to_field,
    hessian_from_derivatives,
    hessian_from_strip,
    jacobian,
    jv_axis,
    legendre,
    legendre_dual_normals,
    patch_from_csv,
    patch_to_csv,
    pde_residual,
    reconstruct_graph,
    reflect_field,
    reflect_solution,
    strip_to_csv,
)
from ma_singular.march import MarchParams, march

PURE_ONE = builtin_field("pure-one")


@pytest.fixture(scope="module")
def circle_strip():
    return march(builtin_curve("circle"), PURE_ONE, MarchParams())


@pytest.fixture(scope="module")
def circle_patch(circle_strip):
    return reconstruct_graph(circle_strip)


def radial_hessian(v, u):
    """Closed-form (r, s, t) of the rotational solution at radius sinh v."""
    rho = np.sinh(v)
    lam_r = rho / np.sqrt(1.0 + rho * rho)   # radial eigenvalue f''
    lam_t = np.sqrt(1.0 + rho * rho) / rho   # tangential eigenvalue f'/rho
    cos_t, sin_t = np.cos(u), -np.sin(u)     # polar angle of (x, y)
    r = lam_r * cos_t**2 + lam_t * sin_t**2
    s = (lam_r - lam_t) * cos_t * sin_t
    t = lam_r * sin_t**2 + lam_t * cos_t**2
    return r, s, t


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_matches_sinh_cosh(circle_strip):
    J, min_positive = jacobian(circle_strip)
    for k in (1, 50, 150):
        v = circle_strip.v[k]
        np.testing.assert_allclose(J[k], np.sinh(v) * np.cosh(v), atol=1e-12)
    np.testing.assert_allclose(J[0], 0.0, atol=1e-15)
    assert min_positive == pytest.approx(np.sinh(1e-3) * np.cosh(1e-3),
                                         rel=1e-9)


def test_jv_axis_constants():
    np.testing.assert_allclose(jv_axis(builtin_curve("circle"), PURE_ONE),
                               1.0, atol=1e-12)
    np.testing.assert_allclose(jv_axis(builtin_curve("ellipse"), PURE_ONE),
                               0.48, atol=1e-12)


def test_jv_axis_vanishes_at_remark42_flat_point():
    vals = jv_axis(builtin_curve("remark42"), builtin_field("remark42"),
                   n_u=256)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    u = 2.0 * np.pi * np.arange(256) / 256
    interior = (np.minimum(u, np.abs(u - np.pi)) > 0.1) & (u < 2 * np.pi - 0.1)
    assert np.all(vals[interior] > 0)


def test_jv_axis_matches_forward_difference_of_jacobian():
    for name, tol in (("circle", 1e-6), ("ellipse", 1e-6)):
        curve = builtin_curve(name)
        strip = march(curve, PURE_ONE, MarchParams(R=0.01))
        J, _ = jacobian(strip)
        fd = (J[1] - J[0]) / strip.params.dv
        assert np.max(np.abs(jv_axis(curve, PURE_ONE) - fd)) < tol


# ---------------------------------------------------------------------------
# Hessian recovery


def test_hessian_identity_chart_passthrough():
    r, s, t, defect, J, valid = hessian_from_derivatives(
        1.0, 0.0, 0.0, 1.0, 2.0, 0.5, 0.5, 3.0)
    assert (r, s, t) == (2.0, 0.5, 3.0)
    assert defect == 0.0 and J == 1.0 and valid


def test_hessian_guards_singular_chart():
    r, s, t, defect, J, valid = hessian_from_derivatives(
        1.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert J == 0.0 and not valid
    assert np.isnan(r) and np.isnan(s) and np.isnan(t) and np.isnan(defect)


def test_hessian_from_strip_matches_radial_closed_form(circle_strip):
    k = 100
    level = hessian_from_strip(circle_strip, k)
    r, s, t = radial_hessian(circle_strip.v[k], circle_strip.u)
    np.testing.assert_allclose(level.r, r, atol=1e-9)
    np.testing.assert_allclose(level.s, s, atol=1e-9)
    np.testing.assert_allclose(level.t, t, atol=1e-9)
    assert np.max(level.sym_defect) < 1e-10
    assert np.max(level.fin_residual) < 1e-10
    assert np.all(level.valid)


def test_hessian_from_strip_rejects_axis_level(circle_strip):
    with pytest.raises(SingularJacobianError):
        hessian_from_strip(circle_strip, 0)
    with pytest.raises(SingularJacobianError, match="level 0 "):
        hessian_from_strip(circle_strip, [5, 0, 1])


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def test_hessian_from_strip_selection_stacks_single_levels(circle_strip):
    idx = [1, 7, 50, 150]
    whole = hessian_from_strip(circle_strip, idx)
    singles = [hessian_from_strip(circle_strip, k) for k in idx]
    for name in ("r", "s", "t", "sym_defect", "fin_residual", "J", "valid"):
        assert_bitwise_equal(getattr(whole, name),
                             np.stack([getattr(h, name) for h in singles]))
    by_slice = hessian_from_strip(circle_strip, slice(1, None))
    assert by_slice.r.shape == (circle_strip.n_levels - 1, circle_strip.n_u)
    assert_bitwise_equal(by_slice.r[[k - 1 for k in idx]], whole.r)
    assert_bitwise_equal(jacobian(circle_strip)[0][idx], whole.J)


def test_reconstruct_graph_rows_match_hessian_from_strip(circle_strip,
                                                         circle_patch):
    levels = np.flatnonzero(np.isin(circle_strip.v, circle_patch.v))
    assert levels.size == circle_patch.n_levels
    for row, k in enumerate(levels):
        hess = hessian_from_strip(circle_strip, int(k))
        for name in ("r", "s", "t", "J"):
            assert_bitwise_equal(getattr(circle_patch, name)[row],
                                 getattr(hess, name))
    report = pde_residual(circle_strip)
    rows = np.searchsorted(levels, report.level_indices)
    assert_bitwise_equal(circle_patch.residual[rows], report.residuals)


def test_one_analysis_serves_every_view(monkeypatch):
    marched = march(builtin_curve("wobble"), PURE_ONE, MarchParams(R=0.05))
    calls = {}

    def count(module, name, key):
        def counted(*args, _original=getattr(module, name), **kwargs):
            calls[key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(geometry, "assemble_rhs", "assemble_rhs")
    count(geometry, "eval_field", "eval_field")
    # Every evaluation of the field, including one inside assemble_rhs.
    for module in ("ma_singular.coeffs", "ma_singular.march"):
        count(importlib.import_module(module), "_field_values", "field_values")
    # A marched strip carries the march's Z_v; a replaced one re-evaluates
    # the system.  The field is evaluated once for the Hessian either way.
    for strip, rhs in ((marched, 0),
                       (dataclasses.replace(marched, states=marched.states), 1)):
        calls.update(assemble_rhs=0, eval_field=0, field_values=0)
        jacobian(strip)
        reconstruct_graph(strip)
        pde_residual(strip)
        for _ in range(3):
            hessian_from_strip(strip, 5)
        legendre_dual_normals(strip)
        assert calls == {"assemble_rhs": rhs, "eval_field": 1,
                         "field_values": 1}


def test_strip_analysis_transforms_once(monkeypatch):
    marched = march(builtin_curve("wobble"), PURE_ONE, MarchParams(R=0.05))
    replaced = dataclasses.replace(marched, states=marched.states)
    counts = {}
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    # Z_u serves the analysis and the re-evaluated system alike; a marched
    # strip carries the march's, so its analysis transforms nothing.
    for strip, transforms in ((marched, 0), (replaced, 1)):
        counts.update(rfft=0, irfft=0)
        jacobian(strip)
        assert counts == {"rfft": transforms, "irfft": transforms}


def test_analysis_arrays_are_read_only():
    strip = march(builtin_curve("circle"), PURE_ONE, MarchParams(R=0.05))
    with pytest.raises(ValueError, match="read-only"):
        jacobian(strip)[0][0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        hessian_from_strip(strip, slice(1, None)).r[0] = 1.0
    first = pde_residual(strip)
    expected = first.residuals.copy()
    first.residuals[:] = 0.0   # a fresh array, owned by the caller
    second = pde_residual(strip)
    assert_bitwise_equal(second.residuals, expected)
    assert second.max_abs == first.max_abs


def test_unselected_level_outside_the_box_raises(circle_strip):
    # The analysis evaluates the field on every stored level.  A marched
    # strip stores only levels inside the box; a hand-built one may not.
    states = np.array(circle_strip.states)
    states[-1, 0, 0] = 2.0
    strip = dataclasses.replace(circle_strip, states=states)
    with pytest.raises(OutOfBoxError, match="^x=2.0 outside"):
        hessian_from_strip(strip, 5)


# ---------------------------------------------------------------------------
# PDE residual


def test_residual_tiny_on_circle(circle_strip):
    report = pde_residual(circle_strip)
    assert report.max_abs < 1e-10
    assert report.rms <= report.max_abs
    assert report.n_nodes > 0


def test_residual_respects_v_min(circle_strip):
    # The window is the levels at v >= 0.2 R, all of them.
    assert geometry.RESIDUAL_V_MIN_FRAC == 0.2
    report = pde_residual(circle_strip)
    v_min = 0.2 * circle_strip.params.R
    assert report.level_indices == tuple(
        k for k in range(1, circle_strip.n_levels)
        if circle_strip.v[k] >= v_min - 1e-15)
    assert circle_strip.v[report.level_indices[0] - 1] < v_min - 1e-15


def test_residual_identity_form_on_remark42():
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(R=0.05, n_u=256))
    report = pde_residual(strip)
    assert report.max_abs < 1e-3


def test_residual_rejects_empty_interior():
    # |x| <= 0.02 stops the march below the residual window, 0.2 R = 0.03.
    box = dict(DEFAULT_BOX, x=(-0.02, 0.02))
    strip = march(builtin_curve("circle"), pure_field("1", box), MarchParams())
    assert strip.status == "box-exit"
    with pytest.raises(ValidationError, match="no stored levels at v >= 0.03"):
        pde_residual(strip)


# ---------------------------------------------------------------------------
# Graph reconstruction


def test_reconstruct_circle_annulus(circle_patch):
    assert not circle_patch.multivalued
    assert circle_patch.r_min == pytest.approx(np.sinh(0.015), rel=1e-3)
    assert circle_patch.r_max == pytest.approx(np.sinh(0.15), rel=1e-3)
    assert circle_patch.provenance.startswith("march:levels[")
    rho = circle_patch.radii()
    np.testing.assert_allclose(circle_patch.z,
                               0.5 * (rho * np.sqrt(1 + rho**2)
                                      + np.arcsinh(rho)), atol=1e-12)


def test_reconstruct_flags_limacon_as_multivalued():
    strip = march(builtin_curve("limacon"), PURE_ONE, MarchParams())
    patch = reconstruct_graph(strip)
    assert patch.multivalued


def test_reconstruct_accepts_doubly_covered_remark42():
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(R=0.05, n_u=256))
    patch = reconstruct_graph(strip)
    assert not patch.multivalued


def test_reconstruct_needs_two_levels(circle_strip):
    with pytest.raises(ValidationError):
        reconstruct_graph(circle_strip, v_min=0.1499)


def test_reconstruct_rejects_negative_jacobian():
    # A positively oriented curve gives J < 0.
    strip = march(builtin_curve("circle").reverse(), PURE_ONE,
                  MarchParams(R=0.05))
    with pytest.raises(SingularJacobianError):
        reconstruct_graph(strip)


# ---------------------------------------------------------------------------
# Reflection


def test_reflect_field_fixes_pure_one():
    reflected = reflect_field(PURE_ONE)
    assert reflected.to_dict()["E"] == PURE_ONE.to_dict()["E"]


def test_reflect_field_flips_odd_dependence():
    f = pure_field("1 + x")
    g = reflect_field(f)
    assert eval_field(g, (0.25, 0, 0, 0, 0))[3] == 0.75
    assert g.box == f.box  # symmetric default box mirrors onto itself


def test_reflect_solution_flips_height_and_hessian(circle_patch):
    ref = reflect_solution(circle_patch)
    np.testing.assert_array_equal(ref.z, -circle_patch.z)
    np.testing.assert_array_equal(ref.x, -circle_patch.x)
    np.testing.assert_array_equal(ref.p, circle_patch.p)
    np.testing.assert_array_equal(ref.r, -circle_patch.r)
    np.testing.assert_array_equal(ref.J, circle_patch.J)
    assert ref.provenance.endswith("+reflected")


def test_reflect_solution_is_an_involution(circle_patch):
    back = reflect_solution(reflect_solution(circle_patch))
    np.testing.assert_array_equal(back.z, circle_patch.z)
    np.testing.assert_array_equal(back.x, circle_patch.x)


def test_reflected_patch_still_solves_the_equation(circle_patch):
    # rt - s^2 is even under the sample map, so the residual carries over.
    ref = reflect_solution(circle_patch)
    rt = ref.r * ref.t - ref.s**2
    np.testing.assert_allclose(rt, 1.0, atol=1e-9)


def equation_residual(patch):
    """A r + 2 B s + C t + r t - s^2 - E at the patch's samples."""
    A, B, C, E, _ = eval_field(patch.field,
                               (patch.x, patch.y, patch.z, patch.p, patch.q))
    r, s, t = patch.r, patch.s, patch.t
    return A * r + 2 * B * s + C * t + r * t - s * s - E


def test_reflected_patch_solves_the_reflected_general_equation():
    field = CoefficientField.from_dict({
        "A": "0.3 + x", "B": "0.1*q", "C": "0.2 + y*p",
        "E": "1 + 0.5*p^2 + z", "box": DEFAULT_BOX})
    patch = reconstruct_graph(march(builtin_curve("ellipse"), field,
                                    MarchParams()))
    direct = equation_residual(patch)
    assert np.max(np.abs(direct)) < 1e-9
    # Every term keeps its value under the reflection, so the residual
    # of the reflected samples against the reflected field is the same.
    np.testing.assert_array_equal(
        equation_residual(reflect_solution(patch)), direct)


# ---------------------------------------------------------------------------
# Legendre transform


def paraboloid_patch(n_levels=4, n_u=32):
    v = np.linspace(0.2, 0.8, n_levels)
    u = 2.0 * np.pi * np.arange(n_u) / n_u
    rho, theta = np.meshgrid(v, u, indexing="ij")
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    one, zero = np.ones_like(x), np.zeros_like(x)
    return GraphPatch(v=v, u=u, x=x, y=y, z=0.5 * (x**2 + y**2),
                      p=x, q=y, r=one, s=zero, t=one, J=one, residual=zero,
                      r_min=float(v[0]), r_max=float(v[-1]),
                      multivalued=False, provenance="synthetic:paraboloid",
                      field=PURE_ONE)


def test_legendre_dual_gradient_is_xy(circle_patch):
    dual = legendre(circle_patch, a=2.0, c=2.0)
    np.testing.assert_array_equal(dual.p, circle_patch.x)
    np.testing.assert_array_equal(dual.q, circle_patch.y)
    assert dual.field is None
    assert dual.provenance.endswith("+legendre(a=2,c=2)")


def test_legendre_double_transform_fixes_paraboloid():
    patch = paraboloid_patch()
    back = legendre(legendre(patch), a=0.0, c=0.0)
    np.testing.assert_allclose(back.x, patch.x, atol=1e-8)
    np.testing.assert_allclose(back.y, patch.y, atol=1e-8)
    np.testing.assert_allclose(back.z, patch.z, atol=1e-8)
    np.testing.assert_allclose(back.r, patch.r, atol=1e-8)


def test_legendre_dual_hessian_inverts_shifted_hessian(circle_patch):
    a = c = 2.0
    dual = legendre(circle_patch, a=a, c=c)
    i, j = 40, 17
    H = np.array([[circle_patch.r[i, j] + c, circle_patch.s[i, j]],
                  [circle_patch.s[i, j], circle_patch.t[i, j] + a]])
    Hinv = np.linalg.inv(H)
    assert dual.r[i, j] == pytest.approx(Hinv[0, 0], rel=1e-12)
    assert dual.s[i, j] == pytest.approx(Hinv[0, 1], rel=1e-12)
    assert dual.t[i, j] == pytest.approx(Hinv[1, 1], rel=1e-12)


def test_dual_normals_match_closed_form(circle_strip):
    normals = legendre_dual_normals(circle_strip, a=2.0, c=2.0)
    from ma_singular.geometry import _interior_levels
    _, idx = _interior_levels(circle_strip, None)
    x = circle_strip.states[idx, 0, :]
    y = circle_strip.states[idx, 1, :]
    denom = np.sqrt(1.0 + x**2 + y**2)
    expected = np.stack([-x / denom, -y / denom, 1.0 / denom], axis=-1)
    assert np.max(np.abs(normals - expected)) < 1e-8


# ---------------------------------------------------------------------------
# Prescribed curvature


def test_curvature_to_field_builds_expected_structure():
    f = curvature_to_field("2")
    A, B, C, E, _ = eval_field(f, (0.0, 0.0, 0.0, 1.0, 2.0))
    assert (A, B, C) == (0.0, 0.0, 0.0)
    assert E == pytest.approx(2.0 * 36.0)  # K (1 + 1 + 4)^2


def test_curvature_to_field_rejects_gradient_dependence():
    with pytest.raises(ValidationError):
        curvature_to_field("1 + p")


# ---------------------------------------------------------------------------
# Serialization


GRAPH_ARRAYS = ("v", "u", "x", "y", "z", "p", "q", "r", "s", "t",
                "J", "residual")


def assert_same_bits(back, patch):
    for name in GRAPH_ARRAYS:
        np.testing.assert_array_equal(getattr(back, name).view(np.uint64),
                                      getattr(patch, name).view(np.uint64),
                                      err_msg=name)


@pytest.fixture(scope="module")
def circle_texts(circle_strip, circle_patch):
    return patch_to_csv(circle_patch), strip_to_csv(circle_strip)


def test_patch_csv_round_trip_is_exact(circle_patch, circle_texts):
    back = patch_from_csv(*circle_texts)
    for name in GRAPH_ARRAYS:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(circle_patch, name),
                                      err_msg=name)
    assert_same_bits(back, circle_patch)
    assert back.multivalued == circle_patch.multivalued
    assert back.provenance == circle_patch.provenance
    assert back.r_min == circle_patch.r_min


def test_patch_csv_round_trip_is_exact_on_remark42():
    # n_u = 256, and the patch starts at strip level 5 of 51.
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(R=0.05, n_u=256))
    patch = reconstruct_graph(strip)
    assert patch.provenance.startswith("march:levels[5:51]")
    back = patch_from_csv(patch_to_csv(patch), strip_to_csv(strip))
    assert_same_bits(back, patch)
    assert (back.r_min, back.r_max) == (patch.r_min, patch.r_max)


def test_patch_from_csv_peak_memory_is_a_small_multiple_of_the_patch(
        circle_texts):
    # One np.loadtxt call reads the rows from a lazy iterator over the
    # text, with no list of lines beside it, so the peak stays near the
    # bytes the patch holds (1.07 times them here); loadtxt on a list of
    # all the lines peaked at 3.4 times that.  A blank line at the end, or
    # a trailing space deep in the body, must not change that.
    patch_text, strip_text = circle_texts
    for strip in (strip_text, strip_text + "\n",
                  _corrupt_row(strip_text, lambda row: row + " ", 5000)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            patch = patch_from_csv(patch_text, strip)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = sum(getattr(patch, name).nbytes for name in GRAPH_ARRAYS)
        assert peak <= 2.5 * held


@pytest.mark.parametrize("variant", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace("\n", "\n\n  \n"),
    lambda text: text.replace("\n", " \t\n"),
    lambda text: text.replace("\n", "\r"),
], ids=["crlf", "blank-lines", "trailing-whitespace", "bare-cr"])
def test_patch_from_csv_tolerates_line_noise(circle_patch, circle_texts, variant):
    back = patch_from_csv(*(variant(text) for text in circle_texts))
    for name in GRAPH_ARRAYS:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(circle_patch, name),
                                      err_msg=name)


def test_a_chunk_of_blank_lines_reads_as_no_rows(circle_texts):
    patch_text, strip_text = circle_texts
    # 2**18 trailing newlines: no rows, and no loadtxt warning.
    blank = strip_text + "\n" * (1 << 18)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(patch_from_csv(patch_text, blank),
                         patch_from_csv(patch_text, strip_text))


MALFORMED_ROWS = pytest.mark.parametrize("row", [
    lambda row: row.rpartition(",")[0],
    lambda row: row + ",0",
    lambda row: "oops," + row.partition(",")[2],
    lambda row: "0x1p3," + row.partition(",")[2],
    lambda row: "nan(1)," + row.partition(",")[2],
    lambda row: " ," + row.partition(",")[2],
], ids=["short-row", "long-row", "non-numeric-cell", "hex", "nan-payload",
        "blank-cell"])


def _corrupt_row(text, row, index=100):
    lines = text.splitlines()
    lines[index] = row(lines[index])
    return "\n".join(lines) + "\n"


@MALFORMED_ROWS
def test_patch_from_csv_rejects_malformed_rows(circle_texts, row):
    patch_text, strip_text = circle_texts
    with pytest.raises(ValidationError, match="patch CSV"):
        patch_from_csv(_corrupt_row(patch_text, row), strip_text)


@MALFORMED_ROWS
def test_patch_from_csv_rejects_malformed_strip_rows(circle_texts, row):
    patch_text, strip_text = circle_texts
    with pytest.raises(ValidationError, match="strip CSV"):
        patch_from_csv(patch_text, _corrupt_row(strip_text, row))


@MALFORMED_ROWS
def test_patch_from_csv_rejects_a_malformed_row_past_the_first_chunk(
        circle_texts, row):
    patch_text, strip_text = circle_texts
    # Line 5000 of 19 337: a fault deep in a long body is found and named.
    with pytest.raises(ValidationError, match="strip CSV has a malformed row"):
        patch_from_csv(patch_text, _corrupt_row(strip_text, row, 5000))


def test_a_refused_cell_is_named_by_row_column_and_text(circle_texts):
    patch_text, strip_text = circle_texts
    # Line 5000 of the strip text is data row 4991, counted from 0 as
    # loadtxt counts it; columns count from 1.
    bad = _corrupt_row(strip_text, lambda row: row.rpartition(",")[0] + ", oops",
                       5000)
    with pytest.raises(ValidationError,
                       match=r"^strip CSV has a malformed row: could not convert "
                             r"string ' oops' to float64 at row 4991, column 5\.$"):
        patch_from_csv(patch_text, bad)


def test_a_short_row_is_refused_when_the_next_row_makes_up_its_cell(
        circle_texts):
    patch_text, strip_text = circle_texts
    lines = strip_text.splitlines()
    lines[5000], _, cell = lines[5000].rpartition(",")
    lines[5001] += "," + cell
    with pytest.raises(ValidationError,
                       match="strip CSV has a malformed row: the number of "
                             "columns changed from 5 to 4 at row 4992;"):
        patch_from_csv(patch_text, "\n".join(lines) + "\n")


def test_read_csv_calls_loadtxt_once_per_text(circle_texts, monkeypatch):
    _, strip_text = circle_texts
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    def read(text):
        return geometry._read_csv(text, ("x", "y", "z", "p", "q"), "strip CSV")

    monkeypatch.setattr(np, "loadtxt", counted)
    read(strip_text)
    assert len(calls) == 1
    bad = _corrupt_row(strip_text, lambda row: "oops," + row.partition(",")[2],
                       5000)
    with pytest.raises(ValidationError, match="strip CSV has a malformed row"):
        read(bad)
    assert len(calls) == 2

    # A text with no rows is refused by its count, before loadtxt could
    # warn of an empty input.
    header = strip_text[:strip_text.index("x,y,z,p,q\n") + len("x,y,z,p,q\n")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"^strip CSV has 0 rows for \d+ levels of 128 nodes$"):
            read(header)
    assert len(calls) == 2


def reference_read_csv(text, columns, what):
    """``geometry._read_csv`` as ``np.loadtxt`` on all the rows at once."""
    lines = text.splitlines()
    meta = {}
    head = len(lines)
    for k, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line:
            head = k
            break
    found = meta.get("format")
    if found != str(geometry.CSV_FORMAT):
        found = f"format {found}" if found else "no '# format:' line (format 1)"
        raise ValidationError(
            f"{what} has {found}; only format {geometry.CSV_FORMAT} is read")
    expected = ",".join(columns)
    if head == len(lines) or lines[head].strip() != expected:
        raise ValidationError(f"{what} lacks the column line {expected!r}")
    try:
        n_u = int(meta["n_u"])
        v = np.array([float(tok) for tok in meta["v"].split()])
    except KeyError as err:
        raise ValidationError(f"{what} lacks its '# {err.args[0]}:' line") from None
    except ValueError as err:
        raise ValidationError(f"{what} has a malformed value: {err}") from None
    rows = [line for line in lines[head + 1:] if line and not line.isspace()]
    if n_u < 1 or v.size < 1 or len(rows) != v.size * n_u:
        raise ValidationError(f"{what} has {len(rows)} rows for {v.size} "
                              f"levels of {n_u} nodes")
    try:
        cells = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"{what} has a malformed row: {err}") from None
    if cells.shape[1] != len(columns):
        raise ValidationError(f"{what} rows must have {len(columns)} cells")
    return meta, v, cells.reshape(v.size, n_u, len(columns))


def _read_outcome(read, text):
    """The v and cell bits ``read`` gives the strip text, or its message."""
    try:
        _, v, cells = read(text, ("x", "y", "z", "p", "q"), "strip CSV")
    except ValidationError as err:
        return str(err)
    return v.tobytes(), cells.shape, cells.tobytes()


#: Characters spliced into a row: cell syntax, blanks, line breaks and
#: non-ASCII digits and spaces.
NOISE = " \t,.-+_eExX(0123456789nNaAiIfF\r\v\x85\u2028\u00a0\u0663"


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_read_csv_matches_loadtxt_on_edited_strips(circle_texts, data):
    lines = circle_texts[1].split("\n")
    first = lines.index("x,y,z,p,q") + 1
    for _ in range(data.draw(st.integers(1, 3))):
        # An edit lands anywhere among the 19 328 rows.
        i = data.draw(st.integers(first, len(lines) - 1))
        edit = data.draw(st.sampled_from(["noise", "delete", "duplicate", "blank"]))
        if edit == "noise":
            at = data.draw(st.integers(0, len(lines[i])))
            noise = data.draw(st.text(NOISE, min_size=1, max_size=3))
            lines[i] = lines[i][:at] + noise + lines[i][at:]
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, data.draw(st.sampled_from(["", " ", "\t", " \t "])))
    text = "\n".join(lines)
    assert (_read_outcome(geometry._read_csv, text)
            == _read_outcome(reference_read_csv, text))


def test_patch_from_csv_needs_the_strip_of_its_run(circle_patch, circle_texts):
    patch_text, _ = circle_texts
    other = march(builtin_curve("circle"), PURE_ONE, MarchParams(dv=0.0015))
    with pytest.raises(ValidationError, match="contiguous run"):
        patch_from_csv(patch_text, strip_to_csv(other))
    short = march(builtin_curve("circle"), PURE_ONE, MarchParams(R=0.1))
    with pytest.raises(ValidationError, match="contiguous run"):
        patch_from_csv(patch_text, strip_to_csv(short))
    coarse = march(builtin_curve("circle"), PURE_ONE, MarchParams(n_u=64))
    with pytest.raises(ValidationError, match="strip CSV has n_u=64"):
        patch_from_csv(patch_text, strip_to_csv(coarse))


def test_patch_to_csv_refuses_a_transformed_patch(circle_patch):
    for patch in (reflect_solution(circle_patch), legendre(circle_patch)):
        with pytest.raises(ValidationError, match="transformed patch"):
            patch_to_csv(patch)


def test_patch_from_csv_checks_the_column_line(circle_texts):
    patch_text, strip_text = circle_texts
    # Both files have five columns; only the column line tells them apart.
    with pytest.raises(ValidationError,
                       match="patch CSV lacks the column line 'r,s,t,J,residual'"):
        patch_from_csv(strip_text, patch_text)
    with pytest.raises(ValidationError,
                       match="strip CSV lacks the column line 'x,y,z,p,q'"):
        patch_from_csv(patch_text, strip_text.replace("\nx,y,z,p,q\n", "\n"))
    header_only = patch_text.partition("\nr,s,t,J,residual\n")[0]
    with pytest.raises(ValidationError, match="patch CSV lacks the column line"):
        patch_from_csv(header_only, strip_text)


def test_patch_from_csv_counts_rows_against_the_header(circle_texts):
    patch_text, strip_text = circle_texts
    with pytest.raises(ValidationError,
                       match="strip CSV has 19327 rows for 151 levels of 128 nodes"):
        patch_from_csv(patch_text, strip_text.rstrip("\n").rpartition("\n")[0])
    no_rows = patch_text.partition("\nr,s,t,J,residual\n")[0] + "\nr,s,t,J,residual\n"
    with pytest.raises(ValidationError, match="patch CSV has 0 rows"):
        patch_from_csv(no_rows, strip_text)
    no_levels = "\n".join("# v:" if line.startswith("# v:") else line
                           for line in patch_text.split("\n"))
    with pytest.raises(ValidationError,
                       match="patch CSV has 17408 rows for 0 levels of 128 nodes"):
        patch_from_csv(no_levels, strip_text)


def test_patch_from_csv_rejects_rows_all_one_cell_short(circle_texts):
    patch_text, strip_text = circle_texts
    head, _, body = patch_text.partition("\nr,s,t,J,residual\n")
    body = "\n".join(row.rpartition(",")[0] for row in body.splitlines())
    with pytest.raises(ValidationError, match="patch CSV rows must have 5 cells"):
        patch_from_csv(head + "\nr,s,t,J,residual\n" + body, strip_text)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.partition("\n")[2], "no '# format:' line"),
    (lambda text: text.replace("# format: 2", "# format: 1", 1), "format 1"),
], ids=["missing-format", "format-1"])
@pytest.mark.parametrize("which", ["patch", "strip"])
def test_patch_from_csv_reads_format_2_only(circle_texts, edit, message, which):
    texts = list(circle_texts)
    index = 0 if which == "patch" else 1
    texts[index] = edit(texts[index])
    with pytest.raises(ValidationError, match=f"{which} CSV has .*{message}"):
        patch_from_csv(*texts)
