"""Jacobian, Hessian recovery, graph reconstruction, reflection, Legendre."""

import dataclasses
import importlib

import numpy as np
import pytest

from ma_singular import geometry
from ma_singular.coeffs import builtin_field, pure_field
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
    strip = march(builtin_curve("wobble"), PURE_ONE, MarchParams(R=0.05))
    calls = {"assemble_rhs": 0, "eval_field": 0, "field_values": 0}

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
    jacobian(strip)
    reconstruct_graph(strip)
    pde_residual(strip)
    for _ in range(3):
        hessian_from_strip(strip, 5)
    legendre_dual_normals(strip)
    assert calls == {"assemble_rhs": 1, "eval_field": 1, "field_values": 1}


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
    report = pde_residual(circle_strip, v_min=0.1)
    assert all(circle_strip.v[k] >= 0.1 for k in report.level_indices)


def test_residual_identity_form_on_remark42():
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(R=0.05, n_u=256))
    report = pde_residual(strip)
    assert report.max_abs < 1e-3


def test_residual_rejects_empty_interior(circle_strip):
    with pytest.raises(ValidationError):
        pde_residual(circle_strip, v_min=1.0)


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
    strip = march(builtin_curve("circle"), PURE_ONE,
                  MarchParams(R=0.05, negative_v=True))
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
    from ma_singular.coeffs import eval_field
    assert eval_field(g, (0.25, 0, 0, 0, 0))[3] == 0.75
    assert g.box == f.box  # symmetric default box mirrors onto itself


def test_reflect_field_needs_pure():
    bad = builtin_field("remark42")
    object.__setattr__  # silence lint; remark42 has B = p^2
    with pytest.raises(ValidationError):
        reflect_field(bad)


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
    assert f.pure
    from ma_singular.coeffs import eval_field
    E = eval_field(f, (0.0, 0.0, 0.0, 1.0, 2.0))[3]
    assert E == pytest.approx(2.0 * 36.0)  # K (1 + 1 + 4)^2


def test_curvature_to_field_rejects_gradient_dependence():
    with pytest.raises(ValidationError):
        curvature_to_field("1 + p")


# ---------------------------------------------------------------------------
# Serialization


def test_patch_csv_round_trip_is_exact(circle_patch):
    text = patch_to_csv(circle_patch)
    back = patch_from_csv(text)
    for name in ("v", "u", "x", "y", "z", "p", "q", "r", "s", "t",
                 "J", "residual"):
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(circle_patch, name),
                                      err_msg=name)
    assert back.multivalued == circle_patch.multivalued
    assert back.provenance == circle_patch.provenance
    assert back.r_min == circle_patch.r_min


@pytest.mark.parametrize("variant", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace("\n", "\n\n  \n"),
    lambda text: text.replace("\n", " \t\n"),
], ids=["crlf", "blank-lines", "trailing-whitespace"])
def test_patch_from_csv_tolerates_line_noise(circle_patch, variant):
    back = patch_from_csv(variant(patch_to_csv(circle_patch)))
    for name in ("v", "u", "x", "y", "z", "p", "q", "r", "s", "t",
                 "J", "residual"):
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(circle_patch, name),
                                      err_msg=name)


@pytest.mark.parametrize("row", [
    lambda row: row.rpartition(",")[0],
    lambda row: row + ",0",
    lambda row: "oops," + row.partition(",")[2],
], ids=["short-row", "long-row", "non-numeric-cell"])
def test_patch_from_csv_rejects_malformed_rows(circle_patch, row):
    lines = patch_to_csv(circle_patch).splitlines()
    lines[100] = row(lines[100])
    with pytest.raises(ValidationError, match="patch CSV"):
        patch_from_csv("\n".join(lines) + "\n")
