"""Strip march: spectral derivative, RK4 stepping, filter, monitor."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_singular.coeffs import CoefficientField, builtin_field, pure_field
from ma_singular.curves import builtin_curve, eval_curve
from ma_singular.errors import (
    BoxExitError,
    EllipticityAbortError,
    InstabilityError,
    ValidationError,
)
from ma_singular.march import (
    MarchParams,
    assemble_rhs,
    march,
    spectral_du,
    spectral_filter,
    stability_monitor,
)

CIRCLE = builtin_curve("circle")
PURE_ONE = builtin_field("pure-one")


def small_box_field(limit):
    return CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": "1",
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-limit, limit], "q": [-limit, limit]}})


def circle_exact(v, u):
    return np.array([
        np.sinh(v) * np.cos(u),
        -np.sinh(v) * np.sin(u),
        np.full_like(u, 0.5 * (v + np.sinh(v) * np.cosh(v))),
        np.cosh(v) * np.cos(u),
        -np.cosh(v) * np.sin(u),
    ])


# ---------------------------------------------------------------------------
# spectral_du


def test_spectral_du_exact_on_trig_polynomial():
    n = 32
    u = 2.0 * np.pi * np.arange(n) / n
    f = 1.0 + np.cos(3 * u) - 2.0 * np.sin(7 * u)
    df = -3.0 * np.sin(3 * u) - 14.0 * np.cos(7 * u)
    np.testing.assert_allclose(spectral_du(f), df, atol=1e-12)


def test_spectral_du_rejects_odd_grids():
    with pytest.raises(ValidationError):
        spectral_du(np.zeros(31))


def test_spectral_du_works_on_stacked_rows():
    n = 16
    u = 2.0 * np.pi * np.arange(n) / n
    stack = np.stack([np.cos(u), np.sin(2 * u)])
    out = spectral_du(stack)
    np.testing.assert_allclose(out[0], -np.sin(u), atol=1e-13)
    np.testing.assert_allclose(out[1], 2 * np.cos(2 * u), atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-2, max_value=2))
def test_spectral_du_matches_mode_derivative(k, a, b):
    n = 64
    u = 2.0 * np.pi * np.arange(n) / n
    f = a * np.cos(k * u) + b * np.sin(k * u)
    df = -a * k * np.sin(k * u) + b * k * np.cos(k * u)
    np.testing.assert_allclose(spectral_du(f), df, atol=1e-11)


# ---------------------------------------------------------------------------
# assemble_rhs


def test_rhs_on_circle_axis_data():
    n = 64
    u = 2.0 * np.pi * np.arange(n) / n
    level = np.array([np.zeros(n), np.zeros(n), np.zeros(n),
                      np.cos(u), -np.sin(u)])
    x_v, y_v, z_v, p_v, q_v = assemble_rhs(level, PURE_ONE)
    # q p_u - p q_u = sin^2 + cos^2 = 1 on the axis, not 0.
    np.testing.assert_allclose(x_v, np.cos(u), atol=1e-13)
    np.testing.assert_allclose(y_v, -np.sin(u), atol=1e-13)
    np.testing.assert_allclose(z_v, 1.0, atol=1e-13)
    np.testing.assert_allclose(p_v, 0.0, atol=1e-13)
    np.testing.assert_allclose(q_v, 0.0, atol=1e-13)


def test_rhs_matches_closed_form_off_axis():
    n = 64
    u = 2.0 * np.pi * np.arange(n) / n
    v = 0.1
    x_v, y_v, z_v, p_v, q_v = assemble_rhs(circle_exact(v, u), PURE_ONE)
    np.testing.assert_allclose(x_v, np.cosh(v) * np.cos(u), atol=1e-12)
    np.testing.assert_allclose(y_v, -np.cosh(v) * np.sin(u), atol=1e-12)
    np.testing.assert_allclose(z_v, np.cosh(v) ** 2, atol=1e-12)
    np.testing.assert_allclose(p_v, np.sinh(v) * np.cos(u), atol=1e-12)
    np.testing.assert_allclose(q_v, -np.sinh(v) * np.sin(u), atol=1e-12)


# ---------------------------------------------------------------------------
# filter and monitor


def test_filter_leaves_low_modes_at_round_off():
    params = MarchParams(n_u=128)
    u = 2.0 * np.pi * np.arange(128) / 128
    level = np.stack([np.cos(u), np.sin(2 * u), 0.5 + np.cos(3 * u),
                      np.sin(u), np.cos(u)])
    filtered = spectral_filter(level, params)
    # Only the fft round-trip junk in the stopband is touched.
    assert np.max(np.abs(filtered - level)) < 1e-15
    spec_lo = np.fft.rfft(filtered - level)[:4]
    assert np.max(np.abs(spec_lo)) < 1e-13


def test_filter_is_bitwise_identity_on_dc():
    params = MarchParams(n_u=64)
    level = np.full((5, 64), 0.875)
    assert np.array_equal(spectral_filter(level, params), level)


def test_filter_crushes_nyquist_band():
    params = MarchParams(n_u=128)
    u = 2.0 * np.pi * np.arange(128) / 128
    noisy = np.cos(u) + 1e-3 * np.cos(63 * u)
    filtered = spectral_filter(noisy, params)
    spec = np.abs(np.fft.rfft(filtered)) / 128
    # damping at k=63 is 1 - exp(-36 (63/64)^16), about 12 decades
    assert spec[63] < 1e-14
    assert abs(spec[1] - 0.5) < 1e-15


def test_monitor_quiet_on_smooth_level():
    params = MarchParams(n_u=128)
    u = 2.0 * np.pi * np.arange(128) / 128
    frac, exceeded = stability_monitor(circle_exact(0.1, u), params)
    assert frac < 1e-25 and not exceeded


def test_monitor_fraction_matches_hand_count():
    params = MarchParams(n_u=12, monitor_threshold=0.1)
    u = 2.0 * np.pi * np.arange(12) / 12
    # One unit of energy at k=1 and one at k=5; band is k >= 4 of 0..6.
    level = np.cos(u) + np.cos(5 * u)
    frac, exceeded = stability_monitor(level, params)
    assert frac == pytest.approx(0.5, rel=1e-12)
    assert exceeded


def test_monitor_ignores_dc_offset():
    params = MarchParams(n_u=16)
    frac, exceeded = stability_monitor(np.full(16, 3.0), params)
    assert frac == 0.0 and not exceeded


# ---------------------------------------------------------------------------
# march parameter validation


@pytest.mark.parametrize("kwargs", [
    {"R": 0.0}, {"R": -1.0}, {"dv": 0.0}, {"dv": 0.2},
    {"n_u": 100}, {"n_u": 2}, {"filter_cutoff": 0.0},
    {"filter_cutoff": 1.5}, {"filter_order": 0}, {"box_policy": "clip"},
    {"monitor_threshold": 0.0},
])
def test_bad_params_rejected(kwargs):
    with pytest.raises(ValidationError):
        MarchParams(**kwargs).validate(CIRCLE)


def test_grid_must_resolve_curve_degree():
    with pytest.raises(ValidationError):
        MarchParams(n_u=8).validate(builtin_curve("remark42"))


def test_march_rejects_initial_data_outside_box():
    with pytest.raises(ValidationError):
        march(CIRCLE, small_box_field(0.9))


@pytest.mark.parametrize("E", ["-1", "1/(p-p)"])
def test_march_rejects_axis_data_the_field_cannot_evaluate(E):
    # D = -1 < 0 and a non-finite E both fail on the axis, before any step.
    field = CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": E,
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-4, 4], "q": [-4, 4]}})
    with pytest.raises(ValidationError, match="initial data"):
        march(CIRCLE, field)


# ---------------------------------------------------------------------------
# march behaviour


def test_march_matches_circle_closed_form():
    strip = march(CIRCLE, PURE_ONE, MarchParams())
    assert strip.status == "completed"
    assert strip.v[-1] == pytest.approx(0.15, abs=0)
    worst = max(
        np.max(np.abs(strip.states[k] - circle_exact(strip.v[k], strip.u)))
        for k in range(strip.n_levels))
    assert worst < 1e-12


def test_march_level_zero_is_exact_initial_data():
    strip = march(builtin_curve("wobble"), PURE_ONE, MarchParams(R=0.01))
    alpha, beta, *_ = eval_curve(builtin_curve("wobble"), strip.u)
    np.testing.assert_array_equal(strip.states[0, 0], np.zeros(128))
    np.testing.assert_array_equal(strip.states[0, 2], np.zeros(128))
    np.testing.assert_array_equal(strip.states[0, 3], alpha)
    np.testing.assert_array_equal(strip.states[0, 4], beta)


def test_march_is_deterministic():
    a = march(CIRCLE, PURE_ONE, MarchParams(R=0.05))
    b = march(CIRCLE, PURE_ONE, MarchParams(R=0.05))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.high_frac, b.high_frac)


def test_march_is_shift_equivariant_on_grid_multiples():
    params = MarchParams(R=0.05, n_u=64)
    shift_cells = 5
    c = 2.0 * np.pi * shift_cells / 64
    base = march(builtin_curve("ellipse"), PURE_ONE, params)
    moved = march(builtin_curve("ellipse").shift(c), PURE_ONE, params)
    np.testing.assert_allclose(
        moved.states, np.roll(base.states, -shift_cells, axis=-1), atol=1e-12)


def test_gradient_moves_outward_from_unit_circle():
    strip = march(CIRCLE, PURE_ONE, MarchParams())
    mag = strip.states[:, 3, :] ** 2 + strip.states[:, 4, :] ** 2
    assert np.all(np.diff(np.min(mag, axis=1)) > 0)
    np.testing.assert_allclose(mag[0], 1.0, atol=1e-14)


def test_negative_v_marches_down():
    strip = march(CIRCLE, PURE_ONE, MarchParams(R=0.05, negative_v=True))
    assert strip.status == "completed"
    assert strip.v[-1] == pytest.approx(-0.05)
    err = np.max(np.abs(strip.states[-1] - circle_exact(-0.05, strip.u)))
    assert err < 1e-13


def test_truncated_final_step_lands_exactly_on_R():
    strip = march(CIRCLE, PURE_ONE, MarchParams(R=0.0105, dv=1e-3))
    assert strip.v[-1] == 0.0105
    assert strip.n_levels == 12


def test_box_exit_truncates_with_status():
    strip = march(CIRCLE, small_box_field(1.005), MarchParams())
    assert strip.status == "box-exit"
    assert "p=" in strip.detail
    # cosh(v) crosses 1.005 near v=0.0999
    assert 0.09 < strip.v[-1] < 0.11
    assert np.all(np.abs(strip.states[:, 3, :]) <= 1.005)


def test_box_exit_raises_with_partial_when_asked():
    with pytest.raises(BoxExitError) as info:
        march(CIRCLE, small_box_field(1.005), MarchParams(box_policy="raise"))
    partial = info.value.partial
    assert partial.status == "box-exit"
    assert partial.n_levels > 50


def test_ellipticity_loss_mid_march():
    f = CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": "1 - 60*z",
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-4, 4], "q": [-4, 4]}})
    strip = march(CIRCLE, f, MarchParams())
    assert strip.status == "ellipticity"
    assert strip.v[-1] < 0.15
    with pytest.raises(EllipticityAbortError):
        march(CIRCLE, f, MarchParams(box_policy="raise"))


def test_monitor_abort_needs_two_consecutive_hits():
    # Round-off puts ~1e-30 in the top band; an absurdly low threshold
    # turns that into a reproducible two-strike abort.
    params = MarchParams(monitor_threshold=1e-35)
    strip = march(CIRCLE, PURE_ONE, params)
    assert strip.status == "instability-abort"
    assert strip.n_levels >= 1
    assert np.all(strip.high_frac <= 1e-35) or strip.n_levels == 1
    with pytest.raises(InstabilityError):
        march(CIRCLE, PURE_ONE, MarchParams(monitor_threshold=1e-35,
                                            box_policy="raise"))


def test_single_monitor_hit_skips_and_counts_one_level(monkeypatch):
    march_module = importlib.import_module("ma_singular.march")
    calls = []

    def trip_fifth_call(level, params):
        calls.append(level)
        frac, exceeded = stability_monitor(level, params)
        return frac, exceeded or len(calls) == 5

    params = MarchParams(R=0.02)
    clean = march(CIRCLE, PURE_ONE, params)
    monkeypatch.setattr(march_module, "stability_monitor", trip_fifth_call)
    strip = march(CIRCLE, PURE_ONE, params)
    assert clean.levels_skipped == 0
    assert strip.status == "completed"
    assert strip.levels_skipped == 1
    assert strip.n_levels == clean.n_levels - 1
    # The fifth monitored level is the one after step 4.
    np.testing.assert_array_equal(np.setdiff1d(clean.v, strip.v), [clean.v[4]])


def _field_with(E="1", x=1.0, pq=4.0):
    return CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": E,
        "box": {"x": [-x, x], "y": [-1, 1], "z": [-1, 1],
                "p": [-pq, pq], "q": [-pq, pq]}})


@pytest.mark.parametrize("field, n_levels, status, detail", [
    (_field_with(x=0.05), 50, "box-exit",
     "stage state left the box after v=0.049: "
     "x=0.050020836021085945 outside [-0.05, 0.05] at index 0"),
    # Every stage of the first step stays inside; the stepped state does not.
    (_field_with(pq=1.0000005), 1, "box-exit",
     "state left the box at v=0.001: "
     "p=1.0000005000000414 outside [-1.0000005, 1.0000005] at index 0"),
    (_field_with("1 - 60*z"), 12, "ellipticity",
     "ellipticity lost after v=0.011: "
     "ellipticity D = A*C - B^2 + E not positive (min -0.095302403484671)"),
    (_field_with("1 + sqrt(0.05 - z)"), 54, "non-finite",
     "field evaluation failed after v=0.053: "
     "coefficient E is non-finite at index 0"),
], ids=["stage-box-exit", "step-box-exit", "ellipticity", "non-finite"])
def test_failure_status_and_detail_are_pinned(field, n_levels, status, detail):
    strip = march(CIRCLE, field, MarchParams())
    assert (strip.n_levels, strip.status, strip.detail) == (n_levels, status,
                                                            detail)


@pytest.mark.parametrize("E, message", [
    ("1/0", "initial data: coefficient E is non-finite at index 0"),
    ("0 - 1", "initial data: ellipticity D = A*C - B^2 + E not positive "
              "(min -1.0)"),
])
def test_constant_field_rejected_on_the_axis(E, message):
    with pytest.raises(ValidationError) as info:
        march(CIRCLE, _field_with(E))
    assert str(info.value) == message


def test_march_makes_four_field_evaluations_per_step(monkeypatch):
    coeffs_module = importlib.import_module("ma_singular.coeffs")
    march_module = importlib.import_module("ma_singular.march")
    counts = {"field": 0, "rhs": 0}
    field_values = coeffs_module._field_values
    assemble = march_module.assemble_rhs

    def count_field(*args):
        counts["field"] += 1
        return field_values(*args)

    def count_rhs(*args):
        counts["rhs"] += 1
        return assemble(*args)

    for module in (coeffs_module, march_module):
        monkeypatch.setattr(module, "_field_values", count_field)
    monkeypatch.setattr(march_module, "assemble_rhs", count_rhs)
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(n_u=256, R=0.05))
    steps = strip.n_levels - 1
    assert strip.status == "completed" and steps == 50
    # k1 reuses the check of the state it starts from: 3 stages + 1 check
    # per step, and the check on the axis.
    assert counts == {"field": 4 * steps + 1, "rhs": 4 * steps}


def test_strip_level_accessor():
    strip = march(CIRCLE, PURE_ONE, MarchParams(R=0.01))
    level = strip.level(3)
    assert level.shape == (5, 128)
    np.testing.assert_array_equal(level, strip.states[3])
