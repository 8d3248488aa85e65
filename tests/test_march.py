"""Strip march: spectral derivative, RK4 stepping, filter, monitor."""

import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_singular.coeffs import CoefficientField, builtin_field, pure_field
from ma_singular.curves import builtin_curve, eval_curve
from ma_singular.errors import ValidationError
from ma_singular.march import (
    MAX_MARCH_CELLS,
    MarchParams,
    StripSolution,
    _filter_factors,
    _filter_in_place,
    assemble_rhs,
    march,
    spectral_du,
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


def test_spectral_du_rejects_a_0d_value():
    with pytest.raises(ValidationError, match="0-d"):
        spectral_du(np.float64(1.0))


@pytest.mark.parametrize("shape", [(63,), (5, 129), (128, 5), ()])
def test_spectral_du_rejects_a_last_axis_off_the_grid(shape):
    # The grid is the level's last axis, and must be even.
    match = "0-d value" if shape == () else r"even grid, got \d+"
    with pytest.raises(ValidationError, match=match):
        spectral_du(np.ones(shape))


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


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=7), st.integers(0, 2**32 - 1))
def test_du_matrix_matches_spectral_du(log2_n, seed):
    # The RK4 stages of a march on up to 128 points differentiate by this
    # matrix; it is the same operator to round-off of the derivative's scale.
    n = 2 ** log2_n
    rng = np.random.default_rng(seed)
    u = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(rng.integers(1, n // 2 + 1))
    a, b = rng.uniform(-1, 1, (2, 5, len(k)))
    block = a @ np.cos(np.outer(k, u)) + b @ np.sin(np.outer(k, u))
    matrix = importlib.import_module("ma_singular.march")._du_matrix(n)
    expected = spectral_du(block)
    scale = max(1.0, np.abs(expected).max())
    np.testing.assert_allclose(block @ matrix, expected, rtol=0,
                               atol=1e-13 * scale)


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


@pytest.mark.parametrize("stack", [False, True], ids=["level", "stack"])
def test_rhs_from_given_derivatives_is_bitwise_the_same(stack):
    strip = march(builtin_curve("remark42"), builtin_field("remark42"),
                  MarchParams(n_u=256, R=0.05))
    level = np.moveaxis(strip.states[10:13], -2, 0) if stack else strip.states[10]
    expected = assemble_rhs(level, strip.field)
    level_u = spectral_du(level)
    got = assemble_rhs(level, strip.field, None, level_u)
    assert got.shape == level.shape
    assert np.array_equal(got, expected)
    # The derivatives are read, not overwritten.
    assert np.array_equal(level_u, spectral_du(level))


def test_cached_tables_are_read_only():
    march_module = importlib.import_module("ma_singular.march")
    for table in (march_module._du_factors(128),
                  march_module._du_matrix(128),
                  march_module._monitor_weights(65),
                  march_module._filter_factors(128)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


# ---------------------------------------------------------------------------
# filter and monitor


def _filtered(level):
    """The march's filter on a copy of ``level``."""
    level = np.array(level, dtype=float)
    return _filter_in_place(level, _filter_factors(level.shape[-1]))


def test_filter_leaves_low_modes_at_round_off():
    u = 2.0 * np.pi * np.arange(128) / 128
    level = np.stack([np.cos(u), np.sin(2 * u), 0.5 + np.cos(3 * u),
                      np.sin(u), np.cos(u)])
    filtered = _filtered(level)
    # Only the fft round-trip junk in the stopband is touched.
    assert np.max(np.abs(filtered - level)) < 1e-15
    spec_lo = np.fft.rfft(filtered - level)[:4]
    assert np.max(np.abs(spec_lo)) < 1e-13


def test_filter_is_bitwise_identity_on_dc():
    level = np.full((5, 64), 0.875)
    assert np.array_equal(_filtered(level), level)


def test_filter_crushes_nyquist_band():
    u = 2.0 * np.pi * np.arange(128) / 128
    noisy = np.cos(u) + 1e-3 * np.cos(63 * u)
    filtered = _filtered(noisy)
    spec = np.abs(np.fft.rfft(filtered)) / 128
    # damping at k=63 is 1 - exp(-36 (63/64)^16), about 12 decades
    assert spec[63] < 1e-14
    assert abs(spec[1] - 0.5) < 1e-15


def test_monitor_quiet_on_smooth_level():
    u = 2.0 * np.pi * np.arange(128) / 128
    frac, exceeded = stability_monitor(circle_exact(0.1, u))
    assert frac < 1e-25 and not exceeded


def test_monitor_fraction_matches_hand_count():
    u = 2.0 * np.pi * np.arange(12) / 12
    # One unit of energy at k=1 and one at k=5; band is k >= 4 of 0..6.
    level = np.cos(u) + np.cos(5 * u)
    frac, exceeded = stability_monitor(level)
    assert frac == pytest.approx(0.5, rel=1e-12)
    assert exceeded


@pytest.mark.parametrize("n", [12, 13])
def test_monitor_reads_a_spectrum_as_its_level(n):
    # The march hands the monitor a level's rfft, which k1 reuses; the
    # bin count alone fixes the weights and the band, for odd n too.
    level = np.random.default_rng(n).normal(size=(5, n))
    assert stability_monitor(np.fft.rfft(level)) == stability_monitor(level)


def test_monitor_ignores_dc_offset():
    frac, exceeded = stability_monitor(np.full(16, 3.0))
    assert frac == 0.0 and not exceeded


@pytest.mark.parametrize("level", [
    np.full(8, np.nan),
    np.full((5, 8), np.inf),
    np.r_[np.zeros(7), -np.inf],
    # Finite, but its energy overflows.
    1e160 * np.cos(7 * 2.0 * np.pi * np.arange(16) / 16),
], ids=["nan", "inf", "one-inf", "energy-overflow"])
def test_monitor_reads_a_non_finite_level_as_exceeded(level):
    # A RuntimeWarning would fail the test (pytest.ini_options).
    frac, exceeded = stability_monitor(level)
    assert np.isnan(frac) and exceeded
    with np.errstate(invalid="ignore"):  # inf - inf inside the rfft
        spectrum = np.fft.rfft(level)
    frac, exceeded = stability_monitor(spectrum)
    assert np.isnan(frac) and exceeded


@pytest.mark.parametrize("scale", [1e140, 1e152])
def test_monitor_keeps_a_large_finite_energy(scale):
    # All of the energy sits at k = 7, in the top band of 0..8.
    level = scale * np.cos(7 * 2.0 * np.pi * np.arange(16) / 16)
    assert stability_monitor(level) == (1.0, True)


# ---------------------------------------------------------------------------
# march parameter validation


@pytest.mark.parametrize("kwargs", [
    {"R": 0.0}, {"R": -1.0}, {"dv": 0.0}, {"dv": 0.2},
    {"n_u": 100}, {"n_u": 2},
    # An infinite R used to pass, and the march to stop on the axis as
    # "completed".
    {"R": math.inf}, {"R": math.inf, "dv": math.inf},
])
def test_bad_params_rejected(kwargs):
    with pytest.raises(ValidationError):
        MarchParams(**kwargs).validate(CIRCLE)


@pytest.mark.parametrize("kwargs, message", [
    # n_u=128.0 used to raise a TypeError from n_u & (n_u - 1), and "0.15"
    # one from the comparison with 0.
    ({"n_u": 128.0}, "n_u must be an integer, got 128.0"),
    ({"n_u": "128"}, "n_u must be an integer, got '128'"),
    ({"n_u": True}, "n_u must be an integer, got True"),
    ({"R": "0.15"}, "R and dv must be real numbers, got '0.15' and 0.001"),
    ({"R": None}, "R and dv must be real numbers, got None and 0.001"),
    ({"dv": 1e-3 + 0j}, "R and dv must be real numbers, got 0.15 and (0.001+0j)"),
    ({"dv": False}, "R and dv must be real numbers, got 0.15 and False"),
])
def test_params_of_the_wrong_type_are_a_validation_error(kwargs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        march(CIRCLE, PURE_ONE, MarchParams(**kwargs))


def test_numpy_scalar_params_are_accepted():
    MarchParams(R=np.float64(0.05), n_u=np.int64(64),
                dv=np.float32(1e-3)).validate(CIRCLE)


@pytest.mark.parametrize("kwargs, cells", [
    ({"n_u": 2 ** 40}, "1.66e+14"),      # a numpy allocation error once
    ({"dv": 1e-300}, "1.92e+301"),       # 1.5e299 steps once
    ({"R": 1e300}, "1.28e+305"),
    ({"n_u": 2 ** 1100}, "inf"),         # past the float range
    ({"R": 1e300, "dv": 5e-324}, "inf"),  # R/dv = inf
])
def test_march_past_the_cell_budget_is_refused(kwargs, cells):
    # Refused from the parameters alone, before anything is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError,
                           match=re.escape(f"(R/dv + 1)*n_u = {cells} cells ")):
            MarchParams(**kwargs).validate(CIRCLE)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_march_holds_its_levels_once():
    # Its one level buffer has a row for the axis and one for each step:
    # 51 rows of 5 x 256 nodes here, 0.5 MiB, about 0.6 MiB with the
    # field's temporaries.
    curve, field = builtin_curve("remark42"), builtin_field("remark42")
    params = MarchParams(R=0.05, n_u=256)
    march(curve, field, params)  # the cached factors of 256 points
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        strip = march(curve, field, params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (strip.status, strip.n_levels) == ("completed", 51)
    assert peak < 2 ** 20


def test_strip_solution_leaves_the_callers_arrays_writeable():
    # The strip freezes views of the caller's arrays, not the arrays, and
    # copies none of them.
    states = np.zeros((2, 5, 8))
    strip = StripSolution(
        v=np.array([0.0, 1e-3]), u=2.0 * np.pi * np.arange(8) / 8,
        states=states, high_frac=np.zeros(2), min_disc=np.ones(2),
        status="completed", detail="drawn", curve=CIRCLE, field=PURE_ONE,
        params=MarchParams())
    assert states.flags.writeable
    assert not strip.states.flags.writeable
    assert np.shares_memory(strip.states, states)


def test_cell_budget_is_two_to_the_twenty_two():
    # The default march's 151 x 128 cells 217 times over; exact at the edge.
    assert MAX_MARCH_CELLS == 2 ** 22
    dv = 2.0 ** -15
    MarchParams(R=32767 * dv, n_u=128, dv=dv).validate(CIRCLE)
    with pytest.raises(ValidationError, match="= 4.194e\\+06 cells"):
        MarchParams(R=32768 * dv, n_u=128, dv=dv).validate(CIRCLE)


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


def test_reversed_curve_marches_the_strip_below_the_axis():
    # Z_v = M(Z) Z_u is invariant under (u, v) -> (-u, -v): the reversed
    # circle's strip is the circle's at -v, with u mirrored.
    strip = march(CIRCLE.reverse(), PURE_ONE, MarchParams(R=0.05))
    assert strip.status == "completed"
    assert strip.v[-1] == pytest.approx(0.05)
    err = np.max(np.abs(strip.states[-1] - circle_exact(-0.05, -strip.u)))
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


def test_ellipticity_loss_mid_march():
    f = CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": "1 - 60*z",
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-4, 4], "q": [-4, 4]}})
    strip = march(CIRCLE, f, MarchParams())
    assert strip.status == "ellipticity"
    assert strip.v[-1] < 0.15


def test_monitor_abort_needs_two_consecutive_hits(monkeypatch):
    # Round-off puts ~1e-30 in the top band; an absurdly low threshold
    # turns that into a reproducible two-strike abort.
    monkeypatch.setattr(importlib.import_module("ma_singular.march"),
                        "MONITOR_THRESHOLD", 1e-35)
    strip = march(CIRCLE, PURE_ONE, MarchParams())
    assert strip.status == "instability-abort"
    assert strip.n_levels >= 1
    assert np.all(strip.high_frac <= 1e-35) or strip.n_levels == 1


def test_single_monitor_hit_skips_and_counts_one_level(monkeypatch):
    march_module = importlib.import_module("ma_singular.march")
    calls = []

    def trip_fifth_call(level):
        calls.append(level)
        frac, exceeded = stability_monitor(level)
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
     "x=0.05002083602108613 outside [-0.05, 0.05] at index 0"),
    # Every stage of the first step stays inside; the stepped state does not.
    (_field_with(pq=1.0000005), 1, "box-exit",
     "state left the box at v=0.001: "
     "p=1.0000005000000414 outside [-1.0000005, 1.0000005] at index 0"),
    (_field_with("1 - 60*z"), 12, "ellipticity",
     "ellipticity lost after v=0.011: "
     "ellipticity D = A*C - B^2 + E not positive (min -0.09530240348466257)"),
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


@pytest.mark.parametrize("curve, field, n_u, per_step", [
    ("remark42", "remark42", 256, 5),
    ("circle", "pure-one", 128, 2),
], ids=["fft-stages", "matrix-stages"])
def test_march_transforms_each_level_once_for_monitor_and_k1(
        monkeypatch, curve, field, n_u, per_step):
    # Built before counting: the matrix's one-time build is an rfft and
    # an irfft of the identity.
    importlib.import_module("ma_singular.march")._du_matrix(128)
    counts = {"rfft": 0, "irfft": 0}
    for name in list(counts):
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    strip = march(builtin_curve(curve), builtin_field(field),
                  MarchParams(n_u=n_u, R=0.05))
    steps = strip.n_levels - 1
    assert strip.status == "completed" and steps == 50
    # Per step, forward: the filter and the monitor, and on more than 128
    # points k2, k3 and k4; back: k1 and the filter, and on more than 128
    # points k2 to k4 (on up to 128, those stages take a matrix product).  k1
    # differentiates from the monitor's spectrum of the level it starts
    # from, so only the axis level adds a forward transform.
    assert counts == {"rfft": per_step * steps + 1, "irfft": per_step * steps}


def test_strip_level_accessor():
    strip = march(CIRCLE, PURE_ONE, MarchParams(R=0.01))
    level = strip.level(3)
    assert level.shape == (5, 128)
    np.testing.assert_array_equal(level, strip.states[3])
