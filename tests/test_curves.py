"""Fourier curves, classification, and the builtin gallery."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ma_singular.curves import (
    JORDAN_SAMPLES,
    CurveReport,
    PeriodicCurve,
    _eval_running,
    _eval_uniform,
    _polyline_self_intersects,
    _refined_min,
    _spectra,
    builtin_curve,
    builtin_curve_names,
    classify_curve,
    eval_curve,
    fit_curve,
    signed_curvature,
)
from ma_singular.errors import DegenerateCurveError, ValidationError

U = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)


def test_coefficients_pad_to_common_degree():
    c = PeriodicCurve([1.0], [0.0, 0.5], [0.0], [0.0, -1.0, 0.25])
    assert c.degree == 2
    assert c.alpha_cos.shape == (3,)
    np.testing.assert_array_equal(c.alpha_sin, [0.0, 0.5, 0.0])


def test_sine_constant_term_is_dropped():
    c = PeriodicCurve([0.0], [7.0], [0.0], [3.0])
    assert c.alpha_sin[0] == 0.0 and c.beta_sin[0] == 0.0


def test_coefficients_are_frozen():
    c = builtin_curve("circle")
    with pytest.raises(ValueError):
        c.alpha_cos[1] = 2.0


def test_circle_evaluates_to_cos_minus_sin():
    alpha, beta, da, db, dda, ddb = eval_curve(builtin_curve("circle"), U)
    np.testing.assert_allclose(alpha, np.cos(U), atol=1e-15)
    np.testing.assert_allclose(beta, -np.sin(U), atol=1e-15)
    np.testing.assert_allclose(da, -np.sin(U), atol=1e-15)
    np.testing.assert_allclose(db, -np.cos(U), atol=1e-15)
    np.testing.assert_allclose(dda, -np.cos(U), atol=1e-15)
    np.testing.assert_allclose(ddb, np.sin(U), atol=1e-15)


def test_eval_accepts_scalar_u():
    alpha, *_ = eval_curve(builtin_curve("ellipse"), 0.0)
    assert alpha == pytest.approx(0.8)


def test_reverse_flips_orientation():
    fwd = classify_curve(builtin_curve("circle"))
    rev = classify_curve(builtin_curve("circle").reverse())
    assert fwd.orientation == "negative"
    assert rev.orientation == "positive"


def test_shift_translates_samples():
    c = builtin_curve("wobble")
    shifted = c.shift(0.35)
    a0, b0, *_ = eval_curve(c, U + 0.35)
    a1, b1, *_ = eval_curve(shifted, U)
    np.testing.assert_allclose(a1, a0, atol=1e-14)
    np.testing.assert_allclose(b1, b0, atol=1e-14)


def test_circle_curvature_is_minus_one():
    k = signed_curvature(builtin_curve("circle"), U)
    np.testing.assert_allclose(k, -1.0, atol=1e-14)


def test_ellipse_curvature_matches_closed_form():
    a, b = 0.8, 0.6
    k = signed_curvature(builtin_curve("ellipse"), U)
    speed2 = (a * np.sin(U)) ** 2 + (b * np.cos(U)) ** 2
    np.testing.assert_allclose(k, -a * b / speed2**1.5, atol=1e-13)


def test_point_curve_is_degenerate():
    c = PeriodicCurve([0.5], [0.0], [0.5], [0.0])
    with pytest.raises(DegenerateCurveError):
        signed_curvature(c, U)
    assert classify_curve(c).orientation == "degenerate"


@pytest.mark.parametrize("name,convex,embedded", [
    ("circle", True, True),
    ("ellipse", True, True),
    ("wobble", True, True),
    ("limacon", True, False),     # inner loop: convex but not embedded
    ("remark42", False, False),   # doubly traced, so not an injective loop
])
def test_gallery_classification(name, convex, embedded):
    rep = classify_curve(builtin_curve(name))
    assert rep.regular
    assert rep.strictly_convex == convex
    assert rep.embedded == embedded


def test_remark42_margin_vanishes_at_zero_only():
    rep = classify_curve(builtin_curve("remark42"))
    assert rep.convexity_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.u_star == pytest.approx(0.0, abs=1e-6)
    # The curve is traced twice; u=pi lands on the same image point as u=0.
    k = signed_curvature(builtin_curve("remark42"), U)
    interior = (np.minimum(U, np.abs(U - np.pi)) > 0.1) & (U < 2 * np.pi - 0.1)
    assert np.all(-k[interior] > 1e-3)


def test_classify_sizes_its_grid_from_the_degree():
    # A degree-300 curve needs more than JORDAN_SAMPLES grid points; the
    # grid grows to 8*(degree+1) instead of refusing the curve.
    alpha_cos = np.zeros(301)
    alpha_cos[1], alpha_cos[300] = 1.0, 1e-6
    beta_sin = np.zeros(301)
    beta_sin[1] = -1.0
    curve = PeriodicCurve(alpha_cos, np.zeros(301), np.zeros(301), beta_sin)
    assert 8 * (curve.degree + 1) > JORDAN_SAMPLES
    rep = classify_curve(curve)
    assert rep.regular and rep.strictly_convex and rep.embedded


def _random_curve(degree, rng, decay=0.0):
    k = np.arange(degree + 1)
    return PeriodicCurve(*(rng.standard_normal(degree + 1) / (1.0 + k) ** decay
                           for _ in range(4)))


def _assert_outputs_close(got, want, rtol):
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


UNIFORM_SIZES = [3, 4, 7, 64, 1024, 4096]


@pytest.mark.parametrize("degree", [0, 1, 16, 64, 127, 300])
def test_uniform_grid_evaluation_matches_eval_curve(degree):
    # n <= 2*degree is included: an inverse FFT of length n would fold
    # modes together there.  The coefficients decay like a smooth curve's;
    # eval_curve's own phase error k*u*eps grows with k, so undamped high
    # modes would measure eval_curve, not the FFT.
    rng = np.random.default_rng(degree)
    curve = _random_curve(degree, rng, decay=3.0)
    for n in UNIFORM_SIZES:
        u = 2.0 * np.pi * np.arange(n) / n
        _assert_outputs_close(_eval_uniform(curve, n), eval_curve(curve, u),
                              1e-13)
    u = rng.uniform(0.0, 2.0 * np.pi, 500)
    _assert_outputs_close(_eval_running(curve, u), eval_curve(curve, u), 1e-13)


@pytest.mark.parametrize("degree", [16, 127, 300])
def test_uniform_grid_evaluation_is_exact_for_unit_modes(degree):
    # Against e^{iku_j} at the exactly reduced angle 2*pi*(k*j mod n)/n,
    # undamped modes agree to a few ulps of each output's largest value.
    curve = _random_curve(degree, np.random.default_rng(degree))
    k = np.arange(degree + 1)
    for n in UNIFORM_SIZES:
        phase = 2.0 * np.pi * (np.multiply.outer(np.arange(n), k) % n) / n
        want = tuple((np.exp(1j * phase) @ _spectra(curve).T).real.T)
        _assert_outputs_close(_eval_uniform(curve, n), want, 1e-14)


def test_fit_reproduces_fourier_coefficients():
    c = builtin_curve("wobble")
    n = 64
    u = 2.0 * np.pi * np.arange(n) / n
    alpha, beta, *_ = eval_curve(c, u)
    fitted = fit_curve(alpha, beta, degree=c.degree)
    np.testing.assert_allclose(fitted.alpha_cos, c.alpha_cos, atol=1e-14)
    np.testing.assert_allclose(fitted.alpha_sin, c.alpha_sin, atol=1e-14)
    np.testing.assert_allclose(fitted.beta_cos, c.beta_cos, atol=1e-14)
    np.testing.assert_allclose(fitted.beta_sin, c.beta_sin, atol=1e-14)


def test_fit_rejects_underresolved_degree():
    with pytest.raises(ValidationError):
        fit_curve(np.zeros(16), np.zeros(16), degree=8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValidationError, match="must be finite"):
        PeriodicCurve([0.0, 1.0], [0.0, bad], [0.0], [0.0, -1.0])
    with pytest.raises(ValidationError, match="must be finite"):
        PeriodicCurve.from_dict({
            "alpha_cos": [0, 1], "alpha_sin": [0, 0], "beta_cos": [bad],
            "beta_sin": [0, -1]})
    # A non-finite extrapolation cannot become a fitted curve either.
    samples = np.cos(U)
    samples[7] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        fit_curve(samples, np.sin(U), degree=4)


def test_non_numeric_coefficients_are_rejected():
    with pytest.raises(ValidationError, match="must be numbers"):
        PeriodicCurve.from_dict({"alpha_cos": ["a"], "alpha_sin": [0.0],
                                 "beta_cos": [0.0], "beta_sin": [0.0]})


@pytest.mark.parametrize("coefficients", [
    ([[1.0, 0.0]], [0.0], [0.0], [0.0, -1.0]),
    ([[1.0], [0.0]], [[0.0], [0.0]], [[0.0], [0.0]], [[0.0], [-1.0]]),
    ([], [], [], []),
], ids=["one-nested", "all-nested", "all-empty"])
def test_coefficients_must_be_flat_and_not_all_empty(coefficients):
    # Each used to end in a ValueError or IndexError from the padding.
    with pytest.raises(ValidationError, match="must be flat lists"):
        PeriodicCurve(*coefficients)


def test_from_dict_reports_missing_key():
    with pytest.raises(ValidationError):
        PeriodicCurve.from_dict({"alpha_cos": [1.0]})


@pytest.mark.parametrize("data", [5, [1], "a", None])
def test_from_dict_rejects_a_non_object(data):
    with pytest.raises(ValidationError, match="curve literal must be an object"):
        PeriodicCurve.from_dict(data)


def test_builtin_names_are_sorted_and_resolvable():
    names = builtin_curve_names()
    assert names == tuple(sorted(names))
    for name in names:
        builtin_curve(name)
    with pytest.raises(ValidationError):
        builtin_curve("astroid")


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=-6.0, max_value=6.0))
def test_classification_is_shift_invariant(c):
    rep = classify_curve(builtin_curve("ellipse").shift(c))
    assert rep.strictly_convex and rep.embedded
    assert rep.orientation == "negative"


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.0, max_value=0.2),
       st.floats(min_value=0.0, max_value=2 * np.pi))
def test_small_perturbations_stay_convex(eps, phase):
    # Degree-3 ripple on the circle; curvature stays negative for small eps.
    base = builtin_curve("circle")
    ripple = PeriodicCurve(
        [0.0, 1.0, 0.0, 0.1 * eps * np.cos(phase)],
        [0.0],
        base.beta_cos,
        base.beta_sin,
    )
    rep = classify_curve(ripple)
    assert rep.regular
    if eps < 0.05:
        assert rep.strictly_convex


# Reports as classified by the O(n^2) polyline test alone.  None marks a
# u_star that only round-off picks: the convexity expression of circle and
# ellipse is constant, so every u is a minimiser.  A pair (u, period) marks
# minima tied across a period: remark42 is traced twice per period, so its
# convexity expression reaches -4.0 at both pi/2 and 3*pi/2, and the grid
# values' round-off picks one of them.  Reversed limacon has alpha even and
# beta odd in u, so its convexity expression is even with its minimum at
# u = 0, which round-off may report as 2*pi.
GALLERY_REPORTS = {
    ("circle", False): (0.9999999999999999, 0.9999999999999998, "negative",
                        True, True, True, None),
    ("circle", True): (0.9999999999999999, -1.0000000000000002, "positive",
                       True, False, True, None),
    ("ellipse", False): (0.6, 0.47999999999999987, "negative",
                         True, True, True, None),
    ("ellipse", True): (0.6, -0.48000000000000015, "positive",
                        True, False, True, None),
    ("limacon", False): (0.25, 0.1875, "negative",
                         True, True, False, 3.141592653589793),
    ("limacon", True): (0.25, -0.9375000000000001, "positive",
                        True, False, False, (0.0, 2 * np.pi)),
    ("remark42", False): (0.42607077853264674, 0.0, "degenerate",
                          True, False, False, 0.0),
    ("remark42", True): (0.42607077853264674, -4.0, "positive",
                         True, False, False, (np.pi / 2, np.pi)),
    ("wobble", False): (0.8, 0.72, "negative", True, True, True,
                        3.141592653589793),
    ("wobble", True): (0.8, -1.1199999999999999, "positive",
                       True, False, True, 0.0),
}


@pytest.mark.parametrize("name,reverse", sorted(GALLERY_REPORTS))
def test_gallery_reports_are_unchanged(name, reverse):
    curve = builtin_curve(name).reverse() if reverse else builtin_curve(name)
    rep = classify_curve(curve)
    reg, conv, orientation, regular, convex, embedded, u_star = \
        GALLERY_REPORTS[name, reverse]
    assert isinstance(rep, CurveReport)
    assert rep.regularity_margin == pytest.approx(reg, rel=1e-12, abs=1e-12)
    assert rep.convexity_margin == pytest.approx(conv, rel=1e-12, abs=1e-12)
    assert (rep.orientation, rep.regular, rep.strictly_convex, rep.embedded) \
        == (orientation, regular, convex, embedded)
    if isinstance(u_star, tuple):
        u_star, period = u_star
        offset = (rep.u_star - u_star) % period
        assert min(offset, period - offset) <= 1e-12
    elif u_star is not None:
        assert rep.u_star == pytest.approx(u_star, rel=1e-12, abs=1e-12)
    # Wherever the tie falls, u_star is where the margin is attained.
    _, _, da, db, dda, ddb = eval_curve(curve, rep.u_star)
    assert dda * db - da * ddb == pytest.approx(rep.convexity_margin,
                                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_u_star_follows_a_shift_of_the_curve(seed, benchmark_workloads):
    # u_star of gamma(u + s) is u_star(gamma) - s only if both are the true
    # minimiser; a polish that stops short of it moves with the grid.
    rng = np.random.default_rng([seed, 2])
    for _ in range(4):
        curve = PeriodicCurve.from_dict(benchmark_workloads.convex_curve(rng))
        # Odd modes only: gamma(u + pi) = -gamma(u), so minima tie across pi.
        odd = not any(np.any(getattr(curve, name)[::2]) for name in
                      ("alpha_cos", "alpha_sin", "beta_cos", "beta_sin"))
        period = np.pi if odd else 2 * np.pi
        u_star = classify_curve(curve).u_star
        for s in (0.3, 1.1, 2.9):
            offset = (classify_curve(curve.shift(s)).u_star - u_star + s) % period
            assert min(offset, period - offset) <= 1e-12, (seed, s)


@pytest.mark.parametrize("degree", [0, 1, 5, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refined_min_finds_the_minimum_of_the_series(degree, seed):
    # A random trigonometric polynomial of degree 2*degree on classify's grid.
    rng = np.random.default_rng([seed, degree])
    n = max(JORDAN_SAMPLES, 8 * (degree + 1))
    k = np.arange(2 * degree + 1)
    a, b = rng.standard_normal((2, k.size))
    grid = 2 * np.pi * np.arange(n) / n
    values = np.cos(np.outer(grid, k)) @ a + np.sin(np.outer(grid, k)) @ b
    value, u = _refined_min(values, degree)
    assert value <= values.min()
    slope = np.sum(k * (b * np.cos(k * u) - a * np.sin(k * u)))
    assert abs(slope) <= 1e-12 * np.sum(k * (np.abs(a) + np.abs(b)))
    assert value == pytest.approx(np.cos(k * u) @ a + np.sin(k * u) @ b,
                                  rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("degree", [0, 16])
def test_refined_min_of_a_constant_keeps_the_grid_point(degree):
    values = np.full(JORDAN_SAMPLES, 0.48)
    assert _refined_min(values, degree) == (0.48, 0.0)


def _complex_curve(modes: dict) -> PeriodicCurve:
    """alpha + i beta = sum of c_k exp(i k u) over the given modes."""
    degree = max(abs(k) for k in modes)
    a_c, a_s, b_c, b_s = (np.zeros(degree + 1) for _ in range(4))
    for k, c in modes.items():
        sign = 1.0 if k >= 0 else -1.0
        # c exp(iku) = (a + ib)(cos |k|u + i sign sin |k|u)
        a_c[abs(k)] += c.real
        a_s[abs(k)] -= sign * c.imag
        b_c[abs(k)] += c.imag
        b_s[abs(k)] += sign * c.real
    return PeriodicCurve(a_c, a_s, b_c, b_s)


_coefficient = st.floats(min_value=-0.02, max_value=0.02)


@settings(deadline=None, max_examples=12)
@given(m=st.sampled_from([-2, 2, 3]), looped=st.booleans(),
       t=st.floats(min_value=0.0, max_value=1.0),
       phase=st.floats(min_value=0.0, max_value=2 * np.pi),
       scale=st.floats(min_value=0.2, max_value=5.0),
       noise=st.lists(st.tuples(_coefficient, _coefficient),
                      min_size=7, max_size=7),
       reverse=st.booleans())
@example(m=2, looped=True, t=0.0, phase=0.0, scale=1.0,
         noise=[(0.0, 0.0)] * 7, reverse=False)
@example(m=3, looped=True, t=0.5, phase=1.0, scale=0.5,
         noise=[(0.0, 0.0)] * 7, reverse=True)
def test_turning_number_agrees_with_polyline(m, looped, t, phase, scale,
                                             noise, reverse):
    # exp(iu) + rho exp(imu) has sign-definite convexity with turning number
    # 1 for rho < 1/m^2 and m for rho > 1/|m|; the looped draws keep rho at
    # 2/|m| or more, so the inner loops span many polyline samples.
    rho = (2.0 / abs(m) + t) if looped else 0.8 * t / m ** 2
    modes = {k: complex(*c) for k, c in zip(range(-3, 4), noise)}
    modes[1] = modes[1] + 1.0
    modes[m] = modes[m] + rho
    rotation = scale * np.exp(1j * phase)
    curve = _complex_curve({k: rotation * c for k, c in modes.items()})
    if reverse:
        curve = curve.reverse()

    u = np.linspace(0.0, 2 * np.pi, JORDAN_SAMPLES, endpoint=False)
    alpha, beta, da, db, dda, ddb = eval_curve(curve, u)
    speed2 = da * da + db * db
    conv = dda * db - da * ddb
    # Keep curves whose convexity keeps one sign with room to spare, and
    # whose tangent turns by at most 0.05 rad between polyline samples.
    assume(np.min(np.abs(conv)) > 1e-3 * scale ** 2)
    assume(np.all(conv > 0) or np.all(conv < 0))
    assume(np.max(np.abs(conv) / speed2) * (u[1] - u[0]) < 0.05)

    rep = classify_curve(curve)
    oracle = not _polyline_self_intersects(np.column_stack([alpha, beta]))
    assert rep.embedded == oracle
    assert rep.embedded == (not looped)
