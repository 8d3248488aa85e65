"""Field evaluation and the march against their per-component forms.

A field folds its constant coefficients to scalars once, checks the box
once per (5, ...) state block, and the march reuses the values of its
post-step check in the next step's k1 stage.  The reference code below
is the field evaluation as first written: a box check per component,
every coefficient evaluated and broadcast on every call, and a march
that evaluates the field at every RK4 stage.  Values must agree bit for
bit, and failures must raise the same exception with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_singular.coeffs import (
    DEFAULT_BOX,
    CoefficientField,
    box_violation,
    builtin_field,
    eval_field,
)
from ma_singular.curves import builtin_curve, eval_curve
from ma_singular.errors import EllipticityError, FieldEvalError, OutOfBoxError
from ma_singular.expr import VARIABLES, evaluate
from ma_singular.march import MarchParams, march, spectral_du, stability_monitor

# ---------------------------------------------------------------------------
# Reference code: per-component box check, every coefficient on every call


def reference_box_violation(field, state):
    for name, values in zip(VARIABLES, state):
        lo, hi = field.box[name]
        arr = np.asarray(values, dtype=float)
        bad = ~((arr >= lo) & (arr <= hi))
        if np.any(bad):
            if arr.ndim == 0:
                return name, None, float(arr)
            idx = int(np.argmax(bad.ravel()))
            return name, idx, float(arr.ravel()[idx])
    return None


def reference_eval_field(field, state):
    violation = reference_box_violation(field, state)
    if violation is not None:
        name, idx, value = violation
        lo, hi = field.box[name]
        where = "" if idx is None else f" at index {idx}"
        raise OutOfBoxError(
            f"{name}={value!r} outside [{lo}, {hi}]{where}",
            variable=name, index=idx)

    env = dict(zip(VARIABLES, (np.asarray(v, dtype=float) for v in state)))
    shape = np.broadcast_shapes(*(env[name].shape for name in VARIABLES))
    values = []
    with np.errstate(all="ignore"):
        for label in ("A", "B", "C", "E"):
            raw = evaluate(getattr(field, label), env)
            arr = np.broadcast_to(np.asarray(raw, dtype=float), shape)
            if not np.all(np.isfinite(arr)):
                idx = int(np.argmax(~np.isfinite(arr).ravel())) if shape else None
                where = "" if idx is None else f" at index {idx}"
                raise FieldEvalError(f"coefficient {label} is non-finite{where}")
            values.append(arr)
    a, b, c, e = values
    disc = a * c - b * b + e
    if not np.all(disc > 0):
        flat = np.atleast_1d(~(disc > 0)).ravel()
        idx = int(np.argmax(flat)) if shape else None
        worst = float(np.min(disc))
        raise EllipticityError(
            f"ellipticity D = A*C - B^2 + E not positive (min {worst!r})",
            index=idx)
    if not shape:
        return tuple(float(v) for v in (a, b, c, e, disc))
    return a, b, c, e, disc


def reference_assemble_rhs(level, field):
    x, y, z, p, q = level
    x_u, y_u, p_u, q_u = spectral_du(level[[0, 1, 3, 4]])
    a, b, c, e, disc = reference_eval_field(field, (x, y, z, p, q))
    root = np.sqrt(disc)
    x_v = (b * x_u - a * y_u - q_u) / root
    y_v = (c * x_u - b * y_u + p_u) / root
    z_v = ((b * p + c * q) * x_u - (a * p + b * q) * y_u
           + q * p_u - p * q_u) / root
    p_v = (-e * y_u + b * p_u + c * q_u) / root
    q_v = (e * x_u - a * p_u - b * q_u) / root
    return np.stack([x_v, y_v, z_v, p_v, q_v])


def reference_filter(level, params):
    k = np.arange(params.n_u // 2 + 1, dtype=float)
    k_cut = params.filter_cutoff * (params.n_u / 2)
    f = -np.expm1(-params.filter_strength * (k / k_cut) ** params.filter_order)
    f[f < 1e-18] = 0.0
    return level - np.fft.irfft(f * np.fft.rfft(level), n=level.shape[-1])


def reference_march(curve, field, params):
    """(states, min_disc, high_frac) of a strip that completes unskipped."""
    u = 2.0 * np.pi * np.arange(params.n_u) / params.n_u
    alpha, beta, *_ = eval_curve(curve, u)
    zeros = np.zeros(params.n_u)
    level = np.stack([zeros, zeros.copy(), zeros.copy(), alpha, beta])
    sign = -1.0 if params.negative_v else 1.0
    levels = [level]
    discs = [float(np.min(reference_eval_field(field, tuple(level))[4]))]
    fracs = [stability_monitor(level, params)[0]]
    v_now, step = 0.0, 0
    while v_now < params.R - 1e-12 * params.R:
        h = min(params.dv, params.R - v_now)
        k1 = reference_assemble_rhs(level, field)
        k2 = reference_assemble_rhs(level + 0.5 * sign * h * k1, field)
        k3 = reference_assemble_rhs(level + 0.5 * sign * h * k2, field)
        k4 = reference_assemble_rhs(level + sign * h * k3, field)
        level = level + (sign * h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        level = reference_filter(level, params)
        v_now = (step + 1) * params.dv if h == params.dv else params.R
        step += 1
        frac, exceeded = stability_monitor(level, params)
        assert not exceeded
        levels.append(level)
        discs.append(float(np.min(reference_eval_field(field, tuple(level))[4])))
        fracs.append(frac)
    return np.stack(levels), np.array(discs), np.array(fracs)


# ---------------------------------------------------------------------------
# eval_field on drawn fields and states

_LEAVES = ["0", "1", "2.5", "-1", "1/0", "log(0)", "0 - 1", "0/0",
           "x", "y", "z", "p", "q"]


def _expressions(max_leaves=3):
    leaf = st.sampled_from(_LEAVES)

    def extend(inner):
        return st.one_of(
            st.builds("{}({})".format,
                      st.sampled_from(["sin", "exp", "log", "sqrt"]), inner),
            st.builds("({}) {} ({})".format, inner,
                      st.sampled_from(["+", "-", "*", "/", "^"]), inner))

    return st.recursive(leaf, extend, max_leaves=max_leaves)


# Mostly elliptic fields, so that the success path is drawn as often as
# each failure; the E = "1/0", "log(0)" and "0 - 1" leaves fail on purpose.
_E = st.one_of(st.sampled_from(["1", "1 + p^4", "2 + sin(x)", "1/0", "log(0)",
                                "0 - 1", "exp(q)"]),
               st.builds("3 + ({})".format, _expressions()))
_ABC = st.one_of(st.sampled_from(["0", "0", "p^2", "0.5", "x*y"]),
                 _expressions(max_leaves=2))


@st.composite
def fields(draw):
    return CoefficientField.from_dict({
        "A": draw(_ABC), "B": draw(_ABC), "C": draw(_ABC), "E": draw(_E),
        "box": DEFAULT_BOX})


@st.composite
def states(draw):
    """Five components of one shape: (), (n,) or (L, n).

    Inside the box (edges included), with one entry pushed outside, or
    with one entry NaN.
    """
    shape = draw(st.sampled_from([(), (1,), (7,), (2, 5), (3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = np.stack([rng.uniform(*DEFAULT_BOX[name], size=shape)
                      for name in VARIABLES])
    size = int(np.prod(shape, dtype=int))
    edge = draw(st.sampled_from(["none", "lo", "hi"]))
    if edge != "none":
        row = draw(st.integers(0, 4))
        lo, hi = DEFAULT_BOX[VARIABLES[row]]
        flat = draw(st.integers(0, size - 1))
        block.reshape(5, -1)[row, flat] = lo if edge == "lo" else hi
    kind = draw(st.sampled_from(["inside", "inside", "outside", "nan"]))
    if kind != "inside":
        row = draw(st.integers(0, 4))
        flat = draw(st.integers(0, size - 1))
        lo, hi = DEFAULT_BOX[VARIABLES[row]]
        bad = np.nan if kind == "nan" else draw(st.sampled_from(
            [lo - 1.0, hi + 1.0, np.nextafter(hi, np.inf), -np.inf]))
        block.reshape(5, -1)[row, flat] = bad
    return tuple(np.asarray(row) if shape else float(row) for row in block)


def _outcome(fn, field, state):
    try:
        return fn(field, state), None
    except FieldEvalError as err:
        return None, err


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def assert_same_evaluation(field, state):
    got, err = _outcome(eval_field, field, state)
    want, want_err = _outcome(reference_eval_field, field, state)
    if want_err is not None:
        assert err is not None, want_err
        assert type(err) is type(want_err)
        assert str(err) == str(want_err)
        assert getattr(err, "variable", None) == getattr(want_err, "variable", None)
        assert getattr(err, "index", None) == getattr(want_err, "index", None)
        return
    assert err is None, err
    assert len(got) == 5
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert _same_bits(g, w)


@settings(max_examples=50, deadline=None)
@given(fields(), states())
def test_eval_field_matches_reference(field, state):
    # repr, so that a NaN value compares equal to itself
    assert repr(box_violation(field, state)) == repr(
        reference_box_violation(field, state))
    assert_same_evaluation(field, state)


@pytest.mark.parametrize("B", ["0", "p^2"])
@pytest.mark.parametrize("E", ["1", "1/0", "log(0)", "0 - 1", "1 + p^4"])
@pytest.mark.parametrize("shape", [(), (6,), (2, 3), (0,)])
def test_constant_and_variable_fields_match_reference(B, E, shape):
    field = CoefficientField.from_dict({"A": "0", "B": B, "C": "0",
                                        "E": E, "box": DEFAULT_BOX})
    rng = np.random.default_rng(3)
    state = tuple(rng.uniform(-0.5, 0.5, size=shape) for _ in VARIABLES)
    assert_same_evaluation(field, state)


@pytest.mark.parametrize("bad", [None, "x", "y"])
def test_components_of_different_shapes_match_reference(bad):
    # Box violations are indexed within the component as given.
    x = 0.25
    y = np.array([[0.5], [-0.5]])
    p = np.linspace(-1.0, 1.0, 3)
    if bad == "x":
        x = 5.0
    elif bad == "y":
        y = np.array([[0.5], [-2.0]])
    state = (x, y, np.zeros((1, 3)), p, 0.0)
    assert_same_evaluation(builtin_field("remark42"), state)


def test_pure_reads_the_folded_constants():
    def field(A):
        return CoefficientField.from_dict({"A": A, "B": "0 * 1", "C": "-0",
                                           "E": "1", "box": DEFAULT_BOX})

    assert field("0").pure and field("1 - 1").pure
    assert not field("0 * x").pure and not field("0/0").pure
    assert not field("1").pure


# ---------------------------------------------------------------------------
# The march


@pytest.mark.parametrize("curve, field, params", [
    ("circle", "pure-one", MarchParams()),
    ("wobble", "pure-one", MarchParams()),
    ("remark42", "remark42", MarchParams(n_u=256, R=0.05)),
    ("ellipse", "pure-one", MarchParams(R=0.05, negative_v=True)),
])
def test_march_matches_reference_bitwise(curve, field, params):
    strip = march(builtin_curve(curve), builtin_field(field), params)
    states, min_disc, high_frac = reference_march(
        builtin_curve(curve), builtin_field(field), params)
    assert strip.status == "completed" and strip.levels_skipped == 0
    assert np.array_equal(strip.states, states)
    assert np.array_equal(strip.min_disc, min_disc)
    assert np.array_equal(strip.high_frac, high_frac)
