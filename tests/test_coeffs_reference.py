"""Field evaluation and the march against their per-component forms.

A field folds its constant coefficients to scalars once, checks the box
once per (5, ...) state block, and the march reuses the values of its
post-step check in the next step's k1 stage.  The reference code below
is the field evaluation as first written: a box check per component,
every coefficient evaluated and broadcast on every call, and a march
that evaluates the field at every RK4 stage.  The march differentiates
and monitors with its own copies of the first formulas, so it follows
none of the package code it checks.  Values must agree bit for bit, and
failures must raise the same exception with the same message.
"""

import dataclasses
import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_singular.coeffs import (
    DEFAULT_BOX,
    CoefficientField,
    _field_values,
    box_violation,
    builtin_field,
    eval_field,
    pure_field,
)
from ma_singular.curves import PeriodicCurve, builtin_curve, eval_curve
from ma_singular.errors import (
    EllipticityError,
    FieldEvalError,
    OutOfBoxError,
    SingularJacobianError,
    ValidationError,
)
from ma_singular.expr import VARIABLES, evaluate
from ma_singular.geometry import (
    _strip_analysis,
    jacobian,
    patch_to_csv,
    pde_residual,
    reconstruct_graph,
    strip_to_csv,
)
from ma_singular.march import (
    MarchParams,
    StripSolution,
    assemble_rhs,
    march,
    spectral_du,
    stability_monitor,
)

march_module = importlib.import_module("ma_singular.march")

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


def reference_du(values):
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    spec *= 1j * np.arange(n // 2 + 1)
    spec[..., -1] = 0.0
    return np.fft.irfft(spec, n=n)


def reference_stability_monitor(level):
    level = np.atleast_2d(np.asarray(level))
    spec = level if np.iscomplexobj(level) else \
        np.fft.rfft(np.asarray(level, dtype=float))
    n_bins = spec.shape[-1]
    weights = np.full(n_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    energy = weights * np.abs(spec) ** 2
    k_band = (2 * (n_bins - 1)) // 3
    total = np.sum(energy, axis=-1)
    high = np.sum(energy[..., k_band + 1:], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(total > 1e-300, high / np.maximum(total, 1e-300), 0.0)
    worst = float(np.max(frac))
    return worst, worst > march_module.MONITOR_THRESHOLD


def reference_assemble_rhs(level, field, level_u=None):
    x, y, z, p, q = level
    x_u, y_u, p_u, q_u = (reference_du(level[[0, 1, 3, 4]]) if level_u is None
                          else level_u[[0, 1, 3, 4]])
    a, b, c, e, disc = reference_eval_field(field, (x, y, z, p, q))
    root = np.sqrt(disc)
    x_v = (b * x_u - a * y_u - q_u) / root
    y_v = (c * x_u - b * y_u + p_u) / root
    z_v = ((b * p + c * q) * x_u - (a * p + b * q) * y_u
           + q * p_u - p * q_u) / root
    p_v = (-e * y_u + b * p_u + c * q_u) / root
    q_v = (e * x_u - a * p_u - b * q_u) / root
    return np.stack([x_v, y_v, z_v, p_v, q_v])


def reference_filter(level):
    n = level.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    k_cut = march_module.FILTER_CUTOFF * (n / 2)
    f = -np.expm1(-march_module.FILTER_STRENGTH
                  * (k / k_cut) ** march_module.FILTER_ORDER)
    f[f < 1e-18] = 0.0
    return level - np.fft.irfft(f * np.fft.rfft(level), n=level.shape[-1])


def reference_march(curve, field, params):
    """(states, min_disc, high_frac) of a strip that completes unskipped."""
    u = 2.0 * np.pi * np.arange(params.n_u) / params.n_u
    alpha, beta, *_ = eval_curve(curve, u)
    zeros = np.zeros(params.n_u)
    level = np.stack([zeros, zeros.copy(), zeros.copy(), alpha, beta])
    levels = [level]
    discs = [float(np.min(reference_eval_field(field, tuple(level))[4]))]
    fracs = [reference_stability_monitor(level)[0]]
    # On up to 128 points the stages after k1 differentiate by the matrix
    # of the derivative of each unit vector.
    matrix = reference_du(np.eye(params.n_u)) if params.n_u <= 128 else None

    def stage_rhs(stage):
        stage_u = None if matrix is None else stage @ matrix
        return reference_assemble_rhs(stage, field, stage_u)

    v_now, step = 0.0, 0
    while v_now < params.R - 1e-12 * params.R:
        h = min(params.dv, params.R - v_now)
        k1 = reference_assemble_rhs(level, field)
        k2 = stage_rhs(level + 0.5 * h * k1)
        k3 = stage_rhs(level + 0.5 * h * k2)
        k4 = stage_rhs(level + h * k3)
        level = level + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        level = reference_filter(level)
        v_now = (step + 1) * params.dv if h == params.dv else params.R
        step += 1
        frac, exceeded = reference_stability_monitor(level)
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


# ---------------------------------------------------------------------------
# The march


#: Every coefficient depends on the state, so no RHS row multiplies a
#: folded scalar.
VARYING = CoefficientField.from_dict({"A": "0.01*x", "B": "0.3*y*p",
                                      "C": "0.1*z", "E": "2 + z",
                                      "box": DEFAULT_BOX})
#: Four constants, none 0 and D = 1.05: no RHS term drops, no division.
CONSTANT = CoefficientField.from_dict({"A": "0.3", "B": "0.1", "C": "0.2",
                                       "E": "1", "box": DEFAULT_BOX})


@pytest.mark.parametrize("curve, field, params", [
    ("circle", "pure-one", MarchParams()),
    ("wobble", "pure-one", MarchParams()),
    ("remark42", "remark42", MarchParams(n_u=256, R=0.05)),
    # Positively oriented: J < 0 on the strip.
    (builtin_curve("ellipse").reverse(), "pure-one", MarchParams(R=0.05)),
    ("wobble", VARYING, MarchParams()),
    # First curve of each convex workload stream, seed 1.
    ("roundtrip-convex", "pure-one", MarchParams()),
    ("construct-convex", "pure-one", MarchParams()),
    ("wobble", CONSTANT, MarchParams()),
    # Only A, B and C drop; the division by sqrt(2) stays.
    ("ellipse", pure_field(2), MarchParams()),
])
def test_march_matches_reference_bitwise(curve, field, params,
                                         benchmark_workloads):
    if isinstance(curve, str):
        workload = benchmark_workloads.WORKLOADS.get(curve)
        if workload is None:
            curve = builtin_curve(curve)
        else:
            literal = next(workload.ops(1))[0].config["curve"]["literal"]
            curve = PeriodicCurve.from_dict(literal)
    if isinstance(field, str):
        field = builtin_field(field)
    strip = march(curve, field, params)
    states, min_disc, high_frac = reference_march(curve, field, params)
    assert strip.status == "completed" and strip.levels_skipped == 0
    # Bytes, so that the sign of every zero is pinned too.
    assert strip.states.tobytes() == states.tobytes()
    assert strip.min_disc.tobytes() == min_disc.tobytes()
    assert strip.high_frac.tobytes() == high_frac.tobytes()


def _small_box(E="1", x=1.0, pq=4.0):
    return CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": E,
        "box": {"x": [-x, x], "y": [-1, 1], "z": [-1, 1],
                "p": [-pq, pq], "q": [-pq, pq]}})


#: (curve, field, params, status, levels skipped) of marched strips: each
#: curve under each field, then the ellipse's strip below the axis (its
#: reverse marched up, where J < 0), a long one, one that skips a level and
#: three that stop early.
_HANDOFF = {
    f"{curve}-{name}": (curve, field,
                        MarchParams(n_u=256 if curve == "remark42" else 128,
                                    R=0.05), "completed", 0)
    for curve in ("circle", "wobble", "ellipse", "remark42")
    for name, field in (("pure-one", "pure-one"), ("remark42", "remark42"),
                        ("varying", VARYING), ("constant", CONSTANT))
}
_HANDOFF.update({
    "ellipse-negative-v": (builtin_curve("ellipse").reverse(), "pure-one",
                           MarchParams(R=0.05), "completed", 0),
    # 301 levels: more than the march makes room for at first.
    "circle-long": ("circle", "pure-one", MarchParams(dv=5e-4), "completed", 0),
    # The fifth monitored level trips the monitor and is not stored.
    "skipped-level": ("circle", "pure-one", MarchParams(R=0.02), "completed", 1),
    # A stage of the next step leaves the box.
    "stage-box-exit": ("circle", _small_box(x=0.05), MarchParams(),
                       "box-exit", 0),
    # The stepped state leaves the box, after the first step.
    "step-box-exit": ("circle", _small_box(pq=1.0000005), MarchParams(),
                      "box-exit", 0),
    "ellipticity": ("circle", _small_box("1 - 60*z"), MarchParams(),
                    "ellipticity", 0),
})


def _views(strip):
    """What the analysis gives of a strip, as bytes, text or the error."""
    def attempt(view):
        try:
            return view()
        except (ValidationError, SingularJacobianError) as err:
            return type(err).__name__, str(err)

    def residual():
        report = pde_residual(strip)
        return (report.max_abs, report.rms, report.level_indices,
                report.residuals.tobytes(), report.n_nodes)

    def patch():
        graph = reconstruct_graph(strip)
        return ({name: value.tobytes() if isinstance(value, np.ndarray)
                 else value for name, value in vars(graph).items()
                 if name not in ("field", "level_tables")},
                patch_to_csv(graph))

    J, min_positive = jacobian(strip)  # NaN on a strip of the axis alone
    return (J.tobytes(), np.float64(min_positive).tobytes(), attempt(residual),
            attempt(patch), strip_to_csv(strip))


@pytest.mark.parametrize("case", list(_HANDOFF) + ["replaced"])
def test_strip_carries_the_derivatives_of_its_states(case, monkeypatch):
    # A strip is its fields: the analysis takes Z_u and Z_v from its
    # states alone, with the bits of the k1 the march took at each level,
    # and a strip rebuilt from another's fields is analysed alike.
    curve, field, params, status, skipped = _HANDOFF.get(
        case, _HANDOFF["wobble-pure-one"])
    if case == "skipped-level":
        calls = []

        def trip_fifth_call(level):
            calls.append(level)
            frac, exceeded = stability_monitor(level)
            return frac, exceeded or len(calls) == 5

        monkeypatch.setattr(march_module, "stability_monitor", trip_fifth_call)
    slopes = {}

    def record_k1(level, field, values=None, *args):
        slope = assemble_rhs(level, field, values, *args)
        if values is not None:  # k1 reuses the values of its level's check
            slopes[level.tobytes()] = slope.tobytes()
        return slope

    monkeypatch.setattr(march_module, "assemble_rhs", record_k1)
    field = builtin_field(field) if isinstance(field, str) else field
    curve = builtin_curve(curve) if isinstance(curve, str) else curve
    strip = marched = march(curve, field, params)
    assert (strip.status, strip.levels_skipped) == (status, skipped)
    if case == "replaced":
        # Other states in the box: the analysis must read them.
        strip = dataclasses.replace(marched, states=0.5 * marched.states)
    Z = np.moveaxis(strip.states, -2, 0)
    Z_u = spectral_du(Z)
    Z_v = assemble_rhs(Z, strip.field)
    analysis = _strip_analysis(strip)
    assert analysis[1].tobytes() == Z_v.tobytes()
    assert analysis[2].J.tobytes() == (Z_u[0] * Z_v[1] - Z_v[0] * Z_u[1]).tobytes()
    if case == "replaced":
        assert analysis[1].tobytes() != _strip_analysis(marched)[1].tobytes()
    else:
        # Every stored level drove a step, save perhaps the last.
        driven = [k for k, level in enumerate(strip.states)
                  if level.tobytes() in slopes]
        assert len(driven) >= strip.n_levels - 1
        for k in driven:
            assert (np.ascontiguousarray(Z_v[:, k]).tobytes()
                    == slopes[strip.states[k].tobytes()])
    fields = dataclasses.fields(StripSolution)
    assert all(f.init for f in fields)
    rebuilt = StripSolution(**{f.name: getattr(strip, f.name) for f in fields})
    assert _views(rebuilt) == _views(strip)


def _monitored(kind):
    """A level, a stack of levels or a spectrum as the monitor takes it."""
    strip = march(builtin_curve("wobble"), builtin_field("pure-one"),
                  MarchParams(R=0.01))
    rng = np.random.default_rng(7)
    return {
        "level": strip.states[-1],
        "stack": strip.states,
        "spectrum": np.fft.rfft(strip.states),
        "odd-n": rng.normal(size=(5, 13)),
        "zero": np.zeros((5, 128)),
        # Large enough that the monitor guards its energy, finite still.
        "large": 1e151 * rng.normal(size=(5, 16)),
    }[kind]


@pytest.mark.parametrize("kind", ["level", "stack", "spectrum", "odd-n", "zero",
                                  "large"])
@pytest.mark.parametrize("threshold", [1e-3, 1e-30])
def test_monitor_matches_reference_bitwise(kind, threshold, monkeypatch):
    monkeypatch.setattr(march_module, "MONITOR_THRESHOLD", threshold)
    level = _monitored(kind)
    frac, exceeded = stability_monitor(level)
    want_frac, want_exceeded = reference_stability_monitor(level)
    assert type(frac) is float and type(exceeded) is type(want_exceeded)
    assert np.float64(frac).tobytes() == np.float64(want_frac).tobytes()
    assert exceeded == want_exceeded


# ---------------------------------------------------------------------------
# The RHS of a field with folded constants

#: Coefficient kinds: the constant 0 (its terms drop), another constant
#: and one that depends on the state.
_KINDS = {"A": ("0", "0.3", "0.3 + 0.1*x"),
          "B": ("0", "-0.2", "0.2*y*p"),
          "C": ("0", "0.4", "0.4 - 0.1*q")}


def _levels(shape):
    """Random levels inside the box, the first of them the axis level
    x = y = z = 0, so that x_u and y_u are exact zeros there."""
    rng = np.random.default_rng(11)
    level = rng.uniform(-0.5, 0.5, size=(5,) + shape)
    u = 2.0 * np.pi * np.arange(shape[-1]) / shape[-1]
    first = level[(slice(None),) + (0,) * (len(shape) - 1)]
    first[:3] = 0.0
    first[3], first[4] = np.cos(u), -np.sin(u)
    return level


@pytest.mark.parametrize("shape", [(64,), (3, 64)], ids=["level", "stack"])
@pytest.mark.parametrize("E", ["1", "2", "1 + p^4"])
@pytest.mark.parametrize("A", _KINDS["A"])
@pytest.mark.parametrize("B", _KINDS["B"])
@pytest.mark.parametrize("C", _KINDS["C"])
def test_rhs_matches_full_formula(A, B, C, E, shape):
    field = CoefficientField.from_dict({"A": A, "B": B, "C": C, "E": E,
                                        "box": DEFAULT_BOX})
    level = _levels(shape)
    want = reference_assemble_rhs(level, field)
    for values in (None, eval_field(field, tuple(level))):
        got = assemble_rhs(level, field, values)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # Only the sign of an exact zero may differ from the full formula.
        differs = got.view(np.uint64) != want.view(np.uint64)
        assert np.all(got[differs] == 0.0) and np.all(want[differs] == 0.0)


def _kind_pattern(field):
    """Whether each of A, B, C, E and D is the constant 0 or the constant 1:
    all that the terms of the RHS depend on."""
    return tuple((c is not None and c == 0, c is not None and c == 1)
                 for c in field._constants)


def test_rhs_plan_is_made_once_per_kind_pattern():
    plan = march_module._rhs_plan
    plan.cache_clear()
    level = _levels((64,))
    pure = [pure_field(1 + k / 100) for k in range(50)]
    for field in pure:
        assemble_rhs(level, field)
    assert plan.cache_info().misses == plan.cache_info().currsize == 2
    mixes = [CoefficientField.from_dict({"A": A, "B": B, "C": C, "E": E,
                                         "box": DEFAULT_BOX})
             for A, B, C, E in itertools.product(
                 _KINDS["A"], _KINDS["B"], _KINDS["C"], ["1", "2", "1 + p^4"])]
    assert len(mixes) == 81
    for field in mixes:
        for shape in [(64,), (3, 64)]:
            assemble_rhs(_levels(shape), field)
    patterns = {_kind_pattern(field) for field in pure + mixes}
    info = plan.cache_info()
    assert info.misses == info.currsize == len(patterns) < len(mixes)
    assert info.hits == 50 + 162 - len(patterns)
    # Seen again, no field adds a plan.
    for field in pure + mixes:
        assemble_rhs(level, field)
    assert plan.cache_info().currsize == len(patterns)


# ---------------------------------------------------------------------------
# Failures of a field of four constants, which folds its values


def _block(bad=()):
    block = np.random.default_rng(5).uniform(-0.5, 0.5, size=(5, 2, 3))
    for row, flat, value in bad:
        block[row].reshape(-1)[flat] = value
    return block


@pytest.mark.parametrize("literal, bad", [
    # Outside the box in q first and in y later: y is the one reported.
    ({}, [(4, 0, 9.0), (1, 4, -2.0)]),
    ({}, [(2, 5, np.nan)]),
    ({"E": "0 - 1"}, []),
    ({"B": "2"}, []),
    ({"A": "1/0"}, []),
    ({"C": "log(0)", "E": "0 - 1"}, []),
])
def test_folded_field_fails_on_every_call(literal, bad):
    field = CoefficientField.from_dict(
        {"A": "0", "B": "0", "C": "0", "E": "1", **literal, "box": DEFAULT_BOX})
    block = _block(bad)
    _, want = _outcome(reference_eval_field, field, tuple(block))
    assert want is not None
    for _ in range(2):
        with pytest.raises(FieldEvalError) as info:
            _field_values(field, block)
        err = info.value
        assert type(err) is type(want) and str(err) == str(want)
        assert getattr(err, "variable", None) == getattr(want, "variable", None)
        assert getattr(err, "index", None) == getattr(want, "index", None)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (0,)])
def test_folded_field_returns_what_it_folded(shape):
    field = builtin_field("pure-one")
    assert _field_values(field, np.zeros((5,) + shape)) is field._folded
