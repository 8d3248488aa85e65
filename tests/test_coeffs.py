"""Coefficient fields, the domain box, and ellipticity checks."""

import numpy as np
import pytest

from ma_singular.coeffs import (
    DEFAULT_BOX,
    CoefficientField,
    box_violation,
    builtin_field,
    builtin_field_names,
    eval_field,
    pure_field,
)
from ma_singular.errors import (
    EllipticityError,
    FieldEvalError,
    OutOfBoxError,
    ValidationError,
)

ORIGIN = (0.0, 0.0, 0.0, 0.0, 0.0)


def test_pure_field_zeroes_abc():
    f = pure_field("1 + p^4")
    A, B, C, E, disc = eval_field(f, (0.0, 0.0, 0.0, 1.0, 0.0))
    assert (A, B, C, E) == (0.0, 0.0, 0.0, 2.0)
    assert disc == 2.0


def test_default_box_bounds():
    f = pure_field("1")
    assert f.box == DEFAULT_BOX
    assert f.box["p"] == (-4.0, 4.0) and f.box["x"] == (-1.0, 1.0)


def test_remark42_field_is_not_pure_and_has_unit_disc():
    f = builtin_field("remark42")
    rng = np.random.default_rng(7)
    state = tuple(rng.uniform(*f.box[n], size=200)
                  for n in ("x", "y", "z", "p", "q"))
    _, B, _, E, disc = eval_field(f, state)
    np.testing.assert_allclose(disc, 1.0, atol=1e-13)
    np.testing.assert_allclose(B, state[3] ** 2)
    np.testing.assert_allclose(E, 1.0 + state[3] ** 4)


def test_eval_field_scalar_returns_floats():
    out = eval_field(builtin_field("pure-one"), ORIGIN)
    assert all(isinstance(v, float) for v in out)
    assert out == (0.0, 0.0, 0.0, 1.0, 1.0)


def test_box_violation_reports_first_variable_and_index():
    f = pure_field("1")
    state = (np.array([0.0, 0.0]), np.array([0.0, 0.0]),
             np.array([0.0, 2.0]), np.array([0.0, 0.0]),
             np.array([0.0, 0.0]))
    name, idx, value = box_violation(f, state)
    assert (name, idx, value) == ("z", 1, 2.0)


def test_box_violation_catches_nan():
    f = pure_field("1")
    state = (np.array([np.nan]), np.array([0.0]), np.array([0.0]),
             np.array([0.0]), np.array([0.0]))
    assert box_violation(f, state)[0] == "x"


def test_box_violation_none_inside():
    assert box_violation(pure_field("1"), ORIGIN) is None


def test_eval_field_raises_out_of_box():
    with pytest.raises(OutOfBoxError) as info:
        eval_field(pure_field("1"), (0.0, 0.0, 0.0, 5.0, 0.0))
    assert info.value.variable == "p"


def test_eval_field_raises_on_lost_ellipticity():
    f = CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": "z",
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-4, 4], "q": [-4, 4]}})
    with pytest.raises(EllipticityError):
        eval_field(f, (0.0, 0.0, -0.5, 0.0, 0.0))


def test_eval_field_raises_on_non_finite_coefficient():
    f = CoefficientField.from_dict({
        "A": "0", "B": "0", "C": "0", "E": "1 / x",
        "box": {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1],
                "p": [-4, 4], "q": [-4, 4]}})
    with pytest.raises(FieldEvalError):
        eval_field(f, ORIGIN)


def test_eval_field_broadcasts():
    p = np.linspace(-1, 1, 11)
    zeros = np.zeros_like(p)
    A, B, C, E, disc = eval_field(builtin_field("remark42"),
                                  (zeros, zeros, zeros, p, zeros))
    assert B.shape == p.shape and np.all(disc > 0)


def test_dict_round_trip_preserves_expressions():
    f = builtin_field("remark42")
    back = CoefficientField.from_dict(f.to_dict())
    assert back.to_dict() == f.to_dict()


@pytest.mark.parametrize("data", [5, [1], "a", None])
def test_from_dict_rejects_a_non_object(data):
    with pytest.raises(ValidationError, match="field literal must be an object"):
        CoefficientField.from_dict(data)


@pytest.mark.parametrize("box", [
    {"x": (1.0, -1.0), "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4)},
    {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "p": (-4, 4)},
    {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4),
     "w": (-1, 1)},
    5,
    [("x", (-1, 1))],
    {"x": "ab", "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4)},
    {"x": [None, 1], "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4)},
    {"x": [True, 1], "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4)},
    {"x": (-1, 0, 1), "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4)},
    {"x": 1, "y": (-1, 1), "z": (-1, 1), "p": (-4, 4), "q": (-4, 4)},
    {"x": (-10 ** 400, 1), "y": (-1, 1), "z": (-1, 1), "p": (-4, 4),
     "q": (-4, 4)},
])
def test_bad_boxes_are_rejected(box):
    with pytest.raises(ValidationError):
        pure_field("1", box=box)


def test_bad_expression_is_rejected_at_construction():
    with pytest.raises(ValidationError):
        pure_field("1 +")


def test_builtin_names():
    assert builtin_field_names() == ("pure-one", "remark42")
    with pytest.raises(ValidationError):
        builtin_field("linear")
