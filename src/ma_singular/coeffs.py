"""Coefficient fields A, B, C, E of the quasilinear equation.

A field packages four analytic expressions in the state variables
(x, y, z, p, q) together with a closed domain box.  Every evaluation
checks box membership and the ellipticity discriminant D = A*C - B^2 + E,
so nothing downstream ever consumes a state where the equation fails to
be elliptic.  A field folds its constant coefficients to scalars once,
when it is made, D too when all four are constant, and checks the box
once per (5, ...) state block.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError, FieldEvalError, OutOfBoxError, ValidationError
from .expr import Expr, Num, VARIABLES, evaluate, parse_expr, to_string, variables_of

__all__ = [
    "CoefficientField",
    "DEFAULT_BOX",
    "builtin_field",
    "builtin_field_names",
    "box_violation",
    "eval_field",
    "pure_field",
]

#: Default domain box: generous in the gradient, tight around the origin
#: in (x, y, z) where the singular solutions live.
DEFAULT_BOX = {
    "x": (-1.0, 1.0),
    "y": (-1.0, 1.0),
    "z": (-1.0, 1.0),
    "p": (-4.0, 4.0),
    "q": (-4.0, 4.0),
}

_ZERO = Num(0.0)


def _validate_box(box) -> dict[str, tuple[float, float]]:
    if not isinstance(box, Mapping) or set(box) != set(VARIABLES):
        raise ValidationError(
            f"box must bound exactly {', '.join(VARIABLES)}; got {box!r}")
    out = {}
    for name in VARIABLES:
        bounds = box[name]
        try:
            lo, hi = bounds
            if not all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                       for b in (lo, hi)):
                raise TypeError  # a string, null or boolean bound
            lo, hi = float(lo), float(hi)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"box[{name!r}] must be a [lo, hi] pair of "
                                  f"numbers, got {bounds!r}") from None
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValidationError(f"box[{name!r}] = [{lo}, {hi}] is not a valid range")
        out[name] = (lo, hi)
    return out


def _as_expr(value) -> Expr:
    return value if isinstance(value, Expr) else parse_expr(str(value))


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Immutable field (A, B, C, E) with its domain box."""

    A: Expr
    B: Expr
    C: Expr
    E: Expr
    box: dict

    def __post_init__(self):
        box = _validate_box(self.box)
        object.__setattr__(self, "box", box)
        # Bounds in VARIABLES order as a (5, 1) column, which a (5, n)
        # level compares against as it is.
        object.__setattr__(self, "_lo", np.array([[box[n][0]] for n in VARIABLES]))
        object.__setattr__(self, "_hi", np.array([[box[n][1]] for n in VARIABLES]))
        # Coefficients without variables are evaluated here, once; None
        # marks one that depends on the state, and D is constant when
        # A, B, C and E all are.  A non-finite constant or a constant
        # D <= 0 is kept as it is and reported when the field is evaluated.
        with np.errstate(all="ignore"):
            constants = [None if variables_of(e) else evaluate(e, {})
                         for e in (self.A, self.B, self.C, self.E)]
            a, b, c, e = constants
            constants.append(None if None in constants else a * c - b * b + e)
        object.__setattr__(self, "_constants", tuple(constants))
        # What every in-box evaluation returns when nothing depends on the
        # state and nothing fails; None sends evaluation down the checks.
        valid = (constants[4] is not None and all(map(math.isfinite, constants))
                 and constants[4] > 0)
        object.__setattr__(self, "_folded", tuple(constants) if valid else None)

    def to_dict(self) -> dict:
        return {
            "A": to_string(self.A),
            "B": to_string(self.B),
            "C": to_string(self.C),
            "E": to_string(self.E),
            "box": {name: list(self.box[name]) for name in VARIABLES},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoefficientField":
        if not isinstance(data, dict):
            raise ValidationError(f"field literal must be an object, got {data!r}")
        try:
            exprs = {name: _as_expr(data[name]) for name in ("A", "B", "C", "E")}
            box = data["box"]
        except KeyError as missing:
            raise ValidationError(f"field literal is missing key {missing}") from None
        return cls(exprs["A"], exprs["B"], exprs["C"], exprs["E"], box)


def pure_field(phi, box=None) -> CoefficientField:
    """det D^2 z = phi(x,y,z,p,q): A = B = C = 0, E = phi."""
    return CoefficientField(_ZERO, _ZERO, _ZERO, _as_expr(phi),
                            DEFAULT_BOX if box is None else box)


def box_violation(field: CoefficientField, state):
    """First (variable, flat_index, value) outside the box, or None.

    ``state`` is the (x, y, z, p, q) component sequence; components may be
    scalars or arrays.  For scalar states the index is None.
    """
    for name, values in zip(VARIABLES, state):
        lo, hi = field.box[name]
        arr = np.asarray(values, dtype=float)
        bad = ~((arr >= lo) & (arr <= hi))  # catches NaN too
        if np.any(bad):
            if arr.ndim == 0:
                return name, None, float(arr)
            idx = int(np.argmax(bad.ravel()))
            return name, idx, float(arr.ravel()[idx])
    return None


def _box_error(field: CoefficientField, state) -> OutOfBoxError:
    """The OutOfBoxError for the first violation ``box_violation`` finds."""
    name, idx, value = box_violation(field, state)
    lo, hi = field.box[name]
    where = "" if idx is None else f" at index {idx}"
    return OutOfBoxError(f"{name}={value!r} outside [{lo}, {hi}]{where}",
                         variable=name, index=idx)


def _field_values(field: CoefficientField, block):
    """(A, B, C, E, D) on a state block, with D = A*C - B^2 + E.

    ``block`` is a (5, ...) array, or five arrays of one shape, in the
    order x, y, z, p, q.  A constant coefficient comes back as a scalar,
    which gives the same bits in elementwise arithmetic as the array it
    stands for; every other value has the state shape.  A field of four
    valid constants returns the tuple it folded when it was made.  Raises
    as ``eval_field`` does.
    """
    states = np.asarray(block)
    lo, hi = field._lo, field._hi
    if states.ndim != 2:
        column = (5,) + (1,) * (states.ndim - 1)
        lo, hi = lo.reshape(column), hi.reshape(column)
    inside = states >= lo
    inside &= states <= hi  # NaN is outside
    if np.count_nonzero(inside) < inside.size:
        raise _box_error(field, block)
    if field._folded is not None:
        return field._folded

    shape = states.shape[1:]
    # Only a coefficient that depends on the state reads the variables.
    env = dict(zip(VARIABLES, block)) if None in field._constants else None
    values = []
    with np.errstate(all="ignore"):
        for label, expr, value in zip("ABCE", (field.A, field.B, field.C, field.E),
                                      field._constants[:4]):
            if value is None:
                value = evaluate(expr, env)
                finite = np.isfinite(value)
                if not finite.all():
                    idx = int(np.argmax(~finite.ravel())) if shape else None
                    where = "" if idx is None else f" at index {idx}"
                    raise FieldEvalError(f"coefficient {label} is non-finite{where}")
            elif not math.isfinite(value) and states.size:
                where = " at index 0" if shape else ""
                raise FieldEvalError(f"coefficient {label} is non-finite{where}")
            values.append(value)
    a, b, c, e = values
    disc = a * c - b * b + e
    if not (disc > 0).all() and states.size:
        flat = np.atleast_1d(~(disc > 0)).ravel()
        idx = int(np.argmax(flat)) if shape else None
        worst = float(np.min(disc))
        raise EllipticityError(
            f"ellipticity D = A*C - B^2 + E not positive (min {worst!r})",
            index=idx)
    return a, b, c, e, disc


def eval_field(field: CoefficientField, state):
    """Evaluate (A, B, C, E, D) at a state, with D = A*C - B^2 + E.

    Args:
        field: the coefficient field.
        state: sequence of five scalars or arrays (x, y, z, p, q).

    Returns:
        Five arrays (or scalars) broadcast to the common state shape.

    Raises:
        OutOfBoxError: a component leaves the domain box.
        FieldEvalError: a coefficient evaluates to NaN/inf inside the box.
        EllipticityError: D <= 0 at some state.
    """
    parts = [np.asarray(v, dtype=float) for v in state]
    block = np.broadcast_arrays(*parts)
    try:
        values = _field_values(field, block)
    except OutOfBoxError:
        # The index counts within the component as given, which may be
        # smaller than the broadcast state.
        raise _box_error(field, parts) from None
    shape = block[0].shape
    if not shape:
        return tuple(float(v) for v in values)
    return tuple(np.broadcast_to(v, shape) for v in values)


_BUILTIN_FIELDS = {
    "pure-one": {"A": "0", "B": "0", "C": "0", "E": "1"},
    # 2 u_x^2 u_xy + u_xx u_yy - u_xy^2 = 1 + u_x^4 in the A..E form;
    # D = -p^4 + (1 + p^4) = 1 identically.
    "remark42": {"A": "0", "B": "p^2", "C": "0", "E": "1 + p^4"},
}


def builtin_field(name: str) -> CoefficientField:
    """Look up a gallery field by name."""
    try:
        exprs = _BUILTIN_FIELDS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_FIELDS))
        raise ValidationError(f"unknown field {name!r}; known: {known}") from None
    return CoefficientField(parse_expr(exprs["A"]), parse_expr(exprs["B"]),
                            parse_expr(exprs["C"]), parse_expr(exprs["E"]),
                            DEFAULT_BOX)


def builtin_field_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_FIELDS))
