"""Known answers under state-dependent fields.

For any function alpha(x, y, z, p, q), with S = p^2 + q^2, the field

  A = alpha (S p^2 - (S - 1) q^2),  B = alpha p q (2 S - 1),
  C = alpha (S q^2 - (S - 1) p^2),  E = 1

makes A r + 2 B s + C t vanish on the Hessian of every rotational graph
with |grad z|^2 = 1 + rho^2, so the rotational peak solution
z = (rho sqrt(1 + rho^2) + asinh rho) / 2 of rt - s^2 = 1 solves
A r + 2 B s + C t + rt - s^2 = E too, and the unit circle is its limit
gradient curve.  Its discriminant AC - B^2 + E = 1 - alpha^2 S^3 (S - 1)
stays positive on the box for |alpha| <= 0.1.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ma_singular.coeffs import CoefficientField
from ma_singular.curves import builtin_curve
from ma_singular.extract import (
    hausdorff_distance,
    limit_gradient,
    patch_sampler,
    radial_reference_height,
    radial_reference_slope,
)
from ma_singular.geometry import pde_residual, reconstruct_graph
from ma_singular.march import march

CIRCLE = builtin_curve("circle")

#: The box of the fields, and the largest |value| of each variable on it.
BOUNDS = {"x": 1.0, "y": 1.0, "z": 1.0, "p": 1.2, "q": 1.2}
#: The monomials of degree <= 2 in x, y, z, p and q, as variable tuples.
MONOMIALS = [(), *((name,) for name in BOUNDS),
             *itertools.combinations_with_replacement(BOUNDS, 2)]


def alpha_of(weights) -> str:
    """The polynomial sum_k c_k m_k with c proportional to ``weights``,
    scaled so that sum_k |c_k| max|m_k| on the box, a bound of |alpha|
    there, is 0.1."""
    size = sum(abs(w) * math.prod(BOUNDS[name] for name in monomial)
               for w, monomial in zip(weights, MONOMIALS))
    terms = [" * ".join([repr(0.1 * w / size), *monomial])
             for w, monomial in zip(weights, MONOMIALS) if w]
    return " + ".join(terms) if terms else "0"


def manufactured_field(alpha: str, b_sign: int = 1) -> CoefficientField:
    s2 = "(p^2 + q^2)"
    return CoefficientField.from_dict({
        "A": f"({alpha}) * ({s2} * p^2 - ({s2} - 1) * q^2)",
        "B": f"{b_sign} * ({alpha}) * p * q * (2 * {s2} - 1)",
        "C": f"({alpha}) * ({s2} * q^2 - ({s2} - 1) * p^2)",
        "E": "1",
        "box": {name: [-bound, bound] for name, bound in BOUNDS.items()},
    })


def errors(field: CoefficientField):
    """(height error, slope error, PDE residual, judge's distance) of the
    default circle march under ``field`` against the rotational solution."""
    strip = march(CIRCLE, field)
    assert strip.status == "completed", strip.detail
    patch = reconstruct_graph(strip)
    rho = patch.radii()
    z_err = float(np.max(np.abs(patch.z - radial_reference_height(rho))))
    slope_err = float(np.max(np.abs(np.hypot(patch.p, patch.q)
                                    - radial_reference_slope(rho))))
    # The judge of ``roundtrip``: the first stored level on.
    sampler = patch_sampler(reconstruct_graph(strip, v_min=strip.v[1]))
    lg = limit_gradient(sampler, sampler.suggest_radii())
    assert lg.jordan
    return (z_err, slope_err, pde_residual(strip).max_abs,
            hausdorff_distance(CIRCLE, lg.curve))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(st.integers(-4, 4), min_size=len(MONOMIALS),
                max_size=len(MONOMIALS)))
def test_rotational_solution_is_the_answer_under_any_quadratic_alpha(weights):
    z_err, slope_err, residual, distance = errors(
        manufactured_field(alpha_of(weights)))
    assert z_err <= 1e-12
    assert slope_err <= 1e-12
    assert residual <= 1e-11
    assert distance <= 1e-12


def test_a_flipped_b_is_not_the_answer():
    # The same alpha solves the rotational problem with B, not with -B.
    z_err, *_ = errors(manufactured_field("0.1"))
    assert z_err <= 1e-12
    z_err, *_ = errors(manufactured_field("0.1", b_sign=-1))
    assert z_err > 1e-4
