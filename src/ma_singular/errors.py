"""Exception types shared across the package.

Scientific outcomes that a caller may want to branch on (box exit,
ellipticity loss, instability) get their own classes so the CLI can map
them to distinct exit codes.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Bad user input: config values, unknown names, parameter combinations."""


class ParseError(ValidationError):
    """Expression syntax error.  ``position`` is a 0-based index into the source."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FieldEvalError(RuntimeError):
    """A coefficient field could not be evaluated at a state.

    Raised as is when a coefficient is NaN or infinite (log/sqrt domain,
    overflow; domain failures are never clamped).  The subclasses below
    name the box and ellipticity failures.
    """


class OutOfBoxError(FieldEvalError):
    """A state left the field's domain box.

    ``variable`` names the violated bound; ``index`` is the offending grid
    node when the evaluation was vectorized, else None.
    """

    def __init__(self, message: str, variable: str, index: int | None = None):
        super().__init__(message)
        self.variable = variable
        self.index = index


class EllipticityError(FieldEvalError):
    """D = A*C - B^2 + E was not positive at an evaluated state."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class MarchError(RuntimeError):
    """Base class for march failures under ``box_policy='raise'``.

    ``partial`` holds the strip accumulated before the failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class BoxExitError(MarchError):
    """The marched state left the field's domain box."""


class InstabilityError(MarchError):
    """The high-mode energy monitor tripped on two consecutive levels."""


class EllipticityAbortError(MarchError):
    """Ellipticity was lost mid-march."""


class NonFiniteAbortError(MarchError):
    """The marched state or a coefficient became non-finite mid-march."""


class SingularJacobianError(RuntimeError):
    """Hessian recovery was requested where |J| is below the guard everywhere."""


class DegenerateCurveError(RuntimeError):
    """Curvature was requested at a point where the curve speed vanishes."""


class CoverageError(RuntimeError):
    """A sampling circle left the annulus covered by the graph patch."""
