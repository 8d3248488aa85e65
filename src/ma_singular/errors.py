"""Exception types shared across the package.

A march does not raise for a failure mid-march: it turns the field
errors below into the status of the strip it returns, and the CLI maps
that status to an exit code.
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


class SingularJacobianError(RuntimeError):
    """Hessian recovery was requested where |J| is below the guard everywhere."""


class DegenerateCurveError(RuntimeError):
    """Curvature was requested at a point where the curve speed vanishes."""


class CoverageError(RuntimeError):
    """A sampling circle left the annulus covered by the graph patch."""


class ArtifactWriteError(OSError):
    """An artifact could not be written into a run's out directory."""
