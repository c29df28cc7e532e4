"""Exception types raised across the package.

Plain invalid arguments (negative lengths, out-of-range angles) raise
ValueError; these classes cover failures of the numerical solvers and of
measurement-data handling, so callers can tell the two apart.
"""

from __future__ import annotations


class StalkmechError(Exception):
    """Base class for all package-specific errors."""


class SolverError(StalkmechError):
    """Base class for numerical-solver failures."""


class IntegrationDivergedError(SolverError):
    """The beam integration produced a non-finite or physically meaningless state."""


class NoSolutionError(SolverError):
    """Root bracketing or iteration failed to satisfy the boundary condition.

    Carries the last residual seen, for diagnostics.
    """

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


class UnreachableAngleError(SolverError):
    """The load search's tip angle misses the requested surface angle.

    ``max_tip_angle`` is the tip angle the search's load reached.
    """

    def __init__(self, message: str, max_tip_angle: float | None = None):
        super().__init__(message)
        self.max_tip_angle = max_tip_angle


class DataError(StalkmechError):
    """Base class for measurement-data failures."""


class TrialParseError(DataError):
    """A trial or bending file could not be parsed; names the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class TrialValidationError(DataError):
    """Parsed trial data violates a record invariant (time order, pressure sign, ...)."""


class CalibrationError(DataError):
    """Bending samples are unusable for a stiffness fit."""


class CoverageError(DataError):
    """Theory predictions do not cover the measured angles.

    ``missing_angles`` lists the uncovered surface angles in radians.
    """

    def __init__(self, message: str, missing_angles: tuple[float, ...] = ()):
        super().__init__(message)
        self.missing_angles = missing_angles
