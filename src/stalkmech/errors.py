"""Exception types raised across the package.

Plain invalid arguments (negative lengths, out-of-range angles) raise
ValueError; these classes cover failures of the numerical solvers and of
measurement-data handling, so callers can tell the two apart. Every error
carries its context (the line, the residual, the missing angles) in its
message alone.
"""


class StalkmechError(Exception):
    """Base class for all package-specific errors."""


class SolverError(StalkmechError):
    """Base class for numerical-solver failures."""


class IntegrationDivergedError(SolverError):
    """The beam integration produced a non-finite or physically meaningless state."""


class NoSolutionError(SolverError):
    """Root bracketing or iteration failed to satisfy the boundary condition."""


class UnreachableAngleError(SolverError):
    """The load search's tip angle misses the requested surface angle."""


class DataError(StalkmechError):
    """Base class for measurement-data failures."""


class TrialParseError(DataError):
    """A trial or bending file could not be parsed; names the offending line."""


class TrialValidationError(DataError):
    """Parsed trial data violates a record invariant (time order, pressure sign, ...)."""


class CalibrationError(DataError):
    """Bending samples are unusable for a stiffness fit."""


class CoverageError(DataError):
    """Theory predictions do not cover the measured angles."""
