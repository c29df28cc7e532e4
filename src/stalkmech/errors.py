"""Exception types raised across the package.

One class for each thing a caller can do about a failure: an invalid
argument (a negative length, an angle out of range) raises ValueError, a
solve that fails raises :class:`SolverError`, and measurements that
cannot be used raise :class:`DataError`. Every error carries its context
(the file, the line, the residual, the missing angles) in its message alone.
"""


class StalkmechError(Exception):
    """Base class for all package-specific errors."""


class SolverError(StalkmechError):
    """A numerical solve failed: no convergence, a divergent pass or a missed target."""


class DataError(StalkmechError):
    """Measurement data cannot be used: a malformed file, a broken record or too few samples."""
