"""Core value types, beam geometry and normalized load, and the solver constants.

Both types are frozen dataclasses validated at construction; instances are
safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Fixed bounds of the solvers: the largest accepted |theta'(1) - alpha R / L|,
# the step cap of every root search and Newton loop, and the largest accepted
# miss of a solved tip angle, in radians.
BOUNDARY_TOLERANCE = 1e-10
MAX_ITERATIONS = 100
ANGLE_TOLERANCE = 1e-6

# Defaults of the two settings: the ceiling of the load search, and the samples
# of the normalized arc length on [0, 1], whose step is 1 / (GRID_POINTS - 1).
ALPHA_BRACKET_MAX = 10.0
GRID_POINTS = 1024


@dataclass(frozen=True)
class BeamGeometry:
    """Stalk and suction-pad geometry.

    Parameters
    ----------
    stalk_length : float
        Undeformed stalk length L in meters. Must be positive.
    pad_radius : float
        Suction-pad radius R in meters; the lever arm through which the
        contact force applies a tip moment to the stalk. Zero is allowed
        (pure tip-force cantilever).

    The ratio R/L enters the tip boundary condition of the normalized beam
    equation and is cached as ``radius_ratio``.
    """

    stalk_length: float
    pad_radius: float
    radius_ratio: float = field(init=False)

    def __post_init__(self):
        if not (self.stalk_length > 0.0) or not math.isfinite(self.stalk_length):
            raise ValueError(
                f"stalk_length must be positive and finite, got {self.stalk_length}"
            )
        if self.pad_radius < 0.0 or not math.isfinite(self.pad_radius):
            raise ValueError(f"pad_radius must be finite and >= 0, got {self.pad_radius}")
        object.__setattr__(self, "radius_ratio", self.pad_radius / self.stalk_length)

    @classmethod
    def from_ratio(cls, radius_ratio: float) -> "BeamGeometry":
        """Unit-length geometry with a given R/L; convenient when only the ratio matters."""
        return cls(stalk_length=1.0, pad_radius=radius_ratio)

    @classmethod
    def from_millimeters(cls, stalk_length_mm: float, pad_radius_mm: float) -> "BeamGeometry":
        return cls(stalk_length=stalk_length_mm * 1e-3, pad_radius=pad_radius_mm * 1e-3)


@dataclass(frozen=True)
class NormalizedLoad:
    """Dimensionless tip load alpha = F L^2 / (EI).

    Only the surface-pushing load case is modelled: the contact force points
    back along the undeformed stalk axis (force angle pi), which gives the
    pendulum form theta'' = -alpha sin(theta) of the beam equation.
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    def tip_moment(self, geometry: BeamGeometry) -> float:
        """Normalized tip moment alpha * R / L (the tip slope boundary value)."""
        return self.alpha * geometry.radius_ratio
