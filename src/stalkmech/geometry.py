"""Core value types: beam geometry, normalized load, and solver settings.

All types are frozen dataclasses validated at construction; instances are
safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar


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


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and search settings shared by the solvers.

    ``grid_points`` counts samples of the normalized arc length on [0, 1],
    so the fixed integration step is 1/(grid_points - 1). The tolerances
    and the iteration cap are fixed bounds of the solvers, not settings.
    """

    grid_points: int = 1024
    alpha_bracket_max: float = 10.0

    boundary_tolerance: ClassVar[float] = 1e-10
    max_iterations: ClassVar[int] = 100
    angle_tolerance: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.grid_points < 16:
            raise ValueError(f"grid_points must be >= 16, got {self.grid_points}")
        if not (self.alpha_bracket_max > 0.0):
            raise ValueError("alpha_bracket_max must be positive")


DEFAULT_CONFIG = SolverConfig()
