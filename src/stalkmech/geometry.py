"""Core value types, beam geometry and normalized load, and the solver constants.

Both types are named tuples of floats validated at construction, by ``_make``
and ``_replace`` too; instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Fixed bounds of the solvers: the largest accepted |theta'(1) - alpha R / L|,
# the step cap of every root search and Newton loop, and the largest accepted
# miss of a solved tip angle, in radians, relative to the angle below 1 rad.
BOUNDARY_TOLERANCE = 1e-10
MAX_ITERATIONS = 100
ANGLE_TOLERANCE = 1e-6

# Default samples of the normalized arc length on [0, 1], whose step is
# 1 / (GRID_POINTS - 1), and the most a caller may ask for.
GRID_POINTS = 1024
MAX_GRID_POINTS = 2_000_000


def _as_float(value) -> float:
    """``value`` as a float; one beyond the float range, such as 10**400, as an infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class BeamGeometry(NamedTuple("BeamGeometry", [("stalk_length", float), ("pad_radius", float)])):
    """Stalk and suction-pad geometry.

    Parameters
    ----------
    stalk_length : float
        Undeformed stalk length L in meters, whose cube L*L*L must be positive and finite.
    pad_radius : float
        Suction-pad radius R in meters; the lever arm through which the
        contact force applies a tip moment to the stalk. Zero is allowed
        (pure tip-force cantilever).

    The ratio R/L enters the tip boundary condition of the normalized beam
    equation as ``radius_ratio``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # via __new__: _replace validates too

    def __new__(cls, stalk_length: float, pad_radius: float):
        stalk_length, pad_radius = _as_float(stalk_length), _as_float(pad_radius)
        if not (0.0 < stalk_length * stalk_length * stalk_length < math.inf):
            raise ValueError(f"stalk_length cubed must be positive and finite, got {stalk_length}")
        if pad_radius < 0.0 or not math.isfinite(pad_radius):
            raise ValueError(f"pad_radius must be finite and >= 0, got {pad_radius}")
        return super().__new__(cls, stalk_length, pad_radius)

    @property
    def radius_ratio(self) -> float:
        return self.pad_radius / self.stalk_length

    @classmethod
    def from_ratio(cls, radius_ratio: float) -> "BeamGeometry":
        """Unit-length geometry with a given R/L; convenient when only the ratio matters."""
        return cls(stalk_length=1.0, pad_radius=radius_ratio)

    @classmethod
    def from_millimeters(cls, stalk_length_mm: float, pad_radius_mm: float) -> "BeamGeometry":
        return cls(stalk_length=stalk_length_mm * 1e-3, pad_radius=pad_radius_mm * 1e-3)


class NormalizedLoad(NamedTuple("NormalizedLoad", [("alpha", float)])):
    """Dimensionless tip load alpha = F L^2 / (EI).

    Only the surface-pushing load case is modelled: the contact force points
    back along the undeformed stalk axis (force angle pi), which gives the
    pendulum form theta'' = -alpha sin(theta) of the beam equation.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # via __new__: _replace validates too

    def __new__(cls, alpha: float):
        alpha = _as_float(alpha)
        if not (alpha >= 0.0) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        return super().__new__(cls, alpha)

    def tip_moment(self, geometry: BeamGeometry) -> float:
        """Normalized tip moment alpha * R / L (the tip slope boundary value)."""
        return self.alpha * geometry.radius_ratio
