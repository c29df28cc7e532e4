"""Reference code that only the tests use to cross-check the package.

``linearized_alpha`` is an independent small-angle model of the load
solver, and ``serialize_trial`` writes a record back in the trial file
format so that the parser's bit-exact round trip can be checked.
"""

from __future__ import annotations

import math
from decimal import Decimal

from stalkmech.geometry import BeamGeometry
from stalkmech.trials import TRIAL_HEADER, TrialRecord


def linearized_alpha(surface_angle: float, geometry: BeamGeometry) -> float:
    """Small-angle closed-form load: the root of sqrt(a) tan(sqrt(a)) = gamma L / R.

    Linearizing the pendulum-form beam equation gives
    tip_angle = (R/L) sqrt(a) tan(sqrt(a)), whose inversion requires
    sqrt(a) below the tangent singularity at pi/2, so a large gamma L / R
    has no root and raises ValueError. For small angles the relation
    reduces to alpha ~= gamma L / R.
    """
    if not (0.0 < surface_angle < 0.5 * math.pi):
        raise ValueError(
            f"surface angle must be in (0, pi/2), got {surface_angle!r} rad"
        )
    if geometry.radius_ratio <= 0.0:
        raise ValueError("the closed form needs a positive pad radius")
    target = surface_angle / geometry.radius_ratio

    def f(u: float) -> float:
        return u * math.tan(u) - target

    # Bisection down to adjacent floats: slower than the package's root
    # finders, but it shares no code with them.
    lo = 1e-12
    hi = 0.5 * math.pi * (1.0 - 1e-12)
    if f(hi) <= 0.0:
        raise ValueError(
            f"no root below the tangent singularity for gamma*L/R = {target:g}"
        )
    if f(lo) > 0.0:
        raise ValueError(f"the root for gamma*L/R = {target:g} lies below u = {lo:g}")
    u = 0.5 * (lo + hi)
    while lo < u < hi:
        if f(u) < 0.0:
            lo = u
        else:
            hi = u
        u = 0.5 * (lo + hi)
    return u * u


def m_to_mm_text(value: float) -> str:
    """Render meters as a millimeter cell that parses back to ``value`` exactly."""
    return format(Decimal(repr(value)).scaleb(3), "f")


def serialize_trial(record: TrialRecord) -> str:
    """Render a record back to the trial file format.

    Numeric content survives a parse/serialize/parse cycle bit-exactly:
    seconds, newtons and kilopascals are written with the shortest
    round-trip representation, and displacement is rescaled to millimeters
    by exact decimal shifting.
    """
    out = [TRIAL_HEADER]
    for t, f, d, p in zip(record.time, record.force, record.displacement, record.pressure):
        out.append(f"{t!r},{f!r},{m_to_mm_text(d)},{p!r}")
    return "\n".join(out) + "\n"
