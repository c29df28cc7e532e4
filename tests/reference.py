"""Reference code that only the tests use to cross-check the package.

``linearized_alpha`` is an independent small-angle model of the load
solver, ``mm_cell_to_m`` parses a millimeter cell with ``decimal`` to check
the package's text shift, and ``serialize_trial`` writes a record back in
the trial file format so that the parser's bit-exact round trip can be
checked.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation

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


# Shifting a Decimal's exponent is exact. The context is unbounded because
# the default one would round cells past 28 digits before float() and raise
# decimal.Overflow past an exponent of 999999.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def mm_cell_to_m(cell: str) -> float:
    """Millimeters to meters by ``Decimal.scaleb``, rounded once by float().

    ``Decimal`` accepts more than ``float()`` (``NaN123``, ``1__0``) and
    refuses exponents beyond its range, so it agrees with the package only
    on cells inside both grammars.
    """
    try:
        return float(Decimal(cell).scaleb(-3, _EXACT))
    except InvalidOperation:
        raise ValueError(f"not a number: {cell!r}") from None


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
