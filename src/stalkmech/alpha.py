"""Find the normalized load that bends the stalk tip to a target surface angle.

The map alpha -> tip_angle is strictly increasing in the working range, so
the outer search brackets the target angle and hands the interval to Brent's
method; every tip-angle evaluation is a full shooting solve of the
boundary-value problem.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .elastica import ElasticaSolution, solve_shape_shooting
from .errors import NoSolutionError, SolverError, UnreachableAngleError, OracleRangeError
from .geometry import DEFAULT_CONFIG, BeamGeometry, NormalizedLoad, SolverConfig


@dataclass(frozen=True)
class AlphaResult:
    """Normalized load solving tip_angle(alpha) = surface_angle."""

    surface_angle: float
    alpha: float
    tip_angle_achieved: float
    outer_iterations: int
    inner_solution: ElasticaSolution


@dataclass(frozen=True)
class AlphaTableRow:
    """One row of a load table; ``error`` is set when the angle failed."""

    surface_angle: float
    alpha: float | None
    result: AlphaResult | None
    error: str | None = None


def _brentq(f, a: float, b: float, xtol: float, maxiter: int) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    Secant or inverse quadratic steps while they shrink fast enough, else
    bisection, until half the bracket is below (xtol + 4 eps |x|) / 2. The
    returned point is always one at which ``f`` was evaluated. Raises
    ValueError for a same-sign bracket, NoSolutionError after ``maxiter``.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # the root now lies between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4 * sys.float_info.epsilon * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoSolutionError(
        f"Brent iteration did not converge after {maxiter} iterations", last_residual=fcur
    )


def _validate_angle(surface_angle: float) -> None:
    if not (0.0 <= surface_angle < 0.5 * math.pi):
        raise ValueError(
            f"surface angle must be in [0, pi/2), got {surface_angle!r} rad"
        )


def solve_alpha_for_angle(
    surface_angle: float,
    geometry: BeamGeometry,
    config: SolverConfig = DEFAULT_CONFIG,
) -> AlphaResult:
    """Normalized load alpha whose solved tip angle equals ``surface_angle``.

    Brackets alpha by doubling until the tip angle passes the target (up to
    ``config.alpha_bracket_max``), then root-finds on the monotone map. The
    achieved tip angle matches the target within ``config.angle_tolerance``.

    Raises UnreachableAngleError when the target exceeds the tip angle
    attainable within the bracket bound, and ValueError for angles outside
    [0, pi/2).
    """
    _validate_angle(surface_angle)
    if surface_angle == 0.0:
        zero = solve_shape_shooting(NormalizedLoad(0.0), geometry, config)
        return AlphaResult(0.0, 0.0, 0.0, 0, zero)

    evals = 0
    solved: dict[float, ElasticaSolution] = {}
    last_alpha = 0.0
    last_slope: float | None = None

    def hint_for(a: float) -> float | None:
        # The converged base slope grows roughly linearly with alpha, so a
        # scaled previous slope keeps the shooting bracket tight even across
        # the doubling stages of the outer bracket search.
        if last_slope is None or last_alpha <= 0.0:
            return None
        return last_slope * (a / last_alpha)

    def tip_angle(a: float) -> float:
        nonlocal evals, last_alpha, last_slope
        evals += 1
        sol = solved[a] = solve_shape_shooting(
            NormalizedLoad(a), geometry, config, initial_slope_hint=hint_for(a)
        )
        if a > 0.0:
            last_alpha, last_slope = a, sol.initial_slope
        return sol.tip_angle

    hi = min(0.5, config.alpha_bracket_max)
    tip_hi = tip_angle(hi)
    while tip_hi < surface_angle:
        if hi >= config.alpha_bracket_max:
            raise UnreachableAngleError(
                f"tip angle {tip_hi:.6f} rad at alpha={hi:g} is below the "
                f"requested {surface_angle:.6f} rad; raise alpha_bracket_max "
                "if a solution is expected",
                max_tip_angle=tip_hi,
            )
        hi = min(2.0 * hi, config.alpha_bracket_max)
        tip_hi = tip_angle(hi)

    alpha_star = _brentq(
        lambda a: tip_angle(a) - surface_angle,
        0.0,
        hi,
        xtol=1e-12,
        maxiter=config.max_iterations,
    )
    # Brent returns a point it evaluated, so its shape is already solved.
    solution = solved[alpha_star]
    achieved = solution.tip_angle
    if abs(achieved - surface_angle) > config.angle_tolerance:
        raise UnreachableAngleError(
            f"root search left tip angle {achieved:.8f} rad off target "
            f"{surface_angle:.8f} rad",
            max_tip_angle=achieved,
        )
    return AlphaResult(surface_angle, alpha_star, achieved, evals, solution)


def generate_alpha_table(
    angles: list[float],
    geometry: BeamGeometry,
    config: SolverConfig = DEFAULT_CONFIG,
) -> list[AlphaTableRow]:
    """Solve :func:`solve_alpha_for_angle` for each angle, order preserved.

    Angles are computed independently; a failing angle yields a row with
    its error message instead of aborting the whole table.
    """
    rows = []
    for angle in angles:
        try:
            result = solve_alpha_for_angle(angle, geometry, config)
        except (SolverError, ValueError) as exc:
            rows.append(AlphaTableRow(angle, None, None, str(exc)))
        else:
            rows.append(AlphaTableRow(angle, result.alpha, result))
    return rows


def linearized_alpha(surface_angle: float, geometry: BeamGeometry) -> float:
    """Small-angle closed-form load: the root of sqrt(a) tan(sqrt(a)) = gamma L / R.

    Linearizing the pendulum-form beam equation gives
    tip_angle = (R/L) sqrt(a) tan(sqrt(a)), whose inversion requires
    sqrt(a) below the tangent singularity at pi/2. For small angles the
    relation reduces to alpha ~= gamma L / R. Intended as an independent
    check of the nonlinear solver at small angles, not as a production path.
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

    lo = 1e-12
    hi = 0.5 * math.pi * (1.0 - 1e-12)
    if f(hi) <= 0.0:
        raise OracleRangeError(
            f"no root below the tangent singularity for gamma*L/R = {target:g}"
        )
    u = _brentq(f, lo, hi, xtol=1e-15, maxiter=100)
    return u * u
