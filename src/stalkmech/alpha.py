"""Find the normalized load that bends the stalk tip to a target surface angle.

The beam equation theta'' = -alpha sin(theta) is autonomous, so with the
tip data theta(1) = gamma, theta'(1) = alpha rho (rho = R/L) and
sin(theta / 2) = k sin(phi), the arc-length condition becomes an incomplete
elliptic integral of the first kind (Bisshopp & Drucker, Q. Appl. Math. 3,
1945): sqrt(alpha) = F(phi_gamma, k), with k^2 = sin^2(gamma/2) + alpha rho^2 / 4
and k sin(phi_gamma) = sin(gamma/2). Its integrand is analytic and bounded
by 1 / cos(gamma/2) for every rho >= 0, so a 32-node Gauss-Legendre rule
is exact to rounding. Brent's method finds the unique root of the strictly
increasing sqrt(alpha) - F, and one shooting pass from the closed-form base
slope theta'(0) = 2 sqrt(alpha) k builds and checks the returned shape.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .elastica import ElasticaSolution, solve_shape_shooting
from .errors import NoSolutionError, SolverError, UnreachableAngleError, OracleRangeError
from .geometry import DEFAULT_CONFIG, BeamGeometry, NormalizedLoad, SolverConfig


@dataclass(frozen=True)
class AlphaResult:
    """Normalized load solving tip_angle(alpha) = surface_angle."""

    surface_angle: float
    alpha: float
    tip_angle_achieved: float
    outer_iterations: int  # first-integral quadratures the root search evaluated
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


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1] by Golub-Welsch (Jacobi matrix eigenpairs)."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


_NODES, _WEIGHTS = _gauss_legendre(32)


def _excess(alpha: float, surface_angle: float, radius_ratio: float) -> float:
    """sqrt(alpha) - F(phi_gamma, k): negative while the load is too small."""
    s = math.sin(0.5 * surface_angle)
    c = 0.5 * math.sqrt(alpha) * radius_ratio  # k cos(phi_gamma)
    phi = math.atan2(s, c)
    u = math.hypot(s, c) * np.sin(phi * _NODES)  # k sin(phi)
    return math.sqrt(alpha) - phi * float(np.dot(_WEIGHTS, 1.0 / np.sqrt(1.0 - u * u)))


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

    Brackets alpha by doubling (up to ``config.alpha_bracket_max``) and
    finds the root of the first-integral excess by Brent's method; each
    evaluation counts as an outer iteration. One shooting solve from the
    closed-form base slope then gives the shape, whose tip angle must match
    the target within ``config.angle_tolerance``.

    Raises UnreachableAngleError when the target exceeds the tip angle
    attainable within the bracket bound, or when the shape misses it, and
    ValueError for angles outside [0, pi/2).
    """
    _validate_angle(surface_angle)
    if surface_angle == 0.0:
        zero = solve_shape_shooting(NormalizedLoad(0.0), geometry, config)
        return AlphaResult(0.0, 0.0, 0.0, 0, zero)

    ratio = geometry.radius_ratio
    evals = 0

    def excess(a: float) -> float:
        nonlocal evals
        evals += 1
        return _excess(a, surface_angle, ratio)

    hi = min(0.5, config.alpha_bracket_max)
    while excess(hi) < 0.0:
        if hi >= config.alpha_bracket_max:
            tip_hi = solve_shape_shooting(NormalizedLoad(hi), geometry, config).tip_angle
            raise UnreachableAngleError(
                f"tip angle {tip_hi:.6f} rad at alpha={hi:g} is below the "
                f"requested {surface_angle:.6f} rad; raise alpha_bracket_max "
                "if a solution is expected",
                max_tip_angle=tip_hi,
            )
        hi = min(2.0 * hi, config.alpha_bracket_max)

    alpha_star = _brentq(excess, 0.0, hi, xtol=1e-12, maxiter=config.max_iterations)
    root = math.sqrt(alpha_star)
    slope = root * math.hypot(2.0 * math.sin(0.5 * surface_angle), root * ratio)  # 2 sqrt(alpha) k
    solution = solve_shape_shooting(NormalizedLoad(alpha_star), geometry, config, slope)
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
