"""Find the normalized load that bends the stalk tip to a target surface angle.

The beam equation theta'' = -alpha sin(theta) is autonomous, so with the
tip data theta(1) = gamma, theta'(1) = alpha rho (rho = R/L) and
sin(theta / 2) = k sin(phi), the arc-length condition becomes an incomplete
elliptic integral of the first kind (Bisshopp & Drucker, Q. Appl. Math. 3,
1945): sqrt(alpha) = F(phi_gamma, k), with k^2 = sin^2(gamma/2) + alpha rho^2 / 4
and k sin(phi_gamma) = sin(gamma/2). In Carlson's symmetric form (DLMF
19.25.5) F = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1), whose second
argument is cos^2(gamma/2) for every load; duplication evaluates R_F to
rounding in a few steps of square roots. As k >= sin(gamma/2), F never
exceeds K(sin(gamma/2)), its value at rho = 0, so the unique root in
sqrt(alpha) of the strictly increasing sqrt(alpha) - F lies in [0, K],
where Brent's method finds it. Its inverse is the shape in closed form,
sin(theta / 2) = k sn(sqrt(alpha) s | k^2) (Frisch-Fay, Flexible Bars, 1962).
A load table reads only the tip of that shape, so the solver evaluates it
at s = 1 alone; the whole grid is built when a caller first asks for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import NoSolutionError, SolverError, UnreachableAngleError
from .geometry import (
    ALPHA_BRACKET_MAX, ANGLE_TOLERANCE, BOUNDARY_TOLERANCE, GRID_POINTS, MAX_ITERATIONS,
    BeamGeometry,
)

if TYPE_CHECKING:
    from .elastica import ElasticaSolution


@dataclass(frozen=True)
class AlphaResult:
    """Normalized load solving tip_angle(alpha) = surface_angle.

    ``boundary_residual`` is the achieved |theta'(1) - alpha R / L|. The
    sampled shape, ``inner_solution``, is built on first access from the
    modulus k, which is kept for it alone.
    """

    surface_angle: float
    alpha: float
    tip_angle_achieved: float
    outer_iterations: int  # excess evaluations of the root search, K(s) not counted
    boundary_residual: float
    modulus: float = field(repr=False, compare=False)

    @cached_property
    def inner_solution(self) -> ElasticaSolution:
        """The closed-form shape on ``GRID_POINTS`` nodes, its last node the solved tip."""
        from .elastica import ElasticaSolution
        root = math.sqrt(self.alpha)
        h = 1.0 / (GRID_POINTS - 1)
        s = [i * h for i in range(GRID_POINTS - 1)] + [1.0]  # exactly 1: the solver's tip
        return ElasticaSolution(
            self.alpha,
            _closed_form(root, self.modulus, s)[0],
            2.0 * root * self.modulus,
            self.boundary_residual,
        )


@dataclass(frozen=True)
class AlphaTableRow:
    """One row of a load table; ``error`` is set when the angle failed."""

    surface_angle: float
    result: AlphaResult | None
    error: str | None = None

    @property
    def alpha(self) -> float | None:
        """The solved load, None when the angle failed."""
        return None if self.result is None else self.result.alpha


def _brentq(
    f, a: float, b: float, xtol: float, maxiter: int,
    fa: float | None = None, fb: float | None = None,
) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    Secant or inverse quadratic steps while they shrink fast enough, else
    bisection, until half the bracket is below (xtol + 4 eps |x|) / 2. The
    returned point is always one whose value of ``f`` is known; ``fa`` and
    ``fb``, when given, are f(a) and f(b) as the caller already knows them,
    and are not evaluated again. Raises ValueError for a same-sign bracket,
    NoSolutionError after ``maxiter``.
    """
    xpre, xcur = a, b
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
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


# Carlson's (1995) stop rule for the fifth-order series: the spread of the
# arguments, scaled by (3 eps)^(-1/6), falls below their mean.
_RF_SPREAD = (3.0 * sys.float_info.epsilon) ** (-1.0 / 6.0)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z), x, y, z >= 0 with at most one zero (DLMF 19.36(i)).

    Each duplication step moves the three arguments a quarter of the way to
    a common value; the series in their remaining spread then ends the sum.
    """
    sqrt = math.sqrt
    mean = (x + y + z) / 3.0
    spread = _RF_SPREAD * max(abs(mean - x), abs(mean - y), abs(mean - z))
    while spread >= mean:
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mean, spread = 0.25 * (mean + lam), 0.25 * spread
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(mean)


def _excess(root: float, half_sine: float, half_cos2: float, radius_ratio: float) -> float:
    """root - F(phi_gamma, k) at root = sqrt(alpha): negative while the load is too small.

    ``half_sine`` and ``half_cos2`` are sin(gamma/2) and cos^2(gamma/2).
    """
    c = 0.5 * root * radius_ratio  # k cos(phi_gamma)
    k = math.hypot(half_sine, c)
    if k == 0.0:  # sin(gamma/2) underflowed and c = 0: phi_gamma = pi/2, as at R/L = 0
        return root - _carlson_rf(0.0, half_cos2, 1.0)
    return root - half_sine / k * _carlson_rf((c / k) ** 2, half_cos2, 1.0)


def _agm(m: float) -> tuple[float, list[float]]:
    """Scale 2^n a_n and the ratios c_j / a_j of the AGM on m, 0 <= m < 1 (DLMF 22.20(ii))."""
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    ratios = []
    while c > sys.float_info.epsilon * a:  # stop at eps: a, b can stay 1 ulp apart, c/a ~ 1.05e-16
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
    return 2.0 ** len(ratios) * a, ratios


def _amplitude(u: list[float], m: float) -> list[float]:
    """Jacobi amplitude am(u | m) at each point of ``u``, 0 <= m <= 1.

    The AGM on m runs once per call, the descent once per point.
    """
    if m == 1.0:  # the AGM never converges here; am(u | 1) = gd(u)
        return [math.atan(math.sinh(x)) for x in u]
    scale, ratios = _agm(m)
    ratios.reverse()
    out = []
    for x in u:
        phi = scale * x
        for ratio in ratios:
            phi = 0.5 * (phi + math.asin(ratio * math.sin(phi)))
        out.append(phi)
    return out


def _closed_form(root: float, k: float, s: list[float]) -> tuple[list[float], float]:
    """theta at each arc length in ``s``, and theta' at the last, for sqrt(alpha) = ``root``."""
    if k < 1.0:  # sin(theta / 2) = k sn(sqrt(alpha) s | k^2), theta' = 2 sqrt(alpha) k cn
        phis = _amplitude([root * x for x in s], k * k)
        theta = [2.0 * math.asin(k * math.sin(phi)) for phi in phis]
        return theta, 2.0 * root * k * math.cos(phis[-1])
    # reciprocal modulus: theta / 2 = am(k sqrt(alpha) s | 1 / k^2), theta' ~ dn
    phis = _amplitude([k * root * x for x in s], 1.0 / (k * k))
    theta = [2.0 * phi for phi in phis]
    return theta, 2.0 * root * k * math.sqrt(1.0 - (math.sin(phis[-1]) / k) ** 2)


def _tip_angle_at(root: float, ratio: float, gamma: float, f_gamma: float) -> float:
    """Tip angle in [0, ``gamma``) that the load sqrt(alpha) = ``root`` reaches.

    At a fixed load the excess decreases strictly in the angle; ``f_gamma`` < 0
    is its value at ``gamma``. At angle 0 it is ``root`` for R/L > 0 and
    root - pi/2 at R/L = 0, where a load below pi^2/4 leaves the stalk straight.
    """

    def excess(angle: float) -> float:
        return _excess(root, math.sin(0.5 * angle), math.cos(0.5 * angle) ** 2, ratio)

    f_zero = excess(0.0)
    if f_zero <= 0.0:
        return 0.0
    return _brentq(excess, 0.0, gamma, xtol=1e-12, maxiter=MAX_ITERATIONS, fa=f_zero, fb=f_gamma)


def _validate_ceiling(alpha_bracket_max: float) -> None:
    if not (alpha_bracket_max > 0.0):
        raise ValueError("alpha_bracket_max must be positive")


def _validate_angle(surface_angle: float) -> None:
    if not (0.0 <= surface_angle < 0.5 * math.pi):
        raise ValueError(
            f"surface angle must be in [0, pi/2), got {surface_angle!r} rad"
        )


def solve_alpha_for_angle(
    surface_angle: float, geometry: BeamGeometry, *, alpha_bracket_max: float = ALPHA_BRACKET_MAX
) -> AlphaResult:
    """Normalized load alpha whose solved tip angle equals ``surface_angle``.

    Finds the root of the first-integral excess in sqrt(alpha) by Brent's
    method on [0, K(sin(gamma/2))], which holds it for every R/L; each
    evaluation counts as an outer iteration. The closed form then gives the
    shape's tip, whose slope and angle must match within
    ``BOUNDARY_TOLERANCE`` and ``ANGLE_TOLERANCE``. Zero angle is the zero
    load and the straight stalk.

    Raises UnreachableAngleError when the target exceeds the tip angle
    attainable at ``alpha_bracket_max``, or when the shape misses it,
    NoSolutionError when its tip slope misses, and ValueError for a
    non-positive ``alpha_bracket_max`` or an angle outside [0, pi/2).
    """
    _validate_ceiling(alpha_bracket_max)
    _validate_angle(surface_angle)
    if surface_angle == 0.0:
        return AlphaResult(0.0, 0.0, 0.0, 0, 0.0, 0.0)

    half_sine = math.sin(0.5 * surface_angle)
    half_cos2 = math.cos(0.5 * surface_angle) ** 2
    ratio = geometry.radius_ratio
    evals = 0

    def excess(root: float) -> float:
        nonlocal evals
        evals += 1
        return _excess(root, half_sine, half_cos2, ratio)

    # Substituting u = k sin(t) shows F(phi_gamma, k) <= K(sin(gamma/2)), with
    # equality at R/L = 0: the excess is -K at sqrt(alpha) = 0 and >= 0 at K.
    ceiling = _carlson_rf(0.0, half_cos2, 1.0)
    hi = min(ceiling, math.sqrt(alpha_bracket_max))
    f_hi = excess(hi)
    if f_hi < 0.0 and hi < ceiling:
        tip_hi = _tip_angle_at(hi, ratio, surface_angle, f_hi)
        raise UnreachableAngleError(
            f"tip angle {tip_hi:.6f} rad at alpha={alpha_bracket_max:g} is below the "
            f"requested {surface_angle:.6f} rad; raise alpha_bracket_max "
            "if a solution is expected",
            max_tip_angle=tip_hi,
        )

    root = _brentq(excess, 0.0, hi, xtol=1e-12, maxiter=MAX_ITERATIONS, fa=-ceiling, fb=f_hi)
    alpha_star = root * root
    k = math.hypot(half_sine, 0.5 * root * ratio)
    [achieved], tip_slope = _closed_form(root, k, [1.0])
    residual = abs(tip_slope - alpha_star * ratio)
    if residual > BOUNDARY_TOLERANCE:
        raise NoSolutionError(
            f"boundary residual {residual:.3e} exceeds tolerance at alpha={alpha_star}",
            last_residual=residual,
        )
    if abs(achieved - surface_angle) > ANGLE_TOLERANCE:
        raise UnreachableAngleError(
            f"root search left tip angle {achieved:.8f} rad off target "
            f"{surface_angle:.8f} rad",
            max_tip_angle=achieved,
        )
    return AlphaResult(surface_angle, alpha_star, achieved, evals, residual, k)


def generate_alpha_table(
    angles: list[float], geometry: BeamGeometry, *, alpha_bracket_max: float = ALPHA_BRACKET_MAX
) -> list[AlphaTableRow]:
    """Solve :func:`solve_alpha_for_angle` for each angle, order preserved.

    Angles are computed independently; a failing angle yields a row with
    its error message instead of aborting the whole table. A non-positive
    ``alpha_bracket_max`` fails the whole table with ValueError.
    """
    _validate_ceiling(alpha_bracket_max)
    rows = []
    for angle in angles:
        try:
            result = solve_alpha_for_angle(angle, geometry, alpha_bracket_max=alpha_bracket_max)
        except (SolverError, ValueError) as exc:
            rows.append(AlphaTableRow(angle, None, str(exc)))
        else:
            rows.append(AlphaTableRow(angle, result))
    return rows
