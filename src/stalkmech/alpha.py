"""Find the normalized load that bends the stalk tip to a target surface angle.

The beam equation theta'' = -alpha sin(theta) is autonomous, so with the
tip data theta(1) = gamma, theta'(1) = alpha rho (rho = R/L) and
sin(theta / 2) = k sin(phi), the arc-length condition becomes an incomplete
elliptic integral of the first kind (Bisshopp & Drucker, Q. Appl. Math. 3,
1945): sqrt(alpha) = F(phi_gamma, k), with k^2 = sin^2(gamma/2) + alpha rho^2 / 4
and k sin(phi_gamma) = sin(gamma/2). In Carlson's symmetric form (DLMF
19.25.5) F = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1), whose second
argument is cos^2(gamma/2) for every load; duplication evaluates R_F to
rounding in a few steps of square roots, and the same steps give the R_D
in F's derivative. As k >= sin(gamma/2), F never exceeds K(sin(gamma/2)),
its value at rho = 0, so the unique root in sqrt(alpha) of the strictly
increasing sqrt(alpha) - F lies in [0, K], where Newton's method, kept in
a bracket, finds it in about four evaluations. Its inverse is the shape in
closed form, sin(theta / 2) = k sn(sqrt(alpha) s | k^2) (Frisch-Fay,
Flexible Bars, 1962). A load table reads only the tip of that shape, so the
solver evaluates it at s = 1 alone; the whole grid is built anew on each
read of ``inner_solution``.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import SolverError
from .geometry import (
    ANGLE_TOLERANCE, BOUNDARY_TOLERANCE, GRID_POINTS, MAX_ITERATIONS, BeamGeometry,
)

if TYPE_CHECKING:
    from .elastica import ElasticaSolution


class AlphaResult(NamedTuple("AlphaResult", [
    ("alpha", float), ("tip_angle_achieved", float), ("outer_iterations", int),
    ("boundary_residual", float), ("modulus", float),
])):
    """Normalized load solving tip_angle(alpha) = the caller's surface angle.

    ``outer_iterations`` counts Newton's evaluations of the excess, K's alone
    at R/L = 0; ``boundary_residual`` is the achieved |theta'(1) - alpha R / L|.
    The sampled shape, ``inner_solution``, is built on each read from the
    modulus k, kept for it alone.
    """

    __slots__ = ()

    @property
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


class AlphaTableRow(NamedTuple):
    """One row of a load table; ``error`` is set when the angle failed."""

    surface_angle: float
    result: AlphaResult | None
    error: str | None = None

    @property
    def alpha(self) -> float | None:
        """The solved load, None when the angle failed."""
        return None if self.result is None else self.result.alpha


# Carlson's (1995) stop rule for the fifth-order series of R_F: the spread of
# the arguments, scaled by (3 eps)^(-1/6), falls below their mean.
_RF_SPREAD = (3.0 * sys.float_info.epsilon) ** (-1.0 / 6.0)


def _carlson(x: float, y: float, z: float) -> tuple[float, float]:
    """Carlson's R_F(x, y, z) and R_D(x, y, z); x, y >= 0, x + y > 0, z > 0 (DLMF 19.36).

    Each duplication step moves the three arguments a quarter of the way to
    a common value and adds one term of R_D's sum; the series in their
    remaining spread then ends both. R_F's stop rule ends the loop, which
    leaves R_D within a few eps as well.
    """
    sqrt = math.sqrt
    mean = (x + y + z) / 3.0
    spread = _RF_SPREAD * max(abs(mean - x), abs(mean - y), abs(mean - z))
    scale = 1.0
    tail = 0.0
    while spread >= mean:
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mean, spread = 0.25 * (mean + lam), 0.25 * spread
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(mean)
    # R_D weighs z three times in its mean (DLMF 19.36.2).
    mean = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * dz
    series = (
        1.0 + e2 * (e2 * (9.0 / 88.0) - e3 * (9.0 / 52.0) - 3.0 / 14.0)
        + e3 * (1.0 / 6.0) - e4 * (3.0 / 22.0) + e5 * (3.0 / 26.0)
    )
    return rf, scale * series / (mean * sqrt(mean)) + 3.0 * tail


def _excess(
    root: float, half_sine: float, half_cos2: float, radius_ratio: float,
) -> tuple[float, float]:
    """root - F(phi_gamma, k) at root = sqrt(alpha), and its slope in root.

    ``half_sine`` > 0 and ``half_cos2`` are sin(gamma/2) and cos^2(gamma/2);
    the excess is negative while the load is too small. Along
    k sin(phi_gamma) = sin(gamma/2), dF/d(k^2) = -Pi(phi_gamma, 1, k) / (2 k^2),
    and DLMF 19.25.14, with R_J(x, y, z, x) = R_D(y, z, x), gives
    Pi = F + sin^3(phi_gamma) R_D(cos^2(gamma/2), 1, cos^2(phi_gamma)) / 3.
    The slope, 1 + root (rho / 2k)^2 Pi, is therefore never below 1.
    """
    c = 0.5 * root * radius_ratio  # k cos(phi_gamma)
    k = math.hypot(half_sine, c)
    cos2 = (c / k) * (c / k)
    if cos2 == 0.0:  # phi_gamma = pi/2 to rounding: F = K, and the slope is 1
        return root - _carlson(0.0, half_cos2, 1.0)[0], 1.0
    sine = half_sine / k  # sin(phi_gamma)
    rf, rd = _carlson(half_cos2, 1.0, cos2)
    f = sine * rf
    half = 0.5 * radius_ratio / k  # squared by hand: ** raises where * overflows to inf
    return root - f, 1.0 + root * half * half * (f + sine * sine * sine * rd / 3.0)


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


def _validate_angle(surface_angle: float) -> None:
    if not (0.0 <= surface_angle < 0.5 * math.pi):
        raise ValueError(
            f"surface angle must be in [0, pi/2), got {surface_angle!r} rad"
        )


# K(1/sqrt(2)) = Gamma(1/4)^2 / (4 sqrt(pi)), K(sin(gamma/2)) at 90 degrees,
# above every root in sqrt(alpha) of an angle below it.
_ROOT_CEILING = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))


def _newton(
    root: float, half_sine: float, half_cos2: float, radius_ratio: float,
) -> tuple[float, int]:
    """The excess's root by Newton's method from ``root``, and the evaluations it took.

    Newton's method in sqrt(alpha), safeguarded by the bracket
    [0, K(1/sqrt(2))], whose ends move by the sign of each excess: a step
    that leaves the bracket becomes a bisection. It stops once a step,
    applied, is within 4 eps of the root, or once the bracket is that
    narrow, as it gets where rounding in a subnormal sin(gamma/2) or
    k cos(phi_gamma) leaves the excess too noisy for such a step.
    """
    lo, hi = 0.0, _ROOT_CEILING
    for evals in range(1, MAX_ITERATIONS + 1):
        f, slope = _excess(root, half_sine, half_cos2, radius_ratio)
        if f < 0.0:
            lo = root
        else:
            hi = root
        step = f / slope
        root -= step
        tolerance = 4.0 * sys.float_info.epsilon * root
        if abs(step) <= tolerance or hi - lo <= tolerance:
            return root, evals
        if not lo < root < hi:
            root = 0.5 * (lo + hi)
    raise SolverError(f"Newton iteration did not converge after {MAX_ITERATIONS} iterations")


def solve_alpha_for_angle(surface_angle: float, geometry: BeamGeometry) -> AlphaResult:
    """Normalized load alpha whose solved tip angle equals ``surface_angle``.

    At R/L = 0 the root in sqrt(alpha) is K(sin(gamma/2)), one evaluation.
    Otherwise Newton's method finds the root of the first-integral excess,
    starting between pi/2 and the small-angle root sqrt(gamma / (R/L));
    each evaluation of the excess and its slope counts as an outer
    iteration. The closed form then gives the shape's tip, whose slope and
    angle must match within ``BOUNDARY_TOLERANCE`` and ``ANGLE_TOLERANCE``,
    the latter relative to the angle below 1 rad.
    Zero angle is the zero load and the straight stalk.

    Raises SolverError when the shape's tip angle or slope misses its
    target or Newton's method runs out of iterations, and ValueError for an
    angle outside [0, pi/2).
    """
    _validate_angle(surface_angle)
    if surface_angle == 0.0:
        return AlphaResult(0.0, 0.0, 0, 0.0, 0.0)

    half_sine = math.sin(0.5 * surface_angle)
    half_cos2 = math.cos(0.5 * surface_angle) ** 2
    ratio = geometry.radius_ratio
    if ratio == 0.0:
        # Substituting u = k sin(t) shows F(phi_gamma, k) <= K(sin(gamma/2)),
        # with equality at R/L = 0, where the root is K itself.
        root, evals = _carlson(0.0, half_cos2, 1.0)[0], 1
    else:
        # The start blends pi/2 <= K with the small-angle root sqrt(gamma / rho),
        # in a form that cannot overflow.
        root = math.sqrt(surface_angle) / math.sqrt(ratio + 4.0 / math.pi**2 * surface_angle)
        if half_sine == 0.0:  # gamma/2 underflowed, so F = 0: the start is the root to rounding
            evals = 0
        else:
            root, evals = _newton(root, half_sine, half_cos2, ratio)
    alpha_star = root * root
    root = math.sqrt(alpha_star)  # as inner_solution rebuilds it; they differ for a subnormal alpha
    k = math.hypot(half_sine, 0.5 * root * ratio)
    [achieved], tip_slope = _closed_form(root, k, [1.0])
    residual = abs(tip_slope - alpha_star * ratio)
    if residual > BOUNDARY_TOLERANCE:
        raise SolverError(
            f"boundary residual {residual:.3e} exceeds tolerance at alpha={alpha_star}"
        )
    # Relative below 1 rad, so that a tiny angle's load is checked too, plus
    # 16 ulps of rounding, which only a subnormal angle comes near.
    tolerance = ANGLE_TOLERANCE * min(1.0, surface_angle) + 16.0 * math.ulp(surface_angle)
    if abs(achieved - surface_angle) > tolerance:
        raise SolverError(
            f"root search left tip angle {achieved:.8g} rad off target "
            f"{surface_angle:.8g} rad"
        )
    return AlphaResult(alpha_star, achieved, evals, residual, k)


def generate_alpha_table(angles: list[float], geometry: BeamGeometry) -> list[AlphaTableRow]:
    """Solve :func:`solve_alpha_for_angle` for each angle, order preserved.

    Angles are computed independently; a failing angle yields a row with
    its error message instead of aborting the whole table.
    """
    rows = []
    for angle in angles:
        try:
            result = solve_alpha_for_angle(angle, geometry)
        except (SolverError, ValueError) as exc:
            rows.append(AlphaTableRow(angle, None, str(exc)))
        else:
            rows.append(AlphaTableRow(angle, result))
    return rows
