"""Independent normalized-load oracle from the elastica first integral.

The beam equation theta'' = -alpha sin(theta) is autonomous, so
theta'^2 - 2 alpha cos(theta) is constant along the stalk. With the tip
data theta(1) = gamma and theta'(1) = alpha rho (rho = R/L) the
arc-length condition becomes one scalar equation in alpha:

    1 = integral_0^gamma dtheta / sqrt(alpha^2 rho^2 + 2 alpha (cos theta - cos gamma))

(Bisshopp & Drucker, Q. Appl. Math. 3, 1945). The left side decreases
strictly in alpha, so the root is unique. The substitution
theta = gamma (1 - (1 - v)^2) removes the endpoint singularity at rho = 0.
Shares no code with the package's shooting or relaxation solvers.
"""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_V = 0.5 * (_NODES + 1.0)
_W = 0.5 * _WEIGHTS


def arc_length(alpha: float, gamma: float, rho: float) -> float:
    """Stalk length implied by a load alpha and tip data (gamma, rho)."""
    one_minus_v = 1.0 - _V
    theta = gamma * (1.0 - one_minus_v * one_minus_v)
    # cos(theta) - cos(gamma) written as a product of sines keeps full
    # precision where theta approaches gamma.
    gap = 2.0 * np.sin(0.5 * (gamma - theta)) * np.sin(0.5 * (gamma + theta))
    integrand = 2.0 * gamma * one_minus_v / np.sqrt(alpha * alpha * rho * rho + 2.0 * alpha * gap)
    return float(np.dot(_W, integrand))


def oracle_alpha(gamma: float, rho: float) -> float:
    """Normalized load bending the tip to ``gamma`` rad at pad ratio ``rho``."""
    if not (0.0 <= gamma < 0.5 * math.pi) or rho < 0.0:
        raise ValueError(f"outside the oracle's domain: gamma={gamma!r}, rho={rho!r}")
    if gamma == 0.0:
        return 0.0
    lo, hi = 1e-9, 1.0
    while arc_length(hi, gamma, rho) > 1.0:
        lo, hi = hi, 2.0 * hi
    # Bisection on log(alpha) down to a relative width near machine precision.
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if arc_length(mid, gamma, rho) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * hi:
            break
    return 0.5 * (lo + hi)
