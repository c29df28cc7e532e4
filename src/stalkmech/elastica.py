"""Large-deflection beam (elastica) boundary-value solvers.

The normalized beam equation solved here is

    theta''(s) = alpha * sin(theta(s) - phi),   s in [0, 1]
    theta(0) = 0,   theta'(1) = alpha * R / L

with the surface-pushing force angle phi = pi, which folds the right-hand
side to -alpha * sin(theta) (pendulum form). Two independent routes are
provided: an initial-value shooting solver built on a fixed-step classical
fourth-order integrator, and a finite-difference relaxation solver using
damped Newton iteration on the discretized system. The shape at a given
surface angle, in closed form, is built in :mod:`stalkmech.alpha`. Every
solver returns an :class:`ElasticaSolution`, whose ``tip_angle`` is its
last sample.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .errors import SolverError
from .geometry import (
    BOUNDARY_TOLERANCE, GRID_POINTS, MAX_GRID_POINTS, MAX_ITERATIONS, BeamGeometry, NormalizedLoad,
)

if TYPE_CHECKING:
    import numpy as np

# Abort integration beyond this angle: the stalk coiling several full turns
# has no physical meaning and signals a runaway trajectory.
MAX_ANGLE = 4.0 * math.pi

# Width below which bisection off a divergent or straight bracket end stops.
_BISECTION_WIDTH = 1e-6

_EPS = sys.float_info.epsilon


class ElasticaSolution(NamedTuple("ElasticaSolution", [
    ("alpha", float), ("theta", "tuple[float, ...]"), ("initial_slope", float),
    ("boundary_residual", float),
])):
    """A solved beam shape on the normalized arc-length grid.

    ``theta[i]`` is the tangent angle at s = i / (n - 1), n >= 2, stored as a
    tuple of floats from any list, tuple or array of numbers; the clamped
    base fixes ``theta[0]`` to zero. ``initial_slope`` is the base curvature
    theta'(0) found by the solver, and ``boundary_residual`` is the achieved
    |theta'(1) - alpha R / L|.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # via __new__: _replace validates too

    def __new__(cls, alpha, theta, initial_slope, boundary_residual):
        theta = tuple(map(float, theta))
        if len(theta) < 2:
            raise ValueError(f"theta needs at least 2 samples, got {len(theta)}")
        if theta[0] != 0.0:
            raise ValueError("theta[0] must be 0 (clamped base)")
        return super().__new__(cls, alpha, theta, initial_slope, boundary_residual)

    @property
    def tip_angle(self) -> float:
        """The tangent angle theta(1), the last sample."""
        return self.theta[-1]

    @property
    def grid(self) -> list[float]:
        """The normalized arc-length nodes the samples live on, the last exactly 1."""
        h = 1.0 / (len(self.theta) - 1)
        return [i * h for i in range(len(self.theta) - 1)] + [1.0]

    @property
    def theta_samples(self) -> np.ndarray:
        """``theta`` as a read-only float array, built on each read; needs numpy (test extra)."""
        import numpy as np
        samples = np.array(self.theta)
        samples.flags.writeable = False
        return samples


def _rk4_tip(
    alpha: float, initial_slope: float, n_steps: int, samples: list[float] | None = None
) -> tuple[float, float]:
    """Integrate theta'' = -alpha sin(theta) from (0, initial_slope); return (theta, theta') at s=1.

    When ``samples`` is given, theta at each node after the base is appended to it.
    """
    h = 1.0 / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    sin = math.sin
    record = samples is not None
    th = 0.0
    om = initial_slope
    for _ in range(n_steps):
        k1o = -alpha * sin(th)
        k2t = om + half * k1o
        k2o = -alpha * sin(th + half * om)
        k3t = om + half * k2o
        k3o = -alpha * sin(th + half * k2t)
        k4t = om + h * k3o
        k4o = -alpha * sin(th + h * k3t)
        th += sixth * (om + 2.0 * (k2t + k3t) + k4t)
        om += sixth * (k1o + 2.0 * (k2o + k3o) + k4o)
        if not (-MAX_ANGLE < th < MAX_ANGLE):
            raise SolverError(
                f"integration diverged at alpha={alpha}, theta'(0)={initial_slope}"
            )
        if record:
            samples.append(th)
    return th, om


def _validate_grid(grid_points: int) -> None:
    if grid_points < 16:
        raise ValueError(f"grid_points must be >= 16, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be <= {MAX_GRID_POINTS}, got {grid_points}")


def integrate_elastica_ivp(
    load: NormalizedLoad, initial_slope: float, grid_points: int
) -> np.ndarray:
    """Integrate the beam equation as an initial-value problem.

    Fourth-order fixed-step integration of theta'' = alpha sin(theta - phi)
    with theta(0) = 0 and theta'(0) = ``initial_slope`` over s in [0, 1];
    halving the step reduces the error roughly 16-fold.

    Returns the tangent angle at each of ``grid_points`` equispaced nodes, as
    a numpy array: needs numpy, which the ``test`` extra installs.
    """
    import numpy as np
    _validate_grid(grid_points)
    if not math.isfinite(initial_slope):
        raise ValueError("initial_slope must be finite")
    if load.alpha == 0.0:
        # Zero load leaves the beam curvature-free: theta grows linearly.
        return initial_slope * np.linspace(0.0, 1.0, grid_points)
    samples = [0.0]
    _rk4_tip(load.alpha, initial_slope, grid_points - 1, samples)
    return np.asarray(samples)


def _zero_solution(alpha: float, grid_points: int) -> ElasticaSolution:
    return ElasticaSolution(
        alpha=alpha,
        theta=[0.0] * grid_points,
        initial_slope=0.0,
        boundary_residual=0.0,
    )


def solve_shape_shooting(
    load: NormalizedLoad, geometry: BeamGeometry, *, grid_points: int = GRID_POINTS
) -> ElasticaSolution:
    """Solve the two-point boundary-value problem by shooting on theta'(0).

    The unknown base slope is the root of the residual r(c) = theta'(1) -
    alpha R / L, bracketed by c = 0 and c = alpha (1 + R/L). A diverging
    trajectory counts as an infinite positive residual, so bisection first
    contracts the bracket back into the physical branch; at R/L = 0 it also
    moves the lower end off the straight stalk. Regula falsi with the
    Anderson-Bjorck weights (BIT 13, 1973) then closes the bracket to 4 eps,
    and its end of smaller residual, which must be within
    ``BOUNDARY_TOLERANCE``, is the solution. At R/L = 0 and alpha <= pi^2/4
    the stalk stays straight, and that shape is returned without a search.
    The solution has ``grid_points`` samples, at least 16. A load whose
    bracket end alpha (1 + R/L) leaves the float range raises ValueError.
    """
    _validate_grid(grid_points)
    alpha, ratio = load.alpha, geometry.radius_ratio
    if alpha == 0.0 or (ratio == 0.0 and alpha <= math.pi**2 / 4.0):
        # Below the Euler load a pure tip force has no buckled branch.
        return _zero_solution(alpha, grid_points)
    c_max = alpha * (ratio + 1.0)
    if c_max == math.inf:
        raise ValueError(f"alpha (1 + R/L) must be finite, got alpha={alpha}, R/L={ratio}")

    target = load.tip_moment(geometry)
    n_steps = grid_points - 1

    def shoot(c: float) -> tuple[float, float, list[float]]:
        """The end (slope, residual, samples) of one pass; a divergent one has residual inf."""
        samples = [0.0]
        try:
            _, om = _rk4_tip(alpha, c, n_steps, samples)
        except SolverError:
            return c, math.inf, samples
        return c, om - target, samples

    # Each RK4 step lowers theta' by at most h alpha, so theta'(1) >= c - alpha: the upper
    # end's residual is >= 0, or the pass diverges. At c = 0 the beam stays straight.
    hi = shoot(c_max)
    ends = [(0.0, -target, [0.0] * grid_points), hi]

    # Regula falsi cannot interpolate through an infinite residual, and at
    # R/L = 0 it would stay on the straight stalk's root c = 0, so bisection
    # moves those ends first. The secant reads the residuals in ``weighted``,
    # where the Anderson-Bjorck rule shrinks that of an end which stays put
    # while the other moves twice.
    weighted = [-target, hi[1]]
    moved = None  # the index of the end that moved last
    while True:
        (c_lo, r_lo, _), (c_hi, r_hi, _) = ends
        if r_hi == 0.0 or c_hi - c_lo <= 4.0 * _EPS * c_hi:
            break
        if math.isinf(r_hi) or r_lo == 0.0:
            if c_hi - c_lo <= _BISECTION_WIDTH:
                break
            c = 0.5 * (c_lo + c_hi)
        else:
            # A ratio of residuals times a length: two tiny residuals never multiply.
            f_lo, f_hi = weighted
            c = c_lo + (f_lo / (f_lo - f_hi)) * (c_hi - c_lo)
            nudge = 2.0 * _EPS * c
            c = min(max(c, c_lo + nudge), c_hi - nudge)
        end = shoot(c)
        i = 0 if end[1] < 0.0 else 1
        if i == moved:
            scale = 1.0 - end[1] / weighted[i]
            weighted[1 - i] *= scale if scale > 0.0 else 0.5
        ends[i], weighted[i], moved = end, end[1], i
    if math.isinf(r_hi) and r_lo < 0.0:
        # Every slope that could raise theta'(1) to the tip moment coils
        # the stalk past MAX_ANGLE first.
        raise SolverError(
            f"no shape within |theta| < 4 pi at alpha={alpha}: base slopes "
            f"above {c_lo:.6g} coil past it, and theta'(1) = {r_lo + target:.4g} "
            f"there stays below the tip moment {target:.4g}"
        )

    c_star, r_star, samples = min(ends, key=lambda end: abs(end[1]))
    achieved = abs(r_star)
    if achieved > BOUNDARY_TOLERANCE:
        raise SolverError(
            f"boundary residual {achieved:.3e} exceeds tolerance at alpha={alpha}"
        )
    return ElasticaSolution(
        alpha=alpha,
        theta=samples,
        initial_slope=c_star,
        boundary_residual=achieved,
    )


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas sweep, no pivoting: lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]."""
    import numpy as np
    lo, d, up, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(d)
    for i in range(1, n):
        w = lo[i - 1] / d[i - 1]
        d[i] -= w * up[i - 1]
        r[i] -= w * r[i - 1]
    r[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        r[i] = (r[i] - up[i] * r[i + 1]) / d[i]
    return np.asarray(r)


def solve_shape_oracle(load: NormalizedLoad, geometry: BeamGeometry) -> ElasticaSolution:
    """Solve the same boundary-value problem by finite-difference relaxation.

    The equation is discretized with second-order central differences on an
    internally refined mesh (an integer multiple of the ``GRID_POINTS`` grid,
    at least 4096 intervals), the tip slope condition is imposed through a
    ghost node, and the resulting nonlinear system is solved by damped Newton
    iteration with a tridiagonal Jacobian. The refined solution is then
    restricted to the ``GRID_POINTS`` grid.

    This route shares no code path with the shooting solver and serves as
    its independent cross-check. It needs numpy, which the ``test`` extra installs.
    """
    import numpy as np
    alpha = load.alpha
    if alpha == 0.0:
        return _zero_solution(alpha, GRID_POINTS)

    coarse_intervals = GRID_POINTS - 1
    refine = max(4, -(-4096 // coarse_intervals))
    m = coarse_intervals * refine
    h = 1.0 / m
    inv_h2 = 1.0 / (h * h)
    s_fine = np.linspace(0.0, 1.0, m + 1)

    def system_residual(t: np.ndarray, a: float, bc: float) -> np.ndarray:
        # t holds theta_1 .. theta_m; the ghost node behind the tip is
        # eliminated with theta_ghost = theta_{m-1} + 2 h bc.
        prev = np.empty_like(t)
        prev[0] = 0.0
        prev[1:] = t[:-1]
        nxt = np.empty_like(t)
        nxt[:-1] = t[1:]
        nxt[-1] = t[-2] + 2.0 * h * bc
        return (prev - 2.0 * t + nxt) * inv_h2 + a * np.sin(t)

    def newton(t: np.ndarray, a: float, bc: float) -> np.ndarray:
        upper = np.full(m - 1, inv_h2)
        lower = np.full(m - 1, inv_h2)
        lower[-1] = 2.0 * inv_h2  # ghost elimination doubles the tip subdiagonal
        f = system_residual(t, a, bc)
        for _ in range(MAX_ITERATIONS):
            diag = -2.0 * inv_h2 + a * np.cos(t)
            step = _solve_tridiagonal(lower, diag, upper, -f)
            norm_f = np.linalg.norm(f)
            lam = 1.0
            while True:
                f_trial = system_residual(t + lam * step, a, bc)
                if np.linalg.norm(f_trial) < norm_f or lam <= 1e-6:
                    break
                lam *= 0.5
            t = t + lam * step
            f = f_trial
            if lam * np.max(np.abs(step)) < 1e-9:
                return t
        raise SolverError(f"relaxation did not converge at alpha={a}")

    # Mild load continuation keeps Newton in its attraction basin at high load. Newton
    # starts from the linearized shape, which a first stage of at most 2 keeps defined:
    # sqrt(2) < pi/2.
    n_stages = max(1, math.ceil(alpha / 2.0))
    a_first = alpha / n_stages
    u = math.sqrt(a_first)
    amplitude = a_first * geometry.radius_ratio / (u * math.cos(u))
    t = (amplitude * np.sin(u * s_fine))[1:]
    for stage in range(1, n_stages + 1):
        a_stage = alpha if stage == n_stages else alpha * stage / n_stages
        t = newton(t, a_stage, a_stage * geometry.radius_ratio)

    theta_fine = np.concatenate(([0.0], t))
    theta = theta_fine[::refine]

    # Residual of the tip slope condition, with the ghost value reconstructed
    # from the tip ODE row (both relations hold simultaneously at convergence).
    tip_moment = load.tip_moment(geometry)
    ghost = 2.0 * t[-1] - t[-2] - h * h * alpha * math.sin(t[-1])
    tip_slope = (ghost - t[-2]) / (2.0 * h)
    achieved = abs(tip_slope - tip_moment)
    if achieved > BOUNDARY_TOLERANCE:
        raise SolverError(f"relaxation boundary residual {achieved:.3e} exceeds tolerance")

    # One-sided fourth-order estimate of the base slope, as a diagnostic.
    base = theta_fine[:5]
    initial_slope = float(
        (-25.0 * base[0] + 48.0 * base[1] - 36.0 * base[2] + 16.0 * base[3] - 3.0 * base[4])
        / (12.0 * h)
    )
    return ElasticaSolution(
        alpha=alpha,
        theta=theta,
        initial_slope=initial_slope,
        boundary_residual=achieved,
    )


def centerline(solution: ElasticaSolution) -> tuple[list[float], list[float]]:
    """Normalized planar coordinates of the deformed stalk.

    Steps along the beam using the mean tangent angle of each interval, so
    every polyline segment has length exactly h and the total arc length is
    1 by construction (inextensible beam). Returns the lists (x, y) of the
    points, starting at the clamped base; each is a running sum in node order.
    """
    theta = solution.theta
    h = 1.0 / (len(theta) - 1)
    x, y = [0.0], [0.0]
    for a, b in zip(theta, islice(theta, 1, None)):
        mid = 0.5 * (a + b)
        x.append(x[-1] + h * math.cos(mid))
        y.append(y[-1] + h * math.sin(mid))
    return x, y
