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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .alpha import _brentq
from .errors import IntegrationDivergedError, NoSolutionError
from .geometry import DEFAULT_CONFIG, BeamGeometry, NormalizedLoad, SolverConfig

if TYPE_CHECKING:
    import numpy as np

# Abort integration beyond this angle: the stalk coiling several full turns
# has no physical meaning and signals a runaway trajectory.
MAX_ANGLE = 4.0 * math.pi

# Width below which bisection off a divergent or straight bracket end stops.
_BISECTION_WIDTH = 1e-6


@dataclass(frozen=True)
class ElasticaSolution:
    """A solved beam shape on the normalized arc-length grid.

    ``theta_samples[i]`` is the tangent angle at s = i / (n - 1); the clamped
    base fixes ``theta_samples[0]`` to zero. ``initial_slope`` is the base
    curvature theta'(0) found by the solver, and ``boundary_residual`` is the
    achieved |theta'(1) - alpha R / L|.
    """

    alpha: float
    theta_samples: np.ndarray
    initial_slope: float
    boundary_residual: float

    def __post_init__(self):
        import numpy as np
        samples = np.asarray(self.theta_samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "theta_samples", samples)
        if samples[0] != 0.0:
            raise ValueError("theta_samples[0] must be 0 (clamped base)")

    @property
    def tip_angle(self) -> float:
        """The tangent angle theta(1), the last sample."""
        return float(self.theta_samples[-1])

    @property
    def grid(self) -> np.ndarray:
        """The normalized arc-length nodes the samples live on."""
        import numpy as np
        return np.linspace(0.0, 1.0, len(self.theta_samples))


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
            raise IntegrationDivergedError(
                f"integration diverged at alpha={alpha}, theta'(0)={initial_slope}"
            )
        if record:
            samples.append(th)
    return th, om


def integrate_elastica_ivp(
    load: NormalizedLoad, initial_slope: float, grid_points: int
) -> np.ndarray:
    """Integrate the beam equation as an initial-value problem.

    Fourth-order fixed-step integration of theta'' = alpha sin(theta - phi)
    with theta(0) = 0 and theta'(0) = ``initial_slope`` over s in [0, 1];
    halving the step reduces the error roughly 16-fold.

    Returns the tangent angle at each of ``grid_points`` equispaced nodes.
    """
    import numpy as np
    if grid_points < 16:
        raise ValueError(f"grid_points must be >= 16, got {grid_points}")
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
        theta_samples=[0.0] * grid_points,
        initial_slope=0.0,
        boundary_residual=0.0,
    )


def solve_shape_shooting(
    load: NormalizedLoad,
    geometry: BeamGeometry,
    config: SolverConfig = DEFAULT_CONFIG,
) -> ElasticaSolution:
    """Solve the two-point boundary-value problem by shooting on theta'(0).

    The unknown base slope is the root of the residual r(c) = theta'(1) -
    alpha R / L, bracketed by doubling from c = 0. A diverging trajectory
    counts as an infinite positive residual, so bisection first contracts
    the bracket back into the physical branch; at R/L = 0 it also moves the
    lower end off the straight stalk. Brent's method then runs to machine
    precision, and the achieved residual must be within
    ``config.boundary_tolerance``. At R/L = 0 and alpha <= pi^2/4 the
    stalk stays straight, and that shape is returned without a search.
    """
    alpha = load.alpha
    if alpha == 0.0 or (geometry.radius_ratio == 0.0 and alpha <= math.pi**2 / 4.0):
        # Below the Euler load a pure tip force has no buckled branch.
        return _zero_solution(alpha, config.grid_points)

    target = load.tip_moment(geometry)
    n_steps = config.grid_points - 1

    last = (math.nan, [], math.nan)  # slope, samples and theta'(1) of the last pass

    def residual(c: float) -> float:
        nonlocal last
        samples = [0.0]
        try:
            _, om = _rk4_tip(alpha, c, n_steps, samples)
        except IntegrationDivergedError:
            return math.inf
        last = (c, samples, om)
        return om - target

    # Bracket the root, bisect off the divergent and straight ends, then Brent.
    lo, r_lo = 0.0, -target  # c = 0 keeps the beam straight: theta'(1) = 0
    hi = alpha * (geometry.radius_ratio + 1.0)
    r_hi = residual(hi)
    expansions = 0
    while r_hi < 0.0:
        expansions += 1
        if expansions > config.max_iterations:
            raise NoSolutionError(
                f"no bracket for the base slope at alpha={alpha}", last_residual=r_hi
            )
        hi *= 2.0
        r_hi = residual(hi)

    # Brent cannot interpolate through an infinite residual, and at R/L = 0 it
    # would return the straight stalk's root c = 0 at once.
    while (math.isinf(r_hi) or r_lo == 0.0) and hi - lo > _BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid < 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    if math.isinf(r_hi) and r_lo < 0.0:
        # Every slope that could raise theta'(1) to the tip moment coils
        # the stalk past MAX_ANGLE first.
        raise NoSolutionError(
            f"no shape within |theta| < 4 pi at alpha={alpha}: base slopes "
            f"above {lo:.6g} coil past it, and theta'(1) = {r_lo + target:.4g} "
            f"there stays below the tip moment {target:.4g}",
            last_residual=r_lo,
        )
    c_star = _brentq(
        residual, lo, hi, xtol=0.0, maxiter=config.max_iterations, fa=r_lo, fb=r_hi
    )

    if last[0] != c_star:
        residual(c_star)
    _, samples, om = last
    achieved = abs(om - target)
    if achieved > config.boundary_tolerance:
        raise NoSolutionError(
            f"boundary residual {achieved:.3e} exceeds tolerance at alpha={alpha}",
            last_residual=achieved,
        )
    return ElasticaSolution(
        alpha=alpha,
        theta_samples=samples,
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


def _relaxation_guess(alpha: float, tip_slope: float, s: np.ndarray) -> np.ndarray:
    """Starting profile for Newton: the linearized shape where valid, else a ramp."""
    import numpy as np
    u = math.sqrt(alpha)
    if u < 0.5 * math.pi - 0.1:
        amplitude = tip_slope / (u * math.cos(u))
        return amplitude * np.sin(u * s)
    return tip_slope * s


def solve_shape_oracle(
    load: NormalizedLoad,
    geometry: BeamGeometry,
    config: SolverConfig = DEFAULT_CONFIG,
) -> ElasticaSolution:
    """Solve the same boundary-value problem by finite-difference relaxation.

    The equation is discretized with second-order central differences on an
    internally refined mesh (an integer multiple of the requested grid, at
    least 4096 intervals), the tip slope condition is imposed through a ghost
    node, and the resulting nonlinear system is solved by damped Newton
    iteration with a tridiagonal Jacobian. The refined solution is then
    restricted to the requested grid.

    This route shares no code path with the shooting solver and serves as
    its independent cross-check.
    """
    import numpy as np
    alpha = load.alpha
    if alpha == 0.0:
        return _zero_solution(alpha, config.grid_points)

    coarse_intervals = config.grid_points - 1
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
        for _ in range(config.max_iterations):
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
        raise NoSolutionError(f"relaxation did not converge at alpha={a}")

    # Mild load continuation keeps Newton in its attraction basin at high load.
    n_stages = max(1, math.ceil(alpha / 2.0))
    a_first = alpha / n_stages
    t = _relaxation_guess(a_first, a_first * geometry.radius_ratio, s_fine)[1:]
    for stage in range(1, n_stages + 1):
        a_stage = alpha if stage == n_stages else alpha * stage / n_stages
        t = newton(t, a_stage, a_stage * geometry.radius_ratio)

    theta_fine = np.concatenate(([0.0], t))
    theta = theta_fine[::refine].copy()

    # Residual of the tip slope condition, with the ghost value reconstructed
    # from the tip ODE row (both relations hold simultaneously at convergence).
    tip_moment = load.tip_moment(geometry)
    ghost = 2.0 * t[-1] - t[-2] - h * h * alpha * math.sin(t[-1])
    tip_slope = (ghost - t[-2]) / (2.0 * h)
    achieved = abs(tip_slope - tip_moment)
    if achieved > config.boundary_tolerance:
        raise NoSolutionError(
            f"relaxation boundary residual {achieved:.3e} exceeds tolerance",
            last_residual=achieved,
        )

    # One-sided fourth-order estimate of the base slope, as a diagnostic.
    base = theta_fine[:5]
    initial_slope = float(
        (-25.0 * base[0] + 48.0 * base[1] - 36.0 * base[2] + 16.0 * base[3] - 3.0 * base[4])
        / (12.0 * h)
    )
    return ElasticaSolution(
        alpha=alpha,
        theta_samples=theta,
        initial_slope=initial_slope,
        boundary_residual=achieved,
    )


def centerline(solution: ElasticaSolution) -> np.ndarray:
    """Normalized planar coordinates of the deformed stalk.

    Steps along the beam using the mean tangent angle of each interval, so
    every polyline segment has length exactly h and the total arc length is
    1 by construction (inextensible beam). Returns an (n, 2) array of
    (x, y) points starting at the clamped base.
    """
    import numpy as np
    theta = solution.theta_samples
    n = theta.shape[0]
    h = 1.0 / (n - 1)
    mid = 0.5 * (theta[:-1] + theta[1:])
    points = np.empty((n, 2))
    points[0] = 0.0
    np.cumsum(h * np.cos(mid), out=points[1:, 0])
    np.cumsum(h * np.sin(mid), out=points[1:, 1])
    return points
