import math

import numpy as np
import pytest

import stalkmech.elastica
from stalkmech import (
    BeamGeometry,
    IntegrationDivergedError,
    NoSolutionError,
    NormalizedLoad,
    SolverConfig,
    centerline,
    integrate_elastica_ivp,
    solve_shape_oracle,
    solve_shape_shooting,
)
from stalkmech.elastica import _BISECTION_WIDTH, _solve_tridiagonal

# Normalized loads of the reference angle table at R/L = 0.5.
TABLE_ALPHAS = [0.445, 0.772, 1.03, 1.254, 1.467]


class TestIntegrateIvp:
    def test_zero_load_is_exactly_linear(self):
        theta = integrate_elastica_ivp(NormalizedLoad(0.0), 0.7, 257)
        expected = 0.7 * np.linspace(0.0, 1.0, 257)
        assert np.array_equal(theta, expected)
        assert theta[-1] == 0.7

    def test_zero_slope_is_pendulum_equilibrium(self):
        theta = integrate_elastica_ivp(NormalizedLoad(1.0), 0.0, 128)
        assert np.all(theta == 0.0)

    def test_matches_extreme_resolution_reference(self):
        # Self-convergence oracle: the same integrator at ~10^6 steps, with
        # nodes aligned so every coarse node is shared.
        theta = integrate_elastica_ivp(NormalizedLoad(0.445), 0.5, 1024)
        fine = integrate_elastica_ivp(NormalizedLoad(0.445), 0.5, 1023 * 1024 + 1)
        sup = np.max(np.abs(theta - fine[::1024]))
        assert sup <= 1e-8

    def test_divergence_guard(self):
        with pytest.raises(IntegrationDivergedError):
            integrate_elastica_ivp(NormalizedLoad(500.0), 120.0, 64)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            integrate_elastica_ivp(NormalizedLoad(1.0), 0.1, 8)

    def test_non_finite_slope_rejected(self):
        with pytest.raises(ValueError):
            integrate_elastica_ivp(NormalizedLoad(1.0), math.nan, 64)


class TestShooting:
    def test_zero_load_solution(self, half_ratio_geometry, config):
        sol = solve_shape_shooting(NormalizedLoad(0.0), half_ratio_geometry, config)
        assert np.all(sol.theta_samples == 0.0)
        assert sol.tip_angle == 0.0
        assert sol.boundary_residual == 0.0

    @pytest.mark.parametrize(
        "alpha, tip_deg",
        [(1.03, 45.0), (1.467, 75.0)],
    )
    def test_table_loads_invert_to_their_angles(
        self, half_ratio_geometry, config, alpha, tip_deg
    ):
        sol = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry, config)
        # The tabulated loads carry 3-4 significant digits, so the recovered
        # angle is only pinned to a few hundredths of a degree.
        assert sol.tip_angle == pytest.approx(math.radians(tip_deg), abs=5e-3)

    @pytest.mark.parametrize("alpha", TABLE_ALPHAS)
    def test_boundary_satisfaction(self, half_ratio_geometry, config, alpha):
        load = NormalizedLoad(alpha)
        sol = solve_shape_shooting(load, half_ratio_geometry, config)
        assert sol.theta_samples[0] == 0.0
        assert sol.boundary_residual <= config.boundary_tolerance
        # The samples are the pass from the returned base slope, not a stale one.
        replay = integrate_elastica_ivp(load, sol.initial_slope, config.grid_points)
        assert np.array_equal(replay, sol.theta_samples)

    def test_monotone_tip_response(self, half_ratio_geometry, config):
        # Strictly increasing tip angle over alpha in [0, 1.5], 0.05 steps.
        alphas = [0.05 * k for k in range(31)]
        tips = [
            solve_shape_shooting(NormalizedLoad(a), half_ratio_geometry, config).tip_angle
            for a in alphas
        ]
        assert all(b > a for a, b in zip(tips, tips[1:]))

    @pytest.fixture
    def slopes(self, monkeypatch):
        """The base slope of every RK4 pass that shooting makes."""
        slopes = []
        rk4 = stalkmech.elastica._rk4_tip

        def counted(alpha, initial_slope, *args):
            slopes.append(initial_slope)
            return rk4(alpha, initial_slope, *args)

        monkeypatch.setattr(stalkmech.elastica, "_rk4_tip", counted)
        return slopes

    def test_cold_solve_takes_few_integrations(self, half_ratio_geometry, config, slopes):
        # One pass at the first bracket end, alpha (R/L + 1) = 1.545, which
        # already brackets the root, then Brent's steps to machine precision.
        solve_shape_shooting(NormalizedLoad(1.03), half_ratio_geometry, config)
        assert len(slopes) <= 10

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.0, 2.4, math.pi**2 / 4])
    def test_pure_tip_force_below_euler_load_is_straight_without_a_pass(
        self, config, slopes, alpha
    ):
        sol = solve_shape_shooting(NormalizedLoad(alpha), BeamGeometry.from_ratio(0.0), config)
        assert slopes == []
        assert np.all(sol.theta_samples == 0.0) and len(sol.theta_samples) == config.grid_points
        assert sol.initial_slope == 0.0 and sol.boundary_residual == 0.0

    def test_coiled_stalk_names_the_coil_limit(self, config, slopes):
        # At alpha 8, R/L 2 the tip would sit near 937 degrees, past MAX_ANGLE.
        with pytest.raises(NoSolutionError) as excinfo:
            solve_shape_shooting(NormalizedLoad(8.0), BeamGeometry.from_ratio(2.0), config)
        message = str(excinfo.value)
        assert message.startswith("no shape within |theta| < 4 pi at alpha=8.0:")
        assert "theta'(1) = 13.21 there stays below the tip moment 16" in message
        # One pass at the first bracket end, alpha (R/L + 1) = 24, then one per
        # bisection down to the width; the error comes before any Brent step.
        assert len(slopes) == 1 + math.ceil(math.log2(24.0 / _BISECTION_WIDTH))

    def test_grid_convergence_is_fourth_order(self, half_ratio_geometry):
        # Successive tip-angle differences shrink ~16x per grid doubling.
        solutions = {
            n: solve_shape_shooting(
                NormalizedLoad(1.467), half_ratio_geometry, SolverConfig(grid_points=n)
            )
            for n in (128, 256, 512)
        }
        assert all(sol.boundary_residual <= 1e-13 for sol in solutions.values())
        tips = {n: sol.tip_angle for n, sol in solutions.items()}
        ratio = (tips[128] - tips[256]) / (tips[256] - tips[512])
        assert 16.0 * 0.7 <= abs(ratio) <= 16.0 * 1.3


class TestOracle:
    def test_zero_load_solution(self, half_ratio_geometry, config):
        sol = solve_shape_oracle(NormalizedLoad(0.0), half_ratio_geometry, config)
        assert np.all(sol.theta_samples == 0.0)

    @pytest.mark.parametrize("alpha", [0.445, 1.467])
    def test_agrees_with_shooting(self, half_ratio_geometry, config, alpha):
        shoot = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry, config)
        mesh = solve_shape_oracle(NormalizedLoad(alpha), half_ratio_geometry, config)
        sup = np.max(np.abs(shoot.theta_samples - mesh.theta_samples))
        assert sup <= 1e-6
        assert mesh.boundary_residual <= config.boundary_tolerance

    def test_last_continuation_stage_lands_on_alpha(self, half_ratio_geometry, config):
        # alpha > 2 triggers load continuation; the end state must still
        # solve the requested load exactly.
        shoot = solve_shape_shooting(NormalizedLoad(2.4), half_ratio_geometry, config)
        mesh = solve_shape_oracle(NormalizedLoad(2.4), half_ratio_geometry, config)
        assert np.max(np.abs(shoot.theta_samples - mesh.theta_samples)) <= 1e-6


    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_tridiagonal_sweep_matches_dense_solve(self, n):
        # Diagonally dominant like the Newton Jacobian, with the last
        # subdiagonal entry doubled as the ghost-node elimination does.
        rng = np.random.default_rng(n)
        lower = rng.uniform(0.5, 1.0, n - 1)
        lower[-1] *= 2.0
        upper = rng.uniform(0.5, 1.0, n - 1)
        diag = -(4.0 + rng.uniform(0.0, 1.0, n))
        rhs = rng.normal(size=n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        x = _solve_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-14)


class TestCenterline:
    def test_straight_beam(self, half_ratio_geometry, config):
        sol = solve_shape_shooting(NormalizedLoad(0.0), half_ratio_geometry, config)
        points = centerline(sol)
        assert np.allclose(points[:, 0], np.linspace(0.0, 1.0, config.grid_points), atol=1e-12)
        assert np.all(points[:, 1] == 0.0)

    @pytest.mark.parametrize("alpha", [0.445, 1.03, 1.467])
    def test_unit_arc_length(self, half_ratio_geometry, config, alpha):
        sol = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry, config)
        points = centerline(sol)
        length = float(np.sum(np.hypot(*np.diff(points, axis=0).T)))
        assert abs(length - 1.0) <= 1e-6

    def test_final_segment_tangent_matches_tip_angle(self, half_ratio_geometry):
        sol = solve_shape_shooting(
            NormalizedLoad(1.03), half_ratio_geometry, SolverConfig(grid_points=4096)
        )
        points = centerline(sol)
        direction = math.atan2(
            points[-1, 1] - points[-2, 1], points[-1, 0] - points[-2, 0]
        )
        assert abs(direction - sol.tip_angle) <= 1e-4
