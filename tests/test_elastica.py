import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stalkmech.elastica
from stalkmech import (
    BeamGeometry,
    NormalizedLoad,
    SolverError,
    centerline,
    integrate_elastica_ivp,
    solve_shape_oracle,
    solve_shape_shooting,
)
from stalkmech.elastica import _BISECTION_WIDTH, _rk4_tip, _solve_tridiagonal
from stalkmech.geometry import BOUNDARY_TOLERANCE, GRID_POINTS

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
        with pytest.raises(SolverError, match=r"^integration diverged at alpha=500\.0, "):
            integrate_elastica_ivp(NormalizedLoad(500.0), 120.0, 64)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            integrate_elastica_ivp(NormalizedLoad(1.0), 0.1, 8)

    def test_non_finite_slope_rejected(self):
        with pytest.raises(ValueError):
            integrate_elastica_ivp(NormalizedLoad(1.0), math.nan, 64)


class TestShooting:
    def test_zero_load_solution(self, half_ratio_geometry):
        sol = solve_shape_shooting(NormalizedLoad(0.0), half_ratio_geometry)
        assert np.all(sol.theta_samples == 0.0)
        assert sol.tip_angle == 0.0
        assert sol.boundary_residual == 0.0

    # Below about 1e-155 the residual and the base slope are both tiny, so
    # the secant steps must not multiply two residuals, which would underflow.
    @pytest.mark.parametrize("alpha", [1e-160, 1e-300])
    def test_tiny_load_bends_by_the_tip_moment(self, half_ratio_geometry, alpha):
        sol = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry)
        assert sol.tip_angle == pytest.approx(0.5 * alpha, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, tip_deg",
        [(1.03, 45.0), (1.467, 75.0)],
    )
    def test_table_loads_invert_to_their_angles(
        self, half_ratio_geometry, alpha, tip_deg
    ):
        sol = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry)
        # The tabulated loads carry 3-4 significant digits, so the recovered
        # angle is only pinned to a few hundredths of a degree.
        assert sol.tip_angle == pytest.approx(math.radians(tip_deg), abs=5e-3)

    @pytest.mark.parametrize("alpha", TABLE_ALPHAS)
    def test_boundary_satisfaction(self, half_ratio_geometry, alpha):
        load = NormalizedLoad(alpha)
        sol = solve_shape_shooting(load, half_ratio_geometry)
        assert sol.theta_samples[0] == 0.0
        assert sol.boundary_residual <= BOUNDARY_TOLERANCE
        # The samples are the pass from the returned base slope, not a stale one.
        replay = integrate_elastica_ivp(load, sol.initial_slope, GRID_POINTS)
        assert np.array_equal(replay, sol.theta_samples)

    def test_monotone_tip_response(self, half_ratio_geometry):
        # Strictly increasing tip angle over alpha in [0, 1.5], 0.05 steps.
        alphas = [0.05 * k for k in range(31)]
        tips = [
            solve_shape_shooting(NormalizedLoad(a), half_ratio_geometry).tip_angle
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

    def test_cold_solve_takes_few_integrations(self, half_ratio_geometry, slopes):
        # One pass at the first bracket end, alpha (R/L + 1) = 1.545, which
        # already brackets the root, then regula falsi steps to machine precision.
        solve_shape_shooting(NormalizedLoad(1.03), half_ratio_geometry)
        assert len(slopes) <= 10

    def test_load_grid_takes_few_integrations(self, slopes):
        # One cell is a coil error. The bound is 1% above the 482 passes
        # that Brent's method took here.
        for ratio in (0.0, 0.05, 0.1, 0.5, 1.0, 2.0, 3.0):
            geometry = BeamGeometry.from_ratio(ratio)
            for alpha in (0.1, 0.445, 1.03, 1.467, 2.4, 3.0, 4.0, 6.0):
                try:
                    solve_shape_shooting(NormalizedLoad(alpha), geometry)
                except SolverError as exc:
                    assert (ratio, alpha) == (3.0, 6.0)
                    assert str(exc).startswith("no shape within |theta| < 4 pi")
        assert len(slopes) <= 487

    # Shooting's upper bracket end, c = alpha (1 + R/L), needs no search: each RK4
    # stage slope of theta' is -alpha sin(.) >= -alpha, so theta'(1) >= c - alpha.
    @given(
        alpha=st.floats(min_value=-300.0, max_value=6.0).map(lambda e: 10.0**e),
        ratio=st.one_of(
            st.just(0.0), st.floats(min_value=-6.0, max_value=22.0).map(lambda e: 10.0**e)
        ),
        grid_points=st.sampled_from([16, 257, GRID_POINTS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_upper_bracket_end_is_at_or_past_the_root(self, alpha, ratio, grid_points):
        load, geometry = NormalizedLoad(alpha), BeamGeometry.from_ratio(ratio)
        try:
            _, tip_slope = _rk4_tip(alpha, alpha * (geometry.radius_ratio + 1.0), grid_points - 1)
        except SolverError as exc:
            assert str(exc).startswith("integration diverged at alpha=")
            return
        assert tip_slope - load.tip_moment(geometry) >= 0.0

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.0, 2.4, math.pi**2 / 4])
    def test_pure_tip_force_below_euler_load_is_straight_without_a_pass(
        self, slopes, alpha
    ):
        sol = solve_shape_shooting(NormalizedLoad(alpha), BeamGeometry.from_ratio(0.0))
        assert slopes == []
        assert np.all(sol.theta_samples == 0.0) and len(sol.theta_samples) == GRID_POINTS
        assert sol.initial_slope == 0.0 and sol.boundary_residual == 0.0

    def test_coiled_stalk_names_the_coil_limit(self, slopes):
        # At alpha 8, R/L 2 the tip would sit near 937 degrees, past MAX_ANGLE.
        with pytest.raises(SolverError) as excinfo:
            solve_shape_shooting(NormalizedLoad(8.0), BeamGeometry.from_ratio(2.0))
        message = str(excinfo.value)
        assert message.startswith("no shape within |theta| < 4 pi at alpha=8.0:")
        assert "theta'(1) = 13.21 there stays below the tip moment 16" in message
        # One pass at the first bracket end, alpha (R/L + 1) = 24, then one per
        # bisection down to the width; the error comes before any secant step.
        assert len(slopes) == 1 + math.ceil(math.log2(24.0 / _BISECTION_WIDTH))

    @pytest.mark.parametrize("alpha", [0.0, 1.03])
    def test_grid_below_sixteen_points_rejected(self, half_ratio_geometry, alpha):
        load = NormalizedLoad(alpha)
        with pytest.raises(ValueError, match="^grid_points must be >= 16, got 15$"):
            solve_shape_shooting(load, half_ratio_geometry, grid_points=15)
        with pytest.raises(ValueError, match="^grid_points must be >= 16, got 15$"):
            integrate_elastica_ivp(load, 1.0, 15)

    def test_grid_convergence_is_fourth_order(self, half_ratio_geometry):
        # Successive tip-angle differences shrink ~16x per grid doubling.
        solutions = {
            n: solve_shape_shooting(NormalizedLoad(1.467), half_ratio_geometry, grid_points=n)
            for n in (128, 256, 512)
        }
        assert all(sol.boundary_residual <= 1e-13 for sol in solutions.values())
        tips = {n: sol.tip_angle for n, sol in solutions.items()}
        ratio = (tips[128] - tips[256]) / (tips[256] - tips[512])
        assert 16.0 * 0.7 <= abs(ratio) <= 16.0 * 1.3


class TestOracle:
    def test_zero_load_solution(self, half_ratio_geometry):
        sol = solve_shape_oracle(NormalizedLoad(0.0), half_ratio_geometry)
        assert np.all(sol.theta_samples == 0.0)

    @pytest.mark.parametrize("alpha", [0.445, 1.467])
    def test_agrees_with_shooting(self, half_ratio_geometry, alpha):
        shoot = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry)
        mesh = solve_shape_oracle(NormalizedLoad(alpha), half_ratio_geometry)
        sup = np.max(np.abs(shoot.theta_samples - mesh.theta_samples))
        assert sup <= 1e-6
        assert mesh.boundary_residual <= BOUNDARY_TOLERANCE

    def test_last_continuation_stage_lands_on_alpha(self, half_ratio_geometry):
        # alpha > 2 triggers load continuation; the end state must still
        # solve the requested load exactly.
        shoot = solve_shape_shooting(NormalizedLoad(2.4), half_ratio_geometry)
        mesh = solve_shape_oracle(NormalizedLoad(2.4), half_ratio_geometry)
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
    def test_straight_beam(self, half_ratio_geometry):
        sol = solve_shape_shooting(NormalizedLoad(0.0), half_ratio_geometry)
        x, y = centerline(sol)
        assert np.allclose(x, np.linspace(0.0, 1.0, GRID_POINTS), atol=1e-12)
        assert y == [0.0] * GRID_POINTS

    @pytest.mark.parametrize("alpha", [0.445, 1.03, 1.467])
    def test_unit_arc_length(self, half_ratio_geometry, alpha):
        sol = solve_shape_shooting(NormalizedLoad(alpha), half_ratio_geometry)
        x, y = centerline(sol)
        length = float(np.sum(np.hypot(np.diff(x), np.diff(y))))
        assert abs(length - 1.0) <= 1e-6

    def test_final_segment_tangent_matches_tip_angle(self, half_ratio_geometry):
        sol = solve_shape_shooting(NormalizedLoad(1.03), half_ratio_geometry, grid_points=4096)
        x, y = centerline(sol)
        direction = math.atan2(y[-1] - y[-2], x[-1] - x[-2])
        assert abs(direction - sol.tip_angle) <= 1e-4

    # The shape goldens pin a few grids only, so the plain-Python polyline and
    # grid are held to their numpy form bit for bit over loads, R/L and grids.
    @pytest.mark.parametrize("grid_points", [16, 100, 1024, 5000])
    def test_equals_the_numpy_polyline_bit_for_bit(self, grid_points):
        h = 1.0 / (grid_points - 1)
        for ratio in (0.0, 0.05, 1.0):
            for alpha in (0.445, 3.0, 6.0):
                sol = solve_shape_shooting(
                    NormalizedLoad(alpha), BeamGeometry.from_ratio(ratio), grid_points=grid_points
                )
                theta = sol.theta_samples
                mid = 0.5 * (theta[:-1] + theta[1:])
                x, y = centerline(sol)
                assert x == [0.0, *np.cumsum(h * np.cos(mid)).tolist()]
                assert y == [0.0, *np.cumsum(h * np.sin(mid)).tolist()]
                assert sol.grid == np.linspace(0.0, 1.0, grid_points).tolist()
