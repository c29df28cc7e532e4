import math

import pytest

from stalkmech import (
    BeamGeometry,
    NoSolutionError,
    SolverConfig,
    UnreachableAngleError,
    generate_alpha_table,
    linearized_alpha,
    solve_alpha_for_angle,
    solve_shape_shooting,
)
from stalkmech.alpha import _brentq
from stalkmech.geometry import NormalizedLoad

# Reference required-load column at R/L = 0.5 for 15..75 degrees.
TABLE = {15.0: 0.445, 30.0: 0.772, 45.0: 1.03, 60.0: 1.254, 75.0: 1.467}


class TestBrent:
    @pytest.mark.parametrize(
        "f, a, b, root",
        [
            (lambda x: x**3 - 2.0, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
            (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        ],
    )
    def test_closed_form_roots(self, f, a, b, root):
        x = _brentq(f, a, b, xtol=1e-12, maxiter=100)
        assert abs(x - root) <= 1e-12

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, maxiter=100)

    def test_iteration_budget_exhausted(self):
        with pytest.raises(NoSolutionError):
            _brentq(lambda x: x**3 - 2.0, 0.0, 3.0, xtol=1e-12, maxiter=3)


class TestLinearizedOracle:
    # Frozen roots of sqrt(a) tan(sqrt(a)) = gamma L / R at R/L = 0.5,
    # computed independently with mpmath-grade bisection on u tan u.
    @pytest.mark.parametrize(
        "gamma_deg, expected",
        [(15.0, 0.443756), (30.0, 0.765338)],
    )
    def test_frozen_roots(self, half_ratio_geometry, gamma_deg, expected):
        alpha = linearized_alpha(math.radians(gamma_deg), half_ratio_geometry)
        assert alpha == pytest.approx(expected, abs=2e-6)

    def test_small_angle_series_limit(self, half_ratio_geometry):
        # u tan u = t expands to alpha (1 + alpha/3 + ...) = t, so for small
        # angles alpha ~= t - t^2/3 with t = gamma L / R; the next series
        # term is O(t^3), hence the slack.
        gamma = math.radians(1.0)
        t = gamma / half_ratio_geometry.radius_ratio
        alpha = linearized_alpha(gamma, half_ratio_geometry)
        assert alpha == pytest.approx(t - t * t / 3.0, rel=5e-4)
        assert alpha == pytest.approx(t, rel=2e-2)

    def test_solution_satisfies_the_transcendental_relation(self, half_ratio_geometry):
        gamma = math.radians(20.0)
        alpha = linearized_alpha(gamma, half_ratio_geometry)
        u = math.sqrt(alpha)
        assert u * math.tan(u) == pytest.approx(gamma / 0.5, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -0.1, math.pi / 2])
    def test_angle_domain(self, half_ratio_geometry, gamma):
        with pytest.raises(ValueError):
            linearized_alpha(gamma, half_ratio_geometry)

    def test_needs_positive_pad_radius(self):
        with pytest.raises(ValueError):
            linearized_alpha(0.3, BeamGeometry(stalk_length=1.0, pad_radius=0.0))


class TestSolveAlphaForAngle:
    def test_zero_angle_maps_to_zero_load(self, half_ratio_geometry, config):
        result = solve_alpha_for_angle(0.0, half_ratio_geometry, config)
        assert result.alpha == 0.0
        assert result.tip_angle_achieved == 0.0

    @pytest.mark.parametrize("gamma_deg, expected", sorted(TABLE.items()))
    def test_reference_table_values(self, half_ratio_geometry, config, gamma_deg, expected):
        result = solve_alpha_for_angle(math.radians(gamma_deg), half_ratio_geometry, config)
        assert result.alpha == pytest.approx(expected, rel=0.03)

    def test_round_trip_through_the_shape_solver(self, half_ratio_geometry, config):
        gamma = math.radians(37.5)
        result = solve_alpha_for_angle(gamma, half_ratio_geometry, config)
        sol = solve_shape_shooting(
            NormalizedLoad(result.alpha), half_ratio_geometry, config
        )
        assert abs(sol.tip_angle - gamma) <= 1e-6

    def test_monotone_in_angle(self, half_ratio_geometry, config):
        alphas = [
            solve_alpha_for_angle(math.radians(d), half_ratio_geometry, config).alpha
            for d in range(5, 90, 5)
        ]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    @pytest.mark.parametrize("gamma_deg, rel_tol", [(1.0, 1e-3), (5.0, 1e-2)])
    def test_small_angle_agreement_with_closed_form(
        self, half_ratio_geometry, config, gamma_deg, rel_tol
    ):
        gamma = math.radians(gamma_deg)
        nonlinear = solve_alpha_for_angle(gamma, half_ratio_geometry, config).alpha
        linear = linearized_alpha(gamma, half_ratio_geometry)
        assert abs(nonlinear - linear) / linear <= rel_tol

    @pytest.mark.parametrize("gamma_deg", [30.0, 45.0, 60.0, 75.0])
    def test_geometric_stiffening_beyond_the_linear_model(
        self, half_ratio_geometry, config, gamma_deg
    ):
        gamma = math.radians(gamma_deg)
        nonlinear = solve_alpha_for_angle(gamma, half_ratio_geometry, config).alpha
        assert nonlinear >= linearized_alpha(gamma, half_ratio_geometry)

    def test_larger_moment_arm_needs_less_load(self, config):
        gamma = math.radians(30.0)
        alphas = [
            solve_alpha_for_angle(gamma, BeamGeometry.from_ratio(r), config).alpha
            for r in (0.1, 0.25, 0.5, 1.0)
        ]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_unreachable_angle_reports_the_ceiling(self, half_ratio_geometry):
        config = SolverConfig(alpha_bracket_max=0.5)
        with pytest.raises(UnreachableAngleError) as excinfo:
            solve_alpha_for_angle(math.radians(60.0), half_ratio_geometry, config)
        assert excinfo.value.max_tip_angle is not None
        assert 0.0 < excinfo.value.max_tip_angle < math.radians(60.0)

    @pytest.mark.parametrize("gamma", [-0.01, math.pi / 2, 2.0])
    def test_angle_domain(self, half_ratio_geometry, config, gamma):
        with pytest.raises(ValueError):
            solve_alpha_for_angle(gamma, half_ratio_geometry, config)


class TestAlphaTable:
    def test_empty_input(self, half_ratio_geometry, config):
        assert generate_alpha_table([], half_ratio_geometry, config) == []

    def test_zero_angle_row(self, half_ratio_geometry, config):
        rows = generate_alpha_table([0.0], half_ratio_geometry, config)
        assert len(rows) == 1
        assert rows[0].alpha == 0.0
        assert rows[0].error is None

    def test_order_preserved(self, half_ratio_geometry, config):
        angles = [math.radians(d) for d in (45.0, 15.0, 30.0)]
        rows = generate_alpha_table(angles, half_ratio_geometry, config)
        assert [r.surface_angle for r in rows] == angles
        assert rows[0].alpha > rows[2].alpha > rows[1].alpha

    def test_failed_rows_are_marked_not_fatal(self, half_ratio_geometry):
        config = SolverConfig(alpha_bracket_max=1.0)
        angles = [math.radians(d) for d in (15.0, 80.0, 30.0)]
        rows = generate_alpha_table(angles, half_ratio_geometry, config)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].alpha is None
        assert rows[2].error is None

    def test_outer_search_out_of_iterations_is_an_error_row(self, half_ratio_geometry):
        config = SolverConfig(max_iterations=5)
        rows = generate_alpha_table([math.radians(45.0)], half_ratio_geometry, config)
        assert rows[0].alpha is None and rows[0].result is None
        assert "after 5 iterations" in rows[0].error
