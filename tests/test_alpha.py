import io
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import stalkmech.alpha
import stalkmech.elastica
from reference import linearized_alpha
from stalkmech import (
    BeamGeometry,
    SolverError,
    StiffnessCalibration,
    generate_alpha_table,
    integrate_elastica_ivp,
    predict_force_curve,
    solve_alpha_for_angle,
    solve_shape_oracle,
    solve_shape_shooting,
)
from stalkmech.alpha import _amplitude, _carlson, _excess
from stalkmech.cli import execute
from stalkmech.geometry import ANGLE_TOLERANCE, GRID_POINTS, NormalizedLoad

EPS = sys.float_info.epsilon

# Reference required-load column at R/L = 0.5 for 15..75 degrees.
TABLE = {15.0: 0.445, 30.0: 0.772, 45.0: 1.03, 60.0: 1.254, 75.0: 1.467}

# The jammed 20 mm stalk's fitted rigidity, for the force-curve entry point.
CALIBRATION = StiffnessCalibration(5.44e-4, 1.0, "direct", 0.02)


def incomplete_f(phi, m, panels=8):
    """F(phi | m) by a 32-node Gauss-Legendre rule on ``panels`` equal panels.

    The rule comes from numpy, so it shares no code with the solver. Eight
    panels keep it exact to rounding up to m = 0.999, where the integrand
    peaks sharply near phi = pi/2.
    """
    nodes, weights = leggauss(32)
    t = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * (phi / panels)
    return 0.5 * phi / panels * float(np.sum(weights / np.sqrt(1.0 - m * np.sin(t) ** 2)))


def complete_k(half_angle):
    """K(sin(half_angle)) = pi / (2 AGM(1, cos(half_angle))) (DLMF 19.8.5)."""
    a, b = 1.0, math.cos(half_angle)
    while a - b > math.ulp(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


class TestCarlsonRF:
    GAMMA_QUARTER = math.gamma(0.25) ** 2

    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 7.0])
    def test_equal_arguments(self, x):
        assert _carlson(x, x, x)[0] == pytest.approx(x**-0.5, rel=2e-16)

    @pytest.mark.parametrize("y", [0.25, 1.0, 3.0])
    def test_two_equal_arguments_and_a_zero(self, y):
        assert _carlson(0.0, y, y)[0] == pytest.approx(0.5 * math.pi / math.sqrt(y), rel=4e-16)

    def test_lemniscate_value(self):
        # DLMF 19.20.2: R_F(0, 1, 2) = Gamma(1/4)^2 / (4 sqrt(2 pi)).
        expected = self.GAMMA_QUARTER / (4.0 * math.sqrt(2.0 * math.pi))
        assert _carlson(0.0, 1.0, 2.0)[0] == pytest.approx(expected, rel=4e-16)

    def test_complete_integral_at_the_right_angle(self):
        # K(1/sqrt(2)) = R_F(0, 1/2, 1) = Gamma(1/4)^2 / (4 sqrt(pi)), at gamma = 90 degrees.
        expected = self.GAMMA_QUARTER / (4.0 * math.sqrt(math.pi))
        assert _carlson(0.0, 0.5, 1.0)[0] == pytest.approx(expected, rel=4e-16)
        assert complete_k(0.25 * math.pi) == pytest.approx(expected, rel=4e-16)

    # F(phi_gamma, k) in the solver's variables: sin(phi) = s / k, cos(phi) = c / k.
    @given(
        gamma=st.floats(min_value=1e-3, max_value=math.radians(89.5)),
        c=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_incomplete_integral(self, gamma, c):
        s = math.sin(0.5 * gamma)
        k = math.hypot(s, c)
        solver = s / k * _carlson((c / k) ** 2, math.cos(0.5 * gamma) ** 2, 1.0)[0]
        reference = incomplete_f(math.atan2(s, c), k * k)
        assert solver == pytest.approx(reference, rel=4e-15)


class TestCarlsonRD:
    # The test values Carlson (1995, Numer. Algorithms 10) gives for R_D.
    @pytest.mark.parametrize(
        "args, expected",
        [((0.0, 2.0, 1.0), 1.7972103521034), ((2.0, 3.0, 4.0), 0.16510527294261)],
    )
    def test_published_values(self, args, expected):
        assert _carlson(*args)[1] == pytest.approx(expected, rel=1e-14)

    # R_D(x, y, z) + R_D(y, z, x) + R_D(z, x, y) = 3 / sqrt(xyz) (DLMF §19.21),
    # over arguments drawn log-uniform in [1e-3, 1e3].
    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3))
    @settings(max_examples=500, deadline=None)
    def test_cyclic_sum(self, exponents):
        x, y, z = (10.0**e for e in exponents)
        total = _carlson(x, y, z)[1] + _carlson(y, z, x)[1] + _carlson(z, x, y)[1]
        assert total == pytest.approx(3.0 / math.sqrt(x * y * z), rel=16 * EPS, abs=0.0)


def excess_at(root, gamma, ratio):
    return _excess(root, math.sin(0.5 * gamma), math.cos(0.5 * gamma) ** 2, ratio)


class TestExcess:
    @given(
        gamma=st.floats(min_value=math.radians(1.0), max_value=math.radians(89.5)),
        ratio=st.floats(min_value=1e-4, max_value=10.0),
        fraction=st.floats(min_value=0.02, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_slope_matches_a_central_difference(self, gamma, ratio, fraction):
        root = fraction * complete_k(0.5 * gamma)
        h = 1e-6 * root
        difference = excess_at(root + h, gamma, ratio)[0] - excess_at(root - h, gamma, ratio)[0]
        assert excess_at(root, gamma, ratio)[1] == pytest.approx(difference / (2.0 * h), rel=1e-7)

    # A concave, increasing excess: Newton's method climbs to the root from below.
    @pytest.mark.parametrize("ratio", [1e-4, 0.05, 0.5, 1.0, 3.0, 10.0])
    def test_slope_never_rises_on_the_bracket(self, ratio):
        for gamma in np.radians(np.arange(1.0, 90.0, 0.5)).tolist():
            ceiling = complete_k(0.5 * gamma)
            slopes = [excess_at(ceiling * i / 50, gamma, ratio)[1] for i in range(1, 51)]
            assert all(1.0 <= b <= a for a, b in zip(slopes, slopes[1:])), math.degrees(gamma)


def amplitude_within(seconds, u, m):
    """am(u | m), or None when it has not returned within ``seconds``."""
    out = []
    worker = threading.Thread(target=lambda: out.append(_amplitude(u, m)), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    return out[0] if out else None


def max_gap(a, b):
    return max(abs(x - y) for x, y in zip(a, b, strict=True))


class TestAmplitude:
    U = np.linspace(0.0, 3.0, 61).tolist()

    def test_zero_parameter_returns_the_argument(self):
        assert _amplitude(self.U, 0.0) == self.U

    def test_unit_parameter_is_the_gudermannian_and_terminates(self):
        am = amplitude_within(10.0, self.U, 1.0)
        assert am is not None, "am(u | 1) did not return"
        assert am == [math.atan(math.sinh(u)) for u in self.U]
        # The AGM path meets the special case as m approaches 1.
        assert max_gap(_amplitude(self.U, 1.0 - 1e-12), am) <= 1e-11

    @pytest.mark.parametrize("m", [0.9531293398277989, 0.9999004793626809])
    def test_agm_stops_when_its_means_settle_one_ulp_apart(self, m):
        # For these parameters the AGM means end one unit in the last place
        # apart, so c / a stays at about 1.05e-16 on every further step.
        assert amplitude_within(10.0, self.U, m) is not None

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.999])
    def test_inverts_the_incomplete_integral(self, m):
        phi = np.linspace(0.0, 0.5 * math.pi, 41)[1:-1].tolist()
        u = [incomplete_f(p, m) for p in phi]
        assert max_gap(_amplitude(u, m), phi) <= 1e-13


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

    def test_no_root_below_the_tangent_singularity(self):
        # u tan u reaches only about 1e12 at pi/2 (1 - 1e-12), where the search stops.
        with pytest.raises(ValueError, match="no root below the tangent singularity"):
            linearized_alpha(1.5, BeamGeometry.from_ratio(1e-13))


class TestSolveAlphaForAngle:
    def test_zero_angle_maps_to_zero_load(self, half_ratio_geometry):
        result = solve_alpha_for_angle(0.0, half_ratio_geometry)
        assert result.alpha == 0.0
        assert result.tip_angle_achieved == 0.0

    @pytest.mark.parametrize("gamma_deg, expected", sorted(TABLE.items()))
    def test_reference_table_values(self, half_ratio_geometry, gamma_deg, expected):
        result = solve_alpha_for_angle(math.radians(gamma_deg), half_ratio_geometry)
        assert result.alpha == pytest.approx(expected, rel=0.03)

    def test_round_trip_through_the_shape_solver(self, half_ratio_geometry):
        gamma = math.radians(37.5)
        result = solve_alpha_for_angle(gamma, half_ratio_geometry)
        sol = solve_shape_shooting(NormalizedLoad(result.alpha), half_ratio_geometry)
        assert abs(sol.tip_angle - gamma) <= 1e-6

    def test_monotone_in_angle(self, half_ratio_geometry):
        alphas = [
            solve_alpha_for_angle(math.radians(d), half_ratio_geometry).alpha
            for d in range(5, 90, 5)
        ]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    @pytest.mark.parametrize("gamma_deg, rel_tol", [(1.0, 1e-3), (5.0, 1e-2)])
    def test_small_angle_agreement_with_closed_form(
        self, half_ratio_geometry, gamma_deg, rel_tol
    ):
        gamma = math.radians(gamma_deg)
        nonlinear = solve_alpha_for_angle(gamma, half_ratio_geometry).alpha
        linear = linearized_alpha(gamma, half_ratio_geometry)
        assert abs(nonlinear - linear) / linear <= rel_tol

    # An absolute tolerance on alpha itself left these loads far off: 4.3e-3
    # relative at 1e-10 rad and R/L = 3.
    @given(
        gamma=st.floats(min_value=-10.0, max_value=-4.0).map(lambda e: 10.0**e),
        ratio=st.floats(min_value=0.05, max_value=3.0),
    )
    @example(gamma=1e-10, ratio=3.0)
    @settings(max_examples=100, deadline=None)
    def test_tiny_angles_match_the_closed_form(self, gamma, ratio):
        geometry = BeamGeometry.from_ratio(ratio)
        nonlinear = solve_alpha_for_angle(gamma, geometry).alpha
        assert nonlinear == pytest.approx(linearized_alpha(gamma, geometry), rel=1e-6)

    # alpha rho / gamma = 1 - gamma / (3 rho) + ..., so its gap from 1 is
    # below gamma / rho but for rounding, down to the smallest normal angles.
    @given(
        gamma=st.floats(min_value=-300.0, max_value=-4.0).map(lambda e: 10.0**e),
        ratio=st.floats(min_value=0.05, max_value=3.0),
    )
    @example(gamma=1e-63, ratio=0.5)
    @settings(max_examples=200, deadline=None)
    def test_tiny_angles_follow_the_linear_law(self, gamma, ratio):
        result = solve_alpha_for_angle(gamma, BeamGeometry.from_ratio(ratio))
        assert abs(result.alpha * ratio / gamma - 1.0) <= gamma / ratio + 4.0 * EPS
        assert result.outer_iterations <= 3

    @pytest.mark.parametrize("gamma_deg", [30.0, 45.0, 60.0, 75.0])
    def test_geometric_stiffening_beyond_the_linear_model(
        self, half_ratio_geometry, gamma_deg
    ):
        gamma = math.radians(gamma_deg)
        nonlinear = solve_alpha_for_angle(gamma, half_ratio_geometry).alpha
        assert nonlinear >= linearized_alpha(gamma, half_ratio_geometry)

    def test_larger_moment_arm_needs_less_load(self):
        gamma = math.radians(30.0)
        alphas = [
            solve_alpha_for_angle(gamma, BeamGeometry.from_ratio(r)).alpha
            for r in (0.1, 0.25, 0.5, 1.0)
        ]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_extreme_pads_solve(self):
        # At R/L 1e-200 (c/k)^2 underflows, and the pure tip force's K is the
        # root; at 1e20 the load is the linear gamma / rho.
        tiny = solve_alpha_for_angle(1.0, BeamGeometry.from_ratio(1e-200)).alpha
        pure = solve_alpha_for_angle(1.0, BeamGeometry.from_ratio(0.0)).alpha
        assert tiny == pytest.approx(pure, rel=1e-15)
        huge = solve_alpha_for_angle(1.0, BeamGeometry.from_ratio(1e20)).alpha
        assert huge == pytest.approx(1e-20, rel=1e-15)

    @pytest.mark.parametrize("gamma_deg", [0.0, 45.0])
    def test_no_shooting_or_integration_per_solved_angle(
        self, half_ratio_geometry, monkeypatch, gamma_deg
    ):
        counts = {"solves": 0, "passes": 0}

        def counted(function, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            stalkmech.elastica, "solve_shape_shooting", counted(solve_shape_shooting, "solves")
        )
        monkeypatch.setattr(
            stalkmech.elastica, "_rk4_tip", counted(stalkmech.elastica._rk4_tip, "passes")
        )
        solve_alpha_for_angle(math.radians(gamma_deg), half_ratio_geometry)
        assert counts == {"solves": 0, "passes": 0}

    def test_zero_angle_is_the_straight_stalk(self, half_ratio_geometry):
        result = solve_alpha_for_angle(0.0, half_ratio_geometry)
        assert (result.outer_iterations, result.boundary_residual) == (0, 0.0)
        shape = result.inner_solution
        assert np.array_equal(shape.theta_samples, np.zeros(GRID_POINTS))
        assert (shape.initial_slope, shape.boundary_residual) == (0.0, 0.0)

    @pytest.mark.parametrize("gamma_deg", [15.0, 45.0, 75.0])
    def test_each_quadrature_is_evaluated_once(
        self, half_ratio_geometry, monkeypatch, gamma_deg
    ):
        # Newton's method starts inside the bracket, so f(0) = -K is never
        # evaluated, and it stops before a step too small to move the root.
        loads = []
        excess = stalkmech.alpha._excess

        def counted(alpha, *args):
            loads.append(alpha)
            return excess(alpha, *args)

        monkeypatch.setattr(stalkmech.alpha, "_excess", counted)
        result = solve_alpha_for_angle(math.radians(gamma_deg), half_ratio_geometry)
        assert len(loads) == result.outer_iterations
        assert len(set(loads)) == len(loads)
        assert 0.0 not in loads

    def test_about_four_evaluations_per_angle(self):
        # At R/L = 0 the one evaluation is K itself.
        counts = [
            solve_alpha_for_angle(math.radians(d), BeamGeometry.from_ratio(r)).outer_iterations
            for r in (0.05, 0.1, 0.5, 1.0, 1.5, 3.0)
            for d in range(1, 90)
        ]
        assert sum(counts) / len(counts) <= 4.5
        assert max(counts) <= 6
        pure_force = BeamGeometry.from_ratio(0.0)
        assert {
            solve_alpha_for_angle(math.radians(d), pure_force).outer_iterations
            for d in range(1, 90)
        } == {1}

    def test_shape_is_built_on_each_read(self, half_ratio_geometry):
        result = solve_alpha_for_angle(math.radians(45.0), half_ratio_geometry)
        assert not hasattr(result, "__dict__")
        assert result.inner_solution == result.inner_solution
        assert result.boundary_residual == result.inner_solution.boundary_residual
        assert result.inner_solution.tip_angle == result.tip_angle_achieved

    def test_load_tables_never_build_the_shape(
        self, half_ratio_geometry, fixtures_dir, monkeypatch
    ):
        # The solver's tip check evaluates the closed form at s = 1 alone.
        nodes = []
        closed_form = stalkmech.alpha._closed_form

        def counted(root, k, s):
            nodes.append(len(s))
            return closed_form(root, k, s)

        monkeypatch.setattr(stalkmech.alpha, "_closed_form", counted)
        angles = [math.radians(d) for d in (0.0, 15.0, 45.0, 85.0)]
        assert all(row.error is None for row in generate_alpha_table(angles, half_ratio_geometry))
        bending = str(fixtures_dir / "bending" / "granular_20mm.csv")
        stalk = ["--length-mm", "20", "--pad-radius-mm", "10", "--bending-input", bending]
        commands = [
            ["alpha-table", "--angles", "0:75:15"],
            ["predict-force", "--angles", "15:85:5", *stalk],
            ["compare", "--manifest", str(fixtures_dir / "trials" / "manifest.csv"),
             "--scenario", "20mm Granular", *stalk],
        ]
        for argv in commands:
            assert execute(argv, io.StringIO()) == 0
        assert nodes and set(nodes) == {1}

    # R/L = 3 puts 89.5 degrees on the rotating branch (k >= 1), whose
    # reciprocal parameter runs the AGM as well.
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 3.0])
    def test_one_agm_per_solved_angle_and_one_per_shape(self, monkeypatch, ratio):
        calls = []
        agm = stalkmech.alpha._agm

        def counted(m):
            calls.append(m)
            return agm(m)

        monkeypatch.setattr(stalkmech.alpha, "_agm", counted)
        angles = [math.radians(d) for d in (15.0, 45.0, 89.5)]
        rows = generate_alpha_table(angles, BeamGeometry.from_ratio(ratio))
        assert all(row.error is None for row in rows)
        assert len(calls) == len(angles)
        rows[-1].result.inner_solution
        assert len(calls) == len(angles) + 1

    # R/L = 3 at 89.5 degrees takes the reciprocal-modulus branch (k >= 1).
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("gamma_deg", [15.0, 45.0, 89.5])
    def test_shape_tip_is_the_solved_tip(self, ratio, gamma_deg):
        result = solve_alpha_for_angle(math.radians(gamma_deg), BeamGeometry.from_ratio(ratio))
        assert (result.modulus >= 1.0) == (ratio == 3.0 and gamma_deg == 89.5)
        assert result.inner_solution.tip_angle == result.tip_angle_achieved

    def test_pure_tip_force_takes_the_buckled_branch(self):
        # At R/L = 0 the straight beam solves every load; the bent branch
        # starts at the Euler buckling load pi^2 / 4.
        geometry = BeamGeometry.from_ratio(0.0)
        result = solve_alpha_for_angle(math.radians(15.0), geometry)
        assert result.alpha == pytest.approx(2.48867, abs=5e-6)
        assert abs(result.tip_angle_achieved - math.radians(15.0)) <= ANGLE_TOLERANCE
        onset = solve_alpha_for_angle(math.radians(0.1), geometry).alpha
        assert 0.0 < onset - math.pi**2 / 4.0 < 1e-5

    # The tip check is a safety net that the bracket [0, K] leaves untripped;
    # a negative tolerance trips it.
    def test_tip_off_target_is_an_unreachable_angle(self, half_ratio_geometry, monkeypatch):
        monkeypatch.setattr(stalkmech.alpha, "ANGLE_TOLERANCE", -1.0)
        gamma = math.radians(45.0)
        with pytest.raises(SolverError) as excinfo:
            solve_alpha_for_angle(gamma, half_ratio_geometry)
        # The achieved tip, stated in the message, is on target to 8 decimals.
        assert str(excinfo.value) == (
            f"root search left tip angle {gamma:.8f} rad off target {gamma:.8f} rad"
        )

    # Below 1 rad the tolerance is relative to the angle, so a load four times
    # too large is refused at a tiny angle too, a subnormal one included.
    @pytest.mark.parametrize("gamma", [1e-9, 1e-320])
    def test_wrong_load_at_a_tiny_angle_is_refused(self, half_ratio_geometry, monkeypatch, gamma):
        newton = stalkmech.alpha._newton

        def doubled(*args):
            root, evals = newton(*args)
            return 2.0 * root, evals

        monkeypatch.setattr(stalkmech.alpha, "_newton", doubled)
        with pytest.raises(SolverError, match="off target"):
            solve_alpha_for_angle(gamma, half_ratio_geometry)

    # At a subnormal angle the excess is rounding noise: Newton's second step
    # leaves the bracket and is replaced by its midpoint, and the bracket is
    # then 4 eps wide, which ends the search.
    def test_newton_bisects_and_stops_on_a_narrow_bracket(self, monkeypatch):
        roots = []
        excess = stalkmech.alpha._excess

        def recorded(root, *args):
            roots.append(root)
            return excess(root, *args)

        monkeypatch.setattr(stalkmech.alpha, "_excess", recorded)
        result = solve_alpha_for_angle(1e-323, BeamGeometry.from_ratio(2.811020096439373e-295))
        assert (result.alpha, result.outer_iterations) == (3.5152053624025106e-29, 3)
        assert roots[2] == 0.5 * (roots[0] + roots[1])

    @pytest.mark.parametrize("gamma", [-0.01, math.pi / 2, 2.0])
    def test_angle_domain(self, half_ratio_geometry, gamma):
        with pytest.raises(ValueError):
            solve_alpha_for_angle(gamma, half_ratio_geometry)


class TestAlphaTable:
    def test_empty_input(self, half_ratio_geometry):
        assert generate_alpha_table([], half_ratio_geometry) == []

    def test_zero_angle_row(self, half_ratio_geometry):
        rows = generate_alpha_table([0.0], half_ratio_geometry)
        assert len(rows) == 1
        assert rows[0].alpha == 0.0
        assert rows[0].error is None

    def test_order_preserved(self, half_ratio_geometry):
        angles = [math.radians(d) for d in (45.0, 15.0, 30.0)]
        rows = generate_alpha_table(angles, half_ratio_geometry)
        assert [r.surface_angle for r in rows] == angles
        assert rows[0].alpha > rows[2].alpha > rows[1].alpha

    def test_failed_rows_are_marked_not_fatal(self, half_ratio_geometry):
        angles = [math.radians(d) for d in (15.0, 95.0, 30.0)]
        rows = generate_alpha_table(angles, half_ratio_geometry)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].alpha is None
        assert rows[2].error is None

    def test_outer_search_out_of_iterations_is_an_error_row(
        self, half_ratio_geometry, monkeypatch
    ):
        monkeypatch.setattr(stalkmech.alpha, "MAX_ITERATIONS", 2)
        rows = generate_alpha_table([math.radians(45.0)], half_ratio_geometry)
        assert rows[0].alpha is None and rows[0].result is None
        assert "after 2 iterations" in rows[0].error


# A caller that still passes a settings object positionally fails loudly
# instead of having it read as a bound.
@pytest.mark.parametrize(
    "call",
    [
        lambda g: solve_alpha_for_angle(0.5, g, 10.0),
        lambda g: generate_alpha_table([0.5], g, 10.0),
        lambda g: solve_shape_shooting(NormalizedLoad(1.0), g, 1024),
        lambda g: predict_force_curve([0.5], CALIBRATION, g, 10.0),
    ],
    ids=["solve_alpha_for_angle", "generate_alpha_table", "solve_shape_shooting",
         "predict_force_curve"],
)
def test_solver_settings_are_keyword_only(half_ratio_geometry, call):
    with pytest.raises(TypeError, match="positional argument"):
        call(half_ratio_geometry)


# R/L draws: the pure tip force, small pads (where the first integral's
# modulus approaches sin(gamma / 2)) and the whole working range.
RATIOS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-4, max_value=1e-2),
    st.floats(min_value=1e-4, max_value=3.0),
)
ANGLES = st.floats(min_value=0.0, max_value=math.radians(89.5), exclude_min=True)


def check_round_trip(gamma, ratio):
    """Solve one angle; check it against the target, cold shooting and RK4."""
    geometry = BeamGeometry.from_ratio(ratio)
    [row] = generate_alpha_table([gamma], geometry)
    assert row.error is None
    result = row.result
    assert abs(result.tip_angle_achieved - gamma) <= ANGLE_TOLERANCE
    # The profile's last node, at s = 1, is the tip the solver checked.
    shape = result.inner_solution
    assert shape.theta_samples[-1] == result.tip_angle_achieved
    assert shape.boundary_residual <= 1e-10
    # Integrating from the closed-form base slope reproduces the closed-form profile.
    load = NormalizedLoad(row.alpha)
    theta = integrate_elastica_ivp(load, shape.initial_slope, GRID_POINTS)
    assert np.max(np.abs(theta - shape.theta_samples)) <= 1e-12
    if ratio >= 0.05:
        cold = solve_shape_shooting(load, geometry)
        assert abs(cold.tip_angle - gamma) <= 1e-6
    # The root search's bracket: alpha <= K(sin(gamma / 2))^2, reached in
    # one evaluation at R/L = 0. The solver's R_F and this AGM each hold K
    # within about 3 and 1.5 eps, hence the slack.
    ceiling = complete_k(0.5 * gamma) ** 2
    assert row.alpha <= ceiling * (1.0 + 2e-15)
    if ratio == 0.0:
        assert result.outer_iterations == 1
        assert row.alpha == pytest.approx(ceiling, rel=2e-15)
    return result


class TestWholeDomain:
    # At these angles sin(gamma / 2)^2 underflows to 0 (at 5e-324 so does
    # sin(gamma / 2) itself).
    @given(gamma=ANGLES, ratio=RATIOS)
    @example(gamma=5e-324, ratio=0.0)
    @example(gamma=5e-324, ratio=1.0)
    @example(gamma=1.27e-207, ratio=0.0)
    @example(gamma=1.27e-207, ratio=1.0)
    @settings(max_examples=60, deadline=None)
    def test_every_angle_solves_and_round_trips(self, gamma, ratio):
        check_round_trip(gamma, ratio)

    # Large pads at large angles put the modulus k at or above 1, where the
    # shape takes the rotating (reciprocal-modulus) branch.
    @given(
        gamma=st.floats(min_value=math.radians(75.0), max_value=math.radians(89.5)),
        ratio=st.floats(min_value=2.0, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_large_pads_at_large_angles_round_trip(self, gamma, ratio):
        check_round_trip(gamma, ratio)

    @pytest.mark.parametrize("ratio, k_min", [(2.0, 1.06), (3.0, 1.23)])
    def test_rotating_branch_is_reached(self, ratio, k_min):
        result = check_round_trip(math.radians(89.5), ratio)
        k = result.inner_solution.initial_slope / (2.0 * math.sqrt(result.alpha))
        assert k > k_min

    # Below R/L = 0.1, at large angles, relaxation converges to another
    # solution or not at all, so it is a reference only above that.
    @given(gamma=ANGLES, ratio=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=4, deadline=None)
    def test_relaxation_agrees_with_the_returned_shape(self, gamma, ratio):
        geometry = BeamGeometry.from_ratio(ratio)
        result = solve_alpha_for_angle(gamma, geometry)
        mesh = solve_shape_oracle(NormalizedLoad(result.alpha), geometry)
        assert np.max(np.abs(mesh.theta_samples - result.inner_solution.theta_samples)) <= 1e-6
