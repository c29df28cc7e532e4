import io
import math

import numpy as np
import pytest

from stalkmech import (
    BeamGeometry,
    DataError,
    StiffnessCalibration,
    alpha_to_force,
    calibrate_ei,
    predict_force_curve,
    read_bending_samples,
)


def make_calibration(ei: float, stalk_length: float) -> StiffnessCalibration:
    return StiffnessCalibration(
        flexural_rigidity=ei,
        fit_quality=1.0,
        source_label="synthetic",
        stalk_length=stalk_length,
    )


GEOM_20MM = BeamGeometry.from_millimeters(20.0, 10.0)
CAL_20MM = make_calibration(5.44e-4, 0.02)


class TestForceConversion:
    def test_unit_case(self):
        geom = BeamGeometry(stalk_length=1.0, pad_radius=0.5)
        assert alpha_to_force(1.0, make_calibration(1.0, 1.0), geom) == 1.0

    def test_zero_load_zero_force(self):
        assert alpha_to_force(0.0, CAL_20MM, GEOM_20MM) == 0.0

    def test_reference_prediction(self):
        # alpha 1.03 on the jammed 20 mm stalk: 1.03 * 5.44e-4 / 0.02^2.
        force = alpha_to_force(1.03, CAL_20MM, GEOM_20MM)
        assert force == pytest.approx(1.40, abs=5e-3)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            alpha_to_force(-1.0, CAL_20MM, GEOM_20MM)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
    def test_load_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and >= 0, got {alpha}"):
            alpha_to_force(alpha, CAL_20MM, GEOM_20MM)

    @pytest.mark.parametrize("ei", [0.0, -1.0, math.inf, math.nan])
    def test_rigidity_must_be_positive_and_finite(self, ei):
        with pytest.raises(ValueError, match="flexural_rigidity must be positive and finite"):
            make_calibration(ei, 0.02)

    def test_a_force_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="force alpha EI / L\\^2 is not finite at alpha=1"):
            alpha_to_force(1.0, make_calibration(1e300, 0.02), BeamGeometry(1e-10, 0.0))

    def test_doubling_length_quarters_the_force(self):
        cal = make_calibration(2.5e-4, 0.02)
        short = alpha_to_force(0.9, cal, BeamGeometry(0.02, 0.01))
        long = alpha_to_force(0.9, cal, BeamGeometry(0.04, 0.02))
        assert long == short / 4.0

    def test_doubling_ei_doubles_the_force(self):
        soft = alpha_to_force(0.9, make_calibration(2.5e-4, 0.02), GEOM_20MM)
        stiff = alpha_to_force(0.9, make_calibration(5.0e-4, 0.02), GEOM_20MM)
        assert stiff == 2.0 * soft


class TestCalibration:
    def test_exact_line_recovers_slope_and_ei(self):
        # Points on F = 204 * deflection for the 20 mm stalk: the jammed
        # granular bending line (1.02 N at 5 mm).
        samples = [(mm * 1e-3, 204.0 * mm * 1e-3) for mm in range(1, 6)]
        cal = calibrate_ei(samples, GEOM_20MM, source_label="jammed 20mm")
        assert cal.linear_slope == pytest.approx(204.0, rel=1e-12)
        assert cal.flexural_rigidity == pytest.approx(5.44e-4, rel=1e-12)
        assert cal.fit_quality == 1.0
        assert cal.source_label == "jammed 20mm"
        assert cal.flexural_rigidity == pytest.approx(
            cal.linear_slope * cal.stalk_length**3 / 3.0
        )

    def test_linear_slope_is_derived_from_ei_and_length(self):
        cal = make_calibration(5.44e-4, 0.02)
        assert "linear_slope" not in StiffnessCalibration._fields
        assert cal.linear_slope == 3.0 * 5.44e-4 / 0.02**3

    # L^3 is in range at both lengths, but k L^3 / 3 overflows to inf or underflows to 0.
    @pytest.mark.parametrize("length_m, slope", [(5e102, 204.0), (1e-107, 1e-3)])
    @pytest.mark.filterwarnings("ignore:max deflection")
    def test_an_ei_out_of_float_range_names_the_length(self, length_m, slope):
        samples = [(mm * 1e-3, slope * mm * 1e-3) for mm in range(1, 6)]
        with pytest.raises(DataError) as excinfo:
            calibrate_ei(samples, BeamGeometry(length_m, 0.0))
        assert str(excinfo.value) == (
            f"EI = k L^3 / 3 is out of float range at stalk length {length_m:g} m, "
            f"k = {slope:g} N/m"
        )

    def test_deflections_whose_squares_underflow(self):
        # d^2 underflows to 0 below about 1e-162 m; the fit must not divide by it.
        samples = [(mm * 1e-170, 204.0 * mm * 1e-170) for mm in range(1, 6)]
        cal = calibrate_ei(samples, GEOM_20MM)
        assert cal.linear_slope == pytest.approx(204.0, rel=1e-12)

    # Past about 1e154 N the squares of the forces overflow, and below about
    # 1e-162 N they all underflow; the fit quality must not see the unit.
    @pytest.mark.parametrize("newtons", [1e200, 1e-200], ids=["overflow", "underflow"])
    def test_fit_quality_does_not_depend_on_the_force_unit(self, newtons):
        geometry = BeamGeometry(0.02, 0.0)
        at_one_newton = calibrate_ei([(1e-3, 1.0), (2e-3, 3.0)], geometry).fit_quality
        cal = calibrate_ei([(1e-3, newtons), (2e-3, 3.0 * newtons)], geometry)
        assert at_one_newton == pytest.approx(0.98, rel=1e-12)
        assert cal.fit_quality == pytest.approx(at_one_newton, rel=1e-12)

    def test_two_point_line_through_the_10mm_anchor(self):
        # 2.74 N at 5 mm on the 10 mm stalk: EI = 548 * 0.01^3 / 3.
        geom = BeamGeometry.from_millimeters(10.0, 10.0)
        with pytest.warns(UserWarning):
            cal = calibrate_ei([(0.0025, 1.37), (0.005, 2.74)], geom)
        assert cal.linear_slope == pytest.approx(548.0, rel=1e-12)
        assert cal.flexural_rigidity == pytest.approx(1.8267e-4, rel=1e-3)

    def test_noiseless_synthetic_recovery(self):
        ei = 3.3e-4
        length = 0.016
        geom = BeamGeometry(length, 0.008)
        forces = np.linspace(0.1, 0.9, 12)
        samples = [(f * length**3 / (3.0 * ei), f) for f in forces]
        cal = calibrate_ei(samples, geom)
        assert abs(cal.flexural_rigidity - ei) / ei <= 1e-3

    def test_noisy_recovery_within_two_percent(self):
        ei = 3.3e-4
        length = 0.016
        geom = BeamGeometry(length, 0.008)
        rng = np.random.default_rng(42)
        forces = np.linspace(0.1, 0.9, 40)
        noisy = forces * (1.0 + 0.01 * rng.standard_normal(forces.size))
        samples = [(f * length**3 / (3.0 * ei), fn) for f, fn in zip(forces, noisy)]
        cal = calibrate_ei(samples, geom)
        assert abs(cal.flexural_rigidity - ei) / ei <= 0.02

    def test_deflection_beyond_quarter_length_warns(self):
        geom = BeamGeometry.from_millimeters(10.0, 0.0)
        with pytest.warns(UserWarning, match="deflection"):
            calibrate_ei([(0.003, 0.6), (0.005, 1.0)], geom)

    def test_quarter_length_edge_does_not_warn(self, recwarn):
        calibrate_ei([(0.0025, 0.5), (0.005, 1.0)], GEOM_20MM)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_zero_force_samples_are_a_calibration_error(self):
        with pytest.raises(DataError, match="^non-positive stiffness slope 0$"):
            calibrate_ei([(0.005, 0.0), (0.003, 0.0)], GEOM_20MM)

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="^need at least two bending samples$"):
            calibrate_ei([(0.005, 1.0)], GEOM_20MM)

    def test_all_zero_deflections(self):
        with pytest.raises(DataError, match="^need at least two distinct positive deflections$"):
            calibrate_ei([(0.0, 0.5), (0.0, 1.0)], GEOM_20MM)

    def test_repeated_single_deflection_rejected(self):
        with pytest.raises(DataError, match="^need at least two distinct positive deflections$"):
            calibrate_ei([(0.004, 0.8), (0.004, 0.81)], GEOM_20MM)

    @pytest.mark.parametrize(
        "samples",
        [[], [(0.001,), (0.002,)], [(0.001, 0.2, 0.0), (0.002, 0.4, 0.0)], [0.001, 0.002],
         [(0.001, 0.2), (0.002,)], [(0.001, 0.2), ("x", 0.4)]],
        ids=["empty", "1-tuples", "3-tuples", "bare-numbers", "ragged", "non-numeric"],
    )
    def test_samples_that_are_not_pairs(self, samples):
        with pytest.raises(DataError, match=r"^samples must be \(deflection, force\) pairs$"):
            calibrate_ei(samples, GEOM_20MM)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_samples_rejected(self, bad, column, recwarn):
        samples = [[0.001, 0.2], [0.002, 0.4], [0.003, 0.6]]
        samples[1][column] = bad
        with pytest.raises(DataError, match="must be finite"):
            calibrate_ei(samples, GEOM_20MM)
        assert not recwarn.list

    def test_negative_deflection_rejected(self):
        with pytest.raises(DataError, match="^deflections must be non-negative$"):
            calibrate_ei([(-0.001, 0.1), (0.004, 0.8)], GEOM_20MM)


class TestPredictForceCurve:
    def test_zero_angle_costs_nothing(self):
        rows = predict_force_curve([0.0], CAL_20MM, GEOM_20MM)
        assert rows[0].force == 0.0
        assert rows[0].error is None

    def test_reference_composition(self):
        rows = predict_force_curve([math.radians(45.0)], CAL_20MM, GEOM_20MM)
        assert rows[0].alpha == pytest.approx(1.03, rel=0.03)
        assert rows[0].force == pytest.approx(1.40, rel=0.03)

    def test_force_increases_with_angle(self):
        angles = [math.radians(d) for d in range(15, 90, 15)]
        rows = predict_force_curve(angles, CAL_20MM, GEOM_20MM)
        forces = [r.force for r in rows]
        assert all(r.error is None for r in rows)
        assert all(b > a for a, b in zip(forces, forces[1:]))

    def test_failed_angles_are_marked(self):
        angles = [math.radians(d) for d in (15.0, 95.0)]
        rows = predict_force_curve(angles, CAL_20MM, GEOM_20MM)
        assert rows[0].error is None
        assert rows[1].error is not None
        assert rows[1].force is None


class TestBendingFile:
    def test_reads_si_pairs(self, fixtures_dir):
        samples = read_bending_samples(fixtures_dir / "bending" / "granular_20mm.csv")
        assert len(samples) == 5
        assert samples[0] == (0.001, 0.204)
        assert samples[-1] == (0.005, 1.02)

    def test_header_mismatch(self):
        with pytest.raises(DataError) as excinfo:
            read_bending_samples(io.StringIO("deflection,force\n1,0.2\n"))
        assert str(excinfo.value) == (
            "line 1: expected header 'deflection_mm,force_N', got 'deflection,force'"
        )

    @pytest.mark.parametrize("row", ["inf,0.2", "1,nan", "1e400,0.2", "1e99999999999999999999,0.2"])
    def test_non_finite_cell_names_the_line(self, row):
        stream = io.StringIO(f"deflection_mm,force_N\n1,0.2\n{row}\n")
        with pytest.raises(DataError) as excinfo:
            read_bending_samples(stream)
        assert str(excinfo.value) == "line 3: non-finite value"

    def test_bad_cell_names_the_line(self):
        stream = io.StringIO("deflection_mm,force_N\n1,0.2\n2,oops\n")
        with pytest.raises(DataError) as excinfo:
            read_bending_samples(stream)
        assert str(excinfo.value) == "line 3: could not convert string to float: 'oops'"
