import math

import pytest

from stalkmech import BeamGeometry, NormalizedLoad
from stalkmech.geometry import (
    ALPHA_BRACKET_MAX, ANGLE_TOLERANCE, BOUNDARY_TOLERANCE, GRID_POINTS, MAX_ITERATIONS,
)


class TestBeamGeometry:
    def test_radius_ratio_is_exact_quotient(self):
        geom = BeamGeometry(stalk_length=0.02, pad_radius=0.01)
        assert geom.radius_ratio == 0.01 / 0.02

    def test_from_millimeters(self):
        geom = BeamGeometry.from_millimeters(20.0, 10.0)
        assert geom.stalk_length == pytest.approx(0.02)
        assert geom.radius_ratio == pytest.approx(0.5)

    def test_from_ratio(self):
        assert BeamGeometry.from_ratio(0.25).radius_ratio == 0.25

    def test_zero_pad_radius_allowed(self):
        geom = BeamGeometry(stalk_length=1.0, pad_radius=0.0)
        assert geom.radius_ratio == 0.0

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_bad_stalk_length_rejected(self, length):
        with pytest.raises(ValueError):
            BeamGeometry(stalk_length=length, pad_radius=0.01)

    def test_negative_pad_radius_rejected(self):
        with pytest.raises(ValueError):
            BeamGeometry(stalk_length=1.0, pad_radius=-0.01)


class TestNormalizedLoad:
    def test_tip_moment(self):
        geom = BeamGeometry.from_ratio(0.5)
        assert NormalizedLoad(1.2).tip_moment(geom) == 1.2 * 0.5

    @pytest.mark.parametrize("alpha", [-0.1, math.nan])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            NormalizedLoad(alpha)


class TestSolverConstants:
    def test_values(self):
        assert (BOUNDARY_TOLERANCE, MAX_ITERATIONS, ANGLE_TOLERANCE) == (1e-10, 100, 1e-6)
        assert (ALPHA_BRACKET_MAX, GRID_POINTS) == (10.0, 1024)
