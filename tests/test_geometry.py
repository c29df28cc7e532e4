import dataclasses
import math

import pytest

from stalkmech import BeamGeometry, NormalizedLoad, SolverConfig


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


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.grid_points == 1024
        assert config.boundary_tolerance == 1e-10
        assert config.angle_tolerance == 1e-6
        assert config.max_iterations == 100
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "grid_points",
            "alpha_bracket_max",
        ]

    # Explicit ids keep each case's name when other cases are removed.
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"grid_points": 15}, id="kwargs0"),
            pytest.param({"alpha_bracket_max": 0.0}, id="kwargs3"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("boundary_tolerance", 1e-13), ("max_iterations", 5), ("angle_tolerance", 1e-9)],
    )
    def test_fixed_bounds_are_not_constructor_arguments(self, name, value):
        with pytest.raises(TypeError):
            SolverConfig(**{name: value})
