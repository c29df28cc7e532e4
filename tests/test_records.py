"""The contract of the validated record types, which are named tuples.

A named tuple's own ``_make`` and ``_replace`` build the tuple without
calling ``__new__``, so each validated type routes ``_make`` through its
constructor. These tests hold every path that builds a record to the
same checks, and keep the records immutable and picklable. The
exception types are held to their message alone.
"""

import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import stalkmech.errors
from stalkmech import (
    BeamGeometry,
    DataError,
    ElasticaSolution,
    NormalizedLoad,
    StiffnessCalibration,
    TrialRecord,
)

RECORDS = {
    "geometry": BeamGeometry(stalk_length=0.02, pad_radius=0.01),
    "load": NormalizedLoad(1.03),
    "calibration": StiffnessCalibration(
        flexural_rigidity=5.44e-4, fit_quality=0.99,
        source_label="granular_20mm", stalk_length=0.02,
    ),
    "trial": TrialRecord(
        scenario="20mm Granular", surface_angle=math.radians(45.0), time=(0.0, 0.5, 1.0),
        force=(0.0, 0.12, 0.25), displacement=(0.0, 5e-4, 1e-3), pressure=(-8.0, -8.1, -55.0),
    ),
    "solution": ElasticaSolution(
        alpha=1.03, theta=[0.0, 0.1, 0.2], initial_slope=0.4, boundary_residual=0.0
    ),
}

# A record, one of its fields, a value that field refuses, and the error it raises.
BAD_VALUES = [
    ("geometry", "stalk_length", 0.0, ValueError),
    ("geometry", "stalk_length", 1e-120, ValueError),  # its cube underflows to 0
    ("geometry", "stalk_length", 1e120, ValueError),  # its cube overflows to inf
    ("geometry", "pad_radius", -0.01, ValueError),
    ("geometry", "pad_radius", math.inf, ValueError),
    ("load", "alpha", -1.0, ValueError),
    ("load", "alpha", math.nan, ValueError),
    ("calibration", "flexural_rigidity", math.inf, ValueError),
    ("calibration", "fit_quality", 1.5, ValueError),
    ("calibration", "stalk_length", 0.0, ValueError),
    ("calibration", "stalk_length", -0.02, ValueError),
    ("calibration", "stalk_length", math.nan, ValueError),
    ("calibration", "stalk_length", math.inf, ValueError),
    ("calibration", "stalk_length", 1e-120, ValueError),  # its cube underflows to 0
    ("calibration", "stalk_length", 1e120, ValueError),  # its cube overflows to inf
    ("trial", "time", (0.0, 1.0, 0.5), DataError),
    ("trial", "pressure", (-8.0, 0.5, -55.0), DataError),
    ("trial", "force", "abc", DataError),
    ("trial", "surface_angle", math.nan, DataError),
    ("trial", "surface_angle", None, DataError),  # every trial runs at a known angle
    ("solution", "theta", [0.1, 0.2, 0.3], ValueError),
    ("solution", "theta", [0.0], ValueError),  # one node has no grid step
    # Ints that a float cannot hold, or whose cube it cannot.
    ("geometry", "stalk_length", 10**200, ValueError),
    ("geometry", "stalk_length", 10**400, ValueError),
    ("geometry", "pad_radius", 10**400, ValueError),
    ("load", "alpha", 10**400, ValueError),
    ("calibration", "stalk_length", 10**200, ValueError),
    ("trial", "surface_angle", 10**400, DataError),
]


@pytest.mark.parametrize(
    "name, field, bad, error", BAD_VALUES, ids=[f"{n}-{f}" for n, f, _, _ in BAD_VALUES]
)
def test_constructor_make_and_replace_refuse_alike(name, field, bad, error):
    record = RECORDS[name]
    values = {**record._asdict(), field: bad}
    builds = [
        lambda: type(record)(**values),
        lambda: type(record)._make(values.values()),
        lambda: record._replace(**{field: bad}),
    ]
    refusals = set()
    for build in builds:
        with pytest.raises(error) as excinfo:
            build()
        refusals.add((type(excinfo.value), str(excinfo.value)))
    assert len(refusals) == 1


def _refusal(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


# The edges of the range: the largest and smallest accepted lengths and their neighbours.
@given(st.floats())
@example(5.643803094122361e102)
@example(5.643803094122362e102)
@example(1.351817985853457e-108)
@example(1.3518179858534569e-108)
def test_geometry_and_calibration_accept_the_same_lengths(length):
    refusal = _refusal(lambda: BeamGeometry(length, 0.0))
    assert refusal == _refusal(lambda: StiffnessCalibration(1.0, 1.0, "", length))
    if refusal is None:  # what lets alpha_to_force and linear_slope divide by L^2 and L^3
        assert 0.0 < length * length < math.inf and 0.0 < length * length * length < math.inf
    else:
        assert refusal == f"stalk_length cubed must be positive and finite, got {length}"


def test_scalar_fields_are_stored_as_floats():
    records = [BeamGeometry(1, 0), NormalizedLoad(True), StiffnessCalibration(1, 1, "x", 1)]
    assert [type(v) for r in records for v in r] == [float, float, float, float, float, str, float]
    assert type(TrialRecord("x", 1, (0,), (0,), (0,), (0,)).surface_angle) is float


# A number beyond the float range is refused as the infinity of its sign.
@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: BeamGeometry(10**400, 0.0),
            "stalk_length cubed must be positive and finite, got inf",
        ),
        (lambda: BeamGeometry(0.02, -(10**400)), "pad_radius must be finite and >= 0, got -inf"),
        (lambda: NormalizedLoad(10**400), "alpha must be finite and >= 0, got inf"),
        (
            lambda: StiffnessCalibration(10**400, 0.99, "", 0.02),
            "flexural_rigidity must be positive and finite, got inf",
        ),
        (
            lambda: StiffnessCalibration(1.0, -(10**400), "", 0.02),
            "fit_quality must be within [0, 1]",
        ),
    ],
    ids=["stalk_length", "pad_radius", "alpha", "flexural_rigidity", "fit_quality"],
)
def test_a_number_beyond_the_float_range_names_its_field(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # no __dict__ either: __slots__ is empty
        record.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip_is_equal(name):
    record = RECORDS[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_solution_keeps_a_read_only_copy_of_the_callers_array():
    samples = np.zeros(4)
    solution = ElasticaSolution(1.0, samples, 0.0, 0.0)
    assert solution.theta == (0.0, 0.0, 0.0, 0.0)
    assert all(type(value) is float for value in solution.theta)
    view = solution.theta_samples
    assert view is not samples and np.array_equal(view, samples)
    assert not view.flags.writeable
    samples[1] = 0.5  # the caller's array stays the caller's
    assert samples.flags.writeable and solution.theta[1] == 0.0


def test_errors_carry_only_their_message():
    classes = [c for _, c in inspect.getmembers(stalkmech.errors, inspect.isclass)]
    assert [c.__name__ for c in classes] == ["DataError", "SolverError", "StalkmechError"]
    assert [c.__name__ for c in classes if "__init__" in vars(c)] == []
