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

import stalkmech.errors
from stalkmech import (
    BeamGeometry,
    ElasticaSolution,
    NormalizedLoad,
    StiffnessCalibration,
    TrialRecord,
    TrialValidationError,
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
    ("trial", "time", (0.0, 1.0, 0.5), TrialValidationError),
    ("trial", "pressure", (-8.0, 0.5, -55.0), TrialValidationError),
    ("trial", "force", "abc", TrialValidationError),
    ("trial", "surface_angle", math.nan, TrialValidationError),
    ("solution", "theta", [0.1, 0.2, 0.3], ValueError),
    ("solution", "theta", [0.0], ValueError),  # one node has no grid step
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
    assert len(classes) == 10
    assert [c.__name__ for c in classes if "__init__" in vars(c)] == []
