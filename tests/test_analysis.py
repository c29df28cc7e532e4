import math
import random

import numpy as np
import pytest

from stalkmech import (
    AdaptationPrediction,
    CoverageError,
    TrialRecord,
    TrialValidationError,
    compare_theory,
    load_manifest_trials,
    summarize_scenario,
)

# Scenario digest the vendored trial fixtures encode:
# (ultimate angle [deg], mean adaptation force at that angle [N]).
FIXTURE_EXPECTATIONS = {
    "20mm Granular": (85.0, 0.33),
    "10mm Granular": (80.0, 0.43),
    "5mm Granular": (55.0, 1.17),
    "Ecoflex 00-10": (70.0, 1.09),
    "Dragonskin 10": (45.0, 4.96),
    "Ecoflex 00-10 suction pad": (45.0, 0.69),
}


def attached_trial(scenario, angle_deg, peak):
    return TrialRecord(
        scenario=scenario,
        surface_angle=math.radians(angle_deg),
        time=np.array([0.0, 1.0, 2.0, 3.0]),
        force=np.array([0.0, peak / 2.0, peak, peak * 0.9]),
        displacement=np.array([0.0, 0.001, 0.002, 0.003]),
        pressure=np.array([-8.0, -8.0, -8.0, -60.0]),
    )


def unattached_trial(scenario, angle_deg, push=1.0):
    return TrialRecord(
        scenario=scenario,
        surface_angle=math.radians(angle_deg),
        time=np.array([0.0, 1.0, 2.0]),
        force=np.array([0.0, push, push * 1.1]),
        displacement=np.array([0.0, 0.001, 0.002]),
        pressure=np.array([-8.0, -8.0, -8.0]),
    )


def group_by_scenario(trials):
    groups = {}
    for trial in trials:
        groups.setdefault(trial.scenario, []).append(trial)
    return groups


class TestSummarize:
    def test_fixture_set_reproduces_the_scenario_digest(self, fixtures_dir):
        groups = group_by_scenario(
            load_manifest_trials(fixtures_dir / "trials" / "manifest.csv")
        )
        assert set(groups) == set(FIXTURE_EXPECTATIONS)
        for scenario, (angle_deg, force) in FIXTURE_EXPECTATIONS.items():
            summary = summarize_scenario(groups[scenario])
            assert summary.ultimate_angle == math.radians(angle_deg)
            assert summary.force_at_ultimate == force

    def test_never_attaching_scenario_has_no_ultimate(self):
        trials = [unattached_trial("loose", d) for d in (15.0, 30.0)]
        summary = summarize_scenario(trials)
        assert summary.ultimate_angle is None
        assert summary.force_at_ultimate is None
        assert summary.attached_angles == ()
        assert all(not row.attached for row in summary.angles)

    def test_mean_over_attached_repetitions_only(self):
        trials = [
            attached_trial("mix", 30.0, 0.4),
            attached_trial("mix", 30.0, 0.6),
            unattached_trial("mix", 30.0),
        ]
        summary = summarize_scenario(trials)
        (row,) = summary.angles
        assert row.attached
        assert row.adaptation_force == pytest.approx(0.5)
        assert row.rep_forces == (0.4, 0.6)

    def test_permutation_invariance(self, fixtures_dir):
        trials = [
            t
            for t in load_manifest_trials(fixtures_dir / "trials" / "manifest.csv")
            if t.scenario == "20mm Granular"
        ]
        baseline = summarize_scenario(trials)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = trials[:]
            rng.shuffle(shuffled)
            assert summarize_scenario(shuffled) == baseline

    def test_missing_angle_metadata(self):
        bare = TrialRecord(
            scenario="bare",
            surface_angle=None,
            time=np.array([0.0]),
            force=np.array([0.0]),
            displacement=np.array([0.0]),
            pressure=np.array([-60.0]),
        )
        with pytest.raises(TrialValidationError):
            summarize_scenario([bare])

    def test_mixed_scenarios_rejected(self):
        with pytest.raises(TrialValidationError):
            summarize_scenario(
                [attached_trial("a", 15.0, 0.3), attached_trial("b", 15.0, 0.3)]
            )

    def test_empty_input_rejected(self):
        with pytest.raises(TrialValidationError):
            summarize_scenario([])


class TestCompareTheory:
    def test_identical_values_give_zero_residuals(self):
        summary = summarize_scenario([attached_trial("s", 30.0, 0.5)])
        predictions = [AdaptationPrediction(math.radians(30.0), 0.77, 0.5)]
        report = compare_theory(summary, predictions)
        (row,) = report.rows
        assert row.residual == 0.0
        assert row.relative_residual == 0.0
        assert report.mean_abs_relative_error == 0.0

    def test_reference_relative_residual(self):
        summary = summarize_scenario([attached_trial("s", 45.0, 0.48)])
        predictions = [AdaptationPrediction(math.radians(45.0), 1.03, 1.40)]
        report = compare_theory(summary, predictions)
        (row,) = report.rows
        assert row.relative_residual == pytest.approx((1.40 - 0.48) / 0.48, rel=1e-12)
        assert row.relative_residual == pytest.approx(1.9167, abs=1e-3)

    def test_empty_summary_gives_empty_report(self):
        summary = summarize_scenario([unattached_trial("s", 60.0)])
        report = compare_theory(summary, [])
        assert report.rows == ()
        assert report.mean_abs_relative_error is None

    def test_uncovered_angles_raise_a_coverage_error(self):
        summary = summarize_scenario(
            [attached_trial("s", 30.0, 0.5), attached_trial("s", 45.0, 0.6)]
        )
        predictions = [AdaptationPrediction(math.radians(30.0), 0.77, 1.0)]
        with pytest.raises(CoverageError) as excinfo:
            compare_theory(summary, predictions)
        assert str(excinfo.value) == "predictions do not cover measured angles: 45 deg"

    def test_failed_prediction_rows_do_not_count_as_coverage(self):
        summary = summarize_scenario([attached_trial("s", 30.0, 0.5)])
        predictions = [
            AdaptationPrediction(math.radians(30.0), None, None, "load search failed")
        ]
        with pytest.raises(CoverageError):
            compare_theory(summary, predictions)
