"""Scenario-level reduction of adaptation trials and theory comparison.

A scenario is a set of repeated trials of one cup configuration over a
set of surface angles. Repetitions at an angle aggregate by mean over the
attached repetitions; trials that never attach contribute explicit
absence, never a zero force.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DataError
from .trials import (
    DEFAULT_ATTACH_THRESHOLD_KPA,
    TrialRecord,
    adaptation_force,
    detect_attachment,
)

if TYPE_CHECKING:
    from .force import AdaptationPrediction


class AngleOutcome(NamedTuple):
    """Aggregated result at one surface angle.

    ``rep_forces`` keeps the per-repetition adaptation forces (attached
    repetitions only, sorted ascending so aggregation is independent of
    trial order); ``adaptation_force`` is their mean, None when nothing
    attached.
    """

    surface_angle: float
    rep_forces: tuple[float, ...]

    @property
    def attached(self) -> bool:
        return bool(self.rep_forces)

    @property
    def adaptation_force(self) -> float | None:
        if not self.rep_forces:
            return None
        return math.fsum(self.rep_forces) / len(self.rep_forces)


class AdaptationSummary(NamedTuple):
    """Per-scenario digest: per-angle outcomes and the ultimate angle.

    The ultimate angle is the steepest angle with at least one attached
    repetition; both it and its force are None when no trial attached.
    """

    scenario: str
    angles: tuple[AngleOutcome, ...]

    @property
    def attached_angles(self) -> tuple[AngleOutcome, ...]:
        return tuple(row for row in self.angles if row.attached)

    @property
    def ultimate_angle(self) -> float | None:
        attached = self.attached_angles
        return attached[-1].surface_angle if attached else None

    @property
    def force_at_ultimate(self) -> float | None:
        attached = self.attached_angles
        return attached[-1].adaptation_force if attached else None


class ComparisonRow(NamedTuple):
    """Measured vs predicted force at one angle; residual = predicted - measured."""

    surface_angle: float
    measured: float
    predicted: float

    @property
    def residual(self) -> float:
        return self.predicted - self.measured

    @property
    def relative_residual(self) -> float:
        if self.measured != 0.0:
            return self.residual / self.measured
        return 0.0 if self.residual == 0.0 else math.inf


class TheoryComparison(NamedTuple):
    """Per-angle residual report with the aggregate mean absolute relative error."""

    rows: tuple[ComparisonRow, ...]

    @property
    def mean_abs_relative_error(self) -> float | None:
        if not self.rows:
            return None
        return math.fsum(abs(r.relative_residual) for r in self.rows) / len(self.rows)


def summarize_scenario(
    trials: list[TrialRecord],
    threshold: float = DEFAULT_ATTACH_THRESHOLD_KPA,
) -> AdaptationSummary:
    """Aggregate one scenario's trials into an :class:`AdaptationSummary`.

    Every trial must carry the same scenario label. The result is
    invariant to the order of the input trials.
    """
    if not trials:
        raise DataError("need at least one trial")
    scenario = trials[0].scenario
    for trial in trials:
        if trial.scenario != scenario:
            raise DataError(
                f"mixed scenarios in one summary: {scenario!r} and {trial.scenario!r}"
            )

    by_angle: dict[float, list[float | None]] = {}
    for trial in trials:
        index = detect_attachment(trial, threshold)
        force = adaptation_force(trial, index) if index is not None else None
        by_angle.setdefault(trial.surface_angle, []).append(force)

    outcomes = tuple(
        AngleOutcome(angle, tuple(sorted(f for f in by_angle[angle] if f is not None)))
        for angle in sorted(by_angle)
    )
    return AdaptationSummary(scenario, outcomes)


def compare_theory(
    summary: AdaptationSummary,
    predictions: list[AdaptationPrediction],
) -> TheoryComparison:
    """Residuals of theory predictions against a measured summary.

    Each attached angle of the summary is matched against a successful
    prediction at the same angle; any measured angle without one raises
    :class:`DataError` listing the misses. Residuals are signed
    (predicted minus measured); the aggregate is the mean of the absolute
    relative residuals, None when there are no attached angles.
    """
    predicted_by_angle = {
        p.surface_angle: p for p in predictions if p.error is None and p.force is not None
    }
    missing = tuple(
        row.surface_angle
        for row in summary.attached_angles
        if row.surface_angle not in predicted_by_angle
    )
    if missing:
        degrees = ", ".join(f"{math.degrees(a):g}" for a in missing)
        raise DataError(f"predictions do not cover measured angles: {degrees} deg")

    return TheoryComparison(
        tuple(
            ComparisonRow(
                outcome.surface_angle,
                outcome.adaptation_force,
                predicted_by_angle[outcome.surface_angle].force,
            )
            for outcome in summary.attached_angles
        )
    )
