"""Conversion between normalized load and physical force, and stiffness calibration.

The stalk's flexural rigidity EI is never taken from material datasheets:
it is fitted from bending-test measurements, because the granular stalk is
a composite whose effective stiffness depends on the jamming state. The
fit assumes the linear cantilever tip relation delta = F L^3 / (3 EI).
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple

from .alpha import generate_alpha_table
from .errors import DataError
from .geometry import BeamGeometry, NormalizedLoad, _as_float

# Beyond this tip deflection (as a fraction of stalk length) the linear
# cantilever relation behind the EI fit degrades; inputs past it are
# accepted with a warning rather than rejected.
SMALL_DEFLECTION_LIMIT = 0.25


class StiffnessCalibration(NamedTuple("StiffnessCalibration", [
    ("flexural_rigidity", float), ("fit_quality", float), ("source_label", str),
    ("stalk_length", float),
])):
    """Effective flexural rigidity of a stalk fitted from bending data.

    ``flexural_rigidity`` is EI = k L^3 / 3 for the through-origin slope k
    of force against tip deflection and the ``stalk_length`` L the fit was
    made with. ``fit_quality`` is the coefficient of determination of the
    through-origin fit.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # via __new__: _replace validates too

    def __new__(cls, flexural_rigidity, fit_quality, source_label, stalk_length):
        flexural_rigidity, fit_quality = _as_float(flexural_rigidity), _as_float(fit_quality)
        if not (0.0 < flexural_rigidity < math.inf):
            raise ValueError(
                f"flexural_rigidity must be positive and finite, got {flexural_rigidity}"
            )
        if not (0.0 <= fit_quality <= 1.0):
            raise ValueError("fit_quality must be within [0, 1]")
        stalk_length = BeamGeometry(stalk_length, 0.0).stalk_length  # a float, its cube in range
        return super().__new__(cls, flexural_rigidity, fit_quality, source_label, stalk_length)

    @property
    def linear_slope(self) -> float:
        """The slope k = 3 EI / L^3 of force against tip deflection, in N/m."""
        length = self.stalk_length
        return 3.0 * self.flexural_rigidity / (length * length * length)


class AdaptationPrediction(NamedTuple):
    """Predicted adaptation force for one surface angle.

    ``force`` satisfies force = alpha * EI / L^2 for the calibration and
    geometry it was built with. ``error`` is set (and the numeric fields
    are None) when the angle could not be solved.
    """

    surface_angle: float
    alpha: float | None
    force: float | None
    error: str | None = None


def alpha_to_force(
    alpha: float, calibration: StiffnessCalibration, geometry: BeamGeometry
) -> float:
    """Physical force in newtons for a normalized load: F = alpha EI / L^2.

    Raises ValueError when the force leaves the range of a float; L^2 is
    in range for every ``BeamGeometry``.
    """
    NormalizedLoad(alpha)  # rejects a negative or non-finite load
    length = geometry.stalk_length
    force = alpha * calibration.flexural_rigidity / (length * length)
    if force == math.inf:
        raise ValueError(
            f"force alpha EI / L^2 is not finite at alpha={alpha:g}, "
            f"EI={calibration.flexural_rigidity:g} N*m^2, L={length:g} m"
        )
    return force


def calibrate_ei(
    samples: Iterable[tuple[float, float]],
    geometry: BeamGeometry,
    source_label: str = "",
) -> StiffnessCalibration:
    """Fit effective EI from (deflection [m], force [N]) bending samples.

    Least-squares slope through the origin, k = sum(F d) / sum(d^2),
    converted by the cantilever tip relation EI = k L^3 / 3. Requires at
    least two samples with distinct positive deflections. Deflections
    beyond ``SMALL_DEFLECTION_LIMIT`` of the stalk length trigger a
    warning, since the linear relation is marginal there.
    """
    pairs = []
    for sample in samples:
        try:
            deflection, force = sample
            pairs.append((float(deflection), float(force)))
        except (TypeError, ValueError):
            raise DataError("samples must be (deflection, force) pairs") from None
    if not pairs:
        raise DataError("samples must be (deflection, force) pairs")
    if not all(math.isfinite(d) and math.isfinite(f) for d, f in pairs):
        raise DataError("deflections and forces must be finite")
    if len(pairs) < 2:
        raise DataError("need at least two bending samples")
    deflections = [d for d, _ in pairs]
    if min(deflections) < 0.0:
        raise DataError("deflections must be non-negative")
    if len({d for d in deflections if d > 0.0}) < 2:
        raise DataError("need at least two distinct positive deflections")

    L = geometry.stalk_length
    top = max(deflections)
    max_ratio = top / L
    if max_ratio > SMALL_DEFLECTION_LIMIT:
        warnings.warn(
            f"max deflection is {max_ratio:.2f} of the stalk length; the linear "
            f"tip relation is only trusted up to {SMALL_DEFLECTION_LIMIT:.2f}",
            stacklevel=2,
        )

    # In units of the largest deflection the sum of squares is at least 1, so it cannot underflow.
    scaled = [(d / top, f) for d, f in pairs]
    slope = sum(f * x for x, f in scaled) / sum(x * x for x, _ in scaled) / top
    if slope <= 0.0:
        raise DataError(f"non-positive stiffness slope {slope:g}")

    ss_res = sum((f - slope * d) ** 2 for d, f in pairs)
    ss_tot = sum(f * f for _, f in pairs)
    fit_quality = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))

    flexural_rigidity = slope * (L * L * L) / 3.0
    if not (0.0 < flexural_rigidity < math.inf):
        raise DataError(
            f"EI = k L^3 / 3 is out of float range at stalk length {L:g} m, k = {slope:g} N/m"
        )
    return StiffnessCalibration(
        flexural_rigidity=flexural_rigidity,
        fit_quality=fit_quality,
        source_label=source_label,
        stalk_length=L,
    )


def predict_force_curve(
    angles: list[float], calibration: StiffnessCalibration, geometry: BeamGeometry
) -> list[AdaptationPrediction]:
    """Theory force curve: solve alpha per angle and convert to newtons.

    The loads come from :func:`generate_alpha_table`, so rows stay in order
    and angles that cannot be solved produce rows carrying the error
    message instead of being dropped.
    """
    predictions = []
    for row in generate_alpha_table(angles, geometry):
        if row.error is not None:
            predictions.append(AdaptationPrediction(row.surface_angle, None, None, row.error))
        else:
            force = alpha_to_force(row.alpha, calibration, geometry)
            predictions.append(AdaptationPrediction(row.surface_angle, row.alpha, force))
    return predictions
