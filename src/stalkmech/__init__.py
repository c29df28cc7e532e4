"""Large-deflection stalk mechanics for compliant suction cups.

Solves the normalized elastica boundary-value problem that governs how a
compliant stalk conforms to an angled surface, converts the dimensionless
load to physical adaptation force via calibrated bending stiffness, and
reduces raw adaptation/bending test logs into scenario summaries and
theory-vs-measurement reports.
"""

import os

# Numpy's OpenBLAS worker pool would only spin beside this package's tiny linear algebra.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .alpha import (
    AlphaResult,
    AlphaTableRow,
    generate_alpha_table,
    linearized_alpha,
    solve_alpha_for_angle,
)
from .analysis import (
    AdaptationSummary,
    AngleOutcome,
    ComparisonRow,
    TheoryComparison,
    compare_theory,
    summarize_scenario,
)
from .elastica import (
    ElasticaSolution,
    centerline,
    integrate_elastica_ivp,
    solve_shape_oracle,
    solve_shape_shooting,
)
from .errors import (
    CalibrationError,
    CoverageError,
    DataError,
    IntegrationDivergedError,
    NoSolutionError,
    OracleRangeError,
    SolverError,
    StalkmechError,
    TrialParseError,
    TrialValidationError,
    UnreachableAngleError,
)
from .force import (
    AdaptationPrediction,
    StiffnessCalibration,
    alpha_to_force,
    calibrate_ei,
    force_to_alpha,
    predict_force_curve,
    read_bending_samples,
)
from .geometry import DEFAULT_CONFIG, BeamGeometry, NormalizedLoad, SolverConfig
from .trials import (
    DEFAULT_ATTACH_THRESHOLD_KPA,
    AttachmentEvent,
    ManifestEntry,
    TrialRecord,
    adaptation_force,
    detect_attachment,
    load_manifest_trials,
    load_trial,
    parse_trial,
    read_manifest,
    serialize_trial,
    stiffness_at_deflection,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationPrediction",
    "AdaptationSummary",
    "AlphaResult",
    "AlphaTableRow",
    "AngleOutcome",
    "AttachmentEvent",
    "BeamGeometry",
    "CalibrationError",
    "ComparisonRow",
    "CoverageError",
    "DataError",
    "DEFAULT_ATTACH_THRESHOLD_KPA",
    "DEFAULT_CONFIG",
    "ElasticaSolution",
    "IntegrationDivergedError",
    "ManifestEntry",
    "NoSolutionError",
    "NormalizedLoad",
    "OracleRangeError",
    "SolverConfig",
    "SolverError",
    "StalkmechError",
    "StiffnessCalibration",
    "TheoryComparison",
    "TrialParseError",
    "TrialRecord",
    "TrialValidationError",
    "UnreachableAngleError",
    "adaptation_force",
    "alpha_to_force",
    "calibrate_ei",
    "centerline",
    "compare_theory",
    "detect_attachment",
    "force_to_alpha",
    "generate_alpha_table",
    "integrate_elastica_ivp",
    "linearized_alpha",
    "load_manifest_trials",
    "load_trial",
    "parse_trial",
    "predict_force_curve",
    "read_bending_samples",
    "read_manifest",
    "serialize_trial",
    "solve_alpha_for_angle",
    "solve_shape_oracle",
    "solve_shape_shooting",
    "stiffness_at_deflection",
    "summarize_scenario",
]
