"""Large-deflection stalk mechanics for compliant suction cups.

Solves the normalized elastica boundary-value problem that governs how a
compliant stalk conforms to an angled surface, converts the dimensionless
load to physical adaptation force via calibrated bending stiffness, and
reduces raw adaptation/bending test logs into scenario summaries and
theory-vs-measurement reports.

The public names load lazily (PEP 562): ``import stalkmech`` imports no
submodule, and reading a name imports only the submodule that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "alpha": (
        "AlphaResult", "AlphaTableRow", "generate_alpha_table", "solve_alpha_for_angle",
    ),
    "analysis": (
        "AdaptationSummary", "AngleOutcome", "ComparisonRow", "TheoryComparison",
        "compare_theory", "summarize_scenario",
    ),
    "cli": (),
    "elastica": (
        "ElasticaSolution", "centerline", "integrate_elastica_ivp", "solve_shape_oracle",
        "solve_shape_shooting",
    ),
    "errors": ("DataError", "SolverError", "StalkmechError"),
    "force": (
        "AdaptationPrediction", "StiffnessCalibration", "alpha_to_force", "calibrate_ei",
        "predict_force_curve",
    ),
    "geometry": ("BeamGeometry", "NormalizedLoad"),
    "trials": (
        "DEFAULT_ATTACH_THRESHOLD_KPA", "ManifestEntry", "TrialRecord",
        "adaptation_force", "detect_attachment", "load_manifest_trials", "load_trial",
        "parse_trial", "read_bending_samples", "read_manifest",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, or the submodule ``name`` itself."""
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # the import binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_EXPORTS})
