"""Command-line front end: batch solving, calibration, prediction, analysis.

Every command prints one machine-readable document to standard output,
as CSV (default) or JSON. Documents echo every parameter the command
reads, defaults and fixed solver bounds included, and no other, so a run
can be reproduced from its output alone;
repeated identical invocations produce byte-identical output. Angles are
accepted in degrees and lengths in millimeters at the flag boundary;
everything is SI internally.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

from .alpha import AlphaResult, generate_alpha_table, solve_alpha_for_angle
from .analysis import compare_theory, summarize_scenario
from .elastica import centerline, solve_shape_shooting
from .errors import StalkmechError
from .force import (
    StiffnessCalibration,
    calibrate_ei,
    predict_force_curve,
    read_bending_samples,
)
from .geometry import (
    ANGLE_TOLERANCE, BOUNDARY_TOLERANCE, GRID_POINTS, MAX_ITERATIONS, BeamGeometry,
    NormalizedLoad,
)
from .trials import (
    DEFAULT_ATTACH_THRESHOLD_KPA,
    load_manifest_trials,
    load_trial,
)

SCHEMA_VERSION = "1"

# Table-style output is rounded to this many significant digits.
SIG_DIGITS = 6

# The most angles a start:stop:step range may expand to.
MAX_RANGE_ANGLES = 1_000_000


@dataclass
class OutputDocument:
    command: str
    parameters: dict
    columns: list[str]
    rows: list[dict]
    warnings: list[str] = field(default_factory=list)
    aggregates: dict | None = None


def _fmt(value) -> str:
    """Render one CSV cell with 6 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _jsonable(value):
    """Round floats to 6 significant digits for the JSON payload."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)
        return float(f"{value:.{SIG_DIGITS}g}")
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit_csv(doc: OutputDocument, stream) -> None:
    stream.write(f"# stalkmech {doc.command}\n")
    stream.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key in sorted(doc.parameters):
        stream.write(f"# parameter {key}={_fmt(doc.parameters[key])}\n")
    for text in doc.warnings:
        stream.write(f"# warning {text}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(doc.columns)
    for row in doc.rows:
        writer.writerow([_fmt(row.get(col)) for col in doc.columns])
    if doc.aggregates:
        for key in sorted(doc.aggregates):
            stream.write(f"# aggregate {key}={_fmt(doc.aggregates[key])}\n")


def _emit_json(doc: OutputDocument, stream) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": doc.command,
        "parameters": _jsonable(doc.parameters),
        "rows": [_jsonable(row) for row in doc.rows],
        "warnings": list(doc.warnings),
    }
    if doc.aggregates:
        payload["aggregates"] = _jsonable(doc.aggregates)
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def emit(doc: OutputDocument, fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if fmt == "json":
        _emit_json(doc, stream)
    else:
        _emit_csv(doc, stream)


# --------------------------------------------------------------------------
# flag parsing helpers


def parse_angles_spec(text: str) -> list[float]:
    """Angles in degrees from either ``start:stop:step`` or ``a,b,c``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"angle range must be start:stop:step, got {text!r}")
        bounds = [float(p) for p in parts]
        for name, value in zip(("start", "stop", "step"), bounds):
            if not math.isfinite(value):
                raise ValueError(f"angle range {name} must be finite, got {value}")
        start, stop, step = bounds
        if step <= 0:
            raise ValueError("angle step must be positive")
        if stop < start:
            raise ValueError("angle range must have stop >= start")
        # Counted before the list is built, as a tiny step would ask for an unbounded one.
        last = (stop - start) / step + 1e-9  # inf if the quotient overflows
        count = math.floor(last) + 1 if math.isfinite(last) else last
        if count > MAX_RANGE_ANGLES:
            raise ValueError(f"angle range gives {count:.7g} angles, more than {MAX_RANGE_ANGLES}")
        return [start + i * step for i in range(count)]
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _check_length_mm(length_mm: float) -> None:
    if not (length_mm > 0):
        raise ValueError(f"--length-mm must be positive, got {length_mm}")


def _resolve_geometry(args, require_length: bool) -> BeamGeometry:
    ratio = getattr(args, "radius_ratio", None)
    length_mm = getattr(args, "length_mm", None)
    pad_mm = getattr(args, "pad_radius_mm", None)
    if ratio is not None and pad_mm is not None:
        raise ValueError("give either --radius-ratio or --pad-radius-mm, not both")
    if require_length and length_mm is None:
        raise ValueError("--length-mm is required for this command")
    if length_mm is not None:
        _check_length_mm(length_mm)
    if pad_mm is not None:
        if pad_mm < 0:
            raise ValueError(f"--pad-radius-mm must be >= 0, got {pad_mm}")
        if length_mm is None:
            raise ValueError("--pad-radius-mm needs --length-mm")
        return BeamGeometry.from_millimeters(length_mm, pad_mm)
    if ratio is None:
        ratio = 0.5  # default moment-arm ratio: 10 mm pad radius on a 20 mm stalk
    if ratio < 0:
        raise ValueError(f"--radius-ratio must be >= 0, got {ratio}")
    if length_mm is not None:
        return BeamGeometry.from_millimeters(length_mm, ratio * length_mm)
    return BeamGeometry.from_ratio(ratio)


# The load solve's fixed bounds, echoed by every command that solves for a load.
LOAD_SEARCH_PARAMETERS = {
    "boundary_tolerance": BOUNDARY_TOLERANCE,
    "max_iterations": MAX_ITERATIONS,
    "angle_tolerance": ANGLE_TOLERANCE,
}


def _geometry_parameters(geometry: BeamGeometry) -> dict:
    return {
        "stalk_length_mm": geometry.stalk_length * 1e3,
        "pad_radius_mm": geometry.pad_radius * 1e3,
        "radius_ratio": geometry.radius_ratio,
    }


def _bending_label(label: str | None, path: str) -> str:
    """The stiffness source label: ``--label``, else the bending file's stem."""
    return label or path.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def _resolve_calibration(args, geometry: BeamGeometry) -> StiffnessCalibration:
    if (args.bending_input is None) == (args.ei_nm2 is None):
        raise ValueError("give exactly one of --bending-input or --ei-nm2")
    if args.ei_nm2 is not None:
        if not (args.ei_nm2 > 0):
            raise ValueError(f"--ei-nm2 must be positive, got {args.ei_nm2}")
        return StiffnessCalibration(
            flexural_rigidity=args.ei_nm2,
            linear_slope=3.0 * args.ei_nm2 / geometry.stalk_length**3,
            fit_quality=1.0,
            source_label=args.label or "direct",
            stalk_length=geometry.stalk_length,
        )
    samples = read_bending_samples(args.bending_input)
    label = _bending_label(args.label, args.bending_input)
    return calibrate_ei(samples, geometry, source_label=label)


# --------------------------------------------------------------------------
# command handlers

ALPHA_COLUMNS = [
    "surface_angle_deg",
    "alpha",
    "tip_angle_deg",
    "outer_iterations",
    "boundary_residual",
    "error",
]


def _alpha_row(angle_deg: float, result: AlphaResult | None, error: str | None = None) -> dict:
    if error is not None:
        return {
            "surface_angle_deg": angle_deg,
            "alpha": None,
            "tip_angle_deg": None,
            "outer_iterations": None,
            "boundary_residual": None,
            "error": error,
        }
    return {
        "surface_angle_deg": angle_deg,
        "alpha": result.alpha,
        "tip_angle_deg": math.degrees(result.tip_angle_achieved),
        "outer_iterations": result.outer_iterations,
        "boundary_residual": result.boundary_residual,
        "error": None,
    }


def cmd_alpha_table(args) -> OutputDocument:
    angles_deg = parse_angles_spec(args.angles)
    geometry = _resolve_geometry(args, require_length=False)
    table = generate_alpha_table([math.radians(a) for a in angles_deg], geometry)
    rows = [_alpha_row(deg, row.result, row.error) for deg, row in zip(angles_deg, table)]
    parameters = {
        "angles_deg": angles_deg,
        **_geometry_parameters(geometry),
        **LOAD_SEARCH_PARAMETERS,
    }
    return OutputDocument("alpha-table", parameters, ALPHA_COLUMNS, rows)


def cmd_solve(args) -> OutputDocument:
    geometry = _resolve_geometry(args, require_length=False)
    result = solve_alpha_for_angle(math.radians(args.gamma_deg), geometry)
    rows = [_alpha_row(args.gamma_deg, result)]
    parameters = {
        "gamma_deg": args.gamma_deg,
        **_geometry_parameters(geometry),
        **LOAD_SEARCH_PARAMETERS,
    }
    return OutputDocument("solve", parameters, ALPHA_COLUMNS, rows)


def cmd_shape(args) -> OutputDocument:
    geometry = _resolve_geometry(args, require_length=False)
    solution = solve_shape_shooting(
        NormalizedLoad(args.alpha), geometry, grid_points=args.grid_points
    )
    points = centerline(solution)
    grid = solution.grid
    rows = [
        {
            "s": float(grid[i]),
            "theta_rad": float(solution.theta_samples[i]),
            "x": float(points[i, 0]),
            "y": float(points[i, 1]),
        }
        for i in range(len(grid))
    ]
    parameters = {
        "alpha": args.alpha,
        "tip_angle_deg": math.degrees(solution.tip_angle),
        **_geometry_parameters(geometry),
        "grid_points": args.grid_points,
        "boundary_tolerance": BOUNDARY_TOLERANCE,
        "max_iterations": MAX_ITERATIONS,
    }
    return OutputDocument("shape", parameters, ["s", "theta_rad", "x", "y"], rows)


def cmd_calibrate(args) -> OutputDocument:
    _check_length_mm(args.length_mm)
    geometry = BeamGeometry.from_millimeters(args.length_mm, 0.0)
    samples = read_bending_samples(args.input)
    label = _bending_label(args.label, args.input)
    calibration = calibrate_ei(samples, geometry, source_label=label)
    row = {
        "source_label": calibration.source_label,
        "stalk_length_mm": args.length_mm,
        "n_samples": len(samples),
        "linear_slope_N_per_m": calibration.linear_slope,
        "flexural_rigidity_Nm2": calibration.flexural_rigidity,
        "fit_quality": calibration.fit_quality,
    }
    parameters = {"input": args.input, "length_mm": args.length_mm, "label": label}
    return OutputDocument(
        "calibrate",
        parameters,
        [
            "source_label",
            "stalk_length_mm",
            "n_samples",
            "linear_slope_N_per_m",
            "flexural_rigidity_Nm2",
            "fit_quality",
        ],
        [row],
    )


def cmd_predict_force(args) -> OutputDocument:
    angles_deg = parse_angles_spec(args.angles)
    geometry = _resolve_geometry(args, require_length=True)
    calibration = _resolve_calibration(args, geometry)
    angles = [math.radians(a) for a in angles_deg]
    predictions = predict_force_curve(angles, calibration, geometry)
    rows = [
        {
            "surface_angle_deg": deg,
            "alpha": p.alpha,
            "force_N": p.force,
            "error": p.error,
        }
        for deg, p in zip(angles_deg, predictions)
    ]
    parameters = {
        "angles_deg": angles_deg,
        "source_label": calibration.source_label,
        "flexural_rigidity_Nm2": calibration.flexural_rigidity,
        **_geometry_parameters(geometry),
        **LOAD_SEARCH_PARAMETERS,
    }
    return OutputDocument(
        "predict-force",
        parameters,
        ["surface_angle_deg", "alpha", "force_N", "error"],
        rows,
    )


def _load_analysis_trials(args) -> list:
    if args.manifest is not None:
        if args.input:
            raise ValueError("give either --manifest or --input files, not both")
        if args.scenario is not None or args.angle_deg is not None:
            raise ValueError("--scenario and --angle-deg are for --input files, not --manifest")
        return load_manifest_trials(args.manifest)
    if not args.input:
        raise ValueError("give --manifest or at least one --input")
    if args.scenario is None or args.angle_deg is None:
        raise ValueError("--input needs --scenario and --angle-deg")
    if not math.isfinite(args.angle_deg):  # else the trial file would be blamed for it
        raise ValueError(f"--angle-deg must be finite, got {args.angle_deg}")
    angle = math.radians(args.angle_deg)
    return [load_trial(path, args.scenario, angle) for path in args.input]


def _group_by_scenario(trials) -> dict[str, list]:
    groups: dict[str, list] = {}
    for trial in trials:
        groups.setdefault(trial.scenario, []).append(trial)
    return groups


def cmd_analyze(args) -> OutputDocument:
    trials = _load_analysis_trials(args)
    groups = _group_by_scenario(trials)
    summaries = [
        summarize_scenario(groups[name], args.threshold_kpa) for name in sorted(groups)
    ]
    if args.per_angle:
        columns = [
            "scenario",
            "surface_angle_deg",
            "attached",
            "adaptation_force_N",
            "n_reps_attached",
            "rep_forces_N",
        ]
        rows = [
            {
                "scenario": summary.scenario,
                "surface_angle_deg": math.degrees(outcome.surface_angle),
                "attached": outcome.attached,
                "adaptation_force_N": outcome.adaptation_force,
                "n_reps_attached": len(outcome.rep_forces),
                "rep_forces_N": list(outcome.rep_forces),
            }
            for summary in summaries
            for outcome in summary.angles
        ]
    else:
        columns = [
            "scenario",
            "ultimate_angle_deg",
            "force_at_ultimate_N",
            "n_angles",
            "n_attached",
        ]
        rows = [
            {
                "scenario": summary.scenario,
                "ultimate_angle_deg": None
                if summary.ultimate_angle is None
                else math.degrees(summary.ultimate_angle),
                "force_at_ultimate_N": summary.force_at_ultimate,
                "n_angles": len(summary.angles),
                "n_attached": len(summary.attached_angles),
            }
            for summary in summaries
        ]
    parameters = {
        "manifest": args.manifest or "",
        "inputs": list(args.input or []),
        "scenario": args.scenario or "",
        "angle_deg": args.angle_deg,
        "threshold_kpa": args.threshold_kpa,
        "per_angle": bool(args.per_angle),
    }
    return OutputDocument("analyze", parameters, columns, rows)


def cmd_compare(args) -> OutputDocument:
    trials = load_manifest_trials(args.manifest)
    groups = _group_by_scenario(trials)
    if args.scenario is not None:
        if args.scenario not in groups:
            known = ", ".join(sorted(groups))
            raise ValueError(f"scenario {args.scenario!r} not in manifest (have: {known})")
        selected = args.scenario
    elif len(groups) == 1:
        selected = next(iter(groups))
    else:
        known = ", ".join(sorted(groups))
        raise ValueError(f"manifest has several scenarios ({known}); pick one with --scenario")

    geometry = _resolve_geometry(args, require_length=True)
    calibration = _resolve_calibration(args, geometry)
    summary = summarize_scenario(groups[selected], args.threshold_kpa)
    measured_angles = [row.surface_angle for row in summary.attached_angles]
    predictions = predict_force_curve(measured_angles, calibration, geometry)
    comparison = compare_theory(summary, predictions)

    alpha_by_angle = {p.surface_angle: p.alpha for p in predictions}
    rows = [
        {
            "surface_angle_deg": math.degrees(row.surface_angle),
            "measured_N": row.measured,
            "predicted_N": row.predicted,
            "alpha": alpha_by_angle.get(row.surface_angle),
            "residual_N": row.residual,
            "relative_residual": row.relative_residual,
        }
        for row in comparison.rows
    ]
    parameters = {
        "manifest": args.manifest,
        "scenario": selected,
        "threshold_kpa": args.threshold_kpa,
        "source_label": calibration.source_label,
        "flexural_rigidity_Nm2": calibration.flexural_rigidity,
        **_geometry_parameters(geometry),
        **LOAD_SEARCH_PARAMETERS,
    }
    aggregates = {"mean_abs_relative_error": comparison.mean_abs_relative_error}
    return OutputDocument(
        "compare",
        parameters,
        [
            "surface_angle_deg",
            "measured_N",
            "predicted_N",
            "alpha",
            "residual_N",
            "relative_residual",
        ],
        rows,
        aggregates=aggregates,
    )


# --------------------------------------------------------------------------
# parser assembly


def _add_format_flag(sub) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def _add_geometry_flags(sub) -> None:
    sub.add_argument(
        "--radius-ratio",
        type=float,
        default=None,
        help="pad radius over stalk length R/L (default 0.5)",
    )
    sub.add_argument("--length-mm", type=float, default=None, help="stalk length in mm")
    sub.add_argument(
        "--pad-radius-mm", type=float, default=None, help="suction-pad radius in mm"
    )


def _add_calibration_flags(sub) -> None:
    sub.add_argument(
        "--bending-input", default=None, help="bending CSV (deflection_mm,force_N)"
    )
    sub.add_argument(
        "--ei-nm2", type=float, default=None, help="flexural rigidity EI in N*m^2"
    )
    sub.add_argument("--label", default=None, help="label for the stiffness source")


def _add_threshold_flag(sub) -> None:
    sub.add_argument(
        "--threshold-kpa",
        type=float,
        default=DEFAULT_ATTACH_THRESHOLD_KPA,
        help="attachment detection threshold (kPa, negative)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stalkmech",
        description="Suction-cup stalk mechanics: elastica solving, stiffness "
        "calibration, force prediction, and adaptation-test analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha-table", help="normalized load for a range of surface angles")
    p.add_argument("--angles", required=True, help="degrees, start:stop:step or a,b,c")
    _add_geometry_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_alpha_table)

    p = sub.add_parser("solve", help="normalized load for one surface angle")
    p.add_argument("--gamma-deg", type=float, required=True, help="surface angle in degrees")
    _add_geometry_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("shape", help="deformed centerline for a given load")
    p.add_argument("--alpha", type=float, required=True, help="normalized load")
    _add_geometry_flags(p)
    p.add_argument(
        "--grid-points", type=int, default=GRID_POINTS, help="arc-length samples on [0, 1]"
    )
    _add_format_flag(p)
    p.set_defaults(handler=cmd_shape)

    p = sub.add_parser("calibrate", help="fit effective EI from bending data")
    p.add_argument("--input", required=True, help="bending CSV (deflection_mm,force_N)")
    p.add_argument("--length-mm", type=float, required=True, help="stalk length in mm")
    p.add_argument("--label", default=None, help="label for the stiffness source")
    _add_format_flag(p)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("predict-force", help="theory adaptation-force curve")
    p.add_argument("--angles", required=True, help="degrees, start:stop:step or a,b,c")
    _add_geometry_flags(p)
    _add_calibration_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_predict_force)

    p = sub.add_parser("analyze", help="summarize adaptation trials per scenario")
    p.add_argument("--manifest", default=None, help="manifest CSV (file,scenario,angle_deg)")
    p.add_argument("--input", action="append", default=None, help="trial file (repeatable)")
    p.add_argument("--scenario", default=None, help="scenario label for --input files")
    p.add_argument("--angle-deg", type=float, default=None, help="surface angle for --input files")
    _add_threshold_flag(p)
    p.add_argument("--per-angle", action="store_true", help="emit per-angle rows")
    _add_format_flag(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("compare", help="theory vs measured adaptation force")
    p.add_argument("--manifest", required=True, help="manifest CSV (file,scenario,angle_deg)")
    p.add_argument("--scenario", default=None, help="scenario to compare")
    _add_threshold_flag(p)
    _add_geometry_flags(p)
    _add_calibration_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=cmd_compare)

    return parser


def execute(argv: list[str], stream=None) -> int:
    """Run one command; returns the exit status (0 ok, 1 domain error, 2 usage)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc = args.handler(args)
        doc.warnings.extend(str(w.message) for w in caught)
    except (StalkmechError, ValueError, OSError) as exc:
        print(f"stalkmech: error: {exc}", file=sys.stderr)
        return 1
    emit(doc, args.format, stream)
    return 0


def main(argv: list[str] | None = None) -> int:
    return execute(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
