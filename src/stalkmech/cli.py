"""Command-line front end: batch solving, calibration, prediction, analysis.

Every command prints one machine-readable document to standard output,
as CSV (default) or JSON. Documents echo every parameter the command
reads, defaults and fixed solver bounds included, and no other, so a run
can be reproduced from its output alone to the 6 significant digits of
the echo: ``--angles 89.9999999`` echoes 90 and solves, while 90 is out of
domain. Repeated identical invocations produce byte-identical output.
Angles are accepted in degrees and lengths in millimeters at the flag
boundary; everything is SI internally.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings

from .alpha import AlphaTableRow, generate_alpha_table
from .analysis import compare_theory, summarize_scenario
from .elastica import centerline, solve_shape_shooting
from .errors import StalkmechError
from .force import StiffnessCalibration, calibrate_ei, predict_force_curve
from .geometry import (
    ANGLE_TOLERANCE, BOUNDARY_TOLERANCE, GRID_POINTS, MAX_ITERATIONS, BeamGeometry,
    NormalizedLoad,
)
from .trials import DEFAULT_ATTACH_THRESHOLD_KPA, load_manifest_trials, read_bending_samples

SCHEMA_VERSION = "1"

# Table-style output is rounded to this many significant digits.
SIG_DIGITS = 6

# The most angles a start:stop:step range may expand to.
MAX_RANGE_ANGLES = 1_000_000


class OutputDocument:
    """One command's result, rows as tuples in column order; ``execute`` adds the warnings.

    ``rows`` may be an iterator, which the emitter reads once.
    """

    def __init__(self, command: str, parameters: dict, columns: tuple, rows, aggregates=None):
        self.command = command
        self.parameters = parameters
        self.columns = columns
        self.rows = rows
        self.warnings: list[str] = []
        self.aggregates = aggregates


# Each character at which str.splitlines() ends a line, mapped to its escape,
# so that no text can end a line of a CSV document and pass for a record.
_ESCAPED_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _fmt(value) -> str:
    """Render one CSV cell with 6 significant digits for floats, line breaks escaped."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value).translate(_ESCAPED_BREAKS)


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
    def comment(text: str) -> None:
        stream.write(f"# {text.translate(_ESCAPED_BREAKS)}\n")

    comment(f"stalkmech {doc.command}")
    comment(f"schema_version={SCHEMA_VERSION}")
    for key in sorted(doc.parameters):
        comment(f"parameter {key}={_fmt(doc.parameters[key])}")
    for text in doc.warnings:
        comment(f"warning {text}")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(doc.columns)
    for row in doc.rows:
        writer.writerow([_fmt(value) for value in row])
    if doc.aggregates:
        for key in sorted(doc.aggregates):
            comment(f"aggregate {key}={_fmt(doc.aggregates[key])}")


def _emit_json(doc: OutputDocument, stream) -> None:
    import json  # here alone: the CSV default would pay for its import in every process
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": doc.command,
        "parameters": _jsonable(doc.parameters),
        "rows": [_jsonable(dict(zip(doc.columns, row))) for row in doc.rows],
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
    return [float(p) for p in text.split(",")]


def _check_length_mm(length_mm: float) -> None:
    if not (length_mm > 0):
        raise ValueError(f"--length-mm must be positive, got {length_mm}")


def _check_radius(flag: str, value: float) -> None:
    if not (0.0 <= value < math.inf):
        raise ValueError(f"{flag} must be finite and >= 0, got {value}")


# A load table and a shape depend on R/L alone; a force needs both lengths.
def _ratio_geometry(args) -> BeamGeometry:
    _check_radius("--radius-ratio", args.radius_ratio)
    return BeamGeometry.from_ratio(args.radius_ratio)


def _stalk_geometry(args) -> BeamGeometry:
    _check_length_mm(args.length_mm)
    _check_radius("--pad-radius-mm", args.pad_radius_mm)
    return BeamGeometry.from_millimeters(args.length_mm, args.pad_radius_mm)


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


def _file_stem(path: str) -> str:
    return path.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def _fit_stiffness(args, geometry: BeamGeometry) -> StiffnessCalibration:
    """EI fitted from ``--bending-input``, labelled with the file's stem."""
    samples = read_bending_samples(args.bending_input)
    return calibrate_ei(samples, geometry, source_label=_file_stem(args.bending_input))


# --------------------------------------------------------------------------
# command handlers: each returns its rows as tuples in column order


def _alpha_row(angle_deg: float, row: AlphaTableRow) -> tuple:
    result = row.result
    if result is None:
        return angle_deg, None, None, None, None, row.error
    return (
        angle_deg, result.alpha, math.degrees(result.tip_angle_achieved),
        result.outer_iterations, result.boundary_residual, None,
    )


def cmd_alpha_table(args) -> OutputDocument:
    angles_deg = parse_angles_spec(args.angles)
    geometry = _ratio_geometry(args)
    table = generate_alpha_table([math.radians(a) for a in angles_deg], geometry)
    columns = (
        "surface_angle_deg", "alpha", "tip_angle_deg", "outer_iterations", "boundary_residual",
        "error",
    )
    rows = [_alpha_row(deg, row) for deg, row in zip(angles_deg, table)]
    parameters = {
        "angles_deg": angles_deg,
        "radius_ratio": geometry.radius_ratio,
        **LOAD_SEARCH_PARAMETERS,
    }
    return OutputDocument(args.command, parameters, columns, rows)


def cmd_shape(args) -> OutputDocument:
    geometry = _ratio_geometry(args)
    solution = solve_shape_shooting(
        NormalizedLoad(args.alpha), geometry, grid_points=args.grid_points
    )
    columns = ("s", "theta_rad", "x", "y")
    rows = zip(solution.grid, solution.theta, *centerline(solution))
    parameters = {
        "alpha": args.alpha,
        "tip_angle_deg": math.degrees(solution.tip_angle),
        "radius_ratio": geometry.radius_ratio,
        "grid_points": args.grid_points,
        "boundary_tolerance": BOUNDARY_TOLERANCE,
    }
    return OutputDocument(args.command, parameters, columns, rows)


def cmd_calibrate(args) -> OutputDocument:
    _check_length_mm(args.length_mm)
    geometry = BeamGeometry.from_millimeters(args.length_mm, 0.0)
    samples = read_bending_samples(args.input)
    label = args.label or _file_stem(args.input)
    calibration = calibrate_ei(samples, geometry, source_label=label)
    columns = (
        "source_label", "stalk_length_mm", "n_samples",
        "linear_slope_N_per_m", "flexural_rigidity_Nm2", "fit_quality",
    )
    row = (
        calibration.source_label, args.length_mm, len(samples),
        calibration.linear_slope, calibration.flexural_rigidity, calibration.fit_quality,
    )
    parameters = {"input": args.input, "length_mm": args.length_mm, "label": label}
    return OutputDocument(args.command, parameters, columns, [row])


def cmd_predict_force(args) -> OutputDocument:
    angles_deg = parse_angles_spec(args.angles)
    geometry = _stalk_geometry(args)
    calibration = _fit_stiffness(args, geometry)
    angles = [math.radians(a) for a in angles_deg]
    predictions = predict_force_curve(angles, calibration, geometry)
    columns = ("surface_angle_deg", "alpha", "force_N", "error")
    rows = [(deg, p.alpha, p.force, p.error) for deg, p in zip(angles_deg, predictions)]
    parameters = {
        "angles_deg": angles_deg,
        "source_label": calibration.source_label,
        "flexural_rigidity_Nm2": calibration.flexural_rigidity,
        **_geometry_parameters(geometry),
        **LOAD_SEARCH_PARAMETERS,
    }
    return OutputDocument(args.command, parameters, columns, rows)


def _group_by_scenario(trials) -> dict[str, list]:
    groups: dict[str, list] = {}
    for trial in trials:
        groups.setdefault(trial.scenario, []).append(trial)
    return groups


def cmd_analyze(args) -> OutputDocument:
    groups = _group_by_scenario(load_manifest_trials(args.manifest))
    summaries = [
        summarize_scenario(groups[name], args.threshold_kpa) for name in sorted(groups)
    ]
    if args.per_angle:
        columns = (
            "scenario", "surface_angle_deg", "attached",
            "adaptation_force_N", "n_reps_attached", "rep_forces_N",
        )
        rows = [
            (
                summary.scenario, math.degrees(outcome.surface_angle), outcome.attached,
                outcome.adaptation_force, len(outcome.rep_forces), outcome.rep_forces,
            )
            for summary in summaries
            for outcome in summary.angles
        ]
    else:
        columns = (
            "scenario", "ultimate_angle_deg", "force_at_ultimate_N", "n_angles", "n_attached",
        )
        rows = [
            (
                summary.scenario,
                None if summary.ultimate_angle is None else math.degrees(summary.ultimate_angle),
                summary.force_at_ultimate, len(summary.angles), len(summary.attached_angles),
            )
            for summary in summaries
        ]
    parameters = {
        "manifest": args.manifest,
        "threshold_kpa": args.threshold_kpa,
        "per_angle": args.per_angle,
    }
    return OutputDocument(args.command, parameters, columns, rows)


def cmd_compare(args) -> OutputDocument:
    groups = _group_by_scenario(load_manifest_trials(args.manifest))
    if args.scenario not in groups:
        known = f"have: {', '.join(sorted(groups))}" if groups else "it lists none"
        raise ValueError(f"scenario {args.scenario!r} not in manifest ({known})")

    geometry = _stalk_geometry(args)
    calibration = _fit_stiffness(args, geometry)
    summary = summarize_scenario(groups[args.scenario], args.threshold_kpa)
    measured_angles = [row.surface_angle for row in summary.attached_angles]
    predictions = predict_force_curve(measured_angles, calibration, geometry)
    comparison = compare_theory(summary, predictions)

    alpha_by_angle = {p.surface_angle: p.alpha for p in predictions}
    columns = (
        "surface_angle_deg", "measured_N", "predicted_N",
        "alpha", "residual_N", "relative_residual",
    )
    rows = [
        (
            math.degrees(row.surface_angle), row.measured, row.predicted,
            alpha_by_angle.get(row.surface_angle), row.residual, row.relative_residual,
        )
        for row in comparison.rows
    ]
    parameters = {
        "manifest": args.manifest,
        "scenario": args.scenario,
        "threshold_kpa": args.threshold_kpa,
        "source_label": calibration.source_label,
        "flexural_rigidity_Nm2": calibration.flexural_rigidity,
        **_geometry_parameters(geometry),
        **LOAD_SEARCH_PARAMETERS,
    }
    aggregates = {"mean_abs_relative_error": comparison.mean_abs_relative_error}
    return OutputDocument(args.command, parameters, columns, rows, aggregates=aggregates)


# --------------------------------------------------------------------------
# the command table: each flag is (name, add_argument keywords)

ANGLES_FLAG = ("--angles", dict(required=True, help="degrees, start:stop:step or a,b,c"))
BENDING_CSV = "bending CSV (deflection_mm,force_N)"
MANIFEST_FLAG = ("--manifest", dict(required=True, help="manifest CSV (file,scenario,angle_deg)"))
RATIO_FLAG = ("--radius-ratio", dict(
    type=float, default=0.5, help="pad radius over stalk length R/L (default 0.5)",
))
LENGTH_FLAG = ("--length-mm", dict(type=float, required=True, help="stalk length in mm"))
# A force's geometry and its stiffness, fitted from a bending sweep.
FORCE_FLAGS = (
    LENGTH_FLAG,
    ("--pad-radius-mm", dict(type=float, required=True, help="suction-pad radius in mm")),
    ("--bending-input", dict(required=True, help=BENDING_CSV)),
)
THRESHOLD_FLAG = ("--threshold-kpa", dict(
    type=float, default=DEFAULT_ATTACH_THRESHOLD_KPA,
    help="attachment detection threshold (kPa, negative)",
))
FORMAT_FLAG = ("--format", dict(choices=("csv", "json"), default="csv", help="output format"))

# (name, help, flags) in --help order; every command also takes --format,
# and the handler of "a-b" is cmd_a_b.
COMMANDS = (
    ("alpha-table", "normalized load for a range of surface angles", (ANGLES_FLAG, RATIO_FLAG)),
    ("shape", "deformed centerline for a given load", (
        ("--alpha", dict(type=float, required=True, help="normalized load")),
        RATIO_FLAG,
        ("--grid-points", dict(type=int, default=GRID_POINTS, help="arc-length samples on [0, 1]")),
    )),
    ("calibrate", "fit effective EI from bending data", (
        ("--input", dict(required=True, help=BENDING_CSV)),
        LENGTH_FLAG,
        ("--label", dict(help="label for the stiffness source")),
    )),
    ("predict-force", "theory adaptation-force curve", (ANGLES_FLAG, *FORCE_FLAGS)),
    ("analyze", "summarize adaptation trials per scenario", (
        MANIFEST_FLAG,
        THRESHOLD_FLAG,
        ("--per-angle", dict(action="store_true", help="emit per-angle rows")),
    )),
    ("compare", "theory vs measured adaptation force", (
        MANIFEST_FLAG,
        ("--scenario", dict(required=True, help="scenario to compare")),
        THRESHOLD_FLAG, *FORCE_FLAGS,
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stalkmech",
        description="Suction-cup stalk mechanics: elastica solving, stiffness "
        "calibration, force prediction, and adaptation-test analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, FORMAT_FLAG):
            command.add_argument(flag, **options)
        # Looked up as the parser is built, so a rebound cmd_* attribute is the one that runs.
        command.set_defaults(handler=globals()["cmd_" + name.replace("-", "_")])
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
    try:
        status = execute(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a reader that went away early raises here, not at exit
    except BrokenPipeError:  # devnull keeps the final flush quiet (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
