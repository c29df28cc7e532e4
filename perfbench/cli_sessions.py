"""Workload ``cli-sessions``: the five baseline commands, each a fresh process.

A block is one pass through the script below, every command run as
``python -m stalkmech.cli`` with ``src`` on the path, on the vendored
fixtures. The seed only shuffles the order of the commands. This is what
a user runs, and the only workload where interpreter start and
``import stalkmech`` count.

Outputs are checked by value, not by bytes, so that legitimate changes
(another ``outer_iterations`` count, say) do not break the checks. All
five commands succeed on the fixtures, so a non-zero exit status fails
the check as well.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from common import WORK, Block, median, run_child
from oracle import oracle_alpha
from tracing import END, NAME, START, load_spans

TAIL_PERCENTILE = 100.0
LATENCY_NAME = "cli_session_ms"
THROUGHPUT_NAME = "cli_commands_per_s"
OPERATION = "one pass through the five commands"
ITEM = "commands"

BENDING = "fixtures/bending/granular_20mm.csv"
MANIFEST = "fixtures/trials/manifest.csv"
STALK = ["--length-mm", "20", "--pad-radius-mm", "10", "--bending-input", BENDING]
SCRIPT = {
    "alpha-table": ["alpha-table", "--angles", "0:75:15"],
    "predict-force": ["predict-force", "--angles", "15:85:5", *STALK],
    "compare": ["compare", "--manifest", MANIFEST, "--scenario", "20mm Granular", *STALK],
    "analyze": ["analyze", "--manifest", MANIFEST],
    "shape": ["shape", "--alpha", "1.03"],
}
DRIVER = str(Path(__file__).resolve().parent / "cli_driver.py")
DIGEST = Path(__file__).resolve().parent / "scenario_digest.json"

# The CLI prints 6 significant digits, so a printed value is within 5e-6
# relative of the value computed; the rest covers the library's own
# agreement with the oracle (see load_sweep.ALPHA_RTOL).
CLI_RTOL = 6e-6


def parse_document(text: str) -> tuple[dict, list[dict]]:
    """Parameters and rows of a CSV document printed by the CLI."""
    parameters = {}
    table = []
    for line in text.splitlines():
        if line.startswith("# parameter "):
            key, _, value = line[len("# parameter ") :].partition("=")
            parameters[key] = value
        elif not line.startswith("#"):
            table.append(line)
    return parameters, list(csv.DictReader(table))


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def _check_alpha(state, rows, ratio) -> list[str]:
    problems = []
    for row in rows:
        gamma = math.radians(float(row["surface_angle_deg"]))
        key = (gamma, ratio)
        if key not in state["oracle"]:
            state["oracle"][key] = oracle_alpha(gamma, ratio)
        expected = state["oracle"][key]
        if row.get("error"):
            problems.append(f"{row['surface_angle_deg']} deg gave no alpha: {row['error']}")
        elif not _close(float(row["alpha"]), expected, CLI_RTOL):
            problems.append(f"alpha {row['alpha']} at {row['surface_angle_deg']} deg, oracle {expected!r}")
    return problems


def _check_force(rows, parameters, force_column) -> list[str]:
    # alpha, EI and the force are each printed to 6 significant digits,
    # so the product of the first two and the third can differ by three
    # rounding errors.
    ei = float(parameters["flexural_rigidity_Nm2"])
    length = float(parameters["stalk_length_mm"]) * 1e-3
    return [
        f"{force_column} {row[force_column]} is not alpha EI / L^2 at {row['surface_angle_deg']} deg"
        for row in rows
        if not _close(float(row[force_column]), float(row["alpha"]) * ei / length**2, 3 * CLI_RTOL)
    ]


def check_alpha_table(state, parameters, rows) -> list[str]:
    if len(rows) != 6:
        return [f"{len(rows)} rows, expected 6"]
    return _check_alpha(state, rows, float(parameters["radius_ratio"]))


def check_predict_force(state, parameters, rows) -> list[str]:
    if len(rows) != 15:
        return [f"{len(rows)} rows, expected 15"]
    problems = _check_alpha(state, rows, float(parameters["radius_ratio"]))
    return problems or _check_force(rows, parameters, "force_N")


def check_compare(state, parameters, rows) -> list[str]:
    if len(rows) != 6:
        return [f"{len(rows)} rows, expected 6"]
    problems = [
        f"predicted {row['predicted_N']} N is not above measured {row['measured_N']} N"
        for row in rows
        if not float(row["predicted_N"]) > float(row["measured_N"])
    ]
    problems += _check_alpha(state, rows, float(parameters["radius_ratio"]))
    return problems + _check_force(rows, parameters, "predicted_N")


def check_analyze(state, parameters, rows) -> list[str]:
    digest = state["digest"]
    got = [
        [
            row["scenario"],
            float(row["ultimate_angle_deg"]),
            float(row["force_at_ultimate_N"]),
            int(row["n_angles"]),
            int(row["n_attached"]),
        ]
        for row in rows
    ]
    return [] if got == digest else [f"rows {got} differ from the scenario digest {digest}"]


def check_shape(state, parameters, rows) -> list[str]:
    if len(rows) != int(parameters["grid_points"]):
        return [f"{len(rows)} rows for {parameters['grid_points']} grid points"]
    tip = math.radians(float(parameters["tip_angle_deg"]))
    last = float(rows[-1]["theta_rad"])
    if float(rows[0]["theta_rad"]) != 0.0 or not _close(last, tip, 2 * CLI_RTOL):
        return [f"theta runs from {rows[0]['theta_rad']} to {last!r}, tip angle {tip!r} rad"]
    # The tip angle must be the one the load produces: the oracle maps it
    # back to alpha. d(ln alpha)/d(ln gamma) is about 0.7 here, so the
    # printed angle's rounding stays within CLI_RTOL.
    alpha = float(parameters["alpha"])
    expected = oracle_alpha(tip, float(parameters["radius_ratio"]))
    if not _close(alpha, expected, CLI_RTOL):
        return [f"tip angle {parameters['tip_angle_deg']} deg needs alpha {expected!r}, not {alpha!r}"]
    return []


CHECKS = {
    "alpha-table": check_alpha_table,
    "predict-force": check_predict_force,
    "compare": check_compare,
    "analyze": check_analyze,
    "shape": check_shape,
}


def prepare(seed: int) -> dict:
    order = list(SCRIPT)
    random.Random(seed).shuffle(order)
    digest = json.loads(DIGEST.read_text(encoding="utf-8"))["rows"]
    return {
        "order": order,
        "digest": [[s, float(a), float(f), n, k] for s, a, f, n, k in digest],
        "oracle": {},
        "walls": {name: [] for name in SCRIPT},
        "handler_ms": [],
        "emit_ms": [],
    }


def run_block(state: dict, tracer) -> Block:
    block = Block()
    handler_s = emit_s = 0.0
    spans_path = WORK / "cli-spans.json"
    for name in state["order"]:
        if tracer is None:
            argv = ["-m", "stalkmech.cli", *SCRIPT[name]]
        else:
            argv = [DRIVER, str(spans_path), *SCRIPT[name]]
        wall, status, out, err = run_child(argv)
        block.busy_s += wall
        block.items += 1
        block.attempted += 1
        if status != 0:
            block.failed += 1
            block.problems.append(f"{name}: exit status {status}: {err.strip()[-300:]}")
        elif problems := CHECKS[name](state, *parse_document(out)):
            block.failed += 1
            block.problems += [f"{name}: {p}" for p in problems]
        if tracer is not None and spans_path.exists():
            spans = load_spans(spans_path)
            spans_path.unlink()
            handler_s += sum(s[END] - s[START] for s in spans if s[NAME] == "cli.handler")
            emit_s += sum(s[END] - s[START] for s in spans if s[NAME] == "cli.emit")
            tracer.extend(spans)
            state["walls"][name].append(wall)
    block.latencies_ms = [1e3 * block.busy_s]
    if tracer is not None:
        state["handler_ms"].append(1e3 * handler_s)
        state["emit_ms"].append(1e3 * emit_s)
    return block


def layer_extras(state: dict) -> dict:
    """Per-command process wall and per-pass handler and emit time, from traced passes."""
    extras = {
        f"cli.{name}.wall_s": median(walls) if walls else None
        for name, walls in state["walls"].items()
    }
    extras["cli.handler_ms"] = median(state["handler_ms"]) if state["handler_ms"] else None
    extras["cli.emit_ms"] = median(state["emit_ms"]) if state["emit_ms"] else None
    return extras
