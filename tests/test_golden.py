"""Golden CLI outputs: the exit status and stdout bytes of fixed commands.

Each case runs through ``stalkmech.cli.execute`` from the repository root
and must reproduce its file under ``tests/golden/`` byte for byte: the
first line holds the exit status, the rest is stdout, followed by a
``stderr:`` section when the command writes to standard error. A change
that moves any printed digit, column, parameter echo or error message
fails here.

Regenerate every file from the current code with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import csv
import io
import json
import os
from pathlib import Path

import pytest

import stalkmech.alpha
from stalkmech.cli import execute

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

BENDING = "fixtures/bending/granular_20mm.csv"
MANIFEST = "fixtures/trials/manifest.csv"
PREDICT = [
    "predict-force", "--angles", "15:85:5", "--length-mm", "20",
    "--pad-radius-mm", "10", "--bending-input", BENDING,
]

CASES = {
    "alpha-table": ["alpha-table", "--angles", "0:75:15"],
    "alpha-table-json": ["alpha-table", "--angles", "0:75:15", "--format", "json"],
    "alpha-table-out-of-domain": ["alpha-table", "--angles", "15,95,30"],
    "alpha-table-zero-radius": ["alpha-table", "--angles", "0:75:15", "--radius-ratio", "0"],
    "shape": ["shape", "--alpha", "1.03"],
    "shape-rotating": ["shape", "--alpha", "4", "--radius-ratio", "1"],
    "shape-zero-radius": ["shape", "--alpha", "3", "--radius-ratio", "0"],
    "shape-zero-radius-straight": ["shape", "--alpha", "2", "--radius-ratio", "0"],
    "shape-coil": ["shape", "--alpha", "8", "--radius-ratio", "2"],
    "calibrate": ["calibrate", "--input", BENDING, "--length-mm", "20"],
    "predict-force": PREDICT,
    "predict-force-json": [*PREDICT, "--format", "json"],
    "predict-force-out-of-domain": ["predict-force", "--angles", "15,95,30", *PREDICT[3:]],
    "analyze": ["analyze", "--manifest", MANIFEST],
    "analyze-per-angle": ["analyze", "--manifest", MANIFEST, "--per-angle"],
    "compare": [
        "compare", "--manifest", MANIFEST, "--scenario", "20mm Granular",
        "--length-mm", "20", "--pad-radius-mm", "10", "--bending-input", BENDING,
    ],
}


def render(argv: list[str]) -> str:
    """Exit status line, stdout, then stderr if any; run from the repository root."""
    stream, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(errors):
        status = execute(argv, stream)
    text = f"exit {status}\n{stream.getvalue()}"
    if errors.getvalue():
        text += f"stderr:\n{errors.getvalue()}"
    return text


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


# Evaluations of the load excess per golden command, 2 per angle solved at
# R/L = 0.5: 5 angles for each alpha-table, 15 for each predict-force, the 6
# of compare's scenario and the 2 in the domain of each out-of-domain case.
# The rest make none: the zero-radius table reads K from _carlson directly,
# and shape, calibrate and analyze solve no load.
EXCESS_EVALUATIONS = {
    "alpha-table": 10, "alpha-table-json": 10, "alpha-table-out-of-domain": 4,
    "predict-force": 30, "predict-force-json": 30, "predict-force-out-of-domain": 4,
    "compare": 12,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_excess_evaluations_per_command(name, monkeypatch):
    monkeypatch.chdir(REPO)
    calls = []
    excess = stalkmech.alpha._excess

    def counted(*args):
        calls.append(args)
        return excess(*args)

    monkeypatch.setattr(stalkmech.alpha, "_excess", counted)
    render(CASES[name])
    assert len(calls) == EXCESS_EVALUATIONS.get(name, 0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.chdir(REPO)
    expected = golden_path(name).read_text(encoding="utf-8")
    assert render(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_rows_carry_the_csv_columns(name, monkeypatch):
    monkeypatch.chdir(REPO)
    argv = CASES[name]
    if "--format" in argv:
        at = argv.index("--format")
        argv = argv[:at] + argv[at + 2:]
    runs = []
    for fmt in ("csv", "json"):
        stream = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            runs.append((execute([*argv, "--format", fmt], stream), stream.getvalue()))
    (csv_status, csv_text), (json_status, json_text) = runs
    assert csv_status == json_status
    if csv_status != 0:
        assert csv_text == json_text == ""
        return
    header, *rows = csv.reader(l for l in csv_text.splitlines() if not l.startswith("#"))
    json_rows = json.loads(json_text)["rows"]
    assert len(json_rows) == len(rows) > 0
    assert all(list(row) == header for row in json_rows)


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(REPO)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        golden_path(name).write_text(render(argv), encoding="utf-8", newline="\n")
        print(f"wrote {golden_path(name).relative_to(REPO)}")
