import ast
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import stalkmech
import stalkmech.cli
from stalkmech.cli import MAX_RANGE_ANGLES, execute, parse_angles_spec
from stalkmech.force import StiffnessCalibration, predict_force_curve
from stalkmech.geometry import MAX_GRID_POINTS, BeamGeometry
from test_golden import CASES, REPO, golden_path

# Every character at which str.splitlines() ends a line.
LINE_BREAKS = [c for c in map(chr, range(sys.maxunicode + 1)) if c.splitlines() != [c]]


def run(argv):
    stream = io.StringIO()
    status = execute(argv, stream)
    return status, stream.getvalue()


# The stalk of the fixtures: 20 mm long, with a 10 mm pad.
STALK = ["--length-mm", "20", "--pad-radius-mm", "10"]
# Its bending sweep, whose fit is EI = 5.44e-4 N m^2.
BENDING = str(REPO / "fixtures" / "bending" / "granular_20mm.csv")
MANIFEST = str(REPO / "fixtures" / "trials" / "manifest.csv")


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestAngleSpec:
    def test_range(self):
        assert parse_angles_spec("0:75:15") == [0.0, 15.0, 30.0, 45.0, 60.0, 75.0]

    def test_range_with_inexact_step(self):
        assert parse_angles_spec("0:1:0.2") == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_list(self):
        assert parse_angles_spec("15,30,45") == [15.0, 30.0, 45.0]

    def test_bad_range(self):
        for spec in ("0:75", "1:2:3:4"):
            message = f"^angle range must be start:stop:step, got '{spec}'$"
            with pytest.raises(ValueError, match=message):
                parse_angles_spec(spec)
        with pytest.raises(ValueError):
            parse_angles_spec("10:0:5")

    @pytest.mark.parametrize(
        "spec, name",
        [("0:inf:1", "stop"), ("0:1:inf", "step"), ("nan:1:1", "start")],
    )
    def test_non_finite_range_bound_is_named(self, spec, name):
        with pytest.raises(ValueError, match=f"angle range {name} must be finite"):
            parse_angles_spec(spec)

    def test_non_finite_range_is_a_domain_error(self, capsys):
        status, out = run(["alpha-table", "--angles", "0:inf:1"])
        assert (status, out) == (1, "")
        assert "angle range stop must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, count",
        [("0:89:1e-300", "8.9e+301"), ("0:1000000:1", "1000001"), ("0:1e308:1e-10", "inf")],
    )
    def test_range_past_the_cap_is_refused_before_it_is_built(self, capsys, spec, count):
        status, out = run(["alpha-table", "--angles", spec])
        assert (status, out) == (1, "")
        message = f"angle range gives {count} angles, more than {MAX_RANGE_ANGLES}"
        assert message in capsys.readouterr().err

    # A blank item is refused like any other text float() cannot read.
    @pytest.mark.parametrize("spec", ["45,,60", ",", "45,"])
    def test_a_blank_item_is_a_domain_error(self, capsys, spec):
        with pytest.raises(ValueError, match="could not convert string to float: ''"):
            parse_angles_spec(spec)
        status, out = run(["alpha-table", "--angles", spec])
        assert (status, out) == (1, "")
        message = "stalkmech: error: could not convert string to float: ''\n"
        assert capsys.readouterr().err == message

    def test_range_at_the_cap_parses(self):
        angles = parse_angles_spec(f"0:{MAX_RANGE_ANGLES - 1}:1")
        assert len(angles) == MAX_RANGE_ANGLES
        assert angles[-1] == MAX_RANGE_ANGLES - 1


class TestAlphaTableCommand:
    def test_reference_column(self):
        status, out = run(["alpha-table", "--angles", "0:75:15", "--radius-ratio", "0.5"])
        assert status == 0
        rows = csv_rows(out)
        expected = {0.0: 0.0, 15.0: 0.445, 30.0: 0.772, 45.0: 1.03, 60.0: 1.254, 75.0: 1.467}
        assert len(rows) == 6
        for row in rows:
            target = expected[float(row["surface_angle_deg"])]
            if target == 0.0:
                assert row["alpha"] == "0"
            else:
                assert float(row["alpha"]) == pytest.approx(target, rel=0.03)

    def test_byte_identical_reruns(self):
        argv = ["alpha-table", "--angles", "0:45:15", "--radius-ratio", "0.5"]
        assert run(argv) == run(argv)

    def test_parameters_are_echoed(self):
        _, out = run(["alpha-table", "--angles", "15", "--radius-ratio", "0.25"])
        assert "# parameter radius_ratio=0.25\n" in out
        assert "grid_points" not in out

    # A list parameter is rounded item by item, as a float parameter is.
    def test_json_rounds_each_listed_angle(self):
        status, out = run(["alpha-table", "--angles", "0:0.3:0.1", "--format", "json"])
        assert status == 0
        assert json.loads(out)["parameters"]["angles_deg"] == [0.0, 0.1, 0.2, 0.3]

    # The echo keeps 6 significant digits, so it reproduces a run only to that
    # precision: this solved angle echoes as 90, which is out of domain.
    def test_echo_reproduces_a_run_to_six_digits(self):
        argv = ["alpha-table", "--radius-ratio", "3", "--angles"]
        _, out = run([*argv, "89.9999999"])
        assert "# parameter angles_deg=90\n" in out
        (row,) = csv_rows(out)
        assert (row["surface_angle_deg"], row["alpha"], row["error"]) == ("90", "0.460304", "")
        assert "surface angle must be in [0, pi/2)" in run([*argv, "90"])[1]

    def test_zero_radius_solves_every_row_on_the_buckled_branch(self):
        argv = ["alpha-table", "--angles", "15,45,85", "--radius-ratio", "0"]
        status, out = run(argv)
        assert status == 0
        rows = csv_rows(out)
        assert [r["error"] for r in rows] == ["", "", ""]
        assert all(float(r["alpha"]) > math.pi**2 / 4.0 for r in rows)

    def test_out_of_domain_angle_marks_the_row(self):
        status, out = run(["alpha-table", "--angles", "0:90:45", "--radius-ratio", "0.5"])
        assert status == 0
        rows = csv_rows(out)
        assert rows[2]["alpha"] == ""
        assert "surface angle" in rows[2]["error"]

    # R/L is the one geometry flag of a load table.
    def test_conflicting_geometry_flags(self, capsys):
        status, _ = run(
            [
                "alpha-table",
                "--angles",
                "30",
                "--radius-ratio",
                "0.5",
                "--length-mm",
                "20",
                "--pad-radius-mm",
                "10",
            ]
        )
        assert status == 2
        message = "unrecognized arguments: --length-mm 20 --pad-radius-mm 10"
        assert message in capsys.readouterr().err

    # A load below the float range underflows alpha to 0; the cell prints both angles.
    def test_underflowing_load_prints_both_angles(self):
        status, out = run(["alpha-table", "--angles", "1e-100", "--radius-ratio", "1e250"])
        assert status == 0
        (row,) = csv_rows(out)
        assert row["alpha"] == ""
        assert row["error"] == (
            "load alpha=0 underflows below the normal floats and leaves "
            "tip angle 0 rad off target 1.7453293e-102 rad"
        )


class TestShapeCommand:
    def test_centerline_rows(self):
        status, out = run(
            ["shape", "--alpha", "1.03", "--radius-ratio", "0.5", "--grid-points", "65"]
        )
        assert status == 0
        rows = csv_rows(out)
        assert len(rows) == 65
        assert rows[0]["s"] == "0" and rows[0]["x"] == "0" and rows[0]["y"] == "0"
        assert float(rows[-1]["s"]) == 1.0
        assert 0.0 < float(rows[-1]["y"]) < 1.0

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--alpha inf", "alpha must be finite and >= 0, got inf"),
            ("--alpha nan", "alpha must be finite and >= 0, got nan"),
            ("--alpha 1 --radius-ratio inf", "--radius-ratio must be finite and >= 0, got inf"),
            ("--alpha 1 --radius-ratio nan", "--radius-ratio must be finite and >= 0, got nan"),
        ],
    )
    def test_non_finite_input_is_a_domain_error(self, capsys, flags, message):
        status, out = run(["shape", *flags.split()])
        assert (status, out) == (1, "")
        assert message in capsys.readouterr().err

    def test_negative_alpha_is_the_library_message(self, capsys):
        status, out = run(["shape", "--alpha", "-1"])
        assert (status, out) == (1, "")
        assert "alpha must be finite and >= 0, got -1.0" in capsys.readouterr().err

    # The first bracket end alpha (1 + R/L) overflows, so no pass can start.
    @pytest.mark.parametrize(
        "flags, shown",
        [
            ("--alpha 9e307 --radius-ratio 1", "9e+307, R/L=1.0"),
            ("--alpha 1e300 --radius-ratio 1e10", "1e+300, R/L=10000000000.0"),
        ],
    )
    def test_overflowing_load_is_a_domain_error(self, capsys, flags, shown):
        status, out = run(["shape", *flags.split()])
        assert (status, out) == (1, "")
        message = f"stalkmech: error: alpha (1 + R/L) must be finite, got alpha={shown}\n"
        assert capsys.readouterr().err == message


class TestCalibrateCommand:
    def test_jammed_20mm_fixture(self, fixtures_dir):
        status, out = run(
            [
                "calibrate",
                "--input",
                str(fixtures_dir / "bending" / "granular_20mm.csv"),
                "--length-mm",
                "20",
            ]
        )
        assert status == 0
        (row,) = csv_rows(out)
        assert float(row["flexural_rigidity_Nm2"]) == pytest.approx(5.44e-4, rel=1e-6)
        assert float(row["linear_slope_N_per_m"]) == pytest.approx(204.0, rel=1e-6)
        assert row["fit_quality"] == "1"

    def test_long_stroke_surfaces_a_warning(self, fixtures_dir):
        status, out = run(
            [
                "calibrate",
                "--input",
                str(fixtures_dir / "bending" / "granular_10mm.csv"),
                "--length-mm",
                "10",
                "--format",
                "json",
            ]
        )
        assert status == 0
        doc = json.loads(out)
        assert len(doc["warnings"]) == 1
        assert "deflection" in doc["warnings"][0]

    def test_csv_warning_line_precedes_the_header(self, fixtures_dir):
        argv = ["calibrate", "--input", str(fixtures_dir / "bending" / "granular_10mm.csv")]
        status, out = run(argv + ["--length-mm", "10"])
        assert status == 0
        lines = out.splitlines()
        warning = (
            "# warning max deflection is 0.50 of the stalk length; "
            "the linear tip relation is only trusted up to 0.25"
        )
        assert lines[lines.index(warning) + 1].startswith("source_label,")

    @pytest.mark.parametrize(
        "line_break, escape", [("\n", "\\n"), ("\r", "\\r"), ("\u2028", "\\u2028")]
    )
    def test_a_line_break_in_a_parameter_stays_in_its_comment(
        self, fixtures_dir, line_break, escape
    ):
        bending = str(fixtures_dir / "bending" / "granular_20mm.csv")
        argv = ["calibrate", "--input", bending, "--length-mm", "20", "--label"]
        label = f"jammed{line_break}source_label,x"
        status, out = run(argv + [label])
        assert status == 0
        lines = out.splitlines()
        assert f"# parameter label=jammed{escape}source_label,x" in lines
        table = [line for line in lines if not line.startswith("#")]
        assert table[0].startswith("source_label,stalk_length_mm,")
        status, out = run(argv + [label, "--format", "json"])
        assert json.loads(out)["parameters"]["label"] == label

    def test_no_line_break_character_ends_a_comment(self, fixtures_dir):
        bending = str(fixtures_dir / "bending" / "granular_20mm.csv")
        label = f"jammed{''.join(LINE_BREAKS)}source_label,x"
        status, out = run(["calibrate", "--input", bending, "--length-mm", "20", "--label", label])
        assert status == 0
        lines = out.splitlines()
        assert sum(line.startswith("# parameter label=jammed") for line in lines) == 1
        table = [line for line in lines if not line.startswith("#")]
        assert table[0].startswith("source_label,stalk_length_mm,")

    def test_a_line_break_in_a_cell_is_escaped_on_its_row(self, fixtures_dir):
        bending = str(fixtures_dir / "bending" / "granular_20mm.csv")
        argv = ["calibrate", "--input", bending, "--length-mm", "20", "--label"]
        assert len(LINE_BREAKS) == 10
        for line_break in LINE_BREAKS:
            status, out = run(argv + [f"jammed{line_break}x"])
            assert status == 0
            table = [line for line in out.splitlines() if not line.startswith("#")]
            escape = line_break.encode("unicode_escape").decode("ascii")
            assert table[1:] == [f"jammed{escape}x,20,5,204,0.000544,1"]

    # The squares of these forces overflow; the fit quality does not.
    def test_forces_whose_squares_overflow(self, tmp_path, capsys):
        bending = tmp_path / "huge.csv"
        bending.write_text("deflection_mm,force_N\n1,1e200\n2,3e200\n", encoding="utf-8")
        status, out = run(["calibrate", "--input", str(bending), "--length-mm", "20"])
        assert status == 0
        (row,) = csv_rows(out)
        assert (row["linear_slope_N_per_m"], row["fit_quality"]) == ("1.4e+203", "0.98")
        assert capsys.readouterr().err == ""

    def test_missing_file_exits_one(self):
        status, _ = run(["calibrate", "--input", "no/such/file.csv", "--length-mm", "20"])
        assert status == 1

    @pytest.mark.parametrize("length", ["-20", "0", "nan"])
    def test_bad_length_names_the_flag(self, fixtures_dir, capsys, length):
        bending = str(fixtures_dir / "bending" / "granular_20mm.csv")
        status, out = run(["calibrate", "--input", bending, "--length-mm", length])
        assert (status, out) == (1, "")
        message = f"--length-mm must be positive, got {float(length)}"
        assert message in capsys.readouterr().err


class TestPredictForceCommand:
    def test_bending_input_equivalent(self):
        argv = ["predict-force", "--angles", "15:75:15", *STALK, "--bending-input", BENDING]
        status, out = run(argv)
        assert status == 0
        assert "# parameter flexural_rigidity_Nm2=0.000544\n" in out
        assert "# parameter source_label=granular_20mm\n" in out
        forces = [float(r["force_N"]) for r in csv_rows(out)]
        assert forces[2] == pytest.approx(1.40, rel=0.03)
        assert forces == sorted(forces)

    # A known EI goes in through the library; the command's sweep from the
    # bending file whose fit is that EI prints the same forces.
    def test_direct_ei(self):
        calibration = StiffnessCalibration(5.44e-4, 1.0, "direct", 0.02)
        angles = [math.radians(a) for a in (15, 30, 45, 60, 75)]
        curve = predict_force_curve(angles, calibration, BeamGeometry(0.02, 0.01))
        direct = [p.force for p in curve]
        assert direct[2] == pytest.approx(1.40, rel=0.03)
        assert direct == sorted(direct)
        argv = ["predict-force", "--angles", "15:75:15", *STALK, "--bending-input", BENDING]
        status, out = run(argv)
        assert status == 0
        printed = [float(r["force_N"]) for r in csv_rows(out)]
        assert printed == pytest.approx(direct, rel=1e-5)

    # The bending sweep is the one source of EI.
    def test_requires_exactly_one_stiffness_source(self, capsys):
        status, out = run(["predict-force", "--angles", "45", *STALK])
        assert (status, out) == (2, "")
        message = "the following arguments are required: --bending-input"
        assert message in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_scenario_digest(self, fixtures_dir):
        status, out = run(
            ["analyze", "--manifest", str(fixtures_dir / "trials" / "manifest.csv")]
        )
        assert status == 0
        rows = {r["scenario"]: r for r in csv_rows(out)}
        assert rows["20mm Granular"]["ultimate_angle_deg"] == "85"
        assert rows["20mm Granular"]["force_at_ultimate_N"] == "0.33"
        assert rows["Dragonskin 10"]["ultimate_angle_deg"] == "45"
        assert rows["Dragonskin 10"]["force_at_ultimate_N"] == "4.96"

    def test_per_angle_rows(self, fixtures_dir):
        status, out = run(
            [
                "analyze",
                "--manifest",
                str(fixtures_dir / "trials" / "manifest.csv"),
                "--per-angle",
                "--format",
                "json",
            ]
        )
        assert status == 0
        doc = json.loads(out)
        granular = [
            r for r in doc["rows"] if r["scenario"] == "20mm Granular"
        ]
        assert len(granular) == 7
        by_angle = {r["surface_angle_deg"]: r for r in granular}
        assert by_angle[90.0]["attached"] is False
        assert by_angle[90.0]["adaptation_force_N"] is None
        assert by_angle[85.0]["attached"] is True
        assert by_angle[85.0]["rep_forces_N"] == [0.33, 0.33]

    # No finite vacuum sample reaches -inf, so it would report every trial as unattached.
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--manifest", MANIFEST],
            [
                "compare", "--manifest", MANIFEST, "--scenario", "20mm Granular", *STALK,
                "--bending-input", BENDING,
            ],
        ],
        ids=["analyze", "compare"],
    )
    def test_infinite_threshold_rejected(self, capsys, argv):
        status, out = run([*argv, "--threshold-kpa=-inf"])
        assert (status, out) == (1, "")
        assert "threshold must be finite and negative (vacuum), got -inf" in capsys.readouterr().err

    def test_positive_threshold_rejected(self, fixtures_dir):
        status, _ = run(
            [
                "analyze",
                "--manifest",
                str(fixtures_dir / "trials" / "manifest.csv"),
                "--threshold-kpa",
                "10",
            ]
        )
        assert status == 1

    # argparse reads a negative number with an exponent as a flag, so the
    # value is written with "=".
    def test_negative_threshold_in_exponent_form(self):
        status, out = run(["analyze", "--manifest", MANIFEST, "--threshold-kpa=-5e1"])
        assert status == 0
        assert "# parameter threshold_kpa=-50\n" in out


class TestCompareCommand:
    def test_theory_overshoots_measured_everywhere(self, fixtures_dir):
        status, out = run(
            [
                "compare",
                "--manifest",
                str(fixtures_dir / "trials" / "manifest.csv"),
                "--scenario",
                "20mm Granular",
                "--length-mm",
                "20",
                "--pad-radius-mm",
                "10",
                "--bending-input",
                str(fixtures_dir / "bending" / "granular_20mm.csv"),
                "--format",
                "json",
            ]
        )
        assert status == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 6
        for row in doc["rows"]:
            assert row["predicted_N"] > row["measured_N"]
            assert row["residual_N"] > 0.0
        assert doc["aggregates"]["mean_abs_relative_error"] > 0.0

    def test_unknown_scenario(self, fixtures_dir, capsys):
        status, _ = run(
            [
                "compare",
                "--manifest",
                str(fixtures_dir / "trials" / "manifest.csv"),
                "--scenario",
                "nope",
                "--length-mm",
                "20",
                "--pad-radius-mm",
                "10",
                "--bending-input",
                BENDING,
            ]
        )
        assert status == 1
        assert capsys.readouterr().err == (
            "stalkmech: error: scenario 'nope' not in manifest (have: 10mm Granular, "
            "20mm Granular, 5mm Granular, Dragonskin 10, Ecoflex 00-10, "
            "Ecoflex 00-10 suction pad)\n"
        )

    @staticmethod
    def one_trial_argv(tmp_path, angle_deg):
        """compare on one trial at ``angle_deg``, whose force stays 0 until the cup attaches."""
        header = "time_s,force_N,displacement_mm,pressure_kPa"
        (tmp_path / "a.csv").write_text(f"{header}\n0,0,0,-8\n0.5,0,0.5,-60\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"file,scenario,angle_deg\na.csv,s,{angle_deg}\n")
        return [
            "compare", "--manifest", str(manifest), "--scenario", "s", *STALK,
            "--bending-input", BENDING,
        ]

    # A positive prediction against a measured 0 N is an infinite relative residual.
    def test_non_finite_cells(self, tmp_path):
        zero_force_argv = self.one_trial_argv(tmp_path, 45)
        status, out = run(zero_force_argv)
        assert status == 0
        (row,) = csv_rows(out)
        assert row["relative_residual"] == "inf"
        assert out.endswith("# aggregate mean_abs_relative_error=inf\n")
        status, out = run(zero_force_argv + ["--format", "json"])
        assert status == 0
        doc = json.loads(out)
        assert doc["rows"][0]["relative_residual"] == "inf"
        assert doc["aggregates"] == {"mean_abs_relative_error": "inf"}

    # The attached trial at 90 deg is past the load solver's domain.
    def test_an_attached_angle_theory_cannot_reach(self, tmp_path, capsys):
        assert run(self.one_trial_argv(tmp_path, 90)) == (1, "")
        message = "stalkmech: error: predictions do not cover measured angles: 90 deg\n"
        assert capsys.readouterr().err == message

    # Without --scenario compare stops before it reads the manifest; with one,
    # the error says that the manifest lists none.
    @pytest.mark.parametrize(
        "scenario, status, message",
        [
            ([], 2, "the following arguments are required: --scenario"),
            (
                ["--scenario", "s"], 1,
                "stalkmech: error: scenario 's' not in manifest (it lists none)\n",
            ),
        ],
        ids=["any", "named"],
    )
    def test_manifest_without_trials(self, tmp_path, capsys, scenario, status, message):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,scenario,angle_deg\n")
        argv = ["compare", "--manifest", str(manifest), *STALK, "--bending-input", BENDING]
        assert run(argv + scenario) == (status, "")
        assert message in capsys.readouterr().err


# A bad data file: its name, its bad third line and the error after its path.
# Both commands read the manifest and the trials it lists; compare also reads
# the bending file.
BAD_FILES = {
    "field-count": ("b.csv", "0.5,0.06,0.5", "line 3: expected 4 fields, got 3"),
    "positive-pressure": (
        "b.csv",
        "0.5,0.06,0.5,1.2",
        "positive pressure sample: trials use relative vacuum (<= 0 kPa)",
    ),
    "manifest-angle": ("manifest.csv", "b.csv,s,abc", "line 3: bad angle 'abc'"),
    "bending-cell": ("bending.csv", "2,abc", "line 3: could not convert string to float: 'abc'"),
}


@pytest.mark.parametrize(
    "command, bad_file, bad_row, message",
    [
        pytest.param(command, *BAD_FILES[case], id=f"{case}-{command}")
        for case in BAD_FILES
        for command in ("analyze", "compare")
        if case != "bending-cell" or command == "compare"
    ],
)
def test_bad_trial_in_a_manifest_is_named(tmp_path, capsys, command, bad_file, bad_row, message):
    header = "time_s,force_N,displacement_mm,pressure_kPa"
    files = {
        "a.csv": [header, "0,0,0,-8", "0.5,0.06,0.5,-8"],
        "b.csv": [header, "0,0,0,-8", "0.5,0.06,0.5,-8"],
        "manifest.csv": ["file,scenario,angle_deg", "a.csv,s,15", "b.csv,s,30"],
        "bending.csv": ["deflection_mm,force_N", "1,0.2", "2,0.41"],
    }
    files[bad_file][2] = bad_row
    for name, lines in files.items():
        (tmp_path / name).write_text("".join(f"{line}\n" for line in lines))
    argv = [command, "--manifest", str(tmp_path / "manifest.csv")]
    if command == "compare":
        bending = str(tmp_path / "bending.csv")
        argv += ["--scenario", "s", *STALK, "--bending-input", bending]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"stalkmech: error: {tmp_path / bad_file}: {message}\n"


# The geometry and load-search echoes that several commands share.
GEOMETRY_KEYS = {"stalk_length_mm", "pad_radius_mm", "radius_ratio"}
LOAD_SEARCH_KEYS = {"boundary_tolerance", "max_iterations", "angle_tolerance"}
LOAD_COMMANDS = ["alpha-table", "predict-force", "compare"]


class TestParameterEcho:
    """Each command echoes exactly the parameters it reads and takes no flag it ignores."""

    ECHOED = {
        "alpha-table": {"angles_deg", "radius_ratio", *LOAD_SEARCH_KEYS},
        "shape": {"alpha", "tip_angle_deg", "radius_ratio", "grid_points", "boundary_tolerance"},
        "calibrate": {"input", "length_mm", "label"},
        "predict-force": {
            "angles_deg", "source_label", "flexural_rigidity_Nm2", *GEOMETRY_KEYS,
            *LOAD_SEARCH_KEYS,
        },
        "analyze": {"manifest", "threshold_kpa", "per_angle"},
        "compare": {
            "manifest", "scenario", "threshold_kpa", "source_label", "flexural_rigidity_Nm2",
            *GEOMETRY_KEYS, *LOAD_SEARCH_KEYS,
        },
    }

    @pytest.mark.parametrize("command", sorted(ECHOED))
    def test_echoes_exactly_the_parameters_it_reads(self, monkeypatch, command):
        monkeypatch.chdir(REPO)
        status, out = run(CASES[command])
        assert status == 0
        keys = {
            line.removeprefix("# parameter ").partition("=")[0]
            for line in out.splitlines()
            if line.startswith("# parameter ")
        }
        assert keys == self.ECHOED[command]

    @pytest.mark.parametrize(
        "command, flag",
        [
            *((command, flag) for command in LOAD_COMMANDS
              for flag in ("--grid-points 64", "--alpha-max 1")),
            ("shape", "--alpha-max 0.5"),
        ],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
        self, monkeypatch, capsys, command, flag
    ):
        self.assert_usage_error(monkeypatch, capsys, command, flag)

    # Each command states its geometry one way: a load table or a shape reads
    # R/L alone, a force reads both lengths in mm.
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("alpha-table", "--length-mm 1e200"),
            ("alpha-table", "--pad-radius-mm 5"),
            ("shape", "--length-mm inf"),
            ("predict-force", "--radius-ratio 0.5"),
            ("compare", "--radius-ratio 0.5"),
        ],
        ids=[
            "alpha-table-huge-length", "pad-without-length", "shape-inf-length",
            "predict-force-ratio", "compare-ratio",
        ],
    )
    def test_one_way_to_state_geometry(self, monkeypatch, capsys, command, flag):
        self.assert_usage_error(monkeypatch, capsys, command, flag)

    # A force takes its EI, and the label of its source, from the bending file alone.
    @pytest.mark.parametrize("command", ["predict-force", "compare"])
    @pytest.mark.parametrize("flag", ["--ei-nm2 5.44e-4", "--label jammed"], ids=["ei", "label"])
    def test_one_source_of_stiffness(self, monkeypatch, capsys, command, flag):
        self.assert_usage_error(monkeypatch, capsys, command, flag)

    @staticmethod
    def assert_usage_error(monkeypatch, capsys, command, flag):
        monkeypatch.chdir(REPO)
        status, out = run([*CASES[command], *flag.split()])
        assert (status, out) == (2, "")
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_coarse_shape_grid_is_a_domain_error(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        status, out = run([*CASES["shape"], "--grid-points", "8"])
        assert (status, out) == (1, "")
        assert capsys.readouterr().err == "stalkmech: error: grid_points must be >= 16, got 8\n"

    @pytest.mark.parametrize("points", [MAX_GRID_POINTS + 1, 10**20])
    def test_shape_grid_past_the_cap_is_refused_before_any_work(
        self, monkeypatch, capsys, points
    ):
        def integrate(*args):
            raise AssertionError("the integrator ran")

        monkeypatch.setattr(stalkmech.elastica, "_rk4_tip", integrate)
        monkeypatch.chdir(REPO)
        status, out = run([*CASES["shape"], "--grid-points", str(points)])
        assert (status, out) == (1, "")
        assert capsys.readouterr().err == (
            f"stalkmech: error: grid_points must be <= {MAX_GRID_POINTS}, got {points}\n"
        )


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["alpha-table", "--angles", "0:10:0"], "angle step must be positive"),
            (
                [
                    "predict-force", "--angles", "45", "--length-mm", "20",
                    "--pad-radius-mm", "-1", "--bending-input", BENDING,
                ],
                "--pad-radius-mm must be finite and >= 0, got -1.0",
            ),
            (
                ["alpha-table", "--angles", "45", "--radius-ratio", "-0.5"],
                "--radius-ratio must be finite and >= 0, got -0.5",
            ),
            # A radius outside [0, inf) is refused in the words of the flag that gave it.
            (
                ["alpha-table", "--angles", "45", "--radius-ratio", "nan"],
                "--radius-ratio must be finite and >= 0, got nan",
            ),
            (
                ["alpha-table", "--angles", "45", "--radius-ratio", "inf"],
                "--radius-ratio must be finite and >= 0, got inf",
            ),
            (
                [
                    "predict-force", "--angles", "45", "--length-mm", "20",
                    "--pad-radius-mm", "nan", "--bending-input", BENDING,
                ],
                "--pad-radius-mm must be finite and >= 0, got nan",
            ),
            (
                [
                    "compare", "--manifest", MANIFEST, "--scenario", "20mm Granular",
                    "--length-mm", "20", "--pad-radius-mm", "inf", "--bending-input", BENDING,
                ],
                "--pad-radius-mm must be finite and >= 0, got inf",
            ),
            # Lengths in metres whose cube leaves the float range, refused by the geometry.
            (
                [
                    "predict-force", "--angles", "30", "--length-mm", "1e200",
                    "--pad-radius-mm", "10", "--bending-input", BENDING,
                ],
                "stalk_length cubed must be positive and finite, got 1e+197",
            ),
            (
                [
                    "predict-force", "--angles", "30", "--length-mm", "1e-200",
                    "--pad-radius-mm", "10", "--bending-input", BENDING,
                ],
                "stalk_length cubed must be positive and finite, got 1e-203",
            ),
            (
                ["calibrate", "--input", BENDING, "--length-mm", "1e308"],
                "stalk_length cubed must be positive and finite, got 1e+305",
            ),
            (
                ["calibrate", "--input", BENDING, "--length-mm", "1e-200"],
                "stalk_length cubed must be positive and finite, got 1e-203",
            ),
            (
                [
                    "compare", "--manifest", MANIFEST, "--scenario", "20mm Granular",
                    "--length-mm", "1e200", "--pad-radius-mm", "10", "--bending-input", BENDING,
                ],
                "stalk_length cubed must be positive and finite, got 1e+197",
            ),
            # L^3 = 1.25e308 m^3 is in range, but k L^3 / 3 with k = 204 N/m is not.
            (
                ["calibrate", "--input", BENDING, "--length-mm", "5e105"],
                "EI = k L^3 / 3 is out of float range at stalk length 5e+102 m, k = 204 N/m",
            ),
            # L^2 is in range, but L^3 is not.
            (
                [
                    "predict-force", "--angles", "30", "--length-mm", "1e120",
                    "--pad-radius-mm", "10", "--bending-input", BENDING,
                ],
                "stalk_length cubed must be positive and finite, got 1e+117",
            ),
        ],
        ids=[
            "zero-step", "negative-pad", "negative-ratio", "nan-ratio", "inf-ratio", "nan-pad",
            "compare-inf-pad", "huge-length", "tiny-length", "huge-calibration-length",
            "tiny-calibration-length", "compare-huge-length", "overflowing-calibration-ei",
            "direct-ei-length-cubed",
        ],
    )
    def test_a_bad_flag_combination_names_itself(self, capsys, argv, message):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == f"stalkmech: error: {message}\n"

    # A force needs both lengths in mm; a load table or a shape reads R/L alone.
    @pytest.mark.parametrize(
        "argv, missing",
        [
            (
                ["predict-force", "--angles", "45", "--bending-input", BENDING],
                "--length-mm, --pad-radius-mm",
            ),
            (
                [
                    "predict-force", "--angles", "45", "--length-mm", "20",
                    "--bending-input", BENDING,
                ],
                "--pad-radius-mm",
            ),
            (
                [
                    "compare", "--manifest", MANIFEST, "--scenario", "20mm Granular",
                    "--length-mm", "20", "--bending-input", BENDING,
                ],
                "--pad-radius-mm",
            ),
        ],
        ids=["no-length", "no-pad", "compare-no-pad"],
    )
    def test_a_force_needs_both_lengths(self, capsys, argv, missing):
        assert run(argv) == (2, "")
        assert f"the following arguments are required: {missing}\n" in capsys.readouterr().err

    # predict-force's case is TestPredictForceCommand.test_requires_exactly_one_stiffness_source.
    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["compare", "--manifest", MANIFEST, "--scenario", "s", *STALK], "--bending-input"),
            (["compare", "--manifest", MANIFEST, *STALK, "--bending-input", BENDING], "--scenario"),
        ],
        ids=["compare-no-bending-input", "compare-no-scenario"],
    )
    def test_compare_needs_a_bending_file_and_a_scenario(self, capsys, argv, missing):
        assert run(argv) == (2, "")
        assert f"the following arguments are required: {missing}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("length_mm", ["1e200", "1e-200", "1e308", "1e120", "inf"])
    def test_a_length_out_of_float_range_is_one_message_on_every_command(
        self, capsys, length_mm
    ):
        common = ["--length-mm", length_mm, "--pad-radius-mm", "10", "--bending-input", BENDING]
        argvs = [
            ["predict-force", "--angles", "30", *common],
            ["calibrate", "--input", BENDING, "--length-mm", length_mm],
            ["compare", "--manifest", MANIFEST, "--scenario", "20mm Granular", *common],
        ]
        message = (
            "stalkmech: error: stalk_length cubed must be positive and finite, "
            f"got {float(length_mm) * 1e-3}\n"
        )
        for argv in argvs:
            assert run(argv) == (1, "")
            assert capsys.readouterr().err == message

    def test_unknown_command_is_a_usage_error(self, capsys):
        status, _ = run(["frobnicate"])
        capsys.readouterr()
        assert status == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        status, _ = run(["alpha-table", "--angles", "45", "--wat"])
        capsys.readouterr()
        assert status == 2

    def test_negative_length_rejected(self):
        argv = ["predict-force", "--angles", "30", "--length-mm", "-5", "--pad-radius-mm", "2"]
        status, _ = run(argv + ["--bending-input", BENDING])
        assert status == 1

    # A manifest is the one way to give analyze its trials, with their scenario and angle.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze"], "the following arguments are required: --manifest"),
            (
                ["analyze", "--manifest", MANIFEST, "--input", "a.csv"],
                "unrecognized arguments: --input a.csv",
            ),
        ],
        ids=["no-manifest", "input-flag"],
    )
    def test_analyze_reads_only_a_manifest(self, capsys, argv, message):
        assert run(argv) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [CASES["shape"], ["alpha-table", "--angles", "15"]])
    def test_a_reader_gone_early_is_status_one_without_a_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # so that the first write to stdout fails
        env = dict(os.environ, PYTHONPATH=str(Path(stalkmech.__file__).resolve().parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stalkmech.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestDispatch:
    def test_the_parser_runs_the_handler_bound_to_the_module(self, monkeypatch):
        # A tracer wraps a command by rebinding its cmd_* attribute.
        calls = []
        handler = stalkmech.cli.cmd_alpha_table

        def counted(args):
            calls.append(args.command)
            return handler(args)

        monkeypatch.setattr(stalkmech.cli, "cmd_alpha_table", counted)
        status, _ = run(["alpha-table", "--angles", "45"])
        assert (status, calls) == (0, ["alpha-table"])


# The benchmark runs these commands and checks their values, so a flag
# change that would break it fails here first.
def test_the_benchmark_command_script_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.chdir(REPO)
    cli_sessions = importlib.import_module("cli_sessions")
    state = cli_sessions.prepare(seed=0)
    for name, argv in cli_sessions.SCRIPT.items():
        status, out = run(argv)
        assert status == 0, name
        assert cli_sessions.CHECKS[name](state, *cli_sessions.parse_document(out)) == [], name


def readme_commands():
    """The argv of each ``stalkmech`` line in the README's sh blocks, redirect dropped."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("stalkmech "):
                argv = shlex.split(line)[1:]
                commands.append(argv[: argv.index(">")] if ">" in argv else argv)
    return commands


# A flag change that leaves the README's examples stale fails here.
def test_the_readme_command_examples_run(monkeypatch):
    monkeypatch.chdir(REPO)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {name for name, _, _ in stalkmech.cli.COMMANDS}
    for argv in commands:
        assert run(argv)[0] == 0, argv


class TestNumpyOnlyRuntime:
    """The package runs on the standard library; numpy serves three array builders only."""

    PRELUDE = (
        "import sys\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'stalkmech'}\n"
        "def foreign(names):\n"
        "    return sorted({n.partition('.')[0] for n in names} - allowed)\n"
    )

    def child(self, code):
        env = dict(os.environ, PYTHONPATH=str(Path(stalkmech.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-c", self.PRELUDE + code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_import_loads_no_other_package(self):
        proc = self.child(
            "before = set(sys.modules)\n"
            "import stalkmech.cli\n"
            "print(foreign(set(sys.modules) - before))\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        # numpy.polynomial would add to every command's start-up time.
        assert proc.stdout.split() == ["[]", "False"]

    # Installing the package installs nothing else; the test extra adds numpy.
    def test_the_runtime_dependencies_are_empty(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        with open(REPO / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["dependencies"] == []
        assert "numpy>=1.24" in project["optional-dependencies"]["test"]

    # Importing the package sets no variable in the caller's process environment.
    # The child empties it first, so a variable already set cannot hide a default.
    def test_import_leaves_the_environment_unchanged(self):
        proc = self.child(
            "import os\n"
            "os.environ.clear()\n"
            "import stalkmech\n"
            "print(dict(os.environ))\n"
            "import stalkmech.cli\n"
            "print(dict(os.environ))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["{}", "{}"]

    # Without numpy every public name resolves and everything but the three
    # array builders runs: the load solver, shooting, the fit and the trial reduction.
    def test_the_library_runs_with_numpy_blocked(self):
        proc = self.child(
            f"import os\nos.chdir({str(REPO)!r})\n"
            "sys.modules['numpy'] = None\n"
            "import math, stalkmech as sm\n"
            "for name in sm.__all__:\n"
            "    getattr(sm, name)\n"
            "geometry = sm.BeamGeometry(0.02, 0.01)\n"
            "result = sm.solve_alpha_for_angle(math.radians(45.0), geometry)\n"
            "solution = sm.solve_shape_shooting(sm.NormalizedLoad(result.alpha), geometry)\n"
            "assert result.inner_solution.theta and sm.centerline(solution)\n"
            "samples = sm.read_bending_samples('fixtures/bending/granular_20mm.csv')\n"
            "calibration = sm.calibrate_ei(samples, geometry)\n"
            "trials = sm.load_manifest_trials('fixtures/trials/manifest.csv')\n"
            "granular = [trial for trial in trials if trial.scenario == '20mm Granular']\n"
            "summary = sm.summarize_scenario(granular)\n"
            "angles = [outcome.surface_angle for outcome in summary.angles if outcome.rep_forces]\n"
            "predictions = sm.predict_force_curve(angles, calibration, geometry)\n"
            "report = sm.compare_theory(summary, predictions)\n"
            "for build in (\n"
            "    lambda: sm.solve_shape_oracle(sm.NormalizedLoad(result.alpha), geometry),\n"
            "    lambda: sm.integrate_elastica_ivp(sm.NormalizedLoad(1.0), 1.0, 16),\n"
            "    lambda: solution.theta_samples,\n"
            "):\n"
            "    try:\n"
            "        build()\n"
            "    except ModuleNotFoundError as exc:\n"
            "        print(exc.name)\n"
            "print(len(sm.__all__), len(report.rows))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["numpy"] * 3 + ["35 6"]

    # numpy's import is about 40% of a command's wall time, so it loads only where
    # an array is built: the relaxation oracle, integrate_elastica_ivp and
    # theta_samples. No command builds one, so every golden command, the error
    # rows included, prints its golden bytes with numpy blocked.
    def test_every_golden_command_runs_with_numpy_blocked(self):
        proc = self.child(
            f"import json, os\nos.chdir({str(REPO)!r})\n"
            "sys.modules['numpy'] = None\n"
            f"sys.path.insert(0, {str(REPO / 'tests')!r})\n"
            "from test_golden import CASES, render\n"
            "print(json.dumps({name: render(argv) for name, argv in CASES.items()}))\n"
        )
        assert proc.returncode == 0, proc.stderr
        outputs = json.loads(proc.stdout)
        assert sorted(outputs) == sorted(CASES)
        for name, text in outputs.items():
            assert text == golden_path(name).read_text(encoding="utf-8"), name

    @pytest.mark.parametrize(
        "code, loaded",
        [
            ("import stalkmech\nprint('numpy' in sys.modules)\n", ["False"]),
            (
                "import io, stalkmech.cli\n"
                f"for argv in {list(CASES.values())!r}:\n"
                "    stalkmech.cli.execute(argv, io.StringIO())\n"
                "    print('numpy' in sys.modules)\n",
                ["False"] * len(CASES),
            ),
            (
                "import io, stalkmech.cli\n"
                f"assert stalkmech.cli.execute({CASES['shape']!r}, io.StringIO()) == 0\n"
                "print('numpy' in sys.modules)\n",
                ["False"],
            ),
            (
                "import math, stalkmech\n"
                "geometry = stalkmech.BeamGeometry.from_ratio(0.5)\n"
                "result = stalkmech.solve_alpha_for_angle(math.radians(45.0), geometry)\n"
                "print('numpy' in sys.modules)\n"
                "result.inner_solution\n"
                "print('numpy' in sys.modules)\n",
                ["False", "False"],
            ),
        ],
        ids=["import", "converted-commands", "shape", "inner-solution"],
    )
    def test_numpy_loads_only_where_an_array_is_built(self, code, loaded):
        proc = self.child(f"import os\nos.chdir({str(REPO)!r})\n" + code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == loaded

    # Records are named tuples, millimeter cells are parsed by float(), and
    # JSON output imports json itself, so no command pays for dataclasses
    # (with inspect) or decimal (with _decimal and numbers), or, in CSV, for json.
    def test_commands_load_no_dataclasses_and_csv_loads_no_json(self):
        argvs = sorted(CASES.values(), key=lambda argv: "json" in argv)  # the CSV commands first
        proc = self.child(
            f"import os\nos.chdir({str(REPO)!r})\n"
            "before = set(sys.modules)\n"
            "def new():\n"
            "    unwanted = {'dataclasses', 'inspect', 'json', 'decimal', '_decimal', 'numbers'}\n"
            "    return sorted(unwanted & (set(sys.modules) - before))\n"
            "import io, stalkmech.cli\n"
            "print(new())\n"
            f"for argv in {argvs!r}:\n"
            "    stalkmech.cli.execute(argv, io.StringIO())\n"
            "    print(new())\n"
        )
        assert proc.returncode == 0, proc.stderr
        n_json = sum("json" in argv for argv in argvs)
        n_csv = len(argvs) - n_json
        assert proc.stdout.splitlines() == ["[]"] * (1 + n_csv) + ["['json']"] * n_json

    def test_solvers_run_with_other_packages_blocked(self):
        proc = self.child(
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if foreign([name]):\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "import io, stalkmech.cli\n"
            "from stalkmech import BeamGeometry, NormalizedLoad\n"
            "assert stalkmech.cli.execute(['alpha-table', '--angles', '15,45'], io.StringIO()) == 0\n"
            "geometry = BeamGeometry.from_ratio(0.5)\n"
            "stalkmech.solve_shape_oracle(NormalizedLoad(1.03), geometry)\n"
        )
        assert proc.returncode == 0, proc.stderr


def code_names(path):
    """Names a Python file reads in code: no strings, comments, imports or definitions.

    A name is skipped where ``def`` or ``class`` defines it, and at the head
    of a logical line that binds it (``NAME =`` or ``NAME:``).
    """
    names = set()
    line = []
    with open(path, encoding="utf-8") as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if token.type in (tokenize.NAME, tokenize.OP):
                    line.append(token.string)
                continue
            if line and line[0] not in ("import", "from"):
                for i, name in enumerate(line):
                    defined = i > 0 and line[i - 1] in ("def", "class")
                    bound = i == 0 and line[1:2] in (["="], [":"])
                    if name.isidentifier() and not (defined or bound):
                        names.add(name)
            line = []
    return names


# A bulk rename can leave an import that binds one name twice, or one that nothing reads.
@pytest.mark.parametrize(
    "path", sorted((REPO / "src" / "stalkmech").glob("*.py")), ids=lambda path: path.name
)
def test_each_imported_name_is_read_where_it_is_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    for node in imports:
        if getattr(node, "module", None) != "__future__":
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            assert len(set(names)) == len(names), f"line {node.lineno} binds a name twice"
            assert [name for name in names if name not in read] == [], f"line {node.lineno}"


class TestLazyNamespace:
    """``import stalkmech`` loads no submodule; a name loads only the one defining it."""

    child = TestNumpyOnlyRuntime.child
    PRELUDE = TestNumpyOnlyRuntime.PRELUDE + (
        "def loaded():\n"
        "    return sorted(n.partition('.')[2] for n in sys.modules if n.startswith('stalkmech.'))\n"
    )

    # The public names, by the submodule that defines each.
    EXPORTS = {
        "alpha": [
            "AlphaResult", "AlphaTableRow", "generate_alpha_table", "solve_alpha_for_angle",
        ],
        "analysis": [
            "AdaptationSummary", "AngleOutcome", "ComparisonRow", "TheoryComparison",
            "compare_theory", "summarize_scenario",
        ],
        "elastica": [
            "ElasticaSolution", "centerline", "integrate_elastica_ivp", "solve_shape_oracle",
            "solve_shape_shooting",
        ],
        "errors": ["DataError", "SolverError", "StalkmechError"],
        "force": [
            "AdaptationPrediction", "StiffnessCalibration", "alpha_to_force", "calibrate_ei",
            "predict_force_curve",
        ],
        "geometry": ["BeamGeometry", "NormalizedLoad"],
        "trials": [
            "DEFAULT_ATTACH_THRESHOLD_KPA", "ManifestEntry", "TrialRecord",
            "adaptation_force", "detect_attachment", "load_manifest_trials", "load_trial",
            "parse_trial", "read_bending_samples", "read_manifest",
        ],
    }
    NAMES = sorted(name for names in EXPORTS.values() for name in names)
    SUBMODULES = sorted([*EXPORTS, "cli"])

    def run_child(self, code):
        proc = self.child(f"import os\nos.chdir({str(REPO)!r})\n" + code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_all_lists_the_thirty_five_names(self):
        assert len(set(self.NAMES)) == 35
        assert sorted(stalkmech.__all__) == self.NAMES

    def test_every_public_name_has_a_consumer(self):
        used = set()
        for directory in ("src", "perfbench", "scripts"):
            for path in sorted((REPO / directory).rglob("*.py")):
                used |= code_names(path)
        assert sorted(set(stalkmech.__all__) - used) == []

    def test_names_resolve_to_their_defining_module(self):
        lines = self.run_child(
            "import importlib, stalkmech\n"
            f"for module, names in {self.EXPORTS!r}.items():\n"
            "    for name in names:\n"
            "        value = getattr(stalkmech, name)\n"
            "        assert value is vars(importlib.import_module('stalkmech.' + module))[name]\n"
            "print('ok')\n"
        )
        assert lines == ["ok"]

    def test_submodules_resolve_as_attributes(self):
        lines = self.run_child(
            "import stalkmech\n"
            f"for module in {self.SUBMODULES!r}:\n"
            "    print(getattr(stalkmech, module) is sys.modules['stalkmech.' + module])\n"
        )
        assert lines == ["True"] * len(self.SUBMODULES)

    def test_star_import_and_dir_list_every_name(self):
        lines = self.run_child(
            "import stalkmech\n"
            "print(sorted(set(dir(stalkmech)) & set(stalkmech.__all__)))\n"
            "namespace = {}\n"
            "exec('from stalkmech import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}))\n"
        )
        assert lines == [str(self.NAMES)] * 2

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            stalkmech.no_such_name
        with pytest.raises(ImportError, match="'no_such_name'"):
            from stalkmech import no_such_name  # noqa: F401

    # The CLI loads every submodule on purpose: the benchmark's tracer binds its
    # spans on the names that stalkmech.cli imports.
    @pytest.mark.parametrize(
        "code, loaded",
        [
            ("import stalkmech\nprint(loaded())\n", [[]]),
            (
                "import math, stalkmech\n"
                "geometry = stalkmech.BeamGeometry.from_ratio(0.5)\n"
                "result = stalkmech.solve_alpha_for_angle(math.radians(45.0), geometry)\n"
                "print(loaded())\n"
                "result.inner_solution\n"
                "print(loaded())\n",
                [["alpha", "errors", "geometry"], ["alpha", "elastica", "errors", "geometry"]],
            ),
            (
                "from stalkmech import load_manifest_trials, summarize_scenario\n"
                "trials = load_manifest_trials('fixtures/trials/manifest.csv')\n"
                "summarize_scenario([t for t in trials if t.scenario == '20mm Granular'])\n"
                "print(loaded())\n",
                [["analysis", "errors", "trials"]],
            ),
            (
                "import stalkmech\n"
                "load = stalkmech.NormalizedLoad(1.03)\n"
                "stalkmech.solve_shape_shooting(load, stalkmech.BeamGeometry.from_ratio(0.5))\n"
                "print(loaded())\n",
                [["elastica", "errors", "geometry"]],
            ),
            (
                "from stalkmech import calibrate_ei\nprint(loaded())\n",
                [["alpha", "errors", "force", "geometry"]],
            ),
            ("import stalkmech.cli\nprint(loaded())\n", [SUBMODULES]),
        ],
        ids=["import", "solve", "summarize", "shoot", "calibrate", "cli"],
    )
    def test_each_entry_point_loads_only_the_submodules_it_reaches(self, code, loaded):
        assert self.run_child(code) == [str(modules) for modules in loaded]
