import ast
import io
import json
import math
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import stalkmech
import stalkmech.cli
from stalkmech.cli import MAX_RANGE_ANGLES, execute, parse_angles_spec
from stalkmech.geometry import MAX_GRID_POINTS
from test_golden import CASES, REPO, golden_path

# Every character at which str.splitlines() ends a line.
LINE_BREAKS = [c for c in map(chr, range(sys.maxunicode + 1)) if c.splitlines() != [c]]


def run(argv):
    stream = io.StringIO()
    status = execute(argv, stream)
    return status, stream.getvalue()


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
        with pytest.raises(ValueError):
            parse_angles_spec("0:75")
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

    def test_conflicting_geometry_flags(self):
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
        assert status == 1

    # A load below the float range underflows alpha to 0; the cell prints both angles.
    def test_underflowing_load_prints_both_angles(self):
        status, out = run(["alpha-table", "--angles", "1e-100", "--radius-ratio", "1e250"])
        assert status == 0
        (row,) = csv_rows(out)
        assert row["alpha"] == ""
        assert row["error"] == "root search left tip angle 0 rad off target 1.7453293e-102 rad"


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
            ("--alpha 1 --radius-ratio inf", "pad_radius must be finite and >= 0, got inf"),
            ("--alpha 1 --radius-ratio nan", "pad_radius must be finite and >= 0, got nan"),
            (
                "--alpha 1 --length-mm inf",
                "stalk_length cubed must be positive and finite, got inf",
            ),
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
    def test_direct_ei(self):
        status, out = run(
            [
                "predict-force",
                "--angles",
                "15:75:15",
                "--length-mm",
                "20",
                "--pad-radius-mm",
                "10",
                "--ei-nm2",
                "5.44e-4",
            ]
        )
        assert status == 0
        rows = csv_rows(out)
        forces = [float(r["force_N"]) for r in rows]
        assert forces[2] == pytest.approx(1.40, rel=0.03)
        assert forces == sorted(forces)

    def test_infinite_ei_is_rejected(self, capsys):
        argv = ["predict-force", "--angles", "45", "--length-mm", "20", "--ei-nm2", "inf"]
        status, out = run(argv)
        assert (status, out) == (1, "")
        assert "flexural_rigidity must be positive and finite" in capsys.readouterr().err

    def test_bending_input_equivalent(self, fixtures_dir):
        argv_common = [
            "predict-force",
            "--angles",
            "45",
            "--length-mm",
            "20",
            "--pad-radius-mm",
            "10",
        ]
        _, from_file = run(
            argv_common
            + ["--bending-input", str(fixtures_dir / "bending" / "granular_20mm.csv")]
        )
        (row,) = csv_rows(from_file)
        assert float(row["force_N"]) == pytest.approx(1.40, rel=0.03)

    def test_requires_exactly_one_stiffness_source(self):
        status, _ = run(
            [
                "predict-force",
                "--angles",
                "45",
                "--length-mm",
                "20",
            ]
        )
        assert status == 1


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

    def test_unknown_scenario(self, fixtures_dir):
        status, _ = run(
            [
                "compare",
                "--manifest",
                str(fixtures_dir / "trials" / "manifest.csv"),
                "--scenario",
                "nope",
                "--length-mm",
                "20",
                "--ei-nm2",
                "1e-4",
            ]
        )
        assert status == 1

    @pytest.fixture
    def zero_force_argv(self, tmp_path):
        """compare on one scenario, one trial whose force stays 0 until the cup attaches."""
        header = "time_s,force_N,displacement_mm,pressure_kPa"
        (tmp_path / "a.csv").write_text(f"{header}\n0,0,0,-8\n0.5,0,0.5,-60\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,scenario,angle_deg\na.csv,s,45\n")
        return ["compare", "--manifest", str(manifest), "--length-mm", "20", "--ei-nm2", "1e-4"]

    def test_one_scenario_needs_no_scenario_flag(self, zero_force_argv):
        status, out = run(zero_force_argv)
        assert status == 0
        assert "# parameter scenario=s\n" in out

    # A positive prediction against a measured 0 N is an infinite relative residual.
    def test_non_finite_cells(self, zero_force_argv):
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

    @pytest.mark.parametrize("scenario", [[], ["--scenario", "s"]], ids=["any", "named"])
    def test_manifest_without_trials(self, tmp_path, capsys, scenario):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,scenario,angle_deg\n")
        argv = ["compare", "--manifest", str(manifest), "--length-mm", "20", "--ei-nm2", "1e-4"]
        status, out = run(argv + scenario)
        assert (status, out) == (1, "")
        assert capsys.readouterr().err == f"stalkmech: error: manifest {manifest} lists no trials\n"


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
        argv += ["--scenario", "s", "--length-mm", "20", "--bending-input", bending]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"stalkmech: error: {tmp_path / bad_file}: {message}\n"


# The geometry and load-search echoes that several commands share.
GEOMETRY_KEYS = {"stalk_length_mm", "pad_radius_mm", "radius_ratio"}
LOAD_SEARCH_KEYS = {"boundary_tolerance", "max_iterations", "angle_tolerance"}
LOAD_COMMANDS = ["alpha-table", "predict-force", "compare"]


class TestParameterEcho:
    """Each command echoes exactly the parameters it reads and takes no flag it ignores."""

    ECHOED = {
        "alpha-table": {"angles_deg", *GEOMETRY_KEYS, *LOAD_SEARCH_KEYS},
        "shape": {
            "alpha", "tip_angle_deg", *GEOMETRY_KEYS,
            "grid_points", "boundary_tolerance",
        },
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
    MANIFEST = str(REPO / "fixtures" / "trials" / "manifest.csv")
    BENDING = str(REPO / "fixtures" / "bending" / "granular_20mm.csv")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["alpha-table", "--angles", "0:10:0"], "angle step must be positive"),
            (
                ["predict-force", "--angles", "45", "--ei-nm2", "1e-4"],
                "--length-mm is required for this command",
            ),
            (
                ["alpha-table", "--angles", "45", "--pad-radius-mm", "-1", "--length-mm", "20"],
                "--pad-radius-mm must be >= 0, got -1.0",
            ),
            (
                ["alpha-table", "--angles", "45", "--pad-radius-mm", "5"],
                "--pad-radius-mm needs --length-mm",
            ),
            (
                ["alpha-table", "--angles", "45", "--radius-ratio", "-0.5"],
                "--radius-ratio must be >= 0, got -0.5",
            ),
            (
                ["predict-force", "--angles", "45", "--length-mm", "20", "--ei-nm2", "0"],
                "flexural_rigidity must be positive and finite, got 0.0",
            ),
            (
                ["compare", "--manifest", MANIFEST, "--length-mm", "20", "--ei-nm2", "1e-4"],
                "manifest has several scenarios (10mm Granular, 20mm Granular, 5mm Granular, "
                "Dragonskin 10, Ecoflex 00-10, Ecoflex 00-10 suction pad); "
                "pick one with --scenario",
            ),
            # Lengths in metres whose cube leaves the float range, refused by the geometry.
            (
                ["predict-force", "--angles", "30", "--length-mm", "1e200", "--ei-nm2", "1"],
                "stalk_length cubed must be positive and finite, got 1e+197",
            ),
            (
                ["predict-force", "--angles", "30", "--length-mm", "1e-200", "--ei-nm2", "1e300"],
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
                ["alpha-table", "--angles", "45", "--length-mm", "1e200"],
                "stalk_length cubed must be positive and finite, got 1e+197",
            ),
            (
                [
                    "compare", "--manifest", MANIFEST, "--scenario", "20mm Granular",
                    "--length-mm", "1e200", "--ei-nm2", "1e-4",
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
                ["predict-force", "--angles", "30", "--length-mm", "1e120", "--ei-nm2", "1"],
                "stalk_length cubed must be positive and finite, got 1e+117",
            ),
        ],
        ids=[
            "zero-step", "no-length", "negative-pad", "pad-without-length", "negative-ratio",
            "zero-ei", "several-scenarios",
            "huge-length", "tiny-length", "huge-calibration-length", "tiny-calibration-length",
            "alpha-table-huge-length", "compare-huge-length",
            "overflowing-calibration-ei", "direct-ei-length-cubed",
        ],
    )
    def test_a_bad_flag_combination_names_itself(self, capsys, argv, message):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == f"stalkmech: error: {message}\n"

    @pytest.mark.parametrize("length_mm", ["1e200", "1e-200", "1e308", "1e120", "inf"])
    def test_a_length_out_of_float_range_is_one_message_on_every_command(
        self, capsys, length_mm
    ):
        common = ["--length-mm", length_mm, "--ei-nm2", "1e-4"]
        argvs = [
            ["predict-force", "--angles", "30", *common],
            ["calibrate", "--input", self.BENDING, "--length-mm", length_mm],
            ["compare", "--manifest", self.MANIFEST, "--scenario", "20mm Granular", *common],
            ["alpha-table", "--angles", "30", "--length-mm", length_mm],
            ["shape", "--alpha", "1", "--length-mm", length_mm],
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
        status, _ = run(["alpha-table", "--angles", "30", "--length-mm", "-5"])
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


class TestNumpyOnlyRuntime:
    """The package needs numpy and the standard library, and nothing else."""

    PRELUDE = (
        "import sys\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'stalkmech'}\n"
        "def foreign(names):\n"
        "    return sorted({n.partition('.')[0] for n in names} - allowed)\n"
    )

    def child(self, code, blas_threads=None):
        env = dict(os.environ, PYTHONPATH=str(Path(stalkmech.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
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

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
    def test_numpy_starts_with_one_blas_thread_unless_set(self, given, expected):
        proc = self.child(
            "import os, stalkmech.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n", given
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected]

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
