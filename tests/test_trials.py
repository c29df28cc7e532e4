import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalkmech import (
    AttachmentEvent,
    TrialParseError,
    TrialRecord,
    TrialValidationError,
    adaptation_force,
    detect_attachment,
    load_trial,
    parse_trial,
    read_bending_samples,
    read_manifest,
    serialize_trial,
    stiffness_at_deflection,
)

WELL_FORMED = """\
time_s,force_N,displacement_mm,pressure_kPa
# bench export
0,0,0,-8
0.5,0.12,0.5,-8.1
1,0.25,1,-55
"""


class TestParse:
    def test_well_formed_three_rows(self):
        rec = parse_trial(WELL_FORMED, "demo", math.radians(30.0))
        assert rec.n_samples == 3
        assert rec.scenario == "demo"
        assert rec.surface_angle == math.radians(30.0)
        assert rec.displacement[1] == 0.0005  # mm converted to m
        assert rec.pressure[2] == -55.0

    def test_header_only_is_a_validation_error(self):
        with pytest.raises(TrialValidationError):
            parse_trial("time_s,force_N,displacement_mm,pressure_kPa\n", "demo")

    def test_non_numeric_force_names_line_two(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,oops,0,-8\n"
        with pytest.raises(TrialParseError) as excinfo:
            parse_trial(content, "demo")
        assert excinfo.value.line_number == 2

    def test_wrong_header(self):
        with pytest.raises(TrialParseError):
            parse_trial("t,F,d,P\n0,0,0,-8\n", "demo")

    def test_wrong_field_count(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,0,0\n"
        with pytest.raises(TrialParseError):
            parse_trial(content, "demo")

    def test_non_monotone_time(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,0,0,-8\n0,0.1,0.5,-8\n"
        with pytest.raises(TrialValidationError):
            parse_trial(content, "demo")

    def test_positive_pressure_flags_the_trial_invalid(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,0,0,5\n"
        with pytest.raises(TrialValidationError):
            parse_trial(content, "demo")

    def test_comments_and_blank_lines_ignored(self):
        content = (
            "# preamble\n\ntime_s,force_N,displacement_mm,pressure_kPa\n"
            "# mid comment\n0,0,0,-8\n\n"
        )
        assert parse_trial(content, "demo").n_samples == 1


class TestRoundTrip:
    def test_fixture_files_round_trip_bit_exactly(self, fixtures_dir):
        for name in ("granular_20mm/angle85_rep1.csv", "granular_5mm/angle45_rep2.csv"):
            rec = load_trial(fixtures_dir / "trials" / name)
            again = parse_trial(serialize_trial(rec), rec.scenario, rec.surface_angle)
            for channel in ("time", "force", "displacement", "pressure"):
                assert np.array_equal(getattr(rec, channel), getattr(again, channel))

    @given(
        steps=st.lists(
            st.floats(min_value=1e-6, max_value=100.0, allow_nan=False), min_size=1, max_size=12
        ),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_serialize_parse_is_the_identity_on_numbers(self, steps, data):
        n = len(steps)
        finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
        nonpos = st.floats(min_value=-1e6, max_value=0.0, allow_nan=False)
        rec = TrialRecord(
            scenario="prop",
            surface_angle=None,
            time=np.cumsum(steps),
            force=np.asarray(data.draw(st.lists(finite, min_size=n, max_size=n))),
            displacement=np.asarray(data.draw(st.lists(finite, min_size=n, max_size=n))),
            pressure=np.asarray(data.draw(st.lists(nonpos, min_size=n, max_size=n))),
        )
        text = serialize_trial(rec)
        again = parse_trial(text, "prop")
        for channel in ("time", "force", "displacement", "pressure"):
            assert np.array_equal(getattr(rec, channel), getattr(again, channel))
        # A second cycle is byte-stable.
        assert serialize_trial(again) == text


def make_record(pressures, forces=None, times=None):
    n = len(pressures)
    return TrialRecord(
        scenario="synthetic",
        surface_angle=None,
        time=np.asarray(times if times is not None else np.arange(n, dtype=float)),
        force=np.asarray(forces if forces is not None else np.zeros(n)),
        displacement=np.zeros(n),
        pressure=np.asarray(pressures, dtype=float),
    )


class TestDetectAttachment:
    def test_ramp_crossing_at_sample_seven(self):
        pressures = [-8, -14, -20, -26, -32, -38, -44, -52, -58, -60]
        event = detect_attachment(make_record(pressures), threshold=-50.0)
        assert event is not None
        assert event.sample_index == 7
        assert event.pressure == -52.0

    def test_self_jamming_plateau_never_attaches(self):
        assert detect_attachment(make_record([-8.0] * 6)) is None

    def test_single_attached_sample(self):
        event = detect_attachment(make_record([-60.0]))
        assert event is not None and event.sample_index == 0

    def test_threshold_must_be_negative(self):
        with pytest.raises(ValueError):
            detect_attachment(make_record([-60.0]), threshold=0.0)

    @given(
        pressures=st.lists(
            st.floats(min_value=-100.0, max_value=0.0, allow_nan=False),
            min_size=1,
            max_size=25,
        ),
        t1=st.floats(min_value=-99.0, max_value=-1.0, allow_nan=False),
        t2=st.floats(min_value=-99.0, max_value=-1.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_lower_threshold_never_fires_earlier(self, pressures, t1, t2):
        record = make_record(pressures)
        high, low = max(t1, t2), min(t1, t2)
        event_high = detect_attachment(record, high)
        event_low = detect_attachment(record, low)
        if event_low is not None:
            assert event_high is not None
            assert event_high.sample_index <= event_low.sample_index


class TestAdaptationForce:
    def test_peak_at_attachment(self):
        rec = make_record([-8, -8, -8, -55], forces=[0.0, 0.3, 0.48, 0.4])
        event = detect_attachment(rec)
        assert adaptation_force(rec, event) == 0.48

    def test_attach_at_first_sample_with_zero_force(self):
        rec = make_record([-60.0], forces=[0.0])
        assert adaptation_force(rec, detect_attachment(rec)) == 0.0

    def test_interior_peak_wins(self):
        rec = make_record(
            [-8, -8, -8, -8, -8, -55],
            forces=[0.0, 0.9, 1.31, 1.1, 1.2, 1.25],
        )
        assert adaptation_force(rec, detect_attachment(rec)) == 1.31

    def test_out_of_bounds_event(self):
        rec = make_record([-60.0])
        with pytest.raises(ValueError):
            adaptation_force(rec, AttachmentEvent(sample_index=5, time=5.0, pressure=-60.0))

    def test_invariant_to_post_attachment_samples(self):
        base = [-8, -8, -55]
        forces = [0.1, 0.5, 0.45]
        rec_short = make_record(base, forces=forces)
        rec_long = make_record(base + [-60, -60], forces=forces + [2.0, 3.0])
        event_short = detect_attachment(rec_short)
        event_long = detect_attachment(rec_long)
        assert event_short.sample_index == event_long.sample_index
        assert adaptation_force(rec_short, event_short) == adaptation_force(
            rec_long, event_long
        )


class TestStiffnessAtDeflection:
    def test_jammed_20mm_reference_point(self, fixtures_dir):
        rec = load_trial(fixtures_dir / "bending_trials" / "granular_20mm.csv")
        assert stiffness_at_deflection(rec, 0.005) == 1.02

    def test_soft_silicone_reference_point(self, fixtures_dir):
        rec = load_trial(fixtures_dir / "bending_trials" / "ecoflex_0010_20mm.csv")
        assert stiffness_at_deflection(rec, 0.005) == 0.51

    def test_exact_sample_hit_skips_interpolation(self, fixtures_dir):
        rec = load_trial(fixtures_dir / "bending_trials" / "granular_10mm.csv")
        assert stiffness_at_deflection(rec, 0.001) == rec.force[2]

    def test_midpoint_interpolation(self):
        rec = TrialRecord(
            scenario="interp",
            surface_angle=None,
            time=np.array([0.0, 1.0]),
            force=np.array([0.2, 0.6]),
            displacement=np.array([0.001, 0.003]),
            pressure=np.array([-60.0, -60.0]),
        )
        assert stiffness_at_deflection(rec, 0.002) == pytest.approx(0.4)

    def test_out_of_range(self, fixtures_dir):
        rec = load_trial(fixtures_dir / "bending_trials" / "granular_20mm.csv")
        with pytest.raises(ValueError):
            stiffness_at_deflection(rec, 0.006)


class TestManifest:
    def test_fixture_manifest(self, fixtures_dir):
        entries = read_manifest(fixtures_dir / "trials" / "manifest.csv")
        assert len(entries) == 72
        first = entries[0]
        assert first.path.exists()
        assert first.scenario == "20mm Granular"
        assert first.surface_angle == math.radians(15.0)

    def test_bad_angle_cell(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,scenario,angle_deg\nf.csv,s,steep\n")
        with pytest.raises(TrialParseError):
            read_manifest(manifest)


# The three headed CSV formats: a reader taking a path and returning a
# sized result, the header, and two valid data rows.
CSV_FORMATS = {
    "trial": (
        lambda path: load_trial(path).time,
        "time_s,force_N,displacement_mm,pressure_kPa",
        ["0,0,0,-8", "0.5,0.12,0.5,-8.1"],
    ),
    "manifest": (read_manifest, "file,scenario,angle_deg", ["a.csv,s,15", "b.csv,s,30"]),
    "bending": (read_bending_samples, "deflection_mm,force_N", ["1,0.2", "2,0.41"]),
}


@pytest.mark.parametrize("fmt", sorted(CSV_FORMATS))
class TestHeadedCsvFormats:
    def read(self, fmt, tmp_path, lines):
        path = tmp_path / f"{fmt}.csv"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return CSV_FORMATS[fmt][0](path)

    def test_missing_header(self, fmt, tmp_path):
        with pytest.raises(TrialParseError, match="missing header line") as excinfo:
            self.read(fmt, tmp_path, ["# comments only", ""])
        assert excinfo.value.line_number is None

    def test_wrong_header(self, fmt, tmp_path):
        _, header, rows = CSV_FORMATS[fmt]
        with pytest.raises(TrialParseError, match="expected header") as excinfo:
            self.read(fmt, tmp_path, ["# export", header.upper(), *rows])
        assert excinfo.value.line_number == 2

    def test_wrong_field_count_names_the_line(self, fmt, tmp_path):
        _, header, rows = CSV_FORMATS[fmt]
        n_fields = header.count(",") + 1
        lines = [header, rows[0], "", rows[1] + ",extra"]
        with pytest.raises(TrialParseError) as excinfo:
            self.read(fmt, tmp_path, lines)
        assert excinfo.value.line_number == 4
        assert str(excinfo.value) == f"line 4: expected {n_fields} fields, got {n_fields + 1}"

    def test_comments_and_blank_lines_skipped(self, fmt, tmp_path):
        _, header, rows = CSV_FORMATS[fmt]
        lines = ["# export", "", header, "# mid comment", rows[0], "   ", rows[1], ""]
        assert len(self.read(fmt, tmp_path, lines)) == 2
