import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import mm_cell_to_m as decimal_mm_cell_to_m
from reference import serialize_trial
from stalkmech import (
    DataError,
    TrialRecord,
    adaptation_force,
    detect_attachment,
    load_trial,
    parse_trial,
    read_bending_samples,
    read_manifest,
)
from stalkmech.trials import TRIAL_HEADER, mm_cell_to_m

# The surface angle every trial here runs at, unless a test names its own.
ANGLE = math.radians(30.0)

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
        with pytest.raises(DataError, match="^a trial needs at least one sample$"):
            parse_trial("time_s,force_N,displacement_mm,pressure_kPa\n", "demo", ANGLE)

    def test_non_numeric_force_names_line_two(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,oops,0,-8\n"
        with pytest.raises(DataError) as excinfo:
            parse_trial(content, "demo", ANGLE)
        assert str(excinfo.value) == "line 2: could not convert string to float: 'oops'"

    def test_wrong_header(self):
        with pytest.raises(DataError) as excinfo:
            parse_trial("t,F,d,P\n0,0,0,-8\n", "demo", ANGLE)
        assert str(excinfo.value) == f"line 1: expected header {TRIAL_HEADER!r}, got 't,F,d,P'"

    def test_wrong_field_count(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,0,0\n"
        with pytest.raises(DataError, match="^line 2: expected 4 fields, got 3$"):
            parse_trial(content, "demo", ANGLE)

    def test_non_monotone_time(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,0,0,-8\n0,0.1,0.5,-8\n"
        with pytest.raises(DataError, match="^time must be strictly increasing$"):
            parse_trial(content, "demo", ANGLE)

    def test_positive_pressure_flags_the_trial_invalid(self):
        content = "time_s,force_N,displacement_mm,pressure_kPa\n0,0,0,5\n"
        with pytest.raises(DataError, match=r"^positive pressure sample: trials use relative"):
            parse_trial(content, "demo", ANGLE)

    def test_two_loads_of_one_file_are_equal_and_hash_equal(self, fixtures_dir):
        path = fixtures_dir / "trials" / "granular_20mm" / "angle85_rep1.csv"
        first, second = load_trial(path, "demo", ANGLE), load_trial(path, "demo", ANGLE)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_comments_and_blank_lines_ignored(self):
        content = (
            "# preamble\n\ntime_s,force_N,displacement_mm,pressure_kPa\n"
            "# mid comment\n0,0,0,-8\n\n"
        )
        assert parse_trial(content, "demo", ANGLE).n_samples == 1


GOOD_CHANNELS = {
    "time": [0.0, 1.0],
    "force": [0.1, 0.2],
    "displacement": [0.0, 0.001],
    "pressure": [-8.0, -55.0],
}


class TestChannelValidation:
    @pytest.mark.parametrize(
        "channel, values, message",
        [
            ("force", [[0.1], [0.2]], "channel force must be a flat sequence"),
            ("force", np.zeros((2, 1)), "channel force must be a flat sequence"),
            ("displacement", [0.0], "channel displacement has mismatched length"),
            ("force", [0.1, math.nan], "channel force contains non-finite values"),
            ("pressure", [-8.0, -math.inf], "channel pressure contains non-finite values"),
            ("time", [1.0, 1.0], "time must be strictly increasing"),
            ("pressure", [-8.0, 5.0], "positive pressure sample"),
            ("time", 0.0, "channel time must be a flat sequence"),
            ("force", 0.3, "channel force must be a flat sequence"),
            ("time", None, "channel time must be a flat sequence"),
            ("pressure", None, "channel pressure must be a flat sequence"),
            ("force", ["a", "b"], "channel force must be a flat sequence"),
            ("force", "12", "channel force must be a flat sequence"),
        ],
    )
    def test_malformed_channel_is_a_validation_error(self, channel, values, message):
        with pytest.raises(DataError, match=message):
            TrialRecord("bad", ANGLE, **{**GOOD_CHANNELS, channel: values})

    @pytest.mark.parametrize("kind", [list, tuple, np.asarray])
    def test_channels_are_stored_as_tuples_of_floats(self, kind):
        rec = TrialRecord("ok", ANGLE, **{k: kind(v) for k, v in GOOD_CHANNELS.items()})
        assert rec.force == (0.1, 0.2)
        assert all(type(x) is float for x in rec.time + rec.pressure)


class TestRoundTrip:
    def test_fixture_files_round_trip_bit_exactly(self, fixtures_dir):
        for name in ("granular_20mm/angle85_rep1.csv", "granular_5mm/angle45_rep2.csv"):
            rec = load_trial(fixtures_dir / "trials" / name, "round trip", ANGLE)
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
            surface_angle=ANGLE,
            time=np.cumsum(steps),
            force=np.asarray(data.draw(st.lists(finite, min_size=n, max_size=n))),
            displacement=np.asarray(data.draw(st.lists(finite, min_size=n, max_size=n))),
            pressure=np.asarray(data.draw(st.lists(nonpos, min_size=n, max_size=n))),
        )
        text = serialize_trial(rec)
        again = parse_trial(text, "prop", ANGLE)
        for channel in ("time", "force", "displacement", "pressure"):
            assert np.array_equal(getattr(rec, channel), getattr(again, channel))
        # A second cycle is byte-stable.
        assert serialize_trial(again) == text


# Cells where a careless text shift goes wrong: finiteness read from the
# unshifted cell or its mantissa, an exponent of thousands of digits (int()
# refuses past 4,300), inf and nan by their words, the sign of zero, a lone
# point, non-ASCII digits, and a tie that a 28-digit decimal context breaks.
TRAP_CELLS = {
    "overflows-as-mm": "2576738E+304",
    "long-mantissa": "1" + "0" * 5000 + "e-5000",
    "long-exponent": "1e" + "0" * 5000 + "5",
    "inf": "inf",
    "minus-infinity": "-Infinity",
    "spaced-inf": " +iNF ",
    "nan": "nan",
    "minus-nan": "-nan",
    "minus-zero": "-0",
    "minus-zero-exponent": "-0.0e-7",
    "lone-point-left": "-.5",
    "lone-point-right": "5.",
    "arabic-indic": "\u0661\u0662.\u0665",
    "tie": "1152921504606847104000.0000000000000000000001",
}
# Runs of digits, ASCII or not, joined by single underscores.
_DIGIT_RUN = st.lists(
    st.text(st.sampled_from("0123456789") | st.characters(categories=["Nd"]), min_size=1),
    min_size=1, max_size=3,
).map("_".join)
# A sign, a point, an e/E exponent, underscores and surrounding blanks; the
# exponent keeps to six digits, inside Decimal's range.
_CELL = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", " ", "\t "]),
    st.sampled_from(["", "+", "-"]),
    st.one_of(
        _DIGIT_RUN,
        st.builds("{}.{}".format, _DIGIT_RUN | st.just(""), _DIGIT_RUN),
        st.builds("{}.".format, _DIGIT_RUN),
    ),
    st.just("") | st.builds(
        "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
        st.lists(st.text("0123456789", min_size=1, max_size=3), min_size=1, max_size=2).map("_".join),
    ),
    st.sampled_from(["", " ", " \t"]),
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestMillimeterCells:
    # float(cell + "e-3") rounds the exact value once. The parser also ends
    # in float(), so this checks where it moves the point; the Decimal
    # reference below checks the rounding. The example is 2**60 + 128 m,
    # halfway between two doubles, plus 1e-25 m: the default 28-digit
    # decimal context rounded it down onto the tie.
    @given(cell=st.from_regex(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)", fullmatch=True))
    @example(cell="1152921504606847104000.0000000000000000000001")
    @settings(max_examples=300, deadline=None)
    def test_a_plain_decimal_cell_is_rounded_once(self, cell):
        assert mm_cell_to_m(cell) == float(cell + "e-3")

    @given(cell=_CELL)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_decimal_reference_bit_for_bit(self, cell):
        assert _bits(mm_cell_to_m(cell)) == _bits(decimal_mm_cell_to_m(cell))

    @pytest.mark.parametrize("cell", TRAP_CELLS.values(), ids=TRAP_CELLS.keys())
    def test_a_trap_cell_equals_the_decimal_reference(self, cell):
        assert _bits(mm_cell_to_m(cell)) == _bits(decimal_mm_cell_to_m(cell))

    @given(cell=st.text(alphabet="0123456789+-._eE infatyINFATY\t", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_refuses_exactly_what_float_refuses(self, cell):
        try:
            float(cell)
        except ValueError:
            with pytest.raises(ValueError) as excinfo:
                mm_cell_to_m(cell)
            assert str(excinfo.value) == f"not a number: {cell!r}"
        else:
            mm_cell_to_m(cell)

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("inf", "channel displacement contains non-finite values"),
            ("nan", "channel displacement contains non-finite values"),
            ("1e1000005", "channel displacement contains non-finite values"),
            ("12mm", "line 2: not a number: '12mm'"),
            # Decimal accepted these three; float() refuses them.
            ("NaN123", "line 2: not a number: 'NaN123'"),
            ("1__0", "line 2: not a number: '1__0'"),
            ("inf_", "line 2: not a number: 'inf_'"),
            # Past Decimal's exponent range, read as float() reads it: inf.
            ("1e99999999999999999999", "channel displacement contains non-finite values"),
        ],
    )
    def test_a_cell_that_is_no_finite_length_is_named(self, cell, message):
        with pytest.raises(DataError) as excinfo:
            parse_trial(f"{TRIAL_HEADER}\n0,0,{cell},-8\n", "cells", ANGLE)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "cell, meters", [("1e-99999999999999999999", 0.0), ("-1e-99999999999999999999", -0.0)]
    )
    def test_an_exponent_below_decimals_range_is_a_signed_zero(self, cell, meters):
        record = parse_trial(f"{TRIAL_HEADER}\n0,0,{cell},-8\n", "cells", ANGLE)
        assert _bits(record.displacement[0]) == _bits(meters)


def make_record(pressures, forces=None, times=None):
    n = len(pressures)
    return TrialRecord(
        scenario="synthetic",
        surface_angle=ANGLE,
        time=np.asarray(times if times is not None else np.arange(n, dtype=float)),
        force=np.asarray(forces if forces is not None else np.zeros(n)),
        displacement=np.zeros(n),
        pressure=np.asarray(pressures, dtype=float),
    )


class TestDetectAttachment:
    def test_ramp_crossing_at_sample_seven(self):
        pressures = [-8, -14, -20, -26, -32, -38, -44, -52, -58, -60]
        record = make_record(pressures)
        index = detect_attachment(record, threshold=-50.0)
        assert type(index) is int and index == 7
        assert record.pressure[index] == -52.0

    def test_self_jamming_plateau_never_attaches(self):
        assert detect_attachment(make_record([-8.0] * 6)) is None

    def test_single_attached_sample(self):
        assert detect_attachment(make_record([-60.0])) == 0

    # No finite sample reaches -inf, so it would report every trial as unattached.
    def test_threshold_must_be_negative(self):
        for threshold in (0.0, -math.inf, math.nan, math.inf):
            message = f"threshold must be finite and negative \\(vacuum\\), got {threshold}$"
            with pytest.raises(ValueError, match=message):
                detect_attachment(make_record([-60.0]), threshold=threshold)

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
        index_high = detect_attachment(record, high)
        index_low = detect_attachment(record, low)
        if index_low is not None:
            assert index_high is not None
            assert index_high <= index_low


class TestAdaptationForce:
    def test_peak_at_attachment(self):
        rec = make_record([-8, -8, -8, -55], forces=[0.0, 0.3, 0.48, 0.4])
        assert adaptation_force(rec, detect_attachment(rec)) == 0.48

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
        with pytest.raises(ValueError, match="event index 5 outside record of 1 samples"):
            adaptation_force(rec, 5)

    def test_invariant_to_post_attachment_samples(self):
        base = [-8, -8, -55]
        forces = [0.1, 0.5, 0.45]
        rec_short = make_record(base, forces=forces)
        rec_long = make_record(base + [-60, -60], forces=forces + [2.0, 3.0])
        index_short = detect_attachment(rec_short)
        index_long = detect_attachment(rec_long)
        assert index_short == index_long
        assert adaptation_force(rec_short, index_short) == adaptation_force(rec_long, index_long)


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
        with pytest.raises(DataError) as excinfo:
            read_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}: line 2: bad angle 'steep'"

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_angle_cell_names_the_line(self, tmp_path, cell):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"file,scenario,angle_deg\nf.csv,s,{cell}\n")
        with pytest.raises(DataError) as excinfo:
            read_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}: line 2: bad angle {cell!r}"

    # Let through, an empty scenario would fall back to each file's stem, one
    # scenario per file, and an empty file cell would name the directory.
    @pytest.mark.parametrize("row, name", [("a.csv,,15", "scenario"), (",s,15", "file")])
    def test_empty_cell_names_the_line(self, tmp_path, row, name):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"file,scenario,angle_deg\nb.csv,s,15\n{row}\n")
        with pytest.raises(DataError) as excinfo:
            read_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}: line 3: empty {name} cell"


# The three headed CSV formats: a reader taking a path and returning a
# sized result, the header, and two valid data rows.
CSV_FORMATS = {
    "trial": (
        lambda path: load_trial(path, "s", ANGLE).time,
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
        with pytest.raises(DataError) as excinfo:
            self.read(fmt, tmp_path, ["# comments only", ""])
        assert str(excinfo.value) == f"{tmp_path / f'{fmt}.csv'}: missing header line"

    def test_wrong_header(self, fmt, tmp_path):
        _, header, rows = CSV_FORMATS[fmt]
        with pytest.raises(DataError) as excinfo:
            self.read(fmt, tmp_path, ["# export", header.upper(), *rows])
        message = f"line 2: expected header {header!r}, got {header.upper()!r}"
        assert str(excinfo.value) == f"{tmp_path / f'{fmt}.csv'}: {message}"

    def test_wrong_field_count_names_the_line(self, fmt, tmp_path):
        _, header, rows = CSV_FORMATS[fmt]
        n_fields = header.count(",") + 1
        lines = [header, rows[0], "", rows[1] + ",extra"]
        with pytest.raises(DataError) as excinfo:
            self.read(fmt, tmp_path, lines)
        message = f"line 4: expected {n_fields} fields, got {n_fields + 1}"
        # A data file read from disk is named before the line.
        assert str(excinfo.value) == f"{tmp_path / f'{fmt}.csv'}: {message}"

    def test_comments_and_blank_lines_skipped(self, fmt, tmp_path):
        _, header, rows = CSV_FORMATS[fmt]
        lines = ["# export", "", header, "# mid comment", rows[0], "   ", rows[1], ""]
        assert len(self.read(fmt, tmp_path, lines)) == 2


# One fixture of each data format, and its reader taking a path.
FIXTURE_READERS = {
    "trial": (
        "trials/granular_20mm/angle15_rep1.csv",
        lambda path: load_trial(path, "20mm Granular", math.radians(15.0)),
    ),
    "manifest": ("trials/manifest.csv", read_manifest),
    "bending": ("bending/granular_20mm.csv", read_bending_samples),
}


@pytest.mark.parametrize("fmt", sorted(FIXTURE_READERS))
def test_a_damaged_file_reads_or_is_named(fmt, fixtures_dir, tmp_path):
    """1-4 random byte edits (insert, delete, replace) to a fixture, 200 times over."""
    name, read = FIXTURE_READERS[fmt]
    original = (fixtures_dir / name).read_bytes()
    path = tmp_path / "damaged.csv"
    rng = random.Random(f"damaged {fmt}")
    for _ in range(200):
        data = bytearray(original)
        for _ in range(rng.randint(1, 4)):
            at, byte = rng.randrange(len(data)), rng.randrange(256)
            edit = rng.choice(("insert", "delete", "replace"))
            if edit == "insert":
                data.insert(at, byte)
            elif edit == "delete":
                del data[at]
            else:
                data[at] = byte
        path.write_bytes(data)
        try:
            read(path)
        except Exception as exc:  # any error at all must name the file
            assert str(exc).startswith(f"{path}: "), (bytes(data), exc)
