"""Ingestion of adaptation/bending test logs and per-trial measurements.

Every data file (the test bench's trial exports, their manifest and bending
sweeps) is a headed CSV read by :func:`read_rows`, ``#`` lines ignored.
Millimeters are converted to meters on parse; pressure stays in kPa
relative to ambient (vacuum is negative).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .errors import DataError

TRIAL_HEADER = "time_s,force_N,displacement_mm,pressure_kPa"
MANIFEST_HEADER = "file,scenario,angle_deg"
BENDING_HEADER = "deflection_mm,force_N"

# Pressure at or below this marks surface attachment. Sits between the
# small self-jamming plateau of the granular stalk and the fully attached
# plateau; configurable in every consumer.
DEFAULT_ATTACH_THRESHOLD_KPA = -50.0


def _channel(name: str, values) -> tuple[float, ...]:
    """One channel as a tuple of floats, from a flat list, tuple or array of numbers."""
    if not isinstance(values, str) and getattr(values, "ndim", 1) == 1:
        try:
            return tuple(map(float, values))
        except (TypeError, ValueError):
            pass
    raise DataError(f"channel {name} must be a flat sequence of numbers")


class TrialRecord(NamedTuple("TrialRecord", [
    ("scenario", str), ("surface_angle", float), ("time", "tuple[float, ...]"),
    ("force", "tuple[float, ...]"), ("displacement", "tuple[float, ...]"),
    ("pressure", "tuple[float, ...]"),
])):
    """One time series of a physical test, the unit of ingestion.

    Channels are parallel tuples of floats ordered by time; any flat
    sequence of numbers is accepted and stored as a tuple. ``surface_angle``
    is the finite angle in radians at which the trial ran, stored as a float.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # via __new__: _replace validates too

    def __new__(cls, scenario, surface_angle, time, force, displacement, pressure):
        try:
            surface_angle = float(surface_angle)
        except (TypeError, ValueError, OverflowError):  # None, text, or an int such as 10**400
            surface_angle = math.nan
        if not math.isfinite(surface_angle):
            raise DataError("surface_angle must be a finite number")
        self = super().__new__(
            cls, scenario, surface_angle, _channel("time", time), _channel("force", force),
            _channel("displacement", displacement), _channel("pressure", pressure),
        )
        n = len(self.time)
        if n < 1:
            raise DataError("a trial needs at least one sample")
        for name, channel in zip(self._fields[2:], self[2:]):  # the four channels
            if len(channel) != n:
                raise DataError(f"channel {name} has mismatched length")
            if not all(map(math.isfinite, channel)):
                raise DataError(f"channel {name} contains non-finite values")
        if not all(a < b for a, b in zip(self.time, self.time[1:])):
            raise DataError("time must be strictly increasing")
        if any(p > 0.0 for p in self.pressure):
            raise DataError(
                "positive pressure sample: trials use relative vacuum (<= 0 kPa)"
            )
        return self

    @property
    def n_samples(self) -> int:
        return len(self.time)


def read_rows(lines: Iterable[str], header: str, converters: tuple) -> list[tuple]:
    """Convert each data row of a headed CSV, cell i by ``converters[i]``.

    Blank lines and ``#`` comment lines are skipped. The first other line
    must equal ``header``, and every later line must have one cell per
    converter. Violations and a converter's ``ValueError`` raise
    :class:`DataError` naming the physical line (counted from 1); input
    without a header line raises it too.
    """
    rows = []
    header_seen = False
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != header:
                raise DataError(
                    f"line {line_number}: expected header {header!r}, got {line!r}"
                )
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != len(converters):
            raise DataError(
                f"line {line_number}: expected {len(converters)} fields, got {len(cells)}"
            )
        try:
            rows.append(tuple([convert(cell) for convert, cell in zip(converters, cells)]))
        except ValueError as exc:
            raise DataError(f"line {line_number}: {exc}") from None
    if not header_seen:
        raise DataError("missing header line")
    return rows


@contextmanager
def _data_file(path: str | Path) -> Iterator[TextIO]:
    """Open a data file; a DataError raised inside, or bytes that are not UTF-8, name its path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            yield handle
        except (DataError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: {exc}") from None


def mm_cell_to_m(cell: str) -> float:
    """Parse a millimeter cell, as float() reads it, into meters."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"not a number: {cell!r}") from None
    mantissa, e, exponent = cell.strip().replace("_", "").lower().partition("e")
    if mantissa[-1].isalpha():  # inf, infinity or nan
        return value
    whole, _, fraction = mantissa.partition(".")
    whole = whole.zfill(len(whole) + 3)  # three zeros after any sign
    # Moving the point in the text is exact, so float() rounds once; float(x) * 1e-3 rounds twice.
    return float(f"{whole[:-3]}.{whole[-3:]}{fraction}{e}{exponent}")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


def _nonempty(name: str) -> Callable[[str], str]:
    """A converter that passes a cell through unless it is blank."""
    def convert(cell: str) -> str:
        if not cell.strip():
            raise ValueError(f"empty {name} cell")
        return cell
    return convert


def _angle_cell(cell: str) -> float:
    """Degrees to radians; a cell that is not a finite number is a bad angle."""
    try:
        return _finite(math.radians(float(cell)))
    except ValueError:
        raise ValueError(f"bad angle {cell!r}") from None


# Each format's cell converters, in header order. A trial's non-finite
# samples are left to TrialRecord, which names the channel.
_TRIAL_CELLS = (float, float, mm_cell_to_m, float)
_MANIFEST_CELLS = (_nonempty("file"), _nonempty("scenario"), _angle_cell)
_BENDING_CELLS = (lambda cell: _finite(mm_cell_to_m(cell)), lambda cell: _finite(float(cell)))


def parse_trial(
    source: str | TextIO | Iterable[str], scenario: str, surface_angle: float
) -> TrialRecord:
    """Parse a trial file, run at ``surface_angle`` radians, into a :class:`TrialRecord`.

    ``source`` is file content (str), an open text stream, or an iterable
    of lines. Malformed headers or rows, named by their physical line, and
    structural problems (no samples, unordered time, positive pressure)
    raise :class:`DataError`.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    rows = read_rows(lines, TRIAL_HEADER, _TRIAL_CELLS)
    channels = zip(*rows) if rows else ((),) * len(_TRIAL_CELLS)
    return TrialRecord(scenario, surface_angle, *channels)


def load_trial(path: str | Path, scenario: str, surface_angle: float) -> TrialRecord:
    """Read a trial file from disk; its DataErrors start with the path, to name a bad file."""
    with _data_file(path) as handle:
        return parse_trial(handle, scenario, surface_angle)


def detect_attachment(
    record: TrialRecord, threshold: float = DEFAULT_ATTACH_THRESHOLD_KPA
) -> int | None:
    """Index of the first sample whose pressure is at or below ``threshold`` (kPa), if any.

    Absence (the cup never attached) is a valid result, returned as None.
    """
    if not (threshold < 0.0):
        raise ValueError(f"threshold must be negative (vacuum), got {threshold}")
    for index, pressure in enumerate(record.pressure):
        if pressure <= threshold:
            return index
    return None


def adaptation_force(record: TrialRecord, index: int) -> float:
    """Peak force applied before (and including) the attachment sample ``index``.

    The post-attachment span is excluded on purpose: once the pad grips
    the surface the bench reads the surface reaction, not the push force.
    """
    if not (0 <= index < record.n_samples):
        raise ValueError(f"event index {index} outside record of {record.n_samples} samples")
    return max(record.force[: index + 1])


class ManifestEntry(NamedTuple):
    """One row of a trial manifest: file path, scenario label, surface angle."""

    path: Path
    scenario: str
    surface_angle: float


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest CSV (header ``file,scenario,angle_deg``).

    File paths are resolved relative to the manifest's directory. An empty
    file or scenario cell, or an angle that is not a finite number, raises
    DataError naming the manifest and the line.
    """
    path = Path(path)
    with _data_file(path) as handle:
        rows = read_rows(handle, MANIFEST_HEADER, _MANIFEST_CELLS)
    return [ManifestEntry(path.parent / file, scenario, angle) for file, scenario, angle in rows]


def load_manifest_trials(path: str | Path) -> list[TrialRecord]:
    """Load every trial listed in a manifest."""
    return [
        load_trial(entry.path, entry.scenario, entry.surface_angle)
        for entry in read_manifest(path)
    ]


def read_bending_samples(source: str | Path | TextIO) -> list[tuple[float, float]]:
    """Read a bending-test CSV (header ``deflection_mm,force_N``) into SI pairs.

    Accepts a path, whose errors then start with it, or an open text stream;
    ``#`` lines are comments, and a non-finite cell raises DataError.
    """
    if isinstance(source, (str, Path)):
        with _data_file(source) as handle:
            return read_bending_samples(handle)
    return read_rows(source, BENDING_HEADER, _BENDING_CELLS)
