"""Ingestion of adaptation/bending test logs and per-trial measurements.

Trial files are the comma-separated exports of the test bench: a fixed
header ``time_s,force_N,displacement_mm,pressure_kPa``, one sample per
line, ``#`` lines ignored. Displacement is converted to meters on parse;
pressure stays in kPa relative to ambient (vacuum is negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import TrialParseError, TrialValidationError

TRIAL_HEADER = "time_s,force_N,displacement_mm,pressure_kPa"
MANIFEST_HEADER = "file,scenario,angle_deg"

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
    raise TrialValidationError(f"channel {name} must be a flat sequence of numbers")


@dataclass(frozen=True)
class TrialRecord:
    """One time series of a physical test, the unit of ingestion.

    Channels are parallel tuples of floats ordered by time; any flat
    sequence of numbers is accepted and stored as a tuple. ``surface_angle``
    is in radians and optional (bending trials have none).
    """

    scenario: str
    surface_angle: float | None
    time: tuple[float, ...]
    force: tuple[float, ...]
    displacement: tuple[float, ...]
    pressure: tuple[float, ...]

    def __post_init__(self):
        channels = {}
        for name in ("time", "force", "displacement", "pressure"):
            channel = _channel(name, getattr(self, name))
            object.__setattr__(self, name, channel)
            channels[name] = channel
        n = len(self.time)
        if n < 1:
            raise TrialValidationError("a trial needs at least one sample")
        for name, channel in channels.items():
            if len(channel) != n:
                raise TrialValidationError(f"channel {name} has mismatched length")
            if not all(map(math.isfinite, channel)):
                raise TrialValidationError(f"channel {name} contains non-finite values")
        if not all(a < b for a, b in zip(self.time, self.time[1:])):
            raise TrialValidationError("time must be strictly increasing")
        if any(p > 0.0 for p in self.pressure):
            raise TrialValidationError(
                "positive pressure sample: trials use relative vacuum (<= 0 kPa)"
            )
        if self.surface_angle is not None and not math.isfinite(self.surface_angle):
            raise TrialValidationError("surface_angle must be finite")

    @property
    def n_samples(self) -> int:
        return len(self.time)


@dataclass(frozen=True)
class AttachmentEvent:
    """First sample where the pressure reached the attachment threshold."""

    sample_index: int
    time: float
    pressure: float


def iter_csv_rows(lines: Iterable[str], header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, cells)`` for each data row of a headed CSV.

    Blank lines and ``#`` comment lines are skipped. The first other line
    must equal ``header``, and every later line must have as many
    comma-separated cells as the header. Violations, and input without a
    header line, raise :class:`TrialParseError` naming the physical line
    (counted from 1). Converting the cells is left to the caller.
    """
    n_fields = header.count(",") + 1
    header_seen = False
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != header:
                raise TrialParseError(
                    f"line {line_number}: expected header {header!r}, got {line!r}",
                    line_number=line_number,
                )
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != n_fields:
            raise TrialParseError(
                f"line {line_number}: expected {n_fields} fields, got {len(cells)}",
                line_number=line_number,
            )
        yield line_number, cells
    if not header_seen:
        raise TrialParseError("missing header line", line_number=None)


# Millimeters become meters by shifting the decimal exponent, which is exact,
# so float() rounds the cell once: float(x) * 1e-3 rounds twice and misses
# the nearest double for about a quarter of cells. The context is unbounded
# because the default one would round cells past 28 digits before float()
# and raise decimal.Overflow past an exponent of 999999.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def mm_cell_to_m(cell: str) -> float:
    """Parse a millimeter text cell into meters with a single rounding."""
    try:
        return float(Decimal(cell).scaleb(-3, _EXACT))
    except InvalidOperation:
        raise ValueError(f"not a number: {cell!r}") from None


def parse_trial(
    source: str | TextIO | Iterable[str],
    scenario: str,
    surface_angle: float | None = None,
) -> TrialRecord:
    """Parse a trial file into a :class:`TrialRecord`.

    ``source`` is file content (str), an open text stream, or an iterable
    of lines. Malformed headers or rows raise :class:`TrialParseError`
    naming the physical line; structural problems (no samples, unordered
    time, positive pressure) raise :class:`TrialValidationError`.
    """
    lines = source.splitlines() if isinstance(source, str) else source

    time: list[float] = []
    force: list[float] = []
    displacement: list[float] = []
    pressure: list[float] = []
    for line_number, cells in iter_csv_rows(lines, TRIAL_HEADER):
        try:
            time.append(float(cells[0]))
            force.append(float(cells[1]))
            displacement.append(mm_cell_to_m(cells[2]))
            pressure.append(float(cells[3]))
        except ValueError as exc:
            raise TrialParseError(
                f"line {line_number}: {exc}", line_number=line_number
            ) from None

    return TrialRecord(
        scenario=scenario,
        surface_angle=surface_angle,
        time=time,
        force=force,
        displacement=displacement,
        pressure=pressure,
    )


def load_trial(
    path: str | Path, scenario: str | None = None, surface_angle: float | None = None
) -> TrialRecord:
    """Read a trial file from disk; the scenario defaults to the file stem.

    Its parse and validation errors start with the path, to name a bad file among many.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_trial(handle, scenario or path.stem, surface_angle)
        except TrialParseError as exc:
            raise TrialParseError(f"{path}: {exc}", line_number=exc.line_number) from None
        except TrialValidationError as exc:
            raise TrialValidationError(f"{path}: {exc}") from None


def detect_attachment(
    record: TrialRecord, threshold: float = DEFAULT_ATTACH_THRESHOLD_KPA
) -> AttachmentEvent | None:
    """First sample whose pressure is at or below ``threshold`` (kPa), if any.

    Absence (the cup never attached) is a valid result, returned as None.
    """
    if not (threshold < 0.0):
        raise ValueError(f"threshold must be negative (vacuum), got {threshold}")
    for index, pressure in enumerate(record.pressure):
        if pressure <= threshold:
            return AttachmentEvent(index, record.time[index], pressure)
    return None


def adaptation_force(record: TrialRecord, event: AttachmentEvent) -> float:
    """Peak force applied before (and including) the attachment sample.

    The post-attachment span is excluded on purpose: once the pad grips
    the surface the bench reads the surface reaction, not the push force.
    """
    if not (0 <= event.sample_index < record.n_samples):
        raise ValueError(
            f"event index {event.sample_index} outside record of {record.n_samples} samples"
        )
    return max(record.force[: event.sample_index + 1])


@dataclass(frozen=True)
class ManifestEntry:
    """One row of a trial manifest: file path, scenario label, surface angle."""

    path: Path
    scenario: str
    surface_angle: float


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest CSV (header ``file,scenario,angle_deg``).

    File paths are resolved relative to the manifest's directory. An empty
    file or scenario cell, or an angle that is not a finite number, raises
    TrialParseError naming the line.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, cells in iter_csv_rows(handle, MANIFEST_HEADER):
            for name, cell in zip(("file", "scenario"), cells):
                if not cell.strip():
                    raise TrialParseError(
                        f"line {line_number}: empty {name} cell", line_number=line_number
                    )
            try:
                angle = math.radians(float(cells[2]))
            except ValueError:
                angle = math.nan
            if not math.isfinite(angle):
                raise TrialParseError(
                    f"line {line_number}: bad angle {cells[2]!r}", line_number=line_number
                )
            entries.append(ManifestEntry(base / cells[0], cells[1], angle))
    return entries


def load_manifest_trials(path: str | Path) -> list[TrialRecord]:
    """Load every trial listed in a manifest."""
    return [
        load_trial(entry.path, entry.scenario, entry.surface_angle)
        for entry in read_manifest(path)
    ]
