"""Ingestion of adaptation/bending test logs and per-trial measurements.

Trial files are the comma-separated exports of the test bench: a fixed
header ``time_s,force_N,displacement_mm,pressure_kPa``, one sample per
line, ``#`` lines ignored. Displacement is converted to meters on parse;
pressure stays in kPa relative to ambient (vacuum is negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import TrialParseError, TrialValidationError
from .units import m_to_mm_text, mm_cell_to_m

TRIAL_HEADER = "time_s,force_N,displacement_mm,pressure_kPa"
MANIFEST_HEADER = "file,scenario,angle_deg"

# Pressure at or below this marks surface attachment. Sits between the
# small self-jamming plateau of the granular stalk and the fully attached
# plateau; configurable in every consumer.
DEFAULT_ATTACH_THRESHOLD_KPA = -50.0


@dataclass(frozen=True)
class TrialRecord:
    """One time series of a physical test, the unit of ingestion.

    Channels are parallel arrays ordered by time. ``surface_angle`` is in
    radians and optional (bending trials have none).
    """

    scenario: str
    surface_angle: float | None
    time: np.ndarray
    force: np.ndarray
    displacement: np.ndarray
    pressure: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("time", "force", "displacement", "pressure"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            arrays[name] = arr
        n = arrays["time"].shape[0]
        if n < 1:
            raise TrialValidationError("a trial needs at least one sample")
        for name, arr in arrays.items():
            if arr.ndim != 1 or arr.shape[0] != n:
                raise TrialValidationError(f"channel {name} has mismatched length")
            if not np.all(np.isfinite(arr)):
                raise TrialValidationError(f"channel {name} contains non-finite values")
        if n > 1 and not np.all(np.diff(arrays["time"]) > 0.0):
            raise TrialValidationError("time must be strictly increasing")
        if np.any(arrays["pressure"] > 0.0):
            raise TrialValidationError(
                "positive pressure sample: trials use relative vacuum (<= 0 kPa)"
            )
        if self.surface_angle is not None and not math.isfinite(self.surface_angle):
            raise TrialValidationError("surface_angle must be finite")

    @property
    def n_samples(self) -> int:
        return self.time.shape[0]


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
        time=np.asarray(time),
        force=np.asarray(force),
        displacement=np.asarray(displacement),
        pressure=np.asarray(pressure),
    )


def load_trial(
    path: str | Path, scenario: str | None = None, surface_angle: float | None = None
) -> TrialRecord:
    """Read a trial file from disk; the scenario defaults to the file stem."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trial(handle, scenario or path.stem, surface_angle)


def serialize_trial(record: TrialRecord) -> str:
    """Render a record back to the trial file format.

    Numeric content survives a parse/serialize/parse cycle bit-exactly:
    seconds, newtons and kilopascals are written with the shortest
    round-trip representation, and displacement is rescaled to millimeters
    by exact decimal shifting.
    """
    out = [TRIAL_HEADER]
    for t, f, d, p in zip(record.time, record.force, record.displacement, record.pressure):
        out.append(
            f"{float(t)!r},{float(f)!r},{m_to_mm_text(float(d))},{float(p)!r}"
        )
    return "\n".join(out) + "\n"


def detect_attachment(
    record: TrialRecord, threshold: float = DEFAULT_ATTACH_THRESHOLD_KPA
) -> AttachmentEvent | None:
    """First sample whose pressure is at or below ``threshold`` (kPa), if any.

    Absence (the cup never attached) is a valid result, returned as None.
    """
    if not (threshold < 0.0):
        raise ValueError(f"threshold must be negative (vacuum), got {threshold}")
    hits = np.nonzero(record.pressure <= threshold)[0]
    if hits.size == 0:
        return None
    index = int(hits[0])
    return AttachmentEvent(
        sample_index=index,
        time=float(record.time[index]),
        pressure=float(record.pressure[index]),
    )


def adaptation_force(record: TrialRecord, event: AttachmentEvent) -> float:
    """Peak force applied before (and including) the attachment sample.

    The post-attachment span is excluded on purpose: once the pad grips
    the surface the bench reads the surface reaction, not the push force.
    """
    if not (0 <= event.sample_index < record.n_samples):
        raise ValueError(
            f"event index {event.sample_index} outside record of {record.n_samples} samples"
        )
    return float(np.max(record.force[: event.sample_index + 1]))


def stiffness_at_deflection(record: TrialRecord, deflection: float) -> float:
    """Force at a requested tip deflection [m], interpolated between samples.

    Picks the first pair of samples bracketing the deflection and
    interpolates linearly; an exact sample hit returns that sample's force.
    Raises ValueError when the recorded displacement never reaches the
    requested deflection.
    """
    d = record.displacement
    f = record.force
    exact = np.nonzero(d == deflection)[0]
    if exact.size:
        return float(f[exact[0]])
    below = d < deflection
    above = d > deflection
    crossing = np.nonzero(below[:-1] & above[1:] | above[:-1] & below[1:])[0]
    if crossing.size == 0:
        raise ValueError(
            f"deflection {deflection:g} m outside the recorded range "
            f"[{d.min():g}, {d.max():g}] m"
        )
    i = int(crossing[0])
    frac = (deflection - d[i]) / (d[i + 1] - d[i])
    return float(f[i] + frac * (f[i + 1] - f[i]))


@dataclass(frozen=True)
class ManifestEntry:
    """One row of a trial manifest: file path, scenario label, surface angle."""

    path: Path
    scenario: str
    surface_angle: float


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest CSV (header ``file,scenario,angle_deg``).

    File paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, cells in iter_csv_rows(handle, MANIFEST_HEADER):
            try:
                angle = math.radians(float(cells[2]))
            except ValueError:
                raise TrialParseError(
                    f"line {line_number}: bad angle {cells[2]!r}", line_number=line_number
                ) from None
            entries.append(ManifestEntry(base / cells[0], cells[1], angle))
    return entries


def load_manifest_trials(path: str | Path) -> list[TrialRecord]:
    """Load every trial listed in a manifest."""
    return [
        load_trial(entry.path, entry.scenario, entry.surface_angle)
        for entry in read_manifest(path)
    ]
