#!/usr/bin/env python3
"""Regenerate the reference datasets under fixtures/.

The files encode the measured behavior of the reference cup configurations
(adaptation trials over surface angles, and bending stiffness sweeps) in
the exact file formats the CLI consumes. Generation is fully deterministic;
run from the repository root:

    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

TRIAL_HEADER = "time_s,force_N,displacement_mm,pressure_kPa"
BENDING_HEADER = "deflection_mm,force_N"
MANIFEST_HEADER = "file,scenario,angle_deg"

# Bending stiffness lines: force = slope * deflection, sampled at 1..5 mm;
# slope in N/m. The self-jam sweep was taken at -8 kPa, the others at -60.
BENDING = {
    "granular_20mm": Decimal("204"),
    "granular_10mm": Decimal("548"),
    "granular_5mm": Decimal("582"),
    "ecoflex_0010_20mm": Decimal("102"),
    "dragonskin_10_20mm": Decimal("328"),
    "granular_20mm_selfjam": Decimal("24"),
}

# Adaptation scenarios: (directory slug, scenario label,
#   [(angle_deg, peak_force_N or None when the cup never attached)]).
# The None angles document failed attachments explicitly.
SCENARIOS = [
    (
        "granular_20mm",
        "20mm Granular",
        [
            ("15", Decimal("0.40")),
            ("30", Decimal("0.48")),
            ("45", Decimal("0.46")),
            ("60", Decimal("0.42")),
            ("75", Decimal("0.37")),
            ("85", Decimal("0.33")),
            ("90", None),
        ],
    ),
    (
        "granular_10mm",
        "10mm Granular",
        [
            ("15", Decimal("0.52")),
            ("30", Decimal("0.61")),
            ("45", Decimal("0.69")),
            ("60", Decimal("0.60")),
            ("75", Decimal("0.50")),
            ("80", Decimal("0.43")),
            ("90", None),
        ],
    ),
    (
        "granular_5mm",
        "5mm Granular",
        [
            ("15", Decimal("0.51")),
            ("30", Decimal("0.89")),
            ("45", Decimal("1.31")),
            ("55", Decimal("1.17")),
            ("60", None),
            ("75", None),
        ],
    ),
    (
        "ecoflex_0010",
        "Ecoflex 00-10",
        [
            ("15", Decimal("0.51")),
            ("30", Decimal("0.83")),
            ("45", Decimal("1.15")),
            ("60", Decimal("1.12")),
            ("70", Decimal("1.09")),
            ("75", None),
        ],
    ),
    (
        "dragonskin_10",
        "Dragonskin 10",
        [
            ("15", Decimal("2.40")),
            ("30", Decimal("3.80")),
            ("45", Decimal("4.96")),
            ("60", None),
            ("75", None),
        ],
    ),
    (
        "ecoflex_pad",
        "Ecoflex 00-10 suction pad",
        [
            ("15", Decimal("0.36")),
            ("30", Decimal("0.73")),
            ("45", Decimal("0.69")),
            ("60", None),
            ("75", None),
        ],
    ),
]

# Push-phase force profiles as fractions of the peak; two repetitions with
# different textures but the same peak, so the per-angle mean stays exact.
RAMP_PROFILES = {
    1: ["0", "0.15", "0.3", "0.5", "0.68", "0.84", "0.95", "1"],
    2: ["0", "0.1", "0.28", "0.45", "0.66", "0.82", "0.97", "1"],
}
# Interior-extremum profile: the stalk wrinkles and the force dips before
# the pad finally seals. Used for the steep 5mm-stalk angles.
WRINKLE_PROFILES = {
    1: ["0", "0.2", "0.55", "0.85", "1", "0.9", "0.8", "0.85"],
    2: ["0", "0.25", "0.6", "0.9", "1", "0.88", "0.78", "0.84"],
}

# Self-jamming pressure plateau with deterministic sensor texture (kPa).
SELFJAM = {
    1: ["-8.1", "-7.9", "-8.3", "-8", "-8.2", "-7.8", "-8.1", "-8"],
    2: ["-8", "-8.2", "-7.9", "-8.1", "-7.8", "-8.3", "-8", "-8.1"],
}


def write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bending_csv(slope: Decimal) -> list[str]:
    lines = [BENDING_HEADER]
    for mm in range(1, 6):
        force = slope * Decimal(mm) / Decimal(1000)
        lines.append(f"{mm},{force.normalize()}")
    return lines


def adaptation_trial(peak: Decimal | None, rep: int, wrinkle: bool) -> list[str]:
    profile = (WRINKLE_PROFILES if wrinkle else RAMP_PROFILES)[rep]
    jitter = SELFJAM[rep]
    lines = [TRIAL_HEADER]
    rows: list[tuple[Decimal, Decimal, Decimal]] = []
    scale = peak if peak is not None else Decimal("1.5")
    for i, frac in enumerate(profile):
        force = (scale * Decimal(frac)).normalize()
        rows.append((force, Decimal(jitter[i]), Decimal("0")))
    if peak is not None:
        # Seal: pressure drops to the attached plateau; the bench then reads
        # the surface reaction, so the recorded force falls away.
        tail = [
            ((scale * Decimal("0.9")).normalize(), Decimal("-55")),
            ((scale * Decimal("0.5")).normalize(), Decimal("-60")),
            ((scale * Decimal("0.2")).normalize(), Decimal("-60")),
        ]
    else:
        # Never seals: the cup keeps sliding while the push force climbs.
        tail = [
            ((scale * Decimal(frac)).normalize(), Decimal(jitter[(4 + i) % 8]))
            for i, frac in enumerate(["1.05", "1.1", "1.15"])
        ]
    for force, pressure in tail:
        rows.append((force, pressure, Decimal("0")))
    for i, (force, pressure, _) in enumerate(rows):
        t = Decimal(i) / Decimal(2)
        lines.append(f"{t.normalize()},{force},{t.normalize()},{pressure}")
    return lines


def main() -> None:
    for name, slope in BENDING.items():
        write(FIXTURES / "bending" / f"{name}.csv", bending_csv(slope))

    manifest = [MANIFEST_HEADER]
    for slug, label, angles in SCENARIOS:
        for angle_deg, peak in angles:
            wrinkle = slug == "granular_5mm" and angle_deg in ("45", "55")
            for rep in (1, 2):
                rel = f"{slug}/angle{angle_deg}_rep{rep}.csv"
                write(
                    FIXTURES / "trials" / rel,
                    adaptation_trial(peak, rep, wrinkle),
                )
                manifest.append(f"{rel},{label},{angle_deg}")
    write(FIXTURES / "trials" / "manifest.csv", manifest)
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
