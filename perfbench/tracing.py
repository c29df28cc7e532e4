"""Span recording at stalkmech's module boundaries, installed from outside.

A span is one call of a public name: its name, start, end and the span
that was open when it began (its parent). The tracer wraps names by
rebinding module attributes, so it sees exactly the calls that go through
those attributes. ``from .alpha import x`` binds ``x`` in the importing
module as well, which is why a name is listed once per module that calls
it. Private helpers (``_rk4_tip`` and the like) are left alone on purpose:
planned refactors remove them. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from common import median


def _n_angles(args, result):
    return len(args[0])


def _outer_iterations(args, result):
    return result.outer_iterations


def _n_samples(args, result):
    return result.n_samples


# (module, attribute, span name, extractor of a number to keep with the span)
TARGETS = [
    ("stalkmech.cli", "emit", "cli.emit", None),
    ("stalkmech.cli", "generate_alpha_table", "alpha.generate_alpha_table", _n_angles),
    ("stalkmech.cli", "solve_alpha_for_angle", "alpha.solve_alpha_for_angle", _outer_iterations),
    ("stalkmech.cli", "solve_shape_shooting", "elastica.solve_shape_shooting", None),
    ("stalkmech.cli", "centerline", "elastica.centerline", None),
    ("stalkmech.cli", "read_bending_samples", "force.read_bending_samples", None),
    ("stalkmech.cli", "calibrate_ei", "force.calibrate_ei", None),
    ("stalkmech.cli", "predict_force_curve", "force.predict_force_curve", _n_angles),
    ("stalkmech.cli", "load_manifest_trials", "trials.load_manifest_trials", None),
    ("stalkmech.cli", "load_trial", "trials.load_trial", _n_samples),
    ("stalkmech.cli", "summarize_scenario", "analysis.summarize_scenario", None),
    ("stalkmech.cli", "compare_theory", "analysis.compare_theory", None),
    ("stalkmech.alpha", "generate_alpha_table", "alpha.generate_alpha_table", _n_angles),
    ("stalkmech.alpha", "solve_alpha_for_angle", "alpha.solve_alpha_for_angle", _outer_iterations),
    ("stalkmech.alpha", "solve_shape_shooting", "elastica.solve_shape_shooting", None),
    ("stalkmech.force", "solve_alpha_for_angle", "alpha.solve_alpha_for_angle", _outer_iterations),
    ("stalkmech.elastica", "integrate_elastica_ivp", "elastica.integrate_elastica_ivp", None),
    ("stalkmech.elastica", "solve_shape_oracle", "elastica.solve_shape_oracle", None),
    ("stalkmech.trials", "load_manifest_trials", "trials.load_manifest_trials", None),
    ("stalkmech.trials", "read_manifest", "trials.read_manifest", None),
    ("stalkmech.trials", "load_trial", "trials.load_trial", _n_samples),
    ("stalkmech.trials", "parse_trial", "trials.parse_trial", _n_samples),
    ("stalkmech.analysis", "summarize_scenario", "analysis.summarize_scenario", None),
    ("stalkmech.analysis", "detect_attachment", "analysis.detect_attachment", None),
    ("stalkmech.analysis", "adaptation_force", "analysis.adaptation_force", None),
]

# Every command handler of the CLI is one span, ``cli.handler``. The parser
# looks the handlers up when it is built, so rebinding them takes effect.
HANDLER_PREFIX = "cmd_"

# Span fields, in the order they are stored.
NAME, PARENT, START, END, ERROR, INFO = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, False, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, error: bool) -> None:
        self.spans[index][END] = time.perf_counter()
        self.spans[index][ERROR] = error
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        index = self._open(name)
        try:
            yield
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, True)
                raise
            self._close(index, False)
            if info is not None:
                self.spans[index][INFO] = info(args, result)
            return result

        return traced

    def install(self, handlers: bool = True) -> None:
        """Rebind the target names; names the package no longer has are listed in ``missing``."""
        todo = list(TARGETS)
        if handlers:
            cli = importlib.import_module("stalkmech.cli")
            todo += [
                ("stalkmech.cli", attr, "cli.handler", None)
                for attr in sorted(vars(cli))
                if attr.startswith(HANDLER_PREFIX)
            ]
        for module_name, attr, name, info in todo:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded in another process, keeping their parent links."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            self.spans.append(span)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def load_spans(path: Path) -> list[list]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _duration(span) -> float:
    return span[END] - span[START]


def _per(total, count):
    return None if not count else total / count


def layer_metrics(spans: list[list], blocks: int) -> dict:
    """Per-layer metrics from spans; None where no span of that layer exists.

    Counts are per block (a block is the unit the workload repeats).
    Times are in ms.
    """
    by_name = defaultdict(list)
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        by_name[span[NAME]].append(index)
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += _duration(span)

    def durations_ms(name):
        return [1e3 * _duration(spans[i]) for i in by_name[name]]

    def median_ms(name):
        durations = durations_ms(name)
        return median(durations) if durations else None

    alpha = by_name["alpha.solve_alpha_for_angle"]
    alpha_set = set(alpha)
    shoots = by_name["elastica.solve_shape_shooting"]
    shoots_under_alpha = defaultdict(int)
    for i in shoots:
        if spans[i][PARENT] in alpha_set:
            shoots_under_alpha[spans[i][PARENT]] += 1
    # The wrapper's count of shooting solves must equal the solver's own
    # count on rows that succeed (alpha > 0 rows; the zero-angle shortcut
    # reports 0 after one solve).
    mismatches = sum(
        1
        for i in alpha
        if not spans[i][ERROR]
        and spans[i][INFO]
        and shoots_under_alpha[i] != spans[i][INFO]
    )

    loads = by_name["trials.load_trial"]
    rows = sum(spans[i][INFO] or 0 for i in loads if not spans[i][ERROR])
    parsed = by_name["trials.parse_trial"]
    parse_s = sum(_duration(spans[i]) for i in parsed)
    parsed_rows = sum(spans[i][INFO] or 0 for i in parsed if not spans[i][ERROR])
    predict = by_name["force.predict_force_curve"]
    predict_angles = sum(spans[i][INFO] or 0 for i in predict)

    def count(n, present=True):
        return n / blocks if present else None

    return {
        "alpha.angles": count(len(alpha), alpha),
        "alpha.failed": count(sum(spans[i][ERROR] for i in alpha), alpha),
        "alpha.self_ms_per_angle": _per(
            sum(1e3 * (_duration(spans[i]) - child_time[i]) for i in alpha), len(alpha)
        ),
        "alpha.shooting_solves_per_angle": _per(sum(shoots_under_alpha.values()), len(alpha)),
        "alpha.solve_count_mismatches": count(mismatches, alpha),
        "elastica.shoot_calls": count(len(shoots), shoots),
        "elastica.shoot_ms_p50": median_ms("elastica.solve_shape_shooting"),
        "elastica.rk4_ms": median_ms("elastica.integrate_elastica_ivp"),
        "elastica.oracle_ms_p50": median_ms("elastica.solve_shape_oracle"),
        "force.read_bending_ms": median_ms("force.read_bending_samples"),
        "force.calibrate_ms": median_ms("force.calibrate_ei"),
        "force.predict_ms_per_angle": _per(
            sum(durations_ms("force.predict_force_curve")), predict_angles
        ),
        "trials.files": count(len(loads), loads),
        "trials.rows": count(rows, loads),
        "trials.load_ms_p50": median_ms("trials.load_trial"),
        "trials.parse_rows_per_s": _per(parsed_rows, parse_s),
        "trials.manifest_ms": median_ms("trials.read_manifest"),
        "analysis.summarize_ms_per_scenario": median_ms("analysis.summarize_scenario"),
        "analysis.compare_ms": median_ms("analysis.compare_theory"),
    }
