"""Shared pieces of the benchmark: paths, block results, statistics, child processes."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"


@dataclass
class Block:
    """Outcome of one block, the unit a workload repeats until time is up.

    ``latencies_ms`` holds one entry per latency-measured operation,
    ``items`` counts the work units behind the throughput metric and
    ``busy_s`` is the time spent inside the program's calls (checks and
    input generation excluded). ``attempted`` and ``failed`` count
    operations. An operation that ends in an error is failed; one whose
    output fails a check is also listed in ``problems``, which makes the
    run incorrect. In a traced run,
    ``span_end`` is the number of spans recorded when the block finished.
    """

    latencies_ms: list[float] = field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    span_end: int = 0


def run_blocks(run_block, state, seconds: float, tracer=None) -> list[Block]:
    """Closed loop, one client: repeat blocks until ``seconds`` have passed.

    A block that has started always completes, and at least one runs, so
    every run covers the workload's whole mix a whole number of times.
    """
    blocks: list[Block] = []
    start = time.perf_counter()
    while not blocks or time.perf_counter() - start < seconds:
        block = run_block(state, tracer)
        if tracer is not None:
            block.span_end = len(tracer.spans)
        blocks.append(block)
    return blocks


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def run_child(argv: list[str]) -> tuple[float, int, str, str]:
    """Run a child interpreter from the checkout root with ``src`` first on its path.

    Returns (wall seconds, exit status, stdout, stderr).
    """
    env = dict(os.environ)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *inherited])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr
