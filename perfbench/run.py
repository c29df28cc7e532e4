"""The stalkmech benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/stalkmech``.
One run generates the workload's inputs from the seed, measures for
``--seconds`` seconds, checks every output and prints a report followed by
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. The exit status is 1 when an output check fails,
2 when the checkout has no program to measure. ``--workload all`` runs
every workload of BENCHMARK.json in turn and fails if any of them does.

Tracing: a traced run measures the workload traced for the first half of
its time and untraced for the second; the difference is reported as the
tracing overhead. Counts come from the first traced block, which is the
same on every run of one seed, so they repeat exactly. Layers the
workload does not reach are measured once by a probe (one traced pass of
the CLI script, and the cross-check phase), so every per-layer metric is
a measured number on every workload.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
from importlib.metadata import version

from common import ROOT, SRC, WORK, median, percentile, run_blocks, run_child

WORKLOADS = ("cli-sessions", "load-sweep")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Per-layer counts taken from the first traced block only.
COUNTS = (
    "alpha.angles",
    "alpha.failed",
    "alpha.shooting_solves_per_angle",
    "elastica.shoot_calls",
    "trials.files",
    "trials.rows",
)
IMPORT_MODULES = {
    "import.stalkmech_s": "stalkmech",
    "import.numpy_s": "numpy",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_linalg_s": "scipy.linalg",
}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import stalkmech``."""
    walls = []
    for attempt in range(SETUP_REPEATS + 1):
        wall, status, _, err = run_child(["-c", "import stalkmech"])
        if status != 0:
            raise RuntimeError(f"import stalkmech failed: {err.strip()}")
        if attempt:  # the first one fills the bytecode cache
            walls.append(wall)
    return median(walls)


def import_breakdown() -> dict:
    """Cumulative import times in seconds from ``python -X importtime``.

    ``import.scipy_s`` sums every scipy module whose importer was not
    itself a scipy module, so overlapping subpackages count once.
    """
    samples: dict[str, list] = {}
    for _ in range(IMPORTTIME_REPEATS):
        _, status, _, err = run_child(["-X", "importtime", "-c", "import stalkmech"])
        if status != 0:
            raise RuntimeError(f"import stalkmech failed: {err.strip()}")
        entries = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:") :].split("|")
            if not cumulative.strip().isdigit():
                continue  # the column header
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), 1e-6 * int(cumulative)))
        found = {}
        for metric, module in IMPORT_MODULES.items():
            found[metric] = next((t for _, n, t in entries if n == module), 0.0)
        # Importtime prints a module after its imports, so in reverse order
        # every importer comes before the modules it imported.
        scipy = 0.0
        importers: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):
            while importers and importers[-1][0] >= depth:
                importers.pop()
            if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for _, n in importers
            ):
                scipy += cumulative
            importers.append((depth, name))
        found["import.scipy_s"] = scipy
        for metric, value in found.items():
            samples.setdefault(metric, []).append(value)
    return {metric: median(values) for metric, values in samples.items()}


def blas_threads() -> str:
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return str(get())
    return "unknown"


def environment() -> str:
    return (
        f"python {sys.version.split()[0]}, numpy {version('numpy')}, scipy {version('scipy')}, "
        f"nproc {os.cpu_count()}, blas threads {blas_threads()}"
    )


def end_to_end(blocks, tail_percentile: float) -> dict:
    latencies = [x for block in blocks for x in block.latencies_ms]
    busy = sum(block.busy_s for block in blocks)
    return {
        "latency_ms_p50": median(latencies),
        "latency_ms_tail": percentile(latencies, tail_percentile),
        "throughput_per_s": sum(block.items for block in blocks) / busy,
    }


def measure(module, state, seconds: float, traced: bool):
    """Run blocks for ``seconds``; returns (blocks, tracer or None)."""
    from tracing import Tracer

    if not traced:
        return run_blocks(module.run_block, state, seconds), None
    tracer = Tracer()
    tracer.install()
    try:
        blocks = run_blocks(module.run_block, state, seconds, tracer)
    finally:
        tracer.uninstall()
    return blocks, tracer


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import cli_sessions
    import load_sweep
    from tracing import Tracer, layer_metrics

    module = dict(zip(WORKLOADS, (cli_sessions, load_sweep)))[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if traced else "end_to_end"]
    WORK.mkdir(exist_ok=True)

    print(f"stalkmech benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(traced)}")
    print(f"environment: {environment()}")
    metrics = {}
    if not traced:
        metrics["setup_s"] = measure_setup()
    state = module.prepare(seed)
    if traced:
        # Measured first, so the bytecode cache is full before any block.
        metrics.update(import_breakdown())
        blocks, tracer = measure(module, state, seconds / 2, traced=True)
        plain, _ = measure(module, state, seconds / 2, traced=False)
    else:
        plain, tracer = [], None
        blocks, _ = measure(module, state, seconds, traced=False)
    counted = plain + blocks
    problems = [p for block in counted for p in block.problems]
    if module is load_sweep:
        if traced:
            tracer.install(handlers=False)
        problems += load_sweep.cross_check(state["stalkmech"], state["solved"])
        if traced:
            tracer.uninstall()
    if traced:
        layers = layer_metrics(tracer.spans, len(blocks))
        first = layer_metrics(tracer.spans[: blocks[0].span_end], 1)
        layers.update({key: first[key] for key in COUNTS})
        # Probe: the layers this workload does not reach, measured once.
        probe = Tracer()
        cli_state = state if module is cli_sessions else cli_sessions.prepare(seed)
        if module is not cli_sessions:
            problems += cli_sessions.run_block(cli_state, probe).problems
        if module is not load_sweep:
            import stalkmech

            loads = load_sweep.probe_loads(stalkmech)
            probe.install(handlers=False)
            problems += load_sweep.cross_check(stalkmech, loads)
            probe.uninstall()
        layers.update(cli_sessions.layer_extras(cli_state))
        filled = layer_metrics(probe.spans, 1)
        layers = {k: filled.get(k) if v is None else v for k, v in layers.items()}
        metrics.update(layers)
        metrics["trace.spans"] = blocks[0].span_end
        before = end_to_end(plain, module.TAIL_PERCENTILE)
        after = end_to_end(blocks, module.TAIL_PERCENTILE)
        for key in ("latency_ms_p50", "throughput_per_s"):
            metrics[f"trace.overhead_{key}"] = after[key] - before[key]
        tracer.dump(WORK / f"trace-{name}-{seed}.json")
        if tracer.missing:
            print(f"not wrapped (absent from the package): {', '.join(tracer.missing)}")
    else:
        metrics.update(end_to_end(blocks, module.TAIL_PERCENTILE))
        who = resource.RUSAGE_CHILDREN if module is cli_sessions else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    attempted = sum(block.attempted for block in counted)
    failed = sum(block.failed for block in counted)
    latencies = [x for block in blocks for x in block.latencies_ms]
    print(f"blocks: {len(blocks)}; operation: {module.OPERATION}; work item: {module.ITEM}")
    print(
        f"operations: {attempted} attempted, {failed} failed "
        f"({100.0 * failed / max(attempted, 1):.2f}%)"
    )
    if not traced:
        beyond = sum(x > metrics["latency_ms_tail"] for x in latencies)
        print(
            f"  {module.LATENCY_NAME}_p50 = latency_ms_p50; "
            f"{module.LATENCY_NAME}_tail = latency_ms_tail, the p{module.TAIL_PERCENTILE:g} "
            f"of {len(latencies)} samples ({beyond} beyond it); "
            f"{module.THROUGHPUT_NAME} = throughput_per_s"
        )
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"no measurement for: {', '.join(missing)}", file=sys.stderr)
        return 1
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>16.6g} {m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stalkmech" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'stalkmech'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        status = 0
        for name in [w["name"] for w in spec["workloads"]]:
            _, code, out, err = run_child(
                [__file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            )
            sys.stdout.write(out)
            sys.stderr.write(err)
            status = status or code
        return status
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
