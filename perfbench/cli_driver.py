"""Run one stalkmech CLI command with spans recorded at the module boundaries.

    python perfbench/cli_driver.py SPANS_JSON COMMAND [ARGS...]

Installs the benchmark's wrappers, runs ``stalkmech.cli.execute`` on the
arguments, writes the spans to SPANS_JSON and exits with the command's
status. ``src`` must be on PYTHONPATH.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    import stalkmech.cli

    tracer = Tracer()
    tracer.install()
    status = stalkmech.cli.execute(sys.argv[2:])
    sys.stdout.flush()
    tracer.dump(sys.argv[1])
    sys.exit(status)
