"""Traced entry point: ``python3 perfbench/launch.py <repro CLI arguments>``.

Installs the layer wrappers of ``tracer.py`` and then runs the same CLI entry
point as ``python -m repro``, writing the spans to ``$PERFBENCH_TRACE_DIR``
when the command returns.
"""

from __future__ import annotations

import os
import sys

import tracer as tracing


def main() -> int:
    tracer = tracing.install(os.environ["PERFBENCH_TRACE_DIR"])
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main())
