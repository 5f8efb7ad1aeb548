"""A traced ``repro serve`` process.

Run by ``perfbench/run.py`` as::

    python3 perfbench/serve_child.py TRACE_DIR <repro serve arguments...>

It wraps every serve layer (see ``layers.SERVE_LAYERS``), then runs the
CLI's ``serve`` command unchanged.  SIGUSR1 dumps the spans so far as
``server-pass-<pid>.json``; on exit (SIGINT) the final spans go to
``server-<pid>.json``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import SERVE_LAYERS, LayerTracer, install  # noqa: E402


def main() -> int:
    tracer = LayerTracer(Path(sys.argv[1]), "server")
    install(tracer, SERVE_LAYERS)

    def dump_pass(_signum, _frame) -> None:
        tracer.role = "server-pass"
        tracer.dump()
        tracer.role = "server"

    signal.signal(signal.SIGUSR1, dump_pass)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *sys.argv[2:]])
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
