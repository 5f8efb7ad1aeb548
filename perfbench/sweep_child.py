"""One sweep process of the benchmark: set up, run cold, or re-run warm.

Run by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/sweep_child.py cold  --cache DIR --specs FILE --jobs N
    python3 perfbench/sweep_child.py warm  --cache DIR --specs FILE --jobs N
    python3 perfbench/sweep_child.py setup --cache DIR

(each also takes ``--benchmarks a,b,...`` to name the workloads and
their order).

``--specs`` names a JSON list of indices into the quick paper grid.
``cold`` constructs a :class:`~repro.experiments.sweep.Sweep` over an
empty cache directory (running every workload through the VM) and then
evaluates the listed grid points; ``warm`` imports ``repro.cli`` and
repeats the same ``ensure()`` over the cache a cold run left, the work
of a fresh ``repro sweep`` over a warm cache; ``setup`` stops after the
constructed ``Sweep``.  The last stdout line is a JSON object with the
``time.perf_counter()`` instant the sweep was ready (comparable across
processes: both sides use the monotonic clock) and the ``ensure()``
wall time.  ``--trace-dir`` wraps every layer (see ``layers.py``) and
dumps per-process span tables there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children (the
    sweep's pool workers, once ``ensure()`` has joined them)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cold", "warm", "setup"))
    parser.add_argument("--cache", required=True)
    parser.add_argument("--specs", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated workload names, in order")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_dir is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import SWEEP_LAYERS, LayerTracer, install

        tracer = LayerTracer(Path(args.trace_dir), args.mode)
        install(tracer, SWEEP_LAYERS)
    if args.mode == "warm":
        import repro.cli  # noqa: F401  (what a `repro sweep` process pays)
    from repro.experiments.config_space import QUICK, paper_grid
    from repro.experiments.sweep import Sweep

    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    sweep = Sweep(QUICK, cache_dir=Path(args.cache), benchmarks=benchmarks,
                  jobs=args.jobs)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.mode != "setup":
        grid = paper_grid(QUICK)
        indices = json.loads(Path(args.specs).read_text(encoding="utf-8"))
        specs = [grid[index] for index in indices]
        cpu_before = _cpu_s()
        started = time.perf_counter()
        records = sweep.ensure(specs, jobs=args.jobs)
        result["sweep_s"] = time.perf_counter() - started
        result["sweep_cpu_s"] = _cpu_s() - cpu_before
        result["records"] = len(records)
        manifest = json.loads(sweep.manifest_path.read_text(encoding="utf-8"))
        result["evaluated"] = manifest["records"]["evaluated"]
    if tracer is not None:
        tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
