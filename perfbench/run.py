#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-quick-serial --seed 1 \\
        --seconds 36 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``sweep-quick-serial``  cold + warm quick sweeps, ``--jobs 1``;
- ``sweep-quick-parallel`` the same through the chunk store at one
  worker per usable CPU (at least two);
- ``serve-evict``         ``repro serve`` with a resident cap of 1/8 of
  the sessions, so every session parks and rehydrates mid-trace: one
  open-loop pass, then saturating passes.

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` runs one untraced and one traced repetition and prints
the per-layer metrics (layer self times, path census, tracing
overhead).  Human-readable lines come first; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output checked was correct.

All scratch files live under ``.perfbench_work/`` in the repository
root and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from proc import (  # noqa: E402
    ROOT, SRC, child_env, environment, percentile, usable_cpus,
)

CONFIG = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").exists() else None
WORKLOADS = ("sweep-quick-serial", "sweep-quick-parallel", "serve-evict")


def _units(section: str):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _measure(name: str, work: Path, seed: int, seconds: float, trace: bool):
    env = child_env(work)
    if name.startswith("sweep-"):
        import sweeps

        # At least two workers, so the parallel path runs on any host.
        jobs = 1 if name == "sweep-quick-serial" else max(2, usable_cpus())
        bench, e2e, per_layer = sweeps.run(jobs, work, env, seed, seconds, trace)
        notes = {"jobs": jobs, "reps": bench.reps,
                 "records_per_rep": len(bench.expected),
                 "setup_samples": len(bench.samples["setup_s"])}
        return bench, e2e, per_layer, _latency_notes(bench, notes)
    import serving

    settings = CONFIG["serve"]
    bench = serving.ServeWorkload(settings, work, env, seed)
    if trace:
        per_layer = asyncio.run(bench.measure_traced())
        e2e = None
    else:
        e2e = asyncio.run(bench.measure(seconds))
        per_layer = None
    notes = {
        "connections": bench.connections,
        "sessions": settings["sessions"],
        "max_resident": bench.max_resident,
        "elements_per_pass": bench.elements,
        "offered_rate_per_s": settings["offered_rate"],
        "passes": bench.passes,
        "setup_samples": len(bench.samples["setup_s"]),
    }
    if e2e is not None:
        notes["events_per_s"] = bench.elements / e2e["wall_s"]
        notes["loadgen_lag_p99_ms"] = percentile(bench.samples["lag_ms"], 99)
    return bench, e2e, per_layer, _latency_notes(bench, notes)


def _latency_notes(bench, notes):
    """Latency percentiles in raw ms, printed but not gated: on a shared
    host their run-to-run spread is wider than any bound the benchmark
    may set."""
    samples = bench.samples["latency_ms"]
    notes["latency_samples"] = len(samples)
    for q in (50, 90, 99):
        if samples:
            notes[f"latency_p{q}_ms"] = percentile(samples, q)
    return notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if SPEC is None or not (SRC / "repro" / "__init__.py").exists():
        print("perfbench: the program sources (src/repro) and BENCHMARK.json "
              "must sit next to perfbench/", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ.update({k: v for k, v in child_env(work).items()
                       if k in ("REPRO_TRACE_CACHE", "TMPDIR")})
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    try:
        bench, e2e, per_layer, notes = _measure(
            args.workload, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    correct = bench.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"({time.perf_counter() - started:.1f}s)")
    print(f"environment {json.dumps(environment())}")
    print(f"notes {json.dumps(notes)}")
    print(f"checked {bench.attempted}  failed {bench.failed}  "
          f"failed_ratio {bench.failed / max(1, bench.attempted):.6f}")
    if args.trace:
        units = _units("per_layer")
        values = per_layer["metrics"]
        for title, content in per_layer["table"].items():
            if isinstance(content, dict):
                print(f"{title}:")
                for layer, seconds in content.items():
                    print(f"    {layer:<40} {seconds:12.6f} s")
            else:
                print(f"{title}: {content:.6f}")
    else:
        units = _units("end_to_end")
        values = e2e
        print("measured, not gated "
              f"{json.dumps({k: v for k, v in e2e.items() if k not in units})}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0.0)  # a layer the workload never calls
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
