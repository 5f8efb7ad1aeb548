"""Layer tracing from outside the program.

The traced pass wraps the public entry points of each layer of
``repro`` (see :data:`SWEEP_LAYERS` and :data:`SERVE_LAYERS`) with a
timer, without changing any code under ``src/``.  Each wrapped call is
a span; spans nest on a per-process stack, so a layer's *self* time is
its span time minus the time of the spans it caused.  Counts that give
ratios (members per kernel path, scored lanes, baseline solves) are
taken at the same boundaries.

Spans stay in memory; :meth:`LayerTracer.dump` writes them out as JSON
when the traced process is done.  Sweep workers forked by the process
pool inherit the wrappers and dump after every chunk they evaluate.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Optional

class LayerTracer:
    """Per-process span accumulator for wrapped layer functions."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: root span name -> layer -> self seconds of spans under it.
        self.self_by_root: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.solve_keys = set()
        self._stack = []  # [layer name, seconds spent in child spans]

    def _check_fork(self) -> None:
        # A forked pool worker starts with a copy of the parent's spans
        # (and its open stack); it reports only its own work.
        if os.getpid() != self.pid:
            self._reset()
            self.role = "worker"

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._check_fork()
            stack = tracer._stack
            frame = [layer, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                root = stack[0][0] if stack else layer
                tracer.total[layer] += elapsed
                tracer.calls[layer] += 1
                tracer.self_by_root[root][layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(tracer, args, kwargs, result)
            if after is not None:
                after(tracer)
            return result

        return traced

    def snapshot(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "pid": os.getpid(),
            "total": dict(self.total),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "self_by_root": {k: dict(v) for k, v in self.self_by_root.items()},
            "solve_keys": sorted(self.solve_keys),
        }

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        tmp.replace(path)
        return path


# -- counters taken at layer boundaries ---------------------------------------


def _count_members(key: str) -> Callable:
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += len(args[0])
    return count


def _count_one(key: str) -> Callable:
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += 1
    return count


def _count_path(tracer, args, kwargs, result):
    tracer.counts[f"kernel_path.{result}"] += 1


def _count_solve(tracer, args, kwargs, result):
    call_loop = args[0]
    mpl = args[1] if len(args) > 1 else kwargs.get("mpl")
    name = kwargs.get("name") or (args[3] if len(args) > 3 else "")
    tracer.solve_keys.add(f"{name}|{mpl}|{len(call_loop)}")


def _dump_after(tracer):
    tracer.dump()


#: Wrapped entry points: (module, attribute path, layer name, count
#: hook, after hook).
COMMON_LAYERS = (
    ("repro.workloads.base", "Workload.run", "workloads.run", None, None),
    ("repro.profiles.io", "write_trace_binary", "profiles.io", None, None),
    ("repro.profiles.io", "read_trace_binary", "profiles.io", None, None),
    ("repro.profiles.io", "ensure_codes_sidecar", "profiles.io", None, None),
    ("repro.profiles.callloop", "CallLoopTrace.save", "profiles.io", None, None),
    ("repro.profiles.callloop", "CallLoopTrace.load", "profiles.io", None, None),
    ("repro.core.kernels", "kernel_path", "core.kernels.kernel_path",
     _count_path, None),
    ("repro.core.kernels", "run_dense", "core.kernels.dense",
     _count_one("dense_members"), None),
    ("repro.core.kernels", "run_bank_batched", "core.kernels.batched",
     _count_members("batched_members"), None),
    ("repro.core.bank", "DetectorBank.run", "core.bank.run", None, None),
)

SWEEP_LAYERS = COMMON_LAYERS + (
    ("repro.baseline.oracle", "solve_baseline", "baseline.solve",
     _count_solve, None),
    ("repro.scoring.metric", "score_states_batch", "scoring.batch",
     _count_members("scored_lanes"), None),
    ("repro.experiments.store", "ChunkStore.write",
     "experiments.store.chunk_write", None, None),
    ("repro.experiments.store", "compact_chunks",
     "experiments.store.compact", None, None),
    ("repro.experiments.store", "ResultDB.sync_from_cache",
     "experiments.store.db_sync", None, None),
    ("repro.experiments.sweep", "Sweep._load_cache",
     "experiments.sweep.cache_load", None, None),
    ("repro.obs.manifest", "write_manifest", "obs.manifest_write", None, None),
    ("repro.experiments.parallel", "ParallelSweepExecutor.run_store",
     "experiments.parallel.parent_wait", None, None),
    ("repro.experiments.parallel", "_evaluate_store_chunk",
     "experiments.parallel.worker_busy", None, _dump_after),
    ("repro.experiments.sweep", "Sweep.ensure", "experiments.sweep.ensure",
     None, None),
)

SERVE_LAYERS = COMMON_LAYERS + (
    ("repro.serve.protocol", "decode_message", "serve.protocol.decode",
     None, None),
    ("repro.serve.protocol", "encode_message", "serve.protocol.encode",
     None, None),
    ("repro.serve.session", "Session.feed", "serve.session.feed", None, None),
    ("repro.serve.session", "Session.park", "serve.session.park", None, None),
    ("repro.serve.session", "Session.rehydrate", "serve.session.rehydrate",
     None, None),
)


def install(tracer: LayerTracer, targets) -> None:
    """Wrap every target, rebinding aliases other ``repro`` modules hold."""
    for module_name, attr_path, layer, count, after in targets:
        module = importlib.import_module(module_name)
        owner = module
        parts = attr_path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        traced = tracer.wrap(layer, original, count=count, after=after)
        if isinstance(vars(owner).get(parts[-1]), staticmethod):
            setattr(owner, parts[-1], staticmethod(traced))
        else:
            setattr(owner, parts[-1], traced)
        if owner is not module:
            continue
        for other in list(sys.modules.values()):
            if other is module or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    setattr(other, name, traced)


def load_dumps(out_dir: Path):
    """Every per-process snapshot written under ``out_dir``."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(out_dir).glob("*.json"))
    ]


def self_times(dumps, root: Optional[str] = None) -> Dict[str, float]:
    """Self seconds per layer, summed over snapshots and root spans (or
    over the spans under ``root`` only)."""
    totals: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        for name, table in dump["self_by_root"].items():
            if root is not None and name != root:
                continue
            for layer, seconds in table.items():
                totals[layer] += seconds
    return dict(totals)


def counts(dumps) -> Dict[str, int]:
    """Boundary counts summed over snapshots."""
    totals: Dict[str, int] = defaultdict(int)
    for dump in dumps:
        for key, value in dump["counts"].items():
            totals[key] += value
    return dict(totals)
