"""The sweep workloads: cold and warm quick-profile sweeps.

One repetition runs two program processes over a fresh, empty cache
directory, and checks their outputs:

1. ``sweep_child.py cold``: import, VM trace generation and ``Sweep``
   construction (``setup_s``), then ``ensure()`` over the benchmark's
   sub-grid (``wall_s``);
2. the benchmark checks every cache line against the golden digests
   and times ``ResultDB.best_scores`` queries (printed latency),
   checking each answer against the verified records;
3. ``sweep_child.py warm``: a fresh process re-running the same sweep
   over the warm cache (CPU time ``warm_cpu_s``, wall time ``warm_s``);
   it must evaluate nothing and leave the cache bytes untouched.

The cold process also reports the CPU seconds of ``ensure()``, its own
and its pool workers' (``cpu_s``).

The sub-grid is every quick-grid point at CW 1000: whole (family
variant, model) cells with all six analyzer points each, so the 27
Threshold and 27 Average configs per benchmark keep the full grid's
1:1 split, its ablation variants and its window signatures (4 per CW,
shared by the same lanes as on the full grid); 54 x 8 benchmarks x 7
MPLs = 3,024 records.  CW 1000 is the one CW whose traced shares of
``run_dense`` and ``run_bank_batched`` are closest to a full quick
sweep's (see ``README.md``).  The seed orders the benchmarks
handed to the program and draws the queries; the grid points keep
``paper_grid`` order, as a real sweep hands them to the chunker, so
every seed does the same work.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from proc import Finished, Window, median, python_argv, run_child

import golden
import layers

#: The CW nominal whose grid points form the sub-grid.
SUBGRID_CW = 1_000
#: Result-database queries timed per repetition.
QUERIES_PER_REP = 200
#: Setup and warm samples a run collects at least: one of each per
#: repetition, then extra ``setup`` and ``warm`` children at the end.
MIN_SETUP_SAMPLES = 5
MIN_WARM_SAMPLES = 7


def subgrid_indices() -> List[int]:
    """Indices into ``paper_grid(QUICK)`` of the benchmark's sub-grid,
    in grid order."""
    from repro.experiments.config_space import QUICK, paper_grid

    return [index for index, spec in enumerate(paper_grid(QUICK))
            if spec.cw_nominal == SUBGRID_CW]


def expected_keys(specs, benchmarks, mpl_nominals) -> List[str]:
    return [
        golden.record_key({
            "benchmark": benchmark, "family": spec.family,
            "cw_nominal": spec.cw_nominal, "model": spec.model.value,
            "analyzer": spec.analyzer_label(), "anchor": spec.anchor.value,
            "resize": spec.resize.value, "mpl_nominal": mpl,
        })
        for benchmark in benchmarks for spec in specs for mpl in mpl_nominals
    ]


def _queries(rng: random.Random, benchmarks: List[str], mpls: List[int]):
    """``best_scores`` queries (by, where): every shape equally often,
    with seeded filter values."""
    shapes = [
        (("family",), None),
        (("benchmark", "family"), None),
        (("cw_nominal", "model"), "benchmark"),
        (("analyzer",), "mpl_nominal"),
        (("family", "anchor", "resize"), "benchmark"),
        (("model", "analyzer"), "mpl_nominal"),
    ]
    for index in range(QUERIES_PER_REP):
        by, filter_dim = shapes[index % len(shapes)]
        where = None
        if filter_dim == "benchmark":
            where = {"benchmark": rng.choice(benchmarks)}
        elif filter_dim == "mpl_nominal":
            where = {"mpl_nominal": rng.choice(mpls)}
        yield by, where


def _expected_answer(rows: List[Dict], by, where) -> List[Tuple]:
    best: Dict[Tuple, List] = {}
    for row in rows:
        if where and any(row[k] != v for k, v in where.items()):
            continue
        group = tuple(row[dim] for dim in by)
        entry = best.setdefault(group, [row["score"], 0])
        entry[0] = max(entry[0], row["score"])
        entry[1] += 1
    return [group + (value, count) for group, (value, count) in sorted(best.items())]


def time_queries(db_path: Path, rows: List[Dict], rng, benchmarks, mpls):
    """Latency of each query in ms, and how many answers were wrong."""
    from repro.experiments.store import ResultDB

    latencies: List[float] = []
    wrong = 0
    with ResultDB(db_path) as db:
        for by, where in _queries(rng, benchmarks, mpls):
            started = time.perf_counter()
            _, answer = db.best_scores("quick", by=by, where=where)
            latencies.append((time.perf_counter() - started) * 1e3)
            if [tuple(r) for r in answer] != _expected_answer(rows, by, where):
                wrong += 1
    return latencies, wrong


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SweepWorkload:
    """Cold and warm quick sweeps at a fixed worker count."""

    def __init__(self, jobs: int, work: Path, env, seed: int) -> None:
        self.jobs = jobs
        self.work = work
        self.env = env
        self.rng = random.Random(seed)
        from repro.experiments.config_space import (
            MPL_NOMINALS_EXTENDED, QUICK, paper_grid,
        )
        from repro.workloads.suite import workload_names

        grid = paper_grid(QUICK)
        self.indices = subgrid_indices()
        self.benchmarks = workload_names()
        self.rng.shuffle(self.benchmarks)
        self.mpls = list(MPL_NOMINALS_EXTENDED)
        self.expected = expected_keys(
            [grid[i] for i in self.indices], self.benchmarks, self.mpls
        )
        self.specs_path = work / "specs.json"
        self.specs_path.write_text(json.dumps(self.indices))
        self.golden = golden.load_golden()
        self.samples: Dict[str, List[float]] = {
            "setup_s": [], "wall_s": [], "cpu_s": [], "warm_s": [],
            "warm_cpu_s": [], "peak_rss_mb": [], "latency_ms": [],
        }
        self.cache = None
        self.attempted = 0
        self.failed = 0
        self.reps = 0

    def _child(self, mode: str, cache: Path, tag: str, trace_dir=None) -> Finished:
        args = [mode, "--cache", str(cache), "--jobs", str(self.jobs),
                "--benchmarks", ",".join(self.benchmarks)]
        if mode != "setup":
            args += ["--specs", str(self.specs_path)]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        return run_child(python_argv("sweep_child.py", *args), self.env,
                         self.work / "logs", tag)

    def warm_up(self) -> None:
        """Byte-compile and page in the program once, untimed."""
        self._child("setup", self.work / "warm-up", "warm-up").last_json()
        shutil.rmtree(self.work / "warm-up", ignore_errors=True)

    def setup_sample(self) -> None:
        cache = self.work / f"setup-{len(self.samples['setup_s'])}"
        done = self._child("setup", cache, cache.name)
        self.samples["setup_s"].append(done.last_json()["ready"] - done.started)
        shutil.rmtree(cache, ignore_errors=True)

    def rep(self, trace_dir=None) -> Dict[str, float]:
        """One cold + check + query + warm repetition; returns its figures.

        The cache it leaves stays for :meth:`warm_sample` until the next
        repetition."""
        self._drop_cache()
        tag = f"rep{self.reps}"
        self.reps += 1
        cache = self.work / tag
        cold = self._child("cold", cache, f"{tag}-cold", trace_dir)
        result = cold.last_json()
        cache_path = cache / "sweep-quick.jsonl"
        checked, failed, rows = golden.check_lines(
            cache_path.read_text(encoding="utf-8").splitlines(),
            self.expected, self.golden,
        )
        self.cache = cache
        self.cache_sha = _sha(cache_path)
        latencies, wrong = time_queries(
            cache / "sweep-quick.sqlite", list(rows.values()), self.rng,
            self.benchmarks, self.mpls,
        )
        self.attempted += checked + len(latencies)
        self.failed += failed + wrong
        warm = self.warm_sample(trace_dir)
        figures = {
            "setup_s": result["ready"] - cold.started,
            "wall_s": result["sweep_s"],
            "cpu_s": result["sweep_cpu_s"],
            "peak_rss_mb": max(cold.peak_rss_mb, warm.peak_rss_mb),
        }
        if trace_dir is None:
            for key, value in figures.items():
                self.samples[key].append(value)
            self.samples["latency_ms"].extend(latencies)
        return figures

    def warm_sample(self, trace_dir=None) -> Finished:
        """A fresh warm process over the last repetition's cache: it must
        evaluate nothing and leave the cache bytes unchanged."""
        warm = self._child("warm", self.cache,
                           f"{self.cache.name}-warm{len(self.samples['warm_s'])}",
                           trace_dir)
        self.attempted += 1
        self.failed += int(warm.last_json()["evaluated"] != 0
                           or _sha(self.cache / "sweep-quick.jsonl") != self.cache_sha)
        if trace_dir is None:
            self.samples["warm_s"].append(warm.wall_s)
            self.samples["warm_cpu_s"].append(warm.cpu_s)
        return warm

    def _drop_cache(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = None

    def end_to_end(self) -> Dict[str, float]:
        """Medians over the run."""
        return {name: median(self.samples[name]) for name in
                ("setup_s", "cpu_s", "warm_cpu_s", "peak_rss_mb", "wall_s",
                 "warm_s")}

def run(jobs: int, work: Path, env, seed: int, seconds: float, trace: bool):
    """Measure one sweep workload; returns (workload, e2e, per-layer).

    Untraced, repetitions run while the next one fits in ``seconds``.
    """
    bench = SweepWorkload(jobs, work, env, seed)
    bench.warm_up()
    per_layer = None
    if trace:
        untraced = bench.rep()
        traced_dir = work / "trace"
        traced = bench.rep(trace_dir=traced_dir)
        per_layer = sweep_layers(layers.load_dumps(traced_dir), traced, untraced)
    else:
        window = Window(seconds)
        while window.more():
            window.begin()
            bench.rep()
            window.end()
        while len(bench.samples["warm_s"]) < MIN_WARM_SAMPLES:
            bench.warm_sample()
    bench._drop_cache()
    while len(bench.samples["setup_s"]) < MIN_SETUP_SAMPLES:
        bench.setup_sample()
    return bench, bench.end_to_end(), per_layer


def sweep_layers(dumps, traced: Dict, untraced: Dict) -> Dict[str, object]:
    """Per-layer metrics of a traced sweep repetition."""
    cold = [d for d in dumps if d["role"] == "cold"]
    workers = [d for d in dumps if d["role"] == "worker"]
    ensure = "experiments.sweep.ensure"
    # Self times of the spans inside the cold ensure() call: these plus
    # the ensure span's own self time (other_s) sum to the traced wall_s.
    in_sweep = layers.self_times(cold, root=ensure)
    other = in_sweep.pop(ensure, 0.0)
    busy = [d["total"].get("experiments.parallel.worker_busy", 0.0) for d in workers]
    worker_self = layers.self_times(workers)
    spent = layers.self_times(dumps)
    count = layers.counts(dumps)
    solves = sum(d["calls"].get("baseline.solve", 0) for d in dumps)
    unique = len({key for d in dumps for key in d["solve_keys"]})
    metrics = {
        "workloads.run_s": spent.get("workloads.run", 0.0),
        "profiles.io_s": spent.get("profiles.io", 0.0),
        "baseline.solve_s": spent.get("baseline.solve", 0.0),
        "baseline.solves": solves,
        "baseline.unique_solve_ratio": unique / solves if solves else 0.0,
        "core.kernels.dense_s": spent.get("core.kernels.dense", 0.0),
        "core.kernels.dense_members": count.get("dense_members", 0),
        "core.kernels.batched_s": spent.get("core.kernels.batched", 0.0),
        "core.kernels.batched_members": count.get("batched_members", 0),
        "core.bank.run_s": spent.get("core.bank.run", 0.0),
        "core.bank.lane_members": count.get("kernel_path.legacy", 0),
        "scoring.batch_s": spent.get("scoring.batch", 0.0),
        "scoring.lanes": count.get("scored_lanes", 0),
        "experiments.store.chunk_write_s": spent.get("experiments.store.chunk_write", 0.0),
        "experiments.store.compact_s": spent.get("experiments.store.compact", 0.0),
        "experiments.store.db_sync_s": spent.get("experiments.store.db_sync", 0.0),
        "experiments.sweep.cache_load_s": spent.get("experiments.sweep.cache_load", 0.0),
        "obs.manifest_write_s": spent.get("obs.manifest_write", 0.0),
        "experiments.parallel.worker_busy_s": sum(busy),
        "experiments.parallel.parent_wait_s": layers.self_times(cold).get(
            "experiments.parallel.parent_wait", 0.0),
        "experiments.parallel.worker_imbalance": (
            max(busy) / (sum(busy) / len(busy)) if busy and sum(busy) else 0.0
        ),
        "other_s": other,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    table = {
        "traced wall_s": traced["wall_s"],
        "self times in ensure() (parent)": dict(
            sorted(in_sweep.items(), key=lambda kv: -kv[1])
        ),
        "other_s": other,
        "sum of self times + other_s": sum(in_sweep.values()) + other,
    }
    if workers:
        table["self times in workers (summed)"] = dict(
            sorted(worker_self.items(), key=lambda kv: -kv[1])
        )
    return {"metrics": metrics, "table": table}
