#!/usr/bin/env python
"""Null-path detector benchmark guard.

Measures the optimized engine with observability *disabled*
(``observer=None`` — the default every caller gets) and compares a
calibration-normalized score against a committed baseline, so the check
is meaningful across machines: raw seconds divide by the time the same
interpreter takes for a fixed pure-Python workload, cancelling
host-speed differences.

Two modes::

    # record a new baseline (committed as benchmarks/BENCH_*.json)
    PYTHONPATH=src python benchmarks/check_regression.py --record

    # CI guard: fail (exit 1) if the aggregate normalized score
    # regressed more than --tolerance vs the newest committed baseline
    PYTHONPATH=src python benchmarks/check_regression.py

The guarded quantity is the *aggregate* normalized score (sum over the
config matrix of per-config best-of-``--repeats`` times); per-config
scores are recorded and printed but not individually gated — they are
noisier than the aggregate on shared CI hardware.

The kernel rows time each matrix config twice in the same run — the
default path (array-native kernels, :mod:`repro.core.kernels`) and the
legacy fused loop (``kernels=False``) — and gate their ratio.  Like the
bank gate, the ratio is self-normalizing: both sides see the same host,
so the check is immune to machine-speed drift entirely.  Every config
named in ``KERNEL_MIN_SPEEDUPS`` runs a vectorized fast path and must
stay at least that many times faster than the legacy loop —
``unweighted-constant`` through the constant walk, and the Adaptive-TW
rows through the episode-vectorized adaptive walk.  The Average rows
(``AVERAGE_CONFIGS``: the same geometries with the Average analyzer)
are kernel-only: same-run floors in ``AVERAGE_KERNEL_MIN_SPEEDUPS``,
outside the calibration-normalized aggregate.

The bank rows interleave best-of-``BANK_INTERLEAVE`` sequential vs bank
timings (the side order flips each round so drift and cache-warming
bias cancel instead of landing on one side).  Two ratios are gated:
the legacy lockstep row (both sides ``kernels=False``, shared-decode
machinery, ``BANK_MIN_SPEEDUP``) and the batched-advancer row (both
sides ``kernels=True``, per-signature series sharing via
:func:`repro.core.kernels.run_bank_batched`,
``BANK_BATCHED_MIN_SPEEDUP``).

The family rows time the decision-layer detectors (``focus``,
``newma``) on the same trace, giving them a calibration-normalized
perf trajectory; their sum is checked against the baseline with the
same tolerance as the windowed aggregate (when the baseline has it).

The zero-copy rows gate the evaluation scaffolding the same way (both
sides in the same run, no baseline needed): **warm-start** compares a
worker's pre-sidecar startup cost (heap trace read + the ``np.unique``
dense-code pass) against the zero-copy path (mmap read + ``.bcodes``
sidecar adoption) and must show a reduction; **batch-scoring** compares
per-(lane, MPL) ``score_states`` calls against one
``score_states_batch`` pass and must stay at least
``BATCH_MIN_SPEEDUP`` times faster.

The serve row replays ``SERVE_SESSIONS`` concurrent suite-workload
sessions through :mod:`repro.serve` (plus a forced-eviction run that
parks and rehydrates sessions mid-trace).  Gates: the session count,
byte-identity of every served phase stream against the offline
detector, at least one park in the eviction run, and a
calibration-normalized throughput floor
(``SERVE_MIN_NORMALIZED_THROUGHPUT``).

The telemetry row gates the cost of *enabled* live telemetry the
same-run-ratio way: serve-bench with the flight recorder spooling at a
tight interval (latency histograms are always on) must stay within
``TELEMETRY_MAX_OVERHEAD`` of the run without it, best-of-N with the
on/off repeats interleaved so drift hits both sides.  The row also
re-checks flight-record completeness: summed per-interval
``serve.events_in`` deltas in the spool must equal the elements fed.
"""

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import AnalyzerKind, DetectorConfig, ModelKind, TrailingPolicy
from repro.core.bank import DetectorBank
from repro.core.engine import run_detector
from repro.obs.manifest import environment_info
from repro.profiles.io import (
    codes_path_for,
    ensure_codes_sidecar,
    read_trace_binary,
    write_codes_sidecar,
    write_trace_binary,
)
from repro.profiles.synthetic import SyntheticTraceBuilder
from repro.profiles.trace import BranchTrace
from repro.scoring.metric import score_states, score_states_batch

BASELINE_VERSION = 1
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_TOLERANCE = 0.10

#: Same model x policy matrix as test_perf_detector.py.
CONFIGS = {
    "unweighted-constant": DetectorConfig(cw_size=250, threshold=0.6),
    "unweighted-adaptive": DetectorConfig(
        cw_size=250, trailing=TrailingPolicy.ADAPTIVE, threshold=0.6
    ),
    "weighted-constant": DetectorConfig(
        cw_size=250, model=ModelKind.WEIGHTED, threshold=0.6
    ),
    "weighted-adaptive": DetectorConfig(
        cw_size=250,
        model=ModelKind.WEIGHTED,
        trailing=TrailingPolicy.ADAPTIVE,
        threshold=0.6,
    ),
}


#: Decision-layer detector families timed alongside the windowed matrix
#: so regressions in the scan loops show up in the baseline trajectory.
FAMILY_CONFIGS = {
    "focus": DetectorConfig(cw_size=250, family="focus"),
    "newma": DetectorConfig(cw_size=250, family="newma"),
}

#: Members of the multi-config bank measurement (one sweep-like batch).
BANK_SIZE = 16

#: The lockstep bank must beat the same configs run sequentially by at
#: least this factor (same-run ratio).  Set from the flat skip-1 lane
#: path (measured ~1.31x on the reference host); the previous effective
#: floor was the ~1.07x a plain ratio > 1.0 check tolerated.
BANK_MIN_SPEEDUP = 1.12

#: The batched bank advancer (kernels on both sides, per-signature
#: series sharing) must beat sequential kernel runs by at least this
#: factor (measured ~3.3x on the reference host).
BANK_BATCHED_MIN_SPEEDUP = 1.5

#: Interleaved rounds for the bank ratios: each round times both sides
#: back to back and the side order flips per round, so slow host drift
#: and page-cache warming cancel out of the best-of ratio instead of
#: inflating whichever side happened to run second.
BANK_INTERLEAVE = 3

#: Per-config floors for the vectorized fast paths vs the legacy fused
#: loop (same-run ratios).  The constant walk clears 3x with wide
#: margin; the episode-vectorized adaptive walks pay a per-episode
#: Python orchestration cost, so their floors are lower.
KERNEL_MIN_SPEEDUPS = {
    "unweighted-constant": 3.0,
    "unweighted-adaptive": 2.0,
    "weighted-adaptive": 1.5,
}

#: The ``CONFIGS`` geometries with the Average analyzer.  Kernel-only
#: rows: timed against the fused loop like the Threshold kernel rows,
#: gated by same-run floors, and kept out of the calibration-normalized
#: aggregate (the committed baselines predate them).
AVERAGE_CONFIGS = {
    label: replace(config, analyzer=AnalyzerKind.AVERAGE, delta=0.05)
    for label, config in CONFIGS.items()
}

#: Same-run floors for the Average rows (measured ~7-8x, ~5-6x, ~2.3x
#: and ~3x on a 2-core host).
AVERAGE_KERNEL_MIN_SPEEDUPS = {
    "unweighted-constant": 3.0,
    "unweighted-adaptive": 2.0,
    "weighted-constant": 1.5,
    "weighted-adaptive": 1.5,
}

#: One score_states_batch pass must beat the per-(lane, MPL)
#: score_states loop by at least this factor (same-run ratio).
BATCH_MIN_SPEEDUP = 3.0

#: The mmap + sidecar warm start must beat the heap read + unique pass
#: (same-run ratio; any reliable reduction passes).
WARM_START_MIN_SPEEDUP = 1.0

#: The serving row: this many concurrent sessions replaying suite
#: workloads through the serve layer, every served phase stream
#: byte-verified against the offline path (plus a small forced-eviction
#: run proving park/rehydrate mid-trace is invisible).
SERVE_SESSIONS = 1_000
SERVE_ELEMENTS_PER_SESSION = 600
SERVE_CHUNK = 150
SERVE_PARK_SESSIONS = 64
SERVE_PARK_MAX_RESIDENT = 8
#: Calibration-normalized serving throughput floor:
#: events_per_sec x calibration_seconds (elements served per
#: calibration unit).  Generous margin below measured (~30k local).
SERVE_MIN_NORMALIZED_THROUGHPUT = 6_000.0

#: The telemetry-overhead row: a smaller synthetic serve-bench run,
#: once with the flight recorder spooling and once without, interleaved
#: best-of-``TELEMETRY_REPEATS``.  Throughput with telemetry on must
#: stay within ``TELEMETRY_MAX_OVERHEAD`` of telemetry off.
TELEMETRY_SESSIONS = 300
TELEMETRY_ELEMENTS_PER_SESSION = 800
TELEMETRY_CHUNK = 160
TELEMETRY_FLIGHT_INTERVAL = 0.1
TELEMETRY_REPEATS = 3
TELEMETRY_MAX_OVERHEAD = 0.05


def _bank_configs():
    """``BANK_SIZE`` configs cycling the matrix across thresholds, the
    way a sweep grid mixes bank members."""
    thresholds = (0.4, 0.5, 0.6, 0.7)
    base = list(CONFIGS.values())
    return [
        replace(
            base[i % len(base)],
            threshold=thresholds[(i // len(base)) % len(thresholds)],
        )
        for i in range(BANK_SIZE)
    ]


def _measure_bank(trace, bank_configs):
    """Both bank ratios, interleaved best-of-``BANK_INTERLEAVE``.

    Each round times sequential-vs-bank back to back and flips which
    side goes first on alternate rounds, for both the legacy lockstep
    ratio (``kernels=False`` both sides) and the batched-advancer ratio
    (``kernels=True`` both sides).  Interleaving is the de-flake: the
    old scheme timed all sequential samples under different cache/drift
    conditions than the bank samples, and the recorded speedup swung
    1.07x-1.36x run to run.
    """
    seq_samples, bank_samples = [], []
    seq_kernel_samples, batched_samples = [], []
    sides = {
        "seq": lambda: [run_detector(trace, c, kernels=False)
                        for c in bank_configs],
        "bank": lambda: DetectorBank(bank_configs).run(trace, kernels=False),
        "seq-kernel": lambda: [run_detector(trace, c, kernels=True)
                               for c in bank_configs],
        "batched": lambda: DetectorBank(bank_configs).run(
            trace, kernels=True, batched=True
        ),
    }
    samples = {
        "seq": seq_samples,
        "bank": bank_samples,
        "seq-kernel": seq_kernel_samples,
        "batched": batched_samples,
    }
    for round_index in range(BANK_INTERLEAVE):
        pairs = [("seq", "bank"), ("seq-kernel", "batched")]
        for first, second in pairs:
            if round_index % 2:
                first, second = second, first
            samples[first].append(_timed(sides[first]))
            samples[second].append(_timed(sides[second]))
    return (
        min(seq_samples),
        min(bank_samples),
        min(seq_kernel_samples),
        min(batched_samples),
    )


def bench_trace():
    builder = SyntheticTraceBuilder(seed=17, name="bench")
    for _ in range(5):
        builder.add_transition(400)
        builder.add_phase(6_000, body_size=14, noise_rate=0.01)
    builder.add_transition(400)
    return builder.build()[0]


def _warm_start_fixture(tmp_dir, trace):
    """Cache a large trace + sidecar the way the suite cache would."""
    big = BranchTrace(np.tile(trace.array, 8), name="warm")
    path = Path(tmp_dir) / "warm.btrace"
    write_trace_binary(big, path)
    write_codes_sidecar(big, codes_path_for(path))
    return path


def _warm_start_cold(path):
    # Pre-sidecar worker startup: private heap copy + np.unique pass.
    trace = read_trace_binary(path, mmap=False)
    trace.dense_codes()


def _warm_start_zero_copy(path):
    # Zero-copy startup: mmap the payload, adopt the persisted remap.
    trace = read_trace_binary(path, mmap=True)
    ensure_codes_sidecar(trace, path, mmap=True)


def _batch_scoring_fixture(trace):
    """A bank-sized state matrix and MPL-like baselines to score.

    Random states produce many short phases, which is exactly the
    boundary-matching load a dense sweep grid generates.
    """
    rng = np.random.default_rng(23)
    num_elements = min(len(trace), 8_000)
    matrix = rng.random((BANK_SIZE, num_elements)) < 0.5
    baselines = [rng.random(num_elements) < 0.5 for _ in range(4)]
    return matrix, baselines


def _score_scalar(matrix, baselines):
    return [
        [score_states(matrix[lane], base) for base in baselines]
        for lane in range(matrix.shape[0])
    ]


def _measure_serve(calibration):
    """The sessions x events/sec serving row (measured once, not per
    repeat — the run is seconds long and internally averaged over
    thousands of chunk latencies)."""
    from repro.serve.loadgen import serve_bench

    row = serve_bench(
        sessions=SERVE_SESSIONS,
        elements_per_session=SERVE_ELEMENTS_PER_SESSION,
        chunk=SERVE_CHUNK,
        source="suite",
        scale=0.3,
        verify=True,
        park_sessions=SERVE_PARK_SESSIONS,
        park_max_resident=SERVE_PARK_MAX_RESIDENT,
    )
    main, parked = row["main"], row["parked"]
    return {
        "sessions": main["sessions"],
        "elements": main["elements"],
        "events_per_sec": main["events_per_sec"],
        "elapsed_seconds": main["elapsed_seconds"],
        "normalized_throughput": round(
            main["events_per_sec"] * calibration, 2
        ),
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_p99_ms": main["latency_p99_ms"],
        "verified": main["verified"],
        "parked_sessions": parked["sessions"],
        "parked_parks": parked["parks"],
        "parked_rehydrations": parked["rehydrations"],
        "parked_verified": parked["verified"],
        "min_sessions": SERVE_SESSIONS,
        "min_normalized_throughput": SERVE_MIN_NORMALIZED_THROUGHPUT,
    }


def _measure_telemetry(calibration):
    """The telemetry-overhead row: flight recorder on vs off, same run
    parameters, repeats interleaved so host drift hits both sides.

    Latency histograms are part of the server's registry in both runs;
    the delta being gated is the flight-recorder sampling loop plus the
    JSONL spool — i.e. everything ``repro serve --flight-record`` adds.
    """
    from repro.obs.timeseries import read_flight_record
    from repro.serve.loadgen import serve_bench

    common = dict(
        sessions=TELEMETRY_SESSIONS,
        elements_per_session=TELEMETRY_ELEMENTS_PER_SESSION,
        chunk=TELEMETRY_CHUNK,
        source="synthetic",
        verify=False,
        park_sessions=0,
    )
    off_samples, on_samples = [], []
    flight_total = None
    flight_samples = None
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp_dir:
        for repeat in range(TELEMETRY_REPEATS):
            off_row = serve_bench(**common)
            off_samples.append(off_row["main"]["events_per_sec"])
            spool = Path(tmp_dir) / f"flight-{repeat}.jsonl"
            on_row = serve_bench(
                **common,
                flight_record=spool,
                flight_interval=TELEMETRY_FLIGHT_INTERVAL,
            )
            on_samples.append(on_row["main"]["events_per_sec"])
            _, samples = read_flight_record(spool)
            flight_total = sum(
                s["deltas"].get("serve.events_in", 0) for s in samples
            )
            flight_samples = len(samples)
    off_best = max(off_samples)
    on_best = max(on_samples)
    return {
        "sessions": TELEMETRY_SESSIONS,
        "elements": TELEMETRY_SESSIONS * TELEMETRY_ELEMENTS_PER_SESSION,
        "flight_interval": TELEMETRY_FLIGHT_INTERVAL,
        "repeats": TELEMETRY_REPEATS,
        "off_events_per_sec": round(off_best, 2),
        "on_events_per_sec": round(on_best, 2),
        "off_normalized_throughput": round(off_best * calibration, 2),
        "on_normalized_throughput": round(on_best * calibration, 2),
        "overhead": round(1.0 - on_best / off_best, 4),
        "max_overhead": TELEMETRY_MAX_OVERHEAD,
        "flight_samples": flight_samples,
        "flight_events_in": flight_total,
    }


#: The store rows: persistence throughput compares the legacy
#: ordered-delivery parent loop (rows over the pipe -> from_row ->
#: per-row cache_line append) against chunk-store compaction (bulk fold
#: of pre-written chunk files + the SQLite ingest) over the same record
#: set, interleaved best-of-``STORE_INTERLEAVE`` like the bank rows.
#: The chunk files are written outside the timed region — in a real
#: sweep the workers write them concurrently with evaluation, so the
#: parent-side persistence cost is exactly what the two sides compare.
STORE_BENCHMARKS = 4
STORE_CHUNK_SIZE = 15
STORE_MPLS = (1_000, 10_000)
STORE_INTERLEAVE = 3
#: The compaction fold must beat the legacy per-row parent loop by this
#: factor (measured ~2.5x on the reference host: bulk byte append of
#: worker-serialized lines vs from_row + cache_line per record).  The
#: SQLite ingest is timed and reported separately — the legacy path has
#: no equivalent to ratio against.
STORE_MIN_SPEEDUP = 1.2

#: The resume row: of ``RESUME_TOTAL_CHUNKS`` planned chunks,
#: ``RESUME_PRESENT_CHUNKS`` already have files; ``missing()`` must
#: return exactly the absent ones (that exactness *is* the resume
#: efficiency claim — an interrupted run re-evaluates only its missing
#: chunk set) and the scan itself is timed.
RESUME_TOTAL_CHUNKS = 64
RESUME_PRESENT_CHUNKS = 48

#: The query row: best-score-per-(family, benchmark) over the synthetic
#: record set through the SQLite indexes, calibration-normalized.
#: Loose ceiling — queries are milliseconds; the gate only catches a
#: pathological regression (a dropped index, an accidental table scan
#: of a huge join).
QUERY_MAX_NORMALIZED = 0.5


def _store_fixture():
    """Specs, planned chunks and deterministic synthetic records.

    Synthetic scores (no detector runs): the rows being pushed through
    the persistence paths are shape-identical to real sweep records,
    which is all byte serialization and SQLite care about.
    """
    from repro.experiments.config_space import QUICK, paper_grid
    from repro.experiments.runner import SweepRecord
    from repro.experiments.store import plan_chunks

    specs = paper_grid(QUICK)
    benchmarks = [f"bench{i}" for i in range(STORE_BENCHMARKS)]
    fingerprints = {name: f"fp-{name}" for name in benchmarks}
    work = [(name, specs) for name in benchmarks]

    def chunker(items):
        return [
            list(items[i : i + STORE_CHUNK_SIZE])
            for i in range(0, len(items), STORE_CHUNK_SIZE)
        ]

    planned = plan_chunks(work, fingerprints, "bench", STORE_MPLS, chunker)
    records = {}
    for chunk in planned:
        chunk_records = []
        for position, spec in enumerate(chunk.specs):
            for mpl in STORE_MPLS:
                salt = (chunk.index * 1_009 + position * 17 + mpl) % 97
                chunk_records.append(
                    SweepRecord(
                        benchmark=chunk.benchmark,
                        family=spec.family,
                        cw_nominal=spec.cw_nominal,
                        model=spec.model.value,
                        analyzer=spec.analyzer_label(),
                        anchor=spec.anchor.value,
                        resize=spec.resize.value,
                        mpl_nominal=mpl,
                        score=round(salt / 97.0, 6),
                        correlation=round(salt / 194.0, 6),
                        sensitivity=round(salt / 97.0, 6),
                        false_positives=float(salt % 7),
                        corrected_score=round(salt / 130.0, 6),
                        num_detected_phases=salt % 11,
                        num_baseline_phases=7,
                    )
                )
        records[chunk.key] = chunk_records
    return planned, records, fingerprints


def _store_legacy_side(tmp_dir, planned, records, fingerprints):
    """The ordered-delivery parent loop: from_row + per-row append."""
    from repro.experiments.runner import SweepRecord
    from repro.experiments.store import cache_line

    Path(tmp_dir).mkdir(parents=True, exist_ok=True)
    cache = Path(tmp_dir) / "legacy.jsonl"
    rows_by_chunk = {
        chunk.key: [record.to_row() for record in records[chunk.key]]
        for chunk in planned
    }  # pre-serialized: the pipe delivers dicts, not SweepRecords

    def run():
        with cache.open("a", encoding="utf-8") as handle:
            for chunk in planned:
                delivered = [
                    SweepRecord.from_row(row) for row in rows_by_chunk[chunk.key]
                ]
                fingerprint = fingerprints[chunk.benchmark]
                for record in delivered:
                    handle.write(cache_line(record, fingerprint))

    return run, cache


def _store_compact_side(tmp_dir, planned, records, fingerprints):
    """Chunk-store compaction: the bulk fold is the timed region; the
    workers' chunk files are pre-written here, outside it (in a real
    sweep they are written concurrently with evaluation)."""
    from repro.experiments.store import ChunkStore, cache_line, compact_chunks

    store = ChunkStore(Path(tmp_dir), "bench")
    for chunk in planned:
        lines = [
            cache_line(record, fingerprints[chunk.benchmark])
            for record in records[chunk.key]
        ]
        store.write(
            chunk.key, benchmark=chunk.benchmark,
            fingerprint=fingerprints[chunk.benchmark],
            configs=len(chunk.specs), lines=lines,
        )
    cache = Path(tmp_dir) / "store.jsonl"

    def run():
        compact_chunks(store, planned, cache)

    return run, cache


def _measure_store(calibration):
    """The store section: persistence ratio, resume exactness, query
    latency.  Returns the result dict (see the constants above)."""
    from repro.experiments.store import ChunkStore, ResultDB, cache_line

    planned, records, fingerprints = _store_fixture()
    total_rows = sum(len(chunk_records) for chunk_records in records.values())

    legacy_samples, compact_samples, ingest_samples = [], [], []
    for round_index in range(STORE_INTERLEAVE):
        with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp_dir:
            legacy_run, legacy_cache = _store_legacy_side(
                Path(tmp_dir) / "legacy", planned, records, fingerprints
            )
            compact_run, compact_cache = _store_compact_side(
                Path(tmp_dir) / "store", planned, records, fingerprints
            )
            sides = [(legacy_run, legacy_samples), (compact_run, compact_samples)]
            if round_index % 2:
                sides.reverse()
            for run, samples in sides:
                samples.append(_timed(run))
            with ResultDB(Path(tmp_dir) / "store.sqlite") as db:
                ingest_samples.append(_timed(
                    lambda: db.sync_from_cache(compact_cache, "bench")
                ))
            byte_identical = (
                legacy_cache.read_bytes() == compact_cache.read_bytes()
            )
            if not byte_identical:
                break
    legacy_seconds = min(legacy_samples)
    compact_seconds = min(compact_samples)
    ingest_seconds = min(ingest_samples)

    # Resume: 48 of 64 chunks present; missing() must be the exact
    # 16-chunk complement.
    resume_planned = planned[:RESUME_TOTAL_CHUNKS]
    absent = {
        chunk.key
        for chunk in resume_planned[RESUME_PRESENT_CHUNKS:RESUME_TOTAL_CHUNKS]
    }
    with tempfile.TemporaryDirectory(prefix="repro-resume-") as tmp_dir:
        store = ChunkStore(Path(tmp_dir), "bench")
        for chunk in resume_planned[:RESUME_PRESENT_CHUNKS]:
            lines = [
                cache_line(record, fingerprints[chunk.benchmark])
                for record in records[chunk.key]
            ]
            store.write(
                chunk.key, benchmark=chunk.benchmark,
                fingerprint=fingerprints[chunk.benchmark],
                configs=len(chunk.specs), lines=lines,
            )
        scan_start = time.perf_counter()
        missing = store.missing(resume_planned)
        scan_seconds = time.perf_counter() - scan_start
        resume_exact = {chunk.key for chunk in missing} == absent

    # Query latency through the SQLite indexes.
    query_samples = []
    with tempfile.TemporaryDirectory(prefix="repro-query-") as tmp_dir:
        cache = Path(tmp_dir) / "query.jsonl"
        with cache.open("w", encoding="utf-8") as handle:
            for chunk in planned:
                for record in records[chunk.key]:
                    handle.write(
                        cache_line(record, fingerprints[chunk.benchmark])
                    )
        with ResultDB(Path(tmp_dir) / "query.sqlite") as db:
            db.sync_from_cache(cache, "bench")
            for _ in range(STORE_INTERLEAVE):
                query_samples.append(_timed(
                    lambda: db.best_scores(
                        "bench", by=("family", "benchmark"),
                        where={"mpl_nominal": STORE_MPLS[0]},
                    )
                ))
    query_seconds = min(query_samples)

    return {
        "rows": total_rows,
        "chunks": len(planned),
        "interleave": STORE_INTERLEAVE,
        "legacy_seconds": round(legacy_seconds, 6),
        "compact_seconds": round(compact_seconds, 6),
        "speedup": round(legacy_seconds / compact_seconds, 4),
        "min_speedup": STORE_MIN_SPEEDUP,
        "byte_identical": byte_identical,
        "ingest_seconds": round(ingest_seconds, 6),
        "ingest_rows_per_sec": round(total_rows / ingest_seconds, 1),
        "resume": {
            "planned": len(resume_planned),
            "present": RESUME_PRESENT_CHUNKS,
            "missing": len(missing),
            "exact": resume_exact,
            "scan_seconds": round(scan_seconds, 6),
        },
        "query": {
            "rows": total_rows,
            "seconds": round(query_seconds, 6),
            "normalized": round(query_seconds / calibration, 4),
            "max_normalized": QUERY_MAX_NORMALIZED,
        },
    }


def _calibration_workload():
    # Fixed pure-Python work; its wall time is the unit every detector
    # time divides by.  Must never change once baselines are recorded.
    total = 0
    for i in range(1_500_000):
        total += i & 1023
    return total


def _timed(func):
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def measure(repeats):
    trace = bench_trace()
    # Interleave calibration samples with the detector samples so slow
    # drift (frequency scaling, co-tenant load) hits both sides of the
    # ratio; best-of-N on each side then discards transient spikes.
    cal_samples = []
    det_samples = {label: [] for label in CONFIGS}
    legacy_samples = {label: [] for label in CONFIGS}
    avg_samples = {label: [] for label in AVERAGE_CONFIGS}
    avg_legacy_samples = {label: [] for label in AVERAGE_CONFIGS}
    family_samples = {label: [] for label in FAMILY_CONFIGS}
    bank_configs = _bank_configs()
    cold_samples = []
    zero_copy_samples = []
    scalar_score_samples = []
    batch_score_samples = []
    matrix, score_baselines = _batch_scoring_fixture(trace)
    _calibration_workload()  # warm up the interpreter before timing
    run_detector(trace, next(iter(CONFIGS.values())))
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as tmp_dir:
        warm_path = _warm_start_fixture(tmp_dir, trace)
        _warm_start_cold(warm_path)  # prime the OS page cache for both sides
        for _ in range(repeats):
            cal_samples.append(_timed(_calibration_workload))
            for label, config in CONFIGS.items():
                # Default path: array-native kernels (kernels default on).
                det_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c, kernels=True))
                )
                legacy_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c, kernels=False))
                )
            for label, config in AVERAGE_CONFIGS.items():
                avg_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c, kernels=True))
                )
                avg_legacy_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c, kernels=False))
                )
            for label, config in FAMILY_CONFIGS.items():
                family_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c))
                )
            cold_samples.append(_timed(lambda: _warm_start_cold(warm_path)))
            zero_copy_samples.append(
                _timed(lambda: _warm_start_zero_copy(warm_path))
            )
            scalar_score_samples.append(
                _timed(lambda: _score_scalar(matrix, score_baselines))
            )
            batch_score_samples.append(
                _timed(lambda: score_states_batch(matrix, score_baselines))
            )
        warm_elements = len(read_trace_binary(warm_path, mmap=True))
    calibration = min(cal_samples)
    seq_seconds, bank_seconds, seq_kernel_seconds, batched_seconds = (
        _measure_bank(trace, bank_configs)
    )
    serve_row = _measure_serve(calibration)
    telemetry_row = _measure_telemetry(calibration)
    store_row = _measure_store(calibration)
    cold_seconds = min(cold_samples)
    zero_copy_seconds = min(zero_copy_samples)
    scalar_score_seconds = min(scalar_score_samples)
    batch_score_seconds = min(batch_score_samples)
    configs = {}
    kernel_rows = {}
    for label in CONFIGS:
        seconds = min(det_samples[label])
        configs[label] = {
            "seconds": round(seconds, 6),
            "normalized": round(seconds / calibration, 4),
        }
        legacy_seconds = min(legacy_samples[label])
        kernel_rows[label] = {
            "kernel_seconds": round(seconds, 6),
            "legacy_seconds": round(legacy_seconds, 6),
            "speedup": round(legacy_seconds / seconds, 4),
        }
    average_rows = {}
    for label in AVERAGE_CONFIGS:
        seconds = min(avg_samples[label])
        legacy_seconds = min(avg_legacy_samples[label])
        average_rows[label] = {
            "kernel_seconds": round(seconds, 6),
            "legacy_seconds": round(legacy_seconds, 6),
            "speedup": round(legacy_seconds / seconds, 4),
        }
    families = {}
    for label in FAMILY_CONFIGS:
        seconds = min(family_samples[label])
        families[label] = {
            "seconds": round(seconds, 6),
            "normalized": round(seconds / calibration, 4),
        }
    return {
        "version": BASELINE_VERSION,
        "kind": "bench-baseline",
        "benchmark": "perf_detector_null_path",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repeats": repeats,
        "elements": len(trace),
        "calibration_seconds": round(calibration, 6),
        "configs": configs,
        "families": families,
        "bank": {
            "size": BANK_SIZE,
            "interleave": BANK_INTERLEAVE,
            "sequential_seconds": round(seq_seconds, 6),
            "sequential_normalized": round(seq_seconds / calibration, 4),
            "bank_seconds": round(bank_seconds, 6),
            "bank_normalized": round(bank_seconds / calibration, 4),
            "speedup": round(seq_seconds / bank_seconds, 4),
            "min_speedup": BANK_MIN_SPEEDUP,
            "batched": {
                "sequential_kernel_seconds": round(seq_kernel_seconds, 6),
                "batched_seconds": round(batched_seconds, 6),
                "speedup": round(seq_kernel_seconds / batched_seconds, 4),
                "min_speedup": BANK_BATCHED_MIN_SPEEDUP,
            },
        },
        "kernels": {
            "min_speedups": KERNEL_MIN_SPEEDUPS,
            "configs": kernel_rows,
            "average": {
                "min_speedups": AVERAGE_KERNEL_MIN_SPEEDUPS,
                "configs": average_rows,
            },
        },
        "zero_copy": {
            "warm_start": {
                "elements": warm_elements,
                "cold_seconds": round(cold_seconds, 6),
                "zero_copy_seconds": round(zero_copy_seconds, 6),
                "speedup": round(cold_seconds / zero_copy_seconds, 4),
                "min_speedup": WARM_START_MIN_SPEEDUP,
            },
            "batch_scoring": {
                "lanes": int(matrix.shape[0]),
                "elements": int(matrix.shape[1]),
                "baselines": len(score_baselines),
                "scalar_seconds": round(scalar_score_seconds, 6),
                "batch_seconds": round(batch_score_seconds, 6),
                "speedup": round(scalar_score_seconds / batch_score_seconds, 4),
                "min_speedup": BATCH_MIN_SPEEDUP,
            },
        },
        "serve": serve_row,
        "telemetry": telemetry_row,
        "store": store_row,
        "aggregate_normalized": round(
            sum(entry["normalized"] for entry in configs.values()), 4
        ),
        "aggregate_families_normalized": round(
            sum(entry["normalized"] for entry in families.values()), 4
        ),
        "environment": environment_info(),
    }


def latest_baseline():
    """The most recently *recorded* baseline, by its ``created_at``
    stamp — filename order is not recording order (several baselines
    share a date prefix and sort alphabetically by suffix)."""
    candidates = sorted(
        BENCH_DIR.glob("BENCH_*.json"),
        key=lambda path: (
            json.loads(path.read_text(encoding="utf-8")).get("created_at", ""),
            path.name,
        ),
    )
    return candidates[-1] if candidates else None


def _print_report(result):
    print(f"calibration: {result['calibration_seconds']:.4f}s "
          f"(repeats={result['repeats']})")
    for label, entry in result["configs"].items():
        print(f"  {label:22s} {entry['seconds']:.4f}s "
              f"normalized={entry['normalized']:.4f}")
    for label, entry in result["families"].items():
        print(f"  family {label:15s} {entry['seconds']:.4f}s "
              f"normalized={entry['normalized']:.4f}")
    for label, row in result["kernels"]["configs"].items():
        print(f"  kernel {label:15s} {row['kernel_seconds']:.4f}s vs "
              f"legacy {row['legacy_seconds']:.4f}s "
              f"(speedup {row['speedup']:.2f}x)")
    for label, row in result["kernels"]["average"]["configs"].items():
        print(f"  kernel avg {label:11s} {row['kernel_seconds']:.4f}s vs "
              f"legacy {row['legacy_seconds']:.4f}s "
              f"(speedup {row['speedup']:.2f}x)")
    bank = result["bank"]
    print(f"  bank[{bank['size']}] sequential   {bank['sequential_seconds']:.4f}s "
          f"normalized={bank['sequential_normalized']:.4f}")
    print(f"  bank[{bank['size']}] single-pass  {bank['bank_seconds']:.4f}s "
          f"normalized={bank['bank_normalized']:.4f} "
          f"(speedup {bank['speedup']:.2f}x)")
    batched = bank["batched"]
    print(f"  bank[{bank['size']}] batched      {batched['batched_seconds']:.4f}s "
          f"vs sequential kernels {batched['sequential_kernel_seconds']:.4f}s "
          f"(speedup {batched['speedup']:.2f}x)")
    warm = result["zero_copy"]["warm_start"]
    print(f"  warm-start[{warm['elements']} elems] cold {warm['cold_seconds']:.4f}s "
          f"vs zero-copy {warm['zero_copy_seconds']:.4f}s "
          f"(speedup {warm['speedup']:.2f}x)")
    batch = result["zero_copy"]["batch_scoring"]
    print(f"  batch-score[{batch['lanes']}x{batch['baselines']}] "
          f"scalar {batch['scalar_seconds']:.4f}s vs "
          f"batch {batch['batch_seconds']:.4f}s "
          f"(speedup {batch['speedup']:.2f}x)")
    serve = result["serve"]
    print(f"  serve[{serve['sessions']} sessions] "
          f"{serve['events_per_sec']:.0f} events/s "
          f"normalized={serve['normalized_throughput']:.0f} "
          f"p50={serve['latency_p50_ms']:.2f}ms "
          f"p99={serve['latency_p99_ms']:.2f}ms "
          f"verified={serve['verified']}")
    print(f"  serve parked[{serve['parked_sessions']} sessions] "
          f"parks={serve['parked_parks']} "
          f"rehydrations={serve['parked_rehydrations']} "
          f"verified={serve['parked_verified']}")
    telemetry = result["telemetry"]
    print(f"  telemetry[{telemetry['sessions']} sessions] "
          f"off {telemetry['off_events_per_sec']:.0f} events/s vs "
          f"on {telemetry['on_events_per_sec']:.0f} events/s "
          f"(overhead {telemetry['overhead']:+.1%}, "
          f"flight {telemetry['flight_samples']} samples)")
    store = result["store"]
    print(f"  store[{store['rows']} rows/{store['chunks']} chunks] "
          f"legacy {store['legacy_seconds']:.4f}s vs "
          f"compact {store['compact_seconds']:.4f}s "
          f"(speedup {store['speedup']:.2f}x, "
          f"byte-identical={store['byte_identical']})")
    print(f"  store ingest {store['ingest_seconds']:.4f}s "
          f"({store['ingest_rows_per_sec']:.0f} rows/s into SQLite)")
    resume = store["resume"]
    print(f"  resume[{resume['planned']} planned] "
          f"{resume['present']} present -> {resume['missing']} missing "
          f"(exact={resume['exact']}, scan {resume['scan_seconds']:.4f}s)")
    query = store["query"]
    print(f"  query[{query['rows']} rows] best-scores "
          f"{query['seconds']:.4f}s normalized={query['normalized']:.4f}")
    print(f"aggregate normalized score: {result['aggregate_normalized']:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write a new baseline instead of checking")
    parser.add_argument("--out", type=Path, default=None,
                        help="baseline path for --record "
                             "(default: benchmarks/BENCH_<date>_perf_detector.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline to check against "
                             "(default: newest benchmarks/BENCH_*.json)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repetitions per measurement")
    args = parser.parse_args(argv)

    result = measure(args.repeats)
    _print_report(result)

    if args.record:
        out = args.out
        if out is None:
            stamp = result["created_at"][:10]
            out = BENCH_DIR / f"BENCH_{stamp}_perf_detector.json"
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"baseline recorded: {out}")
        return 0

    baseline_path = args.baseline or latest_baseline()
    if baseline_path is None or not baseline_path.exists():
        print("error: no baseline found (record one with --record)",
              file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("version", 0) != BASELINE_VERSION:
        print(f"error: {baseline_path} has unsupported version "
              f"{baseline.get('version')}", file=sys.stderr)
        return 2
    reference = float(baseline["aggregate_normalized"])
    current = float(result["aggregate_normalized"])
    change = (current - reference) / reference
    print(f"baseline {baseline_path.name}: aggregate {reference:.4f} "
          f"(recorded {baseline.get('created_at')})")
    print(f"change: {change:+.1%} (tolerance {args.tolerance:+.0%})")
    if change > args.tolerance:
        print(f"FAIL: null-path detector benchmark regressed {change:+.1%} "
              f"(> {args.tolerance:.0%}) vs {baseline_path.name}",
              file=sys.stderr)
        return 1
    families_ref = baseline.get("aggregate_families_normalized")
    if families_ref is not None:
        families_current = float(result["aggregate_families_normalized"])
        families_change = (
            (families_current - float(families_ref)) / float(families_ref)
        )
        print(f"families aggregate: {families_current:.4f} "
              f"(baseline {float(families_ref):.4f}, "
              f"change {families_change:+.1%})")
        if families_change > args.tolerance:
            print(f"FAIL: decision-family benchmark regressed "
                  f"{families_change:+.1%} (> {args.tolerance:.0%}) vs "
                  f"{baseline_path.name}", file=sys.stderr)
            return 1
    bank_ref = baseline.get("bank")
    if bank_ref is not None:
        # The bank gate is the sequential/bank ratio, not wall time: both
        # sides are measured in the same run, so the check is immune to
        # host-speed drift that the calibration cannot fully cancel.
        speedup = float(result["bank"]["speedup"])
        print(f"bank speedup: {speedup:.2f}x "
              f"(baseline {float(bank_ref['speedup']):.2f}x, "
              f"gate >= {BANK_MIN_SPEEDUP:.2f}x)")
        if speedup < BANK_MIN_SPEEDUP:
            print(f"FAIL: {BANK_SIZE}-config bank was only {speedup:.2f}x "
                  f"{BANK_SIZE} sequential run_detector calls "
                  f"(gate {BANK_MIN_SPEEDUP:.2f}x)", file=sys.stderr)
            return 1
    # Batched-advancer gate: kernels on both sides, so the ratio
    # isolates the per-signature series sharing, not vectorization.
    batched_speedup = float(result["bank"]["batched"]["speedup"])
    print(f"bank batched speedup: {batched_speedup:.2f}x "
          f"(gate >= {BANK_BATCHED_MIN_SPEEDUP:.2f}x)")
    if batched_speedup < BANK_BATCHED_MIN_SPEEDUP:
        print(f"FAIL: batched bank advancer was only {batched_speedup:.2f}x "
              f"{BANK_SIZE} sequential kernel runs "
              f"(gate {BANK_BATCHED_MIN_SPEEDUP:.2f}x)", file=sys.stderr)
        return 1
    # Kernel gates: same-run kernel/legacy ratios, so they need no
    # baseline and no calibration — both sides ran on this host seconds
    # apart.  One floor per vectorized config.
    for gate_config, min_speedup in KERNEL_MIN_SPEEDUPS.items():
        kernel_speedup = float(
            result["kernels"]["configs"][gate_config]["speedup"]
        )
        print(f"kernel speedup ({gate_config}): {kernel_speedup:.2f}x "
              f"(gate >= {min_speedup:.1f}x)")
        if kernel_speedup < min_speedup:
            print(f"FAIL: array-native kernel path was only "
                  f"{kernel_speedup:.2f}x the legacy fused loop on "
                  f"{gate_config} (gate {min_speedup:.1f}x)",
                  file=sys.stderr)
            return 1
    for gate_config, min_speedup in AVERAGE_KERNEL_MIN_SPEEDUPS.items():
        kernel_speedup = float(
            result["kernels"]["average"]["configs"][gate_config]["speedup"]
        )
        print(f"kernel speedup (average {gate_config}): {kernel_speedup:.2f}x "
              f"(gate >= {min_speedup:.1f}x)")
        if kernel_speedup < min_speedup:
            print(f"FAIL: array-native kernel path was only "
                  f"{kernel_speedup:.2f}x the legacy fused loop on "
                  f"average {gate_config} (gate {min_speedup:.1f}x)",
                  file=sys.stderr)
            return 1
    # Zero-copy gates: same-run ratios, baseline-independent like the
    # kernel gate.
    warm_speedup = float(result["zero_copy"]["warm_start"]["speedup"])
    print(f"warm-start speedup: {warm_speedup:.2f}x "
          f"(gate > {WARM_START_MIN_SPEEDUP:.1f}x)")
    if warm_speedup <= WARM_START_MIN_SPEEDUP:
        print(f"FAIL: mmap + sidecar warm start was not faster than the "
              f"heap read + unique pass ({warm_speedup:.2f}x)",
              file=sys.stderr)
        return 1
    batch_speedup = float(result["zero_copy"]["batch_scoring"]["speedup"])
    print(f"batch-scoring speedup: {batch_speedup:.2f}x "
          f"(gate >= {BATCH_MIN_SPEEDUP:.1f}x)")
    if batch_speedup < BATCH_MIN_SPEEDUP:
        print(f"FAIL: score_states_batch was only {batch_speedup:.2f}x the "
              f"per-pair score_states loop (gate {BATCH_MIN_SPEEDUP:.1f}x)",
              file=sys.stderr)
        return 1
    # Serving gates: correctness flags are absolute (a mismatch anywhere
    # is a real bug); throughput uses the calibration-normalized floor so
    # the check survives host-speed differences.
    serve = result["serve"]
    print(f"serve: {serve['sessions']} sessions, "
          f"normalized throughput {serve['normalized_throughput']:.0f} "
          f"(gate >= {SERVE_MIN_NORMALIZED_THROUGHPUT:.0f})")
    if serve["sessions"] < SERVE_SESSIONS:
        print(f"FAIL: serve-bench ran only {serve['sessions']} concurrent "
              f"sessions (gate {SERVE_SESSIONS})", file=sys.stderr)
        return 1
    if serve["verified"] is not True or serve["parked_verified"] is not True:
        print("FAIL: served phase streams were not byte-identical to the "
              "offline detector (main verified="
              f"{serve['verified']}, parked verified="
              f"{serve['parked_verified']})", file=sys.stderr)
        return 1
    if serve["parked_parks"] < 1:
        print("FAIL: forced-eviction serve run never parked a session — "
              "the park/rehydrate path went unexercised", file=sys.stderr)
        return 1
    if serve["normalized_throughput"] < SERVE_MIN_NORMALIZED_THROUGHPUT:
        print(f"FAIL: serving throughput {serve['normalized_throughput']:.0f} "
              f"normalized events/s fell below the floor "
              f"{SERVE_MIN_NORMALIZED_THROUGHPUT:.0f}", file=sys.stderr)
        return 1
    # Telemetry gates: a same-run on/off ratio (drift-immune like the
    # kernel gate) plus an absolute flight-record completeness check.
    telemetry = result["telemetry"]
    print(f"telemetry overhead: {telemetry['overhead']:+.1%} "
          f"(gate <= {TELEMETRY_MAX_OVERHEAD:+.0%})")
    if telemetry["overhead"] > TELEMETRY_MAX_OVERHEAD:
        print(f"FAIL: serving with the flight recorder enabled was "
              f"{telemetry['overhead']:+.1%} slower than telemetry off "
              f"(gate {TELEMETRY_MAX_OVERHEAD:.0%})", file=sys.stderr)
        return 1
    if telemetry["flight_events_in"] != telemetry["elements"]:
        print(f"FAIL: flight-record deltas summed to "
              f"{telemetry['flight_events_in']} events but the run fed "
              f"{telemetry['elements']} — the spool lost samples",
              file=sys.stderr)
        return 1
    # Store gates: the persistence ratio is same-run (drift-immune);
    # byte-identity and resume exactness are absolute correctness
    # claims; query latency uses the calibration-normalized ceiling.
    store = result["store"]
    print(f"store persistence speedup: {store['speedup']:.2f}x "
          f"(gate >= {STORE_MIN_SPEEDUP:.1f}x)")
    if not store["byte_identical"]:
        print("FAIL: chunk-store compaction produced a cache that is not "
              "byte-identical to the ordered-delivery append path",
              file=sys.stderr)
        return 1
    if store["speedup"] < STORE_MIN_SPEEDUP:
        print(f"FAIL: chunk compaction (incl. SQLite ingest) was only "
              f"{store['speedup']:.2f}x the legacy per-row parent loop "
              f"(gate {STORE_MIN_SPEEDUP:.1f}x)", file=sys.stderr)
        return 1
    resume = store["resume"]
    print(f"store resume: {resume['missing']}/{resume['planned']} missing "
          f"(exact={resume['exact']})")
    if not resume["exact"]:
        print(f"FAIL: resume scan over {resume['planned']} planned chunks "
              f"with {resume['present']} present did not return exactly "
              f"the absent set ({resume['missing']} returned)",
              file=sys.stderr)
        return 1
    query = store["query"]
    print(f"store query normalized: {query['normalized']:.4f} "
          f"(gate <= {QUERY_MAX_NORMALIZED:.2f})")
    if query["normalized"] > QUERY_MAX_NORMALIZED:
        print(f"FAIL: best-scores query took {query['normalized']:.4f} "
              f"calibration units over {query['rows']} rows "
              f"(ceiling {QUERY_MAX_NORMALIZED:.2f}) — check the indexes",
              file=sys.stderr)
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
