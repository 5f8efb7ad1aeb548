"""Bank sweeps vs solo runs: same records, byte-identical cache.

The reference is one :func:`~repro.core.engine.run_detector` call per
grid point on the legacy fused loop (``kernels=False``), scored lane by
lane with the scalar :func:`~repro.scoring.metric.score_states`.
"""

import json

from repro.core.config import AnalyzerKind, ModelKind
from repro.core.engine import run_detector
from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.experiments.runner import BaselineSet, _make_record, evaluate_bank
from repro.experiments.store import cache_line
from repro.experiments.sweep import Sweep
from repro.scoring.metric import score_states
from repro.workloads.suite import load_traces

TINY = SuiteProfile(
    name="tinybank",
    workload_scale=0.08,
    thresholds=(0.6,),
    deltas=(0.05,),
    cw_nominals=(500, 5_000),
)

SPECS = [
    ConfigSpec("constant", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("constant", 5_000, ModelKind.WEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 5_000, ModelKind.UNWEIGHTED, AnalyzerKind.AVERAGE, 0.05),
]

MPLS = (1_000, 10_000)
BENCHMARKS = ["db", "jlex"]
CACHE_NAME = "sweep-tinybank.jsonl"


def solo_records(trace, baselines, specs, profile, kernels=False):
    """One solo detector run per spec, scored per MPL with the scalar
    scorer — records in the bank's lane-major, MPL-minor order."""
    records = []
    for spec in specs:
        result = run_detector(trace, spec.to_config(profile), kernels=kernels)
        corrected_states = result.corrected_states()
        corrected_phases = result.corrected_phases()
        for nominal in baselines.mpl_nominals:
            base_states = baselines.states(nominal)
            plain = score_states(result.states, base_states)
            corrected = score_states(
                corrected_states, base_states, detected_phases=corrected_phases
            )
            records.append(_make_record(baselines, spec, nominal, plain, corrected))
    return records


def _run_sweep(cache_dir, jobs, kernels=None):
    sweep = Sweep(
        TINY,
        cache_dir=cache_dir,
        benchmarks=BENCHMARKS,
        mpl_nominals=MPLS,
        kernels=kernels,
    )
    records = sweep.ensure(SPECS, jobs=jobs)
    return sweep, records, (cache_dir / CACHE_NAME).read_bytes()


def _solo_sweep(sweep):
    """The records and cache bytes a sweep must match, from solo runs."""
    records = []
    for benchmark in BENCHMARKS:
        branch_trace, _ = sweep.traces[benchmark]
        records.extend(
            solo_records(branch_trace, sweep.baselines(benchmark), SPECS, TINY)
        )
    cache = "".join(
        cache_line(record, sweep._fingerprint(record.benchmark)) for record in records
    )
    return records, cache.encode("utf-8")


class TestBankSerialEquivalence:
    def test_cache_bytes_identical_serial_jobs(self, tmp_path):
        sweep, bank_records, bank_cache = _run_sweep(tmp_path / "bank", jobs=1)
        solo, solo_cache = _solo_sweep(sweep)
        assert bank_records == solo
        assert bank_cache == solo_cache

    def test_cache_bytes_identical_parallel_jobs(self, tmp_path):
        sweep, bank_records, bank_cache = _run_sweep(tmp_path / "bank", jobs=2)
        solo, solo_cache = _solo_sweep(sweep)
        assert bank_records == solo
        assert bank_cache == solo_cache

    def test_manifests_identical_modulo_timing(self, tmp_path):
        _run_sweep(tmp_path / "kernels", jobs=2)
        _run_sweep(tmp_path / "legacy", jobs=2, kernels=False)
        manifests = []
        for mode in ("kernels", "legacy"):
            path = tmp_path / mode / "sweep-tinybank.manifest.json"
            data = json.loads(path.read_text())
            # Strip run-dependent timing/identity, keep the work accounting
            # (fingerprints, grid, record counts).
            for key in ("created_at", "elapsed_seconds", "workers", "metrics",
                        "chunk_profiles", "environment"):
                data.pop(key, None)
            manifests.append(data)
        assert manifests[0] == manifests[1]


class TestEvaluateBank:
    def _fixtures(self, tmp_path):
        trace, _ = load_traces(
            BENCHMARKS[0], scale=TINY.workload_scale, cache_dir=tmp_path
        )
        baselines = BaselineSet.for_benchmark(
            BENCHMARKS[0], TINY, MPLS, cache_dir=tmp_path
        )
        return trace, baselines

    def test_banked_records_equal_serial_records(self, tmp_path):
        trace, baselines = self._fixtures(tmp_path)
        banked = evaluate_bank(trace, baselines, SPECS, TINY)
        serial = solo_records(trace, baselines, SPECS, TINY)
        assert banked == serial
        assert len(banked) == len(SPECS) * len(MPLS)

    def test_batching_respects_bank_size(self, tmp_path):
        """bank_size smaller than the spec list still covers every spec
        in order (multiple bank batches)."""
        trace, baselines = self._fixtures(tmp_path)
        batched = evaluate_bank(trace, baselines, SPECS, TINY, bank_size=2)
        serial = solo_records(trace, baselines, SPECS, TINY)
        assert batched == serial
