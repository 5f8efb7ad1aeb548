"""Array-native kernel tests: bit-identical to the fused loop, and the
selection machinery (eligibility predicates, env/flag plumbing, bank
partitioning) routes every configuration to a correct path."""

import json

import numpy as np
import pytest

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.analyzers import AverageAnalyzer
from repro.core.bank import DetectorBank
from repro.core.engine import run_detector
from repro.core.kernels import (
    kernel_path,
    kernels_enabled,
    run_bank_batched,
    run_dense,
    run_vectorized,
    vectorized_eligible,
)
from repro.core.runtime import DetectorRuntime
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import SyntheticTraceBuilder
from repro.profiles.trace import BranchTrace


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(seed=71)
    builder.add_transition(150)
    builder.add_phase(1_100, body_size=9, noise_rate=0.03)
    builder.add_transition(120)
    builder.add_phase(900, body_size=21)
    builder.add_transition(80)
    builder.add_phase(600, body_size=5, noise_rate=0.01)
    return builder.build()[0]


def matrix_configs():
    """Every model x analyzer x trailing x anchor x resize combination,
    over two window geometries (one of them fixed-interval shaped)."""
    configs = []
    geometries = [
        dict(cw_size=60, tw_size=None, skip_factor=60),  # fixed-interval shape
        dict(cw_size=45, tw_size=90, skip_factor=7),
    ]
    for geometry in geometries:
        for model in ModelKind:
            for analyzer in AnalyzerKind:
                for trailing in TrailingPolicy:
                    for anchor in AnchorPolicy:
                        for resize in ResizePolicy:
                            configs.append(
                                DetectorConfig(
                                    trailing=trailing,
                                    anchor=anchor,
                                    resize=resize,
                                    model=model,
                                    analyzer=analyzer,
                                    threshold=0.5,
                                    delta=0.08,
                                    **geometry,
                                )
                            )
    return configs


def run_both(trace, config):
    """(kernel result + checkpoint, legacy result + checkpoint)."""
    kernel_rt = DetectorRuntime(config)
    kernel = kernel_rt.run(trace, kernels=True)
    legacy_rt = DetectorRuntime(config)
    legacy = legacy_rt.run(trace, kernels=False)
    return kernel, kernel_rt.checkpoint(), legacy, legacy_rt.checkpoint()


def assert_identical_runs(trace, config):
    """Kernel vs fused loop: states, phases and checkpoints.  Returns
    the kernel result and checkpoint."""
    kernel, kernel_cp, legacy, legacy_cp = run_both(trace, config)
    label = config.describe()
    assert np.array_equal(kernel.states, legacy.states), label
    assert kernel.detected_phases == legacy.detected_phases, label
    # Checkpoints serialize every piece of live state (windows, counts,
    # stats, tracker); JSON equality pins them all, including float bit
    # patterns.
    assert json.dumps(kernel_cp, sort_keys=True) == json.dumps(
        legacy_cp, sort_keys=True
    ), label
    return kernel, kernel_cp


def average_configs(**overrides):
    """Average-analyzer configs over both models, both trailing
    policies, both resize policies and two geometries."""
    configs = []
    for geometry in (
        dict(cw_size=30, skip_factor=30),
        dict(cw_size=25, tw_size=40, skip_factor=1),
    ):
        for model in ModelKind:
            for trailing in TrailingPolicy:
                for resize in ResizePolicy:
                    fields = dict(
                        analyzer=AnalyzerKind.AVERAGE, model=model,
                        trailing=trailing, resize=resize,
                        delta=0.05, enter_threshold=0.5, **geometry,
                    )
                    fields.update(overrides)
                    configs.append(DetectorConfig(**fields))
    return configs


class TestEquivalence:
    def test_full_config_matrix_bit_identical(self, trace):
        for config in matrix_configs():
            assert_identical_runs(trace, config)

    def test_phase_means_bit_identical(self, trace):
        config = DetectorConfig(cw_size=60, skip_factor=60, threshold=0.5)
        kernel, _, legacy, _ = run_both(trace, config)
        for ours, theirs in zip(kernel.detected_phases, legacy.detected_phases):
            assert ours.mean_similarity == theirs.mean_similarity

    def test_empty_and_tiny_traces(self):
        config = DetectorConfig(cw_size=5, skip_factor=3, threshold=0.5)
        for elements in ([], [1], [1, 1, 1, 1], list(range(4))):
            tiny = BranchTrace(elements)
            kernel, kernel_cp, legacy, legacy_cp = run_both(tiny, config)
            assert np.array_equal(kernel.states, legacy.states)
            assert json.dumps(kernel_cp, sort_keys=True) == json.dumps(
                legacy_cp, sort_keys=True
            )

    def test_restored_checkpoints_continue_identically(self, trace):
        """A checkpoint taken after a kernel run restores into a runtime
        that keeps advancing exactly like its legacy twin — Adaptive
        trailing under both analyzers."""
        configs = [
            DetectorConfig(
                cw_size=40, skip_factor=8, trailing=TrailingPolicy.ADAPTIVE,
                threshold=0.5,
            )
        ] + average_configs(trailing=TrailingPolicy.ADAPTIVE)
        extra = (trace.array[:400] % 9).tolist()
        for config in configs:
            _, kernel_cp, _, legacy_cp = run_both(trace, config)
            restored_kernel = DetectorRuntime.restore(kernel_cp)
            restored_legacy = DetectorRuntime.restore(legacy_cp)
            skip = config.skip_factor
            groups = [extra[i : i + skip] for i in range(0, len(extra), skip)]
            kernel_states = bytearray(len(extra))
            legacy_states = bytearray(len(extra))
            restored_kernel.advance(groups, kernel_states, 0)
            restored_legacy.advance(groups, legacy_states, 0)
            assert bytes(kernel_states) == bytes(legacy_states), config.describe()
            assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
                json.dumps(restored_legacy.checkpoint(), sort_keys=True)
            ), config.describe()


class TestAverage:
    """Average-analyzer configs on the vectorized walks, against the
    fused loop, at the edges of the running-mean exit rule."""

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_delta_extremes(self, trace, delta):
        for config in average_configs(delta=delta):
            kernel, _ = assert_identical_runs(trace, config)
            if delta == 1.0:
                # The bar is mean - 1 <= 0: the first phase runs to the
                # trace end (where finish() closes it).
                assert len(kernel.detected_phases) == 1, config.describe()
                assert kernel.detected_phases[0].end == len(trace)

    @pytest.mark.parametrize("enter_threshold", [0.0, 1.0])
    def test_enter_threshold_extremes(self, trace, enter_threshold):
        for config in average_configs(enter_threshold=enter_threshold):
            assert_identical_runs(trace, config)

    def test_phase_open_at_trace_end(self):
        builder = SyntheticTraceBuilder(seed=5)
        builder.add_transition(200)
        builder.add_phase(1_500, body_size=7)
        tail = builder.build()[0]
        for config in average_configs():
            kernel, _ = assert_identical_runs(tail, config)
            assert kernel.detected_phases[-1].end == len(tail), config.describe()
            # Before finish() closes it, the open phase's running
            # statistics (total, count, min, max) match the fused loop's.
            kernel_rt = DetectorRuntime(config)
            run_vectorized(kernel_rt, tail)
            legacy_rt = DetectorRuntime(config)
            skip = config.skip_factor
            elements = tail.array.tolist()
            legacy_rt.advance(
                [elements[i : i + skip] for i in range(0, len(elements), skip)],
                bytearray(len(elements)), 0,
            )
            kernel_cp = kernel_rt.checkpoint()
            assert kernel_cp["state"] == "P", config.describe()
            assert json.dumps(kernel_cp, sort_keys=True) == json.dumps(
                legacy_rt.checkpoint(), sort_keys=True
            ), config.describe()

    def test_phase_longer_than_largest_scan_block(self):
        from repro.core.kernels import _BLOCK_STEPS

        builder = SyntheticTraceBuilder(seed=9)
        builder.add_transition(150)
        builder.add_phase(4 * _BLOCK_STEPS, body_size=4)
        builder.add_transition(300)
        long_phase = builder.build()[0]
        for config in average_configs(skip_factor=1, cw_size=20, tw_size=None):
            kernel, _ = assert_identical_runs(long_phase, config)
            longest = max(
                phase.end - phase.detected_start
                for phase in kernel.detected_phases
            )
            assert longest > 2 * _BLOCK_STEPS, config.describe()


class TestEligibility:
    def test_vectorized_covers_threshold_constant(self):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        assert vectorized_eligible(runtime)

    def test_average_analyzer_is_vectorized(self):
        for trailing in TrailingPolicy:
            for model in ModelKind:
                runtime = DetectorRuntime(
                    DetectorConfig(
                        cw_size=20, skip_factor=5, trailing=trailing,
                        model=model, analyzer=AnalyzerKind.AVERAGE,
                    )
                )
                assert vectorized_eligible(runtime)
                assert kernel_path(runtime, kernels=True) == "vectorized"
                assert kernel_path(runtime, kernels=False) == "legacy"

    def test_adaptive_trailing_is_vectorized(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, trailing=TrailingPolicy.ADAPTIVE)
        )
        assert vectorized_eligible(runtime)

    def test_weighted_vectorized_for_any_geometry(self):
        fixed = DetectorRuntime(
            DetectorConfig(cw_size=30, skip_factor=30, model=ModelKind.WEIGHTED)
        )
        assert vectorized_eligible(fixed)
        offset = DetectorRuntime(
            DetectorConfig(cw_size=30, skip_factor=7, model=ModelKind.WEIGHTED)
        )
        assert vectorized_eligible(offset)

    def test_observed_runtime_ineligible(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5), observer=MemorySink()
        )
        assert not vectorized_eligible(runtime)
        assert kernel_path(runtime, kernels=True) == "legacy"

    @pytest.mark.parametrize("profile_name", ["quick", "default"])
    def test_every_paper_grid_config_is_vectorized(self, profile_name):
        from repro.experiments.config_space import PROFILES, paper_grid

        profile = PROFILES[profile_name]
        for spec in paper_grid(profile):
            runtime = DetectorRuntime(spec.to_config(profile))
            assert kernel_path(runtime, kernels=True) == "vectorized", spec

    def test_consumed_runtime_ineligible(self, trace):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        states = bytearray(10)
        runtime.advance([trace.array[:10].tolist()], states, 0)
        assert not vectorized_eligible(runtime)
        assert kernel_path(runtime, kernels=True) == "legacy"

    def test_kernel_entry_points_reject_ineligible(self, trace):
        """Average configs are eligible; observed, restored and
        custom-component runtimes are still rejected by every entry
        point."""
        average = DetectorConfig(
            cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE
        )
        observed = DetectorRuntime(average, observer=MemorySink())
        consumed = DetectorRuntime(average)
        consumed.advance([trace.array[:5].tolist()], bytearray(5), 0)
        restored = DetectorRuntime.restore(consumed.checkpoint())
        custom = DetectorRuntime(average)
        custom.analyzer = type("CustomAverage", (AverageAnalyzer,), {})(
            average.delta, average.enter_threshold
        )
        for runtime in (observed, restored, custom):
            for entry_point in (run_vectorized, run_dense):
                with pytest.raises(ValueError):
                    entry_point(runtime, trace)
            with pytest.raises(ValueError):
                run_bank_batched([runtime], trace)


class TestSelection:
    def test_env_variable_disables_kernels(self, monkeypatch):
        for value in ("0", "false", "off", "no", " OFF "):
            monkeypatch.setenv("REPRO_KERNELS", value)
            assert not kernels_enabled()
        for value in ("", "1", "on", "yes"):
            monkeypatch.setenv("REPRO_KERNELS", value)
            assert kernels_enabled()
        monkeypatch.delenv("REPRO_KERNELS")
        assert kernels_enabled()

    def test_engine_flag_and_env_agree(self, trace, monkeypatch):
        config = DetectorConfig(cw_size=50, skip_factor=10, threshold=0.5)
        enabled = run_detector(trace, config, kernels=True)
        disabled = run_detector(trace, config, kernels=False)
        monkeypatch.setenv("REPRO_KERNELS", "0")
        env_disabled = run_detector(trace, config)
        assert np.array_equal(enabled.states, disabled.states)
        assert np.array_equal(enabled.states, env_disabled.states)
        assert enabled.detected_phases == disabled.detected_phases

    def test_observed_run_matches_kernel_run(self, trace):
        """An observer forces the legacy path; output must not change."""
        config = DetectorConfig(cw_size=50, skip_factor=10, threshold=0.5)
        observed = run_detector(trace, config, observer=MemorySink())
        kernel = run_detector(trace, config, kernels=True)
        assert np.array_equal(observed.states, kernel.states)
        assert observed.detected_phases == kernel.detected_phases


class TestBank:
    def grid(self):
        configs = []
        for model in ModelKind:
            for analyzer in AnalyzerKind:
                for trailing in TrailingPolicy:
                    configs.append(
                        DetectorConfig(
                            cw_size=40,
                            skip_factor=8,
                            trailing=trailing,
                            model=model,
                            analyzer=analyzer,
                            threshold=0.5,
                            delta=0.07,
                        )
                    )
        return configs

    def test_bank_kernels_match_bank_legacy_and_solo(self, trace):
        configs = self.grid()
        kernel_bank = DetectorBank(configs).run(trace, kernels=True)
        legacy_bank = DetectorBank(configs).run(trace, kernels=False)
        for config, ours, theirs in zip(configs, kernel_bank, legacy_bank):
            solo = run_detector(trace, config, kernels=False)
            assert np.array_equal(ours.states, theirs.states)
            assert np.array_equal(ours.states, solo.states)
            assert ours.detected_phases == theirs.detected_phases
            assert ours.detected_phases == solo.detected_phases

    def test_observed_bank_matches_kernel_bank(self, trace):
        """Observers force every bank member onto the legacy lanes."""
        configs = self.grid()[:4]
        sink = MemorySink()
        observed = DetectorBank(configs, observers=[sink] * len(configs)).run(trace)
        kernel = DetectorBank(configs).run(trace, kernels=True)
        for ours, theirs in zip(observed, kernel):
            assert np.array_equal(ours.states, theirs.states)
            assert ours.detected_phases == theirs.detected_phases
