"""Property-based equivalence: array-native kernels vs the fused loop.

The fused loop is itself pinned to the reference ``PhaseDetector`` by
``test_engine_properties``; these properties close the chain by pinning
the kernels (the vectorized fast paths — constant, adaptive, and
weighted walks under both analyzers' exit rules, solo and through the
batched bank advancer) to the fused loop across the full configuration space —
states, phases, checkpoints, and checkpoint-restore-then-continue
interleavings, including checkpoints taken mid-episode (inside an open
phase, Adaptive TW still growing).
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.bank import DetectorBank
from repro.core.runtime import DetectorRuntime
from repro.profiles.trace import BranchTrace

# Small alphabets make both repetition and collisions likely.
elements = st.integers(min_value=0, max_value=12)

configs = st.builds(
    DetectorConfig,
    cw_size=st.integers(min_value=1, max_value=12),
    tw_size=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    skip_factor=st.integers(min_value=1, max_value=9),
    trailing=st.sampled_from(list(TrailingPolicy)),
    anchor=st.sampled_from(list(AnchorPolicy)),
    resize=st.sampled_from(list(ResizePolicy)),
    model=st.sampled_from(list(ModelKind)),
    analyzer=st.sampled_from(list(AnalyzerKind)),
    threshold=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    delta=st.sampled_from([0.01, 0.1, 0.3]),
    enter_threshold=st.sampled_from([0.4, 0.6]),
)


def run_both(trace, config):
    kernel_rt = DetectorRuntime(config)
    kernel = kernel_rt.run(trace, kernels=True)
    legacy_rt = DetectorRuntime(config)
    legacy = legacy_rt.run(trace, kernels=False)
    return kernel, kernel_rt, legacy, legacy_rt


def assert_identical(kernel, kernel_rt, legacy, legacy_rt):
    assert np.array_equal(kernel.states, legacy.states)
    assert kernel.detected_phases == legacy.detected_phases
    assert json.dumps(kernel_rt.checkpoint(), sort_keys=True) == (
        json.dumps(legacy_rt.checkpoint(), sort_keys=True)
    )


@settings(max_examples=150, deadline=None)
@given(trace=st.lists(elements, min_size=0, max_size=400), config=configs)
def test_kernels_match_fused_on_random_traces(trace, config):
    assert_identical(*run_both(BranchTrace(trace), config))


@settings(max_examples=60, deadline=None)
@given(
    body=st.integers(min_value=1, max_value=6),
    repeats=st.integers(min_value=10, max_value=60),
    noise=st.integers(min_value=0, max_value=40),
    config=configs,
)
def test_kernels_match_fused_on_structured_traces(body, repeats, noise, config):
    """Phased traces exercise entries, exits, growth, and anchoring."""
    phase = list(range(body)) * repeats
    transition = list(range(100, 100 + noise))
    trace = BranchTrace(transition + phase + transition + phase)
    assert_identical(*run_both(trace, config))


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(elements, min_size=1, max_size=300),
    extra=st.lists(elements, min_size=1, max_size=120),
    config=configs,
)
def test_kernel_checkpoints_restore_and_continue(trace, extra, config):
    """Restore from a post-kernel-run checkpoint and keep streaming: the
    continuation stays in lockstep with the legacy twin, including at
    chunk boundaries that split skip groups."""
    kernel, kernel_rt, legacy, legacy_rt = run_both(BranchTrace(trace), config)
    restored_kernel = DetectorRuntime.restore(kernel_rt.checkpoint())
    restored_legacy = DetectorRuntime.restore(legacy_rt.checkpoint())
    skip = config.skip_factor
    groups = [extra[i : i + skip] for i in range(0, len(extra), skip)]
    kernel_states = bytearray(len(extra))
    legacy_states = bytearray(len(extra))
    restored_kernel.advance(groups, kernel_states, 0)
    restored_legacy.advance(groups, legacy_states, 0)
    assert bytes(kernel_states) == bytes(legacy_states)
    assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
        json.dumps(restored_legacy.checkpoint(), sort_keys=True)
    )


@settings(max_examples=50, deadline=None)
@given(
    body=st.integers(min_value=1, max_value=5),
    lead=st.lists(elements, min_size=0, max_size=80),
    tail_repeats=st.integers(min_value=20, max_value=80),
    extra=st.lists(elements, min_size=1, max_size=120),
    config=configs,
)
def test_restore_and_continue_mid_episode(body, lead, tail_repeats, extra, config):
    """Checkpoints taken *inside* a phase episode restore exactly.

    The trace ends mid-phase (a long pure repetition tail), so for
    configurations that detect it the checkpoint captures an open
    episode — for Adaptive trailing, a TW still in growth mode.  The
    restored runtime must continue in lockstep with its legacy twin
    through the phase's eventual exit (the random ``extra`` stream).
    """
    phase_tail = list(range(body)) * tail_repeats
    kernel, kernel_rt, legacy, legacy_rt = run_both(
        BranchTrace(lead + phase_tail), config
    )
    assert_identical(kernel, kernel_rt, legacy, legacy_rt)
    restored_kernel = DetectorRuntime.restore(kernel_rt.checkpoint())
    restored_legacy = DetectorRuntime.restore(legacy_rt.checkpoint())
    skip = config.skip_factor
    groups = [extra[i : i + skip] for i in range(0, len(extra), skip)]
    kernel_states = bytearray(len(extra))
    legacy_states = bytearray(len(extra))
    restored_kernel.advance(groups, kernel_states, 0)
    restored_legacy.advance(groups, legacy_states, 0)
    assert bytes(kernel_states) == bytes(legacy_states)
    assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
        json.dumps(restored_legacy.checkpoint(), sort_keys=True)
    )


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(elements, min_size=0, max_size=300),
    bank_configs=st.lists(configs, min_size=1, max_size=6),
)
def test_batched_bank_matches_sequential_legacy(trace, bank_configs):
    """The batched bank advancer (shared per-signature series) is a pure
    cache: states, phases, and checkpoints of every lane are identical
    to per-lane legacy runs — for any mix of constant/adaptive,
    unweighted/weighted, threshold/average lanes and any geometry
    overlap between lanes (shared signatures exercise the cache)."""
    branch_trace = BranchTrace(trace)
    bank = DetectorBank(bank_configs)
    batched = bank.run(branch_trace, kernels=True, batched=True)
    solo_runtimes = [DetectorRuntime(config) for config in bank_configs]
    for runtime, bank_runtime, result in zip(
        solo_runtimes, bank.runtimes, batched
    ):
        solo = runtime.run(branch_trace, kernels=False)
        assert np.array_equal(result.states, solo.states)
        assert result.detected_phases == solo.detected_phases
        assert json.dumps(bank_runtime.checkpoint(), sort_keys=True) == (
            json.dumps(runtime.checkpoint(), sort_keys=True)
        )
