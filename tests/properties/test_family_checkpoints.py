"""Hypothesis: FOCuS/NEWMA park–rehydrate is invisible, bit for bit.

Mirrors the PR 6 serve-layer guarantees for the new families: an engine
parked (``checkpoint()`` → JSON → ``restore``) at *every* chunk
boundary must produce exactly the states, phases, and final checkpoint
bytes of an engine that ran uninterrupted — for any trace and any
chunking, not just the hand-picked ones in the unit tests.
"""

import json
from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.comparators import engine_family
from repro.core.decision import build_engine, restore_engine

elements = st.integers(min_value=0, max_value=12)

#: cw_size doubles as the warm-up / window scale for these families;
#: keep it small so short hypothesis traces exercise post-warm-up code.
family_configs = st.sampled_from(["focus", "newma", "das_pearson", "lu_dynamo"]).flatmap(
    lambda name: st.builds(
        lambda cw, bar: replace(
            engine_family(name).default_config(), cw_size=cw, stat_threshold=bar
        ),
        st.integers(min_value=2, max_value=24),
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=8.0)),
    )
)


def singletons(elements):
    """Each element its own group (per-element stepping)."""
    return [[element] for element in elements]


def roundtrip(engine):
    """checkpoint → canonical JSON → restore, returning the new engine."""
    blob = json.dumps(engine.checkpoint(), separators=(",", ":"))
    return restore_engine(json.loads(blob)), blob


@settings(max_examples=120, deadline=None)
@given(
    trace=st.lists(elements, min_size=0, max_size=400),
    config=family_configs,
    chunk=st.integers(min_value=1, max_value=97),
)
def test_park_at_every_chunk_boundary_is_bit_identical(trace, config, chunk):
    straight = build_engine(config)
    states_a = bytearray(len(trace))
    straight.advance(singletons(trace), states_a, 0)
    phases_a = straight.finish(len(trace))

    parked = build_engine(config)
    states_b = bytearray(len(trace))
    base = 0
    while base < len(trace):
        stop = min(base + chunk, len(trace))
        parked.advance(singletons(trace[base:stop]), states_b, base)
        parked, _ = roundtrip(parked)
        base = stop
    phases_b = parked.finish(len(trace))

    assert bytes(states_a) == bytes(states_b)
    assert phases_a == phases_b


@settings(max_examples=120, deadline=None)
@given(
    trace=st.lists(elements, min_size=1, max_size=300),
    config=family_configs,
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_checkpoint_is_a_fixed_point(trace, config, cut):
    """restore(checkpoint(e)).checkpoint() == checkpoint(e), bytewise."""
    engine = build_engine(config)
    stop = round(cut * len(trace))
    engine.advance(singletons(trace[:stop]), bytearray(stop), 0)
    restored, blob = roundtrip(engine)
    assert json.dumps(restored.checkpoint(), separators=(",", ":")) == blob
    # And the parked engine's future equals the original's.
    tail = trace[stop:]
    states_a = bytearray(len(tail))
    states_b = bytearray(len(tail))
    engine.advance(singletons(tail), states_a, 0)
    restored.advance(singletons(tail), states_b, 0)
    assert bytes(states_a) == bytes(states_b)
    assert engine.finish(len(trace)) == restored.finish(len(trace))
