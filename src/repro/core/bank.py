"""DetectorBank: many detector configurations over one trace.

A sweep evaluates a grid of configurations over the same benchmark
trace.  The bank runs each batch of grid points with one whole-trace
pass per member and shares whatever work the members have in common.

Members eligible for the array-native kernels (see
:mod:`repro.core.kernels`) — every fresh, unobserved standard-component
windowed configuration — run through
:func:`~repro.core.kernels.run_bank_batched`: one
:class:`~repro.core.kernels.SharedTraceKernels` cache holds the dense
code pass and each ``(weighted, cw, tw, skip)`` similarity series, so
members that differ only by analyzer bars or anchor/resize policy share
the series computation.

Every other member — observed, restored or custom-component members,
the non-window families, and every member under ``kernels=False`` —
runs one after another through its own solo
:meth:`~repro.core.decision.DecisionEngine.run`, so a bank member and a
solo run of the same configuration take the same driver and cannot
disagree.  Results (states, phases, similarity statistics,
observability events) are bit-identical to running each configuration
alone — pinned by the equivalence tests and by the sweep cache
byte-equality tests.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.core.config import DetectorConfig
from repro.core.decision import DetectionResult, build_engine
from repro.profiles.trace import BranchTrace

__all__ = ["DetectorBank"]


def _maybe_span(tracer, name, parent, **attrs):
    """A tracer span when tracing is on; a free ``nullcontext`` when off.

    Keeps :mod:`repro.core` decoupled from :mod:`repro.obs.trace`: the
    tracer is duck-typed (anything with ``span(name, parent=, **attrs)``)
    and the off path costs exactly one ``is None`` branch.
    """
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, parent=parent, **attrs)


class DetectorBank:
    """N detector configurations evaluated over one trace.

    ``observers`` optionally gives one observability sink per member
    (positionally matched to ``configs``); each member's event stream is
    identical to a solo run of that configuration.
    """

    def __init__(
        self,
        configs: Sequence[DetectorConfig],
        observers: Optional[Sequence[object]] = None,
    ) -> None:
        configs = list(configs)
        if not configs:
            raise ValueError("DetectorBank needs at least one configuration")
        if observers is None:
            observers = [None] * len(configs)
        elif len(observers) != len(configs):
            raise ValueError(
                f"got {len(observers)} observers for {len(configs)} configs"
            )
        self.runtimes = [
            build_engine(config, observer=observer)
            for config, observer in zip(configs, observers)
        ]

    def __len__(self) -> int:
        return len(self.runtimes)

    @property
    def configs(self) -> List[DetectorConfig]:
        return [runtime.config for runtime in self.runtimes]

    def run(
        self,
        trace: BranchTrace,
        kernels: Optional[bool] = None,
        tracer=None,
        trace_parent=None,
        metrics=None,
    ) -> List[DetectionResult]:
        """Run every member over ``trace``; results in member order.

        Each member's path is :func:`repro.core.kernels.kernel_path`,
        the rule a solo run uses too: ``"vectorized"`` members run
        through :func:`~repro.core.kernels.run_bank_batched`, the rest
        run one after another through their own whole-trace
        :meth:`~repro.core.decision.DecisionEngine.run`.
        ``kernels=None`` consults the ``REPRO_KERNELS`` environment
        variable; ``kernels=False`` runs every member sequentially.

        Telemetry (both optional, zero-cost when ``None``):

        - ``tracer``/``trace_parent`` — a duck-typed span tracer (see
          :mod:`repro.obs.trace`); the run becomes a ``bank.run`` span
          under ``trace_parent`` with one ``bank.kernel`` child per
          path actually taken (``batched`` / ``sequential``).
        - ``metrics`` — a registry whose ``bank.advance_seconds``
          histogram receives one observation for the
          :func:`~repro.core.kernels.run_bank_batched` pass (its members
          advance together in rounds, so none has a duration of its
          own) and one per sequentially run member.
        """
        from repro.core import kernels as kernel_mod

        runtimes = self.runtimes
        total = int(trace.array.size)
        histogram = (
            metrics.histogram("bank.advance_seconds") if metrics is not None else None
        )
        results: List[Optional[DetectionResult]] = [None] * len(runtimes)
        with _maybe_span(
            tracer,
            "bank.run",
            trace_parent,
            trace=trace.name,
            members=len(runtimes),
            elements=total,
        ) as bank_span:
            vector_members: List[int] = []
            sequential_members: List[int] = []
            for index, runtime in enumerate(runtimes):
                if kernel_mod.kernel_path(runtime, kernels) == "vectorized":
                    vector_members.append(index)
                else:
                    sequential_members.append(index)

            if vector_members:
                with _maybe_span(
                    tracer, "bank.kernel", bank_span,
                    path="batched", members=len(vector_members),
                ):
                    member_states = kernel_mod.run_bank_batched(
                        [runtimes[index] for index in vector_members],
                        trace,
                        histogram=histogram,
                    )
                # Vectorized members carry no observer (an observed
                # member is never eligible), so there are no run events
                # to emit around them.
                for index, states in zip(vector_members, member_states):
                    runtime = runtimes[index]
                    results[index] = DetectionResult(
                        states=states,
                        detected_phases=runtime.finish(total),
                        config=runtime.config,
                    )
            if sequential_members:
                with _maybe_span(
                    tracer, "bank.kernel", bank_span,
                    path="sequential", members=len(sequential_members),
                ):
                    for index in sequential_members:
                        started = time.perf_counter() if histogram is not None else 0.0
                        # The path is already decided: kernels=False
                        # keeps the solo run from deciding it again.
                        results[index] = runtimes[index].run(trace, kernels=False)
                        if histogram is not None:
                            histogram.observe(time.perf_counter() - started)
        return results  # type: ignore[return-value]
