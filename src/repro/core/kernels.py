"""Array-native detector kernels.

The sweep machinery runs >10,000 detector instantiations over
million-element traces, and the per-element Python bookkeeping in
:meth:`~repro.core.runtime.DetectorRuntime._advance_fused` — dict
lookups keyed by packed int64 profile elements, deque rotation — is the
dominant cost of every sweep.  This module applies the standard move of
scalable online change-point systems (NEWMA, FOCuS): numeric state over
*densely remapped* element IDs, and a whole-trace vectorized pass that
replays the detector's decisions episode by episode.

**Dense remapping** — :meth:`BranchTrace.dense_codes` maps the trace's
packed int64 elements to contiguous small ints (``codes``) once per
trace via one cached ``np.unique`` pass, which every vectorized member
of a :class:`~repro.core.bank.DetectorBank` pass shares.

**Vectorized whole-trace fast path** — :func:`run_vectorized` computes
similarity series with sliding-window array operations and derives
states and phases in one pass.  It covers every standard-component
configuration: Threshold *and* Average analyzers, Constant *and*
Adaptive trailing windows, unweighted *and* weighted models, any window
geometry.  The key observations:

- With a Constant TW, at any *filled* step the windows are pure
  functions of stream position (CW = the last ``cwSize`` elements,
  TW = the ``twSize`` before them), regardless of earlier phase
  entries/exits.  Entries do not move Constant windows, and the
  post-exit flush only shifts the *refill origin* — which affects when
  steps are filled, never the similarity value of a filled step.
- The unweighted similarity series reduces to two interval-stabbing
  counts over per-element previous-occurrence links: an element
  occurrence ``i`` is a distinct CW member for window starts
  ``l ∈ (max(prev[i], i-cwSize), i]``, and an adjacent occurrence pair
  ``(prev[i], i)`` puts its element in both windows for
  ``l ∈ (max(prev[i], i-cwSize), min(i, prev[i]+twSize)]``.  Both are
  O(n) with difference arrays.
- The weighted similarity is a pure integer sum
  ``Σ_e min(cw_e·|TW|, tw_e·|CW|)`` — order-independent, so it
  vectorizes for *any* geometry via blockwise occurrence matrices
  (one ``np.add.at`` scatter per block of steps, cell-budgeted).  The
  Fixed-Interval geometry (skip = CW = TW) keeps a leaner whole-block
  path, optionally compiled with numba (:mod:`repro.core._weighted_numba`,
  opt-in via ``REPRO_NUMBA=1``, soft-falls back to NumPy).
- The Adaptive TW *does* have analyzer→window feedback (the entry
  resize pins the TW to the anchor; in-phase the TW grows), but the
  feedback is episode-local: between phases the windows follow Constant
  geometry from the last flush origin, and within a phase the pinned
  TW boundary and refill/slide regimes are pure functions of the entry
  step.  The walk therefore finds each entry on the constant series and
  then computes the phase's resized-window similarities block by block
  (:meth:`_Rounds._unweighted_rows` / :meth:`_Rounds._weighted_rows`)
  up to the exit.
- Both analyzers' bars are episode-local too.  Entry is a fixed bar —
  ``threshold`` or the Average analyzer's ``enter_threshold``.  In phase
  the Threshold bar stays put, and the Average bar at each step is the
  running phase mean minus ``delta``.  Each open phase carries its
  ``(total, count)`` across blocks and extends it with a ``cumsum``
  seeded by the carried total: the same left-to-right additions as
  ``PhaseStats.add``, so bars and phase means are bit-identical to the
  incremental loop's.

**Episode rounds** — the cost of the walk is per phase episode (the
quick grid has tens of thousands of 1-15-step phases), and each episode
takes a handful of NumPy calls on arrays of a few dozen elements, so
it is call overhead, not arithmetic.  :func:`_walk_rounds` therefore
advances every lane of a pass together, one episode step per round:
lanes between phases find their next entry with scalar integer work,
the anchors of all new Adaptive-TW entries come from one rows x codes
membership pass, and every open phase's next block of in-phase
similarities is one row of a 2-D block, so one row-wise ``cumsum`` and
compare find every exit of the round.  Rows are the lanes' current
episodes only, never speculative candidates.  A solo
:func:`run_vectorized` is the same walk with one lane.

**Batched bank advancement** — :class:`SharedTraceKernels` caches
prev-occurrence links, skip-group boundaries, whole similarity series
per window *signature* ``(weighted, cw, tw, skip)`` and each series'
entry (and fixed-bar exit) steps, so a
:class:`~repro.core.bank.DetectorBank` whose members differ only by
analyzer bars or anchor/resize policy computes each series once.
:func:`run_bank_batched` walks every kernel member in one round walk
over one shared cache.

Each exit restarts the filled-mask origin at the flush point.  Phases,
anchor-corrected starts, per-phase mean similarity and the final
runtime state (windows, analyzer statistics) are reconstructed so that
checkpoints taken after a vectorized run are bit-identical to the
incremental paths' — the config-matrix equivalence suite in
``tests/core/test_kernels.py`` and the fuzz suite in
``tests/properties/test_kernel_properties.py`` pin states, phases,
similarity series, event streams and checkpoints against the reference
path, and the ``kernel-equivalence`` CI job byte-compares sweep caches
produced with kernels on vs. off.

Kernels are on by default wherever they apply (see
:func:`vectorized_eligible`); set ``REPRO_KERNELS=0`` or pass
``kernels=False`` through :func:`~repro.core.engine.run_detector` / the
sweep stack to force the legacy paths.  See ``docs/performance.md`` for
eligibility rules and measured speedups.
"""

from __future__ import annotations

import os
import sys
import time
from bisect import bisect_left
from typing import List, Optional, Tuple

import numpy as np

from repro.core.analyzers import ThresholdAnalyzer
from repro.core.config import AnchorPolicy, ResizePolicy, TrailingPolicy
from repro.core.decision import DetectedPhase
from repro.core.models import WeightedSetModel
from repro.core.state import PhaseState

__all__ = [
    "kernels_enabled",
    "kernel_path",
    "vectorized_eligible",
    "run_dense",
    "run_vectorized",
    "SharedTraceKernels",
    "run_bank_batched",
]


def kernels_enabled() -> bool:
    """True unless the ``REPRO_KERNELS`` environment variable disables
    kernels (``0``/``false``/``off``/``no``)."""
    return os.environ.get("REPRO_KERNELS", "").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def _fresh(runtime) -> bool:
    """True when ``runtime`` has consumed nothing (kernel paths assume
    stream position == trace position, which only holds from a cold
    start; restored runtimes take the legacy fused path)."""
    model = runtime.model
    return (
        model.consumed == 0
        and not model._cw
        and not model._tw
        and runtime.state is PhaseState.TRANSITION
        and not runtime.tracker.open
        and not runtime.tracker.phases
    )


def vectorized_eligible(runtime) -> bool:
    """True when :func:`run_vectorized` may run ``runtime`` over a trace.

    Requires the exact standard components (same rule as
    :meth:`~repro.core.runtime.DetectorRuntime.fused_capable`: either
    model, either analyzer, any trailing policy and geometry), no
    observer (observed runs take the legacy fused path, which emits the
    canonical event stream), and a fresh runtime.
    """
    return runtime.fused_capable() and runtime.observer is None and _fresh(runtime)


def kernel_path(engine, kernels: Optional[bool] = None) -> str:
    """Which kernel path drives ``engine`` over a whole trace.

    Returns ``"vectorized"`` or ``"legacy"`` — the single dispatch rule
    shared by :meth:`DetectorRuntime._run_kernel
    <repro.core.runtime.DetectorRuntime>` and the bank's member
    partition.  ``kernels=None`` consults ``REPRO_KERNELS``; non-window
    engines (``fused_capable()`` is False) always report ``"legacy"``.
    """
    if kernels is None:
        kernels = kernels_enabled()
    if kernels and vectorized_eligible(engine):
        return "vectorized"
    return "legacy"


def run_dense(runtime, trace) -> np.ndarray:
    """:func:`run_vectorized` under the name of the retired incremental
    dense kernel.

    A distinct function, not an alias: ``perfbench/layers.py`` wraps
    ``repro.core.kernels.run_dense`` by name and rebinds every module
    attribute that *is* the wrapped object, so with ``run_dense =
    run_vectorized`` it would re-wrap :func:`run_vectorized` wherever
    that is re-exported.
    """
    return run_vectorized(runtime, trace)


# ---------------------------------------------------------------------------
# The vectorized whole-trace fast path
# ---------------------------------------------------------------------------


def _prev_occurrence(codes: np.ndarray) -> np.ndarray:
    """``prev[i]`` = index of the previous occurrence of ``codes[i]``
    (or -1).  One stable argsort; equal codes stay in index order."""
    order = np.argsort(codes, kind="stable").astype(np.int64)
    prev = np.full(codes.size, -1, dtype=np.int64)
    if codes.size > 1:
        same = codes[order[1:]] == codes[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def _unweighted_window_counts(
    prev: np.ndarray, cwc: int, twc: int, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, shared)`` per window start via interval stabbing.

    For a window start ``l`` (CW = ``codes[l : l+cwc]``, TW =
    ``codes[l-twc : l]``), an occurrence ``i`` is a *distinct CW member*
    exactly for ``l`` in ``(max(prev[i], i-cwc), i]`` — it lies in the
    CW and no earlier occurrence does.  It is additionally *shared with
    the TW* when its predecessor lies in the TW: ``l <= prev[i]+twc``.
    Both per-``l`` counts accumulate in O(n) with difference arrays.
    Valid ``l`` range: ``0 .. total-cwc`` (``distinct`` is exact over
    the whole range; ``shared`` assumes the Constant twc-deep TW).
    """
    window_starts = total - cwc + 1  # valid l: 0 .. total-cwc
    idx = np.arange(total, dtype=np.int64)
    lo = np.maximum(prev, idx - cwc) + 1
    hi = np.minimum(idx, total - cwc)
    ok = lo <= hi
    add = np.bincount(lo[ok], minlength=window_starts + 1)
    rem = np.bincount(hi[ok] + 1, minlength=window_starts + 1)
    distinct = np.cumsum(add[:window_starts] - rem[:window_starts])
    has_prev = prev >= 0
    lo2 = lo[has_prev]
    hi2 = np.minimum(hi[has_prev], prev[has_prev] + twc)
    ok2 = lo2 <= hi2
    add2 = np.bincount(lo2[ok2], minlength=window_starts + 1)
    rem2 = np.bincount(hi2[ok2] + 1, minlength=window_starts + 1)
    shared = np.cumsum(add2[:window_starts] - rem2[:window_starts])
    return distinct, shared


def _unweighted_sims(
    codes: np.ndarray,
    cwc: int,
    twc: int,
    step_ends: np.ndarray,
    total: int,
    prev: Optional[np.ndarray] = None,
    counts: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Per-step unweighted similarity values via interval stabbing.

    Entries for geometrically unfilled steps are left at 0.0 (callers
    never consult them — the episode walk gates on the filled mask).
    ``prev``/``counts`` let callers share the previous-occurrence links
    and the per-window-start count arrays across uses.
    """
    n_steps = step_ends.size
    sims = np.zeros(n_steps, dtype=np.float64)
    if total < cwc + twc:
        return sims
    if counts is None:
        if prev is None:
            prev = _prev_occurrence(codes)
        counts = _unweighted_window_counts(prev, cwc, twc, total)
    distinct, shared = counts
    starts = step_ends - cwc
    valid = starts >= twc
    lv = starts[valid]
    # int64/int64 true division == Python int/int (both correctly rounded)
    sims[valid] = shared[lv] / distinct[lv]
    return sims


def _fixed_interval_sims(
    codes: np.ndarray, n_codes: int, size: int, step_ends: np.ndarray, total: int
) -> np.ndarray:
    """Per-step weighted similarity for the Fixed-Interval geometry
    (skip = CW = TW = ``size``): at every full-group step the windows
    are whole consecutive blocks, so per-block multiset minima come
    from one sorted ``(block, code)`` count pass.  Only the trace's
    final group can be partial; its windows are computed directly.
    """
    n_steps = step_ends.size
    sims = np.zeros(n_steps, dtype=np.float64)
    if total < 2 * size:
        return sims
    n_full = total // size
    blocks = np.arange(n_full * size, dtype=np.int64) // size
    keys = blocks * n_codes + codes[: n_full * size]
    ukeys, ucounts = np.unique(keys, return_counts=True)
    target = ukeys - n_codes  # the same code in the previous block
    pos = np.searchsorted(ukeys, target)
    pos_c = np.minimum(pos, ukeys.size - 1)
    matched = ukeys[pos_c] == target
    minima = np.where(matched, np.minimum(ucounts, ucounts[pos_c]), 0)
    per_block = np.zeros(n_full, dtype=np.int64)
    np.add.at(per_block, ukeys // n_codes, minima)
    denominator = size * size
    full = (step_ends % size == 0) & (step_ends >= 2 * size)
    pair = step_ends[full] // size - 1
    sims[full] = (per_block[pair] * size) / denominator
    if int(step_ends[-1]) % size != 0:
        cw_counts = np.bincount(codes[total - size : total], minlength=n_codes)
        tw_counts = np.bincount(
            codes[total - 2 * size : total - size], minlength=n_codes
        )
        s_num = int(np.minimum(cw_counts, tw_counts).sum()) * size
        sims[-1] = s_num / denominator
    return sims


#: Cell budget for the per-block occurrence matrices of the weighted
#: blockwise kernels ((span+1) x distinct int64 cells, ~16 MiB).
_OCC_CELL_LIMIT = 1 << 21

#: Step granularity of the weighted numerator blocks, and the widest
#: in-phase block of a round with more than one row (or of a weighted
#: Adaptive-TW row).
_BLOCK_STEPS = 256


def _occurrence_matrix(
    codes: np.ndarray, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(occ, uniq)`` for the span ``codes[lo:hi]``.

    ``occ[p - lo, j]`` counts occurrences of ``uniq[j]`` in
    ``codes[lo:p]`` — cumulative per-code occurrence counts, so any
    window count over the span is one row difference.
    """
    seg = codes[lo:hi]
    uniq, local = np.unique(seg, return_inverse=True)
    occ = np.zeros((seg.size + 1, uniq.size), dtype=np.int64)
    occ[np.arange(seg.size) + 1, local] = 1
    np.cumsum(occ, axis=0, out=occ)
    return occ, uniq


def _weighted_constant_snums(
    codes: np.ndarray, n_codes: int, cwc: int, twc: int, ends: np.ndarray
) -> np.ndarray:
    """Weighted similarity numerators at Constant-TW filled steps.

    For each step end ``c`` in ``ends`` (every entry must satisfy
    ``c >= cwc + twc``) the numerator is ``sum_e min(cw_e*twc,
    tw_e*cwc)`` over the step's CW/TW slices — a pure *integer* sum, so
    any evaluation order reproduces the fused loop's value exactly.
    Default path: per-block occurrence matrices and one ``np.minimum``
    reduction over the block's sparse code set.  With ``REPRO_NUMBA``
    set and numba importable, one compiled incremental sweep replaces
    the blocks (soft-failing back to NumPy otherwise — see
    :mod:`repro.core._weighted_numba`).
    """
    from repro.core._weighted_numba import load_kernel

    out = np.empty(ends.size, dtype=np.int64)
    if ends.size == 0:
        return out
    compiled = load_kernel()
    if compiled is not None:
        compiled(codes, n_codes, cwc, twc, ends, out)
        return out
    n = int(ends.size)
    b0 = 0
    while b0 < n:
        take = min(_BLOCK_STEPS, n - b0)
        while True:
            b1 = b0 + take
            lo = int(ends[b0]) - cwc - twc
            hi = int(ends[b1 - 1])
            occ, _ = _occurrence_matrix(codes, lo, hi)
            if take == 1 or occ.size <= _OCC_CELL_LIMIT:
                break
            take = max(1, take // 2)
        c_rel = ends[b0:b1] - lo
        mid = occ[c_rel - cwc]
        cw = occ[c_rel] - mid
        tw = mid - occ[c_rel - cwc - twc]
        out[b0:b1] = np.minimum(cw * twc, tw * cwc).sum(axis=1)
        b0 = b1
    return out


def _weighted_general_sims(
    codes: np.ndarray,
    n_codes: int,
    cwc: int,
    twc: int,
    step_ends: np.ndarray,
    total: int,
) -> np.ndarray:
    """Per-step weighted similarity for any Constant-TW geometry.

    Same contract as :func:`_unweighted_sims`: values at geometrically
    filled steps (``c >= cwc + twc``), zeros elsewhere.
    """
    n_steps = step_ends.size
    sims = np.zeros(n_steps, dtype=np.float64)
    if total < cwc + twc:
        return sims
    valid = step_ends >= cwc + twc
    ends = step_ends[valid]
    snums = _weighted_constant_snums(codes, n_codes, cwc, twc, ends)
    # one exact int64/int division, bit-identical to the fused loop's
    sims[valid] = snums / (cwc * twc)
    return sims


class SharedTraceKernels:
    """Per-trace cache of the arrays the vectorized walks consume.

    One instance per ``(trace, bank pass)``: dense codes, previous-
    occurrence links, per-skip step boundaries and — keyed by
    ``(weighted, cw, tw, skip)`` — the full constant-geometry similarity
    series plus its per-window-start count arrays.  The batched bank
    advancer (:func:`run_bank_batched`) funnels every lane through one
    instance, so lanes that share a window signature share the expensive
    series computation and differ only in their cheap episode walks.
    """

    def __init__(self, trace) -> None:
        self.trace = trace
        self.data = trace.array
        self.total = int(self.data.size)
        self._codes: Optional[Tuple[np.ndarray, int]] = None
        self._step_ends: dict = {}
        self._series: dict = {}
        self._crossings: dict = {}

    def codes(self) -> Tuple[np.ndarray, int]:
        """``(codes, n_codes)`` from the trace's cached dense remap."""
        if self._codes is None:
            codes, values = self.trace.dense_codes()
            self._codes = (codes, int(values.size))
        return self._codes

    def prev(self) -> np.ndarray:
        """Previous-occurrence links (cached on the trace itself)."""
        return self.trace.prev_links()

    def step_ends(self, skip: int) -> np.ndarray:
        """Element offsets at which each skip-group step ends."""
        cached = self._step_ends.get(skip)
        if cached is None:
            n_steps = (self.total + skip - 1) // skip
            cached = np.minimum(
                np.arange(1, n_steps + 1, dtype=np.int64) * skip, self.total
            )
            self._step_ends[skip] = cached
        return cached

    def series(
        self, weighted: bool, cwc: int, twc: int, skip: int
    ) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
        """``(sims, counts)`` for a constant-geometry window signature.

        ``sims`` is the per-step similarity series at geometrically
        filled steps (zeros elsewhere); ``counts`` is the unweighted
        paths' ``(distinct, shared)`` per-window-start pair (``None``
        for weighted signatures or traces too short to fill).  Cached —
        every lane with the same signature, including adaptive lanes
        (whose transition regimes are constant-geometry), reuses it.
        """
        key = (weighted, cwc, twc, skip)
        cached = self._series.get(key)
        if cached is None:
            codes, n_codes = self.codes()
            ends = self.step_ends(skip)
            if weighted:
                if skip == cwc and twc == cwc:
                    sims = _fixed_interval_sims(codes, n_codes, cwc, ends, self.total)
                else:
                    sims = _weighted_general_sims(
                        codes, n_codes, cwc, twc, ends, self.total
                    )
                counts = None
            else:
                counts = (
                    _unweighted_window_counts(self.prev(), cwc, twc, self.total)
                    if self.total >= cwc + twc
                    else None
                )
                sims = _unweighted_sims(
                    codes, cwc, twc, ends, self.total, counts=counts
                )
            cached = (sims, counts)
            self._series[key] = cached
        return cached

    def crossings(
        self, weighted: bool, cwc: int, twc: int, skip: int, bar: float,
        below: bool = False,
    ) -> memoryview:
        """Steps whose constant-geometry similarity reaches ``bar`` — the
        entry candidates of every lane with that signature and entry bar
        — or, with ``below``, falls under it — a fixed bar's exits.
        Cached, as a read-only view that :func:`bisect.bisect_left`
        searches at list speed without a list's per-element objects."""
        key = (weighted, cwc, twc, skip, bar, below)
        cached = self._crossings.get(key)
        if cached is None:
            sims, _ = self.series(weighted, cwc, twc, skip)
            hits = sims < bar if below else sims >= bar
            cached = memoryview(hits.nonzero()[0].astype(np.int64)).toreadonly()
            self._crossings[key] = cached
        return cached


def run_vectorized(
    runtime, trace, shared: Optional[SharedTraceKernels] = None
) -> np.ndarray:
    """Run ``runtime`` over ``trace`` with the vectorized fast path.

    A one-lane walk of :func:`_walk_rounds`, the walker
    :func:`run_bank_batched` drives every bank lane through.  Phases
    (with anchor-corrected starts and exact mean similarities) land in
    ``runtime.tracker`` and the final model/analyzer state is
    reconstructed bit-identically; the caller still runs
    ``runtime.finish``.  Returns the bool state array.

    ``shared`` optionally supplies a :class:`SharedTraceKernels` cache.
    """
    if shared is None:
        shared = SharedTraceKernels(trace)
    return _walk_rounds([runtime], shared)[0]


def run_bank_batched(
    runtimes, trace, histogram=None
) -> List[np.ndarray]:
    """Advance all vectorized-eligible bank ``runtimes`` over ``trace``.

    One :class:`SharedTraceKernels` instance funnels every lane's series
    computation: the dense-code decode, previous-occurrence links, step
    boundaries and each distinct ``(weighted, cw, tw, skip)`` similarity
    series are computed once and shared.  One :func:`_walk_rounds` pass
    then advances every lane in episode rounds, so N lanes cost one
    series pass per window signature plus one set of array operations
    per round instead of one per lane and episode.  Lane order,
    per-lane results and checkpoints are exactly those of per-lane
    :func:`run_vectorized` calls.  ``histogram`` optionally receives
    one duration observation for the whole pass: inside a round the
    lanes share every array operation, so no lane has a duration of its
    own.
    """
    started = time.perf_counter() if histogram is not None else 0.0
    states = _walk_rounds(list(runtimes), SharedTraceKernels(trace))
    if histogram is not None:
        histogram.observe(time.perf_counter() - started)
    return states


#: First in-phase block of an episode, in steps.  Phases are short on
#: small windows, so each episode's blocks start small and double, up to
#: :data:`_BLOCK_STEPS` while other rows share the round (they all get
#: the widest row's width) and up to :data:`_MAX_BLOCK_STEPS` for a row
#: alone in it — except weighted Adaptive-TW rows, whose blocks carry a
#: per-code axis and stop at :data:`_BLOCK_STEPS`.
_FIRST_BLOCK_STEPS = 16
_MAX_BLOCK_STEPS = 1 << 13

#: Cell budget of one anchor membership pass (rows x codes, and rows x
#: window span for its index matrices).
_ANCHOR_CELLS = 1 << 16

#: Lane kinds: where an open episode's in-phase similarities come from.
_CONSTANT, _UNWEIGHTED, _WEIGHTED = 0, 1, 2

#: ``drop`` of a Threshold lane: its Average term ``total/count - drop``
#: is never the binding bar (see :meth:`_Rounds._exits`).
_NEVER = sys.float_info.max


class _Lane:
    """One runtime's walk: its cached series and decision bars, the
    refill origin and cursor its next entry search starts from, its
    open episode, if any, and the episodes it has closed.

    Entry is a fixed bar: ``threshold`` or ``enter_threshold``, and
    ``entries`` lists the steps of the cached series that reach it.
    Each in-phase step's bar is ``max(total/count - drop, floor)`` over
    the phase's similarities so far.  For the Average analyzer ``drop``
    is ``delta`` and ``floor`` is ``-inf``; for the Threshold analyzer
    ``drop`` is :data:`_NEVER` and ``floor`` is the threshold.
    ``total``/``count`` carry the open phase's statistics across blocks
    and give the phase mean.
    """

    __slots__ = (
        "runtime", "kind", "skip", "cwc", "twc", "fill", "sims", "n_steps",
        "distinct", "entries", "below", "drop", "floor", "rn", "slide",
        "base", "row", "origin", "cursor", "entry", "detected", "corrected",
        "step", "size", "total", "count", "tw_left", "cw_left", "covered",
        "last", "parts", "closed", "open",
    )

    def __init__(self, runtime, shared: SharedTraceKernels) -> None:
        config = runtime.config
        self.runtime = runtime
        self.skip = skip = config.skip_factor
        self.cwc = cwc = config.cw_size
        self.twc = twc = config.effective_tw_size
        self.fill = cwc + twc
        weighted = type(runtime.model) is WeightedSetModel
        if config.trailing is TrailingPolicy.ADAPTIVE:
            self.kind = _WEIGHTED if weighted else _UNWEIGHTED
        else:
            self.kind = _CONSTANT
        analyzer = runtime.analyzer
        if type(analyzer) is ThresholdAnalyzer:
            enter = self.floor = analyzer.threshold
            self.drop = _NEVER
        else:
            enter = analyzer.enter_threshold
            self.drop = analyzer.delta
            self.floor = -np.inf
        self.sims, counts = shared.series(weighted, cwc, twc, skip)
        self.n_steps = int(self.sims.size)
        self.distinct = counts[0] if counts is not None else None
        self.entries = shared.crossings(weighted, cwc, twc, skip, enter)
        # A Constant-TW Threshold phase ends at the next step below the
        # bar, so its blocks can run exactly to the exit.
        self.below = (
            shared.crossings(weighted, cwc, twc, skip, enter, below=True)
            if self.kind == _CONSTANT and self.drop == _NEVER else None
        )
        self.rn = config.anchor is AnchorPolicy.RN
        self.slide = config.resize is ResizePolicy.SLIDE
        self.base = 0
        self.row = 0
        self.origin = 0
        self.cursor = 0
        self.last = 0
        self.parts: Optional[List[np.ndarray]] = None
        # (detected, corrected, end, mean); a Constant-TW lane holds its
        # entry step end in place of ``corrected`` until
        # :meth:`_Rounds.correct_starts` anchors them all at once.
        self.closed: List[list] = []
        self.open = False

    def find_entry(self, total: int) -> bool:
        """Find the next entry: the first step at or above the entry bar
        that is both filled since the refill origin and past the cursor."""
        origin_fill = self.origin + self.fill
        if origin_fill > total:
            return False
        first = -(-origin_fill // self.skip) - 1
        entries = self.entries
        hit = bisect_left(entries, first if first > self.cursor else self.cursor)
        if hit == len(entries):
            return False
        self.entry = entries[hit]
        return True

    def open_episode(self, total: int, anchor: int = 0) -> bool:
        """Enter the phase at ``self.entry``; False when the entry is the
        last step, so the phase is open at the trace end already.

        An Adaptive-TW entry fixes the episode's resized geometry from
        ``anchor``, the offset into the entry step's pre-resize TW: the
        TW's left edge pins at ``tw_left = anchor_abs`` for the whole
        phase and the CW's left edge starts at ``cw_left = c_entry - cwc
        + moved`` (``moved = min(anchor, cwc-1)`` for SLIDE, 0 for
        MOVE).  A Constant-TW entry needs its anchor only for the
        corrected start, which is filled in after the walk.
        """
        entry = self.entry
        skip = self.skip
        c_entry = (entry + 1) * skip
        if c_entry > total:
            c_entry = total
        self.detected = detected = entry * skip
        self.total = float(self.sims[entry])  # 0.0 + sim, as in PhaseStats.add
        self.count = 1
        if self.kind == _CONSTANT:
            self.corrected = c_entry
        else:
            cwc = self.cwc
            anchor_abs = c_entry - self.fill + anchor
            self.corrected = anchor_abs if anchor_abs < detected else detected
            self.tw_left = self.covered = anchor_abs
            moved = (anchor if anchor < cwc - 1 else cwc - 1) if self.slide else 0
            self.cw_left = c_entry - cwc + moved
            self.parts = [self.sims[entry : entry + 1]]
        self.step = entry + 1
        # A lane's phases tend to run alike: the first block covers the
        # last phase's length, within [_FIRST_BLOCK_STEPS, _BLOCK_STEPS].
        last = self.last
        self.size = (
            _FIRST_BLOCK_STEPS if last < _FIRST_BLOCK_STEPS
            else last if last < _BLOCK_STEPS else _BLOCK_STEPS
        )
        if self.step >= self.n_steps:
            self.open = True
            return False
        return True

    def close(self, exit_step: int, total: int) -> None:
        """Close the open phase at ``exit_step`` and restart the
        filled-mask origin at the flush point."""
        end = exit_step * self.skip
        c_exit = end + self.skip
        if c_exit > total:
            c_exit = total
        self.closed.append(
            [self.detected, self.corrected, end, self.total / self.count]
        )
        # The flush reseeds the CW with the exit step's group (at most
        # cwc elements of it).
        self.origin = c_exit - self.cwc if c_exit - end > self.cwc else end
        self.cursor = exit_step + 1
        self.last = exit_step - self.entry
        self.parts = None

    def finish(self, data: np.ndarray) -> np.ndarray:
        """Record the phases, reconstruct the runtime's final incremental
        state, and return the lane's state array."""
        runtime = self.runtime
        model = runtime.model
        total = int(data.size)
        adaptive = self.kind != _CONSTANT
        tracker = runtime.tracker
        tracker.phases.extend(DetectedPhase(*phase) for phase in self.closed)
        spans = [(phase[0], phase[2]) for phase in self.closed]
        if self.open and adaptive:
            tw_start = self.tw_left
            cw_start = max(self.cw_left, total - self.cwc)
            model.filled = True
            model.growing = True
        else:
            since_origin = total - self.origin
            cw_len = since_origin if since_origin < self.cwc else self.cwc
            tw_len = min(max(since_origin - self.cwc, 0), self.twc)
            cw_start = total - cw_len
            tw_start = cw_start - tw_len
            model.filled = since_origin >= self.fill
            model.growing = False
        model.load_windows(
            data[tw_start:cw_start].tolist(), data[cw_start:total].tolist()
        )
        model.consumed = total
        if self.open:
            tracker.open_detected = self.detected
            tracker.open_corrected = self.corrected
            spans.append((self.detected, total))
            episode = (
                np.concatenate(self.parts) if adaptive else self.sims[self.entry :]
            )
            stats = runtime.analyzer.stats
            stats.count = self.count
            stats.total = self.total
            low = float(episode.min())
            high = float(episode.max())
            stats.minimum = low if low < 1.0 else 1.0
            stats.maximum = high if high > 0.0 else 0.0
            runtime.state = PhaseState.PHASE
        else:
            runtime.state = PhaseState.TRANSITION
        if not spans:
            return np.zeros(total, dtype=bool)
        starts, ends = zip(*spans)
        edges = np.zeros(total + 1, dtype=np.int8)
        edges[list(starts)] = 1
        edges[list(ends)] = -1
        return edges[:total].cumsum() > 0


def _walk_rounds(runtimes, shared: SharedTraceKernels) -> List[np.ndarray]:
    """Advance every lane over the trace in episode rounds.

    Outside phases the Adaptive detector is indistinguishable from the
    Constant one (the TW only grows while in phase), so every entry is
    found on the cached constant-geometry series.  Each round:

    1. every lane between episodes finds its next entry with scalar
       integer work (:meth:`_Lane.find_entry`);
    2. the anchors of all new Adaptive-TW entries, which fix their
       episodes' resized windows, come from one membership pass per
       window geometry (:meth:`_Rounds.anchors`);
    3. every open episode, new or continuing, gets its next block of
       in-phase similarities — a slice of the cached series for a
       Constant TW, the resized windows' similarities for an Adaptive
       TW — stacked into one rows x steps block, and one row-wise
       ``cumsum`` and compare finds the exits (:meth:`_Rounds.advance`).

    Rows are the lanes' current episodes only.  Each exit restarts the
    lane's filled-mask origin at the flush point and sends it back to
    step 1; a phase still open when its lane reaches the trace end
    stays open for ``finish``.  A Constant-TW anchor only corrects its
    phase's start, so one membership pass over every Constant-TW
    episode fills those in after the last round.
    """
    for runtime in runtimes:
        if not vectorized_eligible(runtime):
            raise ValueError("runtime is not eligible for the vectorized kernel")
    total = shared.total
    if total == 0:
        return [np.zeros(0, dtype=bool) for _ in runtimes]
    lanes = [_Lane(runtime, shared) for runtime in runtimes]
    rounds = _Rounds(shared, lanes)
    idle = lanes
    live: List[_Lane] = []
    while True:
        adaptive: dict = {}
        for lane in idle:
            if not lane.find_entry(total):
                continue
            if lane.kind == _CONSTANT:
                if lane.open_episode(total):
                    live.append(lane)
            else:
                adaptive.setdefault((lane.cwc, lane.twc), []).append(lane)
        for (cwc, twc), group in adaptive.items():
            anchors = rounds.anchors(
                [min((lane.entry + 1) * lane.skip, total) for lane in group],
                cwc, twc, [lane.rn for lane in group],
            )
            for lane, anchor in zip(group, anchors):
                if lane.open_episode(total, anchor):
                    live.append(lane)
        if not live:
            break
        idle, live = rounds.advance(live)
    rounds.correct_starts(lanes)
    return [lane.finish(shared.data) for lane in lanes]


class _Rounds:
    """The arrays one :func:`_walk_rounds` pass shares across rounds:
    the Constant-TW lanes' series laid end to end (each padded with
    ``-inf``, the value of every step past a row's block), the
    unweighted lanes' per-window-start distinct counts, the weighted
    lanes' per-code TW counts, and the anchor passes' membership
    matrix."""

    def __init__(self, shared: SharedTraceKernels, lanes: List[_Lane]) -> None:
        self.total = shared.total
        self.codes, self.n_codes = shared.codes()
        self.prev = None
        self._rows = np.arange(max(len(lanes), 1), dtype=np.int64)
        self._cols = np.arange(_MAX_BLOCK_STEPS + 1, dtype=np.int64)
        self.member: Optional[np.ndarray] = None
        self.codes_ext: Optional[np.ndarray] = None
        series: List[np.ndarray] = []
        distinct: List[np.ndarray] = []
        series_base: dict = {}
        distinct_base: dict = {}
        pad = np.full(_MAX_BLOCK_STEPS, -np.inf)
        weighted = 0
        for lane in lanes:
            if lane.kind == _CONSTANT:
                base = series_base.get(id(lane.sims))
                if base is None:
                    base = series_base[id(lane.sims)] = sum(a.size for a in series)
                    series += [lane.sims, pad]
                lane.base = base
                continue
            self.prev = shared.prev()
            if lane.kind == _WEIGHTED:
                lane.row = weighted
                weighted += 1
            elif lane.distinct is not None:
                base = distinct_base.get(lane.cwc)
                if base is None:
                    base = distinct_base[lane.cwc] = sum(a.size for a in distinct)
                    distinct.append(lane.distinct)
                lane.base = base
        self.series = np.concatenate(series) if series else None
        self.distinct = np.concatenate(distinct) if distinct else None
        # Per weighted lane, per code: occurrences in [tw_left, covered).
        self.tw_counts = (
            np.zeros((weighted, self.n_codes), dtype=np.int64) if weighted else None
        )

    def rows(self, n: int) -> np.ndarray:
        """``arange(n)``, from a cached, grown-on-demand range."""
        if self._rows.size < n:
            self._rows = np.arange(2 * n, dtype=np.int64)
        return self._rows[:n]

    def cols(self, n: int) -> np.ndarray:
        """``arange(n)``, from a cached, grown-on-demand range."""
        if self._cols.size < n:
            self._cols = np.arange(2 * n, dtype=np.int64)
        return self._cols[:n]

    # -- anchors ---------------------------------------------------------------

    def anchors(
        self, ends: List[int], cwc: int, twc: int, rn: List[bool]
    ) -> List[int]:
        """Anchor offsets into the full, pre-resize TWs of the entry steps
        ending at ``ends`` (one row per entry, all of one geometry).

        RN: one past the TW's last element absent from the CW (0 if
        none).  LNN: the TW's first element present in the CW (``twc``
        if none).  Per chunk of rows: one scatter of the CW codes into a
        rows x codes membership matrix, one gather of the TW codes —
        flanked by an always-absent sentinel code on the left and an
        always-present one on the right, so both searches always hit —
        and one clear.
        """
        n_codes = self.n_codes
        if self.codes_ext is None:
            self.codes_ext = np.concatenate((self.codes, [n_codes, n_codes + 1]))
        chunk = max(1, min(len(ends), _ANCHOR_CELLS // (n_codes + twc + cwc + 2)))
        member = self.member
        if member is None or member.shape[0] < chunk:
            member = self.member = np.zeros((chunk, n_codes + 2), dtype=bool)
            member[:, n_codes + 1] = True
            # Flat offsets of the rows of the (chunk, codes) membership.
            self.member_rows = self.rows(chunk)[:, None] * (n_codes + 2)
        cw_offsets = self.cols(cwc) - cwc
        tw_offsets = self.cols(twc + 2) - (cwc + twc + 1)
        total = self.total
        anchors: List[int] = []
        flat = member.reshape(-1)
        for lo in range(0, len(ends), chunk):
            at = np.array(ends[lo : lo + chunk])[:, None]
            shift = self.member_rows[: at.shape[0]]
            cw_codes = self.codes[at + cw_offsets] + shift
            tw_at = at + tw_offsets
            tw_at[:, 0] = total
            tw_at[:, -1] = total + 1
            flat[cw_codes] = True
            in_cw = flat[self.codes_ext[tw_at] + shift]
            flat[cw_codes] = False
            use_rn = rn[lo : lo + chunk]
            if all(use_rn):
                found = twc - in_cw[:, twc::-1].argmin(axis=1)
            elif not any(use_rn):
                found = in_cw[:, 1:].argmax(axis=1)
            else:
                found = np.where(
                    use_rn, twc - in_cw[:, twc::-1].argmin(axis=1),
                    in_cw[:, 1:].argmax(axis=1),
                )
            anchors += found.tolist()
        return anchors

    def correct_starts(self, lanes: List[_Lane]) -> None:
        """Anchor-correct the starts of every Constant-TW episode, open
        or closed, with one membership pass per window geometry."""
        groups: dict = {}
        for lane in lanes:
            if lane.kind == _CONSTANT and (lane.closed or lane.open):
                groups.setdefault((lane.cwc, lane.twc), []).append(lane)
        for (cwc, twc), group in groups.items():
            ends: List[int] = []
            rn: List[bool] = []
            for lane in group:
                ends += [phase[1] for phase in lane.closed]
                if lane.open:
                    ends.append(lane.corrected)
                rn += [lane.rn] * (len(ends) - len(rn))
            found = iter(self.anchors(ends, cwc, twc, rn))
            fill = cwc + twc
            for lane in group:
                for phase in lane.closed:
                    anchor_abs = phase[1] - fill + next(found)
                    phase[1] = anchor_abs if anchor_abs < phase[0] else phase[0]
                if lane.open:
                    anchor_abs = lane.corrected - fill + next(found)
                    lane.corrected = min(anchor_abs, lane.detected)

    # -- in-phase blocks -------------------------------------------------------

    def advance(self, live: List[_Lane]) -> Tuple[List[_Lane], List[_Lane]]:
        """Scan the next block of every open episode; return the lanes
        whose phase exited (they look for an entry next round) and those
        still in phase."""
        groups: Tuple[List[_Lane], ...] = ([], [], [])
        for lane in live:
            groups[lane.kind].append(lane)
        # A lone row's blocks keep doubling; rows with company share each
        # round's block width, so theirs stop sooner.  Weighted blocks
        # carry a code axis, so theirs always do.
        cap = _BLOCK_STEPS if len(live) > 1 else _MAX_BLOCK_STEPS
        blocks = []
        if groups[_CONSTANT]:
            blocks.append(self._series_rows(groups[_CONSTANT], cap))
        if groups[_UNWEIGHTED]:
            blocks.append(self._unweighted_rows(groups[_UNWEIGHTED], cap))
        if groups[_WEIGHTED]:
            blocks.append(self._weighted_rows(groups[_WEIGHTED], _BLOCK_STEPS))
        lanes, blk, lens = blocks[0] if len(blocks) == 1 else _stack(blocks)
        cuts, totals = self._exits(lanes, blk)
        total = self.total
        exited: List[_Lane] = []
        still: List[_Lane] = []
        for index, lane in enumerate(lanes):
            lane.total = totals[index]
            cut = cuts[index]
            lane.count += cut
            if cut < lens[index]:
                if lane.kind == _WEIGHTED:
                    self.tw_counts[lane.row, self.codes[lane.tw_left : lane.covered]] = 0
                lane.close(lane.step + cut, total)
                exited.append(lane)
                continue
            if lane.parts is not None:
                # A copy: a view would keep the whole round's block alive.
                lane.parts.append(blk[index, :cut].copy())
            lane.step += cut
            if lane.step >= lane.n_steps:
                lane.open = True
                continue
            if lane.size < _MAX_BLOCK_STEPS:
                lane.size *= 2
            still.append(lane)
        return exited, still

    def _exits(self, lanes: List[_Lane], blk: np.ndarray) -> Tuple[List[int], List[float]]:
        """Each row's cut — its first step below its bar, or its block
        length when it stays in phase — and its phase total through the
        steps before the cut.

        One seeded row-wise ``cumsum`` performs exactly
        ``PhaseStats.add``'s left-to-right additions, so Average bars and
        phase means are bit-identical to the incremental loop's; adding a
        block to a separately summed prefix (or ``sum()``, which
        compensates since Python 3.12) would not round the same way.
        ``max(x, -inf)`` is ``x`` and ``max(x - _NEVER, threshold)`` is
        the threshold, so one ``maximum`` gives both analyzers' bars.
        Every step past a row's block holds ``-inf`` — one extra column
        guarantees there is one — which is below any bar, so the first
        step below the bar is never past the block, and never summed.
        """
        n, width = blk.shape
        averaging = fixed = False
        params = []
        for lane in lanes:
            params.append((lane.total, lane.count, lane.drop, lane.floor))
            if lane.drop == _NEVER:
                fixed = True
            else:
                averaging = True
        params = np.array(params)
        steps = np.concatenate((params[:, :1], blk, np.full((n, 1), -np.inf)), axis=1)
        cum = steps.cumsum(axis=1)
        if averaging:
            bars = cum[:, :-1] / (params[:, 1:2] + self.cols(width + 1))
            bars -= params[:, 2:3]
            if fixed:
                np.maximum(bars, params[:, 3:4], out=bars)
        else:
            bars = params[:, 3:4]
        cut = (steps[:, 1:] < bars).argmax(axis=1)
        return cut.tolist(), cum[self.rows(n), cut].tolist()

    def _series_rows(self, lanes: List[_Lane], cap: int):
        """Constant-TW blocks: slices of the lanes' cached series.  A
        Threshold row's block runs through its exit step, the next step
        of the series below the bar, so a row alone in its round needs
        one round per episode."""
        for lane in lanes:
            below = lane.below
            if below is not None:
                at = bisect_left(below, lane.step)
                end = below[at] if at < len(below) else lane.n_steps
                lane.size = end - lane.step + 1
        width = _width(lanes, cap)
        lens = []
        starts = []
        for lane in lanes:
            left = lane.n_steps - lane.step
            lens.append(width if width < left else left)
            starts.append(lane.base + lane.step)
        blk = self.series[np.array(starts)[:, None] + self.cols(width)]
        return lanes, blk, lens

    def _unweighted_rows(self, lanes: List[_Lane], cap: int):
        """Adaptive-TW unweighted blocks, one row per episode.

        At step end ``c`` the CW is ``[w, c)`` with ``w = max(L, c -
        cwc)`` and the TW is ``[A, w)`` (``A = tw_left``, ``L =
        cw_left``).  An occurrence ``i`` in the CW is a distinct member
        iff ``prev[i] < w`` (its element's first CW occurrence), and its
        element is shared with the TW iff additionally ``prev[i] >= A``
        — its latest earlier occurrence is the TW's membership witness.
        So ``shared = distinct - stale`` with ``stale`` the CW
        occurrences with ``prev[i] < A``: one row-wise prefix count of
        ``prev < A`` over the row's span.  While the CW slides (``w = c
        - cwc``) ``distinct`` is the shared per-window-start array;
        while it refills from ``L`` (``w = L``, SLIDE episodes only) it
        is a second prefix count, of ``prev < L``.
        """
        total = self.total
        width = _width(lanes, cap)
        lens: List[int] = []
        table = []
        span = 0
        refill = False
        unit = True
        for lane in lanes:
            step, skip, cwc, left = lane.step, lane.skip, lane.cwc, lane.cw_left
            length = lane.n_steps - step
            lens.append(width if width < length else length)
            lo = (step + 1) * skip
            lo = (lo if lo < total else total) - cwc
            if lo <= left:
                lo = left
                refill = True
            reach = (step + width) * skip
            reach = (reach if reach < total else total) - lo
            if reach > span:
                span = reach
            unit = unit and skip == 1
            table.append((step, skip, cwc, left, lane.tw_left, lane.base, lo))
        step, skip, cwc, left, tw_left, base, lo = np.array(table).T[:, :, None]
        n = len(lanes)
        ends = step + self.cols(width + 1)[1:]
        if not unit:
            ends *= skip
        np.minimum(ends, total, out=ends)
        starts = ends - cwc
        seg = self.prev.take(lo + self.cols(span), mode="clip")
        stale = np.zeros((n, span + 1), dtype=np.int64)
        (seg < tw_left).cumsum(axis=1, out=stale[:, 1:])
        # Flat offsets into the row-major (n, span + 1) prefix counts.
        shift = self.rows(n)[:, None] * (span + 1) - lo
        at_end = ends + shift
        distinct = self.distinct[starts + base]
        if refill:
            refilling = starts <= left
            at_start = np.where(refilling, left, starts) + shift
            firsts = np.zeros((n, span + 1), dtype=np.int64)
            (seg < left).cumsum(axis=1, out=firsts[:, 1:])
            distinct = np.where(refilling, firsts.ravel()[at_end], distinct)
        else:
            at_start = starts + shift
        stale = stale.ravel()
        shared = distinct - (stale[at_end] - stale[at_start])
        # distinct >= 1: the CW's first element always counts.
        return lanes, _pad(shared / distinct, lens, self.cols(width)), lens

    def _weighted_rows(self, lanes: List[_Lane], cap: int):
        """Adaptive-TW weighted blocks, one row per episode.

        Same geometry as :meth:`_unweighted_rows`.  Each row covers the
        span from ``covered`` (its first CW start, or ``A`` on the
        episode's first block) to its last step end, with cumulative
        occurrence counts ``occ`` over the rows' local code set (the
        span's codes, numbered by ``np.unique``).  The
        growing TW's per-code counts split as ``tw_e = tw_counts[row, e]
        + occ[w]``: ``tw_counts`` covers ``[A, covered)`` and advances by
        the span's counts up to the next block's first CW start, so each
        block is one ``np.minimum`` reduction over the local code set — a
        code absent from a row's CW has ``cw_e = 0`` and contributes
        nothing, which keeps the restriction exact.  The numerator
        ``sum_e min(cw_e * tw_len, tw_e * cw_len)`` is a pure integer
        sum, so any evaluation order is bit-exact; the single float
        division matches the fused loop's (an empty TW gives ``0 / 1``,
        the reference's 0.0).  Blocks narrow (then rows split) to keep
        ``occ`` within :data:`_OCC_CELL_LIMIT` cells.
        """
        total = self.total
        codes = self.codes
        n = len(lanes)
        width = _width(lanes, cap)
        while True:
            lens: List[int] = []
            table = []
            span = 0
            for lane in lanes:
                step, skip = lane.step, lane.skip
                length = lane.n_steps - step
                if width < length:
                    length = width
                lens.append(length)
                last = (step + length) * skip
                after = last + skip
                if last > total:
                    last = total
                after = (after if after < total else total) - lane.cwc
                if after < lane.cw_left:
                    after = lane.cw_left
                reach = (last if last > after else after) - lane.covered
                if reach > span:
                    span = reach
                table.append((step, skip, lane.cwc, lane.cw_left, lane.tw_left,
                              lane.covered, lane.row, last, after))
            info = np.array(table)
            covered = info[:, 5, None]
            # Positions past a row's own span only reach occ rows it
            # never reads; counting them keeps the scatter rectangular.
            seg = codes.take(covered + self.cols(span), mode="clip")
            uniq, local = np.unique(seg, return_inverse=True)
            if n * (span + 1) * uniq.size <= _OCC_CELL_LIMIT:
                break
            if width > 1:
                width //= 2
            elif n > 1:
                return _stack(
                    [self._weighted_rows(lanes[: n // 2], width),
                     self._weighted_rows(lanes[n // 2 :], width)]
                )
            else:
                break
        step, skip, cwc, left, tw_left, _, row, last, after = (
            info[:, k, None] for k in range(9)
        )
        # Flat offsets into the row-major (n, span + 1, k) counts of the
        # k local codes.
        k = uniq.size
        shift = self.rows(n)[:, None] * (span + 1) - covered
        occ = np.zeros((n, span + 1, k), dtype=np.int64)
        occ.reshape(-1)[
            (covered + shift + self.cols(span + 1)[1:]) * k + local.reshape(seg.shape)
        ] = 1
        occ.cumsum(axis=1, out=occ)
        occ = occ.reshape(-1, k)
        ends = np.minimum((step + self.cols(width + 1)[1:]) * skip, last)
        starts = np.maximum(left, ends - cwc)
        cw_len = ends - starts
        tw_len = starts - tw_left
        start_rows = occ[starts + shift]
        cw_e = occ[ends + shift] - start_rows
        counts = self.tw_counts
        before = counts[row, uniq]
        tw_e = start_rows + before[:, None, :]
        cw_e *= tw_len[:, :, None]
        tw_e *= cw_len[:, :, None]
        snum = np.minimum(cw_e, tw_e, out=cw_e).sum(axis=2)
        blk = snum / np.maximum(cw_len * tw_len, 1)
        counts[row, uniq] = before + occ[(after + shift)[:, 0]]
        for lane, start in zip(lanes, info[:, 8].tolist()):
            lane.covered = start
        return lanes, _pad(blk, lens, self.cols(width)), lens


def _width(lanes: List[_Lane], cap: int) -> int:
    """Block width of a group of rows: the widest row's next block,
    at most ``cap``."""
    width = 0
    for lane in lanes:
        size = lane.size
        left = lane.n_steps - lane.step
        if left < size:
            size = left
        if size > width:
            width = size
    return width if width < cap else cap


def _pad(blk: np.ndarray, lens: List[int], cols: np.ndarray) -> np.ndarray:
    """``blk`` with every column at or past its row's length set to
    ``-inf`` (steps past the trace end)."""
    if min(lens) < blk.shape[1]:
        blk[cols >= np.array(lens)[:, None]] = -np.inf
    return blk


def _stack(blocks):
    """One ``(lanes, blk, lens)`` triple from several, ``-inf``-padded
    to the widest block."""
    lanes: List[_Lane] = []
    lens: List[int] = []
    width = max(blk.shape[1] for _, blk, _ in blocks)
    out = np.full((sum(blk.shape[0] for _, blk, _ in blocks), width), -np.inf)
    row = 0
    for group, blk, group_lens in blocks:
        out[row : row + blk.shape[0], : blk.shape[1]] = blk
        row += blk.shape[0]
        lanes += group
        lens += group_lens
    return lanes, out, lens
