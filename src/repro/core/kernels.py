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
trace via one cached ``np.unique`` pass.  Every lane of a
:class:`~repro.core.bank.DetectorBank` pass shares the same remap, the
same way the bank already shares the trace decode.

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
  then scans the phase's resized windows segment-locally
  (``_scan_phase_unweighted`` / ``_scan_phase_weighted``) for the exit.
- Both analyzers' bars are episode-local too (:class:`_ExitRule`).
  Entry is a fixed bar — ``threshold`` or the Average analyzer's
  ``enter_threshold``.  In phase the Threshold bar stays put, and the
  Average bar at each step is the running phase mean minus ``delta``.
  The rule carries the phase's ``(total, count)`` across scan blocks
  and extends it with ``np.cumsum`` seeded by the carried total: the
  same left-to-right additions as ``PhaseStats.add``, so bars and phase
  means are bit-identical to the incremental loop's.

**Batched bank advancement** — :class:`SharedTraceKernels` caches
prev-occurrence links, skip-group boundaries, and whole similarity
series per window *signature* ``(weighted, cw, tw, skip)``, so a
:class:`~repro.core.bank.DetectorBank` whose members differ only by
analyzer bars or anchor/resize policy computes each series once.
:func:`run_bank_batched` drives every kernel member through one
shared cache (:func:`bank_batching_enabled` / ``REPRO_BANK_BATCHED=0``
to disable).

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
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.analyzers import ThresholdAnalyzer
from repro.core.config import AnchorPolicy, ResizePolicy, TrailingPolicy
from repro.core.models import WeightedSetModel
from repro.core.state import PhaseState

__all__ = [
    "kernels_enabled",
    "bank_batching_enabled",
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


def bank_batching_enabled() -> bool:
    """True unless ``REPRO_BANK_BATCHED`` disables the batched bank
    advancer (``0``/``false``/``off``/``no``)."""
    return os.environ.get("REPRO_BANK_BATCHED", "").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


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

#: Step granularity of the blockwise scans (both the weighted numerator
#: blocks and the adaptive in-phase exit scan).
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
        self._marks: Optional[np.ndarray] = None
        self._slots: Optional[np.ndarray] = None

    def codes(self) -> Tuple[np.ndarray, int]:
        """``(codes, n_codes)`` from the trace's cached dense remap."""
        if self._codes is None:
            codes, values = self.trace.dense_codes()
            self._codes = (codes, int(values.size))
        return self._codes

    def marks(self) -> np.ndarray:
        """An all-False per-code scratch array for the walks' entry
        anchor tests; each user clears whatever it sets."""
        if self._marks is None:
            self._marks = np.zeros(self.codes()[1], dtype=bool)
        return self._marks

    def slots(self) -> np.ndarray:
        """A per-code int64 scratch array for numbering a span's local
        code set; callers overwrite every entry they read."""
        if self._slots is None:
            self._slots = np.zeros(self.codes()[1], dtype=np.int64)
        return self._slots

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


def run_vectorized(
    runtime, trace, shared: Optional[SharedTraceKernels] = None
) -> np.ndarray:
    """Run ``runtime`` over ``trace`` with the vectorized fast path.

    Computes the constant-geometry similarity series up front, then
    replays the detector's decision sequence in episodes
    (:func:`_walk`): find the next phase entry among filled steps, find
    its exit, restart the filled-mask origin at the flush point.
    Phases (with anchor-corrected starts and exact mean similarities)
    land in ``runtime.tracker`` and the final model/analyzer state is
    reconstructed bit-identically; the caller still runs
    ``runtime.finish``.  Returns the bool state array.

    ``shared`` optionally supplies a :class:`SharedTraceKernels` cache
    so bank lanes reuse per-trace/per-signature arrays.
    """
    if not vectorized_eligible(runtime):
        raise ValueError("runtime is not eligible for the vectorized kernel")
    if shared is None:
        shared = SharedTraceKernels(trace)
    return _walk(runtime, shared)


#: First block of the in-phase exit scans, in steps.  Phases are short
#: on small windows, so scans start small and double up to
#: :data:`_BLOCK_STEPS`.
_FIRST_BLOCK_STEPS = 16


class _ExitRule:
    """One analyzer's decision bars, applied to precomputed similarities.

    ``enter`` is the fixed entry bar: ``threshold`` for the Threshold
    analyzer, ``enter_threshold`` for the Average analyzer.  In phase
    the Threshold bar stays ``enter`` (``delta`` is ``None``); the
    Average bar at each step is ``total / count - delta`` over the
    phase's similarities so far.  ``total``/``count`` carry the open
    phase's statistics across scan blocks for both analyzers — they
    also give the phase mean.
    """

    __slots__ = ("enter", "delta", "total", "count")

    def __init__(self, analyzer) -> None:
        if type(analyzer) is ThresholdAnalyzer:
            self.enter = analyzer.threshold
            self.delta = None
        else:
            self.enter = analyzer.enter_threshold
            self.delta = analyzer.delta
        self.total = 0.0
        self.count = 0

    def open(self, entry_sim: float) -> None:
        """Seed the statistics with the entry step (``0.0 + entry_sim``
        is exactly ``entry_sim``, as in ``PhaseStats.add``)."""
        self.total = entry_sim
        self.count = 1

    def first_below(self, blk: np.ndarray) -> int:
        """Offset of the first similarity in ``blk`` below its bar, or
        -1 when every step stays in phase.  The in-phase steps before
        it are folded into ``(total, count)``.

        ``np.cumsum`` seeded with the carried total performs exactly
        ``PhaseStats.add``'s left-to-right additions; adding the block
        to a separately summed prefix (or ``sum()``, which compensates
        since Python 3.12) would not round the same way.
        """
        cum = np.concatenate(([self.total], blk)).cumsum()
        if self.delta is None:
            below = blk < self.enter
        else:
            bars = cum[:-1] / np.arange(self.count, self.count + blk.size)
            bars -= self.delta
            below = blk < bars
        cut = int(below.argmax())
        exited = bool(below[cut])
        if not exited:
            cut = int(blk.size)
        self.total = float(cum[cut])
        self.count += cut
        return cut if exited else -1

    def series_exit(
        self, sims: np.ndarray, entry: int, gaps: Optional[np.ndarray]
    ) -> int:
        """First step after ``entry`` below its bar in a precomputed
        series (-1 if the phase runs to the end), statistics folded.

        A fixed bar takes the next of the precomputed below-bar
        ``gaps``; the Average bar scans blockwise.
        """
        if self.delta is None:
            drop = int(gaps.searchsorted(entry + 1))
            exit_step = int(gaps[drop]) if drop < gaps.size else -1
            stop = exit_step if exit_step >= 0 else int(sims.size)
            self.total = float(sims[entry:stop].cumsum()[-1])
            self.count = stop - entry
            return exit_step
        s = entry + 1
        size = _FIRST_BLOCK_STEPS
        while s < sims.size:
            cut = self.first_below(sims[s : s + size])
            if cut >= 0:
                return s + cut
            s += size
            size = min(size * 2, _BLOCK_STEPS)
        return -1


def _anchor(
    codes: np.ndarray, marks: np.ndarray, c_entry: int, cwc: int, twc: int,
    rn_anchor: bool,
) -> int:
    """Anchor offset into the entry step's full, pre-resize TW.

    RN: one past the TW's last element absent from the CW (0 if none).
    LNN: the TW's first element present in the CW (``twc`` if none).
    ``marks`` is an all-False per-code scratch array; CW membership is
    one scatter and one gather on it, and it is cleared again before
    returning.
    """
    cw_slice = codes[c_entry - cwc : c_entry]
    marks[cw_slice] = True
    in_cw = marks[codes[c_entry - cwc - twc : c_entry - cwc]]
    marks[cw_slice] = False
    if rn_anchor:
        backwards = in_cw[::-1]
        last_noisy = int(backwards.argmin())  # counted from the right
        return 0 if backwards[last_noisy] else twc - last_noisy
    first_hit = int(in_cw.argmax())
    return first_hit if in_cw[first_hit] else twc


def _walk(runtime, shared: SharedTraceKernels) -> np.ndarray:
    """Episode walk for every vectorized configuration.

    Outside phases the Adaptive detector is indistinguishable from the
    Constant one (the TW only grows while in phase), so every entry is
    found on the cached constant-geometry series.  A Constant-TW phase
    keeps reading that series up to its exit
    (:meth:`_ExitRule.series_exit`).  An Adaptive-TW entry instead fixes
    the episode's resized-window geometry exactly: with anchor offset
    ``anchor`` (computed over the pre-resize windows, as the reference
    path does), the TW's left edge pins at ``A = anchor_abs`` for the
    whole phase and the CW's left edge starts at ``L = c_entry - cwc +
    moved`` (``moved = min(anchor, cwc-1)`` for SLIDE, 0 for MOVE).  At
    any later step end ``c`` the windows are pure slice functions of
    ``(A, L, c)``: ``cw_start = max(L, c - cwc)``, CW = ``[cw_start,
    c)``, TW = ``[A, cw_start)``.  The per-episode scans
    (:func:`_scan_phase_unweighted` / :func:`_scan_phase_weighted`)
    vectorize those similarities blockwise up to the first step below
    the analyzer's bar, after which the flush restores constant
    geometry and the next episode begins.
    """
    from repro.core.runtime import DetectedPhase

    config = runtime.config
    skip = config.skip_factor
    cwc = config.cw_size
    twc = config.effective_tw_size
    fill_span = cwc + twc
    data = shared.data
    total = shared.total
    states = np.zeros(total, dtype=bool)
    if total == 0:
        return states
    codes, n_codes = shared.codes()
    step_ends = shared.step_ends(skip)
    weighted = type(runtime.model) is WeightedSetModel
    adaptive = config.trailing is TrailingPolicy.ADAPTIVE
    sims, counts = shared.series(weighted, cwc, twc, skip)
    rule = _ExitRule(runtime.analyzer)
    entries = (sims >= rule.enter).nonzero()[0]
    gaps = None
    if adaptive:
        prev = shared.prev()
        distinct_all = counts[0] if counts is not None else None
        base_counts = np.zeros(n_codes, dtype=np.int64) if weighted else None
    elif rule.delta is None:
        gaps = (sims < rule.enter).nonzero()[0]
    marks = shared.marks()

    tracker = runtime.tracker
    rn_anchor = config.anchor is AnchorPolicy.RN
    slide = config.resize is ResizePolicy.SLIDE
    origin = 0
    cursor = 0
    open_sims = None  # the similarities of a phase open at the trace end
    pinned = None  # its (tw_left, cw_left) if the TW is Adaptive
    while origin + fill_span <= total:
        # First filled step: the first step end >= origin + fill_span.
        first_filled = -(-(origin + fill_span) // skip) - 1
        hit = int(entries.searchsorted(max(first_filled, cursor)))
        if hit >= entries.size:
            break
        entry = int(entries[hit])
        c_entry = int(step_ends[entry])
        detected_start = entry * skip
        anchor = _anchor(codes, marks, c_entry, cwc, twc, rn_anchor)
        anchor_abs = (c_entry - fill_span) + anchor
        corrected = anchor_abs if anchor_abs < detected_start else detected_start
        rule.open(float(sims[entry]))
        if adaptive:
            tw_left = anchor_abs
            cw_left = c_entry - cwc + (min(anchor, cwc - 1) if slide else 0)
            if weighted:
                exit_step, parts = _scan_phase_weighted(
                    codes, prev, shared.slots(), base_counts, step_ends,
                    entry, tw_left, cw_left, cwc, rule,
                )
            else:
                exit_step, parts = _scan_phase_unweighted(
                    prev, distinct_all, step_ends, entry,
                    tw_left, cw_left, cwc, total, rule,
                )
        else:
            exit_step = rule.series_exit(sims, entry, gaps)
        if exit_step < 0:
            if adaptive:
                pinned = (tw_left, cw_left)
                open_sims = [sims[entry : entry + 1]] + parts
            else:
                open_sims = [sims[entry:]]
            tracker.open_detected = detected_start
            tracker.open_corrected = corrected
            states[detected_start:total] = True
            break
        c_exit = int(step_ends[exit_step])
        end = exit_step * skip
        tracker.phases.append(
            DetectedPhase(detected_start, corrected, end, rule.total / rule.count)
        )
        states[detected_start:end] = True
        origin = c_exit - min(c_exit - end, cwc)
        cursor = exit_step + 1

    # ---- reconstruct the final incremental state -------------------------
    model = runtime.model
    if pinned is not None:
        tw_start = pinned[0]
        cw_start = max(pinned[1], total - cwc)
        model.filled = True
        model.growing = True
    else:
        since_origin = total - origin
        cw_len = since_origin if since_origin < cwc else cwc
        tw_len = min(max(since_origin - cwc, 0), twc)
        cw_start = total - cw_len
        tw_start = cw_start - tw_len
        model.filled = since_origin >= fill_span
        model.growing = False
    for element in data[tw_start:cw_start].tolist():
        model._tw_add(element)
    for element in data[cw_start:total].tolist():
        model._cw_add(element)
    model.consumed = total
    if open_sims is not None:
        episode_sims = np.concatenate(open_sims)
        stats = runtime.analyzer.stats
        stats.count = rule.count
        stats.total = rule.total
        low = float(np.min(episode_sims))
        high = float(np.max(episode_sims))
        stats.minimum = low if low < 1.0 else 1.0
        stats.maximum = high if high > 0.0 else 0.0
        runtime.state = PhaseState.PHASE
    else:
        runtime.state = PhaseState.TRANSITION
    return states


def _scan_phase_unweighted(
    prev: np.ndarray,
    distinct_all: np.ndarray,
    step_ends: np.ndarray,
    entry: int,
    tw_left: int,
    cw_left: int,
    cwc: int,
    total: int,
    rule: _ExitRule,
) -> Tuple[int, List[np.ndarray]]:
    """Blockwise in-phase unweighted similarities for one episode.

    Geometry per step end ``c``: CW = ``[max(L, c-cwc), c)``, TW =
    ``[A, max(L, c-cwc))`` with ``A = tw_left``, ``L = cw_left``.  Two
    regimes, split per block by one ``searchsorted`` (step ends are
    sorted):

    - *refill* (``c <= L + cwc``): the CW is still refilling from
      ``L``.  An occurrence ``i`` in ``[L, c)`` is a distinct CW member
      iff ``prev[i] < L`` (its element's first CW occurrence), and
      shared with the TW iff additionally ``prev[i] >= A`` — its latest
      earlier occurrence is the TW's membership witness.  Both counts
      are prefix sums over ``prev[L : L+cwc]``, computed once per
      episode, and only if a step falls in the regime (MOVE episodes
      never refill).
    - *slide* (``c > L + cwc``): the CW is the plain trailing window at
      start ``l = c - cwc``, so ``distinct(l)`` — the occurrences ``i``
      in ``[l, l+cwc)`` with ``prev[i] < l`` — is the globally shared
      per-window-start array.  Since ``A <= l``, ``shared(l)`` is
      ``distinct(l)`` minus those with ``prev[i] < A``: one prefix
      count per block.

    Returns ``(exit_step, parts)``: ``exit_step`` is the first step
    below ``rule``'s bar (-1 if the phase stays open to the trace end)
    and ``parts`` the in-phase similarities after ``entry`` up to
    (excluding) the exit, blockwise.
    """
    parts: List[np.ndarray] = []
    n_steps = int(step_ends.size)
    refill_end = cw_left + cwc
    d_cum = s_cum = None
    s = entry + 1
    size = _FIRST_BLOCK_STEPS
    while s < n_steps:
        ends_blk = step_ends[s : s + size]
        blk = np.empty(ends_blk.size, dtype=np.float64)
        split = int(ends_blk.searchsorted(refill_end, side="right"))
        if split:
            if d_cum is None:
                seg_prev = prev[cw_left : min(refill_end, total)]
                rep = seg_prev < cw_left
                d_cum = np.concatenate(([0], rep.cumsum()))
                s_cum = np.concatenate(([0], (rep & (seg_prev >= tw_left)).cumsum()))
            r = ends_blk[:split] - cw_left
            # d_cum[r] >= 1 always: the CW's first element (offset
            # cw_left) trivially has prev < cw_left.
            blk[:split] = s_cum[r] / d_cum[r]
        if split < ends_blk.size:
            ls = ends_blk[split:] - cwc
            l_min = int(ls[0])
            # Occurrences before the TW: prefix counts of prev < A.
            stale = np.concatenate(
                ([0], (prev[l_min : int(ls[-1]) + cwc] < tw_left).cumsum())
            )
            rel = ls - l_min
            distinct = distinct_all[ls]
            blk[split:] = (distinct - (stale[rel + cwc] - stale[rel])) / distinct
        cut = rule.first_below(blk)
        if cut >= 0:
            parts.append(blk[:cut])
            return s + cut, parts
        parts.append(blk)
        s += int(ends_blk.size)
        size = min(size * 2, _BLOCK_STEPS)
    return -1, parts


def _scan_phase_weighted(
    codes: np.ndarray,
    prev: np.ndarray,
    slots: np.ndarray,
    base_counts: np.ndarray,
    step_ends: np.ndarray,
    entry: int,
    tw_left: int,
    cw_left: int,
    cwc: int,
    rule: _ExitRule,
) -> Tuple[int, List[np.ndarray]]:
    """Blockwise in-phase weighted similarities for one episode.

    Same geometry and return value as :func:`_scan_phase_unweighted`.
    Each block covers the span ``[p_lo, p_hi)`` from its first CW start
    to its last step end, with a cumulative occurrence matrix over the
    span's local code set (the codes whose ``prev`` link falls before
    ``p_lo``, numbered through the per-code ``slots`` scratch).  The
    growing TW's per-code counts split as ``tw_e = base_counts[e] +
    occ[cw_start]``: ``base_counts`` (a reusable per-code vector,
    advanced as the CW's left edge passes elements into the TW for
    good) covers ``[A, p_lo)``, so each block is one ``np.minimum``
    reduction over its local code set — a code absent from the block
    has ``cw_e = 0`` and contributes nothing, which keeps the
    restriction exact.  The numerator ``sum_e min(cw_e * tw_len, tw_e *
    cw_len)`` is a pure integer sum, so any evaluation order is
    bit-exact; the single float division matches the fused loop's.
    ``base_counts`` must arrive all-zero and is re-zeroed before
    returning.
    """
    parts: List[np.ndarray] = []
    n_steps = int(step_ends.size)
    covered = tw_left
    exit_step = -1
    s = entry + 1
    size = _FIRST_BLOCK_STEPS
    while s < n_steps:
        take = min(size, n_steps - s)
        while True:
            b1 = s + take
            ends_blk = step_ends[s:b1]
            cw_start = np.maximum(cw_left, ends_blk - cwc)
            p_lo = int(cw_start[0])
            p_hi = int(ends_blk[-1])
            uniq = codes[p_lo:p_hi][prev[p_lo:p_hi] < p_lo]
            if take == 1 or (p_hi - p_lo + 1) * uniq.size <= _OCC_CELL_LIMIT:
                break
            take = max(1, take // 2)
        slots[uniq] = np.arange(uniq.size)
        occ = np.zeros((p_hi - p_lo + 1, uniq.size), dtype=np.int64)
        occ[np.arange(1, p_hi - p_lo + 1), slots[codes[p_lo:p_hi]]] = 1
        occ.cumsum(axis=0, out=occ)
        if covered < p_lo:
            np.add.at(base_counts, codes[covered:p_lo], 1)
            covered = p_lo
        cw_len = ends_blk - cw_start
        tw_len = cw_start - tw_left
        start_rows = occ[cw_start - p_lo]
        cw_e = occ[ends_blk - p_lo] - start_rows
        tw_e = base_counts[uniq][None, :] + start_rows
        snum = np.minimum(cw_e * tw_len[:, None], tw_e * cw_len[:, None]).sum(axis=1)
        denom = cw_len * tw_len
        blk = np.divide(
            snum, denom, out=np.zeros(snum.size, dtype=np.float64),
            where=denom > 0,
        )
        cut = rule.first_below(blk)
        if cut >= 0:
            parts.append(blk[:cut])
            exit_step = s + cut
            break
        parts.append(blk)
        s = b1
        size = min(size * 2, _BLOCK_STEPS)
    base_counts[codes[tw_left:covered]] = 0
    return exit_step, parts


def run_bank_batched(
    runtimes, trace, histogram=None
) -> List[np.ndarray]:
    """Advance all vectorized-eligible bank ``runtimes`` over ``trace``.

    One :class:`SharedTraceKernels` instance funnels every lane's series
    computation: the dense-code decode, previous-occurrence links, step
    boundaries and each distinct ``(weighted, cw, tw, skip)`` similarity
    series are computed once and shared, so N lanes cost one series pass
    per window signature plus N cheap episode walks — instead of N full
    passes.  Lane order, per-lane results and checkpoints are exactly
    those of per-lane :func:`run_vectorized` calls (the sharing is a
    pure cache).  ``histogram`` optionally receives one per-lane
    duration observation, matching the bank's per-member timing.
    """
    shared = SharedTraceKernels(trace)
    states: List[np.ndarray] = []
    for runtime in runtimes:
        started = time.perf_counter() if histogram is not None else 0.0
        result = run_vectorized(runtime, trace, shared=shared)
        if histogram is not None:
            histogram.observe(time.perf_counter() - started)
        states.append(result)
    return states
