"""The BranchTrace container.

A :class:`BranchTrace` is the immutable unit of input to every detector
and to the baseline oracle: a dense array of packed profile elements
plus optional provenance metadata.  Internally it is a ``numpy`` int64
array so that whole-trace statistics (distinct sites, entropy, run
structure) stay cheap even for million-element traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.profiles.element import METHOD_SHIFT, ProfileElement, decode_element


@dataclass(frozen=True)
class TraceStats:
    """Whole-trace summary statistics."""

    length: int
    distinct_elements: int
    distinct_methods: int
    entropy_bits: float
    most_common_element: int
    most_common_fraction: float


class BranchTrace:
    """An immutable sequence of packed profile elements.

    The element array may be any int64-compatible buffer, including a
    read-only ``np.memmap`` over an on-disk ``.btrace`` payload (the
    zero-copy sweep path) — every view, statistic, and detector kernel
    works on read-only backing, and hashing/equality depend only on the
    element data, never on how it is stored.

    Args:
        elements: packed profile-element integers (any int sequence or
            numpy array; coerced to an int64 array — zero-copy when the
            input is already int64, e.g. a little-endian memmap).
        name: optional provenance label (e.g. the workload name).
        meta: optional free-form metadata dictionary.
    """

    __slots__ = ("_data", "name", "meta", "_unique", "_codes", "_prev")

    def __init__(
        self,
        elements: Union[Sequence[int], np.ndarray],
        name: str = "",
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        data = np.asarray(elements, dtype=np.int64)
        if data.ndim != 1:
            raise ValueError(f"trace must be one-dimensional, got shape {data.shape}")
        if data.size and data.min() < 0:
            raise ValueError("profile elements must be non-negative")
        data.setflags(write=False)
        self._data = data
        self.name = name
        self.meta = dict(meta or {})
        # Lazy caches; the data array is immutable, so neither ever
        # needs invalidation.
        self._unique: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._codes: Optional[np.ndarray] = None
        self._prev: Optional[np.ndarray] = None

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self._data.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BranchTrace(self._data[index], name=self.name, meta=self.meta)
        return int(self._data[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchTrace):
            return NotImplemented
        return np.array_equal(self._data, other._data)

    def __hash__(self) -> int:
        # __eq__ compares only the element data, so the hash must be a
        # function of the data alone (name/meta must not participate).
        return hash((int(self._data.size), self._data[:64].tobytes()))

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"BranchTrace({label!r}, length={len(self)})"

    # -- views ---------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only int64 array."""
        return self._data

    def decoded(self) -> Iterator[ProfileElement]:
        """Iterate decoded :class:`ProfileElement` values (slow; for debugging)."""
        for value in self._data.tolist():
            yield decode_element(value)

    def chunks(self, size: int) -> Iterator[np.ndarray]:
        """Yield consecutive chunks of at most ``size`` elements."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        for start in range(0, len(self), size):
            yield self._data[start : start + size]

    # -- statistics ----------------------------------------------------------

    def unique(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted distinct elements and their occurrence counts.

        Computed once and cached — :meth:`stats`,
        :meth:`distinct_elements`, and :meth:`dense_codes` all share the
        same ``np.unique`` pass.  The array is immutable, so the cache
        never needs invalidation.
        """
        if self._unique is None:
            values, counts = np.unique(self._data, return_counts=True)
            values.setflags(write=False)
            counts.setflags(write=False)
            self._unique = (values, counts)
        return self._unique

    def dense_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense remap of the trace: ``(codes, values)``.

        ``values`` is the sorted distinct-element array from
        :meth:`unique` and ``codes`` an int32 array with
        ``values[codes[i]] == array[i]`` — packed int64 profile
        elements mapped to contiguous small ints, so detector kernels
        can replace per-element hash lookups with flat array indexing
        (see :mod:`repro.core.kernels`).  Cached on the trace and shared
        across every detector lane of a bank pass.
        """
        values, _ = self.unique()
        if self._codes is None:
            codes = np.searchsorted(values, self._data).astype(np.int32)
            codes.setflags(write=False)
            self._codes = codes
        return self._codes, values

    def prev_links(self) -> np.ndarray:
        """Previous-occurrence links: ``prev[i]`` is the index of the
        previous occurrence of ``array[i]`` (or -1 for first occurrences).

        The interval-stabbing similarity kernels of
        :mod:`repro.core.kernels` derive every unweighted window count
        from these links; like :meth:`dense_codes` the array is computed
        once per trace and shared by every detector lane of a batched
        bank pass.
        """
        if self._prev is None:
            from repro.core.kernels import _prev_occurrence

            codes, _ = self.dense_codes()
            prev = _prev_occurrence(codes)
            prev.setflags(write=False)
            self._prev = prev
        return self._prev

    def adopt_dense_codes(
        self, codes: np.ndarray, values: np.ndarray, counts: np.ndarray
    ) -> None:
        """Seed the dense-remap caches from a persisted ``.bcodes`` sidecar.

        ``codes``/``values``/``counts`` must be exactly what
        :meth:`dense_codes` and :meth:`unique` would compute for this
        trace (the sidecar reader validates them against the trace's
        content hash before calling this); the arrays may be read-only
        memmaps.  Cheap shape checks guard against a caller wiring the
        wrong sidecar to the wrong trace.
        """
        codes = np.asarray(codes, dtype=np.int32)
        values = np.asarray(values, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if codes.shape != self._data.shape:
            raise ValueError(
                f"sidecar codes length {codes.size} != trace length {self._data.size}"
            )
        if values.shape != counts.shape:
            raise ValueError(
                f"sidecar values/counts length mismatch: {values.size} vs {counts.size}"
            )
        for array in (codes, values, counts):
            array.setflags(write=False)
        self._unique = (values, counts)
        self._codes = codes

    def stats(self) -> TraceStats:
        """Compute whole-trace summary statistics."""
        if len(self) == 0:
            return TraceStats(0, 0, 0, 0.0, -1, 0.0)
        values, counts = self.unique()
        probs = counts / counts.sum()
        entropy = float(-(probs * np.log2(probs)).sum())
        top = int(np.argmax(counts))
        methods = np.unique(values >> METHOD_SHIFT)
        return TraceStats(
            length=len(self),
            distinct_elements=int(values.size),
            distinct_methods=int(methods.size),
            entropy_bits=entropy,
            most_common_element=int(values[top]),
            most_common_fraction=float(counts[top] / len(self)),
        )

    def distinct_elements(self) -> int:
        """Number of distinct profile elements in the trace."""
        return int(self.unique()[0].size)

    def concat(self, other: "BranchTrace") -> "BranchTrace":
        """Return a new trace that is this trace followed by ``other``."""
        return BranchTrace(
            np.concatenate([self._data, other._data]),
            name=self.name or other.name,
            meta={**other.meta, **self.meta},
        )

    @staticmethod
    def from_iter(elements: Iterable[int], name: str = "") -> "BranchTrace":
        """Build a trace by materializing an iterable of packed elements."""
        return BranchTrace(np.fromiter(elements, dtype=np.int64), name=name)
