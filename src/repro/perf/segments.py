"""Segmented-batch primitives: one-sort decomposition of request batches.

A *segmented batch* groups the positions of one request batch by an
integer key — for the cache models, the set index — while preserving the
original order of requests within each key.  One stable grouping
permutation yields everything the batched cache engines need:

* ``order`` — batch positions regrouped key-major, original order kept
  within each key (so ``values[order]`` walks each set's accesses in
  program order);
* ``first`` / ``last`` — occurrence masks over the grouped view;
* ``rank`` — the occurrence number of each request within its key;
* segmented "first True" queries (:meth:`SegmentedBatch.first_mask`,
  :meth:`SegmentedBatch.none_before`) and per-segment totals
  (:meth:`SegmentedBatch.segment_total`) — the building blocks of the
  closed-form duplicate-resolution recurrences in
  :mod:`repro.cache.engine`.  Each is a ``flatnonzero`` of the mask
  plus a gather of the cached ``segment_id``: no full-length prefix
  sum over the mask, and no per-segment ``reduceat``.

The legacy decomposition re-ran ``np.unique`` — itself a stable argsort —
once *per collision round*, so a batch where every line maps to one set
cost O(n^2 log n).  Everything here is derived from one grouping, so
adversarial all-same-set batches cost the same O(n log n) as
collision-free ones.

The grouping itself sorts only when it must.  :func:`segment` counts the
batch's *descents* (adjacent pairs with ``keys[i + 1] < keys[i]``) and
takes the first case that applies:

1. strictly increasing keys — collision-free and already grouped:
   :meth:`SegmentedBatch.distinct`, no probe, no sort;
2. non-decreasing keys — the identity permutation is the grouping;
3. a :class:`DuplicateProbe` (when given) that proves the batch
   collision-free — an O(n) scatter/gather, then ``distinct``;
4. fewer than ``n / NEARLY_SORTED_DIVISOR`` descents — a stable
   argsort, which timsort finishes in near-linear time on such input;
5. otherwise one ``np.sort`` of ``(key << shift) | position`` with
   ``shift = bit_length(n - 1)``: the packed values are unique, so
   their order *is* the stable permutation, and both ``order`` and
   ``sorted_keys`` unpack from it.  Keys that do not fit the packing
   (negative, or ``>= 2**(63 - shift)``) fall back to the stable
   argsort.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

#: A batch with fewer than ``n / NEARLY_SORTED_DIVISOR`` descents is
#: grouped by the stable argsort: timsort merges its few long runs in
#: near-linear time, faster than the packed sort's full ``np.sort``.
NEARLY_SORTED_DIVISOR = 64


def run_labels(starts: np.ndarray) -> np.ndarray:
    """0-based label of the run each position is in; runs open at the
    True entries of ``starts`` (whose first entry must be True)."""
    # In place over an int64 copy: a cumsum straight off the bool mask
    # casts through a buffer and is several times slower.
    labels = starts.astype(np.int64)
    np.cumsum(labels, out=labels)
    labels -= 1
    return labels


def _descents(keys: np.ndarray) -> int:
    """Number of adjacent pairs with ``keys[i + 1] < keys[i]``."""
    if keys.size < 2:
        return 0
    return int(np.count_nonzero(keys[1:] < keys[:-1]))


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether a batch with no descents also has no equal neighbours."""
    return keys.size < 2 or not np.any(keys[1:] == keys[:-1])


def _stable_grouping(
    keys: np.ndarray, descents: int
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """``(order, keys[order])`` for the stable key-major grouping.

    ``order`` is ``None`` for the identity permutation (no descents).
    """
    n = keys.size
    if not descents:
        return None, keys
    shift = (n - 1).bit_length()
    if descents * NEARLY_SORTED_DIVISOR >= n and keys.dtype.kind in "iu":
        if int(keys.min()) >= 0 and int(keys.max()) < 1 << (63 - shift):
            packed = keys.astype(np.int64)
            packed <<= shift
            packed |= np.arange(n, dtype=np.int64)
            packed.sort()
            order = packed & ((1 << shift) - 1)
            packed >>= shift
            return order, packed.astype(keys.dtype, copy=False)
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


class SegmentedBatch:
    """A batch of integer keys grouped into contiguous segments.

    All mask/count attributes are indexed by *sorted position* (the
    key-major grouped view); ``order`` maps sorted positions back to the
    original batch positions.  Segments appear in ascending key order,
    and within a segment sorted positions preserve original batch order.
    """

    __slots__ = (
        "keys",
        "order",
        "sorted_keys",
        "first",
        "last",
        "first_pos",
        "collision_free",
        "_segment_id",
        "_rank",
    )

    def __init__(self, keys: np.ndarray) -> None:
        self._group(keys, *_stable_grouping(keys, _descents(keys)))

    def _group(
        self, keys: np.ndarray, order: Optional[np.ndarray], sorted_keys: np.ndarray
    ) -> None:
        n = keys.size
        self.keys = keys
        self.order = np.arange(n, dtype=np.int64) if order is None else order
        self.sorted_keys = sorted_keys
        if n:
            boundary = sorted_keys[1:] != sorted_keys[:-1]
            self.first = np.concatenate(([True], boundary))
            self.last = np.concatenate((boundary, [True]))
        else:
            self.first = np.zeros(0, dtype=bool)
            self.last = np.zeros(0, dtype=bool)
        self.first_pos = np.flatnonzero(self.first)
        self.collision_free = bool(self.first_pos.size == n)
        self._segment_id: Optional[np.ndarray] = None
        self._rank: Optional[np.ndarray] = None

    @classmethod
    def distinct(cls, keys: np.ndarray) -> "SegmentedBatch":
        """Grouped view of a batch *proven* to have pairwise-distinct keys.

        Skips the argsort entirely: every position is its own segment, so
        the identity permutation is a valid grouping (segments appear in
        batch order rather than ascending key order, which no consumer of
        a collision-free batch depends on).  Callers must have
        established distinctness, e.g. via :class:`DuplicateProbe`.
        """
        self = cls.__new__(cls)
        n = keys.size
        self.keys = keys
        self.order = np.arange(n, dtype=np.int64)
        self.sorted_keys = keys
        self.first = np.ones(n, dtype=bool)
        self.last = self.first
        self.first_pos = self.order
        self.collision_free = True
        self._segment_id = self.order
        self._rank = np.zeros(n, dtype=np.int64)
        return self

    # -- derived views (computed on first use) -----------------------------

    @property
    def in_batch_order(self) -> bool:
        """Whether the grouping is the identity permutation.

        Identity groupings (sorted, non-decreasing and distinct batches)
        share their key array with ``sorted_keys``.
        """
        return self.sorted_keys is self.keys

    def grouped(self, values: np.ndarray) -> np.ndarray:
        """``values[order]``: per-request values in grouped order (the
        array itself, uncopied, when the grouping is the identity)."""
        return values if self.in_batch_order else values[self.order]

    @property
    def num_segments(self) -> int:
        """Number of distinct keys in the batch."""
        return int(self.first_pos.size)

    @property
    def leaders(self) -> np.ndarray:
        """The distinct keys, ascending (one per segment)."""
        return self.sorted_keys[self.first]

    @property
    def segment_id(self) -> np.ndarray:
        """Segment index of each sorted position (0..num_segments-1)."""
        if self._segment_id is None:
            self._segment_id = run_labels(self.first)
        return self._segment_id

    @property
    def rank(self) -> np.ndarray:
        """Occurrence number of each sorted position within its segment."""
        if self._rank is None:
            if self.collision_free:
                self._rank = np.zeros(self.keys.size, dtype=np.int64)
            else:
                self._rank = (
                    np.arange(self.keys.size, dtype=np.int64)
                    - self.first_pos[self.segment_id]
                )
        return self._rank

    def select(self, positions: np.ndarray) -> "SegmentedBatch":
        """The sub-batch at ascending sorted ``positions``, still grouped.

        Its batch order is this batch's grouped order, so it takes no
        probe and no sort: a subset of a grouping is already grouped.
        """
        keys = self.sorted_keys[positions]
        sub = SegmentedBatch.__new__(SegmentedBatch)
        sub._group(keys, None, keys)
        return sub

    # -- segmented queries -------------------------------------------------

    def _first_true(self, mask: np.ndarray) -> np.ndarray:
        """Sorted positions of each segment's first True entry."""
        hits = np.flatnonzero(mask)
        if hits.size < 2:
            return hits
        owner = self.segment_id[hits]
        lead = np.empty(hits.size, dtype=bool)
        lead[0] = True
        np.not_equal(owner[1:], owner[:-1], out=lead[1:])
        # Index by position: a boolean-mask gather branches per element
        # and is several times slower on masks near half full.
        return hits[np.flatnonzero(lead)]

    def first_mask(self, mask: np.ndarray) -> np.ndarray:
        """True exactly at each segment's first True entry of ``mask``."""
        out = np.zeros(mask.size, dtype=bool)
        out[self._first_true(mask)] = True
        return out

    def none_before(self, mask: np.ndarray) -> np.ndarray:
        """Per sorted position: no True entry of ``mask`` strictly before
        it *within its segment*."""
        n = mask.size
        firsts = self._first_true(mask)
        segment_id = self.segment_id
        cutoff = np.full(self.num_segments, n, dtype=np.int64)
        cutoff[segment_id[firsts]] = firsts
        return np.arange(n, dtype=np.int64) <= cutoff[segment_id]

    def segment_total(self, mask: np.ndarray) -> np.ndarray:
        """Per-segment count of True entries (aligned with ``leaders``)."""
        owners = self.segment_id[np.flatnonzero(mask)]
        return np.bincount(owners, minlength=self.num_segments)

    # -- round decomposition (for models without a closed form) ------------

    def rounds(self) -> Iterator[np.ndarray]:
        """Partition the batch into rounds of pairwise-distinct keys.

        Round ``r`` holds the positions whose occurrence rank is ``r``,
        in ascending original order — exactly the rounds the legacy
        per-round ``np.unique`` loop produced, but with no sort beyond
        the grouping: round ``r`` is ``first_pos + r`` over the segments
        longer than ``r``.  Models whose same-set recurrence has no
        closed form (LRU ways) iterate these instead of re-sorting the
        remainder every round.
        """
        n = self.keys.size
        if not n:
            return
        if self.collision_free:
            yield np.arange(n, dtype=np.int64)
            return
        starts = self.first_pos
        lengths = np.diff(starts, append=n)
        in_batch_order = self.in_batch_order
        r = 0
        while starts.size:
            index = starts + r
            yield index if in_batch_order else np.sort(self.order[index])
            r += 1
            longer = lengths > r
            starts, lengths = starts[longer], lengths[longer]


class DuplicateProbe:
    """O(n) duplicate detection over a bounded key space.

    Scatters each batch position into a persistent per-key scratch slot
    and gathers it back: a position that does not read its own value was
    overwritten by a later occurrence of the same key, so the batch has
    duplicates.  The scratch is never cleared — every probe writes each
    slot it will read before reading it — so the per-batch cost is O(n)
    regardless of key-space size, and the only standing cost is the
    scratch allocation (one int64 per key, made lazily).

    The probe is *sound in both directions*: it returns ``True`` iff the
    batch is genuinely collision-free, so callers may take semantic
    shortcuts (single-round processing, sort-free grouping) on a
    ``True`` result.  To keep the standing allocation proportional to
    real work, the probe declines (returns ``False`` without allocating)
    until it sees a batch for which the scratch would be at most
    ``MAX_SLOTS_PER_KEY`` slots per batch element — tiny batches over a
    huge key space fall back to the sort, which is cheap at that size
    anyway.
    """

    #: Refuse to allocate scratch larger than this many slots per element
    #: of the batch that triggered the allocation.
    MAX_SLOTS_PER_KEY = 64

    __slots__ = ("space", "_scratch")

    def __init__(self, space: int) -> None:
        if space <= 0:
            raise ValueError(f"key space must be positive, got {space}")
        self.space = space
        self._scratch: Optional[np.ndarray] = None

    def collision_free(self, keys: np.ndarray) -> bool:
        """Whether ``keys`` (all in ``[0, space)``) are pairwise distinct."""
        n = keys.size
        if n <= 1:
            return True
        if n > self.space:
            return False  # pigeonhole: some key must repeat
        scratch = self._scratch
        if scratch is None:
            if self.space > n * self.MAX_SLOTS_PER_KEY:
                return False  # scratch would dwarf the batch; let it sort
            scratch = self._scratch = np.empty(self.space, dtype=np.int64)
        positions = np.arange(n, dtype=np.int64)
        scratch[keys] = positions
        return bool(np.array_equal(scratch[keys], positions))


def segment(keys: np.ndarray, probe: Optional[DuplicateProbe] = None) -> SegmentedBatch:
    """Group a batch of integer keys into a :class:`SegmentedBatch`.

    Sorts only when it must (see the module docstring for the ladder):
    strictly increasing keys, and with a ``probe`` any batch it proves
    collision-free, come back as the sort-free identity grouping
    (:meth:`SegmentedBatch.distinct`); non-decreasing keys group by the
    identity permutation.
    """
    descents = _descents(keys)
    if not descents and _strictly_increasing(keys):
        return SegmentedBatch.distinct(keys)
    if descents and probe is not None and probe.collision_free(keys):
        return SegmentedBatch.distinct(keys)
    seg = SegmentedBatch.__new__(SegmentedBatch)
    seg._group(keys, *_stable_grouping(keys, descents))
    return seg
