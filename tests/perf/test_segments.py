"""Unit tests for the segmented-batch primitives.

Every derived view of :class:`~repro.perf.segments.SegmentedBatch` is
checked against a brute-force per-key computation, on every case of the
grouping ladder in :func:`~repro.perf.segments.segment`; the segmented
first-True queries are checked against per-segment loops, and the round
decomposition against the legacy per-round ``np.unique`` loop it
replaced.
"""

import numpy as np
import pytest

from repro.perf import segments as segments_module
from repro.perf.segments import (
    NEARLY_SORTED_DIVISOR,
    DuplicateProbe,
    SegmentedBatch,
    run_labels,
    segment,
)


def legacy_rounds(keys):
    """The superseded decomposition: one np.unique per collision round."""
    remaining = np.arange(keys.size, dtype=np.int64)
    while remaining.size:
        _, first = np.unique(keys[remaining], return_index=True)
        if first.size == remaining.size:
            yield remaining
            return
        first.sort()
        yield remaining[first]
        keep = np.ones(remaining.size, dtype=bool)
        keep[first] = False
        remaining = remaining[keep]


def brute_rank(keys):
    """Occurrence number of each batch position within its key."""
    counts = {}
    out = np.zeros(keys.size, dtype=np.int64)
    for i, key in enumerate(keys.tolist()):
        out[i] = counts.get(key, 0)
        counts[key] = out[i] + 1
    return out


def batches():
    rng = np.random.default_rng(0x5E65)
    yield np.array([], dtype=np.int64)
    yield np.array([3], dtype=np.int64)
    yield np.array([5, 5, 5, 5], dtype=np.int64)  # adversarial: one key
    yield np.array([2, 0, 1, 3], dtype=np.int64)  # collision-free
    yield np.array([4, 1, 4, 2, 1, 4, 0], dtype=np.int64)
    for _ in range(20):
        n = int(rng.integers(0, 64))
        yield rng.integers(0, 8, size=n).astype(np.int64)


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_grouping_invariants(keys):
    seg = segment(keys)
    n = keys.size
    # order is a permutation; the grouped view is key-sorted and stable.
    assert sorted(seg.order.tolist()) == list(range(n))
    np.testing.assert_array_equal(seg.sorted_keys, np.sort(keys, kind="stable"))
    for key in np.unique(keys).tolist():
        positions = seg.order[seg.sorted_keys == key]
        np.testing.assert_array_equal(positions, np.flatnonzero(keys == key))
    # first/last flag exactly the segment boundaries.
    assert seg.num_segments == np.unique(keys).size
    np.testing.assert_array_equal(seg.leaders, np.unique(keys))
    assert int(seg.first.sum()) == seg.num_segments
    assert int(seg.last.sum()) == seg.num_segments
    assert seg.collision_free == (np.unique(keys).size == n)
    # rank, mapped back to batch order, matches the brute-force count.
    rank_by_position = np.zeros(n, dtype=np.int64)
    rank_by_position[seg.order] = seg.rank
    np.testing.assert_array_equal(rank_by_position, brute_rank(keys))


# ---------------------------------------------------------------------------
# The grouping ladder: every case equals the stable-argsort brute force
# ---------------------------------------------------------------------------


def ladder_cases():
    rng = np.random.default_rng(0x1ADD)
    n = 500
    shift = (n - 1).bit_length()
    limit = 1 << (63 - shift)
    shuffled = rng.integers(0, 50, size=n)
    # (name, keys, stable argsorts the grouping may make)
    yield "empty", np.array([], dtype=np.int64), 0
    yield "singleton", np.array([7], dtype=np.int64), 0
    yield "strictly-increasing", np.cumsum(rng.integers(1, 4, size=n)), 0
    yield "non-decreasing", np.sort(rng.integers(0, 40, size=n)), 0
    # n / NEARLY_SORTED_DIVISOR descents is the first count that packs.
    runs = np.tile(np.arange(NEARLY_SORTED_DIVISOR), NEARLY_SORTED_DIVISOR)
    yield "few-descents", runs, 1
    one_more = runs.copy()
    one_more[[1, 2]] = one_more[[2, 1]]
    yield "descents-at-bound", one_more, 0
    yield "shuffled", shuffled, 0
    yield "shuffled-distinct", rng.permutation(n), 0
    high = np.where(shuffled < 25, shuffled, limit - shuffled)
    at_limit = high.copy()
    at_limit[[0, 7]] = limit - 1
    yield "at-pack-limit", at_limit, 0
    past_limit = high.copy()
    past_limit[7] = limit
    yield "past-pack-limit", past_limit, 1
    yield "negative", shuffled - 25, 1
    yield "uint64", shuffled.astype(np.uint64), 0


LADDER = list(ladder_cases())


@pytest.fixture
def argsort_calls(monkeypatch):
    """Count the stable argsorts the grouping makes."""
    calls = []
    real = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(segments_module.np, "argsort", spy)
    return calls


@pytest.mark.parametrize(
    "keys,argsorts", [c[1:] for c in LADDER], ids=[c[0] for c in LADDER]
)
@pytest.mark.parametrize("build", ["segment", "constructor"])
def test_ladder_matches_stable_argsort(keys, argsorts, build, argsort_calls):
    n = keys.size
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundary = sorted_keys[1:] != sorted_keys[:-1]
    argsort_calls.clear()
    seg = segment(keys) if build == "segment" else SegmentedBatch(keys)
    assert len(argsort_calls) == argsorts
    np.testing.assert_array_equal(seg.order, order)
    np.testing.assert_array_equal(seg.sorted_keys, sorted_keys)
    assert seg.sorted_keys.dtype == keys.dtype
    np.testing.assert_array_equal(seg.first, np.concatenate(([True], boundary))[:n])
    np.testing.assert_array_equal(seg.last, np.concatenate((boundary, [True]))[:n])
    np.testing.assert_array_equal(seg.rank, brute_rank(keys)[order])
    assert seg.collision_free == (np.unique(keys).size == n)
    assert [r.tolist() for r in seg.rounds()] == [r.tolist() for r in legacy_rounds(keys)]
    # Only a sort-free grouping is in batch order, and it is not copied.
    assert seg.in_batch_order == np.array_equal(order, np.arange(n))
    values = np.arange(n) * 3 + 1
    np.testing.assert_array_equal(seg.grouped(values), values[order])
    assert (seg.grouped(values) is values) == seg.in_batch_order


def test_strictly_increasing_skips_the_probe():
    class NoProbe(DuplicateProbe):
        def collision_free(self, keys):
            raise AssertionError("a strictly increasing batch must not probe")

    keys = np.arange(0, 300, 3, dtype=np.int64)
    seg = segment(keys, probe=NoProbe(300))
    assert seg.collision_free
    np.testing.assert_array_equal(seg.order, np.arange(keys.size))


def test_probe_proves_shuffled_batch_distinct(argsort_calls):
    keys = np.random.default_rng(3).permutation(256).astype(np.int64)
    seg = segment(keys, probe=DuplicateProbe(256))
    assert seg.collision_free and not argsort_calls
    np.testing.assert_array_equal(seg.order, np.arange(keys.size))  # distinct view


# ---------------------------------------------------------------------------
# Segmented queries
# ---------------------------------------------------------------------------


def _per_segment(seg, mask):
    for s in range(seg.num_segments):
        in_seg = np.flatnonzero(seg.segment_id == s)
        yield in_seg, mask[in_seg]


@pytest.mark.parametrize("seed", range(8))
def test_segmented_scans_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 6, size=int(rng.integers(1, 80))).astype(np.int64)
    mask = rng.random(keys.size) < 0.4
    seg = segment(keys)

    first = seg.first_mask(mask)
    none_before = seg.none_before(mask)
    totals = seg.segment_total(mask)
    for s, (in_seg, seg_mask) in enumerate(_per_segment(seg, mask)):
        earlier = np.cumsum(seg_mask) - seg_mask
        np.testing.assert_array_equal(first[in_seg], seg_mask & (earlier == 0))
        np.testing.assert_array_equal(none_before[in_seg], earlier == 0)
        assert totals[s] == int(seg_mask.sum())


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_first_true_queries_on_edge_masks(keys):
    seg = segment(keys)
    n = keys.size
    for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
        np.testing.assert_array_equal(seg.first_mask(mask), mask & seg.first)
        np.testing.assert_array_equal(seg.none_before(mask), ~mask | seg.first)


def test_segment_total_empty():
    seg = segment(np.array([], dtype=np.int64))
    empty = np.zeros(0, dtype=bool)
    assert seg.segment_total(empty).size == 0
    assert seg.first_mask(empty).size == 0
    assert seg.none_before(empty).size == 0


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_rounds_match_legacy_decomposition(keys):
    new = [r.tolist() for r in segment(keys).rounds()]
    old = [r.tolist() for r in legacy_rounds(keys)]
    assert new == old


def test_rounds_partition_and_distinctness():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 5, size=200).astype(np.int64)
    seen = []
    for chunk in segment(keys).rounds():
        round_keys = keys[chunk]
        assert np.unique(round_keys).size == round_keys.size  # pairwise distinct
        seen.extend(chunk.tolist())
    assert sorted(seen) == list(range(keys.size))  # exact partition


def test_all_same_key_rounds_are_singletons():
    keys = np.full(9, 4, dtype=np.int64)
    chunks = [c.tolist() for c in SegmentedBatch(keys).rounds()]
    assert chunks == [[i] for i in range(9)]


@pytest.mark.parametrize("keys", list(batches()), ids=lambda k: f"n{k.size}")
def test_select_is_the_grouped_sub_batch(keys):
    seg = segment(keys)
    positions = np.flatnonzero(np.random.default_rng(keys.size).random(keys.size) < 0.5)
    sub = seg.select(positions)
    expected = segment(seg.sorted_keys[positions])
    np.testing.assert_array_equal(sub.keys, seg.sorted_keys[positions])
    np.testing.assert_array_equal(sub.order, np.arange(positions.size))
    for view in ("sorted_keys", "first", "last", "first_pos", "rank"):
        np.testing.assert_array_equal(getattr(sub, view), getattr(expected, view))
    assert [r.tolist() for r in sub.rounds()] == [
        r.tolist() for r in legacy_rounds(sub.keys)
    ]


def test_run_labels():
    starts = np.array([True, False, True, True, False, False, True])
    np.testing.assert_array_equal(run_labels(starts), [0, 0, 1, 2, 2, 2, 3])
    assert run_labels(np.zeros(0, dtype=bool)).size == 0
