"""The offset-ordered first-fit arena against the original rescan loop.

``ReferenceFirstFitArena`` is the allocator as first written: every
call rebuilds and sorts the list of placed extents whose lifetime
overlaps the request, then walks it.  It is quadratic and kept here
only as the oracle the production arena must match offset for offset.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.platform import CNN_STRIDE, training_setup
from repro.nn.liveness import analyze_liveness
from repro.nn.planner import FirstFitArena, _align, plan_memory


class ReferenceFirstFitArena:
    """The O(n^2) first-fit loop, verbatim in behaviour."""

    def __init__(self, alignment: int = 64) -> None:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ConfigurationError("alignment must be a positive power of two")
        self.alignment = alignment
        self._placed: List[Tuple[int, int, int, int]] = []
        self.high_water = 0

    def allocate(self, size: int, start: int, end: int) -> int:
        if size <= 0:
            raise ConfigurationError("allocation size must be positive")
        if end < start:
            raise ConfigurationError("interval end precedes start")
        size = _align(size, self.alignment)
        blockers = sorted(
            (off, sz)
            for off, sz, other_start, other_end in self._placed
            if other_start <= end and start <= other_end
        )
        candidate = 0
        for off, sz in blockers:
            if candidate + size <= off:
                break
            candidate = max(candidate, _align(off + sz, self.alignment))
        self._placed.append((candidate, size, start, end))
        self.high_water = max(self.high_water, candidate + size)
        return candidate


def _replay(requests, alignment):
    fast, slow = FirstFitArena(alignment), ReferenceFirstFitArena(alignment)
    for size, start, end in requests:
        assert fast.allocate(size, start, end) == slow.allocate(size, start, end)
        assert fast.high_water == slow.high_water
    return fast


# Few distinct sizes and op indices, so identical, adjacent and nested
# intervals and exact-fit holes come up often.
_requests = st.lists(
    st.tuples(
        st.sampled_from([1, 63, 64, 65, 1000, 1024, 3000, 4096, 5000, 16384]),
        st.integers(0, 12),
        st.integers(0, 6),
    ).map(lambda r: (r[0], r[1], r[1] + r[2])),
    max_size=80,
)


class TestMatchesReference:
    @pytest.mark.parametrize("alignment", [64, 1024, 4096])
    @settings(max_examples=150, deadline=None)
    @given(requests=_requests)
    def test_random_sequences(self, alignment, requests):
        _replay(requests, alignment)

    @pytest.mark.parametrize("alignment", [64, 1024, 4096])
    def test_identical_adjacent_and_nested(self, alignment):
        requests = [
            (4096, 0, 10), (4096, 0, 10), (64, 0, 10),   # identical
            (100, 10, 12), (100, 13, 15), (100, 11, 11),  # adjacent, nested
            (8192, 2, 3), (64, 3, 3), (4096, 0, 20),      # nested in time
        ]
        _replay(requests, alignment)

    def test_reuses_hole_left_by_dead_extent(self):
        arena = _replay([(1024, 0, 1), (1024, 0, 5)], 64)
        assert arena.allocate(1024, 2, 5) == 0
        assert arena.high_water == 2048

    def test_grows_past_initial_capacity(self):
        requests = [(64 * (i % 7 + 1), i % 50, i % 50 + i % 9) for i in range(500)]
        _replay(requests, 64)

    def test_rejects_bad_requests(self):
        arena = FirstFitArena()
        with pytest.raises(ConfigurationError):
            arena.allocate(0, 0, 1)
        with pytest.raises(ConfigurationError):
            arena.allocate(64, 2, 1)
        with pytest.raises(ConfigurationError):
            FirstFitArena(alignment=48)


def _reference_offsets(graph, alignment):
    lives = sorted(
        analyze_liveness(graph), key=lambda life: (life.start, -life.tensor.size_bytes)
    )
    arena = ReferenceFirstFitArena(alignment)
    offsets = {
        life.tensor: arena.allocate(life.tensor.size_bytes, life.start, life.end)
        for life in lives
    }
    return offsets, arena.high_water


@pytest.mark.parametrize("network", ["inception_v4", "resnet200", "densenet264"])
def test_plan_memory_matches_reference_at_quick_size(network):
    training, _ = training_setup(network, True)
    graph = training.graph
    alignment = CNN_STRIDE * 64
    plan = plan_memory(graph, alignment=alignment)
    offsets, high_water = _reference_offsets(graph, alignment)
    assert plan.offsets == offsets
    assert plan.buffer_bytes == _align(high_water, alignment)
