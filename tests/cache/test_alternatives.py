"""Tests for the set-associative ablation cache."""

import numpy as np
import pytest

from repro.cache import DirectMappedCache, SetAssociativeCache
from repro.errors import ConfigurationError
from repro.units import CACHE_LINE


@pytest.fixture
def cache():
    # 64 sets x 4 ways = 256 lines.
    return SetAssociativeCache(256 * 64, ways=4)


class TestConstruction:
    def test_geometry(self, cache):
        assert cache.num_sets == 64
        assert cache.ways == 4

    def test_rejects_indivisible_capacity(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(100 * 64, ways=3)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(256 * 64, ways=0)

    @pytest.mark.parametrize(
        "capacity", [0, -512, CACHE_LINE * 4 - 64], ids=["zero", "negative", "under-one-set"]
    )
    def test_rejects_capacity_below_one_set(self, capacity):
        with pytest.raises(ConfigurationError, match="at least one 4-way set"):
            SetAssociativeCache(capacity, ways=4)

    def test_rejects_non_positive_line_size(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(256 * 64, line_size=0, ways=4)


class TestAssociativity:
    def test_aliases_coexist_up_to_ways(self, cache):
        # Four lines mapping to the same set all fit.
        aliases = np.array([5, 5 + 64, 5 + 128, 5 + 192])
        cache.llc_read(aliases)
        assert cache.contains(aliases).all()

    def test_lru_eviction_on_overflow(self, cache):
        aliases = np.array([5 + 64 * i for i in range(5)])
        cache.llc_read(aliases[:4])
        cache.llc_read(aliases[4:])  # evicts the LRU line (5)
        assert not cache.contains(aliases[:1])[0]
        assert cache.contains(aliases[1:]).all()

    def test_touch_updates_lru(self, cache):
        aliases = np.array([5 + 64 * i for i in range(5)])
        cache.llc_read(aliases[:4])
        cache.llc_read(aliases[:1])  # make line 5 most-recent
        cache.llc_read(aliases[4:])  # should evict 5+64 instead
        assert cache.contains(aliases[:1])[0]
        assert not cache.contains(aliases[1:2])[0]

    def test_fewer_conflict_misses_than_direct_mapped(self):
        capacity = 256 * 64
        direct = DirectMappedCache(capacity)
        assoc = SetAssociativeCache(capacity, ways=8)
        # Ping-pong between two lines that alias in the direct-mapped
        # cache; the associative cache keeps both.
        a, b = 3, 3 + 256
        lines = np.array([a, b] * 50)
        _, direct_tags = direct.llc_read(lines)
        _, assoc_tags = assoc.llc_read(lines)
        assert assoc_tags.misses < direct_tags.misses


class TestProtocolCosts:
    def test_same_miss_costs_as_direct_mapped(self, cache):
        # Same Table-I access counts; only the mapping changes.
        traffic, tags = cache.llc_read(np.arange(10))
        assert tags.clean_misses == 10
        assert traffic.amplification == 3.0

    def test_write_miss_inserts(self, cache):
        traffic, tags = cache.llc_write(np.arange(10))
        assert traffic.amplification == 5.0 or traffic.amplification == 4.0
        assert tags.clean_misses == 10
        assert traffic.nvram_reads == 10

    def test_ddo_applies(self, cache):
        cache.llc_read(np.array([7]))
        traffic, tags = cache.llc_write(np.array([7]))
        assert tags.ddo_writes == 1
        assert traffic.dram_reads == 0

    def test_ddo_disabled(self):
        cache = SetAssociativeCache(256 * 64, ways=4, ddo_enabled=False)
        cache.llc_read(np.array([7]))
        traffic, tags = cache.llc_write(np.array([7]))
        assert tags.ddo_writes == 0
        assert tags.hits == 1

    def test_dirty_eviction_writes_back(self, cache):
        aliases = np.array([5 + 64 * i for i in range(4)])
        cache.llc_write(aliases)  # all dirty
        traffic, tags = cache.llc_read(np.array([5 + 64 * 4]))
        assert tags.dirty_misses == 1
        assert traffic.nvram_writes == 1


class TestStateIntrospection:
    def test_occupancy(self, cache):
        cache.llc_read(np.arange(128))
        assert cache.occupancy == pytest.approx(0.5)

    def test_dirty_fraction(self, cache):
        cache.llc_write(np.arange(64))
        assert cache.dirty_fraction == pytest.approx(0.25)

    def test_reset(self, cache):
        cache.llc_write(np.arange(64))
        cache.reset()
        assert cache.occupancy == 0.0

    def test_intra_batch_conflict_order(self, cache):
        traffic, tags = cache.llc_read(np.array([9, 9]))
        assert tags.clean_misses == 1
        assert tags.hits == 1
