"""Tests for the trace-driven cache simulator (repro.hardware.cache)."""

import numpy as np
import pytest

from repro.config import CacheSpec, SystemSpec
from repro.hardware.cache import SetAssociativeCache
from repro.hardware.cat import CatController
from repro.units import KiB


def make_cat(ways: int = 4, clos_masks: dict[int, int] | None = None):
    spec = SystemSpec(
        cores=2,
        llc=CacheSpec(8 * 64 * ways, ways),
        l1d=CacheSpec(2 * KiB, 2),
        l2=CacheSpec(4 * KiB, 4),
    )
    cat = CatController(spec)
    for clos, mask in (clos_masks or {}).items():
        cat.set_clos_mask(clos, mask)
    return spec, cat


class TestBasicBehaviour:
    def test_miss_then_hit(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        assert cache.access(0x40) is False
        assert cache.access(0x40) is True
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_same_line_different_bytes_hit(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        cache.access(0x40)
        assert cache.access(0x41) is True  # same 64 B line

    def test_capacity_eviction(self, tiny_cache_spec):
        # 4 ways: the 5th distinct line mapping to one set evicts LRU.
        cache = SetAssociativeCache(tiny_cache_spec)
        sets = tiny_cache_spec.sets
        lines = [i * sets * 64 for i in range(5)]  # all map to set 0
        for addr in lines:
            cache.access(addr)
        # The first (LRU) line is gone; the last four are resident.
        assert not cache.contains(lines[0])
        for addr in lines[1:]:
            assert cache.contains(addr)

    def test_lru_order_respects_reuse(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        sets = tiny_cache_spec.sets
        lines = [i * sets * 64 for i in range(4)]
        for addr in lines:
            cache.access(addr)
        cache.access(lines[0])  # refresh line 0 -> line 1 becomes LRU
        cache.access(4 * sets * 64)  # force an eviction
        assert cache.contains(lines[0])
        assert not cache.contains(lines[1])

    def test_occupancy_never_exceeds_capacity(self, tiny_cache_spec, rng):
        cache = SetAssociativeCache(tiny_cache_spec)
        capacity_lines = tiny_cache_spec.sets * tiny_cache_spec.ways
        for addr in rng.integers(0, 1 << 20, size=2000):
            cache.access(int(addr) * 64)
        assert cache.valid_lines() <= capacity_lines

    def test_flush(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        cache.access(0x40)
        cache.flush()
        assert cache.valid_lines() == 0
        assert cache.stats.accesses == 0

    def test_hit_ratio_zero_without_accesses(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        assert cache.stats.hit_ratio == 0.0

    def test_access_many_returns_delta(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        delta = cache.access_many([0x40, 0x40, 0x80])
        assert delta.misses == 2
        assert delta.hits == 1

    def test_access_many_delta_includes_evictions(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        sets = tiny_cache_spec.sets
        # Pre-fill set 0, then access_many forces two evictions; the
        # returned delta must count only the evictions of this call.
        cache.access_many([i * sets * 64 for i in range(4)])
        delta = cache.access_many([i * sets * 64 for i in range(4, 6)])
        assert delta.evictions == 2
        assert delta.misses == 2
        assert cache.stats.evictions == 2


class TestStreamAccounting:
    def test_per_stream_stats(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        cache.access(0x40, stream="a")
        cache.access(0x40, stream="a")
        cache.access(0x80, stream="b")
        assert cache.stats_by_stream["a"].hits == 1
        assert cache.stats_by_stream["b"].misses == 1

    def test_occupancy_by_stream(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        cache.access(0x40, stream="a")
        cache.access(0x80, stream="b")
        occupancy = cache.occupancy_by_stream()
        assert occupancy == {"a": 1, "b": 1}

    def test_prefetch_not_counted_as_demand(self, tiny_cache_spec):
        cache = SetAssociativeCache(tiny_cache_spec)
        cache.access(0x40, is_prefetch=True)
        assert cache.stats.accesses == 0
        assert cache.contains(0x40)


class TestCatWayMasking:
    def test_restricted_clos_only_fills_its_ways(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        cache = SetAssociativeCache(spec.llc, cat=cat)
        sets = spec.llc.sets
        for i in range(16):
            cache.access(i * sets * 64, clos=1)
        occupancy = cache.occupancy_by_way()
        assert set(occupancy) <= {0, 1}

    def test_isolation_between_disjoint_masks(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3, 2: 0xC})
        cache = SetAssociativeCache(spec.llc, cat=cat)
        sets = spec.llc.sets
        # Fill CLOS 1's ways with its working set.
        protected = [i * sets * 64 for i in range(2)]
        for addr in protected:
            cache.access(addr, clos=1)
        # CLOS 2 churns through many lines of the same set.
        for i in range(2, 50):
            cache.access(i * sets * 64, clos=2)
        # CLOS 1's lines were never evicted: disjoint mask isolation.
        for addr in protected:
            assert cache.contains(addr)

    def test_hits_allowed_anywhere(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3, 2: 0xC})
        cache = SetAssociativeCache(spec.llc, cat=cat)
        cache.access(0x0, clos=2)  # resident in ways 2-3
        # CLOS 1 can *hit* on it although it may not allocate there.
        assert cache.access(0x0, clos=1) is True

    def test_restricted_occupancy_bounded(self, rng):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        cache = SetAssociativeCache(spec.llc, cat=cat)
        for addr in rng.integers(0, 1 << 16, size=3000):
            cache.access(int(addr) * 64, clos=1)
        # Everything CLOS 1 cached lives in its two ways.
        outside = cache.lines_in_ways(0xC)
        assert outside == 0

    def test_clos_ways_memoized_until_mask_change(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        cache = SetAssociativeCache(spec.llc, cat=cat)
        first = cache._clos_ways(1)
        assert cache._clos_ways(1) is first  # cached, not rebuilt
        version = cat.mask_version
        cat.set_clos_mask(1, 0xC)
        assert cat.mask_version > version
        updated = cache._clos_ways(1)
        assert updated is not first
        assert updated == [2, 3]

    def test_mask_reprogramming_respected_mid_trace(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        cache = SetAssociativeCache(spec.llc, cat=cat)
        sets = spec.llc.sets
        cache.access(0, clos=1)
        cat.set_clos_mask(1, 0xC)  # must invalidate the memo
        for i in range(1, 8):
            cache.access(i * sets * 64, clos=1)
        # New fills landed only in ways 2-3; the old line in ways 0-1
        # was never evicted by them.
        assert cache.contains(0)
        assert cache.occupancy_by_way().get(0, 0) + \
            cache.occupancy_by_way().get(1, 0) == 1
