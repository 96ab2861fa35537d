"""Tests for the vectorized trace engine (repro.hardware.fastcache).

The fast engine's contract is *bit-identical* behaviour to the
reference loop, its oracle; the unit tests here pin the individual
semantics (LRU, CAT confinement, prefetch accounting, stream
re-branding, lazy CLOS errors) and the state digest.
Equivalence with the oracle on random traces lives in
``test_hardware_fastcache_properties.py``.
"""

import numpy as np
import pytest

from repro.config import CacheSpec, SystemSpec
from repro.errors import CatError
from repro.hardware.cache import SetAssociativeCache, cache_state_digest
from repro.hardware.cat import CatController
from repro.hardware.fastcache import FastSetAssociativeCache
from repro.units import KiB

LINE = 64


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
        cache = FastSetAssociativeCache(tiny_cache_spec)
        assert cache.access_batch([0x40]).tolist() == [False]
        assert cache.access_batch([0x40]).tolist() == [True]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_batch_miss_then_hit(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        hits = cache.access_batch(np.array([0x40, 0x40, 0x80]))
        assert hits.tolist() == [False, True, False]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    def test_capacity_eviction_is_lru(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        sets = tiny_cache_spec.sets
        lines = np.arange(5) * sets * LINE  # all map to set 0
        cache.access_batch(lines)
        assert not cache.contains(0)
        for addr in lines[1:]:
            assert cache.contains(int(addr))

    def test_lru_order_respects_reuse_within_batch(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        sets = tiny_cache_spec.sets
        trace = [0, 1, 2, 3, 0, 4]  # refresh line 0, then evict
        cache.access_batch(np.array(trace) * sets * LINE)
        assert cache.contains(0)
        assert not cache.contains(1 * sets * LINE)

    def test_access_many_delta_includes_evictions(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        sets = tiny_cache_spec.sets
        cache.access_many([i * sets * LINE for i in range(4)])
        delta = cache.access_many([i * sets * LINE for i in range(4, 6)])
        assert delta.misses == 2
        assert delta.evictions == 2
        assert cache.stats.evictions == 2

    def test_flush_empties_lines_and_stats(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        cache.access_batch([0x40, 0x80])
        cache.flush()
        assert cache.valid_lines() == 0
        assert cache.stats.accesses == 0

    def test_empty_batch_is_a_no_op(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        hits = cache.access_batch(np.array([], dtype=np.int64))
        assert len(hits) == 0
        assert cache.stats.accesses == 0


class TestStreamsAndPrefetch:
    def test_per_stream_stats(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        cache.access_batch(
            np.array([0x40, 0x40, 0x80]),
            stream=np.array(["a", "a", "b"]),
        )
        assert cache.stats_by_stream["a"].hits == 1
        assert cache.stats_by_stream["b"].misses == 1
        assert cache.occupancy_by_stream() == {"a": 1, "b": 1}

    def test_prefetch_fills_without_counting(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        cache.access_batch(np.array([0x40]), is_prefetch=True)
        assert cache.stats.accesses == 0
        assert cache.contains(0x40)

    def test_demand_hit_rebrands_stream(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        cache.access_batch([0x40, 0x40], stream=["old", "new"])
        assert cache.occupancy_by_stream() == {"new": 1}

    def test_empty_label_does_not_rebrand(self, tiny_cache_spec):
        # The reference's `stream or line.stream` keeps the old label
        # for falsy labels; the fast engine must match.
        ref = SetAssociativeCache(tiny_cache_spec)
        fast = FastSetAssociativeCache(tiny_cache_spec)
        for cache in (ref, fast):
            cache.access_batch([0x40, 0x40], stream=["old", ""])
        assert ref.occupancy_by_stream() == fast.occupancy_by_stream()

    def test_prefetch_hit_does_not_rebrand(self, tiny_cache_spec):
        cache = FastSetAssociativeCache(tiny_cache_spec)
        cache.access_batch(
            [0x40, 0x40], stream=["owner", "toucher"],
            is_prefetch=[False, True],
        )
        assert cache.occupancy_by_stream() == {"owner": 1}


class TestCatWayMasking:
    def test_restricted_clos_only_fills_its_ways(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        cache = FastSetAssociativeCache(spec.llc, cat=cat)
        sets = spec.llc.sets
        cache.access_batch(np.arange(16) * sets * LINE, clos=1)
        assert set(cache.occupancy_by_way()) <= {0, 1}
        assert cache.lines_in_ways(0xC) == 0

    def test_hits_allowed_anywhere(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3, 2: 0xC})
        cache = FastSetAssociativeCache(spec.llc, cat=cat)
        cache.access_batch([0x0], clos=2)  # resident in ways 2-3
        hits = cache.access_batch(np.array([0x0]), clos=1)
        assert bool(hits[0]) is True

    def test_disjoint_masks_isolate_within_batch(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3, 2: 0xC})
        cache = FastSetAssociativeCache(spec.llc, cat=cat)
        sets = spec.llc.sets
        protected = np.arange(2) * sets * LINE
        churn = np.arange(2, 50) * sets * LINE
        addrs = np.concatenate([protected, churn])
        clos = np.concatenate([np.full(2, 1), np.full(48, 2)])
        cache.access_batch(addrs, clos=clos)
        for addr in protected:
            assert cache.contains(int(addr))

    def test_unconfigured_clos_raises_lazily_on_miss(self):
        # The reference resolves masks only on a miss: a hit under an
        # unconfigured CLOS is fine, the first miss raises.  The batch
        # engine must preserve both halves of that behaviour.
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        for cls in (SetAssociativeCache, FastSetAssociativeCache):
            cache = cls(spec.llc, cat=cat)
            cache.access_batch([0x0], clos=1)
            hits = cache.access_batch(np.array([0x0]), clos=9)  # hit: ok
            assert bool(hits[0]) is True
            with pytest.raises(CatError):
                cache.access_batch(np.array([0x40 * 99]), clos=9)

    def test_failed_batch_leaves_state_untouched(self):
        spec, cat = make_cat(ways=4, clos_masks={1: 0x3})
        cache = FastSetAssociativeCache(spec.llc, cat=cat)
        cache.access_batch(np.arange(4) * LINE, clos=1)
        digest = cache_state_digest(cache)
        stats = vars(cache.stats).copy()
        with pytest.raises(CatError):
            cache.access_batch(np.arange(8) * LINE, clos=7)
        assert cache_state_digest(cache) == digest
        assert vars(cache.stats) == stats


class TestGroupingFallback:
    def test_argsort_fallback_matches_scipy_grouping(
        self, tiny_cache_spec, rng, monkeypatch
    ):
        # Without SciPy the set-grouping falls back from the CSR
        # counting sort to a stable argsort; replay results must not
        # depend on which path ran.
        from repro.hardware import fastcache

        addrs = rng.integers(0, 1 << 12, size=2000) * LINE
        with_scipy = FastSetAssociativeCache(tiny_cache_spec)
        hits_scipy = with_scipy.access_batch(addrs, stream="s")
        monkeypatch.setattr(fastcache, "_sparse", None)
        without = FastSetAssociativeCache(tiny_cache_spec)
        hits_fallback = without.access_batch(addrs, stream="s")
        assert np.array_equal(hits_scipy, hits_fallback)
        assert vars(with_scipy.stats) == vars(without.stats)
        assert cache_state_digest(with_scipy) == \
            cache_state_digest(without)


class TestEngineSelection:
    def test_digest_equal_across_engines(self, tiny_cache_spec, rng):
        addrs = rng.integers(0, 1 << 12, size=500) * LINE
        caches = [
            cls(tiny_cache_spec)
            for cls in (SetAssociativeCache, FastSetAssociativeCache)
        ]
        for cache in caches:
            cache.access_batch(addrs, stream="s")
        assert cache_state_digest(caches[0]) == \
            cache_state_digest(caches[1])
