"""Tests for the inclusive cache hierarchy."""

import pytest

from repro.errors import ConfigError
from repro.hardware.cat import CatController
from repro.hardware.fastcache import SamplingPlan
from repro.hardware.hierarchy import CacheHierarchy
from repro.hardware.prefetcher import StreamPrefetcher
from repro.hardware.trace import (
    MemoryAccess,
    random_region_trace,
    sequential_trace,
)
from repro.obs import runtime


class TestHitLevels:
    def test_first_access_goes_to_dram(self, small_spec):
        hierarchy = CacheHierarchy(small_spec)
        result = hierarchy.access(0, MemoryAccess(0x1000, "s"))
        assert result.level == "DRAM"
        assert hierarchy.dram_accesses == 1

    def test_second_access_hits_l1(self, small_spec):
        hierarchy = CacheHierarchy(small_spec)
        hierarchy.access(0, MemoryAccess(0x1000, "s"))
        result = hierarchy.access(0, MemoryAccess(0x1000, "s"))
        assert result.level == "L1"

    def test_other_core_hits_llc(self, small_spec):
        hierarchy = CacheHierarchy(small_spec)
        hierarchy.access(0, MemoryAccess(0x1000, "s"))
        result = hierarchy.access(1, MemoryAccess(0x1000, "s"))
        assert result.level == "LLC"

    def test_unknown_core_rejected(self, small_spec):
        hierarchy = CacheHierarchy(small_spec)
        with pytest.raises(ConfigError):
            hierarchy.access(small_spec.cores, MemoryAccess(0, "s"))


class TestInclusivity:
    def test_llc_eviction_back_invalidates_private_caches(self, small_spec):
        hierarchy = CacheHierarchy(small_spec)
        hierarchy.access(0, MemoryAccess(0x0, "victim"))
        assert hierarchy.l1(0).contains(0x0)
        # Thrash the LLC set that holds line 0 until it is evicted.
        sets = small_spec.llc.sets
        for i in range(1, small_spec.llc.ways + 2):
            hierarchy.access(0, MemoryAccess(i * sets * 64, "churn"))
        if not hierarchy.llc.contains(0x0):
            # Inclusive invariant: the private copies are gone too.
            assert not hierarchy.l1(0).contains(0x0)
            assert not hierarchy.l2(0).contains(0x0)

    def test_inclusive_invariant_holds_globally(self, small_spec, rng):
        hierarchy = CacheHierarchy(small_spec)
        for addr in rng.integers(0, 1 << 16, size=1500):
            hierarchy.access(int(addr) % small_spec.cores,
                             MemoryAccess(int(addr) * 64, "w"))
        # Every line in any L1/L2 must also be present in the LLC.
        for core in range(small_spec.cores):
            for cache in (hierarchy.l1(core), hierarchy.l2(core)):
                for cache_set in cache._sets:
                    for line in cache_set:
                        if line.valid:
                            assert hierarchy.llc.contains(
                                line.tag * 64
                            )


class TestCatIntegration:
    def test_core_clos_drives_allocation(self, small_spec):
        cat = CatController(small_spec)
        cat.set_clos_mask(1, 0x3)
        cat.assign_core(0, 1)
        hierarchy = CacheHierarchy(small_spec, cat=cat)
        for access in sequential_trace(0, 64 * 64 * 300, "scan"):
            hierarchy.access(0, access)
        # Core 0 (CLOS 1, ways 0-1) never filled ways 2-19 of the LLC.
        assert hierarchy.llc.lines_in_ways(0xFFFFC) == 0


class TestPrefetcherIntegration:
    def test_prefetcher_turns_stream_into_llc_hits(self, small_spec):
        with_pf = CacheHierarchy(
            small_spec, prefetcher=StreamPrefetcher(trigger_length=2,
                                                    degree=4)
        )
        levels = with_pf.run_trace(
            0, sequential_trace(0, 64 * 400, "scan")
        )
        without_pf = CacheHierarchy(small_spec)
        base_levels = without_pf.run_trace(
            0, sequential_trace(0, 64 * 400, "scan")
        )
        # The prefetcher converts demand DRAM accesses into LLC hits.
        assert levels["DRAM"] < base_levels["DRAM"]
        assert levels["LLC"] > base_levels["LLC"]

    def test_run_trace_respects_max_accesses(self, small_spec):
        hierarchy = CacheHierarchy(small_spec)
        levels = hierarchy.run_trace(
            0, sequential_trace(0, 64 * 100, "s"), max_accesses=10
        )
        assert sum(levels.values()) == 10


def _mixed_trace(rng, accesses=6000):
    """Random probes over a hot region interleaved with a line scan."""
    trace = []
    scan_line = 1 << 22
    for i in range(accesses):
        if i % 3:
            line = int(rng.integers(0, 3000))
            trace.append(MemoryAccess(line * 64, "region"))
        else:
            scan_line += 1
            trace.append(MemoryAccess(scan_line * 64, "scan"))
    return trace


class TestSampledReplay:
    def test_sampled_run_trace_is_deterministic(self, small_spec, rng):
        trace = _mixed_trace(rng, accesses=4000)
        plan = SamplingPlan(window=500, period=2, warmup_fraction=0.5)
        results = []
        for _ in range(2):
            hierarchy = CacheHierarchy(small_spec)
            with runtime.observing() as (_, metrics):
                levels = hierarchy.run_trace(0, trace, sample=plan)
            results.append((
                levels,
                hierarchy.dram_accesses,
                metrics.counter("sim.trace.sampled_windows").value,
                metrics.counter("sim.trace.skipped_windows").value,
            ))
        assert results[0] == results[1]
        assert results[0][2:] == (4, 4)
        # Half the windows were skipped entirely and the warmup half
        # of each simulated window is not counted.
        assert sum(results[0][0].values()) == 4 * 250
