"""Simulated hardware substrate.

This package models the parts of the paper's test machine that matter for
cache partitioning: a set-associative, inclusive last-level cache with
per-class way masks (Intel Cache Allocation Technology), private L1/L2
caches, a stream prefetcher, a DRAM bandwidth/latency model and
PCM-style performance counters.

Runs replay traces on one engine, the vectorized
:class:`FastSetAssociativeCache`.  The per-access
:class:`SetAssociativeCache` is its oracle: tests and the trace
benchmark build both by class name and compare them, and the per-access
:class:`CacheHierarchy` is built on it.
"""

from .cache import (
    CacheStats,
    EvictionEvent,
    SetAssociativeCache,
    cache_state_digest,
)
from .cat import CatController, contiguous_mask, mask_from_fraction
from .cmt import CmtController, CmtSample
from .counters import CounterSample, PerfCounters
from .cpu import Core, CpuSocket
from .dram import BandwidthArbiter, DramModel
from .fastcache import FastSetAssociativeCache, SamplingPlan, replay_sampled
from .hierarchy import CacheHierarchy, HierarchyAccessResult
from .prefetcher import StreamPrefetcher
from .trace import MemoryAccess, random_region_trace, sequential_trace

__all__ = [
    "BandwidthArbiter",
    "CacheHierarchy",
    "CacheStats",
    "CatController",
    "CmtController",
    "CmtSample",
    "Core",
    "CounterSample",
    "CpuSocket",
    "DramModel",
    "EvictionEvent",
    "FastSetAssociativeCache",
    "HierarchyAccessResult",
    "MemoryAccess",
    "PerfCounters",
    "SamplingPlan",
    "SetAssociativeCache",
    "StreamPrefetcher",
    "cache_state_digest",
    "contiguous_mask",
    "mask_from_fraction",
    "random_region_trace",
    "replay_sampled",
    "sequential_trace",
]
