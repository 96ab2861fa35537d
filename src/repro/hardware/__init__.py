"""Simulated hardware substrate.

This package models the parts of the paper's test machine that matter for
cache partitioning: a set-associative last-level cache with per-class
way masks (Intel Cache Allocation Technology), a stream prefetcher, a
DRAM bandwidth arbiter and PCM-style performance counters.

Runs replay traces on one engine, the vectorized
:class:`FastSetAssociativeCache`.  The per-access
:class:`SetAssociativeCache` is its oracle: tests and the trace
benchmark build both by class name and compare them.  The
:class:`StreamPrefetcher` is checked on both: the prefetch-width tests
replay its demand+prefetch schedules under narrow way masks.
"""

from .cache import CacheStats, SetAssociativeCache, cache_state_digest
from .cat import CatController, contiguous_mask, mask_from_fraction
from .cmt import CmtSample
from .counters import CounterSample, PerfCounters
from .dram import BandwidthArbiter
from .fastcache import FastSetAssociativeCache
from .prefetcher import StreamPrefetcher

__all__ = [
    "BandwidthArbiter",
    "CacheStats",
    "CatController",
    "CmtSample",
    "CounterSample",
    "FastSetAssociativeCache",
    "PerfCounters",
    "SetAssociativeCache",
    "StreamPrefetcher",
    "cache_state_digest",
    "contiguous_mask",
    "mask_from_fraction",
]
