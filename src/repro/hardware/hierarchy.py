"""Multi-level cache hierarchy with an inclusive last-level cache.

Mirrors the paper's machine (Sec. III-C): private L1d and L2 per core,
one shared, *inclusive* LLC.  Inclusivity matters for partitioning:
when CAT confines a core to a narrow LLC slice, lines evicted from that
slice are back-invalidated out of the core's private caches too, which
is why an overly narrow mask (``0x1``) hurts even a pure scan
(paper Sec. V-B).

Every level is a per-access reference cache
(:class:`~repro.hardware.cache.SetAssociativeCache`): an LLC eviction
back-invalidates the private copies at the moment it happens, which a
whole-batch replay cannot interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from ..config import SystemSpec
from ..errors import ConfigError
from ..obs import runtime
from .cache import EvictionEvent, SetAssociativeCache
from .cat import CatController
from .fastcache import SamplingPlan
from .prefetcher import StreamPrefetcher
from .trace import MemoryAccess


@dataclass(frozen=True)
class HierarchyAccessResult:
    """Where in the hierarchy an access was satisfied."""

    level: str  # "L1", "L2", "LLC", or "DRAM"

    @property
    def hit_llc_or_above(self) -> bool:
        return self.level != "DRAM"


class CacheHierarchy:
    """Private L1/L2 per core plus a shared, inclusive LLC.

    The hierarchy is driven with (core, access) pairs; the issuing CLOS
    is resolved from the core's current association in the shared
    :class:`CatController`, exactly like hardware resolves PQR_ASSOC.
    """

    def __init__(
        self,
        spec: SystemSpec,
        cat: Optional[CatController] = None,
        prefetcher: Optional[StreamPrefetcher] = None,
    ) -> None:
        self.spec = spec
        self.cat = cat if cat is not None else CatController(spec)
        self.prefetcher = prefetcher
        self.llc = SetAssociativeCache(
            spec.llc, cat=self.cat, on_evict=self._back_invalidate
        )
        self._l1 = {}
        self._l2 = {}
        for core in range(spec.cores):
            self._l1[core] = SetAssociativeCache(spec.l1d)
            self._l2[core] = SetAssociativeCache(spec.l2)
        self.dram_accesses = 0

    def l1(self, core: int):
        return self._cache_for(core, self._l1)

    def l2(self, core: int):
        return self._cache_for(core, self._l2)

    def _cache_for(self, core: int, level: dict):
        try:
            return level[core]
        except KeyError:
            raise ConfigError(f"core {core} does not exist") from None

    def _back_invalidate(self, event: EvictionEvent) -> None:
        """Enforce inclusivity: an LLC eviction purges private copies."""
        for caches in (self._l1, self._l2):
            for cache in caches.values():
                cache.invalidate(event.line_addr)

    def access(self, core: int, access: MemoryAccess) -> HierarchyAccessResult:
        """Issue one demand access from ``core``; returns the hit level."""
        l1 = self._cache_for(core, self._l1)
        clos = self.cat.core_clos(core)
        line_bytes = self.spec.llc.line_bytes

        if l1.access(access.addr, stream=access.stream):
            return HierarchyAccessResult("L1")
        if self._cache_for(core, self._l2).access(access.addr, stream=access.stream):
            # L2 hit still requires the line in the (inclusive) LLC; touch
            # it so LLC LRU state reflects reuse without counting a
            # demand reference (hardware filters these too).
            self.llc.access(
                access.addr, clos=clos, stream=access.stream, is_prefetch=True
            )
            return HierarchyAccessResult("L2")

        llc_hit = self.llc.access(access.addr, clos=clos, stream=access.stream)
        level = "LLC" if llc_hit else "DRAM"
        if not llc_hit:
            self.dram_accesses += 1

        if self.prefetcher is not None:
            line_addr = access.addr // line_bytes
            for prefetch_line in self.prefetcher.observe(
                access.stream, line_addr
            ):
                self.llc.access(
                    prefetch_line * line_bytes,
                    clos=clos,
                    stream=access.stream,
                    is_prefetch=True,
                )
        return HierarchyAccessResult(level)

    # ------------------------------------------------------------------
    # trace replay

    def run_trace(
        self,
        core: int,
        trace: Iterable[MemoryAccess],
        max_accesses: Optional[int] = None,
        sample: Optional[SamplingPlan] = None,
    ) -> dict[str, int]:
        """Replay a trace from one core; returns per-level hit counts.

        With ``sample``, only every ``sample.period``-th window of
        ``sample.window`` accesses is simulated and the leading warmup
        slice of each simulated window is excluded from the returned
        counts — an estimate for traces too long to replay in full.
        """
        iterator = iter(trace)
        if max_accesses is not None:
            iterator = islice(iterator, max_accesses)
        levels = {"L1": 0, "L2": 0, "LLC": 0, "DRAM": 0}
        if sample is None:
            for access in iterator:
                levels[self.access(core, access).level] += 1
            return levels

        metrics = runtime.metrics
        window_index = simulated = 0
        while True:
            window = list(islice(iterator, sample.window))
            if not window:
                break
            if window_index % sample.period == 0:
                simulated += 1
                warmup = min(sample.warmup_accesses, len(window))
                for position, access in enumerate(window):
                    level = self.access(core, access).level
                    if position >= warmup:
                        levels[level] += 1
            window_index += 1
        metrics.counter("sim.trace.sampled_windows").inc(simulated)
        metrics.counter("sim.trace.skipped_windows").inc(
            window_index - simulated
        )
        return levels
