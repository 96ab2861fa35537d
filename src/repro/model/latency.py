"""Memory-access latency model.

Converts hit-ratio predictions into per-access stall cycles.  Three
effects matter for the paper's shapes:

* random accesses overlap thanks to out-of-order execution: effective
  stall = latency / MLP (memory-level parallelism),
* sequential streams are latency-insensitive because the stream
  prefetcher runs ahead — they are costed by bandwidth, not latency
  (handled in the simulator), *unless* the CAT mask is too narrow for
  the streams sharing it: ``k`` set-aligned streams in one class of
  service need at least ``k`` ways, or each stream's prefetch fills
  evict the others' before the demand arrives and streaming falls
  back to demand-latency mode.  A lone stream, or streams in distinct
  sets, keep their prefetches even in one way.  The model assumes two
  set-aligned streams per class (``min_prefetch_ways``), which
  reproduces the paper's observation that mask ``0x1`` "degrades
  performance severely — even for Query 1" (Sec. V-B),
* under DRAM-bandwidth saturation, miss latency inflates by the queueing
  slowdown factor computed by the bandwidth model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemSpec
from ..errors import ModelError


@dataclass(frozen=True)
class LatencyModel:
    """Cycle costs of the cache hierarchy.

    Defaults approximate Broadwell-EP: L2 ~12 cycles, LLC ~42 cycles,
    DRAM latency from the system spec (80 ns = 176 cycles at 2.2 GHz).
    """

    spec: SystemSpec
    l2_cycles: float = 12.0
    llc_cycles: float = 42.0
    min_prefetch_ways: int = 2

    def __post_init__(self) -> None:
        if self.l2_cycles <= 0 or self.llc_cycles <= 0:
            raise ModelError("cache latencies must be > 0")
        if self.min_prefetch_ways < 1:
            raise ModelError("min_prefetch_ways must be >= 1")

    @property
    def dram_cycles(self) -> float:
        return self.spec.dram.latency_s * self.spec.frequency_hz

    def random_access_cycles(
        self,
        l2_hit_fraction: float,
        llc_hit_ratio: float,
        mlp: float,
        dram_slowdown: float = 1.0,
    ) -> float:
        """Average stall cycles for one random region access.

        ``l2_hit_fraction`` is the probability the private L2 satisfies
        the access; the remainder goes to the LLC and, on an LLC miss,
        to DRAM (latency scaled by the bandwidth-queueing slowdown).
        """
        for name, value in (
            ("l2_hit_fraction", l2_hit_fraction),
            ("llc_hit_ratio", llc_hit_ratio),
        ):
            if not 0.0 <= value <= 1.0:
                raise ModelError(f"{name} must be in [0, 1], got {value}")
        if mlp < 1:
            raise ModelError(f"mlp must be >= 1, got {mlp}")
        if dram_slowdown < 1:
            raise ModelError(f"dram_slowdown must be >= 1, got {dram_slowdown}")
        llc_fraction = 1.0 - l2_hit_fraction
        miss_ratio = 1.0 - llc_hit_ratio
        raw = (
            l2_hit_fraction * self.l2_cycles
            + llc_fraction
            * (
                llc_hit_ratio * self.llc_cycles
                + miss_ratio * self.dram_cycles * dram_slowdown
            )
        )
        return raw / mlp

    def streaming_latency_bound(self, allocated_ways: int) -> bool:
        """True when the CAT mask is too narrow for prefetching to work.

        ``k`` set-aligned streams in one class of service lose their
        prefetches under a mask narrower than ``k`` ways: each stream's
        fills evict the others' before the demand arrives, and the
        stream degrades to demand-latency access.  ``min_prefetch_ways``
        is that ``k``; the default 2 models a pair of aligned streams.
        The trace caches measure the rule
        (``tests/test_hardware_prefetcher.py``).
        """
        if allocated_ways < 1:
            raise ModelError(f"allocated_ways must be >= 1: {allocated_ways}")
        return allocated_ways < self.min_prefetch_ways

    def streaming_cycles_per_line(
        self, allocated_ways: int, dram_slowdown: float = 1.0
    ) -> float:
        """Latency cost per streamed line when prefetching is defeated.

        Returns 0.0 in the normal (prefetch-covered) case: streaming is
        then purely bandwidth-bound and costed by the simulator's
        transfer-time term.
        """
        if not self.streaming_latency_bound(allocated_ways):
            return 0.0
        # Demand-fetch every line; modest overlap of 2 outstanding lines.
        return self.dram_cycles * dram_slowdown / 2.0

    def l2_hit_fraction(
        self, region_total_bytes: float, shared: bool, workers: int
    ) -> float:
        """Fraction of region accesses filtered by the private L2.

        A thread-local structure (``shared=False``) is split across the
        ``workers`` cores, so each L2 sees only its slice; a shared
        structure must fit as a whole to be L2-resident.
        """
        if region_total_bytes <= 0:
            raise ModelError("region_total_bytes must be > 0")
        if workers < 1:
            raise ModelError(f"workers must be >= 1: {workers}")
        per_core_bytes = (
            region_total_bytes if shared else region_total_bytes / workers
        )
        return min(1.0, self.spec.l2.size_bytes / per_core_bytes)
