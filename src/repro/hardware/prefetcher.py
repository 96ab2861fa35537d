"""Hardware stream prefetcher model.

The paper repeatedly notes that the *column scan* "profits from the
hardware prefetcher" (Sec. III-A, IV-A): sequential line-granular
accesses are detected and the next lines are fetched ahead of demand,
hiding DRAM latency and leaving only a bandwidth constraint.

This module models the Intel L2 streamer at the level of detail the
experiments need: per-stream detection of ascending line sequences with
a confidence threshold and a configurable prefetch distance.  Its
demand+prefetch schedules are replayed through both trace caches to
check the prefetch-width rule the analytic model encodes
(:meth:`repro.model.latency.LatencyModel.streaming_latency_bound`),
where the same effect appears as "sequential traffic is
bandwidth-bound, not latency-bound".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _StreamState:
    last_line: int
    run_length: int


class StreamPrefetcher:
    """Detects sequential streams and emits prefetch line addresses.

    Args:
        trigger_length: consecutive ascending lines required before the
            prefetcher starts issuing (real streamers need 2-3).
        degree: how many lines ahead are prefetched on each trigger.
        max_streams: tracker table capacity; oldest entry is replaced.
    """

    def __init__(
        self, trigger_length: int = 3, degree: int = 2, max_streams: int = 16
    ) -> None:
        if trigger_length < 1:
            raise ValueError(f"trigger_length must be >= 1: {trigger_length}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1: {degree}")
        if max_streams < 1:
            raise ValueError(f"max_streams must be >= 1: {max_streams}")
        self._trigger = trigger_length
        self._degree = degree
        self._max_streams = max_streams
        self._streams: dict[str, _StreamState] = {}
        self.issued = 0

    def observe(self, stream: str, line_addr: int) -> list[int]:
        """Record a demand access; return line addresses to prefetch."""
        state = self._streams.get(stream)
        if state is None:
            if len(self._streams) >= self._max_streams:
                # Replace the entry with the shortest run (least useful).
                coldest = min(
                    self._streams, key=lambda k: self._streams[k].run_length
                )
                del self._streams[coldest]
            state = _StreamState(line_addr, 0)
            self._streams[stream] = state
            line_addr = state.last_line  # fall through as a fresh run

        if state.run_length == 0:
            state.run_length = 1
        elif line_addr == state.last_line + 1:
            state.run_length += 1
        elif line_addr == state.last_line:
            return []
        else:
            state.run_length = 1
        state.last_line = line_addr

        if state.run_length >= self._trigger:
            prefetches = [
                line_addr + offset for offset in range(1, self._degree + 1)
            ]
            self.issued += len(prefetches)
            return prefetches
        return []

    def reset(self) -> None:
        self._streams.clear()
        self.issued = 0
