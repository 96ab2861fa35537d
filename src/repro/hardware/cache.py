"""Trace-driven set-associative cache with CAT way masking.

This is the exact (per-access) counterpart of the analytic occupancy
model in :mod:`repro.model`.  It implements:

* configurable geometry (sets x ways, 64 B lines),
* LRU replacement,
* CAT semantics: a request tagged with a class of service (CLOS) may
  *hit* on any way, but on a miss the victim is chosen only among the
  ways enabled in the CLOS's capacity bitmask,
* uncounted prefetch fills,
* per-stream and per-CLOS hit/miss statistics.

The simulator is deliberately straightforward Python: it is the oracle
the vectorized engine (:mod:`repro.hardware.fastcache`) is tested
against and the substrate for cross-validating the analytic model on
scaled-down geometries — not for simulating billions of accesses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..config import CacheSpec
from ..errors import CacheConfigError, CatError
from .cat import CatController


@dataclass
class CacheStats:
    """Hit/miss counters, kept per scope (global, per CLOS, per stream)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses; 0.0 when no accesses were made."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


@dataclass
class _Line:
    tag: int = -1
    stamp: int = 0
    stream: Optional[str] = None
    clos: int = 0

    @property
    def valid(self) -> bool:
        return self.tag >= 0


class SetAssociativeCache:
    """An LRU set-associative cache honouring CAT capacity bitmasks.

    Addresses are byte addresses; the cache operates on line granularity.
    Each access carries the issuing CLOS (resolved by the caller, e.g.
    from the core's current CLOS) and an optional stream label used only
    for statistics and occupancy inspection.
    """

    def __init__(
        self, spec: CacheSpec, cat: Optional[CatController] = None
    ) -> None:
        self._spec = spec
        self._cat = cat
        self._sets: list[list[_Line]] = [
            [_Line() for _ in range(spec.ways)] for _ in range(spec.sets)
        ]
        self._clock = 0
        # Way lists per CLOS are memoized: rebuilding them on every
        # install dominated the reference engine's profile.  The cache
        # is dropped whenever the CAT controller reprograms any mask
        # (tracked through its mask_version counter).
        self._ways_cache: dict[int, list[int]] = {}
        self._ways_cache_version = -1
        self.stats = CacheStats()
        self.stats_by_clos: dict[int, CacheStats] = {}
        self.stats_by_stream: dict[str, CacheStats] = {}

    @property
    def spec(self) -> CacheSpec:
        return self._spec

    def _line_addr(self, addr: int) -> int:
        return addr // self._spec.line_bytes

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self._spec.sets

    def _clos_ways(self, clos: int) -> list[int]:
        """Way indices the given CLOS may allocate into (memoized)."""
        if self._cat is None:
            return list(range(self._spec.ways))
        version = self._cat.mask_version
        if version != self._ways_cache_version:
            self._ways_cache.clear()
            self._ways_cache_version = version
        cached = self._ways_cache.get(clos)
        if cached is not None:
            return cached
        mask = self._cat.clos_mask(clos)
        ways = [w for w in range(self._spec.ways) if mask >> w & 1]
        if not ways:
            raise CatError(f"CLOS {clos} has an empty effective mask")
        # Masks wider than this cache's associativity would be a config bug.
        if ways[-1] >= self._spec.ways:
            raise CacheConfigError(
                f"CLOS {clos} mask references way {ways[-1]} but cache has "
                f"only {self._spec.ways} ways"
            )
        self._ways_cache[clos] = ways
        return ways

    def _record(self, clos: int, stream: Optional[str], hit: bool) -> None:
        scopes = [self.stats, self.stats_by_clos.setdefault(clos, CacheStats())]
        if stream is not None:
            scopes.append(self.stats_by_stream.setdefault(stream, CacheStats()))
        for scope in scopes:
            if hit:
                scope.hits += 1
            else:
                scope.misses += 1

    def access(
        self,
        addr: int,
        clos: int = 0,
        stream: Optional[str] = None,
        is_prefetch: bool = False,
    ) -> bool:
        """Access one byte address; returns True on a cache hit.

        On a miss the line is installed, evicting the LRU line among the
        ways writable by ``clos``.  Prefetch fills install lines but are
        not counted in the demand hit/miss statistics.
        """
        self._clock += 1
        line_addr = self._line_addr(addr)
        cache_set = self._sets[self._set_index(line_addr)]

        for line in cache_set:
            if line.valid and line.tag == line_addr:
                line.stamp = self._clock
                # A demand hit re-brands the line: occupancy now belongs
                # to the consumer, matching real-cache LRU promotion.
                if not is_prefetch:
                    line.stream = stream or line.stream
                    self._record(clos, stream, hit=True)
                return True

        if not is_prefetch:
            self._record(clos, stream, hit=False)
        self._install(cache_set, line_addr, clos, stream)
        return False

    def _install(
        self,
        cache_set: list[_Line],
        line_addr: int,
        clos: int,
        stream: Optional[str],
    ) -> None:
        ways = self._clos_ways(clos)
        # Prefer an invalid way inside the allowed mask.
        victim = None
        for way in ways:
            if not cache_set[way].valid:
                victim = cache_set[way]
                break
        if victim is None:
            victim = min((cache_set[w] for w in ways), key=lambda l: l.stamp)
            self.stats.evictions += 1
            self.stats_by_clos.setdefault(victim.clos, CacheStats()).evictions += 1
            if victim.stream is not None:
                self.stats_by_stream.setdefault(
                    victim.stream, CacheStats()
                ).evictions += 1
        victim.tag = line_addr
        victim.stamp = self._clock
        victim.stream = stream
        victim.clos = clos

    def access_many(
        self,
        addrs: Iterable[int],
        clos: int = 0,
        stream: Optional[str] = None,
    ) -> CacheStats:
        """Replay a trace of byte addresses; returns stats for this call."""
        before_hits = self.stats.hits
        before_misses = self.stats.misses
        before_evictions = self.stats.evictions
        for addr in addrs:
            self.access(addr, clos=clos, stream=stream)
        delta = CacheStats(
            hits=self.stats.hits - before_hits,
            misses=self.stats.misses - before_misses,
            evictions=self.stats.evictions - before_evictions,
        )
        return delta

    def access_batch(
        self,
        addrs,
        clos=0,
        stream=None,
        is_prefetch=False,
    ):
        """Access a batch of byte addresses; returns per-access hits.

        ``clos``, ``stream`` and ``is_prefetch`` may be scalars or
        per-access sequences.  A per-access loop with the signature of
        the vectorized engine's whole-batch replay, so oracle tests
        feed both caches the same batch.
        """
        addrs = np.asarray(addrs)
        n = len(addrs)
        clos_seq = np.broadcast_to(np.asarray(clos), (n,))
        prefetch_seq = np.broadcast_to(np.asarray(is_prefetch), (n,))
        if stream is None or isinstance(stream, str):
            stream_seq = [stream] * n
        else:
            stream_seq = list(stream)
        hits = np.empty(n, dtype=bool)
        for i in range(n):
            hits[i] = self.access(
                int(addrs[i]),
                clos=int(clos_seq[i]),
                stream=stream_seq[i],
                is_prefetch=bool(prefetch_seq[i]),
            )
        return hits

    def contains(self, addr: int) -> bool:
        """True when the line holding ``addr`` is currently cached."""
        line_addr = self._line_addr(addr)
        cache_set = self._sets[self._set_index(line_addr)]
        return any(l.valid and l.tag == line_addr for l in cache_set)

    def occupancy_by_stream(self) -> dict[str, int]:
        """Number of valid lines currently owned by each stream label."""
        occupancy: dict[str, int] = {}
        for cache_set in self._sets:
            for line in cache_set:
                if line.valid and line.stream is not None:
                    occupancy[line.stream] = occupancy.get(line.stream, 0) + 1
        return occupancy

    def occupancy_by_way(self) -> dict[int, int]:
        """Number of valid lines per way index (for CAT isolation checks)."""
        occupancy: dict[int, int] = {}
        for cache_set in self._sets:
            for way, line in enumerate(cache_set):
                if line.valid:
                    occupancy[way] = occupancy.get(way, 0) + 1
        return occupancy

    def iter_lines(self):
        """Yield ``(set_index, way, tag, stream, clos)`` per valid line.

        The canonical state enumeration both engines share; equivalence
        tests and the benchmark checksum compare engines through it.
        """
        for set_index, cache_set in enumerate(self._sets):
            for way, line in enumerate(cache_set):
                if line.valid:
                    yield (set_index, way, line.tag, line.stream, line.clos)

    def valid_lines(self) -> int:
        """Total number of valid lines in the cache."""
        return sum(
            1 for cache_set in self._sets for line in cache_set if line.valid
        )

    def lines_in_ways(self, way_mask: int) -> int:
        """Valid lines residing in ways selected by ``way_mask``."""
        total = 0
        for cache_set in self._sets:
            for way, line in enumerate(cache_set):
                if line.valid and way_mask >> way & 1:
                    total += 1
        return total

    def reset_stats(self) -> None:
        self.stats = CacheStats()
        self.stats_by_clos = {}
        self.stats_by_stream = {}

    def flush(self) -> None:
        """Invalidate every line and reset statistics."""
        for cache_set in self._sets:
            for line in cache_set:
                line.tag = -1
                line.stream = None
        self.reset_stats()


def cache_state_digest(cache) -> str:
    """SHA-256 over the canonical (sorted) valid-line enumeration.

    Independent of the cache class: the reference cache and the
    vectorized engine holding identical content produce identical
    digests.  Benchmarks record it as the equivalence checksum.
    """
    lines = sorted(
        (set_index, way, tag, "\x00" if stream is None else stream, clos)
        for set_index, way, tag, stream, clos in cache.iter_lines()
    )
    payload = "\n".join(
        f"{s}:{w}:{t}:{stream}:{c}" for s, w, t, stream, c in lines
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
