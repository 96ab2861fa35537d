"""Content-addressed simulation cache.

:func:`evaluate` is the pure-function entry point around
:meth:`~repro.model.simulator.WorkloadSimulator.simulate`: a
:class:`SimulationRequest` carries *everything* the fixed point depends
on — the :class:`~repro.config.SystemSpec`, the
:class:`~repro.model.calibration.Calibration`, the
:class:`~repro.model.simulator.QuerySpec` list (profiles, core counts,
CAT masks) and the solver parameters — so two requests with equal
content produce byte-identical results and may share one solve.

The cache key is the SHA-256 of the request's canonical JSON form
(dataclasses flattened with ``sort_keys=True``; floats serialized via
``repr`` round-trip, which is exact for finite IEEE-754 doubles).  The
query *order* is part of the key: the fixed point's floating-point
summation order follows the caller's list, so aliasing two orderings to
one entry could change results in the last ulp and break the
``--jobs N`` byte-for-byte determinism guarantee.

Two layers sit behind one :class:`SimulationCache` facade:

* an in-memory LRU (per :class:`~repro.workloads.mixed.ConcurrencyExperiment`,
  so repeated baselines inside one figure are solved once),
* an optional on-disk layer under ``<dir>/v<KEY_SCHEMA>/<key>.json``
  (shared across runs — a warm rerun of a figure suite skips every
  solve).  Files are written atomically (temp file + ``os.replace``)
  so concurrent worker processes never observe torn entries.

Cache traffic is published as ``sim.cache.*`` counters on the current
metrics registry (hits / disk_hits / misses / stores / evictions).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

from ..config import SystemSpec
from ..model.calibration import Calibration
from ..model.simulator import QueryResult, QuerySpec, WorkloadSimulator
from ..obs import runtime
from ..obs.runtime import observing

#: Version of the key/payload schema.  Bump whenever the key payload,
#: the simulator's semantics or the stored-result format changes; the
#: disk layer namespaces entries by it, so stale caches are simply
#: never read.
KEY_SCHEMA = 2  # v2: vectorized Che solver (section search + chunked
#     bracket) shifts results within tolerance; old entries are stale.

#: Default in-memory LRU capacity (entries, not bytes; one entry is a
#: few KiB of result rows).
DEFAULT_CAPACITY = 1024


@dataclass(frozen=True)
class SimulationRequest:
    """One simulate() call, fully described by value."""

    spec: SystemSpec
    calibration: Calibration
    queries: tuple[QuerySpec, ...]
    max_iterations: int = 300
    damping: float = 0.4
    tolerance: float = 1e-6

    def key_payload(self) -> dict:
        """Canonical JSON-serializable form (the content address)."""
        return {
            "key_schema": KEY_SCHEMA,
            "spec": asdict(self.spec),
            "calibration": asdict(self.calibration),
            "queries": [asdict(query) for query in self.queries],
            "solver": {
                "max_iterations": self.max_iterations,
                "damping": self.damping,
                "tolerance": self.tolerance,
            },
        }

    def key(self) -> str:
        canonical = json.dumps(
            self.key_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def solve(self) -> dict[str, QueryResult]:
        """Run the simulator for this request (the cache-miss path)."""
        simulator = WorkloadSimulator(
            self.spec,
            self.calibration,
            max_iterations=self.max_iterations,
            damping=self.damping,
            tolerance=self.tolerance,
        )
        return simulator.simulate(list(self.queries))


def encode_results(results: dict[str, QueryResult]) -> dict:
    """JSON-serializable form of a simulate() result."""
    return {name: result.to_dict() for name, result in results.items()}


def decode_results(payload: dict) -> dict[str, QueryResult]:
    """Rebuild fresh :class:`QueryResult` objects from stored form."""
    return {
        name: QueryResult.from_dict(stored)
        for name, stored in payload.items()
    }


class SimulationCache:
    """In-memory LRU over an optional on-disk layer (see module doc)."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        disk_dir: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.disk_dir = (
            Path(disk_dir) / f"v{KEY_SCHEMA}"
            if disk_dir is not None
            else None
        )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Stored result payload for ``key``, or None.

        Memory is consulted first; a disk hit is promoted into memory.
        The caller counts misses (it knows whether a miss is about to
        be solved or is a duplicate of an in-flight solve).
        """
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            runtime.metrics.counter("sim.cache.hits").inc()
            return payload
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                stored = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                return None  # torn/corrupt entry: treat as a miss
            if stored.get("key_schema") == KEY_SCHEMA:
                payload = stored["results"]
                runtime.metrics.counter("sim.cache.disk_hits").inc()
                self._store_memory(key, payload)
                return payload
        return None

    def put(self, key: str, payload: dict) -> None:
        """Store a result payload in both layers."""
        self._store_memory(key, payload)
        runtime.metrics.counter("sim.cache.stores").inc()
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        document = json.dumps(
            {"key_schema": KEY_SCHEMA, "key": key, "results": payload},
            sort_keys=True,
        )
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(document)
            os.replace(temp_name, path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass

    def _store_memory(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            runtime.metrics.counter("sim.cache.evictions").inc()


# ----------------------------------------------------------------------
# the pure entry point
# ----------------------------------------------------------------------


def solve_request(request: SimulationRequest) -> dict:
    """Worker-side task: solve one request under a private observer.

    Returns a fully picklable payload: the encoded results plus the
    worker's span tree and metrics snapshot, so the parent can merge
    observability data with the existing merge semantics.
    """
    started = time.perf_counter()
    with observing() as (tracer, metrics):
        results = request.solve()
    return {
        "results": encode_results(results),
        "spans": tracer.to_dict(),
        "metrics": metrics.snapshot(),
        "seconds": time.perf_counter() - started,
    }


def evaluate(
    requests: list[SimulationRequest],
    cache: SimulationCache | None = None,
    pool=None,
) -> list[dict[str, QueryResult]]:
    """Evaluate requests through the cache, fanning misses out.

    Deterministic by construction:

    * results are returned in request order, decoded to fresh objects,
    * lookups are counted in request order, so a duplicate of an
      earlier miss is a hit exactly as it would be sequentially,
    * with a process ``pool``, only *unique* misses are submitted (one
      solve per content key — the same set of solves the sequential
      path performs against a warm in-run cache) and worker
      observability is merged back in submission order.

    With ``cache=None`` nothing is deduplicated: every request is
    solved, mirroring the pre-cache code path exactly.
    """
    if cache is None:
        if pool is None:
            return [request.solve() for request in requests]
        payloads = list(pool.map(solve_request, requests))
        for payload in payloads:
            runtime.merge_worker(payload)
        return [decode_results(p["results"]) for p in payloads]

    keys = [request.key() for request in requests]
    resolved: dict[str, dict] = {}
    pending: list[tuple[str, SimulationRequest]] = []
    pending_keys: set[str] = set()
    for key, request in zip(keys, requests):
        if key in pending_keys:
            # Duplicate of an in-flight solve: the sequential path
            # would find it in the cache by now — count it as a hit.
            runtime.metrics.counter("sim.cache.hits").inc()
            continue
        payload = cache.get(key)
        if payload is not None:
            resolved[key] = payload
            continue
        runtime.metrics.counter("sim.cache.misses").inc()
        pending.append((key, request))
        pending_keys.add(key)

    if pending:
        if pool is not None and len(pending) > 1:
            futures = [
                pool.submit(solve_request, request)
                for _, request in pending
            ]
            for (key, _), future in zip(pending, futures):
                payload = future.result()
                runtime.merge_worker(payload)
                resolved[key] = payload["results"]
                cache.put(key, resolved[key])
        else:
            for key, request in pending:
                resolved[key] = encode_results(request.solve())
                cache.put(key, resolved[key])

    return [decode_results(resolved[key]) for key in keys]
