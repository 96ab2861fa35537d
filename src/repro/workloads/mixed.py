"""Concurrent-workload harness.

Implements the paper's measurement method (Sec. VI-A): queries run
repeatedly and concurrently; each query's throughput is reported
*normalized to its isolated throughput* (same query alone on the
machine with the full LLC).  Concurrency is modelled as steady-state
co-residency: each query keeps its full physical-core concurrency limit
(the queries time-share cores as SMT siblings) while the LLC and DRAM
bandwidth contention models do the heavy lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import SystemSpec
from ..errors import WorkloadError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.simulator import (
    CounterRates,
    QueryResult,
    QuerySpec,
    WorkloadSimulator,
    system_counters,
)
from ..model.streams import AccessProfile
from ..obs import runtime
from ..parallel import executor as parallel_executor
from ..parallel.simcache import SimulationRequest, evaluate


@dataclass(frozen=True)
class WorkloadQuery:
    """One participant in a concurrent workload."""

    name: str
    profile: AccessProfile
    mask: int | None = None  # None = full LLC access
    cores: int | None = None  # None = all physical cores


@dataclass
class ConcurrentResult:
    """Per-query results plus workload-level counters."""

    results: dict[str, QueryResult]
    normalized: dict[str, float]
    counters: CounterRates

    def throughput(self, name: str) -> float:
        return self.results[name].throughput_tuples_per_s


class ConcurrencyExperiment:
    """Runs isolated baselines and concurrent workloads on the model."""

    def __init__(
        self,
        spec: SystemSpec | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.spec = spec if spec is not None else SystemSpec()
        self.calibration = calibration
        self.simulator = WorkloadSimulator(self.spec, calibration)
        # Content-addressed simulate() cache, the one memo of every
        # solve here (isolated baselines included).  A fresh in-memory
        # layer per experiment keeps the hit/miss pattern of a figure
        # identical whether it runs inline or on a pool worker; the
        # optional disk layer of the active parallel context is shared
        # across runs.
        self.sim_cache = parallel_executor.current().new_cache()

    # ------------------------------------------------------------------

    def _request(self, specs: list[QuerySpec]) -> SimulationRequest:
        return SimulationRequest(
            spec=self.spec,
            calibration=self.calibration,
            queries=tuple(specs),
            max_iterations=self.simulator.max_iterations,
            damping=self.simulator.damping,
            tolerance=self.simulator.tolerance,
        )

    def _evaluate(
        self, batches: list[list[QuerySpec]]
    ) -> list[dict[str, QueryResult]]:
        """Evaluate simulate() batches through the cache.

        Cache misses fan out to the active process pool when one is
        installed.  Results always come back in batch order, decoded
        to fresh objects, so the schedule never shows in them.
        """
        return evaluate(
            [self._request(specs) for specs in batches],
            cache=self.sim_cache,
            pool=parallel_executor.current_pool(),
        )

    def isolated(
        self,
        profile: AccessProfile,
        mask: int | None = None,
        cores: int | None = None,
    ) -> QueryResult:
        """Run one query alone (full machine unless overridden)."""
        return self.isolated_batch([(profile, mask, cores)])[0]

    def _isolated_spec(
        self,
        profile: AccessProfile,
        mask: int | None = None,
        cores: int | None = None,
    ) -> QuerySpec:
        return QuerySpec(
            name=profile.name,
            profile=profile,
            cores=cores if cores is not None else self.spec.cores,
            mask=mask if mask is not None else self.spec.full_mask,
        )

    def isolated_batch(
        self,
        requests: list[tuple[AccessProfile, int | None, int | None]],
    ) -> list[QueryResult]:
        """Evaluate many isolated (profile, mask, cores) points in one
        batch; results preserve request order."""
        outcomes = self._evaluate([
            [self._isolated_spec(profile, mask, cores)]
            for profile, mask, cores in requests
        ])
        results = []
        for (profile, _, _), outcome in zip(requests, outcomes):
            with runtime.tracer.span("isolated", query=profile.name):
                results.append(outcome[profile.name])
        return results

    # ------------------------------------------------------------------

    def llc_sweep(
        self,
        profile: AccessProfile,
        ways_list: list[int] | None = None,
    ) -> list[tuple[float, float]]:
        """(cache fraction, normalized throughput) sweep for one query.

        This is the paper's Sec. IV methodology: restrict the whole
        instance to ``k`` ways via CAT and measure throughput relative
        to the full cache.
        """
        total_ways = self.spec.llc.ways
        if ways_list is None:
            ways_list = list(range(1, total_ways + 1))
        if any(not 1 <= w <= total_ways for w in ways_list):
            raise WorkloadError(
                f"ways must lie in [1, {total_ways}]: {ways_list}"
            )
        ways_sequence = sorted(set(ways_list))
        baseline, *results = self.isolated_batch(
            [(profile, None, None)]
            + [(profile, (1 << ways) - 1, None) for ways in ways_sequence]
        )
        return [
            (ways / total_ways,
             result.throughput_tuples_per_s
             / baseline.throughput_tuples_per_s)
            for ways, result in zip(ways_sequence, results)
        ]

    # ------------------------------------------------------------------

    def concurrent(self, queries: list[WorkloadQuery]) -> ConcurrentResult:
        """Run queries concurrently; normalize each to its isolated run."""
        return self.concurrent_batch([queries])[0]

    def concurrent_batch(
        self, batches: list[list[WorkloadQuery]]
    ) -> list[ConcurrentResult]:
        """Evaluate many independent concurrent workloads.

        The concurrent solves and the isolated-baseline solves that
        normalize them go out as one batch, baselines after the
        workloads.  The cache solves each distinct request once, so a
        baseline shared by several workloads costs one solve and the
        rest are hits.  Assembly runs in batch order.
        """
        spec_lists = [self._concurrent_specs(batch) for batch in batches]
        baselines = [
            [self._isolated_spec(spec.profile, cores=query.cores)]
            for batch, specs in zip(batches, spec_lists)
            for query, spec in zip(batch, specs)
        ]
        outcomes = self._evaluate(spec_lists + baselines)
        isolated = iter(outcomes[len(spec_lists):])
        results = []
        for batch, specs, outcome in zip(batches, spec_lists, outcomes):
            with runtime.tracer.span("concurrent"):
                normalized = {}
                for query, spec in zip(batch, specs):
                    baseline = next(isolated)[spec.name]
                    normalized[query.name] = (
                        outcome[query.name].throughput_tuples_per_s
                        / baseline.throughput_tuples_per_s
                    )
                results.append(ConcurrentResult(
                    results=outcome,
                    normalized=normalized,
                    counters=system_counters(outcome),
                ))
        return results

    def _concurrent_specs(
        self, queries: list[WorkloadQuery]
    ) -> list[QuerySpec]:
        if len(queries) < 2:
            raise WorkloadError(
                "a concurrent workload needs at least two queries"
            )
        specs = []
        for query in queries:
            profile = query.profile
            if profile.name != query.name:
                profile = replace(profile, name=query.name)
            specs.append(
                QuerySpec(
                    name=query.name,
                    profile=profile,
                    cores=(
                        query.cores
                        if query.cores is not None
                        else self.spec.cores
                    ),
                    mask=(
                        query.mask
                        if query.mask is not None
                        else self.spec.full_mask
                    ),
                )
            )
        return specs
