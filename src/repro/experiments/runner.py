"""Shared experiment infrastructure.

:class:`ExperimentRunner` bundles a hardware spec, the calibration, the
concurrency harness and the paper's partitioning scheme, and provides
the two measurement patterns every figure uses:

* isolated LLC-size sweeps (Figs. 4-6),
* concurrent pairs normalized to isolated baselines, with and without
  partitioning (Figs. 1, 9-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemSpec
from ..core.policy import PartitioningScheme, paper_scheme
from ..engine.cache_control import CacheController, CuidPolicy
from ..errors import WorkloadError
from ..hardware.cat import CatController
from ..hardware.counters import PerfCounters
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.simulator import QueryResult
from ..model.streams import AccessProfile
from ..obs import runtime
from ..resctrl.filesystem import ResctrlFilesystem
from ..resctrl.interface import ResctrlInterface
from ..workloads.mixed import (
    ConcurrencyExperiment,
    ConcurrentResult,
    WorkloadQuery,
)


@dataclass
class FigureResult:
    """Rows of one reproduced figure."""

    figure_id: str
    title: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.headers):
            raise WorkloadError(
                f"row width {len(values)} != header width "
                f"{len(self.headers)} in {self.figure_id}"
            )
        self.rows.append(tuple(values))

    def column(self, header: str) -> list:
        try:
            index = self.headers.index(header)
        except ValueError:
            raise WorkloadError(
                f"no column {header!r} in {self.figure_id}"
            ) from None
        return [row[index] for row in self.rows]

    def select(self, **conditions) -> list[tuple]:
        """Rows whose named columns equal the given values."""
        indexes = {}
        for key in conditions:
            try:
                indexes[key] = self.headers.index(key)
            except ValueError:
                raise WorkloadError(
                    f"no column {key!r} in {self.figure_id}"
                ) from None
        return [
            row
            for row in self.rows
            if all(row[indexes[k]] == v for k, v in conditions.items())
        ]

    def to_dict(self) -> dict:
        """JSON-serializable form (see docs/OBSERVABILITY.md)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FigureResult":
        """Rebuild a figure from :meth:`to_dict` output (JSON round
        trip restores the exact rows, tuples included)."""
        return cls(
            figure_id=payload["figure_id"],
            title=payload["title"],
            headers=tuple(payload["headers"]),
            rows=[tuple(row) for row in payload["rows"]],
            notes=list(payload.get("notes", [])),
        )


@dataclass(frozen=True)
class PairRequest:
    """One concurrent-pair measurement, described by value.

    The figure modules build lists of these (one per sweep point) and
    hand them to :meth:`ExperimentRunner.pair_batch`, which evaluates
    independent points on the active process pool while assembling
    rows in the sequential schedule order.
    """

    first: AccessProfile
    second: AccessProfile
    first_mask: int | None = None
    second_mask: int | None = None
    first_cores: int | None = None
    second_cores: int | None = None

    def queries(self) -> list[WorkloadQuery]:
        return [
            WorkloadQuery(
                self.first.name, self.first, self.first_mask,
                self.first_cores,
            ),
            WorkloadQuery(
                self.second.name, self.second, self.second_mask,
                self.second_cores,
            ),
        ]


class ExperimentRunner:
    """Common setup for all figure reproductions."""

    # LLC-way sweep used by the isolated micro-benchmarks; 2 ways =
    # 5.5 MiB ... 20 ways = 55 MiB, matching the paper's x axis.
    SWEEP_WAYS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    FAST_SWEEP_WAYS = (2, 8, 14, 20)

    def __init__(
        self,
        spec: SystemSpec | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        scheme: PartitioningScheme | None = None,
    ) -> None:
        self.spec = spec if spec is not None else SystemSpec()
        self.calibration = calibration
        self.scheme = scheme if scheme is not None else paper_scheme()
        self.experiment = ConcurrencyExperiment(self.spec, calibration)
        # The engine-integration side of a measurement: every concurrent
        # wave associates the worker threads with its bitmasks through
        # the compare-before-set controller, so figure runs produce the
        # same association/elision statistics the real engine would.
        self.controller = CacheController(
            self.spec,
            ResctrlInterface(
                ResctrlFilesystem(CatController(self.spec))
            ),
            enabled=True,
        )
        # PCM analogue: per-query counter totals accumulated over every
        # concurrent measurement of this runner, published as gauges.
        self.perf = PerfCounters()
        # Lowering the scheme's fractions to bitmasks is pure in (spec,
        # scheme); memoize it so polluting_mask()/adaptive_mask() stay
        # free inside sweep loops.
        self._cuid_policy: CuidPolicy | None = None

    @property
    def workers(self) -> int:
        """Concurrency limit: the physical core count (paper Sec. III-D)."""
        return self.spec.cores

    def sweep_ways(self, fast: bool) -> tuple[int, ...]:
        return self.FAST_SWEEP_WAYS if fast else self.SWEEP_WAYS

    def mask_for_ways(self, ways: int) -> int:
        if not 1 <= ways <= self.spec.llc.ways:
            raise WorkloadError(
                f"ways must be in [1, {self.spec.llc.ways}]: {ways}"
            )
        return (1 << ways) - 1

    def cache_mib(self, ways: int) -> float:
        """Cache size (MiB) granted by a ``ways``-way mask."""
        return ways * self.spec.llc.way_bytes / (1024 * 1024)

    # ------------------------------------------------------------------

    def cuid_policy(self) -> CuidPolicy:
        """The scheme lowered to bitmasks, computed once per runner."""
        if self._cuid_policy is None:
            self._cuid_policy = self.scheme.to_cuid_policy(self.spec)
        return self._cuid_policy

    def polluting_mask(self) -> int:
        return self.cuid_policy().polluting_mask

    def adaptive_mask(self) -> int:
        return self.cuid_policy().adaptive_sensitive_mask

    def pair(
        self,
        first: AccessProfile,
        second: AccessProfile,
        first_mask: int | None = None,
        second_mask: int | None = None,
        first_cores: int | None = None,
        second_cores: int | None = None,
    ) -> ConcurrentResult:
        """Run two queries concurrently with optional CAT masks."""
        return self.pair_batch([PairRequest(
            first, second, first_mask, second_mask,
            first_cores, second_cores,
        )])[0]

    def pair_batch(
        self, requests: list[PairRequest]
    ) -> list[ConcurrentResult]:
        """Evaluate many independent pair measurements.

        All simulations go out as one batch (fanned across the active
        process pool, if any); the engine-integration side (worker
        association, PCM accumulation) then replays in request order,
        so the association sequence the compare-before-set controller
        sees — and therefore its elision statistics — never depends on
        the schedule.
        """
        outcomes = self.experiment.concurrent_batch(
            [request.queries() for request in requests]
        )
        for request, outcome in zip(requests, outcomes):
            with runtime.tracer.span(
                "pair",
                first=request.first.name,
                second=request.second.name,
            ):
                self._associate_workers(
                    request.first_mask, request.second_mask
                )
            self._record_counters(outcome)
        return outcomes

    def isolated_sweep(
        self, profile: AccessProfile, ways_sequence: tuple[int, ...]
    ) -> tuple[QueryResult, list[QueryResult]]:
        """Full-cache baseline plus one isolated point per way count.

        The common shape of Figs. 4-6, evaluated as one batch; the
        returned list preserves ``ways_sequence`` order.
        """
        baseline, *points = self.experiment.isolated_batch(
            [(profile, None, None)]
            + [
                (profile, self.mask_for_ways(ways), None)
                for ways in ways_sequence
            ]
        )
        return baseline, points

    def _record_counters(self, outcome: ConcurrentResult) -> None:
        """Accumulate one second's worth of each query's counter rates
        into the PCM bank and publish the snapshots as gauges."""
        for name, result in outcome.results.items():
            rates = result.counters
            references = int(round(rates.llc_references_per_s))
            self.perf.record(
                name,
                instructions=int(round(rates.instructions_per_s)),
                llc_references=references,
                llc_hits=min(
                    int(round(rates.llc_hits_per_s)), references
                ),
            )
        if runtime.metrics.enabled:
            self.perf.publish(runtime.metrics)

    def _associate_workers(self, *masks: int | None) -> None:
        """Associate every worker thread with each wave's bitmask.

        Mirrors the engine's dispatch (paper Sec. V-C): before a
        query's job wave runs, the workers executing it are bound to
        the query's capacity bitmask.  Feeding the masks through the
        compare-before-set controller makes the figures produce real
        association/elision statistics.
        """
        full = self.spec.full_mask
        for mask in masks:
            effective = mask if mask is not None else full
            for tid in range(self.workers):
                self.controller.associate(tid, effective)
