"""One fleet member: a query service plus liveness and loss accounting.

A :class:`ClusterNode` **is** a :class:`~repro.serve.service.QueryService`
— same admission, same processor-sharing rate model, same adaptive CAT
controller — with two cluster-specific differences:

* **no private arrival process** — the fleet owns the per-node seeded
  source streams and injects traffic through
  :meth:`~repro.serve.service.QueryService.accept` after routing, so a
  node's event sequence numbers never depend on how many peers exist,
* **liveness** — :meth:`fail` models a crash (in-flight and queued work
  lost, CAT state reset to the unpartitioned baseline on the replacement
  process) and :meth:`recover` brings the node back; the lost requests
  count as ``failure shed`` (and in the ``cluster.shed`` metric).
"""

from __future__ import annotations

from ..config import SystemSpec
from ..core.policy import paper_scheme
from ..engine.cache_control import CuidPolicy
from ..errors import ClusterError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..obs import runtime
from ..serve.admission import AdmissionDecision
from ..serve.arrivals import RequestClass
from ..serve.service import QueryService, ServiceConfig, ServiceReport


class _NoArrivals:
    """Sentinel arrival process: the fleet injects traffic directly."""

    def next_arrival(self, now: float):
        raise ClusterError(
            "cluster nodes receive traffic from the router, not from "
            "a private arrival process"
        )


class ClusterNode(QueryService):
    """A query service driven by a routing layer instead of its own
    arrival stream."""

    def __init__(
        self,
        index: int,
        config: ServiceConfig,
        spec: SystemSpec | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        solve_memo: dict | None = None,
    ) -> None:
        if index < 0:
            raise ClusterError(f"node index must be >= 0: {index}")
        self.index = index
        super().__init__(
            config,
            spec=spec,
            calibration=calibration,
            arrivals=_NoArrivals(),
            solve_memo=solve_memo,
        )
        self.alive = True
        # Routing-layer accounting (the fleet increments these).
        self.routed_in = 0
        self.forwarded_in = 0
        self.failover_in = 0
        # Liveness accounting.
        self.kills = 0
        self.failure_shed = 0
        self.downtime_s = 0.0
        self._failed_at: float | None = None

    # -- traffic -------------------------------------------------------

    def accept(
        self,
        now: float,
        cls: RequestClass,
        arrived_s: float | None = None,
    ) -> AdmissionDecision:
        if not self.alive:
            raise ClusterError(
                f"node {self.index} is down at t={now}; the router "
                "must not target dead nodes"
            )
        return super().accept(now, cls, arrived_s=arrived_s)

    # -- liveness ------------------------------------------------------

    def fail(self, now: float) -> None:
        """Crash the node at ``now``, losing every request in service
        or queued (counted as ``failure_shed``).

        In-flight work progresses at the pre-crash rates up to the
        crash instant and is then discarded; the epoch bump strands
        every already-scheduled completion, and the CAT configuration
        resets to the unpartitioned full mask — a restarted process
        starts from the baseline, exactly like a cold service.
        """
        if not self.alive:
            raise ClusterError(f"node {self.index} is already down")
        self._advance(now)
        running, queued = self.admission.evacuate()
        for request in running:
            self._free_tids.append(
                self._state.slots.pop(request.request_id)
            )
        self._free_tids.sort(reverse=True)
        for request in running + queued:
            del self._requests[request.request_id]
        self._state.rates = {}
        self._state.epoch += 1
        self.cache_controller.disable()
        if self.controller is not None:
            self.controller._installed_masks = None
        lost = len(running) + len(queued)
        if lost:
            runtime.metrics.counter("cluster.shed").inc(lost)
        self.failure_shed += lost
        self.kills += 1
        self.alive = False
        self._failed_at = now

    def recover(
        self, now: float, policy: CuidPolicy | None = None
    ) -> None:
        """Bring the node back into the routable set at ``now``.

        ``policy`` is the CAT scheme the restarted process programs
        (a planned fleet passes its blueprint's); None keeps the
        node's own boot default.
        """
        if self.alive:
            raise ClusterError(f"node {self.index} is already up")
        assert self._failed_at is not None
        self.downtime_s += now - self._failed_at
        self._failed_at = None
        self.alive = True
        if policy is None and self.config.policy == "static":
            # A restarted process re-applies its static CAT scheme at
            # boot; adaptive nodes re-derive it on their next tick.
            policy = paper_scheme().to_cuid_policy(self.spec)
        if policy is not None:
            self.cache_controller.enable(policy)

    def close_downtime(self, end_s: float) -> None:
        """Fold an outage still open at the horizon into downtime."""
        if not self.alive and self._failed_at is not None:
            self.downtime_s += end_s - self._failed_at
            self._failed_at = end_s

    # -- reporting -----------------------------------------------------

    def report(self) -> ServiceReport:
        """The node's own service report (same schema as single-node)."""
        return self._report()

    def stats(self) -> dict:
        """Routing and liveness counters for the fleet report."""
        return {
            "index": self.index,
            "alive": self.alive,
            "routed_in": self.routed_in,
            "forwarded_in": self.forwarded_in,
            "failover_in": self.failover_in,
            "kills": self.kills,
            "failure_shed": self.failure_shed,
            "downtime_s": round(self.downtime_s, 9),
        }
