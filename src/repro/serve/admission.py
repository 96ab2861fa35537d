"""Session and admission control for the query service.

The paper's execution engine dedicates a worker pool per query class
(Sec. V); an open service on top of it needs a policy for the moments
when offered load exceeds what those pools can absorb.  This layer
keeps at most ``max_concurrency`` requests in service, parks up to
``queue_depth`` more in a FIFO queue, and sheds the rest — shedding is
what keeps the tail *measurable* under overload instead of letting the
queue (and every latency percentile) grow without bound.

Tenancy is per request class: each :class:`RequestClass` names a tenant
("olap" / "oltp"), and the controller records the cache-usage class
each tenant's sessions are currently associated with, mirroring how
the engine maps CUIDs to CLOS masks in
:mod:`repro.engine.cache_control`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from ..errors import ServeError
from ..obs import runtime
from ..operators.base import CacheUsage
from .arrivals import RequestClass


class AdmissionDecision(enum.Enum):
    """Outcome of offering one arrival to the service."""

    ADMITTED = "admitted"   # enters service immediately
    QUEUED = "queued"       # waits in FIFO order for a slot
    SHED = "shed"           # rejected; never runs


@dataclass
class Request:
    """One in-flight request (mutable: the simulation advances it)."""

    request_id: int
    cls: RequestClass
    arrived_s: float
    admitted_s: float | None = None
    completed_s: float | None = None
    remaining_tuples: float = field(default=0.0)
    #: Whether the request's latency counts toward SLO measurement.
    #: False for arrivals landing in the warmup slice of a sampled
    #: window — they run (warming queue state) but are not observed.
    recorded: bool = True

    def __post_init__(self) -> None:
        if self.remaining_tuples == 0.0:
            self.remaining_tuples = self.cls.work_tuples

    @property
    def tenant(self) -> str:
        return self.cls.tenant

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (queue wait included)."""
        if self.completed_s is None:
            raise ServeError(
                f"request {self.request_id} has not completed"
            )
        return self.completed_s - self.arrived_s


class AdmissionController:
    """Bounded-concurrency admission with FIFO overflow and shedding."""

    def __init__(
        self, max_concurrency: int, queue_depth: int
    ) -> None:
        if max_concurrency <= 0:
            raise ServeError(
                f"max_concurrency must be > 0: {max_concurrency}"
            )
        if queue_depth < 0:
            raise ServeError(
                f"queue_depth must be >= 0: {queue_depth}"
            )
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self._running: dict[int, Request] = {}
        self._queue: deque[Request] = deque()
        self._tenant_cuids: dict[str, CacheUsage] = {}
        self.admitted = 0
        self.queued = 0
        self.shed = 0

    # -- state ---------------------------------------------------------

    @property
    def running(self) -> dict[int, Request]:
        """Requests currently in service, keyed by request id."""
        return self._running

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def queued_requests(self) -> tuple[Request, ...]:
        """The parked requests in FIFO order (read-only snapshot)."""
        return tuple(self._queue)

    def tenant_cuid(self, tenant: str) -> CacheUsage | None:
        """The cache-usage class this tenant's sessions run under."""
        return self._tenant_cuids.get(tenant)

    def bind_tenant(self, tenant: str, cuid: CacheUsage) -> None:
        """Record the CUID the tenant's sessions are associated with."""
        self._tenant_cuids[tenant] = cuid

    # -- admission -----------------------------------------------------

    def offer(self, request: Request, now: float) -> AdmissionDecision:
        """Admit, queue, or shed one arrival."""
        if len(self._running) < self.max_concurrency:
            self._admit(request, now)
            return AdmissionDecision.ADMITTED
        if len(self._queue) < self.queue_depth:
            self._queue.append(request)
            self.queued += 1
            runtime.metrics.counter("serve.admission.queued").inc()
            self._publish_depth()
            return AdmissionDecision.QUEUED
        self.shed += 1
        runtime.metrics.counter("serve.admission.shed").inc()
        return AdmissionDecision.SHED

    def release(self, request_id: int, now: float) -> Request | None:
        """Finish a running request; promote the next queued one.

        Returns the promoted request (already admitted at ``now``), or
        ``None`` when the queue was empty.  The caller reschedules
        completions for the new service-rate regime.
        """
        if request_id not in self._running:
            raise ServeError(f"request {request_id} is not running")
        del self._running[request_id]
        self._publish_depth()
        if not self._queue:
            return None
        promoted = self._queue.popleft()
        self._admit(promoted, now)
        return promoted

    def purge_queued(
        self, names: frozenset[str]
    ) -> list[Request]:
        """Shed every parked request of the named classes.

        The defense layer calls this at conviction: a jailed group
        holds at most one slot and no queue space, so its backlog —
        accepted while the group still looked legitimate — is shed
        rather than left to delay the victims.  Running requests are
        untouched.  Returns the removed requests in FIFO order.
        """
        if not names:
            return []
        removed = [
            request
            for request in self._queue
            if request.cls.name in names
        ]
        if removed:
            self._queue = deque(
                request
                for request in self._queue
                if request.cls.name not in names
            )
            self.shed += len(removed)
            runtime.metrics.counter("serve.admission.shed").inc(
                len(removed)
            )
            self._publish_depth()
        return removed

    def evacuate(self) -> tuple[list[Request], list[Request]]:
        """Remove every running and queued request at once.

        Models a node failure: in-flight work is lost, the queue is
        dropped.  Returns ``(running, queued)`` — running in request-id
        order, queued in FIFO order — so the caller can account for the
        loss (the cluster counts both as failure shed).
        """
        running = [
            self._running[request_id]
            for request_id in sorted(self._running)
        ]
        queued = list(self._queue)
        self._running.clear()
        self._queue.clear()
        self._publish_depth()
        return running, queued

    def _admit(self, request: Request, now: float) -> None:
        request.admitted_s = now
        self._running[request.request_id] = request
        self.admitted += 1
        runtime.metrics.counter("serve.admission.admitted").inc()
        self._publish_depth()

    def _publish_depth(self) -> None:
        runtime.metrics.gauge("serve.admission.running").set(
            len(self._running)
        )
        runtime.metrics.gauge("serve.admission.queue_length").set(
            len(self._queue)
        )
