"""The query service: an open-loop discrete-event simulation.

The service binds the pieces together: arrivals enter through
admission control, run under processor sharing on the analytic
workload model, and leave their latencies in the SLO tracker while the
adaptive controller (policy ``adaptive``) re-programs CAT masks
underneath them.

**Service model.**  The simulation owns ``max_concurrency`` worker
slots of ``~cores/max_concurrency`` physical cores each.  At any
instant the running requests are grouped by (class, mask) and handed
to :class:`~repro.model.simulator.WorkloadSimulator` as one concurrent
workload — class ``c`` with ``n`` running instances contributes a
``QuerySpec`` with ``n * slot_cores`` cores, so LLC and memory
bandwidth contention (and the SMT oversubscription penalty when slots
exceed physical cores) shape every service rate exactly as in the
paper's figures.  Each instance progresses at ``class throughput / n``
tuples per second — processor sharing within the class.

**Event mechanics.**  Service rates only change when the running
composition or the masks change (arrival admitted, completion,
controller reconfiguration).  Each such *reflow* advances every
running request's remaining work at the old rates, bumps an epoch
counter, and schedules one COMPLETION: the request with the smallest
ETA at the new rates.  Nothing finishes before it without another
reflow, which schedules its own successor.  A completion from an older
epoch (superseded, or stranded by a node crash) is dropped without
moving the clock.  Rate solves are memoised in a ``rate_cache`` keyed
by the exact (class, count, mask) composition — shareable across runs,
which is what keeps policy comparisons cheap.

Determinism: the only randomness is the seeded arrival process, time
only moves through the event queue, and the report contains no wall
clock — the same :class:`ServiceConfig` produces byte-identical
reports (CI asserts this).
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..config import SystemSpec
from ..core.policy import paper_scheme
from ..engine.cache_control import CacheController, CuidPolicy
from ..errors import ServeError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.simulator import QuerySpec, WorkloadSimulator
from ..obs import runtime
from ..operators.base import CacheUsage
from ..hardware.cat import CatController
from ..resctrl.filesystem import ResctrlFilesystem
from ..resctrl.interface import ResctrlInterface
from ..schema import (
    REPORT_VERSION,
    check_finite,
    config_from_dict,
    config_to_dict,
)
from .admission import AdmissionController, AdmissionDecision, Request
from .arrivals import (
    DEFAULT_ARRIVAL_SEED,
    ArrivalWindows,
    RequestClass,
    SampleGrid,
    build_arrivals,
    mix_schedule,
    next_sampled_arrival,
    olap_heavy_mix,
    oltp_heavy_mix,
)
from .clock import SimulatedClock
from .controller import AdaptiveController
from .events import EventKind, EventQueue
from .slo import SloTarget, SloTracker

PROFILES = ("poisson", "bursty", "diurnal", "replay")
POLICIES = ("none", "static", "adaptive")
MIXES = ("olap", "oltp", "shift")

#: In-flight budget (running + queued) shared by every jailed class
#: on a node.  One slot: a convicted group keeps exactly one request
#: in service and parks nothing — queue space it occupied would still
#: delay the victims the jail exists to protect.  Excess arrivals are
#: shed at admission and counted in the normal shed accounting.
JAIL_SLOTS = 1

#: Default bound on the rate cache (entries, not bytes; one entry is a
#: small per-class dict).  Long diurnal mix schedules can produce an
#: unbounded stream of distinct composition signatures — the LRU keeps
#: the resident set to the compositions actually recurring.
DEFAULT_RATE_CACHE_CAPACITY = 4096


class RateCache:
    """Bounded LRU over composition signatures (the rate-solve memo).

    The same shape as the in-memory layer of
    :class:`repro.parallel.simcache.SimulationCache`: an
    ``OrderedDict`` with move-to-end on hit and pop-oldest on
    overflow.  Duck-type compatible with the plain ``dict`` callers
    used to pass (``get`` / item assignment / ``len``), so a shared
    unbounded dict still works where a caller wants one.  Evictions
    are counted on the instance and published as
    ``serve.rate_cache_evictions``.
    """

    def __init__(
        self, capacity: int = DEFAULT_RATE_CACHE_CAPACITY
    ) -> None:
        if capacity < 1:
            raise ServeError(
                f"rate cache capacity must be >= 1: {capacity}"
            )
        self.capacity = capacity
        self.evictions = 0
        self._entries: OrderedDict[tuple, dict] = OrderedDict()

    def get(self, key: tuple) -> dict | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def __setitem__(self, key: tuple, value: dict) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            runtime.metrics.counter(
                "serve.rate_cache_evictions"
            ).inc()

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service run depends on (the determinism domain)."""

    profile: str = "poisson"
    policy: str = "adaptive"
    mix: str = "olap"
    duration_s: float = 20.0
    rate_per_s: float = 12.0
    seed: int = DEFAULT_ARRIVAL_SEED
    max_concurrency: int = 8
    queue_depth: int = 32
    control_interval_s: float = 1.0
    shift_at_s: float | None = None
    olap_p99_s: float = 4.0
    oltp_p99_s: float = 2.0
    #: Interval sampling for long traces (None = simulate everything):
    #: windows of ``sample_window_s`` seconds, every
    #: ``sample_period``-th window simulated, the first
    #: ``sample_warmup`` fraction of each simulated window excluded
    #: from measurement.  See :class:`repro.serve.arrivals.SampleGrid`.
    sample_window_s: float | None = None
    sample_period: int = 1
    sample_warmup: float = 0.5

    def __post_init__(self) -> None:
        check_finite(self, ServeError)
        if self.profile not in PROFILES:
            raise ServeError(
                f"profile must be one of {PROFILES}: {self.profile!r}"
            )
        if self.policy not in POLICIES:
            raise ServeError(
                f"policy must be one of {POLICIES}: {self.policy!r}"
            )
        if self.mix not in MIXES:
            raise ServeError(
                f"mix must be one of {MIXES}: {self.mix!r}"
            )
        if self.duration_s <= 0:
            raise ServeError(
                f"duration must be > 0: {self.duration_s}"
            )
        if self.rate_per_s <= 0:
            raise ServeError(f"rate must be > 0: {self.rate_per_s}")
        if self.seed < 0:
            raise ServeError(f"seed must be >= 0: {self.seed}")
        if self.max_concurrency < 1:
            raise ServeError(
                f"max_concurrency must be >= 1: {self.max_concurrency}"
            )
        if self.control_interval_s <= 0:
            raise ServeError(
                "control interval must be > 0: "
                f"{self.control_interval_s}"
            )
        if self.shift_at_s is not None and not (
            0.0 < self.shift_at_s < self.duration_s
        ):
            raise ServeError(
                "shift must fall inside the run: "
                f"{self.shift_at_s} not in (0, {self.duration_s})"
            )
        # Delegate the sampling-knob checks to the grid itself.
        self.sample_grid()

    def sample_grid(self) -> SampleGrid | None:
        """The interval-sampling grid, or None when unsampled."""
        if self.sample_window_s is None:
            return None
        return SampleGrid(
            window_s=self.sample_window_s,
            period=self.sample_period,
            warmup_fraction=self.sample_warmup,
        )

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceConfig":
        """The inverse of :meth:`to_dict`: ``from_dict(to_dict(c)) == c``."""
        return config_from_dict(cls, payload, ServeError)


@dataclass
class ServiceReport:
    """Deterministic summary of one service run."""

    config: ServiceConfig
    arrived: int
    admitted: int
    queued: int
    shed: int
    completed: int
    end_time_s: float
    completed_per_s: float
    slo: tuple
    controller: dict
    events: dict
    cache_control: dict
    rate_solves: int
    rate_cache_hits: int
    rate_cache_evictions: int = 0
    #: Offered arrival log: one ``(time_s, class name)`` per arrival
    #: (shed ones included) — the sequence replay re-drives.
    arrivals: tuple = ()
    #: Per-window offered-arrival counts (``window_s`` / ``classes`` /
    #: ``tenants``) — the forecaster training block.
    arrival_windows: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "arrivals": [
                [round(time_s, 9), name]
                for time_s, name in self.arrivals
            ],
            "arrival_windows": self.arrival_windows,
            "config": self.config.to_dict(),
            "arrived": self.arrived,
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "completed": self.completed,
            "end_time_s": round(self.end_time_s, 9),
            "completed_per_s": round(self.completed_per_s, 9),
            "slo": [verdict.to_dict() for verdict in self.slo],
            "controller": self.controller,
            "events": self.events,
            "cache_control": self.cache_control,
            "rate_solves": self.rate_solves,
            "rate_cache_hits": self.rate_cache_hits,
            "rate_cache_evictions": self.rate_cache_evictions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str | Path) -> Path:
        """Write the report as canonical JSON (byte-stable per seed)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    def verdict_for(self, tenant: str):
        for verdict in self.slo:
            if verdict.tenant == tenant:
                return verdict
        raise ServeError(f"no SLO verdict for tenant {tenant!r}")

    @property
    def slo_ok(self) -> bool:
        return all(verdict.ok for verdict in self.slo)


@dataclass
class _RunningState:
    """Mutable per-run bookkeeping the event handlers share."""

    epoch: int = 0
    rates: dict[int, float] = field(default_factory=dict)
    last_advance_s: float = 0.0
    slots: dict[int, int] = field(default_factory=dict)  # req -> tid


class QueryService:
    """Runs one configured service simulation to completion."""

    def __init__(
        self,
        config: ServiceConfig,
        spec: SystemSpec | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        rate_cache: dict | None = None,
        controller: AdaptiveController | None = None,
        arrivals=None,
        solve_memo: dict | None = None,
    ) -> None:
        self.config = config
        self.spec = spec if spec is not None else SystemSpec()
        self.calibration = calibration
        self.simulator = WorkloadSimulator(self.spec, calibration)
        self.rate_cache = (
            rate_cache if rate_cache is not None else RateCache()
        )
        #: Optional fleet-shared solve memo (signature -> per-class
        #: rates).  Sits BEHIND the per-service rate cache: a service
        #: still counts its own ``rate_solves`` on a local cache miss,
        #: so its report is independent of who populated the memo —
        #: only the redundant ``simulate()`` call is elided.  Sharers
        #: must run identical (spec, calibration).
        self.solve_memo = solve_memo
        self.rate_solves = 0
        self.rate_cache_hits = 0
        self._sample_grid = config.sample_grid()
        # Each worker slot is a virtual thread the cache controller
        # associates masks with, engine-style.
        self.slot_cores = max(
            1, round(self.spec.cores / config.max_concurrency)
        )
        self.cache_controller = CacheController(
            self.spec,
            ResctrlInterface(
                ResctrlFilesystem(CatController(self.spec))
            ),
        )
        if config.policy == "static":
            self.cache_controller.enable(
                paper_scheme().to_cuid_policy(self.spec)
            )
        self.controller = controller
        if config.policy == "adaptive" and self.controller is None:
            self.controller = AdaptiveController(
                self.spec,
                self.cache_controller,
                interval_s=config.control_interval_s,
            )
        self.admission = AdmissionController(
            config.max_concurrency, config.queue_depth
        )
        #: Defense jail: class name -> forced CAT mask.  Takes
        #: precedence over every policy's mask choice while installed
        #: (see repro.defense); empty outside defended fleet runs.
        #: Jailed classes are also throttled to ``JAIL_SLOTS``
        #: in-flight requests — CAT confines an aggressor's cache
        #: footprint but not its worker slots or bus time, so a jail
        #: that only reprograms masks leaves the node saturated.
        self._jail_masks: dict[str, int] = {}
        self.slo = SloTracker(
            (
                SloTarget("olap", p99_s=config.olap_p99_s),
                SloTarget("oltp", p99_s=config.oltp_p99_s),
            )
        )
        if arrivals is not None:
            # Injected process (trace replay, tests): duck-typed on
            # ``next_arrival(now) -> (timestamp, RequestClass)``.
            self.arrivals = arrivals
        elif config.profile == "replay":
            raise ServeError(
                "profile 'replay' needs an injected arrival process "
                "(build one with repro.serve.replay.load_trace)"
            )
        else:
            self.arrivals = build_arrivals(
                config.profile,
                config.rate_per_s,
                mix_schedule(
                    config, olap_heavy_mix, oltp_heavy_mix,
                    self.spec.cores, calibration,
                ),
                seed=config.seed,
            )
        self.clock = SimulatedClock()
        self.queue = EventQueue()
        self._requests: dict[int, Request] = {}
        self._arrival_log: list[tuple[float, str]] = []
        # class name -> tenant group, learned from the classes actually
        # offered (covers re-tenanted cluster classes and injected
        # replay catalogs alike).
        self._tenant_by_class: dict[str, str] = {}
        self._next_request_id = 0
        self._free_tids = list(
            range(config.max_concurrency - 1, -1, -1)
        )
        self._state = _RunningState()

    # -- masks ---------------------------------------------------------

    def _static_policy(self) -> CuidPolicy:
        return self.cache_controller.policy

    def set_jail(self, cls_name: str, mask: int) -> None:
        """Confine a request class to ``mask`` (defense quarantine)."""
        self._jail_masks[cls_name] = mask

    def clear_jail(self, cls_name: str) -> None:
        """Lift a class's jail mask (release-on-reform)."""
        self._jail_masks.pop(cls_name, None)

    def purge_jailed(self) -> int:
        """Shed the queued backlog of every jailed class.

        Called once per conviction, after the jail masks are set: the
        backlog was accepted while the group still looked legitimate,
        and leaving it parked would keep delaying the victims.  The
        caller reflows afterwards.  Returns the number shed.
        """
        removed = self.admission.purge_queued(
            frozenset(self._jail_masks)
        )
        for request in removed:
            del self._requests[request.request_id]
        if removed:
            runtime.metrics.counter("defense.purged").inc(
                len(removed)
            )
        return len(removed)

    def _mask_for(self, cls: RequestClass) -> int:
        if self._jail_masks:
            jailed = self._jail_masks.get(cls.name)
            if jailed is not None:
                return jailed
        if self.config.policy == "none":
            return self.spec.full_mask
        if self.config.policy == "static":
            policy = self._static_policy()
            if cls.static_cuid is CacheUsage.POLLUTING:
                return policy.polluting_mask
            if cls.static_cuid is CacheUsage.SENSITIVE:
                return policy.sensitive_mask
            return policy.adaptive_sensitive_mask
        assert self.controller is not None
        return self.controller.mask_for(cls)

    # -- rate model ----------------------------------------------------

    def _composition_signature(self) -> tuple:
        # A class's mask depends only on the class, so count by name
        # and resolve one mask per distinct class.
        classes: dict[str, RequestClass] = {}
        counts: dict[str, int] = {}
        for request in self.admission.running.values():
            cls = request.cls
            classes.setdefault(cls.name, cls)
            counts[cls.name] = counts.get(cls.name, 0) + 1
        return tuple(
            (name, self._mask_for(classes[name]), counts[name])
            for name in sorted(counts)
        )

    def _solve_rates(self) -> dict[int, float]:
        """Per-request service rates for the current composition."""
        running = self.admission.running
        if not running:
            return {}
        signature = self._composition_signature()
        per_class = self.rate_cache.get(signature)
        if per_class is None:
            # This service had to resolve the composition: the counter
            # (part of the report) moves regardless of whether a
            # fleet-shared memo already holds the answer, so a node's
            # report never depends on its peers' progress.
            self.rate_solves += 1
            runtime.metrics.counter("serve.rate_solves").inc()
            memo = self.solve_memo
            per_class = memo.get(signature) if memo is not None else None
            if per_class is None:
                per_class = self._solve_signature(signature)
                if memo is not None:
                    memo[signature] = per_class
                    runtime.metrics.counter(
                        "serve.batch.memo_misses"
                    ).inc()
            else:
                runtime.metrics.counter("serve.batch.memo_hits").inc()
            self.rate_cache[signature] = per_class
        else:
            self.rate_cache_hits += 1
            runtime.metrics.counter("serve.rate_cache_hits").inc()
        return {
            request_id: per_class[request.cls.name]
            for request_id, request in running.items()
        }

    def _solve_signature(self, signature: tuple) -> dict[str, float]:
        """One batched model solve for a whole composition frontier.

        Every class running under every mask goes into a single
        ``simulator.simulate(specs)`` call — LLC and bandwidth
        contention across the entire frontier are solved as one fixed
        point, never per arrival.
        """
        classes = {
            request.cls.name: request.cls
            for request in self.admission.running.values()
        }
        specs = [
            QuerySpec(
                name=name,
                profile=classes[name].profile,
                cores=count * self.slot_cores,
                mask=mask,
            )
            for name, mask, count in signature
        ]
        with runtime.tracer.span(
            "serve.rate_solve", classes=len(specs)
        ):
            results = self.simulator.simulate(specs)
        runtime.metrics.counter("serve.batch.solves").inc()
        runtime.metrics.counter("serve.batch.specs").inc(len(specs))
        per_class = {}
        for name, _, count in signature:
            throughput = results[name].throughput_tuples_per_s
            if throughput <= 0.0:
                raise ServeError(
                    f"non-positive service rate for {name!r}"
                )
            per_class[name] = throughput / count
        return per_class

    # -- event mechanics -----------------------------------------------

    def _advance(self, now: float) -> None:
        """Progress running work at the current rates up to ``now``."""
        elapsed = now - self._state.last_advance_s
        if elapsed > 0.0:
            requests = self._requests
            for request_id, rate in self._state.rates.items():
                request = requests[request_id]
                request.remaining_tuples = max(
                    0.0, request.remaining_tuples - rate * elapsed
                )
        self._state.last_advance_s = now

    def _reflow(self, now: float) -> None:
        """Recompute rates and schedule the earliest completion (ties
        go to the first request in rate order)."""
        self._advance(now)
        rates = self._state.rates = self._solve_rates()
        self._state.epoch += 1
        requests = self._requests
        next_id = None
        next_eta = math.inf
        for request_id, rate in rates.items():
            eta = now + requests[request_id].remaining_tuples / rate
            if eta < next_eta:
                next_id = request_id
                next_eta = eta
        if next_id is not None:
            self.queue.push(
                next_eta,
                EventKind.COMPLETION,
                request_id=next_id,
                epoch=self._state.epoch,
            )

    def _associate(self, request: Request) -> None:
        tid = self._state.slots[request.request_id]
        self.cache_controller.associate(
            tid, self._mask_for(request.cls)
        )

    def _admit_bookkeeping(self, request: Request) -> None:
        self._state.slots[request.request_id] = self._free_tids.pop()
        self.admission.bind_tenant(
            request.tenant, request.cls.static_cuid
        )
        self._associate(request)

    # -- event handlers ------------------------------------------------

    def _on_arrival(self, now: float, payload: dict) -> None:
        self.accept(now, payload["cls"])
        self._schedule_next_arrival(now)

    def accept(
        self,
        now: float,
        cls: RequestClass,
        arrived_s: float | None = None,
    ) -> AdmissionDecision:
        """Offer one arrival to admission (externally injectable).

        The cluster's routing layer calls this directly — a node takes
        traffic from the router exactly as it would from its own
        arrival process.  ``arrived_s`` backdates the request's arrival
        instant (default: ``now``): a migration-deferred arrival is
        injected at the blackout's end but its latency — and so its SLO
        verdict — is charged from the moment it originally arrived.
        """
        arrived = now if arrived_s is None else arrived_s
        self._arrival_log.append((arrived, cls.name))
        self._tenant_by_class.setdefault(cls.name, cls.tenant)
        recorded = (
            self._sample_grid is None
            or self._sample_grid.measured(arrived)
        )
        if not recorded:
            runtime.metrics.counter(
                "serve.sample.warmup_arrivals"
            ).inc()
        request = Request(
            request_id=self._next_request_id,
            cls=cls,
            arrived_s=arrived,
            recorded=recorded,
        )
        self._next_request_id += 1
        self._requests[request.request_id] = request
        runtime.metrics.counter("serve.requests.arrived").inc()
        if self._jail_masks and cls.name in self._jail_masks:
            in_cell = sum(
                1
                for held in self.admission.running.values()
                if held.cls.name in self._jail_masks
            ) + sum(
                1
                for held in self.admission.queued_requests
                if held.cls.name in self._jail_masks
            )
            if in_cell >= JAIL_SLOTS:
                self.admission.shed += 1
                runtime.metrics.counter("serve.admission.shed").inc()
                runtime.metrics.counter("defense.throttled").inc()
                del self._requests[request.request_id]
                return AdmissionDecision.SHED
        decision = self.admission.offer(request, now)
        if decision is AdmissionDecision.ADMITTED:
            self._admit_bookkeeping(request)
            self._reflow(now)
        elif decision is AdmissionDecision.SHED:
            # Never runs; drop it from the table.
            del self._requests[request.request_id]
        return decision

    def _schedule_next_arrival(self, now: float) -> None:
        timestamp, cls = next_sampled_arrival(
            self.arrivals, now, self.config.duration_s, self._sample_grid
        )
        if timestamp < self.config.duration_s:
            self.queue.push(timestamp, EventKind.ARRIVAL, cls=cls)

    def _on_completion(self, now: float, payload: dict) -> None:
        request_id = payload["request_id"]
        request = self._requests[request_id]
        self._advance(now)
        request.completed_s = now
        request.remaining_tuples = 0.0
        if request.recorded:
            self.slo.observe(request.tenant, request.latency_s)
        runtime.metrics.counter("serve.requests.completed").inc()
        self._free_tids.append(self._state.slots.pop(request_id))
        self._free_tids.sort(reverse=True)
        del self._state.rates[request_id]
        promoted = self.admission.release(request_id, now)
        if promoted is not None:
            self._admit_bookkeeping(promoted)
        self._reflow(now)

    def _on_control(self, now: float) -> None:
        assert self.controller is not None
        active = [
            request.cls
            for _, request in sorted(self.admission.running.items())
        ]
        decision = self.controller.tick(now, active)
        if decision.changed:
            self.remask(now)
        next_tick = now + self.controller.interval_s
        if next_tick < self.config.duration_s:
            self.queue.push(next_tick, EventKind.CONTROL)

    def remask(self, now: float) -> None:
        """Re-associate every running request with its current mask
        (in request-id order), then reflow — the step every CAT
        reprogramming (controller, planner, jail) ends with."""
        for request_id in sorted(self.admission.running):
            self._associate(self._requests[request_id])
        self._reflow(now)

    # -- the loop ------------------------------------------------------

    def schedule_first_control(self) -> None:
        """Push the controller's first tick (no-op without one): one
        interval in, or mid-run when the run is shorter than two."""
        if self.controller is not None:
            self.queue.push(
                min(self.controller.interval_s,
                    self.config.duration_s / 2.0),
                EventKind.CONTROL,
            )

    def run(self) -> ServiceReport:
        """Run to completion (arrivals stop at the horizon, then drain)."""
        config = self.config
        with runtime.tracer.span(
            "serve.run", profile=config.profile, policy=config.policy
        ):
            self._schedule_next_arrival(0.0)
            self.schedule_first_control()
            while self.queue:
                self.dispatch(self.queue.pop())
        return self._report()

    def dispatch(self, event) -> None:
        """Advance the clock to one event and handle it.

        Factored out of :meth:`run` so a cluster fleet can pop each
        node's queue in global time order and dispatch here.  Stale
        completions must not move the clock (it sets the drain horizon).
        """
        kind = event.kind
        if (
            kind is EventKind.COMPLETION
            and event.payload["epoch"] != self._state.epoch
        ):
            return
        now = self.clock.advance_to(event.time_s)
        if kind is EventKind.ARRIVAL:
            self._on_arrival(now, event.payload)
        elif kind is EventKind.COMPLETION:
            self._on_completion(now, event.payload)
        else:
            self._on_control(now)

    def _report(self) -> ServiceReport:
        completed = sum(
            1 for request in self._requests.values()
            if request.completed_s is not None
        )
        horizon = max(self.clock.now, self.config.duration_s)
        controller_stats: dict = {"enabled": False}
        if self.controller is not None:
            controller_stats = {
                "enabled": True,
                "ticks": self.controller.ticks,
                "reconfigurations": self.controller.reconfigurations,
                "change_times_s": [
                    round(t, 9) for t in self.controller.change_times
                ],
                "decisions": [
                    d.to_dict() for d in self.controller.decisions
                ],
            }
        stats = self.cache_controller.stats
        # Stable-sort by time: identity for a normal run (the clock
        # never goes backwards), and it re-orders backdated
        # migration-deferred arrivals so the log stays replayable.
        arrival_log = sorted(
            self._arrival_log, key=lambda entry: entry[0]
        )
        windows = ArrivalWindows(self.config.duration_s)
        for time_s, name in arrival_log:
            windows.add(time_s, name, self._tenant_by_class[name])
        return ServiceReport(
            config=self.config,
            arrived=self._next_request_id,
            admitted=self.admission.admitted,
            queued=self.admission.queued,
            shed=self.admission.shed,
            completed=completed,
            end_time_s=self.clock.now,
            completed_per_s=completed / horizon,
            slo=self.slo.verdicts(),
            controller=controller_stats,
            events={
                "pushed": self.queue.pushed,
                "popped": self.queue.popped,
            },
            cache_control={
                "associations_requested": stats.associations_requested,
                "kernel_calls": stats.kernel_calls,
                "elided_calls": stats.elided_calls,
            },
            rate_solves=self.rate_solves,
            rate_cache_hits=self.rate_cache_hits,
            rate_cache_evictions=getattr(
                self.rate_cache, "evictions", 0
            ),
            arrivals=tuple(arrival_log),
            arrival_windows=windows.to_dict(),
        )
