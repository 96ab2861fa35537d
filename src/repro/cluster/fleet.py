"""The sharded fleet: N nodes, one router, one global event order.

**Composition.**  Each of the N nodes is a full single-node service
(:class:`~repro.cluster.node.ClusterNode`): its own spec-sized machine,
discrete-event clock and queue, admission layer, and (under the
``adaptive`` policy) its own CAT controller.  In front of them sits a
routing layer (:mod:`repro.cluster.router`) fed by N seeded source
streams — node ``i``'s front-end traffic, seeded
``seeding.derive_from(seed, "node/i")`` so a node's offered load is a
pure function of (cluster seed, node index) and never of the fleet
size.

**Global event order.**  The fleet loop repeatedly takes the earliest
candidate across six lanes and processes exactly it.  The lanes are
declared once, as a table in tie-break order (``Cluster._lanes``):

0. **faults** — the next kill/recover from the (explicit or seeded)
   schedule,
1. **node events** — the head of each node's own event queue
   (completions, controller ticks),
2. **arrivals** — each source stream's pending arrival,
3. **planner** — the next plan tick (``planned`` policy) and the next
   migration-deferred arrival,
4. **attacks** — each scheduled hostile stream's pending arrival,
5. **defense** — the next contention-detector tick.

Each table entry holds the lane's candidate-time function, its fire
function and its index range.  The candidates live in one **merged
event heap** keyed ``(time, lane, index)`` with per-``(lane, index)``
version counters for lazy invalidation: a lane whose candidate changes
pushes a fresh entry and bumps its version, and stale entries are
discarded on pop — the same lazy-invalidation idea the nodes use for
superseded completions.  Selecting the next event is therefore
O(log n) instead of an O(N)-per-event scan over every node and
source, which is what made fleet throughput *fall* as N grew.

Ties break by (time, lane, index) — pure integers, no hash order — so
one seed produces one event interleaving and therefore one
byte-identical fleet report, regardless of ``fleet_jobs``.

**One delivery point.**  Every effect that reaches a node passes
``Cluster._deliver``: an accepted arrival (lanes 2-4) and a kill or
recovery (lane 0, a planned node's blueprint scheme included).  On the
sequential path it applies the effect at once.

**Epoch-parallel execution.**  Under the ``hash`` router (and the
``planned`` router while an idle planner keeps its placement frozen) a
routing decision reads only the tenant key and the alive set — never
node state — so each node's event stream is a pure function of the
inputs delivered to it.  ``run(fleet_jobs=N)`` then runs the same lane
loop with the nodes idle, and the delivery point appends each effect to
the node's inbox instead; fleet counters, arrival windows and metrics
are counted by the same code either way.  ``repro.parallel`` workers
replay the inboxes (:mod:`repro.cluster.epoch`) and hand back whole
nodes, which replace the idle ones — the report is byte-identical to
the sequential loop (the equivalence suite in
``tests/test_cluster_parallel.py`` pins it).
One rule (``Cluster._sequential_reason``) keeps a fleet on the
sequential loop, first blocker first: a defended fleet, a planner that
fires, or a stateful router (``least-loaded``, ``affinity``) that reads
live queue state per decision.  The reason is recorded as a warning in
the report's ``execution`` block.

**Isolation of node state.**  Arrivals reach a node through
``node.accept()`` — they never pass through the node's event queue —
so a node's event sequence numbers, rate solves, and report depend
only on the traffic it actually receives.  With a router that keeps an
unloaded fleet local (``least-loaded``), node 0's report is
byte-identical between a 1-node and a 4-node fleet (tested).  For the
same reason each node keeps its **own** rate cache: sharing one dict
would make a node's hit/solve counters depend on its peers' progress.
Controller *analysis* caches (classification + way sweeps) are shared
fleet-wide instead — those memoize pure probes whose results are
identical on every node, so sharing changes cost, never results.  The
same distinction powers the fleet-shared **solve memo**: all nodes run
identical (spec, calibration), so a composition signature determines
its service rates fleet-wide; the memo sits *behind* each node's rate
cache and elides only the redundant ``simulate()`` call — the node
still counts its own ``rate_solves``, keeping its report independent
of which peer populated the memo.  This is what makes fleet events/s
scale with N instead of re-solving every composition once per node.

**Failover and loss accounting.**  A kill evacuates the victim's
running and queued requests (counted as ``shed_failure``), strands its
scheduled completions via the epoch bump, and removes it from the live
set; subsequent arrivals route around it (``failover`` decisions,
ring successors under ``hash``).  Conservation holds fleet-wide::

    generated == completed + shed_admission + shed_failure + shed_no_node

**Fleet report.**  Per-tenant-group latency histograms merge across
nodes bucket-wise (the fixed ladder makes pooled quantiles exact —
:meth:`repro.serve.slo.LatencyHistogram.merge`), yielding per-node
*and* fleet-wide SLO verdicts in one canonical JSON artifact
(``FLEET_REPORT_VERSION``).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, fields
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from .. import seeding
from ..config import SystemSpec
from ..defense.attacks import AttackSpec, attack_classes, validate_attacks
from ..defense.detector import ContentionDetector, DefenseConfig
from ..errors import ClusterError, DefenseError, PlannerError, ServeError
from ..hardware.cat import contiguous_mask
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.latency import LatencyModel
from ..obs import runtime
from ..parallel import executor as parallel_executor
from ..planner import (
    BLUEPRINT_SCHEMES,
    BlueprintScorer,
    FleetPlanner,
    PlannerConfig,
)
from ..schema import (
    FLEET_REPORT_VERSION,
    check_finite,
    config_from_dict,
    config_to_dict,
)
from ..serve.arrivals import (
    ARRIVAL_WINDOW_S,
    DEFAULT_ARRIVAL_SEED,
    ArrivalWindows,
    PoissonArrivals,
    SampleGrid,
    WorkloadMix,
    build_arrivals,
    mix_schedule,
    next_sampled_arrival,
)
from ..serve.service import POLICIES, ServiceConfig
from ..serve.slo import SloTarget, SloTracker
from .epoch import PLANNABLE_ROUTERS, count_epochs, replay_node_task
from .faults import FaultSpec, expand_schedule, validate_schedule
from .node import ClusterNode
from .ring import DEFAULT_VIRTUAL_NODES
from .router import ROUTERS, Router, make_router
from .workload import (
    cluster_classes,
    cluster_olap_mix,
    cluster_oltp_mix,
    tenant_id,
)

CLUSTER_MIXES = ("olap", "oltp", "shift")
CLUSTER_PROFILES = ("poisson", "bursty", "diurnal")

#: Fleet-level policies: the per-node serve policies plus ``planned``
#: — nodes run the static scheme while the fleet planner
#: (:mod:`repro.planner`) re-derives placement and CAT blueprints from
#: arrival forecasts on a timer.
CLUSTER_POLICIES = POLICIES + ("planned",)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a fleet run depends on (the determinism domain).

    ``rate_per_s`` is the offered load *per source stream* (one stream
    per node), so total fleet load scales with ``nodes``.
    """

    nodes: int = 2
    router: str = "hash"
    profile: str = "poisson"
    policy: str = "adaptive"
    mix: str = "olap"
    duration_s: float = 20.0
    rate_per_s: float = 12.0
    seed: int = DEFAULT_ARRIVAL_SEED
    max_concurrency: int = 8
    queue_depth: int = 32
    control_interval_s: float = 1.0
    olap_p99_s: float = 4.0
    oltp_p99_s: float = 2.0
    tenants_per_group: int = 8
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    faults: tuple[FaultSpec, ...] = ()
    #: Interval sampling (see repro.serve.arrivals.SampleGrid): every
    #: source stream skips arrivals outside simulated windows, and
    #: nodes record only post-warmup arrivals — million-arrival
    #: diurnal traces complete in CI-scale wall time.
    sample_window_s: float | None = None
    sample_period: int = 1
    sample_warmup: float = 0.5
    #: Mix-shift instant for ``mix="shift"`` (None = mid-run).
    shift_at_s: float | None = None
    #: Planner knobs (``policy="planned"`` only; see
    #: :class:`repro.planner.PlannerConfig` and docs/PLANNING.md).
    plan_interval_s: float = 2.0
    plan_horizon_s: float = 4.0
    plan_downtime_s: float = 0.25
    plan_forecaster: str = "seasonal"
    #: Seasonal period for the forecaster (None = the run duration,
    #: i.e. a model trained on one prior "day" of the same scenario).
    plan_period_s: float | None = None
    #: Hysteresis: a candidate blueprint must beat the incumbent's
    #: score by this relative margin to trigger a transition.
    plan_margin: float = 0.1
    #: Blueprint search strategy: ``enum`` scores the bounded family,
    #: ``beam`` runs the seeded beam search on top of it
    #: (:mod:`repro.planner.search`).
    plan_search: str = "enum"
    plan_beam_width: int = 16
    plan_search_steps: int = 4
    plan_search_candidates: int = 2000
    #: Pre-training windows — ``((class, count), ...)`` per window, the
    #: output of :func:`repro.planner.training_from_report`.
    plan_training: tuple[tuple[tuple[str, int], ...], ...] = ()
    #: Adversarial tenants and contention defense (see
    #: :mod:`repro.defense` and docs/DEFENSE.md).  ``attacks`` holds
    #: :class:`~repro.defense.attacks.AttackSpec` schedules;
    #: ``defense`` picks the response — ``off`` (no monitoring),
    #: ``jail`` (CAT jail masks on conviction), or ``evict`` (jail
    #: plus sacrificial-node routing).
    attacks: tuple[AttackSpec, ...] = ()
    defense: str = "off"
    defense_interval_s: float = 1.0
    defense_convict_windows: int = 2
    defense_release_windows: int = 3
    defense_bandwidth_share: float = 0.50
    defense_occupancy_share: float = 0.85
    defense_duty_threshold: float = 2.0

    def __post_init__(self) -> None:
        check_finite(self, ClusterError)
        if self.nodes <= 0:
            raise ClusterError(f"nodes must be >= 1: {self.nodes}")
        if self.router not in ROUTERS:
            raise ClusterError(
                f"router must be one of {ROUTERS}: {self.router!r}"
            )
        if self.profile not in CLUSTER_PROFILES:
            raise ClusterError(
                "cluster profile must be one of "
                f"{CLUSTER_PROFILES}: {self.profile!r}"
            )
        if self.policy not in CLUSTER_POLICIES:
            raise ClusterError(
                "policy must be one of "
                f"{CLUSTER_POLICIES}: {self.policy!r}"
            )
        if self.mix not in CLUSTER_MIXES:
            raise ClusterError(
                f"cluster mix must be one of {CLUSTER_MIXES}: "
                f"{self.mix!r}"
            )
        if self.tenants_per_group <= 0:
            raise ClusterError(
                "tenants_per_group must be >= 1: "
                f"{self.tenants_per_group}"
            )
        # The planned policy and the planned router imply each other:
        # the planner assumes blueprint routing, and blueprint routing
        # without a planner would never receive a placement.
        if (self.policy == "planned") != (self.router == "planned"):
            raise ClusterError(
                "policy 'planned' and router 'planned' go together: "
                f"got policy={self.policy!r}, router={self.router!r}"
            )
        if self.policy == "planned":
            # Delegate the planner-knob checks (intervals, forecaster
            # name, training-window shape) to the planner config; the
            # caller sees one error family for one config object.
            try:
                self.planner_config()
            except PlannerError as error:
                raise ClusterError(str(error)) from error
        validate_schedule(tuple(self.faults), self.nodes)
        # Delegate the defense-knob checks to the defense config (one
        # error family for one config object, like the planner's).
        try:
            validate_attacks(tuple(self.attacks))
            self.defense_config()
        except DefenseError as error:
            raise ClusterError(str(error)) from error
        for attack in self.attacks:
            if attack.start_s >= self.duration_s:
                raise ClusterError(
                    f"attack {attack.profile!r} starts at "
                    f"{attack.start_s}s, at or beyond the "
                    f"{self.duration_s}s horizon — it would never "
                    "fire"
                )
        # Delegate the shared scalar checks to the node config (one
        # error family for one config object).
        try:
            self.node_config(0)
        except ServeError as error:
            raise ClusterError(str(error)) from error

    def planner_config(self) -> PlannerConfig:
        """The embedded planner configuration (``planned`` policy)."""
        period = (
            self.plan_period_s if self.plan_period_s is not None
            else self.duration_s
        )
        return PlannerConfig(
            interval_s=self.plan_interval_s,
            horizon_s=self.plan_horizon_s,
            downtime_s=self.plan_downtime_s,
            forecaster=self.plan_forecaster,
            period_s=period,
            window_s=ARRIVAL_WINDOW_S,
            margin=self.plan_margin,
            search=self.plan_search,
            beam_width=self.plan_beam_width,
            search_steps=self.plan_search_steps,
            search_candidates=self.plan_search_candidates,
            # The search's subsampling draws from the run seed: the
            # beam stays inside the fleet's determinism domain.
            search_seed=self.seed,
            # Passed through as given (JSON lists become tuples):
            # PlannerConfig is the one place that checks the counts.
            training=_as_tuples(self.plan_training),
        )

    def defense_config(self) -> DefenseConfig:
        """The embedded defense configuration."""
        return DefenseConfig(
            mode=self.defense,
            interval_s=self.defense_interval_s,
            convict_windows=self.defense_convict_windows,
            release_windows=self.defense_release_windows,
            bandwidth_share=self.defense_bandwidth_share,
            occupancy_share=self.defense_occupancy_share,
            duty_threshold=self.defense_duty_threshold,
        )

    def node_config(self, index: int) -> ServiceConfig:
        """The embedded per-node service configuration.

        The node seed derives from (cluster seed, node index) alone —
        ``seeding.derive_from(seed, "node/<i>")`` — which is what makes
        a node's traffic independent of the fleet size.
        """
        return ServiceConfig(**{
            **{f.name: getattr(self, f.name) for f in fields(ServiceConfig)},
            # Planned nodes boot with the statically programmed scheme;
            # the fleet planner re-programs it from blueprints.
            "policy": "static" if self.policy == "planned" else self.policy,
            "seed": seeding.derive_from(self.seed, f"node/{index}"),
        })

    def sample_grid(self) -> SampleGrid | None:
        """The fleet-wide interval-sampling grid (None = unsampled)."""
        return self.node_config(0).sample_grid()

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterConfig":
        """The inverse of :meth:`to_dict`, nested fault and attack
        specs and training windows included."""
        return config_from_dict(cls, payload, ClusterError)


def _as_tuples(value):
    """``value`` with every (nested) list turned into a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(_as_tuples(item) for item in value)
    return value


@dataclass
class ClusterReport:
    """Deterministic summary of one fleet run."""

    config: ClusterConfig
    generated: int
    completed: int
    forwarded: int
    failovers: int
    shed_admission: int
    shed_failure: int
    shed_no_node: int
    fleet_slo: tuple
    aggregate: dict
    node_stats: tuple
    node_reports: tuple
    router: dict
    faults: tuple
    #: How the run executed: ``{"epochs": int, "warnings": [...]}``.
    #: Pure function of the config (the warning text names the
    #: requested jobs value only on the degraded stateful-router path,
    #: where cross-jobs byte-identity is not promised).
    execution: dict
    #: Fleet-level per-window offered-arrival counts (by class and
    #: tenant group) — what forecasters train on.
    arrival_windows: dict
    #: The planner's decision log (``{"enabled": false}`` unless the
    #: run used the ``planned`` policy).
    planner: dict
    #: The defense layer's outcome: scheduled attacks, ground-truth
    #: labels, convictions vs false positives, jail occupancy, and the
    #: serialized detector state (``"enabled": false`` when the run
    #: had no attacks and defense was off).
    defense: dict

    def to_dict(self) -> dict:
        return {
            "fleet_report_version": FLEET_REPORT_VERSION,
            "execution": self.execution,
            "arrival_windows": self.arrival_windows,
            "planner": self.planner,
            "defense": self.defense,
            "config": self.config.to_dict(),
            "generated": self.generated,
            "completed": self.completed,
            "forwarded": self.forwarded,
            "failovers": self.failovers,
            "shed_admission": self.shed_admission,
            "shed_failure": self.shed_failure,
            "shed_no_node": self.shed_no_node,
            "fleet_slo": [v.to_dict() for v in self.fleet_slo],
            "aggregate": self.aggregate,
            "nodes": [
                {**stats, "report": report.to_dict()}
                for stats, report in zip(
                    self.node_stats, self.node_reports
                )
            ],
            "router": self.router,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str | Path) -> Path:
        """Write the report as canonical JSON (byte-stable per seed)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    def fleet_verdict_for(self, tenant: str):
        for verdict in self.fleet_slo:
            if verdict.tenant == tenant:
                return verdict
        raise ClusterError(f"no fleet SLO verdict for {tenant!r}")

    @property
    def slo_ok(self) -> bool:
        return all(verdict.ok for verdict in self.fleet_slo)


@dataclass
class _Source:
    """One seeded arrival stream and its next pending arrival.

    Node ``i``'s front-end stream (lane 2) draws a tenant per arrival
    from ``tenant_rng``.  A scheduled hostile stream (lane 4) is one
    tenant ``key`` with its own Poisson process
    (``derive_from(seed, "attack/<i>")``) and a private horizon — the
    spec's stop instant clipped to the run end — so attack timing never
    perturbs any node's arrival stream.
    """

    process: object
    horizon_s: float
    grid: SampleGrid | None
    tenant_rng: np.random.Generator | None = None
    key: str | None = None
    pending: tuple | None = None
    generated: int = 0

    def pull(self, after_s: float) -> None:
        timestamp, cls = next_sampled_arrival(
            self.process, after_s, self.horizon_s, self.grid
        )
        self.pending = (
            (timestamp, cls) if timestamp < self.horizon_s else None
        )


class Cluster:
    """Runs one configured fleet simulation to completion."""

    def __init__(
        self,
        config: ClusterConfig,
        spec: SystemSpec | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.config = config
        self.spec = spec if spec is not None else SystemSpec()
        self.calibration = calibration
        self.router: Router = make_router(
            config.router, config.nodes, self.spec,
            virtual_nodes=config.virtual_nodes,
        )
        workers = self.spec.cores
        self.nodes: list[ClusterNode] = []
        shared_cuids: dict = {}
        shared_reports: dict = {}
        # Fleet-shared solve memo: one model solve per distinct
        # composition signature across the whole fleet (nodes run
        # identical specs, so results are shareable; see module doc).
        self.solve_memo: dict = {}
        for index in range(config.nodes):
            node = ClusterNode(
                index,
                config.node_config(index),
                spec=self.spec,
                calibration=calibration,
                solve_memo=self.solve_memo,
            )
            if node.controller is not None:
                node.controller.share_analysis_caches(
                    shared_cuids, shared_reports
                )
            self.nodes.append(node)
        grid = config.sample_grid()
        schedule = mix_schedule(
            config, cluster_olap_mix, cluster_oltp_mix, workers,
            calibration,
        )
        self._sources = [
            _Source(
                process=build_arrivals(
                    config.profile,
                    config.rate_per_s,
                    schedule,
                    seed=seeding.derive_from(
                        config.seed, f"node/{index}"
                    ),
                ),
                horizon_s=config.duration_s,
                grid=grid,
                tenant_rng=np.random.default_rng(
                    seeding.derive_from(
                        config.seed, f"node/{index}/tenants"
                    )
                ),
            )
            for index in range(config.nodes)
        ]
        self._fault_events = expand_schedule(config.faults)
        self._epochs = count_epochs(self._fault_events)
        self._fault_index = 0
        self._alive = set(range(config.nodes))
        self._alive_frozen = frozenset(self._alive)
        self._warnings: list[str] = []
        #: Per-node inputs on the epoch-parallel path (None: the
        #: delivery point applies each input at once).
        self._inboxes: list[list[tuple]] | None = None
        # Merged event heap: (time, lane, index, version) entries with
        # per-(lane, index) versions for lazy invalidation.
        self._frontier: list[tuple[float, int, int, int]] = []
        self._lane_versions: dict[tuple[int, int], int] = {}
        # Fleet totals.
        self.generated = 0
        self.forwarded = 0
        self.failovers = 0
        self.shed_no_node = 0
        self._ran = False
        # Fleet-level arrival windows (always recorded — they are the
        # report's forecaster-training block).
        self._windows = ArrivalWindows(config.duration_s)
        # Planner state (policy "planned" only).
        self.planner: FleetPlanner | None = None
        self._next_plan_tick: float | None = None
        #: tenant id -> blackout end: arrivals inside the window defer.
        self._blackout: dict[str, float] = {}
        #: Deferred-arrival heap:
        #: (inject_at, seq, original_ts, source, cls, key).
        self._deferred: list[tuple] = []
        self._deferred_seq = 0
        self.deferred_requests = 0
        if config.policy == "planned":
            scorer = BlueprintScorer(
                self.spec,
                calibration,
                classes=cluster_classes(workers, calibration),
                targets={
                    "olap": config.olap_p99_s,
                    "oltp": config.oltp_p99_s,
                },
                max_concurrency=config.max_concurrency,
                solve_memo=self.solve_memo,
            )
            self.planner = FleetPlanner(
                config.planner_config(),
                scorer,
                config.nodes,
                config.tenants_per_group,
            )
            self.router.install(self.planner.current.placement_map())
            # Same clamp as the in-run rescheduling: a first tick at or
            # beyond the run end never fires, so the planner lane is
            # idle for the whole run and the boot placement is frozen.
            self._next_plan_tick = (
                config.plan_interval_s
                if config.plan_interval_s < config.duration_s
                else None
            )
        # Defense layer (adversarial tenants + contention detector;
        # see repro.defense and docs/DEFENSE.md).
        self._attacks = validate_attacks(tuple(config.attacks))
        self._defense_config = config.defense_config()
        self._attack_streams: list[_Source] = []
        self.detector: ContentionDetector | None = None
        self._next_defense_tick: float | None = None
        #: The jail: the narrowest CAT mask that keeps hardware
        #: prefetching alive.  A sub-prefetch-width jail would defeat
        #: the convict's streaming and stretch its requests — the jail
        #: exists to protect the victims' ways, not to slow the
        #: attacker, and slower convict requests hold worker slots
        #: longer, hurting the very tenants the jail protects.
        self._jail_mask = contiguous_mask(
            max(self.spec.cat_min_bits, LatencyModel.min_prefetch_ways)
        )
        #: tenant group -> conviction instant of the open jail term.
        self._jail_open: dict[str, float] = {}
        #: tenant group -> total seconds spent jailed (closed terms).
        self.jail_seconds: dict[str, float] = {}
        #: Sacrificial node for ``evict`` quarantine: the last node —
        #: hash/least-loaded traffic is index-agnostic, so any fixed
        #: choice is equally deterministic.
        self._sacrificial_node = config.nodes - 1
        attack_catalog = (
            attack_classes(workers, calibration, self.spec)
            if self._attacks or self._defense_config.mode != "off"
            else {}
        )
        for index, attack in enumerate(self._attacks):
            cls = attack_catalog[attack.profile]
            self._attack_streams.append(_Source(
                process=PoissonArrivals(
                    attack.rate_per_s,
                    ((0.0, WorkloadMix(
                        name=f"attack_{attack.profile}",
                        classes=(cls,),
                        weights=(1.0,),
                    )),),
                    seed=seeding.derive_from(
                        config.seed, f"attack/{index}"
                    ),
                ),
                horizon_s=(
                    min(attack.stop_s, config.duration_s)
                    if attack.stop_s is not None
                    else config.duration_s
                ),
                grid=grid,
                key=tenant_id(attack.profile, index),
            ))
        #: tenant group -> class names, for jail installation.
        self._group_class_names: dict[str, tuple[str, ...]] = {}
        if self._defense_config.mode != "off":
            detector_classes = {
                cls.name: cls
                for cls in cluster_classes(
                    workers, calibration
                ).values()
            }
            for cls in attack_catalog.values():
                detector_classes[cls.name] = cls
            groups: dict[str, list[str]] = {}
            for name, cls in detector_classes.items():
                groups.setdefault(cls.tenant, []).append(name)
            self._group_class_names = {
                group: tuple(sorted(names))
                for group, names in groups.items()
            }
            self.detector = ContentionDetector(
                self.spec,
                self._defense_config,
                detector_classes,
                config.nodes,
                window_s=ARRIVAL_WINDOW_S,
                calibration=calibration,
                # The controllers' fleet-shared classification cache:
                # detector and controllers memoize the same pure
                # probes, so sharing changes cost, never results.
                shared_cuids=shared_cuids,
            )
            self._next_defense_tick = min(
                self._defense_config.interval_s, config.duration_s
            )
        #: The event lanes, declared once in tie-break order: per lane
        #: (candidate time, fire, index range), indexed by the lane
        #: number heap entries carry.  Lane 3's index 0 is the next
        #: plan tick, index 1 the next deferred-arrival injection.
        self._lanes = (
            (self._fault_time, self._process_fault, range(1)),
            (self._node_time, self._process_node_event,
             range(config.nodes)),
            (self._source_time, self._process_arrival,
             range(config.nodes)),
            (self._planner_time, self._process_planner, range(2)),
            (self._attack_time, self._process_attack_arrival,
             range(len(self._attack_streams))),
            (self._defense_time, self._process_defense_tick, range(1)),
        )

    # -- lanes ---------------------------------------------------------
    #
    # Each (lane, index) pair has at most one *current* heap entry — the
    # one whose version matches ``_lane_versions`` — so popping the heap
    # yields exactly the (time, lane, index) minimum of every lane's
    # candidate.  At equal times faults precede node events precede
    # arrivals precede planner actions precede attacks precede defense
    # ticks (so same-instant completions land in their window before
    # the detector reads it).  Candidate-time functions return None
    # when the lane is idle; fire functions take the lane index.

    def _fault_time(self, index: int) -> float | None:
        if self._fault_index < len(self._fault_events):
            return self._fault_events[self._fault_index].time_s
        return None

    def _node_time(self, index: int) -> float | None:
        node = self.nodes[index]
        return node.queue.peek_time() if node.queue else None

    def _source_time(self, index: int) -> float | None:
        pending = self._sources[index].pending
        return pending[0] if pending is not None else None

    def _planner_time(self, index: int) -> float | None:
        if index == 0:
            return self._next_plan_tick
        return self._deferred[0][0] if self._deferred else None

    def _attack_time(self, index: int) -> float | None:
        pending = self._attack_streams[index].pending
        return pending[0] if pending is not None else None

    def _defense_time(self, index: int) -> float | None:
        return self._next_defense_tick

    def _refresh_lane(self, lane: int, index: int) -> None:
        """Re-stage a lane's candidate after its state changed.

        Bumps the lane's version (invalidating any staged entry) and
        pushes the fresh candidate, if one exists.
        """
        key = (lane, index)
        version = self._lane_versions.get(key, 0) + 1
        self._lane_versions[key] = version
        time_s = self._lanes[lane][0](index)
        if time_s is not None:
            heapq.heappush(
                self._frontier, (time_s, lane, index, version)
            )

    def _pop_candidate(self) -> tuple | None:
        """The earliest (time, lane, index), discarding stale entries."""
        while self._frontier:
            time_s, lane, index, version = heapq.heappop(
                self._frontier
            )
            if self._lane_versions.get((lane, index)) != version:
                continue  # superseded by a later refresh
            return time_s, lane, index
        return None

    def _process_fault(self, index: int) -> None:
        event = self._fault_events[self._fault_index]
        self._fault_index += 1
        self._refresh_lane(0, 0)
        if event.recover:
            policy = None
            if self.planner is not None:
                # A restarted planned node re-applies its *blueprint*
                # scheme, not the static boot default.
                scheme = self.planner.current.schemes[event.node]
                policy = BLUEPRINT_SCHEMES[scheme].to_cuid_policy(
                    self.spec
                )
            self._deliver(
                event.node, event.time_s, 0, "recover", event.time_s,
                policy,
            )
            self._alive.add(event.node)
        else:
            self._deliver(
                event.node, event.time_s, 0, "fail", event.time_s
            )
            self._alive.discard(event.node)
        self._alive_frozen = frozenset(self._alive)

    def _deliver(
        self, index: int, time_s: float, lane: int, method: str, *args
    ) -> None:
        """The one point where an effect reaches node ``index``.

        ``method`` names the node call (``accept``, ``fail`` or
        ``recover``) and ``args`` its arguments.  Sequentially the call
        runs now and the node's lane is re-staged; on the
        epoch-parallel path the input joins the node's inbox, which a
        worker replays (:func:`repro.cluster.epoch.replay_inbox`).
        """
        if self._inboxes is not None:
            self._inboxes[index].append((time_s, lane, method, args))
            return
        getattr(self.nodes[index], method)(*args)
        self._refresh_lane(1, index)

    def _process_node_event(self, index: int) -> None:
        node = self.nodes[index]
        node.dispatch(node.queue.pop())
        self._refresh_lane(1, index)

    def _route_and_accept(
        self,
        lane: int,
        timestamp: float,
        index: int,
        cls,
        key: str,
        arrived_s: float | None = None,
    ) -> None:
        """Route one request and deliver it (or account the shed)."""
        metrics = runtime.metrics
        if metrics.enabled:
            # cluster.route_ns: aggregate time inside the routing
            # policy — the win from the precomputed hash tables shows
            # up here.  The clock reads are gated on observability so
            # the silent hot path stays two calls cheaper.
            route_started = perf_counter_ns()
            decision = self.router.dispatch_route(
                index, key, cls, self.nodes, self._alive_frozen
            )
            metrics.counter("cluster.route_ns").inc(
                perf_counter_ns() - route_started
            )
        else:
            decision = self.router.dispatch_route(
                index, key, cls, self.nodes, self._alive_frozen
            )
        metrics.counter("cluster.routed").inc()
        if decision.failover:
            self.failovers += 1
            metrics.counter("cluster.failover").inc()
        if decision.target is None:
            self.shed_no_node += 1
            metrics.counter("cluster.shed").inc()
        else:
            target = self.nodes[decision.target]
            target.routed_in += 1
            if decision.target != index:
                self.forwarded += 1
                target.forwarded_in += 1
            if decision.failover:
                target.failover_in += 1
            self._deliver(
                decision.target, timestamp, lane, "accept", timestamp,
                cls, arrived_s,
            )

    def _take(self, stream: _Source) -> tuple:
        """Count ``stream``'s pending arrival as offered (fleet and
        stream totals, arrival windows) and return it."""
        timestamp, cls = stream.pending
        self.generated += 1
        stream.generated += 1
        self._windows.add(timestamp, cls.name, cls.tenant)
        return timestamp, cls

    def _process_arrival(self, index: int) -> None:
        source = self._sources[index]
        timestamp, cls = self._take(source)
        tenant_index = int(
            source.tenant_rng.integers(self.config.tenants_per_group)
        )
        key = tenant_id(cls.tenant, tenant_index)
        until = self._blackout.get(key) if self._blackout else None
        if until is not None and timestamp < until:
            # The tenant is mid-migration: hold the request and inject
            # it when the blackout ends.  Latency is charged from
            # ``timestamp`` (the accept backdates arrival), so the wait
            # lands in the SLO verdicts.
            self._deferred_seq += 1
            heapq.heappush(self._deferred, (
                until, self._deferred_seq, timestamp, index, cls, key,
            ))
            self.deferred_requests += 1
            runtime.metrics.counter("planner.deferred").inc()
            self._refresh_lane(3, 1)
        else:
            if until is not None:
                del self._blackout[key]
            self._route_and_accept(2, timestamp, index, cls, key)
        source.pull(timestamp)
        self._refresh_lane(2, index)

    def _process_plan_tick(self) -> None:
        """One planner pass: forecast, score, maybe transition."""
        planner = self.planner
        now = self._next_plan_tick
        assert planner is not None and now is not None
        following = now + self.config.plan_interval_s
        self._next_plan_tick = (
            following if following < self.config.duration_s else None
        )
        self._refresh_lane(3, 0)
        decision, migration = planner.tick(now, self._windows.classes)
        if not decision.changed:
            return
        blueprint = planner.current
        self.router.install(blueprint.placement_map())
        for node_index, scheme_name in enumerate(blueprint.schemes):
            node = self.nodes[node_index]
            policy = BLUEPRINT_SCHEMES[
                scheme_name
            ].to_cuid_policy(self.spec)
            if not node.alive or node.cache_controller.policy == policy:
                continue
            # Same sequence as a controller reconfiguration: program
            # the masks, then re-associate everything running.
            node.cache_controller.enable(policy)
            node.remask(now)
            self._refresh_lane(1, node_index)
        if migration is not None and migration.downtime_s > 0:
            until = migration.blackout_until_s
            for move in migration.moves:
                self._blackout[move.tenant] = until

    def _process_planner(self, index: int) -> None:
        if index == 0:
            self._process_plan_tick()
        else:
            self._process_deferred()

    def _process_deferred(self) -> None:
        """Inject the earliest migration-deferred arrival."""
        inject_at, _, original_s, index, cls, key = heapq.heappop(
            self._deferred
        )
        self._refresh_lane(3, 1)
        self._route_and_accept(
            3, inject_at, index, cls, key, arrived_s=original_s
        )

    # -- defense -------------------------------------------------------

    def _process_attack_arrival(self, index: int) -> None:
        """Deliver one hostile arrival (lane 4).

        Attack traffic flows through the same routing, admission and
        window accounting as legitimate traffic — the fleet cannot
        tell them apart a priori, which is the point — but it ignores
        migration blackouts (an attacker does not respect maintenance
        windows).
        """
        stream = self._attack_streams[index]
        timestamp, cls = self._take(stream)
        runtime.metrics.counter("defense.attack.arrivals").inc()
        self._route_and_accept(
            4, timestamp, index % self.config.nodes, cls, stream.key
        )
        stream.pull(timestamp)
        self._refresh_lane(4, index)

    def _reassociate_group(
        self, group: str, now: float
    ) -> None:
        """Re-derive masks for running members of ``group`` fleet-wide.

        Nodes with no running member of the group are left untouched
        so their event streams don't shift.
        """
        names = self._group_class_names.get(group, ())
        for node in self.nodes:
            if not node.alive:
                continue
            if not any(
                request.cls.name in names
                for request in node.admission.running.values()
            ):
                continue
            node.remask(now)
            self._refresh_lane(1, node.index)

    def _apply_conviction(self, group: str, now: float) -> None:
        """Jail a convicted group (and pin it under ``evict``)."""
        self._jail_open[group] = now
        runtime.metrics.counter("defense.jailed").inc()
        for name in self._group_class_names.get(group, ()):
            for node in self.nodes:
                node.set_jail(name, self._jail_mask)
        for node in self.nodes:
            if node.alive:
                # The cell has no waiting room: backlog the group
                # parked while it still looked legitimate is shed,
                # not left to delay the victims.  Queued requests
                # hold no completion events, so no reflow is needed
                # for nodes with no running member.
                node.purge_jailed()
        if self._defense_config.mode == "evict":
            self.router.install_quarantine(
                group, self._sacrificial_node
            )
        self._reassociate_group(group, now)

    def _apply_release(self, group: str, now: float) -> None:
        """Lift a reformed group's jail (release-on-reform)."""
        runtime.metrics.counter("defense.released").inc()
        for name in self._group_class_names.get(group, ()):
            for node in self.nodes:
                node.clear_jail(name)
        if self._defense_config.mode == "evict":
            self.router.install_quarantine(group, None)
        opened = self._jail_open.pop(group, None)
        if opened is not None:
            self.jail_seconds[group] = (
                self.jail_seconds.get(group, 0.0) + (now - opened)
            )
        self._reassociate_group(group, now)

    def _process_defense_tick(self, index: int) -> None:
        """One detector pass over the fully-elapsed arrival windows."""
        detector = self.detector
        now = self._next_defense_tick
        assert detector is not None and now is not None
        duration = self.config.duration_s
        following = now + self._defense_config.interval_s
        if following <= duration:
            self._next_defense_tick = following
        elif now < duration:
            # One final clamped tick at the horizon so the last
            # windows are judged even when the interval overshoots.
            self._next_defense_tick = duration
        else:
            self._next_defense_tick = None
        self._refresh_lane(5, 0)
        for action in detector.tick(now, self._windows.classes):
            if action["action"] == "convict":
                self._apply_conviction(action["group"], now)
            else:
                self._apply_release(action["group"], now)

    # -- the loop ------------------------------------------------------

    def _sequential_reason(self, fleet_jobs: int) -> str | None:
        """Why this run stays on the sequential loop, or None.

        The first blocker wins: defense, then planner, then router.
        Attack streams and detector ticks interleave with node events
        and convictions mutate masks and routing mid-run; a planner
        that fires replans both on a timer.  Those two are recorded
        for any ``fleet_jobs`` value — pure functions of the config —
        so their reports stay byte-identical across values.  A
        stateful router reads live node state per decision, which only
        matters once a fan-out is requested; its warning names the
        request.
        """
        if self._attacks or self._defense_config.mode != "off":
            return (
                "attack streams and the contention detector "
                "interleave with node events; fleet execution is "
                "sequential for any fleet_jobs value"
            )
        if self._next_plan_tick is not None:
            return (
                "policy 'planned' replans routing and CAT state "
                "on a timer; fleet execution is sequential for "
                "any fleet_jobs value"
            )
        if (
            min(fleet_jobs, self.config.nodes) > 1
            and self.config.router not in PLANNABLE_ROUTERS
        ):
            return (
                f"fleet_jobs={fleet_jobs} requested but router "
                f"{self.config.router!r} reads live node state per "
                "decision; ran sequentially"
            )
        return None

    def run(self, fleet_jobs: int = 1) -> ClusterReport:
        """Run to completion (sources stop at the horizon, then drain).

        ``fleet_jobs > 1`` replays the nodes on worker processes when
        routing is epoch-plannable: the stateless ``hash`` router, or a
        ``planned`` fleet whose planner lane never fires (first tick at
        or beyond the run end — the boot placement stays frozen).  The
        report is byte-identical to the sequential loop for any value.
        Defended fleets, active planners and stateful routers run the
        sequential loop and record why (:meth:`_sequential_reason`) in
        the report's ``execution`` block.
        """
        if self._ran:
            raise ClusterError("a Cluster instance runs exactly once")
        if fleet_jobs < 1:
            raise ClusterError(
                f"fleet_jobs must be >= 1: {fleet_jobs}"
            )
        self._ran = True
        config = self.config
        jobs = min(fleet_jobs, config.nodes)
        reason = self._sequential_reason(fleet_jobs)
        if reason is not None:
            self._warnings.append(reason)
            if jobs > 1:
                runtime.metrics.counter(
                    "cluster.parallel.fallbacks"
                ).inc()
            jobs = 1
        with runtime.tracer.span(
            "cluster.run",
            nodes=config.nodes,
            router=config.router,
            policy=config.policy,
            fleet_jobs=jobs,
        ):
            runtime.metrics.counter("cluster.epoch.count").inc(
                self._epochs
            )
            if jobs > 1:
                self._inboxes = [[] for _ in self.nodes]
                with runtime.tracer.span("cluster.plan"):
                    self._run_lanes()
                self._replay_nodes(jobs)
            else:
                for node in self.nodes:
                    node.schedule_first_control()
                self._run_lanes()
        return self._assemble_report(
            tuple(node.report() for node in self.nodes)
        )

    def _run_lanes(self) -> None:
        """The merged-heap loop over every lane, until all are idle."""
        for source in self._sources:
            source.pull(0.0)
        for attack, stream in zip(self._attacks, self._attack_streams):
            stream.pull(attack.start_s)
        # Seed the merged heap with every lane's first candidate.
        for lane, (_, _, indices) in enumerate(self._lanes):
            for index in indices:
                self._refresh_lane(lane, index)
        # Bound locals: the loop body runs once per fleet event.
        pop_candidate = self._pop_candidate
        fires = tuple(fire for _, fire, _ in self._lanes)
        while (candidate := pop_candidate()) is not None:
            _, lane, index = candidate
            fires[lane](index)

    def _replay_nodes(self, jobs: int) -> None:
        """Replay every node's inbox on workers and adopt the nodes
        they hand back, ``jobs`` nodes per wave.

        Each wave's nodes leave with a snapshot of the fleet's solve
        memo, and their additions merge back after the wave, so later
        waves never re-solve a composition an earlier wave already paid
        for — the cross-node sharing the sequential loop gets for free.
        Sharing changes cost, never results: a node still counts its
        own ``rate_solves`` on a local cache miss.
        """
        nodes = self.config.nodes
        metrics = runtime.metrics
        metrics.counter("cluster.parallel.tasks").inc(nodes)
        observe = runtime.tracer.enabled or metrics.enabled
        run_seed = seeding.get_seed()
        # Inherit the ambient caching configuration (including a
        # configured simcache disk layer) so worker-side solves share
        # whatever storage the caller set up.
        ambient = parallel_executor.current()
        context_settings = {
            "cache_enabled": ambient.cache_enabled,
            "disk_dir": ambient.disk_dir,
            "capacity": ambient.capacity,
        }
        with parallel_executor.parallel_context(
            jobs=jobs, **context_settings
        ) as context:
            pool = context.pool()
            for start in range(0, nodes, jobs):
                wave = range(start, min(start + jobs, nodes))
                memo = dict(self.solve_memo)
                futures = []
                for index in wave:
                    self.nodes[index].solve_memo = memo
                    futures.append(pool.submit(replay_node_task, {
                        "node": self.nodes[index],
                        "inbox": self._inboxes[index],
                        "run_seed": run_seed,
                        "observe": observe,
                        "context": context_settings,
                    }))
                for index, future in zip(wave, futures):
                    payload = future.result()
                    runtime.merge_worker(payload)
                    node = payload["node"]
                    node.solve_memo = self.solve_memo
                    self.nodes[index] = node
                    additions = payload["memo_additions"]
                    self.solve_memo.update(additions)
                    metrics.counter(
                        "cluster.parallel.memo_merged"
                    ).inc(len(additions))
                metrics.counter("cluster.parallel.waves").inc()

    def _execution_block(self) -> dict:
        """The report's ``execution`` entry (path-independent)."""
        return {
            "epochs": self._epochs,
            "warnings": list(self._warnings),
        }

    def _assemble_report(
        self, node_reports: tuple
    ) -> ClusterReport:
        """The canonical fleet report from per-node reports plus the
        fleet state both execution paths leave on ``self``."""
        # The drain horizon: open outages and jail terms close here.
        horizon = max(
            self.config.duration_s,
            *(node.clock.now for node in self.nodes),
        )
        for node in self.nodes:
            node.close_downtime(horizon)
        fleet_slo = SloTracker((
            SloTarget("olap", p99_s=self.config.olap_p99_s),
            SloTarget("oltp", p99_s=self.config.oltp_p99_s),
        ))
        for node in self.nodes:
            fleet_slo.merge(node.slo)
        pooled = fleet_slo.pooled()
        aggregate = {
            "completed": pooled.total,
            "p50_s": pooled.quantile(0.50) if pooled.total else 0.0,
            "p95_s": pooled.quantile(0.95) if pooled.total else 0.0,
            "p99_s": pooled.quantile(0.99) if pooled.total else 0.0,
            "mean_s": round(pooled.mean_s, 9),
            "max_s": round(pooled.max_s, 9),
        }
        completed = sum(r.completed for r in node_reports)
        shed_admission = sum(
            node.admission.shed for node in self.nodes
        )
        shed_failure = sum(node.failure_shed for node in self.nodes)
        balance = (
            completed + shed_admission + shed_failure
            + self.shed_no_node
        )
        if balance != self.generated:
            raise ClusterError(
                "request conservation violated: generated="
                f"{self.generated} but completed+shed={balance}"
            )
        planner_block: dict = {"enabled": False}
        if self.planner is not None:
            planner_block = {
                "enabled": True,
                "deferred_requests": self.deferred_requests,
                **self.planner.stats(),
            }
        attack_arrivals: dict[str, int] = {}
        for attack, stream in zip(self._attacks, self._attack_streams):
            # An attack class's tenant group is its profile name.
            attack_arrivals[attack.profile] = (
                attack_arrivals.get(attack.profile, 0) + stream.generated
            )
        ground_truth = sorted(
            {attack.profile for attack in self._attacks}
        )
        defense_block: dict = {
            "enabled": self.detector is not None,
            "mode": self._defense_config.mode,
            "attacks": [
                attack.to_dict() for attack in self._attacks
            ],
            "attack_arrivals": dict(
                sorted(attack_arrivals.items())
            ),
            "ground_truth": ground_truth,
        }
        if self.detector is not None:
            jail_seconds = dict(self.jail_seconds)
            for group, opened in self._jail_open.items():
                jail_seconds[group] = (
                    jail_seconds.get(group, 0.0)
                    + (horizon - opened)
                )
            convicted_ever = sorted({
                conviction["group"]
                for conviction in self.detector.convictions
            })
            defense_block.update({
                "convictions": list(self.detector.convictions),
                "releases": list(self.detector.releases),
                "convicted_groups": list(
                    self.detector.convicted_groups
                ),
                "false_positives": [
                    group for group in convicted_ever
                    if group not in ground_truth
                ],
                "missed": [
                    group for group in ground_truth
                    if group not in convicted_ever
                ],
                "jail_seconds": {
                    group: round(seconds, 9)
                    for group, seconds in sorted(
                        jail_seconds.items()
                    )
                },
                "sacrificial_node": (
                    self._sacrificial_node
                    if self._defense_config.mode == "evict"
                    else None
                ),
                "detector": self.detector.to_dict(),
            })
        return ClusterReport(
            config=self.config,
            generated=self.generated,
            completed=completed,
            forwarded=self.forwarded,
            failovers=self.failovers,
            shed_admission=shed_admission,
            shed_failure=shed_failure,
            shed_no_node=self.shed_no_node,
            fleet_slo=fleet_slo.verdicts(),
            aggregate=aggregate,
            node_stats=tuple(
                {**node.stats(), "sourced": source.generated}
                for node, source in zip(self.nodes, self._sources)
            ),
            node_reports=node_reports,
            router=self.router.describe(),
            faults=tuple(
                sorted(
                    self.config.faults,
                    key=lambda f: (f.kill_at_s, f.node),
                )
            ),
            execution=self._execution_block(),
            arrival_windows=self._windows.to_dict(),
            planner=planner_block,
            defense=defense_block,
        )
