"""Epoch decomposition: the fleet timeline as parallel node slices.

Under the ``hash`` router a routing decision reads only the consistent
ring and the *alive set* — never a node's queue or clock — so a node's
event stream is a pure function of (cluster seed, node index, alive-set
timeline).  The alive-set timeline is itself static: fault times come
from the configuration, not from simulation state.  That makes the
whole fleet plan precomputable:

1. **split** the run into *epochs* at the distinct fault-event times
   (an arrival exactly on a boundary belongs to the post-fault epoch,
   matching the merged heap's ``fault < arrival`` lane order),
2. **pre-route** every arrival in a vectorized batch — per-source
   streams are enumerated exactly as the sequential loop would draw
   them, epoch membership comes from one ``searchsorted`` over the
   boundary array, and ring lookups run over the small interned
   tenant-key set once per (epoch, key) instead of once per arrival,
3. **simulate** each node's slice independently
   (:func:`simulate_node_task`, shipped to ``repro.parallel`` workers)
   with the same three-way tie-break the heap uses
   (fault < node event < arrival at equal times),
4. **splice** clocks, histograms and counters back into the canonical
   fleet report (:meth:`repro.cluster.fleet.Cluster.run` does the
   merge) — byte-identical to the sequential merged-heap loop.

Stateful routers (``least-loaded``, ``affinity``) read live queue
contents per decision, so their fleets cannot be planned ahead; they
stay on the sequential path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .. import seeding
from ..errors import ClusterError
from ..obs.runtime import observing
from ..parallel.executor import parallel_context
from ..serve.arrivals import ArrivalWindows
from .faults import FaultEvent
from .workload import tenant_id

_INF = float("inf")

#: Routers whose decisions read only (tenant key, alive set) — never
#: node state — so a fleet behind them can be planned ahead.
#: ``planned`` qualifies only while its placement is frozen.
PLANNABLE_ROUTERS = ("hash", "planned")


@dataclass(frozen=True)
class Epoch:
    """One topology-stable stretch of the run.

    ``start_s`` is the instant of the fault event(s) opening the epoch
    (0.0 for the initial epoch); ``alive`` is the live set *after*
    those events applied — the set every routing decision inside the
    epoch sees.
    """

    index: int
    start_s: float
    alive: frozenset[int]
    events: tuple[FaultEvent, ...] = ()


def split_epochs(
    events: tuple[FaultEvent, ...] | list[FaultEvent],
    nodes: int,
) -> tuple[Epoch, ...]:
    """Epochs from an expanded, time-ordered fault-event list.

    One boundary per *distinct* event time — simultaneous kills and
    recoveries (even on different nodes) open a single epoch, exactly
    as the sequential loop drains every lane-0 event at an instant
    before looking at arrivals.
    """
    alive = set(range(nodes))
    epochs = [Epoch(0, 0.0, frozenset(alive))]
    position = 0
    ordered = list(events)
    while position < len(ordered):
        time_s = ordered[position].time_s
        opening = []
        while (
            position < len(ordered)
            and ordered[position].time_s == time_s
        ):
            event = ordered[position]
            if event.recover:
                alive.add(event.node)
            else:
                alive.discard(event.node)
            opening.append(event)
            position += 1
        epochs.append(Epoch(
            len(epochs), time_s, frozenset(alive), tuple(opening)
        ))
    return tuple(epochs)


def epoch_index_for(epochs: tuple[Epoch, ...], time_s: float) -> int:
    """The epoch an arrival at ``time_s`` belongs to.

    Boundary arrivals land in the *post-fault* epoch: the merged heap
    orders lane 0 (faults) before lane 2 (arrivals) at equal times.
    """
    starts = [epoch.start_s for epoch in epochs]
    return bisect_right(starts, time_s) - 1


@dataclass
class FleetPlan:
    """Everything the parallel path precomputes.

    The routing-layer counters here are exactly what the sequential
    loop would have accumulated by the end of the run; the per-node
    arrival slices are each node's accepted traffic in the global
    ``(time, source)`` order the heap would have delivered it.
    """

    epochs: tuple[Epoch, ...]
    #: Per node: [(time_s, source, RequestClass), ...] time-ordered.
    node_arrivals: list[list[tuple]]
    #: Per node: [(time_s, recover), ...] time-ordered.
    node_faults: list[list[tuple[float, bool]]]
    generated: int
    forwarded: int
    failovers: int
    shed_no_node: int
    routed_in: list[int]
    forwarded_in: list[int]
    failover_in: list[int]
    sourced: list[int]
    #: Fleet-level per-window arrival counts (what the sequential loop
    #: accumulates).
    windows: ArrivalWindows


def plan_fleet(config, sources, fault_events, router) -> FleetPlan:
    """Pre-route an entire ``hash``-router fleet run.

    ``sources`` are the fleet's live :class:`~repro.cluster.fleet._Source`
    objects — enumeration advances them exactly as the sequential loop
    would (same arrival draws, same tenant draws, same sample-grid
    jumps), so the plan *consumes* them.

    Besides ``hash``, the ``planned`` router qualifies when its
    placement is frozen for the whole run (the caller's burden:
    ``Cluster.run`` only takes this path when the planner lane never
    fires) — routing is then a pure function of (tenant key, alive
    set), exactly like the ring.
    """
    if router.name not in PLANNABLE_ROUTERS:
        raise ClusterError(
            "epoch planning requires a state-free routing function "
            f"('hash', or 'planned' with a frozen placement): "
            f"{router.name!r} reads live node state per decision"
        )
    epochs = split_epochs(fault_events, config.nodes)

    times: list[float] = []
    source_ids: list[int] = []
    classes: list = []
    keys: list[str] = []
    key_codes: list[int] = []
    interned: dict[str, int] = {}
    sourced = [0] * config.nodes
    windows = ArrivalWindows(config.duration_s)
    for index, source in enumerate(sources):
        source.pull(0.0)
        tenant_rng = source.tenant_rng
        per_group = config.tenants_per_group
        while source.pending is not None:
            timestamp, cls = source.pending
            tenant_index = int(tenant_rng.integers(per_group))
            key = tenant_id(cls.tenant, tenant_index)
            code = interned.get(key)
            if code is None:
                code = interned[key] = len(interned)
                keys.append(key)
            times.append(timestamp)
            source_ids.append(index)
            classes.append(cls)
            key_codes.append(code)
            sourced[index] += 1
            source.generated += 1
            windows.add(timestamp, cls.name, cls.tenant)
            source.pull(timestamp)

    generated = len(times)
    starts = np.array(
        [epoch.start_s for epoch in epochs], dtype=np.float64
    )
    time_arr = np.asarray(times, dtype=np.float64)
    source_arr = np.asarray(source_ids, dtype=np.int64)
    epoch_arr = (
        np.searchsorted(starts, time_arr, side="right") - 1
        if generated
        else np.empty(0, dtype=np.int64)
    )
    # Global heap order for lane 2: (time, source index).
    order = (
        np.lexsort((source_arr, time_arr))
        if generated
        else np.empty(0, dtype=np.int64)
    )

    # One routing decision per (epoch, interned tenant key) — the ring
    # walk runs |epochs| * |tenants| times, not once per arrival.
    decisions = [
        [
            router.route(0, key, None, (), epoch.alive)
            for key in keys
        ]
        for epoch in epochs
    ]

    node_arrivals: list[list[tuple]] = [
        [] for _ in range(config.nodes)
    ]
    node_faults: list[list[tuple[float, bool]]] = [
        [] for _ in range(config.nodes)
    ]
    for event in fault_events:
        node_faults[event.node].append((event.time_s, event.recover))

    forwarded = 0
    failovers = 0
    shed_no_node = 0
    routed_in = [0] * config.nodes
    forwarded_in = [0] * config.nodes
    failover_in = [0] * config.nodes
    for position in order.tolist():
        decision = decisions[epoch_arr[position]][
            key_codes[position]
        ]
        target = decision.target
        if decision.failover:
            failovers += 1
        if target is None:
            shed_no_node += 1
            continue
        source_index = source_ids[position]
        routed_in[target] += 1
        if target != source_index:
            forwarded += 1
            forwarded_in[target] += 1
        if decision.failover:
            failover_in[target] += 1
        node_arrivals[target].append((
            times[position], source_index, classes[position]
        ))

    return FleetPlan(
        epochs=epochs,
        node_arrivals=node_arrivals,
        node_faults=node_faults,
        generated=generated,
        forwarded=forwarded,
        failovers=failovers,
        shed_no_node=shed_no_node,
        routed_in=routed_in,
        forwarded_in=forwarded_in,
        failover_in=failover_in,
        sourced=sourced,
        windows=windows,
    )


def simulate_node_task(payload: dict) -> dict:
    """Simulate one node's pre-routed slice in a worker process.

    The mini event loop reproduces the merged heap's view from this
    node's perspective: at equal times a fault beats a queue event
    beats an arrival — the heap's lane order restricted to the lanes
    that touch one node.  Returns a picklable payload the parent
    splices into the fleet report.
    """
    seeding.set_seed(payload["run_seed"])
    # Install a sequential context: a forked worker inherits the
    # parent's parallel context (broken pool handles included), and
    # nested pools are never created (see repro.parallel.executor).
    # Caching configuration (simcache disk layer included) passes
    # through, so worker-side solves share the caller's storage.
    context_kwargs = {
        "jobs": 1,
        "cache_enabled": payload.get("cache_enabled", True),
        "disk_dir": payload.get("disk_dir"),
    }
    if payload.get("capacity") is not None:
        context_kwargs["capacity"] = payload["capacity"]
    with parallel_context(**context_kwargs):
        if payload["observe"]:
            with observing() as (tracer, metrics):
                result = _simulate_node(payload)
            result["spans"] = tracer.to_dict()
            result["metrics"] = metrics
            return result
        result = _simulate_node(payload)
        result["spans"] = None
        result["metrics"] = None
        return result


def _simulate_node(payload: dict) -> dict:
    from .node import ClusterNode  # avoid cycle at import time

    config = payload["config"]
    index = payload["index"]
    node = ClusterNode(
        index,
        config.node_config(index),
        spec=payload["spec"],
        calibration=payload["calibration"],
        solve_memo=dict(payload["memo"]),
    )
    node.schedule_first_control()
    arrivals = payload["arrivals"]
    faults = payload["faults"]
    queue = node.queue
    dispatch = node.dispatch
    accept = node.accept
    fault_lost: list[int] = []
    fault_pos, arrival_pos = 0, 0
    fault_count, arrival_count = len(faults), len(arrivals)
    while True:
        next_fault = (
            faults[fault_pos][0] if fault_pos < fault_count else _INF
        )
        next_queue = queue.peek_time() if queue else _INF
        next_arrival = (
            arrivals[arrival_pos][0]
            if arrival_pos < arrival_count
            else _INF
        )
        if next_fault <= next_queue and next_fault <= next_arrival:
            if next_fault is _INF:
                break
            time_s, recover = faults[fault_pos]
            fault_pos += 1
            if recover:
                node.recover(time_s)
            else:
                fault_lost.append(node.fail(time_s))
        elif next_queue <= next_arrival:
            dispatch(queue.pop())
        else:
            time_s, _, cls = arrivals[arrival_pos]
            arrival_pos += 1
            accept(time_s, cls)
    prewarmed = payload["memo"].keys()
    return {
        "index": index,
        "report": node.report(),
        "slo": node.slo,
        "alive": node.alive,
        "failed_at": node._failed_at,
        "downtime_s": node.downtime_s,
        "kills": node.kills,
        "failure_shed": node.failure_shed,
        "shed_admission": node.admission.shed,
        "clock_now": node.clock.now,
        "fault_lost": fault_lost,
        "rate_solves": node.rate_solves,
        "rate_cache_hits": node.rate_cache_hits,
        "memo_additions": {
            signature: rates
            for signature, rates in node.solve_memo.items()
            if signature not in prewarmed
        },
        "rate_cache_entries": node.rate_cache.export(),
        "rate_cache_evictions": node.rate_cache.evictions,
    }
