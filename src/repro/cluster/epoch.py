"""Epoch-parallel fleet execution: node inboxes replayed on workers.

Under the ``hash`` router a routing decision reads only the consistent
ring and the *alive set* — never a node's queue or clock — and the
alive-set timeline comes from the fault schedule, not from simulation
state.  A node's event stream is then a pure function of the inputs
the fleet delivers to it.  ``Cluster.run(fleet_jobs=N)`` uses that in
two steps:

1. **plan** — the parent runs the fleet's one lane loop
   (:class:`~repro.cluster.fleet.Cluster`) with its nodes idle.  Every
   effect that reaches a node — an accepted arrival, a kill, a
   recovery — passes the fleet's one delivery point, which appends
   ``(time, lane, method, args)`` to that node's *inbox* instead of
   applying it.  Arrival draws, routing, arrival windows and the
   fleet's counters and metrics run through the same code as on the
   sequential path.
2. **replay** — :func:`replay_node_task` runs on a ``repro.parallel``
   worker.  It replays one node's inbox against the node's own event
   queue with the merged heap's tie-break (fault < node event <
   arrival at equal times) and hands the finished node back; the
   parent adopts it in place of its idle copy.

*Epochs* are the topology-stable stretches between distinct fault
instants; the report's ``execution.epochs`` counts them
(:func:`count_epochs`).

Stateful routers (``least-loaded``, ``affinity``) read live queue
contents per decision, so their fleets cannot be planned ahead; they
stay on the sequential path.
"""

from __future__ import annotations

from itertools import islice

from .. import seeding
from ..obs.runtime import observing
from ..parallel.executor import parallel_context
from .faults import FaultEvent

#: Routers whose decisions read only (tenant key, alive set) — never
#: node state — so a fleet behind them can be planned ahead.
#: ``planned`` qualifies only while its placement is frozen.
PLANNABLE_ROUTERS = ("hash", "planned")

#: The lane number of node events in the fleet's merged heap.
_NODE_LANE = 1


def count_epochs(events: tuple[FaultEvent, ...] | list[FaultEvent]) -> int:
    """Topology-stable stretches of a run: one per distinct fault-event
    instant, plus the initial one.

    Simultaneous kills and recoveries (even on different nodes) open a
    single epoch, exactly as the sequential loop drains every lane-0
    event at an instant before looking at arrivals.
    """
    return len({event.time_s for event in events}) + 1


def replay_inbox(node, inbox: list[tuple]) -> None:
    """Run ``node`` to completion on the inputs delivered to it.

    ``inbox`` holds ``(time_s, lane, method, args)`` in the merged
    heap's order.  Before each input the node dispatches every queued
    event the heap would have popped first: an earlier one, or one at
    the same instant when the input's lane follows the node-event lane.
    """
    node.schedule_first_control()
    queue = node.queue
    dispatch = node.dispatch
    for time_s, lane, method, args in inbox:
        while queue and (queue.peek_time(), _NODE_LANE) < (time_s, lane):
            dispatch(queue.pop())
        getattr(node, method)(*args)
    while queue:
        dispatch(queue.pop())


def replay_node_task(payload: dict) -> dict:
    """Replay one node's inbox in a worker process.

    ``payload["node"]`` arrives idle, its solve memo pre-warmed with
    the fleet's.  Returns the finished node, the memo entries it added
    (in insertion order), and the worker's span tree and metrics
    snapshot (None unless ``payload["observe"]``).  The node goes back
    without its memo: the parent points it at the fleet memo again.
    """
    seeding.set_seed(payload["run_seed"])
    node = payload["node"]
    prewarmed = len(node.solve_memo)
    spans = metrics = None
    # A sequential context: a forked worker inherits the parent's
    # parallel context (broken pool handles included), and nested
    # pools are never created (see repro.parallel.executor).  The
    # simcache disk layer passes through, so worker-side solves share
    # the caller's storage.
    with parallel_context(jobs=1, disk_dir=payload["disk_dir"]):
        if payload["observe"]:
            with observing() as (tracer, registry):
                replay_inbox(node, payload["inbox"])
            spans, metrics = tracer.to_dict(), registry.snapshot()
        else:
            replay_inbox(node, payload["inbox"])
    # The memo only grows, so the additions are its tail.
    additions = dict(islice(node.solve_memo.items(), prewarmed, None))
    node.solve_memo = None
    return {
        "node": node,
        "memo_additions": additions,
        "spans": spans,
        "metrics": metrics,
    }
