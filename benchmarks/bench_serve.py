"""Benchmarks: the discrete-event query service.

Measures, on a fixed 12 req/s Poisson workload:

* **simulator throughput** — completed requests per second of wall
  time under ``--policy none`` (pure queueing, no controller), with a
  warm rate cache so the number reflects the event loop rather than
  first-touch model solves (best of ``TIMED_PASSES`` passes),
* **discovery cost** — one cold ``--policy adaptive`` run: first-touch
  classification probes and way sweeps for every class (recorded, not
  asserted — it is a once-per-deployment cost),
* **steady-state controller overhead** — the same workload re-run with
  the now-converged controller (class analyses cached, masks
  installed): wall-time ratio against the ``none`` baseline,

and asserts the two guard rails:

* the warm event loop sustains >= ``BASELINE_SLACK`` of the last
  recorded single-node requests/s,
* steady-state adaptive control costs <= 3x the uncontrolled run
  (per-class analyses are cached after discovery, so a control tick
  is a dictionary merge plus an occasional rate re-solve).

Every throughput gate counts completed requests, not DES events: the
event count is an implementation detail (a loop that schedules fewer
superseded completions pops fewer events for the same work), so a
rate per event would read an event-economy gain as a slowdown.

Fleet benches ride along: least-loaded scaling rows at N=1/2/4 (best
of ``TIMED_PASSES`` each) with anti-scaling and trajectory-baseline
gates, and hash-router
epoch-parallel rows at N=8/16 with a ``fleet_jobs=4`` speedup gate
(>= 2x sequential at N=8, asserted only on >= 4-CPU runners).

A determinism check runs the baseline config twice and requires
byte-identical reports before any timing is trusted.

Every passing test appends one record to ``BENCH_serve.json`` at the
repo root so the numbers form a trajectory across commits; a failing
test leaves it alone, so it cannot lower the next floor.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from datetime import datetime, timezone

from repro.cluster import Cluster, ClusterConfig
from repro.serve import QueryService, ServiceConfig

MAX_CONTROLLER_OVERHEAD = 3.0
TIMED_PASSES = 5

# Throughput guards, in completed requests per wall second: the warm
# single-node loop and the N=4 fleet must stay within 20% of the last
# recorded trajectory value, and consecutive fleet sizes must not lose
# more than 10% (the anti-scaling regression this catches dropped N=4
# to 0.81x of N=2).
MIN_SCALING_SLACK = 0.9
BASELINE_SLACK = 0.8
MAX_SAMPLED_SMOKE_WALL_S = 60.0

TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_serve.json"
)

BASE = dict(
    profile="poisson",
    mix="olap",
    duration_s=8.0,
    rate_per_s=12.0,
    seed=7,
)


def _timed_run(policy: str, rate_cache: dict, controller=None):
    config = ServiceConfig(policy=policy, **BASE)
    service = QueryService(
        config, rate_cache=rate_cache, controller=controller
    )
    started = time.perf_counter()
    report = service.run()
    return time.perf_counter() - started, report, service


def _history() -> list:
    if not TRAJECTORY.exists():
        return []
    try:
        return json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []


def _append_trajectory(record: dict) -> None:
    history = _history()
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )


def _last_single_node_record():
    """Most recent warm single-node record (it carries ``none_s``)."""
    for record in reversed(_history()):
        if "none_s" in record:
            return record
    return None


def test_serve_event_rate_and_controller_overhead():
    baseline = _last_single_node_record()
    rate_cache: dict = {}

    # Determinism gate: same config from a cold start -> same bytes
    # (each run gets a fresh cache; hit counters are part of the
    # report, so sharing one here would trivially differ).
    _, first, _ = _timed_run("none", {})
    _, second, _ = _timed_run("none", {})
    assert first.to_json() == second.to_json()

    # Warm the shared rate cache for the timed passes.
    _timed_run("none", rate_cache)

    # Event-loop throughput: warm cache, no controller, best pass.
    none_s, none_report, _ = min(
        (_timed_run("none", rate_cache) for _ in range(TIMED_PASSES)),
        key=lambda run: run[0],
    )

    # Discovery: cold controller pays per-class probes and sweeps
    # once; this also warms the adaptive-composition cache entries.
    discovery_s, cold_report, cold_service = _timed_run(
        "adaptive", rate_cache
    )

    # Steady state: the converged controller (cached analyses,
    # installed masks) re-drives the identical workload.  The
    # converged trajectory visits compositions the cold run never
    # formed (masks are installed from t=0), so one un-timed pass
    # populates those rate-cache entries first; the timed pass then
    # measures control-loop cost, not solver cost.
    _timed_run("adaptive", rate_cache, controller=cold_service.controller)
    adaptive_s, _, _ = _timed_run(
        "adaptive", rate_cache, controller=cold_service.controller
    )

    events = none_report.events["popped"]
    completed = none_report.completed
    completed_per_s = completed / none_s
    controller_overhead = adaptive_s / none_s

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {k: BASE[k] for k in sorted(BASE)},
        "events": events,
        "events_per_s": round(events / none_s, 1),
        "completed": completed,
        "completed_per_s": round(completed_per_s, 1),
        "none_s": round(none_s, 4),
        "discovery_s": round(discovery_s, 4),
        "adaptive_steady_s": round(adaptive_s, 4),
        "controller_overhead": round(controller_overhead, 2),
        "adaptive_reconfigurations": cold_report.controller[
            "reconfigurations"
        ],
        "rate_cache_entries": len(rate_cache),
    }
    print(f"bench_serve: {json.dumps(record)}")

    if baseline is not None:
        assert baseline["config"] == record["config"], (
            "the last single-node record ran a different config: "
            f"{baseline['config']} vs {record['config']}"
        )
        # Records before the request-rate gate lack ``completed``; the
        # count is a pure function of the (matching) config.
        recorded = baseline.get("completed", completed) / (
            baseline["none_s"]
        )
        floor = recorded * BASELINE_SLACK
        assert completed_per_s >= floor, (
            f"warm event loop: {completed_per_s:.0f} requests/s "
            f"({completed} in {none_s:.4f}s), below {floor:.0f} "
            f"({BASELINE_SLACK}x the last recorded {recorded:.0f})"
        )
    assert controller_overhead <= MAX_CONTROLLER_OVERHEAD, (
        f"steady-state adaptive control: {controller_overhead:.2f}x "
        f"the uncontrolled run ({adaptive_s:.3f}s vs {none_s:.3f}s), "
        f"need <= {MAX_CONTROLLER_OVERHEAD:.0f}x"
    )
    _append_trajectory(record)


CLUSTER_NODE_COUNTS = (1, 2, 4)

CLUSTER_BASE = dict(
    router="least-loaded",
    profile="poisson",
    policy="none",
    mix="olap",
    duration_s=6.0,
    rate_per_s=10.0,
    seed=7,
)


def _last_recorded_fleet_rate(nodes: int):
    """Most recent trajectory requests/s for a ``nodes``-node fleet."""
    for record in reversed(_history()):
        for row in record.get("cluster_scaling", ()):
            if row.get("nodes") == nodes:
                return row["completed"] / row["wall_s"]
    return None


def _timed_cluster(nodes: int):
    """Best of ``TIMED_PASSES`` fresh fleet runs; every pass must
    produce the same report bytes."""
    config = ClusterConfig(nodes=nodes, **CLUSTER_BASE)
    passes = []
    for _ in range(TIMED_PASSES):
        started = time.perf_counter()
        report = Cluster(config).run()
        passes.append((time.perf_counter() - started, report))
    reference = passes[0][1].to_json()
    for _, report in passes[1:]:
        assert report.to_json() == reference, (
            f"{nodes}-node fleet: a timed pass diverged from the first"
        )
    elapsed, report = min(passes, key=lambda run: run[0])
    # Fleet event count: arrivals routed by the fleet loop plus every
    # DES event popped inside the nodes (completions, controls, ...).
    events = report.generated + sum(
        r.events["popped"] for r in report.node_reports
    )
    return elapsed, events, report


def test_cluster_fleet_scaling():
    """Cluster scaling row: fleet requests/s at N=1, 2, 4 nodes.

    The offered rate is per source node, so total load (and the
    completed count) grows with N — the row tracks how fleet wall time
    scales with fleet size, not a fixed-work speedup.  Each row is the
    best of ``TIMED_PASSES`` runs.  Three gates:

    * determinism: every timed pass at each N must produce a
      byte-identical fleet report,
    * anti-scaling: completed requests/s must be monotone
      non-decreasing in N (within ``MIN_SCALING_SLACK`` timer noise) —
      a bigger fleet doing *more total work per wall second* is the
      whole point,
    * baseline: N=4 requests/s must stay within ``BASELINE_SLACK`` of
      the most recent rate recorded in the trajectory file.
    """
    baseline_n4 = _last_recorded_fleet_rate(CLUSTER_NODE_COUNTS[-1])

    scaling = []
    for nodes in CLUSTER_NODE_COUNTS:
        elapsed, events, report = _timed_cluster(nodes)
        scaling.append({
            "nodes": nodes,
            "events": events,
            "completed": report.completed,
            "wall_s": round(elapsed, 4),
            "events_per_s": round(events / elapsed, 1),
            "completed_per_s": round(report.completed / elapsed, 1),
        })

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {k: CLUSTER_BASE[k] for k in sorted(CLUSTER_BASE)},
        "cluster_scaling": scaling,
    }
    print(f"bench_serve cluster: {json.dumps(record)}")

    for row in scaling:
        assert row["completed"] > 0, row

    for prev, cur in zip(scaling, scaling[1:]):
        floor = prev["completed_per_s"] * MIN_SCALING_SLACK
        assert cur["completed_per_s"] >= floor, (
            f"fleet anti-scaling: {cur['nodes']} nodes ran at "
            f"{cur['completed_per_s']:.0f} requests/s, below "
            f"{floor:.0f} ({MIN_SCALING_SLACK}x the "
            f"{prev['nodes']}-node rate of "
            f"{prev['completed_per_s']:.0f})"
        )

    if baseline_n4 is not None:
        current = scaling[-1]["completed_per_s"]
        floor = baseline_n4 * BASELINE_SLACK
        assert current >= floor, (
            f"fleet baseline regression: {CLUSTER_NODE_COUNTS[-1]} "
            f"nodes ran at {current:.0f} requests/s, below "
            f"{floor:.0f} ({BASELINE_SLACK}x the last recorded "
            f"{baseline_n4:.0f})"
        )
    _append_trajectory(record)


# Epoch-parallel gates: with >= 4 CPUs, a 4-worker hash-router fleet
# at N=8 must run >= 2x faster than the sequential loop on the same
# config.  On smaller runners the speedup is recorded, not asserted
# (same self-gating as bench_parallel.py).
PARALLEL_FLEET_NODE_COUNTS = (8, 16)
PARALLEL_FLEET_JOBS = 4
MIN_PARALLEL_FLEET_SPEEDUP = 2.0
MIN_CPUS_FOR_FLEET_ASSERT = 4

HASH_FLEET_BASE = dict(
    router="hash",
    profile="poisson",
    policy="none",
    mix="olap",
    duration_s=6.0,
    rate_per_s=10.0,
    seed=7,
)


def _timed_hash_fleet(nodes: int, fleet_jobs: int):
    config = ClusterConfig(nodes=nodes, **HASH_FLEET_BASE)
    started = time.perf_counter()
    report = Cluster(config).run(fleet_jobs=fleet_jobs)
    elapsed = time.perf_counter() - started
    events = report.generated + sum(
        r.events["popped"] for r in report.node_reports
    )
    return elapsed, events, report


def test_cluster_epoch_parallel_scaling():
    """Hash-router scaling rows at N=8/16 plus the parallel gate.

    Byte-identity comes first: the ``fleet_jobs=4`` report must equal
    the sequential one exactly before any timing is trusted.  Then the
    N=8 run must hit ``MIN_PARALLEL_FLEET_SPEEDUP`` with 4 workers —
    asserted only when the runner has >= 4 CPUs; always recorded in
    the trajectory either way.
    """
    cpus = os.cpu_count() or 1

    scaling = []
    speedup_n8 = None
    for nodes in PARALLEL_FLEET_NODE_COUNTS:
        seq_s, events, seq_report = _timed_hash_fleet(nodes, 1)
        par_s, _, par_report = _timed_hash_fleet(
            nodes, PARALLEL_FLEET_JOBS
        )
        assert par_report.to_json() == seq_report.to_json(), (
            f"fleet_jobs={PARALLEL_FLEET_JOBS} diverged from the "
            f"sequential report at N={nodes}"
        )
        speedup = seq_s / par_s
        if nodes == 8:
            speedup_n8 = speedup
        scaling.append({
            "nodes": nodes,
            "events": events,
            "completed": seq_report.completed,
            "sequential_s": round(seq_s, 4),
            "parallel_s": round(par_s, 4),
            "sequential_events_per_s": round(events / seq_s, 1),
            "sequential_completed_per_s": round(
                seq_report.completed / seq_s, 1
            ),
            "parallel_speedup": round(speedup, 2),
        })

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {
            k: HASH_FLEET_BASE[k] for k in sorted(HASH_FLEET_BASE)
        },
        "cpu_count": cpus,
        "fleet_jobs": PARALLEL_FLEET_JOBS,
        "cluster_parallel": scaling,
    }
    print(f"bench_serve epoch-parallel: {json.dumps(record)}")

    for row in scaling:
        assert row["completed"] > 0, row

    if cpus >= MIN_CPUS_FOR_FLEET_ASSERT:
        assert speedup_n8 >= MIN_PARALLEL_FLEET_SPEEDUP, (
            f"epoch-parallel fleet: {speedup_n8:.2f}x vs sequential "
            f"at N=8 with {PARALLEL_FLEET_JOBS} workers, "
            f"need >= {MIN_PARALLEL_FLEET_SPEEDUP:.0f}x"
        )
    else:
        print(
            f"bench_serve: {cpus} CPU(s) < "
            f"{MIN_CPUS_FOR_FLEET_ASSERT} — recorded "
            f"{speedup_n8:.2f}x at N=8 with "
            f"{PARALLEL_FLEET_JOBS} workers without asserting the "
            f">= {MIN_PARALLEL_FLEET_SPEEDUP:.0f}x bound"
        )
    _append_trajectory(record)


# Planned-vs-reactive row: the ext-planner scenario (diurnal
# OLAP->OLTP shift) under the forecast-driven planner and the
# reactive adaptive controller.  Gate: planned never does worse than
# reactive on fleet OLAP p99 (and the reconfiguration counts are
# recorded alongside — the planner should pay far fewer transitions).
PLANNED_BASE = dict(
    nodes=4,
    profile="diurnal",
    mix="shift",
    duration_s=6.0,
    rate_per_s=16.0,
    seed=0xA11CE,
)


def test_cluster_planned_vs_reactive():
    from repro.planner import training_from_report

    training_report = Cluster(ClusterConfig(
        router="hash", policy="none", **PLANNED_BASE
    )).run()
    training = training_from_report(training_report.to_dict())

    started = time.perf_counter()
    planned = Cluster(ClusterConfig(
        router="planned", policy="planned", plan_training=training,
        **PLANNED_BASE
    )).run()
    planned_s = time.perf_counter() - started

    started = time.perf_counter()
    reactive = Cluster(ClusterConfig(
        router="hash", policy="adaptive", **PLANNED_BASE
    )).run()
    reactive_s = time.perf_counter() - started

    planned_p99 = planned.fleet_verdict_for("olap").p99_s
    reactive_p99 = reactive.fleet_verdict_for("olap").p99_s
    planned_reconfigs = planned.planner["reconfigurations"]
    reactive_reconfigs = sum(
        r.controller.get("reconfigurations", 0)
        for r in reactive.node_reports
    )

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {k: PLANNED_BASE[k] for k in sorted(PLANNED_BASE)},
        "planned_vs_reactive": {
            "planned_p99_olap_s": round(planned_p99, 4),
            "reactive_p99_olap_s": round(reactive_p99, 4),
            "planned_reconfigurations": planned_reconfigs,
            "reactive_reconfigurations": reactive_reconfigs,
            "planned_wall_s": round(planned_s, 4),
            "reactive_wall_s": round(reactive_s, 4),
        },
    }
    print(f"bench_serve planned: {json.dumps(record)}")

    assert planned.completed > 0 and reactive.completed > 0
    assert planned_p99 <= reactive_p99, (
        f"planned fleet OLAP p99 regressed past reactive: "
        f"{planned_p99:.3f}s vs {reactive_p99:.3f}s"
    )
    _append_trajectory(record)


SAMPLED_SMOKE = dict(
    profile="poisson",
    policy="none",
    mix="olap",
    duration_s=500.0,
    rate_per_s=2000.0,
    seed=7,
    sample_window_s=1.0,
    sample_period=10,
    sample_warmup=0.5,
)


def test_serve_sampled_trace_smoke():
    """Million-arrival smoke: interval sampling at scale.

    A nominal 10^6-arrival trace (2000 req/s for 500 s) runs with a
    1-in-10 window sampling plan, so the service only simulates ~10%
    of the offered load while the skipped windows are jumped in O(1).
    The gates are tractability (bounded wall time) and that sampling
    actually thinned the trace; the absolute rate is recorded in the
    trajectory, not asserted.
    """
    nominal = int(
        SAMPLED_SMOKE["duration_s"] * SAMPLED_SMOKE["rate_per_s"]
    )
    config = ServiceConfig(**SAMPLED_SMOKE)
    started = time.perf_counter()
    report = QueryService(config).run()
    elapsed = time.perf_counter() - started
    events = report.events["popped"]

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {k: SAMPLED_SMOKE[k] for k in sorted(SAMPLED_SMOKE)},
        "nominal_arrivals": nominal,
        "arrived": report.arrived,
        "completed": report.completed,
        "events": events,
        "wall_s": round(elapsed, 4),
        "events_per_s": round(events / elapsed, 1),
        "completed_per_s": round(report.completed / elapsed, 1),
    }
    print(f"bench_serve sampled: {json.dumps(record)}")

    assert report.arrived > 0
    assert report.arrived < nominal * 0.2, (
        f"sampling did not thin the trace: {report.arrived} arrivals "
        f"simulated out of a nominal {nominal}"
    )
    assert elapsed <= MAX_SAMPLED_SMOKE_WALL_S, (
        f"sampled trace smoke took {elapsed:.1f}s, "
        f"need <= {MAX_SAMPLED_SMOKE_WALL_S:.0f}s"
    )
    _append_trajectory(record)
