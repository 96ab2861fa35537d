"""Benchmarks: batched blueprint scoring and the beam-search tick.

Measures the planner's scoring hot path on a 64-candidate population
(the bounded enumerated family at 4 nodes padded with its search
neighborhood — the same shapes a beam round scores):

* warm ``score_many`` — one call over the whole population with every
  composition already solved, reported per candidate,
* the beam tick — ``FleetPlanner.tick`` with ``search="beam"``, cold
  (first tick, solves included) and warm (second tick, caches hot).

Assertions:

* two fresh beam planners produce identical decision payloads
  (the search determinism guarantee, exercised end to end),
* the beam tick scores >= 1000 candidates,
* warm ``score_many`` time per candidate and the warm beam tick stay
  at >= ``BASELINE_SLACK`` of the speed in the last record that
  carries both (the first record with them gates nothing).

Every passing run appends one record to ``BENCH_planner.json`` at the
repo root so the timings form a trajectory across commits; a failing
run leaves it alone, so it cannot lower the next floor.
"""

from __future__ import annotations

import json
import pathlib
import time
from datetime import datetime, timezone

from repro.cluster.workload import cluster_classes
from repro.config import DEFAULT_SYSTEM
from repro.planner import (
    BlueprintScorer,
    FleetPlanner,
    PlannerConfig,
    enumerate_blueprints,
    neighborhood,
)

#: A run may be at most 1/0.8 = 1.25x slower than the last record.
BASELINE_SLACK = 0.8
MIN_BEAM_CANDIDATES = 1000
POPULATION_SIZE = 64
NODES = 4
TENANTS_PER_GROUP = 4
REPS = 9

GROUPS = ("batch", "olap", "oltp")

#: Batch-leaning seasonality so the forecast is non-trivial; the tick
#: consumes no live windows, so tick 1 (cold) and tick 2 (warm) score
#: the exact same rates.
TRAINING = tuple(
    (("agg", 2), ("join", 2), ("oltp", 4), ("scan", 4))
    for _ in range(8)
)

TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_planner.json"
)


def _scorer() -> BlueprintScorer:
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    return BlueprintScorer(
        DEFAULT_SYSTEM,
        classes=classes,
        targets={"olap": 1.2, "oltp": 0.6},
        max_concurrency=8,
        solve_memo={},
    )


def _rates() -> dict:
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    by_tenant: dict = {}
    for name, cls in classes.items():
        by_tenant.setdefault(cls.tenant, []).append(name)
    rates = {}
    for tenant, total in (
        ("batch", 12.0), ("olap", 20.0), ("oltp", 30.0)
    ):
        for name in by_tenant[tenant]:
            rates[name] = total / len(by_tenant[tenant])
    return rates


def _population() -> list:
    """The enumerated family padded to 64 via its own neighborhood."""
    family = enumerate_blueprints(NODES, GROUPS)
    pool = {bp.key(): bp for bp in family}
    for origin in family:
        for move in neighborhood(origin):
            pool.setdefault(move.key(), move)
    population = [pool[key] for key in sorted(pool)]
    assert len(population) >= POPULATION_SIZE
    return population[:POPULATION_SIZE]


def _planner() -> FleetPlanner:
    return FleetPlanner(
        PlannerConfig(search="beam", training=TRAINING),
        _scorer(),
        nodes=NODES,
        tenants_per_group=TENANTS_PER_GROUP,
    )


def _best_of(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _history() -> list:
    if not TRAJECTORY.exists():
        return []
    try:
        return json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []


def _last_gated_record():
    """Most recent record carrying both gated timings."""
    for record in reversed(_history()):
        if "score_many_us_per_candidate" in record:
            return record
    return None


def _append_trajectory(record: dict) -> None:
    history = _history()
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )


def test_batched_scoring_and_beam_tick_speedups():
    baseline = _last_gated_record()
    rates = _rates()
    population = _population()
    scorer = _scorer()

    # Determinism before speed: two fresh beam planners make the
    # same decisions (same forecast, same seed, same subsampling).
    first, second = _planner(), _planner()
    first.tick(2.0, [])
    second.tick(2.0, [])
    assert [d.to_dict() for d in first.decisions] == [
        d.to_dict() for d in second.decisions
    ]

    # Warm the scorer, then time (solves are memoized; the
    # steady-state tick is what the fleet pays every interval).
    for _ in range(3):
        scorer.score_many(population, rates)
    batch_s = _best_of(lambda: scorer.score_many(population, rates))
    per_candidate_us = batch_s * 1e6 / len(population)

    # The beam tick, cold and warm, through the real planner.
    planner = _planner()
    cold_tick_s = _best_of(lambda: planner.tick(2.0, []), reps=1)
    tick_candidates = planner.search_totals["candidates_scored"]
    warm_tick_s = _best_of(lambda: planner.tick(4.0, []), reps=5)

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "population": len(population),
        "enum_family": len(enumerate_blueprints(NODES, GROUPS)),
        "score_many_us_per_candidate": round(per_candidate_us, 3),
        "beam_tick_cold_ms": round(cold_tick_s * 1e3, 3),
        "beam_tick_warm_ms": round(warm_tick_s * 1e3, 3),
        "beam_candidates_per_tick": tick_candidates,
    }
    print(f"bench_planner: {json.dumps(record)}")

    assert tick_candidates >= MIN_BEAM_CANDIDATES, (
        f"beam tick scored {tick_candidates} candidates, need >= "
        f"{MIN_BEAM_CANDIDATES}"
    )
    if baseline is None:
        print("bench_planner: first record with gated fields, no gate")
    else:
        for field, current in (
            ("score_many_us_per_candidate", per_candidate_us),
            ("beam_tick_warm_ms", warm_tick_s * 1e3),
        ):
            ceiling = baseline[field] / BASELINE_SLACK
            assert current <= ceiling, (
                f"{field}: {current:.3f} exceeds {ceiling:.3f} "
                f"({BASELINE_SLACK}x the speed of the last recorded "
                f"{baseline[field]:.3f})"
            )
    _append_trajectory(record)
