"""Benchmarks: the contention defense layer.

Measures the fleet under an LLC-thrashing adversary (the ext-defense
scenario: 4 hash-routed nodes, OLAP mix at 10 req/s per node, one
thrasher from t=1s at 20 req/s) and asserts the two defense gates:

* **victim protection** — with ``--defense jail`` the victims' fleet
  OLAP p99 must come in at or under ``MAX_DEFENDED_P99_RATIO`` of the
  undefended run's,
* **defense-off overhead** — a fleet with no attacks and the defense
  layer off (best of ``TIMED_PASSES`` runs, each with byte-identical
  reports) must sustain at least ``MIN_OFF_RATE_RATIO`` of the most
  recent 4-node completed requests/s recorded in ``BENCH_serve.json``
  (skipped when no trajectory exists): carrying the defense code paths
  may not tax undefended runs.  The rate counts requests, not DES
  events, so a loop that pops fewer events for the same work does not
  read as a slowdown.

A determinism check runs the defended config twice and requires
byte-identical reports before any number is trusted.

Every passing run appends one record to ``BENCH_defense.json`` at the
repo root so the numbers form a trajectory across commits; a failing
run leaves it alone.
"""

from __future__ import annotations

import json
import pathlib
import time
from datetime import datetime, timezone

from repro.cluster import Cluster, ClusterConfig
from repro.defense import AttackSpec

MAX_DEFENDED_P99_RATIO = 0.5
MIN_OFF_RATE_RATIO = 0.95
TIMED_PASSES = 5

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_defense.json"
SERVE_TRAJECTORY = ROOT / "BENCH_serve.json"

# The ext-defense operating point.
DEFENSE_BASE = dict(
    nodes=4,
    router="hash",
    profile="poisson",
    policy="none",
    mix="olap",
    duration_s=10.0,
    rate_per_s=10.0,
    seed=0xDEF0,
    attacks=(
        AttackSpec(profile="thrash", start_s=1.0, rate_per_s=20.0),
    ),
)

# The undefended baseline config bench_serve.py records at N=4 —
# identical knobs, so the requests/s comparison isolates the defense
# layer's overhead on runs that never touch it.
OFF_BASE = dict(
    router="least-loaded",
    profile="poisson",
    policy="none",
    mix="olap",
    duration_s=6.0,
    rate_per_s=10.0,
    seed=7,
)


def _append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY.exists():
        try:
            history = json.loads(
                TRAJECTORY.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            history = []
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )


def _last_serve_fleet_rate(nodes: int):
    """Most recent bench_serve requests/s for a ``nodes``-node fleet."""
    if not SERVE_TRAJECTORY.exists():
        return None
    try:
        history = json.loads(
            SERVE_TRAJECTORY.read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    for record in reversed(history):
        for row in record.get("cluster_scaling", ()):
            if row.get("nodes") == nodes:
                return row["completed"] / row["wall_s"]
    return None


def _run_defended(defense: str):
    config = ClusterConfig(defense=defense, **DEFENSE_BASE)
    return Cluster(config).run()


def test_defense_protects_victims():
    """Victim-protection gate at the ext-defense operating point."""
    first = _run_defended("jail")
    second = _run_defended("jail")
    assert first.to_json() == second.to_json()

    off = _run_defended("off")
    jail = first

    off_p99 = off.fleet_verdict_for("olap").p99_s
    jail_p99 = jail.fleet_verdict_for("olap").p99_s
    ratio = jail_p99 / off_p99
    defense = jail.defense

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {
            k: DEFENSE_BASE[k]
            for k in sorted(DEFENSE_BASE) if k != "attacks"
        },
        "attacks": [a.to_dict() for a in DEFENSE_BASE["attacks"]],
        "off_p99_olap_s": round(off_p99, 4),
        "jail_p99_olap_s": round(jail_p99, 4),
        "p99_ratio": round(ratio, 4),
        "convicted_groups": defense["convicted_groups"],
        "false_positives": defense["false_positives"],
        "jail_seconds": defense["jail_seconds"],
    }
    print(f"bench_defense: {json.dumps(record)}")

    assert defense["convicted_groups"] == ["thrash"], defense
    assert defense["false_positives"] == [], defense
    assert ratio <= MAX_DEFENDED_P99_RATIO, (
        f"defended victim p99: {jail_p99:.3f}s is "
        f"{ratio:.2f}x the undefended {off_p99:.3f}s, "
        f"need <= {MAX_DEFENDED_P99_RATIO}x"
    )
    _append_trajectory(record)


def test_defense_off_overhead():
    """Undefended fleets must not pay for the defense layer."""
    baseline = _last_serve_fleet_rate(4)

    config = ClusterConfig(nodes=4, **OFF_BASE)
    Cluster(ClusterConfig(nodes=4, **OFF_BASE)).run()  # warm caches
    passes = []
    for _ in range(TIMED_PASSES):
        started = time.perf_counter()
        report = Cluster(config).run()
        passes.append((time.perf_counter() - started, report))
    reference = passes[0][1].to_json()
    for _, report in passes[1:]:
        assert report.to_json() == reference, (
            "defense-off fleet: a timed pass diverged from the first"
        )
    elapsed, report = min(passes, key=lambda run: run[0])
    events = report.generated + sum(
        r.events["popped"] for r in report.node_reports
    )
    rate = report.completed / elapsed

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {k: OFF_BASE[k] for k in sorted(OFF_BASE)},
        "events": events,
        "completed": report.completed,
        "wall_s": round(elapsed, 4),
        "events_per_s": round(events / elapsed, 1),
        "completed_per_s": round(rate, 1),
        "serve_baseline_completed_per_s": (
            None if baseline is None else round(baseline, 1)
        ),
    }
    print(f"bench_defense off: {json.dumps(record)}")

    assert report.defense == {
        "enabled": False,
        "mode": "off",
        "attacks": [],
        "attack_arrivals": {},
        "ground_truth": [],
    }
    if baseline is None:
        print(
            "bench_defense: no recorded 4-node rate in "
            "BENCH_serve.json — overhead gate skipped"
        )
    else:
        floor = baseline * MIN_OFF_RATE_RATIO
        assert rate >= floor, (
            f"defense-off overhead: {rate:.0f} requests/s, below "
            f"{floor:.0f} ({MIN_OFF_RATE_RATIO}x the recorded "
            f"{baseline:.0f})"
        )
    _append_trajectory(record)
