"""Survey fleet seeds by their counts, to choose a fleet workload's seed pool.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/e2e/survey.py fleet-adaptive --seeds 100

Fleet seeds ``0 .. --seeds - 1`` run one after another in this process,
each once, under ``repro.obs.observing()``.  The command prints each
seed's counts (``COUNTS``), then the ``--pool`` seeds whose counts lie
nearest their medians: the workload's ``FLEET_SEEDS`` entry in
``workloads.py``.  The counts are the program's own, so the pool does
not depend on the host's speed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from workloads import FLEETS, PREPARES

HERE = Path(__file__).resolve().parent

#: The model work that sets a fleet's host time, and the requests that
#: ``requests_per_s`` divides by.
COUNTS = ("che.iterations", "cluster.routed")


def fleet_counts(workload: str, fleet_seed: int, out: Path) -> dict:
    """``COUNTS`` of one fleet of ``workload``."""
    from repro.obs import NULL_TRACER, MetricsRegistry, observing

    registry = MetricsRegistry()
    cluster = FLEETS[workload](fleet_seed, False, out)
    with observing(NULL_TRACER, registry):
        cluster.run(fleet_jobs=1)
    counters = registry.snapshot()["counters"]
    return {name: counters[name] for name in COUNTS}


def distances(counts: dict[int, dict]) -> dict[int, float]:
    """Each seed's largest relative distance of a count from its median."""
    medians = {
        name: statistics.median(seed[name] for seed in counts.values())
        for name in COUNTS
    }
    return {
        seed: max(abs(own[name] / medians[name] - 1) for name in COUNTS)
        for seed, own in counts.items()
    }


def nearest_median(counts: dict[int, dict], size: int) -> list[int]:
    """The ``size`` seeds nearest the medians, in seed order."""
    distance = distances(counts)
    ranked = sorted(counts, key=lambda seed: (distance[seed], seed))
    return sorted(ranked[:size])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=FLEETS)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--pool", type=int, default=16)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload in PREPARES:
        PREPARES[args.workload](0, False, args.out)
    counts = {}
    for seed in range(args.seeds):
        counts[seed] = fleet_counts(args.workload, seed, args.out)
        print(f"seed {seed:>4}  " + "  ".join(
            f"{name} {value}" for name, value in counts[seed].items()
        ), flush=True)
    pool = nearest_median(counts, args.pool)
    distance = distances(counts)
    print(f"pool within {max(distance[seed] for seed in pool):.1%} "
          "of the medians:")
    print(", ".join(str(seed) for seed in pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
