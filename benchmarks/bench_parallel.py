"""Benchmarks: the parallel executor and the simulation cache.

Measures the figure suite (every ``run all --fast`` experiment except
``report``, which re-runs the others; ``ext-trace`` is included now
that the vectorized trace engine replays it in about a second) under
four schedules:

* sequential, cache disabled — the pre-parallel baseline,
* experiment-level fan-out across 4 worker processes,
* sequential against a cold on-disk simulation cache,
* sequential against the warm cache (every solve already stored).

Assertions:

* every schedule produces byte-identical stdout per experiment (the
  determinism guarantee, exercised through the real worker task),
* the warm pass does exactly the cold pass's lookups and answers every
  one from the cache: ``sim.cache.misses`` is 0 and warm ``hits +
  disk_hits`` equals the cold pass's ``hits + disk_hits + misses``.
  These are counts of the program's work, so the gate does not move
  with host speed.  The suite's time is mostly ``ext-cluster``,
  ``ext-service``, ``ext-planner`` and ``ext-defense``, which never
  touch the ``simulate()`` cache, so a host-time speedup over the
  uncached run says little about the cache,
* 4 jobs are >= 2x faster than sequential — asserted only on machines
  with >= 4 CPUs; on smaller hosts process parallelism cannot beat
  sequential execution and the measurement is recorded without the
  assertion.

Every passing run appends one record to ``BENCH_parallel.json`` at the
repo root (a failing run leaves it alone): host times, the warm/uncached ratio (recorded, not gated) and
the cache counts of the cold and warm passes.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import time
from contextlib import redirect_stdout
from datetime import datetime, timezone

from repro.cli import EXPERIMENTS
from repro.obs import NULL_TRACER, observing
from repro.parallel import parallel_context
from repro.parallel.worker import run_experiment_task

#: The simulation-cache counters each sequential pass reports.
CACHE_COUNTERS = ("hits", "disk_hits", "misses", "stores")
MIN_PARALLEL_SPEEDUP = 2.0
PARALLEL_JOBS = 4
#: The parallel-speedup assertion needs real cores to stand on.
MIN_CPUS_FOR_PARALLEL_ASSERT = 4

#: Everything 'run all --fast' covers: ext-trace's exact LRU replay
#: contributes no cacheable simulate() calls but is cheap enough on
#: the fast trace engine to ride along in every schedule.
NAMES = tuple(
    name for name in sorted(EXPERIMENTS) if name != "report"
)

TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_parallel.json"
)


def _run_sequential(cache_enabled: bool, disk_dir=None) -> tuple[
    float, dict[str, str], dict[str, int]
]:
    """Wall time, per-experiment stdout and simulation-cache counts of
    the sequential schedule (metrics on, tracing off)."""
    outputs: dict[str, str] = {}
    started = time.perf_counter()
    with observing(NULL_TRACER) as (_, metrics):
        with parallel_context(
            jobs=1, cache_enabled=cache_enabled, disk_dir=disk_dir
        ):
            for name in NAMES:
                stream = io.StringIO()
                with redirect_stdout(stream):
                    EXPERIMENTS[name][0](fast=True)
                outputs[name] = stream.getvalue()
    elapsed = time.perf_counter() - started
    counters = metrics.snapshot()["counters"]
    return elapsed, outputs, {
        name: counters.get(f"sim.cache.{name}", 0)
        for name in CACHE_COUNTERS
    }


def _run_parallel(jobs: int) -> tuple[float, dict[str, str]]:
    """Wall time + per-experiment stdout of the fan-out schedule."""
    outputs: dict[str, str] = {}
    started = time.perf_counter()
    with parallel_context(jobs=jobs, cache_enabled=False) as context:
        pool = context.pool()
        futures = [
            pool.submit(run_experiment_task, name, True, False, False)
            for name in NAMES
        ]
        for name, future in zip(NAMES, futures):
            outputs[name] = future.result()["stdout"]
    return time.perf_counter() - started, outputs


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


def test_parallel_and_cache_speedups(tmp_path):
    cpus = os.cpu_count() or 1

    sequential_s, sequential_out, _ = _run_sequential(cache_enabled=False)
    parallel_s, parallel_out = _run_parallel(PARALLEL_JOBS)
    cold_s, cold_out, cold = _run_sequential(
        cache_enabled=True, disk_dir=tmp_path
    )
    warm_s, warm_out, warm = _run_sequential(
        cache_enabled=True, disk_dir=tmp_path
    )

    # Determinism: every schedule prints the sequential tables.
    assert parallel_out == sequential_out
    assert cold_out == sequential_out
    assert warm_out == sequential_out

    parallel_speedup = sequential_s / parallel_s
    warm_speedup = sequential_s / warm_s
    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "cpu_count": cpus,
        "experiments": len(NAMES),
        "excluded": ["report (re-runs every other experiment)"],
        "cold_cache": cold,
        "warm_cache": warm,
        "jobs": PARALLEL_JOBS,
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_speedup": round(parallel_speedup, 2),
        "cold_cache_s": round(cold_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "warm_speedup": round(warm_speedup, 2),
    }
    print(f"bench_parallel: {json.dumps(record)}")

    cold_lookups = cold["hits"] + cold["disk_hits"] + cold["misses"]
    assert cold["misses"] > 0, f"cold pass solved nothing: {cold}"
    assert warm["misses"] == 0, (
        f"warm simulation cache missed {warm['misses']} lookups "
        f"(cold {cold}, warm {warm})"
    )
    assert warm["hits"] + warm["disk_hits"] == cold_lookups, (
        f"warm pass answered {warm['hits'] + warm['disk_hits']} lookups "
        f"from the cache, the cold pass made {cold_lookups} "
        f"(cold {cold}, warm {warm})"
    )
    if cpus >= MIN_CPUS_FOR_PARALLEL_ASSERT:
        assert parallel_speedup >= MIN_PARALLEL_SPEEDUP, (
            f"{PARALLEL_JOBS} jobs: {parallel_speedup:.2f}x vs "
            f"sequential ({parallel_s:.3f}s vs {sequential_s:.3f}s), "
            f"need >= {MIN_PARALLEL_SPEEDUP:.0f}x"
        )
    else:
        print(
            f"bench_parallel: {cpus} CPU(s) < "
            f"{MIN_CPUS_FOR_PARALLEL_ASSERT} — recorded "
            f"{parallel_speedup:.2f}x at {PARALLEL_JOBS} jobs without "
            "asserting the >= "
            f"{MIN_PARALLEL_SPEEDUP:.0f}x bound"
        )
    _append_trajectory(record)


def test_point_level_fanout_matches_sequential():
    """Single-experiment --jobs: sweep points fan out, rows identical."""
    stream = io.StringIO()
    with parallel_context(jobs=1, cache_enabled=False):
        with redirect_stdout(stream):
            EXPERIMENTS["fig9"][0](fast=True)
    sequential = stream.getvalue()

    stream = io.StringIO()
    with parallel_context(jobs=2, cache_enabled=False):
        with redirect_stdout(stream):
            EXPERIMENTS["fig9"][0](fast=True)
    assert stream.getvalue() == sequential
