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

* the 4-job schedule produces byte-identical stdout per experiment
  (the determinism guarantee, exercised through the real worker task),
* the warm cache is >= 5x faster than the uncached baseline, and
  at least ``BASELINE_SLACK`` of the last recorded warm speedup,
* 4 jobs are >= 2x faster than sequential — asserted only on machines
  with >= 4 CPUs; on smaller hosts process parallelism cannot beat
  sequential execution and the measurement is recorded without the
  assertion.

Every run appends one record to ``BENCH_parallel.json`` at the repo
root so the speedups form a trajectory across commits.
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
from repro.parallel import parallel_context
from repro.parallel.worker import run_experiment_task

MIN_WARM_SPEEDUP = 5.0
#: The warm speedup must also reach 0.8x the last recorded one.
BASELINE_SLACK = 0.8
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
    float, dict[str, str]
]:
    """Wall time + per-experiment stdout of the sequential schedule."""
    outputs: dict[str, str] = {}
    started = time.perf_counter()
    with parallel_context(
        jobs=1, cache_enabled=cache_enabled, disk_dir=disk_dir
    ):
        for name in NAMES:
            stream = io.StringIO()
            with redirect_stdout(stream):
                EXPERIMENTS[name][0](fast=True)
            outputs[name] = stream.getvalue()
    return time.perf_counter() - started, outputs


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


def _required_warm_speedup() -> float:
    """The floor, raised to 0.8x the last recorded warm speedup."""
    history = _history()
    if not history:
        return MIN_WARM_SPEEDUP
    return max(
        MIN_WARM_SPEEDUP, BASELINE_SLACK * history[-1]["warm_speedup"]
    )


def _append_trajectory(record: dict) -> None:
    history = _history()
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )


def test_parallel_and_cache_speedups(tmp_path):
    cpus = os.cpu_count() or 1
    required_warm = _required_warm_speedup()

    sequential_s, sequential_out = _run_sequential(cache_enabled=False)
    parallel_s, parallel_out = _run_parallel(PARALLEL_JOBS)
    cold_s, cold_out = _run_sequential(
        cache_enabled=True, disk_dir=tmp_path
    )
    warm_s, warm_out = _run_sequential(
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
        "jobs": PARALLEL_JOBS,
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_speedup": round(parallel_speedup, 2),
        "cold_cache_s": round(cold_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "warm_speedup": round(warm_speedup, 2),
    }
    _append_trajectory(record)
    print(f"bench_parallel: {json.dumps(record)}")

    assert warm_speedup >= required_warm, (
        f"warm simulation cache: {warm_speedup:.2f}x vs the uncached "
        f"baseline ({warm_s:.3f}s vs {sequential_s:.3f}s), "
        f"need >= {required_warm:.2f}x (the {MIN_WARM_SPEEDUP:.0f}x "
        f"floor or {BASELINE_SLACK}x the last record)"
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
