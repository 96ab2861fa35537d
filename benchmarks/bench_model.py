"""Benchmark: the analytic model's steady-state solve.

Times ``WorkloadSimulator.simulate`` over the golden corpus of
CAT-masked compositions (``tests/test_model_golden.py``: one to four
way-mask segments, idle regions, zero-weight placements, fitting and
streams-only segments, overflow and SMT oversubscription) — the
multi-segment occupancy solve that dominates fleet runs.

Before any timing, a pre-check requires every composition to solve
twice to the same bytes and to match its golden pin, so a faster solve
that moved a result never reaches the trajectory.

A pass simulates the corpus ``CORPUS_REPEATS`` times; the record keeps
the best of ``TIMED_PASSES`` warm passes as ``solves_per_s`` (simulate
calls per wall second) alongside one counted pass's ``che.solves`` and
fixed-point rounds.  Gate: ``solves_per_s`` >= ``BASELINE_SLACK`` x the
last record (no gate on the first record).

Every passing run appends one record to ``BENCH_model.json`` at the
repo root so the numbers form a trajectory across commits; a failing
run leaves it alone, so it cannot lower the next floor.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from datetime import datetime, timezone

from repro.config import SystemSpec
from repro.model.simulator import WorkloadSimulator
from repro.obs import observing

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tests.test_model_golden import GOLDEN, compositions, digest  # noqa: E402

TIMED_PASSES = 5
CORPUS_REPEATS = 4
BASELINE_SLACK = 0.8

TRAJECTORY = ROOT / "BENCH_model.json"


def _history() -> list:
    if not TRAJECTORY.exists():
        return []
    try:
        return json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []


def _pass(simulator: WorkloadSimulator, corpus: list) -> float:
    started = time.perf_counter()
    for _ in range(CORPUS_REPEATS):
        for queries in corpus:
            simulator.simulate(queries)
    return time.perf_counter() - started


def test_model_solve_rate():
    history = _history()
    cases = compositions()
    simulator = WorkloadSimulator(SystemSpec())

    for case, queries in cases.items():
        first = digest(simulator.simulate(queries))
        assert digest(simulator.simulate(queries)) == first, case
        assert first == GOLDEN[case], f"{case}: golden pin moved"

    corpus = list(cases.values())
    with observing() as (_, metrics):
        for queries in corpus:
            simulator.simulate(queries)
    che_solves = metrics.counter("che.solves").value
    rounds = metrics.counter("simulator.fixed_point_rounds").value

    _pass(simulator, corpus)  # warm-up
    best_s = min(_pass(simulator, corpus) for _ in range(TIMED_PASSES))
    calls = CORPUS_REPEATS * len(corpus)
    solves_per_s = calls / best_s

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "compositions": len(corpus),
        "corpus_repeats": CORPUS_REPEATS,
        "timed_passes": TIMED_PASSES,
        "best_pass_s": round(best_s, 4),
        "solves_per_s": round(solves_per_s, 1),
        "che_solves": che_solves,
        "fixed_point_rounds": rounds,
    }
    print(f"bench_model: {json.dumps(record)}")

    if history:
        floor = history[-1]["solves_per_s"] * BASELINE_SLACK
        assert solves_per_s >= floor, (
            f"model solve: {solves_per_s:.0f} simulate calls/s, below "
            f"{floor:.0f} ({BASELINE_SLACK}x the last recorded "
            f"{history[-1]['solves_per_s']:.0f})"
        )
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )
