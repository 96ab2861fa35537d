"""Benchmark: the vectorized trace engine vs its reference-loop oracle.

Replays a deterministic corpus of LLC traces on both cache classes,
built by class name:

* ``full_random`` — uniform lines over 2x capacity, full geometry
  (2048 sets x 20 ways, the paper machine's way structure),
* ``full_scan`` — a sequential sweep (the paper's polluter),
* ``full_mixed_cat`` — hot region + scan under disjoint CAT masks
  with stream labels and a prefetch sprinkle (the ext-trace shape),
* ``toy_mixed`` — the historical 128x16 geometry, reported for
  context but excluded from the speedup gate.

Every trace asserts **exact equivalence** first: identical per-access
hit vectors, identical hit/miss/eviction statistics (global, per
CLOS, per stream) and identical final cache contents (the
class-independent SHA-256 state digest recorded as the equivalence
checksum).  Only then is speed compared; the gate is the aggregate
over the full-geometry traces so no single trace shape dominates.

The aggregate must reach ``BASELINE_SLACK`` of the last recorded
``gate_speedup`` in ``BENCH_trace.json`` and never less than
``MIN_TRACE_SPEEDUP``.  Every passing run appends one record to that
file at the repo root so the speedup forms a trajectory across
commits; a failing run leaves it alone, so it cannot lower the next
floor.
"""

from __future__ import annotations

import json
import pathlib
import time
from datetime import datetime, timezone

import numpy as np

from repro.config import CacheSpec, SystemSpec
from repro.hardware.cache import SetAssociativeCache, cache_state_digest
from repro.hardware.cat import CatController
from repro.hardware.fastcache import FastSetAssociativeCache
from repro.units import KiB

LINE = 64

#: Aggregate full-geometry gate: sum(ref time) / sum(fast time), at
#: least this floor and at least 0.8x the last recorded aggregate.
MIN_TRACE_SPEEDUP = 20.0
BASELINE_SLACK = 0.8

TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_trace.json"
)


def _system(sets: int, ways: int) -> SystemSpec:
    return SystemSpec(
        cores=2,
        llc=CacheSpec(sets * ways * LINE, ways),
        l1d=CacheSpec(2 * KiB, 2),
        l2=CacheSpec(4 * KiB, 4),
        cat_min_bits=1,
    )


def _build_cache(sets: int, ways: int, cls, with_cat: bool):
    spec = _system(sets, ways)
    cat = None
    if with_cat:
        cat = CatController(spec)
        cat.set_clos_mask(1, (1 << ways) - 1)
        cat.set_clos_mask(2, 0b11)
    return cls(spec.llc, cat=cat)


def _random_trace(sets, ways, n, rng):
    lines = rng.integers(0, sets * ways * 2, size=n)
    return dict(addrs=lines * LINE, clos=0, stream=None,
                is_prefetch=False, with_cat=False)


def _scan_trace(sets, ways, n, rng):
    lines = np.arange(n, dtype=np.int64) % (sets * ways * 3)
    return dict(addrs=lines * LINE, clos=0, stream="scan",
                is_prefetch=False, with_cat=False)


def _mixed_cat_trace(sets, ways, n, rng):
    region = rng.integers(0, sets * (ways - 4), size=n)
    scan = (1 << 24) + np.arange(n, dtype=np.int64)
    is_region = rng.random(n) < 0.5
    lines = np.where(is_region, region, scan)
    return dict(
        addrs=lines * LINE,
        clos=np.where(is_region, 1, 2),
        stream=np.where(is_region, "region", "scan"),
        is_prefetch=rng.random(n) < 0.1,
        with_cat=True,
    )


#: (name, sets, ways, accesses, builder, counts toward the gate)
CORPUS = (
    ("full_random", 2048, 20, 400_000, _random_trace, True),
    ("full_scan", 2048, 20, 400_000, _scan_trace, True),
    ("full_mixed_cat", 2048, 20, 300_000, _mixed_cat_trace, True),
    ("toy_mixed", 128, 16, 150_000, _mixed_cat_trace, False),
)


def _replay(cls, sets, ways, trace) -> tuple[float, dict]:
    # Untimed warmup on a throwaway cache: first-touch page faults and
    # lazy NumPy/SciPy machinery should not bias the steady-state
    # throughput comparison (they are identical for both engines).
    warm = _build_cache(sets, ways, cls, trace["with_cat"])
    clos = trace["clos"]
    warm.access_batch(
        trace["addrs"][:4096],
        clos=clos if np.isscalar(clos) else clos[:4096],
    )
    cache = _build_cache(sets, ways, cls, trace["with_cat"])
    started = time.perf_counter()
    hits = cache.access_batch(
        trace["addrs"],
        clos=trace["clos"],
        stream=trace["stream"],
        is_prefetch=trace["is_prefetch"],
    )
    elapsed = time.perf_counter() - started
    return elapsed, {
        "hits": hits,
        "stats": vars(cache.stats).copy(),
        "by_clos": {
            k: vars(v).copy()
            for k, v in sorted(cache.stats_by_clos.items())
        },
        "by_stream": {
            k: vars(v).copy()
            for k, v in sorted(cache.stats_by_stream.items())
        },
        "digest": cache_state_digest(cache),
    }


def _history() -> list:
    if not TRAJECTORY.exists():
        return []
    try:
        return json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []


def _required_speedup() -> float:
    """The floor, raised to 0.8x the last recorded aggregate."""
    history = _history()
    if not history:
        return MIN_TRACE_SPEEDUP
    return max(
        MIN_TRACE_SPEEDUP, BASELINE_SLACK * history[-1]["gate_speedup"]
    )


def _append_trajectory(record: dict) -> None:
    history = _history()
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )


def test_trace_engine_equivalence_and_speedup():
    required = _required_speedup()
    rows = []
    gated_ref = gated_fast = 0.0
    for name, sets, ways, accesses, builder, gated in CORPUS:
        rng = np.random.default_rng(0x7ACE)
        trace = builder(sets, ways, accesses, rng)
        ref_s, ref_out = _replay(SetAssociativeCache, sets, ways, trace)
        fast_s, fast_out = _replay(
            FastSetAssociativeCache, sets, ways, trace
        )

        # Exact equivalence comes before any speed claim.
        assert np.array_equal(ref_out["hits"], fast_out["hits"]), name
        for key in ("stats", "by_clos", "by_stream", "digest"):
            assert ref_out[key] == fast_out[key], (name, key)

        rows.append({
            "trace": name,
            "geometry": f"{sets}x{ways}",
            "accesses": accesses,
            "ref_s": round(ref_s, 3),
            "fast_s": round(fast_s, 3),
            "ref_events_per_s": round(accesses / ref_s),
            "fast_events_per_s": round(accesses / fast_s),
            "speedup": round(ref_s / fast_s, 1),
            "equivalence_checksum": fast_out["digest"],
            "in_gate": gated,
        })
        if gated:
            gated_ref += ref_s
            gated_fast += fast_s

    aggregate = gated_ref / gated_fast
    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "traces": rows,
        "gate_ref_s": round(gated_ref, 3),
        "gate_fast_s": round(gated_fast, 3),
        "gate_speedup": round(aggregate, 1),
        "min_required_speedup": round(required, 1),
    }
    print(f"bench_trace: {json.dumps(record)}")

    assert aggregate >= required, (
        f"fast engine: {aggregate:.1f}x aggregate over the "
        f"full-geometry corpus ({gated_fast:.3f}s vs {gated_ref:.3f}s "
        f"reference), need >= {required:.1f}x (the {MIN_TRACE_SPEEDUP:.0f}x "
        f"floor or {BASELINE_SLACK}x the last record)"
    )
    _append_trajectory(record)
