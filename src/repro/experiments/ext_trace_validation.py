"""Extension experiment: end-to-end validation on the exact simulator.

Everything in Figs. 4-12 runs on the analytic model.  This experiment
replays the core mechanism — a hot random-access region polluted by a
sequential scan, with and without CAT way partitioning — on the
*trace-driven* set-associative LRU simulator, and compares the measured
hit ratios with the analytic prediction.

It is the figure-level counterpart of the unit-level cross-validation
in ``tests/test_model_cross_validation.py``: if these two substrates
disagreed, the reproduction's conclusions would be simulator artefacts.

Two geometries are validated:

* the historical scaled-down geometry (128 sets x 16 ways), and
* the **full LLC geometry** of the paper's machine (2048 sets x
  20 ways) — affordable since the vectorized trace engine
  (:mod:`repro.hardware.fastcache`) replays whole batches.  The
  per-access reference cache is its oracle:
  ``tests/test_experiments_trace_oracle.py`` replays this experiment's
  schedule on both and asserts identical hits, stats and final state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CacheSpec, SystemSpec
from repro.hardware.cat import CatController
from repro.hardware.fastcache import FastSetAssociativeCache
from repro.model.occupancy import (
    RegionActor,
    StreamActor,
    solve_characteristic_time,
)
from repro.units import KiB
from .reporting import format_table
from .runner import FigureResult

LINE = 64

#: The historical scaled-down geometry.
SETS = 128
WAYS = 16

#: The paper machine's full LLC geometry (Sec. III-C: 55 MiB, 20-way
#: would be 45056 sets; 2048 sets keeps the way structure and a
#: realistic set count while staying replayable in CI).
FULL_SETS = 2048
FULL_WAYS = 20


@dataclass(frozen=True)
class Geometry:
    sets: int
    ways: int
    #: Ways the polluting scan is confined to when partitioned.
    stream_ways: int = 2

    @property
    def label(self) -> str:
        return f"{self.sets}x{self.ways}"

    @property
    def full_mask(self) -> int:
        return (1 << self.ways) - 1

    @property
    def stream_mask(self) -> int:
        return (1 << self.stream_ways) - 1


TOY = Geometry(SETS, WAYS)
FULL = Geometry(FULL_SETS, FULL_WAYS)


def _scaled_spec(geometry: Geometry) -> SystemSpec:
    return SystemSpec(
        cores=2,
        llc=CacheSpec(geometry.sets * geometry.ways * LINE, geometry.ways),
        l1d=CacheSpec(2 * KiB, 2),
        l2=CacheSpec(4 * KiB, 4),
        cat_min_bits=1,
    )


def _schedule(
    region_lines: int,
    stream_rate: float,
    steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the full interleaved access schedule as arrays.

    Event layout matches the historical per-step loop: one random
    region access per step, followed by however many scan accesses the
    rate accumulator releases (``floor((i+1)r) - floor(i r)``).
    Returns (line addresses, region-event mask, region event positions).
    """
    step_index = np.arange(steps, dtype=np.int64)
    stream_counts = (
        np.floor((step_index + 1) * stream_rate)
        - np.floor(step_index * stream_rate)
    ).astype(np.int64)
    total = steps + int(stream_counts.sum())
    prefix = np.concatenate(([0], np.cumsum(stream_counts)[:-1]))
    region_pos = step_index + prefix
    is_region = np.zeros(total, dtype=bool)
    is_region[region_pos] = True
    lines = np.empty(total, dtype=np.int64)
    lines[region_pos] = rng.integers(0, region_lines, size=steps)
    stream_start = 1 << 24
    lines[~is_region] = stream_start + np.arange(total - steps)
    return lines, is_region, region_pos


def _cat_setup(
    geometry: Geometry, partitioned: bool
) -> tuple[CacheSpec, CatController]:
    """The LLC spec and CAT programming: the region (CLOS 1) may fill
    every way, the scan (CLOS 2) only its stream ways when
    ``partitioned``."""
    spec = _scaled_spec(geometry)
    cat = CatController(spec)
    cat.set_clos_mask(1, geometry.full_mask)
    cat.set_clos_mask(
        2, geometry.stream_mask if partitioned else geometry.full_mask
    )
    return spec.llc, cat


def _replay(cache, lines: np.ndarray, is_region: np.ndarray) -> np.ndarray:
    """Replay a schedule with its CLOS and stream labels; per-access hits."""
    clos = np.where(is_region, 1, 2)
    streams = np.where(is_region, "region", "scan").tolist()
    return cache.access_batch(lines * LINE, clos=clos, stream=streams)


def _measure(
    geometry: Geometry,
    region_lines: int,
    stream_rate: float,
    partitioned: bool,
    steps: int,
    rng: np.random.Generator,
) -> float:
    """Steady-state hit ratio of the region on the exact simulator."""
    llc, cat = _cat_setup(geometry, partitioned)
    lines, is_region, region_pos = _schedule(
        region_lines, stream_rate, steps, rng
    )
    hits = _replay(FastSetAssociativeCache(llc, cat=cat), lines, is_region)
    warmup = steps // 2
    measured = hits[region_pos[warmup:]]
    return float(measured.sum()) / max(1, len(measured))


def _predict(
    geometry: Geometry,
    region_lines: int,
    stream_rate: float,
    stream_ways_shared: int,
) -> float:
    """Analytic prediction with the same way-mask segmentation."""
    way_lines = geometry.sets
    exclusive_ways = geometry.ways - stream_ways_shared
    # Greedy placement: the region prefers its exclusive ways.
    exclusive_lines = exclusive_ways * way_lines
    shared_lines = stream_ways_shared * way_lines
    placed_exclusive = min(region_lines, exclusive_lines)
    placed_shared = region_lines - placed_exclusive

    hit = 0.0
    if placed_exclusive:
        t = solve_characteristic_time(
            [RegionActor("q", "r", placed_exclusive, 1.0)],
            [],
            exclusive_lines,
        )
        hit += (placed_exclusive / region_lines) * RegionActor(
            "q", "r", placed_exclusive, 1.0
        ).hit_ratio(t)
    if placed_shared and shared_lines:
        region = RegionActor(
            "q", "r", placed_shared,
            placed_shared / region_lines,
        )
        t = solve_characteristic_time(
            [region],
            [StreamActor("p", "s", stream_rate)],
            shared_lines,
        )
        hit += (placed_shared / region_lines) * region.hit_ratio(t)
    return hit


CONFIGS = (
    # (geometry, region_lines, stream rate per region access, partitioned?)
    (TOY, 1024, 2.0, False),
    (TOY, 1024, 2.0, True),
    (TOY, 1536, 4.0, False),
    (TOY, 1536, 4.0, True),
    # Region larger than the 14 exclusive ways: spills into the
    # scan-churned shared ways even when partitioned.
    (TOY, 2048, 4.0, False),
    (TOY, 2048, 4.0, True),
    # Full LLC geometry (2048 sets, 20 ways): the validation point the
    # per-access engine could never afford.
    (FULL, 8192, 4.0, False),
    (FULL, 8192, 4.0, True),
)


def run(spec: SystemSpec | None = None, fast: bool = False) -> FigureResult:
    rng = np.random.default_rng(0xBEEF)
    result = FigureResult(
        figure_id="ext_trace",
        title=(
            "Extension: analytic model vs exact LRU simulation — "
            "region hit ratio under scan pollution, CAT off/on"
        ),
        headers=("region_lines", "stream_rate", "partitioned",
                 "simulated_hit", "predicted_hit", "abs_error",
                 "geometry"),
    )
    for geometry, region_lines, stream_rate, partitioned in CONFIGS:
        if geometry is FULL:
            steps = 48_000 if fast else 96_000
        else:
            steps = 12_000 if fast else 40_000
        measured = _measure(
            geometry, region_lines, stream_rate, partitioned, steps, rng
        )
        predicted = _predict(
            geometry, region_lines, stream_rate,
            geometry.stream_ways if partitioned else geometry.ways,
        )
        result.add(
            region_lines,
            stream_rate,
            partitioned,
            round(measured, 3),
            round(predicted, 3),
            round(abs(measured - predicted), 3),
            geometry.label,
        )
    return result


def main(fast: bool = False) -> FigureResult:
    result = run(fast=fast)
    print(format_table(result.headers, result.rows, title=result.title))
    return result


if __name__ == "__main__":
    main()
