"""Shared-cache occupancy via the Che characteristic-time approximation.

Under LRU, a cache of ``C`` lines evicts a line that has not been
re-referenced for the cache's *characteristic time* ``T`` — the time it
takes the combined insertion traffic to push a line from MRU to LRU.
Che's approximation (Che, Tung & Wang, 2002; widely validated for LRU)
states that an object referenced as a Poisson process with rate
``lambda`` is resident with probability ``1 - exp(-lambda * T)``, where
``T`` solves the fill-constraint

    sum_i  expected_occupancy_i(T)  =  C.

We apply it per cache *actor*:

* a **random region** of ``W`` lines probed uniformly at total rate
  ``a`` has per-line rate ``lambda = a / W`` and expected occupancy
  ``W * (1 - exp(-a/W * T))``; its hit ratio equals its resident
  fraction,
* a **stream** (scan) references each line exactly once at insertion
  rate ``r``; every streamed line then lingers for ``T`` seconds, so
  the stream occupies ``r * T`` lines and never hits.

The second bullet *is* cache pollution in closed form: the higher the
scan's insertion rate, the shorter ``T``, the smaller every region's
resident fraction.  CAT partitioning bounds which segment a stream can
insert into, restoring large ``T`` for the protected segment — exactly
the mechanism the paper exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..obs import runtime
from .segments import Segment


@dataclass(frozen=True)
class RegionActor:
    """Random-region competitor inside the LLC.

    ``working_lines`` is the region's size in cache lines;
    ``access_rate`` its uniform random reference rate (lines/second)
    *as seen by the LLC* (accesses filtered by private caches excluded).
    """

    query: str
    name: str
    working_lines: float
    access_rate: float

    def __post_init__(self) -> None:
        if self.working_lines <= 0:
            raise ModelError(
                f"region {self.query}/{self.name}: working_lines must be > 0"
            )
        if self.access_rate < 0:
            raise ModelError(
                f"region {self.query}/{self.name}: access_rate must be >= 0"
            )

    def occupancy(self, t_char: float) -> float:
        """Expected resident lines at characteristic time ``t_char``."""
        if self.access_rate == 0:
            return 0.0
        if math.isinf(t_char):
            return self.working_lines
        rate_per_line = self.access_rate / self.working_lines
        return self.working_lines * -math.expm1(-rate_per_line * t_char)

    def hit_ratio(self, t_char: float) -> float:
        """Probability a probe finds its line resident (Che)."""
        if self.access_rate == 0:
            return 1.0
        return self.occupancy(t_char) / self.working_lines


@dataclass(frozen=True)
class StreamActor:
    """Streaming competitor: inserts lines, never re-references them."""

    query: str
    name: str
    insertion_rate: float  # lines/second entering the LLC

    def __post_init__(self) -> None:
        if self.insertion_rate < 0:
            raise ModelError(
                f"stream {self.query}/{self.name}: insertion_rate must be >= 0"
            )

    def occupancy(self, t_char: float) -> float:
        if math.isinf(t_char):
            # A stream in an otherwise idle cache fills whatever is free;
            # callers only reach t=inf when streams are absent or idle.
            return 0.0 if self.insertion_rate == 0 else math.inf
        return self.insertion_rate * t_char


@dataclass
class CacheActorSet:
    """All LLC competitors of one workload, keyed by owning query."""

    regions: list[RegionActor]
    streams: list[StreamActor]

    def for_query(self, query: str) -> "CacheActorSet":
        return CacheActorSet(
            regions=[r for r in self.regions if r.query == query],
            streams=[s for s in self.streams if s.query == query],
        )


#: Bracket sweep: candidate upper bounds ``1e-9 * 4**k`` — the same
#: geometric schedule the scalar solver walked one step at a time,
#: evaluated in a single vectorized pass.  ``4**199 * 1e-9`` is still a
#: finite double (~6e110), far past any physical characteristic time.
_BRACKET_STEPS = 200
_BRACKET_GRID = 1e-9 * 4.0 ** np.arange(_BRACKET_STEPS, dtype=np.float64)
#: Bracket candidates evaluated per chunk: the scan starts at the
#: analytic lower-bound index, so one chunk almost always brackets the
#: root without touching the rest of the grid.
_BRACKET_CHUNK = 16

#: Interior points per section-search round.  Each round narrows the
#: bracket by ``_SECTION_POINTS + 1``x, so convergence to a 1e-6
#: relative width takes ~4 rounds instead of ~30 bisection halvings —
#: and every round is one vectorized occupancy evaluation (a wider
#: grid costs nearly nothing; the per-round Python/numpy dispatch is
#: what the hot path pays for).
_SECTION_POINTS = 46
_SECTION_FRACTIONS = (
    np.arange(1, _SECTION_POINTS + 1, dtype=np.float64)
    / (_SECTION_POINTS + 1)
)


def _actor_arrays(
    regions: list[RegionActor], streams: list[StreamActor]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Struct-of-arrays view of the competitors (idle regions dropped).

    Returns ``(working_lines, rate_per_line, streaming_rate)``; the
    aggregate stream term is linear in ``t`` so all streams collapse
    into one scalar insertion rate.
    """
    active = [r for r in regions if r.access_rate > 0]
    lines = np.array(
        [r.working_lines for r in active], dtype=np.float64
    )
    per_line = np.array(
        [r.access_rate / r.working_lines for r in active],
        dtype=np.float64,
    )
    streaming = float(sum(s.insertion_rate for s in streams))
    return lines, per_line, streaming


def _occupancy_grid(
    lines: np.ndarray,
    neg_per_line: np.ndarray,
    streaming: float,
    ts: np.ndarray,
) -> np.ndarray:
    """Total expected occupancy at each candidate time (vectorized).

    Takes the per-line rates negated once per solve: ``s*t -
    expm1(t*-r) @ W`` is ``-expm1(-(t*r)) @ W + s*t`` without the array
    negations, and IEEE negation is exact, so results are bit-identical.
    """
    if lines.size:
        return streaming * ts - np.expm1(ts[:, None] * neg_per_line) @ lines
    return streaming * ts


def solve_characteristic_time(
    regions: list[RegionActor],
    streams: list[StreamActor],
    capacity_lines: float,
    tolerance: float = 1e-6,
    max_iterations: int = 200,
) -> float:
    """Solve Che's fill constraint for the characteristic time.

    Returns ``inf`` when all actors fit simultaneously (cache never
    fills: every region is fully resident).

    The solver is vectorized struct-of-arrays NumPy: the geometric
    bracket sweep is one batched occupancy evaluation, and the root is
    then isolated by a section search that evaluates
    ``_SECTION_POINTS`` interior candidates per round — the fleet/serve
    hot path calls this thousands of times per simulated second, so the
    per-actor Python loop of the original bisection dominated entire
    fleet runs.

    Publishes solver metrics into the current registry
    (``che.solves``, ``che.iterations``, ``che.bracket_expansions``,
    ``che.convergence_failures`` — see docs/OBSERVABILITY.md).
    """
    lines, per_line, streaming = _actor_arrays(regions, streams)
    return solve_characteristic_time_arrays(
        lines, per_line, streaming, capacity_lines,
        tolerance=tolerance, max_iterations=max_iterations,
    )


def solve_characteristic_time_arrays(
    lines: np.ndarray,
    per_line: np.ndarray,
    streaming: float,
    capacity_lines: float,
    tolerance: float = 1e-6,
    max_iterations: int = 200,
) -> float:
    """Array-level core of :func:`solve_characteristic_time`.

    ``lines``/``per_line`` are the active regions' working sets and
    per-line reference rates (struct-of-arrays, idle regions already
    dropped); ``streaming`` the aggregate stream insertion rate.  The
    simulator's hot path calls this directly so the fixed-point loop
    never materialises per-round actor objects.
    """
    if capacity_lines <= 0:
        raise ModelError(f"capacity_lines must be > 0: {capacity_lines}")

    metrics = runtime.metrics
    metrics.counter("che.solves").inc()

    if streaming == 0 and float(lines.sum()) <= capacity_lines:
        return math.inf

    with np.errstate(over="ignore"):
        # Bracket the root: occupancy(T) is monotone increasing in T,
        # so searchsorted against the grid's occupancies finds the
        # first candidate at or above capacity; its predecessor
        # lower-bounds the root.  ``1 - e^-x <= x`` gives the analytic
        # lower bound ``T >= capacity / (sum(w_i r_i) + s)``, so the
        # scan starts at that grid index and walks forward in chunks —
        # usually one chunk — instead of evaluating all candidates.
        demand_rate = float(per_line @ lines) + streaming
        if demand_rate <= 0.0:
            # Zero demand (including denormal per-line rates whose
            # product underflows to 0.0): no insertions ever fill the
            # cache, at any characteristic time.
            return math.inf
        neg_per_line = -per_line
        start = int(
            _BRACKET_GRID.searchsorted(capacity_lines / demand_rate)
        )
        first = _BRACKET_STEPS
        for chunk in range(start, _BRACKET_STEPS, _BRACKET_CHUNK):
            stop = min(chunk + _BRACKET_CHUNK, _BRACKET_STEPS)
            totals = _occupancy_grid(
                lines, neg_per_line, streaming, _BRACKET_GRID[chunk:stop]
            )
            cut = int(totals.searchsorted(capacity_lines))
            if cut < stop - chunk:
                first = chunk + cut
                break
        if first >= _BRACKET_STEPS:
            # Demand never reaches capacity (e.g. negligible rates):
            # treat as an unfilled cache.
            metrics.counter("che.bracket_expansions").inc(
                _BRACKET_STEPS
            )
            return math.inf
        metrics.counter("che.bracket_expansions").inc(first)
        t_high = float(_BRACKET_GRID[first])
        t_low = float(_BRACKET_GRID[first - 1]) if first else 0.0

        iterations = 0
        converged = False
        for _ in range(max_iterations):
            iterations += 1
            grid = t_low + (t_high - t_low) * _SECTION_FRACTIONS
            totals = _occupancy_grid(lines, neg_per_line, streaming, grid)
            cut = int(totals.searchsorted(capacity_lines))
            if cut < _SECTION_POINTS:
                t_high = float(grid[cut])
                if cut:
                    t_low = float(grid[cut - 1])
            else:
                t_low = float(grid[-1])
            if t_high - t_low <= tolerance * max(t_high, 1e-30):
                converged = True
                break
    metrics.counter("che.iterations").inc(iterations)
    if not converged:
        metrics.counter("che.convergence_failures").inc()
    return 0.5 * (t_low + t_high)


@dataclass(frozen=True)
class SegmentSolution:
    """Result of solving one segment: T plus per-actor hit/occupancy."""

    segment: Segment
    t_char: float
    region_hit_ratios: dict[tuple[str, str], float]
    region_occupancy_lines: dict[tuple[str, str], float]
    stream_occupancy_lines: dict[tuple[str, str], float]


def solve_segment(
    segment: Segment,
    regions: list[RegionActor],
    streams: list[StreamActor],
    way_lines: float,
) -> SegmentSolution:
    """Solve the Che fixed point for one way-mask segment.

    ``regions``/``streams`` must already be scaled to this segment (the
    caller distributes each query's traffic across its allowed segments
    proportionally to capacity).
    """
    capacity = segment.ways * way_lines
    with runtime.tracer.span("solve_segment"):
        t_char = solve_characteristic_time(regions, streams, capacity)
    hit_ratios = {
        (r.query, r.name): r.hit_ratio(t_char) for r in regions
    }
    region_occ = {(r.query, r.name): r.occupancy(t_char) for r in regions}
    stream_occ = {}
    for s in streams:
        occupancy = s.occupancy(t_char)
        if math.isinf(occupancy):
            occupancy = capacity - sum(region_occ.values())
        stream_occ[(s.query, s.name)] = max(0.0, occupancy)
    return SegmentSolution(segment, t_char, hit_ratios, region_occ, stream_occ)
