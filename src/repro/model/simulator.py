"""Steady-state workload simulator.

Given a set of concurrently running queries — each with an
:class:`~repro.model.streams.AccessProfile`, a core allocation and a CAT
capacity bitmask — the simulator solves the coupled fixed point of

* per-query throughput,
* LLC occupancy / hit ratios per way-mask segment (Che approximation),
* DRAM bandwidth grants (max-min fair arbitration),

and reports per-query throughput, time breakdowns and PCM-style
counters.  This mirrors the paper's measurement method: queries run
repeatedly ("for 90 seconds"), so the interesting quantity is the
steady-state rate, not a single execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from ..config import SystemSpec
from ..errors import ModelError
from ..obs import runtime
from .bandwidth import BandwidthUsage, solve_bandwidth
from .calibration import DEFAULT_CALIBRATION, Calibration
from .latency import LatencyModel
from .occupancy import solve_characteristic_time_arrays
from .segments import decompose_masks
from .streams import AccessProfile


@dataclass(frozen=True)
class QuerySpec:
    """A query instance participating in a simulated workload."""

    name: str
    profile: AccessProfile
    cores: int
    mask: int

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ModelError(f"query {self.name!r}: cores must be > 0")
        if self.mask <= 0:
            raise ModelError(f"query {self.name!r}: mask must be non-zero")


@dataclass
class CounterRates:
    """Per-second hardware-counter rates (PCM analogue)."""

    instructions_per_s: float = 0.0
    llc_references_per_s: float = 0.0
    llc_hits_per_s: float = 0.0

    @property
    def llc_misses_per_s(self) -> float:
        return self.llc_references_per_s - self.llc_hits_per_s

    @property
    def llc_hit_ratio(self) -> float:
        if self.llc_references_per_s <= 0:
            return 0.0
        return self.llc_hits_per_s / self.llc_references_per_s

    @property
    def misses_per_instruction(self) -> float:
        if self.instructions_per_s <= 0:
            return 0.0
        return self.llc_misses_per_s / self.instructions_per_s

    def combined(self, other: "CounterRates") -> "CounterRates":
        return CounterRates(
            self.instructions_per_s + other.instructions_per_s,
            self.llc_references_per_s + other.llc_references_per_s,
            self.llc_hits_per_s + other.llc_hits_per_s,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float round trip)."""
        return {
            "instructions_per_s": self.instructions_per_s,
            "llc_references_per_s": self.llc_references_per_s,
            "llc_hits_per_s": self.llc_hits_per_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CounterRates":
        return cls(
            instructions_per_s=payload["instructions_per_s"],
            llc_references_per_s=payload["llc_references_per_s"],
            llc_hits_per_s=payload["llc_hits_per_s"],
        )


@dataclass
class QueryResult:
    """Simulation outcome for one query."""

    name: str
    throughput_tuples_per_s: float
    per_tuple_seconds: float
    queries_per_s: float
    region_hit_ratios: dict[str, float] = field(default_factory=dict)
    region_l2_fractions: dict[str, float] = field(default_factory=dict)
    time_breakdown: dict[str, float] = field(default_factory=dict)
    dram_bytes_per_s: float = 0.0
    bandwidth_slowdown: float = 1.0
    counters: CounterRates = field(default_factory=CounterRates)

    def to_dict(self) -> dict:
        """JSON-serializable form, exact to the last float bit.

        JSON serializes floats via ``repr``, which round-trips every
        finite IEEE-754 double exactly — the simulation cache relies
        on this to keep cached reruns byte-identical to cold solves.
        """
        return {
            "name": self.name,
            "throughput_tuples_per_s": self.throughput_tuples_per_s,
            "per_tuple_seconds": self.per_tuple_seconds,
            "queries_per_s": self.queries_per_s,
            "region_hit_ratios": dict(self.region_hit_ratios),
            "region_l2_fractions": dict(self.region_l2_fractions),
            "time_breakdown": dict(self.time_breakdown),
            "dram_bytes_per_s": self.dram_bytes_per_s,
            "bandwidth_slowdown": self.bandwidth_slowdown,
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        return cls(
            name=payload["name"],
            throughput_tuples_per_s=payload["throughput_tuples_per_s"],
            per_tuple_seconds=payload["per_tuple_seconds"],
            queries_per_s=payload["queries_per_s"],
            region_hit_ratios=dict(payload["region_hit_ratios"]),
            region_l2_fractions=dict(payload["region_l2_fractions"]),
            time_breakdown=dict(payload["time_breakdown"]),
            dram_bytes_per_s=payload["dram_bytes_per_s"],
            bandwidth_slowdown=payload["bandwidth_slowdown"],
            counters=CounterRates.from_dict(payload["counters"]),
        )


@dataclass
class _OccupancyContext:
    """Rate-independent arrays for one ``simulate()`` call.

    Built once per call for any segment count; every fixed-point round
    scales them by the current throughput vector instead of rebuilding
    actor objects.  *Entries* are the composition's (query, region)
    pairs: the ``n_active`` regions with a non-zero LLC coefficient
    first, then the idle ones, each group in query order.  *Slots* are
    an entry's appearances in a segment: ``slots[s]`` covers segment
    ``s``'s members in ``segment.members`` order, regions in profile
    order, and ``base_weights`` holds each slot's capacity-proportional
    placement weight.
    """

    keys: list
    owner: "np.ndarray"
    working: "np.ndarray"
    coeff: "np.ndarray"
    n_active: int
    per_line_coeff: "np.ndarray"
    idle_hits: dict
    stream_coeff: "np.ndarray"
    capacity: list
    slots: list
    slot_entry: "np.ndarray"
    slot_working: "np.ndarray"
    # (query, region, working lines) per slot.
    slot_info: list
    base_weights: list
    # Per segment: (query index, stream weight) per member.
    stream_weights: list
    # Entries spanning >= 2 segments, in the order the re-placement
    # first meets them: entry -> (working lines, {segment: slot}).
    spans: dict

    def placement(self, order: list, ranking: list) -> list:
        """Greedy re-placement weights.

        Entries in ``order`` (hottest first) fill their segments in
        ``ranking`` order (longest characteristic time first) up to a
        residual shared by all entries; any overflow is spread
        capacity-proportionally.
        """
        weights = list(self.base_weights)
        capacity = self.capacity
        residual = list(capacity)
        for e in order:
            working_lines, where = self.spans[e]
            remaining = working_lines
            placed = {}
            for seg_index in ranking:
                slot = where.get(seg_index)
                if slot is None:
                    continue
                take = min(remaining, residual[seg_index])
                placed[slot] = take
                residual[seg_index] -= take
                remaining -= take
            if remaining > 0:
                total_capacity = sum(capacity[s] for s in where)
                for seg_index, slot in where.items():
                    placed[slot] += (
                        remaining * capacity[seg_index] / total_capacity
                    )
            for slot in where.values():
                weights[slot] = placed[slot] / working_lines
        return weights


def system_counters(results: dict[str, QueryResult]) -> CounterRates:
    """Socket-wide counter rates (what PCM reports for the machine)."""
    total = CounterRates()
    for result in results.values():
        total = total.combined(result.counters)
    return total


class WorkloadSimulator:
    """Solves the throughput/occupancy/bandwidth fixed point."""

    def __init__(
        self,
        spec: SystemSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
        latency: LatencyModel | None = None,
        max_iterations: int = 300,
        damping: float = 0.4,
        tolerance: float = 1e-6,
    ) -> None:
        if not 0.0 < damping <= 1.0:
            raise ModelError(f"damping must be in (0, 1]: {damping}")
        self.spec = spec
        self.calibration = calibration
        self.latency = latency if latency is not None else LatencyModel(spec)
        self.max_iterations = max_iterations
        self.damping = damping
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def simulate(self, queries: list[QuerySpec]) -> dict[str, QueryResult]:
        """Solve the workload's steady state.

        When the queries' summed core counts oversubscribe the socket
        (the paper runs each query with the full physical-core
        concurrency limit, so two queries time-share cores as SMT
        siblings), a proportional compute penalty is applied; memory
        behaviour is left to the contention models.
        """
        if not queries:
            raise ModelError("simulate requires at least one query")
        names = [q.name for q in queries]
        if len(names) != len(set(names)):
            raise ModelError(f"duplicate query names: {names}")
        with runtime.tracer.span(
            "simulate", queries=",".join(names)
        ):
            return self._simulate(queries)

    def simulate_many(
        self, compositions: list[list[QuerySpec]]
    ) -> list[dict[str, QueryResult]]:
        """Solve several compositions in one batched call.

        Each composition gets exactly the fixed point
        :meth:`simulate` would have produced (the results are
        bit-identical), but the per-query preparation constants —
        latency-model fractions, per-tuple coefficients — are shared
        across compositions through one prepare memo, so a population
        of overlapping hypothetical node states (the planner's batch
        scoring path) pays for each distinct ``(query, cores, mask,
        smt)`` shape once instead of once per composition.
        """
        if not compositions:
            return []
        prepare_cache: dict = {}
        results = []
        with runtime.tracer.span(
            "simulate_batch", compositions=len(compositions)
        ):
            runtime.metrics.counter(
                "simulator.batch.compositions"
            ).inc(len(compositions))
            for queries in compositions:
                if not queries:
                    raise ModelError(
                        "simulate requires at least one query"
                    )
                names = [q.name for q in queries]
                if len(names) != len(set(names)):
                    raise ModelError(
                        f"duplicate query names: {names}"
                    )
                results.append(
                    self._simulate(
                        queries, prepare_cache=prepare_cache
                    )
                )
        return results

    def _simulate(
        self,
        queries: list[QuerySpec],
        prepare_cache: dict | None = None,
    ) -> dict[str, QueryResult]:
        # SMT contention: when the workload demands more cores than the
        # socket has, the surplus threads time-share.  A query whose
        # threads all collide (e.g. a 2-core OLTP pool on a machine
        # saturated by a 22-core scan) pays the full hyper-thread
        # penalty; a query with only a few contended cores pays
        # proportionally.
        total_cores = sum(q.cores for q in queries)
        surplus = max(0, total_cores - self.spec.cores)
        smt_factors = {}
        for q in queries:
            contended_share = min(1.0, surplus / q.cores)
            smt_factors[q.name] = 1.0 + (
                self.calibration.smt_compute_factor - 1.0
            ) * contended_share

        masks = {q.name: q.mask for q in queries}
        segments = decompose_masks(masks, self.spec.llc.ways)
        line_bytes = self.spec.llc.line_bytes
        way_lines = self.spec.llc.way_bytes / line_bytes
        allowed_lines = {
            q.name: bin(q.mask).count("1") * way_lines for q in queries
        }

        if prepare_cache is None:
            prepared = {
                q.name: self._prepare(q, smt_factors[q.name])
                for q in queries
            }
        else:
            # Batched path: identical (query, cores, mask, smt) shapes
            # across compositions share one prepared dict.  The dicts
            # are read-only after _prepare, so sharing is safe.
            prepared = {}
            for q in queries:
                shape = (
                    q.name, id(q.profile), q.cores, q.mask,
                    smt_factors[q.name],
                )
                entry = prepare_cache.get(shape)
                if entry is None:
                    entry = prepare_cache[shape] = self._prepare(
                        q, smt_factors[q.name]
                    )
                prepared[q.name] = entry
        throughput = {
            q.name: q.cores / prepared[q.name]["base_tuple_seconds"]
            for q in queries
        }
        hit_ratios: dict[str, dict[str, float]] = {
            q.name: {r.name: 1.0 for r in q.profile.regions} for q in queries
        }
        slowdowns = {q.name: 1.0 for q in queries}
        context = self._occupancy_context(
            queries, prepared, segments, allowed_lines, way_lines
        )

        rounds = 0
        converged = False
        for _ in range(self.max_iterations):
            rounds += 1
            hit_ratios = self._solve_occupancy(queries, throughput, context)
            usages = [
                self._bandwidth_usage(q, prepared[q.name], throughput[q.name],
                                      hit_ratios[q.name])
                for q in queries
            ]
            solution = solve_bandwidth(
                usages, self.spec.dram.bandwidth_bytes_per_s
            )
            slowdowns = solution.slowdowns

            max_change = 0.0
            for q in queries:
                per_tuple, _ = self._per_tuple_time(
                    q, prepared[q.name], hit_ratios[q.name],
                    slowdowns[q.name],
                )
                target = q.cores / per_tuple
                updated = (
                    throughput[q.name] ** (1 - self.damping)
                    * target ** self.damping
                )
                change = abs(updated - throughput[q.name]) / max(
                    throughput[q.name], 1e-30
                )
                max_change = max(max_change, change)
                throughput[q.name] = updated
            if max_change < self.tolerance:
                converged = True
                break

        metrics = runtime.metrics
        metrics.counter("simulator.solves").inc()
        metrics.counter("simulator.fixed_point_rounds").inc(rounds)
        if not converged:
            metrics.counter("simulator.convergence_failures").inc()

        return self._build_results(
            queries, prepared, throughput, hit_ratios, slowdowns
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _prepare(self, query: QuerySpec, smt_factor: float) -> dict:
        """Precompute per-query constants that do not move in the loop."""
        profile = query.profile
        line_bytes = self.spec.llc.line_bytes
        l2_fractions = {
            region.name: self.latency.l2_hit_fraction(
                region.total_bytes, region.shared, query.cores
            )
            for region in profile.regions
        }
        llc_accesses_per_tuple = {
            region.name: region.accesses_per_tuple
            * (1.0 - l2_fractions[region.name])
            for region in profile.regions
        }
        stream_lines_per_tuple = profile.stream_bytes_per_tuple / line_bytes
        compute_seconds = (
            profile.compute_cycles_per_tuple * smt_factor * self.spec.cycle_s
        )
        ways = bin(query.mask).count("1")
        base_stream_seconds = (
            profile.stream_bytes_per_tuple
            / self.calibration.per_core_stream_bandwidth
        )
        # Optimistic first guess: everything hits, no contention.
        base_random = sum(
            llc_accesses_per_tuple[r.name]
            * self.latency.random_access_cycles(
                l2_fractions[r.name], 1.0, profile.mlp
            )
            * self.spec.cycle_s
            + r.accesses_per_tuple
            * l2_fractions[r.name]
            * self.latency.l2_cycles
            / profile.mlp
            * self.spec.cycle_s
            for r in profile.regions
        )
        base = max(
            compute_seconds + base_random + base_stream_seconds, 1e-15
        )
        return {
            "l2_fractions": l2_fractions,
            "llc_accesses_per_tuple": llc_accesses_per_tuple,
            "stream_lines_per_tuple": stream_lines_per_tuple,
            "compute_seconds": compute_seconds,
            "ways": ways,
            "base_tuple_seconds": base,
            # Hot-loop constants: the properties/lookups below are
            # re-read on every fixed-point round.
            "stream_bytes_per_tuple": profile.stream_bytes_per_tuple,
            "base_stream_seconds": base_stream_seconds,
            # (name, llc accesses/tuple, raw accesses/tuple,
            #  l2 fraction, software_managed) per region.
            "region_rows": tuple(
                (
                    region.name,
                    llc_accesses_per_tuple[region.name],
                    region.accesses_per_tuple,
                    l2_fractions[region.name],
                    region.software_managed,
                )
                for region in profile.regions
            ),
        }

    def _occupancy_context(
        self,
        queries: list[QuerySpec],
        prepared: dict[str, dict],
        segments,
        allowed_lines: dict[str, float],
        way_lines: float,
    ) -> _OccupancyContext:
        """Precompute the rate-independent arrays of one composition."""
        line_bytes = self.spec.llc.line_bytes
        rows = [
            (q_index, region.name,
             prepared[q.name]["llc_accesses_per_tuple"][region.name],
             max(1.0, region.total_bytes / line_bytes))
            for q_index, q in enumerate(queries)
            for region in q.profile.regions
        ]
        # Active regions first; idle ones (zero LLC coefficient) never
        # miss, same as the actor path.
        entries = [row for row in rows if row[2] > 0]
        n_active = len(entries)
        entries += [row for row in rows if not row[2] > 0]
        keys = [(queries[row[0]].name, row[1]) for row in entries]
        entry_of = {key: e for e, key in enumerate(keys)}
        idle_hits: dict[str, dict[str, float]] = {q.name: {} for q in queries}
        for name, region_name in keys[n_active:]:
            idle_hits[name][region_name] = 1.0
        working = np.asarray([row[3] for row in entries], dtype=np.float64)
        coeff = np.asarray([row[2] for row in entries], dtype=np.float64)

        by_name = {q.name: (q_index, q) for q_index, q in enumerate(queries)}
        capacity = [segment.ways * way_lines for segment in segments]
        slots: list[range] = []
        slot_entry: list[int] = []
        base_weights: list[float] = []
        stream_weights: list[list[tuple[int, float]]] = []
        spans: dict[int, dict[int, int]] = {}
        for seg_index, segment in enumerate(segments):
            start = len(slot_entry)
            seg_streams = []
            for member in segment.members:
                q_index, query = by_name[member]
                base = capacity[seg_index] / allowed_lines[member]
                for region in query.profile.regions:
                    e = entry_of[(member, region.name)]
                    spans.setdefault(e, {})[seg_index] = len(slot_entry)
                    slot_entry.append(e)
                    base_weights.append(base)
                seg_streams.append((q_index, base))
            slots.append(range(start, len(slot_entry)))
            stream_weights.append(seg_streams)

        return _OccupancyContext(
            keys=keys,
            owner=np.asarray([row[0] for row in entries], dtype=np.intp),
            working=working,
            coeff=coeff,
            n_active=n_active,
            per_line_coeff=coeff[:n_active] / working[:n_active],
            idle_hits=idle_hits,
            stream_coeff=np.asarray([
                prepared[q.name]["stream_lines_per_tuple"] for q in queries
            ], dtype=np.float64),
            capacity=capacity,
            slots=slots,
            slot_entry=np.asarray(slot_entry, dtype=np.intp),
            slot_working=working[slot_entry],
            slot_info=[(*keys[e], entries[e][3]) for e in slot_entry],
            base_weights=base_weights,
            stream_weights=stream_weights,
            spans={e: (entries[e][3], where)
                   for e, where in spans.items() if len(where) > 1},
        )

    def _solve_occupancy(
        self,
        queries: list[QuerySpec],
        throughput: dict[str, float],
        ctx: _OccupancyContext,
    ) -> dict[str, dict[str, float]]:
        """Solve every way-mask segment; blend per-region hit ratios.

        A region spanning several segments distributes its working set
        and accesses across them.  Real LRU residency is not uniform:
        lines survive where eviction pressure is low, so a region that
        fits into a clean (e.g. exclusive) segment effectively migrates
        there, while a region larger than the clean capacity spills the
        remainder into contested segments.  We capture this with a
        greedy placement (:meth:`_OccupancyContext.placement`) between
        three solve rounds.  Streams keep capacity-proportional weights.

        Struct-of-arrays over the per-call context, skipping work whose
        inputs repeat exactly: a segment whose slot weights did not move
        keeps the previous round's characteristic time (``che.solves``
        counts only solves that run).  The float
        operations replay the actor path's (``solve_segment``) in its
        order, so results are bit-identical (docs/PERFORMANCE.md).
        One-segment compositions take :meth:`_solve_occupancy_single`.
        """
        if len(ctx.capacity) == 1:
            return self._solve_occupancy_single(queries, throughput, ctx)

        rates = [throughput[q.name] for q in queries]
        rate_coeff = np.asarray(rates)[ctx.owner] * ctx.coeff
        if (rate_coeff < 0).any():
            key = ctx.keys[int(np.flatnonzero(rate_coeff < 0)[0])]
            raise ModelError(
                f"region {key[0]}/{key[1]}: access_rate must be >= 0"
            )
        slot_rate = rate_coeff[ctx.slot_entry]
        insertion = [
            rate * coeff
            for rate, coeff in zip(rates, ctx.stream_coeff.tolist())
        ]
        streaming = [
            float(sum(
                insertion[q_index] * weight
                for q_index, weight in seg_streams
                if insertion[q_index] > 0
            ))
            for seg_streams in ctx.stream_weights
        ]
        hotness = (rate_coeff / ctx.working).tolist()
        order = sorted(ctx.spans, key=lambda e: -hotness[e])
        capacity = ctx.capacity
        segments = range(len(capacity))

        weights = ctx.base_weights
        times = [0.0] * len(capacity)
        stale = [True] * len(capacity)
        for placement_round in range(3):
            if any(stale):
                w = np.asarray(weights, dtype=np.float64)
                lines = ctx.slot_working * w
                accesses = slot_rate * w
                solved = (w > 0) & (accesses > 0)
                for seg_index in segments:
                    if not stale[seg_index]:
                        continue
                    seg = ctx.slots[seg_index]
                    keep = solved[seg.start:seg.stop]
                    seg_lines = lines[seg.start:seg.stop][keep]
                    per_line = (
                        accesses[seg.start:seg.stop][keep] / seg_lines
                    )
                    with runtime.tracer.span("solve_segment"):
                        times[seg_index] = solve_characteristic_time_arrays(
                            seg_lines, per_line, streaming[seg_index],
                            capacity[seg_index],
                        )
            if placement_round == 2:
                break
            ranking = sorted(segments, key=lambda s: -times[s])
            placed = ctx.placement(order, ranking)
            stale = [False] * len(capacity)
            for _, where in ctx.spans.values():
                for seg_index, slot in where.items():
                    if placed[slot] != weights[slot]:
                        stale[seg_index] = True
            weights = placed

        # Blend the final round's Che hit ratios segment by segment.
        # math.expm1, not np.expm1: the two differ in the last bit.
        blended: dict[str, dict[str, float]] = {q.name: {} for q in queries}
        rate_list = slot_rate.tolist()
        for seg_index, seg in enumerate(ctx.slots):
            t_char = times[seg_index]
            for slot in seg:
                weight = weights[slot]
                if weight <= 0:
                    continue
                member, region_name, working_lines = ctx.slot_info[slot]
                access_rate = rate_list[slot] * weight
                if access_rate == 0 or math.isinf(t_char):
                    hit = 1.0
                else:
                    lines_in = working_lines * weight
                    hit = (
                        lines_in * -math.expm1(
                            -(access_rate / lines_in) * t_char
                        )
                    ) / lines_in
                hits = blended[member]
                hits[region_name] = (
                    hits.get(region_name, 0.0) + weight * hit
                )

        for q in queries:
            hits = blended[q.name]
            for region in q.profile.regions:
                hits[region.name] = min(
                    1.0, max(0.0, hits.get(region.name, 1.0))
                )
        return blended

    def _solve_occupancy_single(
        self,
        queries: list[QuerySpec],
        throughput: dict[str, float],
        ctx: _OccupancyContext,
    ) -> dict[str, dict[str, float]]:
        """Struct-of-arrays solve for a one-segment composition.

        Uniform-mask compositions (the "none" policy, and any scheme
        where every class shares one mask) have unit weights and no
        re-placement: each query's whole working set and traffic lands
        in the single shared segment, so blended hit ratios come
        straight from one characteristic-time solve over the active
        entries.  Its arithmetic (per-line coefficients, a dot-product
        stream rate, a vectorized ``expm1``) is its own, not the
        multi-segment path's — the two agree only to rounding.
        """
        n = ctx.n_active
        rates = np.fromiter(
            (throughput[q.name] for q in queries),
            dtype=np.float64,
            count=len(queries),
        )
        per_line = rates[ctx.owner[:n]] * ctx.per_line_coeff
        streaming = float(rates @ ctx.stream_coeff)
        with runtime.tracer.span("solve_segment"):
            t_char = solve_characteristic_time_arrays(
                ctx.working[:n], per_line, streaming, ctx.capacity[0]
            )
        blended = {
            name: dict(hits) for name, hits in ctx.idle_hits.items()
        }
        if math.isinf(t_char):
            solved = np.ones(n, dtype=np.float64)
        else:
            with np.errstate(over="ignore"):
                solved = -np.expm1(-per_line * t_char)
        for (name, region_name), hit in zip(ctx.keys, solved.tolist()):
            blended[name][region_name] = min(1.0, max(0.0, hit))
        return blended

    def _effective_hit(self, region, hit: float) -> float:
        """Apply the software-blocking discount to a region's hit ratio.

        Operators that partition their probes when a structure outgrows
        the cache amortise each fetched line over several accesses; the
        model charges only a fraction of the nominal capacity misses.
        """
        if not region.software_managed:
            return hit
        discount = self.calibration.software_managed_miss_discount
        return 1.0 - (1.0 - hit) * discount

    def _bandwidth_usage(
        self,
        query: QuerySpec,
        prep: dict,
        throughput: float,
        hits: dict[str, float],
    ) -> BandwidthUsage:
        line_bytes = self.spec.llc.line_bytes
        stream_bytes = throughput * prep["stream_bytes_per_tuple"]
        discount = self.calibration.software_managed_miss_discount
        miss_bytes = 0.0
        for name, coeff, _, _, managed in prep["region_rows"]:
            hit = hits[name]
            if managed:
                hit = 1.0 - (1.0 - hit) * discount
            miss_bytes += (
                throughput * coeff * (1.0 - hit) * line_bytes
            )
        return BandwidthUsage(query.name, stream_bytes, miss_bytes)

    def _per_tuple_time(
        self,
        query: QuerySpec,
        prep: dict,
        hits: dict[str, float],
        slowdown: float,
    ) -> tuple[float, dict[str, float]]:
        profile = query.profile
        cycle_s = self.spec.cycle_s
        slow = max(1.0, slowdown)
        # Inlined LatencyModel.random_access_cycles (same arithmetic,
        # constants hoisted): this loop runs once per query per
        # fixed-point round and dominated the non-solver round cost.
        mlp = profile.mlp
        l2_cycles = self.latency.l2_cycles
        llc_cycles = self.latency.llc_cycles
        dram_cycles = self.latency.dram_cycles * slow
        discount = self.calibration.software_managed_miss_discount
        random_seconds = 0.0
        for name, _, accesses, l2_fraction, managed in prep[
            "region_rows"
        ]:
            hit = hits[name]
            if managed:
                hit = 1.0 - (1.0 - hit) * discount
            raw = l2_fraction * l2_cycles + (1.0 - l2_fraction) * (
                hit * llc_cycles + (1.0 - hit) * dram_cycles
            )
            random_seconds += accesses * (raw / mlp) * cycle_s

        stream_seconds = prep["base_stream_seconds"] * slow
        # Single-way masks defeat the prefetcher (paper Sec. V-B): add a
        # demand-latency charge per streamed line.
        stream_seconds += (
            prep["stream_lines_per_tuple"]
            * self.latency.streaming_cycles_per_line(prep["ways"], slow)
            * cycle_s
        )

        breakdown = {
            "compute": prep["compute_seconds"],
            "random": random_seconds,
            "stream": stream_seconds,
        }
        total = max(sum(breakdown.values()), 1e-15)
        return total, breakdown

    def _build_results(
        self,
        queries: list[QuerySpec],
        prepared: dict[str, dict],
        throughput: dict[str, float],
        hit_ratios: dict[str, dict[str, float]],
        slowdowns: dict[str, float],
    ) -> dict[str, QueryResult]:
        line_bytes = self.spec.llc.line_bytes
        results: dict[str, QueryResult] = {}
        for query in queries:
            prep = prepared[query.name]
            rate = throughput[query.name]
            per_tuple, breakdown = self._per_tuple_time(
                query, prep, hit_ratios[query.name], slowdowns[query.name]
            )
            usage = self._bandwidth_usage(
                query, prep, rate, hit_ratios[query.name]
            )
            stream_refs = rate * prep["stream_lines_per_tuple"]
            region_refs = sum(
                rate * prep["llc_accesses_per_tuple"][r.name]
                for r in query.profile.regions
            )
            region_hits = sum(
                rate
                * prep["llc_accesses_per_tuple"][r.name]
                * self._effective_hit(r, hit_ratios[query.name][r.name])
                for r in query.profile.regions
            )
            counters = CounterRates(
                instructions_per_s=rate * query.profile.instructions_per_tuple,
                llc_references_per_s=region_refs + stream_refs,
                llc_hits_per_s=region_hits
                + stream_refs * self.calibration.stream_llc_hit_fraction,
            )
            results[query.name] = QueryResult(
                name=query.name,
                throughput_tuples_per_s=rate,
                per_tuple_seconds=per_tuple,
                queries_per_s=rate / query.profile.tuples,
                region_hit_ratios=dict(hit_ratios[query.name]),
                region_l2_fractions=dict(prep["l2_fractions"]),
                time_breakdown=breakdown,
                # Delivered traffic: demand scaled back by the queueing
                # slowdown (grants cap what actually crosses the bus).
                dram_bytes_per_s=(
                    usage.total / max(1.0, slowdowns[query.name])
                ),
                bandwidth_slowdown=slowdowns[query.name],
                counters=counters,
            )
        return results
