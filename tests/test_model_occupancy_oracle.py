"""The struct-of-arrays multi-segment solve against the actor path.

``ActorPathSimulator`` keeps the multi-segment occupancy solve as it
was written first: ``RegionActor``/``StreamActor`` objects per segment,
``solve_segment`` for every segment in each of three placement rounds,
and the greedy re-placement after every round.  ``WorkloadSimulator``
must produce byte-identical results (dict order included) on any
CAT-masked composition.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemSpec
from repro.model.occupancy import RegionActor, StreamActor, solve_segment
from repro.model.simulator import QuerySpec, WorkloadSimulator
from repro.workloads.microbench import query1, query2, query3
from repro.workloads.s4hana import oltp_query_6_columns

SPEC = SystemSpec()
PROFILES = (
    query1().profile(),
    query2(10**2, 10**2).profile(22),
    query2(10**6, 10**5).profile(22),
    query3(10**8).profile(22),
    oltp_query_6_columns().profile(),
)


class ActorPathSimulator(WorkloadSimulator):
    """Reference: the multi-segment solve over actor objects."""

    def _occupancy_context(
        self, queries, prepared, segments, allowed_lines, way_lines
    ):
        ctx = super()._occupancy_context(
            queries, prepared, segments, allowed_lines, way_lines
        )
        ctx.reference = (prepared, segments, allowed_lines, way_lines)
        return ctx

    def _solve_occupancy(self, queries, throughput, ctx):
        if len(ctx.capacity) == 1:
            return super()._solve_occupancy(queries, throughput, ctx)
        prepared, segments, allowed_lines, way_lines = ctx.reference
        line_bytes = self.spec.llc.line_bytes
        by_name = {q.name: q for q in queries}

        weights: dict[tuple[str, str], dict[int, float]] = {}
        for seg_index, segment in enumerate(segments):
            seg_lines = segment.ways * way_lines
            for member in segment.members:
                base = seg_lines / allowed_lines[member]
                for region in by_name[member].profile.regions:
                    weights.setdefault((member, region.name), {})[
                        seg_index
                    ] = base

        for _ in range(3):
            blended: dict[str, dict[str, float]] = {
                q.name: {} for q in queries
            }
            seg_times: dict[int, float] = {}
            for seg_index, segment in enumerate(segments):
                seg_lines = segment.ways * way_lines
                regions, streams = [], []
                for member in segment.members:
                    query = by_name[member]
                    prep = prepared[member]
                    rate = throughput[member]
                    stream_weight = seg_lines / allowed_lines[member]
                    for region in query.profile.regions:
                        weight = weights[(member, region.name)][seg_index]
                        if weight <= 0:
                            continue
                        access_rate = (
                            rate * prep["llc_accesses_per_tuple"][region.name]
                        )
                        working_lines = max(
                            1.0, region.total_bytes / line_bytes
                        )
                        regions.append(RegionActor(
                            member, region.name,
                            working_lines * weight, access_rate * weight,
                        ))
                    insertion = rate * prep["stream_lines_per_tuple"]
                    if insertion > 0:
                        streams.append(StreamActor(
                            member, "input", insertion * stream_weight
                        ))
                solution = solve_segment(segment, regions, streams, way_lines)
                seg_times[seg_index] = solution.t_char
                for key, hit in solution.region_hit_ratios.items():
                    member, region_name = key
                    weight = weights[key][seg_index]
                    blended[member][region_name] = (
                        blended[member].get(region_name, 0.0) + weight * hit
                    )

            residual = {
                seg_index: segment.ways * way_lines
                for seg_index, segment in enumerate(segments)
            }
            hotness = []
            for member, region_name in weights:
                region = by_name[member].profile.region(region_name)
                working_lines = max(1.0, region.total_bytes / line_bytes)
                rate = (
                    throughput[member]
                    * prepared[member]["llc_accesses_per_tuple"][region_name]
                )
                hotness.append((rate / working_lines, (member, region_name)))
            hotness.sort(key=lambda item: -item[0])
            for _, key in hotness:
                seg_weights = weights[key]
                if len(seg_weights) < 2:
                    continue
                region = by_name[key[0]].profile.region(key[1])
                working_lines = max(1.0, region.total_bytes / line_bytes)
                order = sorted(seg_weights, key=lambda i: -seg_times[i])
                remaining = working_lines
                placed = {idx: 0.0 for idx in seg_weights}
                for seg_index in order:
                    take = min(remaining, residual[seg_index])
                    placed[seg_index] = take
                    residual[seg_index] -= take
                    remaining -= take
                if remaining > 0:
                    total_capacity = sum(
                        segments[idx].ways * way_lines for idx in seg_weights
                    )
                    for seg_index in seg_weights:
                        capacity = segments[seg_index].ways * way_lines
                        placed[seg_index] += (
                            remaining * capacity / total_capacity
                        )
                for seg_index in seg_weights:
                    seg_weights[seg_index] = placed[seg_index] / working_lines

        for q in queries:
            for region in q.profile.regions:
                blended[q.name].setdefault(region.name, 1.0)
                blended[q.name][region.name] = min(
                    1.0, max(0.0, blended[q.name][region.name])
                )
        return blended


def _report(simulator, queries) -> str:
    return json.dumps(
        [r.to_dict() for r in simulator.simulate(queries).values()]
    )


compositions = st.lists(
    st.tuples(
        st.sampled_from(range(len(PROFILES))),
        st.integers(min_value=1, max_value=SPEC.cores),
        st.integers(min_value=1, max_value=SPEC.full_mask),
    ),
    min_size=2,
    max_size=3,
)


@given(rows=compositions)
@settings(max_examples=60, deadline=None)
def test_struct_of_arrays_solve_matches_actor_path(rows):
    queries = [
        QuerySpec(f"q{i}", PROFILES[p].with_name(f"q{i}"), cores, mask)
        for i, (p, cores, mask) in enumerate(rows)
    ]
    assert _report(WorkloadSimulator(SPEC), queries) == _report(
        ActorPathSimulator(SPEC), queries
    )
