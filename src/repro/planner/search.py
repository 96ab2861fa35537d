"""Beam/local search over the blueprint space.

The enumerated family (:func:`~repro.planner.blueprint
.enumerate_blueprints`) is deliberately bounded: spreads, batch
isolation, full splits — at most 64 structurally interesting
candidates.  With scoring batched
(:meth:`~repro.planner.blueprint.BlueprintScorer.score_many`), a plan
tick can afford to *search*: start from the enumerated family as the
seed frontier, expand deterministic neighborhoods — move one group
replica, resize a group's replica count, swap two groups' homes,
split/merge co-located groups, change one node's scheme, grow/shrink
the fleet — and keep the best ``beam_width`` candidates per round.
The expanded space covers per-group replica counts and heterogeneous
per-node scheme assignments the enumerator never emits.

Determinism contract: neighborhoods are generated in canonical key
order, candidates are ranked by ``(round(score, 9),
blueprint.key())``, and the only randomness — subsampling when a
round's neighborhood exceeds the remaining ``max_candidates`` budget
— draws from a generator seeded by ``derive_from(seed,
"planner/search/<round>")``.  The same seed and rates always visit
the same candidates in the same order.  Because the seed frontier is
scored too, the search winner can never rank worse than the
enumerated best.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import seeding
from ..errors import PlannerError
from .blueprint import (
    BLUEPRINT_SCHEMES,
    BatchScores,
    Blueprint,
    BlueprintScore,
    BlueprintScorer,
)

#: Search strategies the planner accepts: the legacy bounded
#: enumeration and beam/local search seeded by it.
SEARCH_STRATEGIES = ("enum", "beam")


@dataclass(frozen=True)
class SearchConfig:
    """Beam-search knobs (part of the planner's determinism domain)."""

    strategy: str = "enum"
    beam_width: int = 16
    steps: int = 4
    max_candidates: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in SEARCH_STRATEGIES:
            raise PlannerError(
                f"search strategy must be one of {SEARCH_STRATEGIES}: "
                f"{self.strategy!r}"
            )
        if self.beam_width < 1:
            raise PlannerError(
                f"beam width must be >= 1: {self.beam_width}"
            )
        if self.steps < 1:
            raise PlannerError(
                f"search steps must be >= 1: {self.steps}"
            )
        if self.max_candidates < 1:
            raise PlannerError(
                "search candidate budget must be >= 1: "
                f"{self.max_candidates}"
            )

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "beam_width": self.beam_width,
            "steps": self.steps,
            "max_candidates": self.max_candidates,
        }


@dataclass
class SearchStats:
    """One search invocation's accounting (report-safe: counts only,
    never wall time — wall time goes to the ``planner.search.*``
    metrics so reports stay byte-identical across machines)."""

    rounds: int = 0
    candidates_scored: int = 0
    frontier_improvements: int = 0
    truncated: int = 0

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "candidates_scored": self.candidates_scored,
            "frontier_improvements": self.frontier_improvements,
            "truncated": self.truncated,
        }


@dataclass(frozen=True)
class ScoredEntry:
    """One evaluated candidate: its ranking scalar plus a handle back
    into the batch it was scored in (full scores materialize lazily)."""

    blueprint: Blueprint
    score: float
    batch: BatchScores
    row: int

    def materialize(self) -> BlueprintScore:
        return self.batch.materialize(self.row)


def scored_entries(batch: BatchScores) -> list[ScoredEntry]:
    """One :class:`ScoredEntry` per candidate of a scored batch."""
    return [
        ScoredEntry(
            blueprint=blueprint,
            score=float(batch.scores[row]),
            batch=batch,
            row=row,
        )
        for row, blueprint in enumerate(batch.blueprints)
    ]


@dataclass
class SearchResult:
    """Everything one search pass evaluated."""

    entries: dict = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)


# -- neighborhoods -----------------------------------------------------
#
# Each generator emits only valid blueprints (every group keeps a
# non-empty home inside the node range; schemes stay in the registry)
# in a deterministic order.  ``neighborhood`` concatenates them,
# drops the origin and duplicates, and returns canonical key order.


def _rebuild(
    nodes: int, placement: dict, schemes: tuple
) -> Blueprint:
    return Blueprint.build(nodes, placement, schemes)


def scheme_moves(blueprint: Blueprint) -> list[Blueprint]:
    """Change one node's CAT scheme (heterogeneous assignments)."""
    moves = []
    placement = blueprint.placement_map()
    for node in range(blueprint.nodes):
        for scheme in sorted(BLUEPRINT_SCHEMES):
            if scheme == blueprint.schemes[node]:
                continue
            schemes = (
                blueprint.schemes[:node]
                + (scheme,)
                + blueprint.schemes[node + 1:]
            )
            moves.append(
                _rebuild(blueprint.nodes, placement, schemes)
            )
    return moves


def move_replica_moves(blueprint: Blueprint) -> list[Blueprint]:
    """Move one of a group's home nodes somewhere else (the
    move-one-tenant neighborhood at replica granularity)."""
    moves = []
    for group, home in blueprint.placement:
        home_set = set(home)
        for source in home:
            for target in range(blueprint.nodes):
                if target in home_set:
                    continue
                placement = blueprint.placement_map()
                placement[group] = tuple(
                    sorted(home_set - {source} | {target})
                )
                moves.append(_rebuild(
                    blueprint.nodes, placement, blueprint.schemes
                ))
    return moves


def resize_replica_moves(blueprint: Blueprint) -> list[Blueprint]:
    """Grow or shrink one group's replica count by one node."""
    moves = []
    for group, home in blueprint.placement:
        home_set = set(home)
        for target in range(blueprint.nodes):
            if target in home_set:
                continue
            placement = blueprint.placement_map()
            placement[group] = tuple(sorted(home_set | {target}))
            moves.append(_rebuild(
                blueprint.nodes, placement, blueprint.schemes
            ))
        if len(home) > 1:
            for source in home:
                placement = blueprint.placement_map()
                placement[group] = tuple(
                    sorted(home_set - {source})
                )
                moves.append(_rebuild(
                    blueprint.nodes, placement, blueprint.schemes
                ))
    return moves


def swap_pair_moves(blueprint: Blueprint) -> list[Blueprint]:
    """Exchange two groups' home sets."""
    moves = []
    groups = blueprint.placement
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            first, first_home = groups[i]
            second, second_home = groups[j]
            if first_home == second_home:
                continue
            placement = blueprint.placement_map()
            placement[first] = second_home
            placement[second] = first_home
            moves.append(_rebuild(
                blueprint.nodes, placement, blueprint.schemes
            ))
    return moves


def split_merge_moves(blueprint: Blueprint) -> list[Blueprint]:
    """Split two co-located groups across their shared home, or merge
    two separated groups onto their combined home."""
    moves = []
    groups = blueprint.placement
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            first, first_home = groups[i]
            second, second_home = groups[j]
            if first_home == second_home:
                if len(first_home) < 2:
                    continue
                half = len(first_home) // 2
                placement = blueprint.placement_map()
                placement[first] = first_home[:half]
                placement[second] = first_home[half:]
                moves.append(_rebuild(
                    blueprint.nodes, placement, blueprint.schemes
                ))
            else:
                merged = tuple(
                    sorted(set(first_home) | set(second_home))
                )
                placement = blueprint.placement_map()
                placement[first] = merged
                placement[second] = merged
                moves.append(_rebuild(
                    blueprint.nodes, placement, blueprint.schemes
                ))
    return moves


def node_count_moves(
    blueprint: Blueprint,
    min_nodes: int,
    max_nodes: int,
) -> list[Blueprint]:
    """Grow or shrink the fleet by one node (autoscaling candidates).

    Growing appends an idle node (later rounds migrate groups onto
    it) and a spread variant where every group adopts it immediately.
    Shrinking drops the last node from every home; a group homed only
    there falls back to a spread over the survivors.
    """
    moves = []
    if blueprint.nodes + 1 <= max_nodes:
        grown = blueprint.nodes + 1
        schemes = blueprint.schemes + ("paper",)
        moves.append(_rebuild(
            grown, blueprint.placement_map(), schemes
        ))
        adopted = {
            group: tuple(home) + (grown - 1,)
            for group, home in blueprint.placement
        }
        moves.append(_rebuild(grown, adopted, schemes))
    if blueprint.nodes - 1 >= max(1, min_nodes):
        shrunk = blueprint.nodes - 1
        dropped = blueprint.nodes - 1
        placement = {}
        for group, home in blueprint.placement:
            survivors = tuple(n for n in home if n != dropped)
            placement[group] = (
                survivors if survivors else tuple(range(shrunk))
            )
        moves.append(_rebuild(
            shrunk, placement, blueprint.schemes[:shrunk]
        ))
    return moves


def neighborhood(
    blueprint: Blueprint,
    min_nodes: int | None = None,
    max_nodes: int | None = None,
) -> tuple[Blueprint, ...]:
    """Every one-move neighbor of ``blueprint``, deduplicated and in
    canonical key order.  ``min_nodes``/``max_nodes`` bound the
    ±node-count moves (both default to the blueprint's own node
    count, i.e. no resizing)."""
    if min_nodes is None:
        min_nodes = blueprint.nodes
    if max_nodes is None:
        max_nodes = blueprint.nodes
    candidates: list[Blueprint] = []
    candidates.extend(scheme_moves(blueprint))
    candidates.extend(move_replica_moves(blueprint))
    candidates.extend(resize_replica_moves(blueprint))
    candidates.extend(swap_pair_moves(blueprint))
    candidates.extend(split_merge_moves(blueprint))
    candidates.extend(
        node_count_moves(blueprint, min_nodes, max_nodes)
    )
    origin = blueprint.key()
    unique: dict[tuple, Blueprint] = {}
    for candidate in candidates:
        key = candidate.key()
        if key != origin:
            unique.setdefault(key, candidate)
    return tuple(
        unique[key] for key in sorted(unique)
    )


# -- the search --------------------------------------------------------


def _rank(entry: ScoredEntry) -> tuple:
    return (round(entry.score, 9), entry.blueprint.key())


def beam_search(
    scorer: BlueprintScorer,
    rates: dict,
    seeds,
    config: SearchConfig,
    min_nodes: int | None = None,
    max_nodes: int | None = None,
) -> SearchResult:
    """Deterministic beam search seeded by ``seeds``.

    Scores the seeds (so the result can never rank worse than the
    best seed), then expands the top ``beam_width`` candidates'
    neighborhoods for up to ``steps`` rounds, stopping early when a
    round produces nothing new or the ``max_candidates`` budget is
    spent.  All scoring goes through the batched pipeline.
    """
    result = SearchResult()
    entries = result.entries
    stats = result.stats

    def evaluate(blueprints: list[Blueprint]) -> None:
        batch = scorer.score_many(blueprints, rates)
        for entry in scored_entries(batch):
            entries[entry.blueprint.key()] = entry
        stats.candidates_scored += len(batch)

    unique_seeds: dict[tuple, Blueprint] = {}
    for seed in seeds:
        unique_seeds.setdefault(seed.key(), seed)
    if not unique_seeds:
        raise PlannerError("beam search needs at least one seed")
    evaluate(list(unique_seeds.values()))
    best_rank = min(_rank(e) for e in entries.values())

    for round_index in range(config.steps):
        budget = config.max_candidates - stats.candidates_scored
        if budget <= 0:
            break
        frontier = sorted(entries.values(), key=_rank)
        frontier = frontier[:config.beam_width]
        fresh: list[Blueprint] = []
        pending: set[tuple] = set()
        for entry in frontier:
            for candidate in neighborhood(
                entry.blueprint, min_nodes, max_nodes
            ):
                key = candidate.key()
                if key in entries or key in pending:
                    continue
                pending.add(key)
                fresh.append(candidate)
        if not fresh:
            break
        if len(fresh) > budget:
            # Seeded subsample: keep the round inside the budget
            # without always biasing toward the first frontier
            # member's neighborhood.
            rng = np.random.default_rng(seeding.derive_from(
                config.seed, f"planner/search/{round_index}"
            ))
            chosen = sorted(rng.choice(
                len(fresh), size=budget, replace=False
            ).tolist())
            stats.truncated += len(fresh) - budget
            fresh = [fresh[index] for index in chosen]
        evaluate(fresh)
        stats.rounds += 1
        round_best = min(_rank(e) for e in entries.values())
        if round_best < best_rank:
            best_rank = round_best
            stats.frontier_improvements += 1
    return result
