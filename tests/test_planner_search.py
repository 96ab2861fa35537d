"""Tests for the blueprint beam/local search
(repro.planner.search)."""

import pytest

from repro.cluster.workload import cluster_classes
from repro.config import DEFAULT_SYSTEM
from repro.errors import PlannerError
from repro.planner import (
    BLUEPRINT_SCHEMES,
    Blueprint,
    BlueprintScorer,
    SearchConfig,
    beam_search,
    enumerate_blueprints,
    neighborhood,
    spread_blueprint,
)
from repro.planner.search import (
    move_replica_moves,
    node_count_moves,
    resize_replica_moves,
    scheme_moves,
    split_merge_moves,
    swap_pair_moves,
)

GROUPS = ("batch", "olap", "oltp")

GENERATORS = (
    scheme_moves,
    move_replica_moves,
    resize_replica_moves,
    swap_pair_moves,
    split_merge_moves,
)


def _scorer(solve_memo=None):
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    return BlueprintScorer(
        DEFAULT_SYSTEM,
        classes=classes,
        targets={"olap": 1.2, "oltp": 0.6},
        max_concurrency=8,
        solve_memo=solve_memo if solve_memo is not None else {},
    )


def _rates(batch=8.0, olap=8.0, oltp=8.0):
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    by_tenant: dict = {}
    for name, cls in classes.items():
        by_tenant.setdefault(cls.tenant, []).append(name)
    rates = {}
    for tenant, total in (
        ("batch", batch), ("olap", olap), ("oltp", oltp)
    ):
        for name in by_tenant[tenant]:
            rates[name] = total / len(by_tenant[tenant])
    return rates


def _origins():
    origins = list(enumerate_blueprints(4, GROUPS))
    origins.append(Blueprint.build(
        3,
        {"batch": (2,), "olap": (0,), "oltp": (0, 1)},
        ("paper", "full", "paper"),
    ))
    origins.append(spread_blueprint(1, GROUPS, "full"))
    return origins


class TestNeighborhoodGenerators:
    # Satellite: every move generator emits only valid blueprints —
    # Blueprint.__post_init__ enforces coverage, home-set bounds and
    # scheme membership, so constructing them at all is the check; on
    # top we pin group preservation and determinism.

    def test_generators_produce_only_valid_blueprints(self):
        for origin in _origins():
            groups = {g for g, _ in origin.placement}
            for generate in GENERATORS:
                for move in generate(origin):
                    assert move.nodes == origin.nodes
                    assert {
                        g for g, _ in move.placement
                    } == groups
                    for scheme in move.schemes:
                        assert scheme in BLUEPRINT_SCHEMES

    def test_generators_are_deterministic(self):
        for origin in _origins():
            for generate in GENERATORS:
                first = [m.key() for m in generate(origin)]
                second = [m.key() for m in generate(origin)]
                assert first == second

    def test_scheme_moves_change_exactly_one_node(self):
        origin = spread_blueprint(3, GROUPS, "paper")
        for move in scheme_moves(origin):
            assert move.placement == origin.placement
            different = [
                node for node in range(3)
                if move.schemes[node] != origin.schemes[node]
            ]
            assert len(different) == 1

    def test_move_and_resize_preserve_or_step_replica_counts(self):
        origin = Blueprint.build(
            4,
            {"batch": (3,), "olap": (0, 1), "oltp": (0, 1, 2)},
            ("paper",) * 4,
        )
        sizes = {
            group: len(home) for group, home in origin.placement
        }
        for move in move_replica_moves(origin):
            moved = move.placement_map()
            assert {
                g: len(h) for g, h in moved.items()
            } == sizes
        for move in resize_replica_moves(origin):
            diff = [
                (g, len(h))
                for g, h in move.placement_map().items()
                if len(h) != sizes[g]
            ]
            assert len(diff) == 1
            group, size = diff[0]
            assert abs(size - sizes[group]) == 1

    def test_node_count_moves_step_by_one_and_respect_bounds(self):
        origin = spread_blueprint(3, GROUPS, "paper")
        moves = node_count_moves(origin, min_nodes=2, max_nodes=4)
        counts = sorted({m.nodes for m in moves})
        assert counts == [2, 4]
        assert node_count_moves(
            origin, min_nodes=3, max_nodes=3
        ) == []
        # A group homed only on the dropped node survives the shrink.
        lonely = Blueprint.build(
            3,
            {"batch": (2,), "olap": (0, 1), "oltp": (0, 1)},
            ("paper",) * 3,
        )
        for move in node_count_moves(lonely, 2, 3):
            if move.nodes == 2:
                assert move.placement_map()["batch"]

    def test_node_count_moves_round_trip_to_dict(self):
        # Satellite: ±node-count candidates survive the report
        # serialization path.
        origin = spread_blueprint(3, GROUPS, "paper")
        for move in node_count_moves(origin, 2, 4):
            payload = move.to_dict()
            rebuilt = Blueprint.build(
                payload["nodes"],
                {
                    group: tuple(home)
                    for group, home in payload["placement"].items()
                },
                tuple(payload["schemes"]),
            )
            assert rebuilt.key() == move.key()
            assert rebuilt.nodes == move.nodes

    def test_neighborhood_is_deduplicated_and_sorted(self):
        for origin in _origins():
            moves = neighborhood(origin, min_nodes=1, max_nodes=6)
            keys = [m.key() for m in moves]
            assert origin.key() not in keys
            assert len(set(keys)) == len(keys)
            assert keys == sorted(keys)

    def test_neighborhood_defaults_pin_the_node_count(self):
        origin = spread_blueprint(3, GROUPS, "paper")
        assert all(
            m.nodes == 3 for m in neighborhood(origin)
        )


class TestSearchConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(PlannerError, match="strategy"):
            SearchConfig(strategy="anneal")
        with pytest.raises(PlannerError, match="width"):
            SearchConfig(beam_width=0)
        with pytest.raises(PlannerError, match="steps"):
            SearchConfig(steps=0)
        with pytest.raises(PlannerError, match="budget"):
            SearchConfig(max_candidates=0)


class TestBeamSearch:
    def test_fixed_seed_is_deterministic(self):
        rates = _rates(batch=30.0, olap=10.0, oltp=10.0)
        seeds = enumerate_blueprints(4, GROUPS)
        config = SearchConfig(
            strategy="beam", beam_width=4, steps=3,
            max_candidates=200, seed=42,
        )
        runs = []
        for _ in range(2):
            result = beam_search(
                _scorer(), rates, seeds, config,
                min_nodes=4, max_nodes=4,
            )
            runs.append((
                sorted(result.entries),
                result.stats.to_dict(),
                {
                    key: entry.score
                    for key, entry in result.entries.items()
                },
            ))
        assert runs[0] == runs[1]

    def test_budget_truncation_is_seed_dependent_but_stable(self):
        rates = _rates()
        seeds = enumerate_blueprints(4, GROUPS)
        tight = SearchConfig(
            strategy="beam", beam_width=8, steps=2,
            max_candidates=len(seeds) + 10, seed=3,
        )
        result = beam_search(
            _scorer(), rates, seeds, tight,
            min_nodes=4, max_nodes=4,
        )
        assert result.stats.truncated > 0
        assert result.stats.candidates_scored <= (
            tight.max_candidates
        )
        again = beam_search(
            _scorer(), rates, seeds, tight,
            min_nodes=4, max_nodes=4,
        )
        assert sorted(again.entries) == sorted(result.entries)

    def test_winner_never_worse_than_best_seed(self):
        rates = _rates(batch=50.0, olap=4.0, oltp=4.0)
        memo: dict = {}
        scorer = _scorer(memo)
        seeds = enumerate_blueprints(4, GROUPS)
        seed_best = min(scorer.score_many(seeds, rates).scores)
        result = beam_search(
            scorer, rates, seeds,
            SearchConfig(strategy="beam", seed=0),
            min_nodes=4, max_nodes=4,
        )
        best = min(
            entry.score for entry in result.entries.values()
        )
        assert best <= seed_best
        assert result.stats.candidates_scored >= len(seeds)

    def test_entries_materialize_to_exact_batch_scores(self):
        rates = _rates()
        memo: dict = {}
        scorer = _scorer(memo)
        result = beam_search(
            scorer, rates, enumerate_blueprints(3, GROUPS),
            SearchConfig(
                strategy="beam", beam_width=3, steps=2,
                max_candidates=60, seed=0,
            ),
            min_nodes=3, max_nodes=3,
        )
        for entry in result.entries.values():
            alone = _scorer(memo).score_many((entry.blueprint,), rates)
            assert entry.materialize() == alone.materialize(0)
            assert entry.score == float(alone.scores[0])

    def test_requires_a_seed(self):
        with pytest.raises(PlannerError, match="seed"):
            beam_search(
                _scorer(), _rates(), (),
                SearchConfig(strategy="beam"),
            )
