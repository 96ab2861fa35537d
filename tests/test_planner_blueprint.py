"""Tests for blueprint enumeration, scoring, and transition planning
(repro.planner.blueprint / transition)."""

import hashlib
import json

import pytest

from repro.cluster.workload import cluster_classes, tenant_id
from repro.config import DEFAULT_SYSTEM
from repro.errors import PlannerError
from repro.parallel import parallel_context
from repro.planner import (
    BLUEPRINT_SCHEMES,
    Blueprint,
    BlueprintScorer,
    enumerate_blueprints,
    plan_transition,
    preferred_node,
    spread_blueprint,
    tenant_key,
)

GROUPS = ("batch", "olap", "oltp")


def _scorer(solve_memo=None):
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    return BlueprintScorer(
        DEFAULT_SYSTEM,
        classes=classes,
        targets={"olap": 1.2, "oltp": 0.6},
        max_concurrency=8,
        solve_memo=solve_memo,
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


def _exact(score) -> list:
    """One materialized score as exact, JSON-able floats."""
    return [
        repr(score.blueprint.key()),
        score.score.hex(),
        score.objective.hex(),
        score.overload.hex(),
        [value.hex() for value in score.utilization],
        [[group, value.hex()] for group, value in score.predicted_s],
    ]


def _exact_rows(batch) -> list:
    return [_exact(batch.materialize(i)) for i in range(len(batch))]


class TestBlueprintValueObject:
    def test_build_normalizes_and_keys_deterministically(self):
        first = Blueprint.build(
            2, {"olap": [1, 0, 1], "batch": (0,)}, ("paper", "full")
        )
        second = Blueprint.build(
            2, {"batch": [0], "olap": [0, 1]}, ("paper", "full")
        )
        assert first.key() == second.key()
        assert first.placement_map() == {
            "batch": (0,), "olap": (0, 1)
        }

    def test_rejects_malformed_blueprints(self):
        with pytest.raises(PlannerError, match="schemes"):
            Blueprint.build(2, {"olap": [0]}, ("paper",))
        with pytest.raises(PlannerError, match="scheme"):
            Blueprint.build(1, {"olap": [0]}, ("exotic",))
        with pytest.raises(PlannerError, match="outside"):
            Blueprint.build(2, {"olap": [5]}, ("paper", "paper"))
        with pytest.raises(PlannerError, match="no nodes"):
            Blueprint.build(2, {"olap": []}, ("paper", "paper"))

    def test_preferred_node_cycles_the_home_set(self):
        home = (1, 3, 4)
        assert [preferred_node(home, i) for i in range(5)] == [
            1, 3, 4, 1, 3,
        ]


class TestEnumeration:
    def test_candidates_are_valid_unique_and_bounded(self):
        for nodes in (1, 2, 4):
            candidates = enumerate_blueprints(nodes, GROUPS)
            assert 0 < len(candidates) <= 64
            keys = [c.key() for c in candidates]
            assert len(set(keys)) == len(keys)
            assert keys == sorted(keys)
            for candidate in candidates:
                assert candidate.nodes == nodes

    def test_spread_and_isolation_families_present(self):
        candidates = enumerate_blueprints(4, GROUPS)
        placements = {c.key()[0] for c in candidates}
        spread = spread_blueprint(4, GROUPS, "paper")
        assert spread.key()[0] in placements
        isolating = [
            c for c in candidates
            if c.placement_map()["batch"] != (0, 1, 2, 3)
        ]
        assert isolating

    def test_boot_blueprint_is_in_the_family(self):
        # The planner looks its incumbent up among the scored family;
        # the boot spread sorts first by key, so the cap never drops it.
        for nodes in range(1, 65):
            boot = spread_blueprint(nodes, GROUPS, "paper")
            assert boot in enumerate_blueprints(nodes, GROUPS)

    def test_max_candidates_truncates(self):
        full = enumerate_blueprints(4, GROUPS)
        capped = enumerate_blueprints(4, GROUPS, max_candidates=3)
        assert len(capped) == 3
        assert capped == full[:3]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(PlannerError):
            enumerate_blueprints(2, ())
        with pytest.raises(PlannerError):
            enumerate_blueprints(2, GROUPS, max_candidates=0)


class TestScoring:
    def test_scoring_is_deterministic(self):
        rates = _rates()
        candidates = enumerate_blueprints(4, GROUPS)
        first = _exact_rows(_scorer().score_many(candidates, rates))
        second = _exact_rows(_scorer().score_many(candidates, rates))
        assert first == second

    def test_batch_heavy_forecast_prefers_isolation(self):
        rates = _rates(batch=60.0, olap=2.0, oltp=2.0)
        batch = _scorer().score_many(
            enumerate_blueprints(4, GROUPS), rates
        )
        scores = [batch.materialize(i) for i in range(len(batch))]
        spread_key = spread_blueprint(4, GROUPS, "paper").key()
        (spread,) = [s for s in scores if s.blueprint.key() == spread_key]
        best = min(
            scores,
            key=lambda s: (round(s.score, 9), s.blueprint.key()),
        )
        assert best.score < spread.score
        assert best.blueprint.placement_map()["batch"] != (
            0, 1, 2, 3,
        )

    def test_overload_penalized(self):
        scorer = _scorer()
        spread = (spread_blueprint(2, GROUPS, "paper"),)
        calm = scorer.score_many(spread, _rates(4, 4, 4)).materialize(0)
        slammed = scorer.score_many(
            spread, _rates(400, 400, 400)
        ).materialize(0)
        assert slammed.overload > 0.0
        assert slammed.score > calm.score

    def test_solve_memo_is_shared(self):
        memo: dict = {}
        rates = _rates()
        spread = (spread_blueprint(2, GROUPS, "paper"),)
        first = _scorer(memo)
        first.score_many(spread, rates)
        assert first.solves > 0
        second = _scorer(memo)
        second.score_many(spread, rates)
        assert second.solves == 0

    @pytest.mark.parametrize("totals", [(12.0, 20.0, 30.0), (400.0,) * 3])
    @pytest.mark.parametrize("placement, schemes", [
        ({"batch": (0,), "olap": (0,), "oltp": (0,)}, ("paper",)),
        ({"batch": (1,), "olap": (0,), "oltp": (0,)}, ("paper", "full")),
    ])
    def test_matches_hand_computed_m_g_1_ps(self, placement, schemes, totals):
        # docs/PLANNING.md: s_c = work / per-instance rate,
        # rho = sum(lambda_c * s_c) / slots, sojourn s_c / (1 - rho)
        # with rho capped at 0.95; score = worst sojourn-to-SLO ratio
        # plus 10 x total overload.
        memo: dict = {}
        scorer = _scorer(memo)
        rates = _rates(*totals)
        blueprint = Blueprint.build(len(schemes), placement, schemes)
        got = scorer.score_many((blueprint,), rates).materialize(0)
        classes = scorer.classes
        utilization, overload, predicted = [], 0.0, {}
        for node in range(blueprint.nodes):
            load = {
                name: rate / len(placement[classes[name].tenant])
                for name, rate in sorted(rates.items())
                if node in placement[classes[name].tenant]
            }
            (per_class,) = [
                solved for signature, solved in memo.items()
                if {name for name, _, _ in signature} == set(load)
            ]
            service = {
                name: classes[name].work_tuples / per_class[name]
                for name in load
            }
            rho = sum(load[name] * service[name] for name in load) / 8
            utilization.append(rho)
            overload += max(0.0, rho - 1.0)
            for name in load:
                group = classes[name].tenant
                sojourn = service[name] / (1.0 - min(rho, 0.95))
                predicted[group] = max(predicted.get(group, 0.0), sojourn)
        objective = max(predicted["olap"] / 1.2, predicted["oltp"] / 0.6)
        # Same operations in the same order: the floats match exactly.
        assert got.utilization == tuple(utilization)
        assert dict(got.predicted_s) == predicted
        assert got.overload == overload
        assert got.objective == objective
        assert got.score == objective + 10.0 * overload


class TestBatchScoring:
    def test_batch_handles_mixed_node_counts(self):
        rates = _rates()
        families = [enumerate_blueprints(n, GROUPS) for n in (2, 3, 4)]
        mixed = _scorer({}).score_many(sum(families, ()), rates)
        separate = []
        for family in families:
            separate += _exact_rows(_scorer({}).score_many(family, rates))
        assert _exact_rows(mixed) == separate

    def test_zero_rates_score_zero_everywhere(self):
        scorer = _scorer({})
        candidates = enumerate_blueprints(3, GROUPS)
        zero = {name: 0.0 for name in _rates()}
        batch = scorer.score_many(candidates, zero)
        for index, candidate in enumerate(candidates):
            materialized = batch.materialize(index)
            assert materialized.score == 0.0
            assert materialized.objective == 0.0
            assert materialized.overload == 0.0
            assert materialized.utilization == (0.0,) * candidate.nodes
            assert materialized.predicted_s == ()
        assert scorer.solves == 0

    def test_batch_feeds_the_shared_memo(self):
        memo: dict = {}
        rates = _rates()
        candidates = enumerate_blueprints(4, GROUPS)
        first = _scorer(memo)
        first.score_many(candidates, rates)
        assert first.solves > 0
        assert len(memo) == first.solves
        # Later scorers, one candidate or the family at a time, hit
        # the memo cold.
        second = _scorer(memo)
        for candidate in candidates:
            second.score_many((candidate,), rates)
        assert second.solves == 0
        third = _scorer(memo)
        third.score_many(candidates, rates)
        assert third.solves == 0

    def test_pool_solves_match_sequential(self):
        rates = _rates(batch=12.0, olap=20.0, oltp=30.0)
        candidates = enumerate_blueprints(4, GROUPS)
        sequential_memo: dict = {}
        sequential = _scorer(sequential_memo).score_many(candidates, rates)
        pooled_memo: dict = {}
        with parallel_context(jobs=2, cache_enabled=False):
            pooled = _scorer(pooled_memo).score_many(candidates, rates)
        assert len(pooled_memo) > 1
        assert _exact_rows(pooled) == _exact_rows(sequential)
        assert list(pooled_memo.items()) == list(sequential_memo.items())

    def test_unknown_forecast_class_is_rejected(self):
        scorer = _scorer({})
        rates = dict(_rates())
        rates["mystery"] = 5.0
        with pytest.raises(PlannerError, match="catalog"):
            scorer.score_many(
                enumerate_blueprints(2, GROUPS), rates
            )

    def test_empty_population_is_fine(self):
        batch = _scorer({}).score_many((), _rates())
        assert len(batch) == 0
        assert batch.scores.shape == (0,)


#: Rate mixes for the exact-float pins (fleet-wide requests/s per group).
PIN_RATES = {
    "default": {},
    "batch-heavy": dict(batch=60.0, olap=2.0, oltp=2.0),
    "overloaded": dict(batch=400.0, olap=400.0, oltp=400.0),
    "zero": dict(batch=0.0, olap=0.0, oltp=0.0),
}
PIN_CASES = {
    **{
        f"{nodes}-node-{mix}": ((nodes,), mix)
        for nodes in (2, 3, 4)
        for mix in PIN_RATES
    },
    "mixed-default": ((2, 3, 4), "default"),
}
#: SHA-256 of every candidate's exact floats (``float.hex`` of score,
#: objective, overload, utilization and predicted sojourns).
SCORE_PINS = {
    "2-node-default":
        "c21bfdaa881606a75e646e00222d78389a7fc1e1563d6ec977fe4f6bcbb0a31d",
    "2-node-batch-heavy":
        "e157876bcb1a4a9850288f81c0d65f9d54412df312f7897fb90fa372c86f5bef",
    "2-node-overloaded":
        "9cb38987fd9124ee9eaa51a7b7148e7bf478f46e2671d6887b92d9699d617027",
    "2-node-zero":
        "ca35faf02eb638c0972a2dd0f7e28af15c032d86b9395822e0b93ee66e6ed2e5",
    "3-node-default":
        "87e1562dc198e18288c6935781cdf7d43322b4496d59a6e8912f6f5d7f2804ec",
    "3-node-batch-heavy":
        "f4a150628b4784aae7a6b975b276601b66888f25fc67ec4c2255b02eefddf454",
    "3-node-overloaded":
        "847ad644f5a4fdfc2b7712dee55ce4f1beee49a674918ff716c37e52fbfb4a6d",
    "3-node-zero":
        "74625caa284b13e41388847de2cba09a34ce02abd8251f08a4228352f5f67b4d",
    "4-node-default":
        "9465644c590aee733b833512baef5e909e09dccf0c78ad3c2d4e623f115b89a5",
    "4-node-batch-heavy":
        "82c0c0526182a3e00c92f182fbd6e8560e171ce0740e1f4e6fb61151ca1ea3af",
    "4-node-overloaded":
        "1c27d78121997805122e1d3ba24216b8e61a6148b94d1685a20af2d8f933a7cf",
    "4-node-zero":
        "a51a7a940716cb81f02f489ea429ea246f2dfb4a6652f44763777cb86297176d",
    "mixed-default":
        "59ac177e92a2bd29709dea61f14a3e1d4b4283c22636c0bc6c17cabda1fbbd1d",
}


class TestScorePins:
    @pytest.mark.parametrize("case", PIN_CASES)
    def test_exact_floats_match_pin(self, case):
        node_counts, mix = PIN_CASES[case]
        population = sum(
            (enumerate_blueprints(n, GROUPS) for n in node_counts), ()
        )
        batch = _scorer({}).score_many(
            population, _rates(**PIN_RATES[mix])
        )
        canonical = json.dumps(_exact_rows(batch))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert digest == SCORE_PINS[case]


class TestPopulationIndependence:
    # Hypothesis sweep over random placements, schemes and rate mixes:
    # a candidate's floats are the same alone, in a population, and
    # in the reversed population (no cross-row leaks in the batch).

    hypothesis = pytest.importorskip("hypothesis")

    def test_rows_match_alone_and_reversed(self):
        from hypothesis import given, settings, strategies as st

        schemes = st.sampled_from(sorted(BLUEPRINT_SCHEMES))
        nodes_st = st.integers(min_value=1, max_value=5)

        @st.composite
        def blueprints(draw):
            nodes = draw(nodes_st)
            placement = {}
            for group in GROUPS:
                home = draw(st.sets(
                    st.integers(0, nodes - 1),
                    min_size=1, max_size=nodes,
                ))
                placement[group] = tuple(sorted(home))
            return Blueprint.build(
                nodes,
                placement,
                tuple(
                    draw(schemes) for _ in range(nodes)
                ),
            )

        rate_st = st.floats(
            min_value=0.0, max_value=200.0,
            allow_nan=False, allow_infinity=False,
        )

        memo: dict = {}

        @settings(max_examples=25, deadline=None)
        @given(
            population=st.lists(
                blueprints(), min_size=1, max_size=6
            ),
            batch=rate_st, olap=rate_st, oltp=rate_st,
        )
        def check(population, batch, olap, oltp):
            rates = _rates(batch=batch, olap=olap, oltp=oltp)
            rows = _exact_rows(_scorer(memo).score_many(population, rates))
            reversed_rows = _exact_rows(
                _scorer(memo).score_many(population[::-1], rates)
            )
            assert rows == reversed_rows[::-1]
            alone = _scorer(memo)
            assert rows == [
                _exact_rows(alone.score_many((candidate,), rates))[0]
                for candidate in population
            ]

        check()


class TestTransition:
    def test_tenant_key_matches_cluster_tenant_id(self):
        for group in GROUPS:
            for index in range(12):
                assert tenant_key(group, index) == tenant_id(
                    group, index
                )

    def test_scheme_only_change_moves_nobody(self):
        plan = plan_transition(
            spread_blueprint(3, GROUPS, "paper"),
            spread_blueprint(3, GROUPS, "full"),
            tenants_per_group=10,
            time_s=2.0,
            downtime_s=0.25,
        )
        assert plan.moves == ()
        assert plan.blackout_until_s == pytest.approx(2.25)

    def test_placement_change_moves_exactly_rehomed_tenants(self):
        current = spread_blueprint(4, GROUPS, "paper")
        target = Blueprint.build(
            4,
            {
                "batch": (3,),
                "olap": (0, 1, 2),
                "oltp": (0, 1, 2),
            },
            ("paper", "paper", "paper", "full"),
        )
        tenants = 8
        plan = plan_transition(current, target, tenants, 4.0, 0.5)
        moved = {move.tenant for move in plan.moves}
        for group in GROUPS:
            old_home = current.placement_map()[group]
            new_home = target.placement_map()[group]
            for index in range(tenants):
                expect = (
                    preferred_node(old_home, index)
                    != preferred_node(new_home, index)
                )
                key = tenant_key(group, index)
                assert (key in moved) == expect
        for move in plan.moves:
            assert move.source != move.target

    def test_rejects_mismatched_fleets_and_bad_knobs(self):
        with pytest.raises(PlannerError, match="different fleets"):
            plan_transition(
                spread_blueprint(2, GROUPS),
                spread_blueprint(3, GROUPS),
                1, 0.0, 0.0,
            )
        with pytest.raises(PlannerError):
            plan_transition(
                spread_blueprint(2, GROUPS),
                spread_blueprint(2, GROUPS),
                0, 0.0, 0.0,
            )
        with pytest.raises(PlannerError):
            plan_transition(
                spread_blueprint(2, GROUPS),
                spread_blueprint(2, GROUPS),
                1, 0.0, -1.0,
            )

    def test_schemes_registry_has_full_and_paper(self):
        assert set(BLUEPRINT_SCHEMES) == {"full", "paper"}
