"""End-to-end tests for the planned cluster policy
(repro.cluster.fleet + repro.planner integration)."""

import json

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import ClusterError

BATCH_HEAVY_TRAINING = tuple(
    (("agg", 1), ("join", 1), ("oltp", 1), ("scan", 40))
    for _ in range(8)
)


def _config(**overrides):
    defaults = dict(
        nodes=3, router="planned", policy="planned",
        duration_s=4.0, rate_per_s=8.0, seed=17,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestConfigValidation:
    def test_planned_policy_requires_planned_router(self):
        with pytest.raises(ClusterError, match="go together"):
            ClusterConfig(policy="planned", router="hash")

    def test_planned_router_requires_planned_policy(self):
        with pytest.raises(ClusterError, match="go together"):
            ClusterConfig(policy="adaptive", router="planned")

    def test_planner_knobs_are_validated(self):
        with pytest.raises(ClusterError):
            _config(plan_interval_s=0.0)
        with pytest.raises(ClusterError):
            _config(plan_forecaster="arima")
        with pytest.raises(ClusterError):
            _config(plan_margin=-0.5)
        with pytest.raises(ClusterError):
            _config(plan_training=(("scan", 1.5),))

    @pytest.mark.parametrize("count", [2.7, "3", True, -1])
    def test_training_counts_are_not_coerced(self, count):
        # The Python API passes windows through unchanged: a float,
        # numeric string, bool or negative count is an error, never
        # truncated or converted.
        with pytest.raises(ClusterError, match="integer counts"):
            _config(plan_training=((("scan", count),),))

    def test_json_shaped_training_windows_are_accepted(self):
        config = _config(plan_training=[[["scan", 3]], [["oltp", 0]]])
        assert config.planner_config().training == (
            (("scan", 3),), (("oltp", 0),),
        )

    def test_search_knobs_are_validated(self):
        with pytest.raises(ClusterError):
            _config(plan_search="anneal")
        with pytest.raises(ClusterError):
            _config(plan_beam_width=0)
        with pytest.raises(ClusterError):
            _config(plan_search_steps=0)
        with pytest.raises(ClusterError):
            _config(plan_search_candidates=0)

    def test_shift_mix_is_accepted(self):
        config = _config(mix="shift", shift_at_s=1.5)
        assert config.node_config(0).shift_at_s == 1.5


class TestPlannedRun:
    def test_report_carries_planner_and_windows_blocks(self):
        report = Cluster(_config()).run()
        payload = report.to_dict()
        assert payload["fleet_report_version"] == 6
        planner = payload["planner"]
        assert planner["enabled"] is True
        assert planner["ticks"] >= 1
        assert planner["candidates"] > 1
        assert len(planner["decisions"]) == planner["ticks"]
        search = planner["search"]
        assert search["strategy"] == "enum"
        assert search["candidates_scored"] >= planner["candidates"]
        for decision in planner["decisions"]:
            assert decision["best_score"] <= (
                decision["incumbent_score"] + 1e-9
            )
        windows = payload["arrival_windows"]
        assert windows["window_s"] == 1.0
        assert len(windows["classes"]) == 4
        assert len(windows["tenants"]) == 4
        total = sum(
            count
            for window in windows["classes"]
            for count in window.values()
        )
        assert total == report.generated

    def test_request_conservation_holds(self):
        report = Cluster(_config()).run()
        assert report.generated == (
            report.completed + report.shed_admission
            + report.shed_failure + report.shed_no_node
        )
        assert report.generated > 0

    def test_unplanned_policies_report_planner_disabled(self):
        report = Cluster(ClusterConfig(
            nodes=2, duration_s=2.0, rate_per_s=6.0, seed=17,
            policy="none",
        )).run()
        assert report.planner == {"enabled": False}

    def test_sequential_warning_recorded_for_any_jobs_value(self):
        # The warning is a pure function of the config — recorded for
        # jobs=1 too, so the execution block stays byte-identical
        # across --fleet-jobs values.
        for jobs in (1, 3):
            report = Cluster(_config()).run(fleet_jobs=jobs)
            warnings = report.execution["warnings"]
            assert any("planned" in w for w in warnings)
            assert any("sequential" in w for w in warnings)


class TestIdlePlannerLane:
    # First plan tick at or beyond the run end: the planner never
    # acts, so the run must not warn about sequential execution and
    # may use the epoch-parallel path.

    def test_no_tick_and_no_warning_when_interval_exceeds_duration(
        self,
    ):
        report = Cluster(
            _config(plan_interval_s=99.0)
        ).run(fleet_jobs=1)
        assert report.planner["ticks"] == 0
        assert report.planner["decisions"] == []
        assert report.execution["warnings"] == []

    def test_interval_equal_to_duration_never_ticks(self):
        report = Cluster(_config(plan_interval_s=4.0)).run()
        assert report.planner["ticks"] == 0
        assert report.execution["warnings"] == []

    def test_idle_lane_jobs_do_not_change_bytes(self):
        sequential = Cluster(
            _config(plan_interval_s=99.0)
        ).run(fleet_jobs=1)
        fanned = Cluster(
            _config(plan_interval_s=99.0)
        ).run(fleet_jobs=3)
        assert _dumps(sequential) == _dumps(fanned)

    def test_active_lane_still_warns(self):
        report = Cluster(_config()).run(fleet_jobs=3)
        assert report.planner["ticks"] >= 1
        assert any(
            "sequential" in w
            for w in report.execution["warnings"]
        )


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [0, 17, 0xBEEF])
    def test_run_vs_run(self, seed):
        first = Cluster(_config(seed=seed)).run()
        second = Cluster(_config(seed=seed)).run()
        assert _dumps(first) == _dumps(second)

    def test_fleet_jobs_do_not_change_bytes(self):
        sequential = Cluster(_config()).run(fleet_jobs=1)
        fanned = Cluster(_config()).run(fleet_jobs=4)
        assert _dumps(sequential) == _dumps(fanned)

    def test_migrating_run_is_byte_stable(self):
        config = _config(
            nodes=4, duration_s=6.0,
            plan_training=BATCH_HEAVY_TRAINING,
        )
        first = Cluster(config).run()
        second = Cluster(config).run(fleet_jobs=2)
        assert first.planner["reconfigurations"] >= 1
        assert _dumps(first) == _dumps(second)

    @pytest.mark.parametrize("seed", [17, 0xBEEF])
    def test_beam_search_is_byte_stable(self, seed):
        config = _config(seed=seed, plan_search="beam")
        first = Cluster(config).run(fleet_jobs=1)
        second = Cluster(config).run(fleet_jobs=4)
        assert first.planner["search"]["strategy"] == "beam"
        assert first.planner["search"]["candidates_scored"] > 0
        assert _dumps(first) == _dumps(second)

    def test_beam_never_scores_worse_than_enum(self):
        # Beam seeds its frontier with the full enumerated family, so
        # tick-by-tick the best score it sees can only be <= enum's
        # (offered arrival windows — hence forecasts — are identical
        # across the two runs).
        enum_run = Cluster(_config(
            nodes=4, duration_s=6.0,
            plan_training=BATCH_HEAVY_TRAINING,
        )).run()
        beam_run = Cluster(_config(
            nodes=4, duration_s=6.0,
            plan_training=BATCH_HEAVY_TRAINING,
            plan_search="beam",
        )).run()
        enum_best = [
            d["best_score"]
            for d in enum_run.planner["decisions"]
        ]
        beam_best = [
            d["best_score"]
            for d in beam_run.planner["decisions"]
        ]
        assert len(enum_best) == len(beam_best) >= 1
        for beam, enum in zip(beam_best, enum_best):
            assert beam <= enum + 1e-12


class TestMigration:
    @pytest.fixture(scope="class")
    def migrated(self):
        # Batch-dominated training makes the first tick's forecast
        # prefer a batch-isolation blueprint over the boot spread, so
        # the planner re-homes tenants through a blackout.
        return Cluster(_config(
            nodes=4, duration_s=6.0,
            plan_training=BATCH_HEAVY_TRAINING,
        )).run()

    def test_migration_happens_and_is_recorded(self, migrated):
        planner = migrated.planner
        assert planner["reconfigurations"] >= 1
        assert planner["migrated_tenants"] > 0
        changed = [
            d for d in planner["decisions"] if d["changed"]
        ]
        assert changed
        assert changed[0]["migrations"] > 0

    def test_blackout_defers_arrivals_without_losing_them(
        self, migrated
    ):
        assert migrated.planner["deferred_requests"] > 0
        assert migrated.generated == (
            migrated.completed + migrated.shed_admission
            + migrated.shed_failure + migrated.shed_no_node
        )

    def test_downtime_lands_in_request_latency(self, migrated):
        # Deferred arrivals keep their original timestamps, so the
        # blackout wait is part of measured latency: some tenant's
        # worst completion must wait at least the downtime window.
        downtime = migrated.config.plan_downtime_s
        worst = max(
            verdict.p99_s for verdict in migrated.fleet_slo
        )
        assert worst >= downtime

    def test_scheme_changes_reprogram_nodes(self, migrated):
        blueprint = migrated.planner["blueprint"]
        schemes = blueprint["schemes"]
        assert len(schemes) == migrated.config.nodes
        # The isolation blueprint runs the batch nodes unpartitioned.
        assert "full" in schemes


class TestShiftMix:
    def test_shift_run_conserves_and_reports(self):
        report = Cluster(_config(
            mix="shift", profile="diurnal", duration_s=4.0,
        )).run()
        assert report.generated == (
            report.completed + report.shed_admission
            + report.shed_failure + report.shed_no_node
        )
        assert report.config.mix == "shift"
