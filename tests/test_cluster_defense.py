"""Tests for defended fleets (attacks + detector + quarantine)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.defense import AttackSpec, seeded_attacks
from repro.errors import ClusterError, DefenseError
from repro.planner import training_from_report
from repro.schema import load_report

THRASH = (AttackSpec(profile="thrash", start_s=1.0, rate_per_s=20.0),)


def _config(**overrides):
    defaults = dict(
        nodes=2, router="hash", profile="poisson", policy="none",
        mix="olap", rate_per_s=6.0, duration_s=6.0, seed=7,
        attacks=THRASH, defense="jail",
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture(scope="module")
def jail_report():
    return Cluster(_config()).run()


@pytest.fixture(scope="module")
def off_report():
    return Cluster(_config(defense="off")).run()


def _conserved(report):
    return report.generated == (
        report.completed + report.shed_admission
        + report.shed_failure + report.shed_no_node
    )


class TestConfigValidation:
    def test_rejects_unknown_defense_mode(self):
        with pytest.raises(ClusterError):
            _config(defense="banhammer")

    def test_rejects_attack_beyond_horizon(self):
        with pytest.raises(ClusterError):
            _config(attacks=(
                AttackSpec(profile="thrash", start_s=100.0),
            ))


class TestDeterminism:
    def test_defended_runs_are_byte_identical(self, jail_report):
        again = Cluster(_config()).run()
        assert again.to_json() == jail_report.to_json()

    def test_fleet_jobs_is_byte_identical(self, jail_report):
        jobs = Cluster(_config()).run(fleet_jobs=4)
        assert jobs.to_json() == jail_report.to_json()

    def test_defended_run_records_sequential_warning(
        self, jail_report
    ):
        warnings = jail_report.execution["warnings"]
        assert any("sequential" in w for w in warnings)


class TestConvictions:
    def test_conviction_matches_ground_truth(self, jail_report):
        defense = jail_report.defense
        assert defense["ground_truth"] == ["thrash"]
        assert defense["convicted_groups"] == ["thrash"]
        assert defense["false_positives"] == []
        assert defense["missed"] == []

    def test_no_convictions_without_attacks(self):
        report = Cluster(_config(attacks=())).run()
        defense = report.defense
        assert defense["enabled"] is True
        assert defense["convictions"] == []
        assert defense["false_positives"] == []

    def test_jail_time_accrues_until_drain(self, jail_report):
        assert jail_report.defense["jail_seconds"]["thrash"] > 0.0

    def test_jail_improves_victim_tail(
        self, jail_report, off_report
    ):
        jailed = jail_report.fleet_verdict_for("olap").p99_s
        undefended = off_report.fleet_verdict_for("olap").p99_s
        assert jailed < undefended

    def test_purge_sheds_the_convicts_backlog(
        self, jail_report, off_report
    ):
        # Conviction sheds queued thrash and throttles new arrivals,
        # so the defended run completes less and sheds more — while
        # both runs offer the identical arrival sequence.
        assert jail_report.generated == off_report.generated
        assert (
            jail_report.shed_admission > off_report.shed_admission
        )
        assert _conserved(jail_report)
        assert _conserved(off_report)


class TestConservationSweep:
    @settings(max_examples=5, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_arrival_is_accounted_for(self, count, seed):
        attacks = seeded_attacks(count, 4.0, seed)
        report = Cluster(_config(
            duration_s=4.0, rate_per_s=4.0, seed=seed,
            attacks=attacks, defense="evict",
        )).run()
        assert _conserved(report)
        arrivals = sum(
            report.defense["attack_arrivals"].values()
        )
        assert arrivals <= report.generated


class TestReportLoading:
    def test_v6_report_feeds_planner_training(self, jail_report):
        training = training_from_report(jail_report.to_dict())
        assert training

    def test_v6_defense_block_round_trips(self, jail_report):
        block = load_report(jail_report.to_dict(), DefenseError)["defense"]
        assert block["enabled"] is True
        assert block["convicted_groups"] == ["thrash"]
