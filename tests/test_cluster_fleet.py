"""Tests for the fleet simulation (repro.cluster.fleet / node / faults)."""

import json

import pytest

from repro import seeding
from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultSpec,
    seeded_faults,
    validate_schedule,
)
from repro.errors import ClusterError
from repro.obs import observing


def _run(**overrides):
    defaults = dict(
        nodes=2, router="hash", policy="none", duration_s=3.0,
        rate_per_s=6.0, seed=7,
    )
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults)).run()


class TestConfigValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ClusterError):
            ClusterConfig(nodes=0)

    def test_rejects_unknown_router(self):
        with pytest.raises(ClusterError):
            ClusterConfig(router="random")

    def test_rejects_replay_profile(self):
        with pytest.raises(ClusterError):
            ClusterConfig(profile="replay")

    def test_rejects_unknown_mix(self):
        with pytest.raises(ClusterError):
            ClusterConfig(mix="mixed")

    def test_rejects_fault_outside_fleet(self):
        with pytest.raises(ClusterError):
            ClusterConfig(nodes=2, faults=(FaultSpec(5, 1.0),))

    def test_rejects_overlapping_outages(self):
        with pytest.raises(ClusterError):
            ClusterConfig(
                nodes=2,
                faults=(
                    FaultSpec(1, 1.0, 5.0),
                    FaultSpec(1, 2.0, 3.0),
                ),
            )

    def test_node_seeds_derive_from_fleet_seed(self):
        config = ClusterConfig(seed=42)
        assert config.node_config(0).seed == seeding.derive_from(
            42, "node/0"
        )
        assert config.node_config(0).seed != config.node_config(1).seed


class TestConservationAndReport:
    def test_request_conservation(self):
        report = _run()
        assert report.generated == (
            report.completed + report.shed_admission
            + report.shed_failure + report.shed_no_node
        )
        assert report.generated > 0

    def test_report_structure_roundtrips_as_json(self):
        report = _run()
        payload = json.loads(report.to_json())
        assert payload["fleet_report_version"] == 6
        assert payload["execution"]["epochs"] == 1
        assert payload["execution"]["warnings"] == []
        assert len(payload["nodes"]) == 2
        for node in payload["nodes"]:
            # Each node embeds a full v4 single-node service report.
            assert node["report"]["report_version"] == 4
            assert node["routed_in"] == node["report"]["arrived"]
        tenants = [v["tenant"] for v in payload["fleet_slo"]]
        assert {"batch", "olap", "oltp"} <= set(tenants)

    def test_fleet_histograms_merge_node_histograms(self):
        report = _run()
        fleet = {
            v.tenant: v.completed for v in report.fleet_slo
            if v.completed
        }
        summed: dict = {}
        for node_report in report.node_reports:
            for verdict in node_report.slo:
                if verdict.completed:
                    summed[verdict.tenant] = (
                        summed.get(verdict.tenant, 0)
                        + verdict.completed
                    )
        assert fleet == summed
        assert report.aggregate["completed"] == sum(fleet.values())

    def test_batch_tenant_has_no_latency_target(self):
        report = _run()
        batch = report.fleet_verdict_for("batch")
        assert batch.target_p99_s is None
        assert batch.ok

    def test_cluster_metrics_counted(self):
        with observing() as (_, metrics):
            report = _run(nodes=3, rate_per_s=8.0)
        counters = metrics.snapshot()["counters"]
        assert counters["cluster.routed"] == report.generated
        assert "cluster.failover" not in counters  # nothing died
        assert report.forwarded > 0

    def test_runs_exactly_once(self):
        cluster = Cluster(ClusterConfig(
            nodes=1, policy="none", duration_s=2.0, rate_per_s=4.0,
        ))
        cluster.run()
        with pytest.raises(ClusterError):
            cluster.run()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        first = _run(router="affinity", policy="adaptive")
        second = _run(router="affinity", policy="adaptive")
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self):
        assert _run(seed=7).to_json() != _run(seed=8).to_json()

    def test_node0_report_independent_of_fleet_size(self):
        # The satellite guarantee: per-node arrival streams derive
        # from (fleet seed, node index) alone, and with a router that
        # keeps an unloaded fleet local, node 0 sees byte-identical
        # traffic whether it has 0 or 3 peers.
        def node0(n):
            return _run(
                nodes=n, router="least-loaded", rate_per_s=4.0,
                duration_s=4.0,
            ).node_reports[0].to_json()

        assert node0(1) == node0(4)

    def test_source_streams_differ_between_nodes(self):
        report = _run(router="least-loaded", rate_per_s=4.0)
        logs = [
            node_report.arrivals
            for node_report in report.node_reports
        ]
        assert logs[0] != logs[1]


class TestScalingMachinery:
    """Structural guarantees behind the fleet-scaling fix: the shared
    solve memo dedupes model solves across nodes, the merged event heap
    replaces the per-event scan, and neither perturbs node reports."""

    def test_solve_memo_shared_and_deduping(self):
        cluster = Cluster(ClusterConfig(
            nodes=4, router="least-loaded", policy="none",
            duration_s=3.0, rate_per_s=6.0, seed=7,
        ))
        cluster.run()
        solves = sum(node.rate_solves for node in cluster.nodes)
        assert len(cluster.solve_memo) > 0
        # Peers hit compositions their siblings already solved, so the
        # fleet performs fewer model solves than the nodes report.
        assert len(cluster.solve_memo) < solves
        for node in cluster.nodes:
            assert node.solve_memo is cluster.solve_memo

    def test_memo_does_not_change_node_counters(self):
        # A node's rate_solves counts its own cache misses whether or
        # not a peer already populated the memo — so the counter is
        # identical between a 1-node and a 4-node fleet.
        def node0_solves(n):
            cluster = Cluster(ClusterConfig(
                nodes=n, router="least-loaded", policy="none",
                duration_s=3.0, rate_per_s=6.0, seed=7,
            ))
            cluster.run()
            return cluster.nodes[0].rate_solves

        assert node0_solves(1) == node0_solves(4)

    def test_node_solves_independent_of_fleet_jobs(self):
        # Workers are pre-warmed from the parent memo snapshot per
        # wave, so a node's rate_solves counts the same cache misses
        # whether the fleet runs sequentially or across processes.
        def solves(fleet_jobs):
            cluster = Cluster(ClusterConfig(
                nodes=4, router="hash", policy="none",
                duration_s=3.0, rate_per_s=6.0, seed=7,
            ))
            cluster.run(fleet_jobs=fleet_jobs)
            return [node.rate_solves for node in cluster.nodes]

        assert solves(1) == solves(4)

    def test_frontier_heap_drains_clean(self):
        cluster = Cluster(ClusterConfig(
            nodes=3, router="least-loaded", policy="none",
            duration_s=3.0, rate_per_s=6.0, seed=7,
        ))
        cluster.run()
        # Only stale (version-superseded) entries may remain staged.
        for time_s, lane, index, version in cluster._frontier:
            assert cluster._lane_versions[(lane, index)] != version


class TestSampling:
    def test_sampled_fleet_sees_fewer_arrivals(self):
        full = _run(duration_s=6.0)
        sampled = _run(
            duration_s=6.0, sample_window_s=1.0, sample_period=3,
        )
        assert 0 < sampled.generated < full.generated

    def test_sampled_fleet_deterministic(self):
        kwargs = dict(
            duration_s=6.0, sample_window_s=1.0, sample_period=3,
            sample_warmup=0.5,
        )
        assert _run(**kwargs).to_json() == _run(**kwargs).to_json()

    def test_sampling_knobs_in_report_config(self):
        report = _run(
            duration_s=6.0, sample_window_s=1.0, sample_period=3,
        )
        payload = json.loads(report.to_json())
        assert payload["config"]["sample_window_s"] == 1.0
        assert payload["config"]["sample_period"] == 3
        assert payload["config"]["sample_warmup"] == 0.5

    def test_node0_invariance_holds_under_sampling(self):
        def node0(n):
            return _run(
                nodes=n, router="least-loaded", rate_per_s=4.0,
                duration_s=6.0, sample_window_s=1.0,
                sample_period=3,
            ).node_reports[0].to_json()

        assert node0(1) == node0(4)

    def test_arrivals_confined_to_simulated_windows(self):
        report = _run(
            duration_s=9.0, sample_window_s=1.0, sample_period=3,
        )
        for node_report in report.node_reports:
            for entry in node_report.arrivals:
                window = int(entry[0] // 1.0)
                assert window % 3 == 0


class TestFaults:
    def test_fault_spec_validation(self):
        with pytest.raises(ClusterError):
            FaultSpec(-1, 1.0)
        with pytest.raises(ClusterError):
            FaultSpec(0, -1.0)
        with pytest.raises(ClusterError):
            FaultSpec(0, 2.0, recover_at_s=2.0)

    def test_validate_schedule_sorts(self):
        ordered = validate_schedule(
            (FaultSpec(1, 3.0), FaultSpec(0, 1.0)), nodes=2
        )
        assert [f.kill_at_s for f in ordered] == [1.0, 3.0]

    def test_seeded_faults_deterministic_and_valid(self):
        first = seeded_faults(4, 3, duration_s=10.0, seed=99)
        second = seeded_faults(4, 3, duration_s=10.0, seed=99)
        assert first == second
        assert seeded_faults(4, 3, 10.0, seed=100) != first
        for fault in first:
            assert 0 <= fault.node < 4
            assert 0.0 < fault.kill_at_s < 10.0
            assert fault.recover_at_s > fault.kill_at_s

    def test_seeded_faults_need_two_nodes(self):
        with pytest.raises(ClusterError):
            seeded_faults(1, 1, 10.0, seed=1)

    def test_kill_and_recovery_accounting(self):
        kill_at, recover_at = 1.0, 2.0
        with observing() as (_, metrics):
            report = _run(
                nodes=3, rate_per_s=10.0, duration_s=4.0,
                faults=(FaultSpec(1, kill_at, recover_at),),
            )
        stats = report.node_stats[1]
        assert stats["kills"] == 1
        assert stats["alive"] is True  # recovered
        assert stats["downtime_s"] == pytest.approx(
            recover_at - kill_at
        )
        assert report.shed_failure == stats["failure_shed"]
        assert report.failovers > 0
        assert report.failovers == sum(
            s["failover_in"] for s in report.node_stats
        )
        counters = metrics.snapshot()["counters"]
        assert counters["cluster.failover"] == report.failovers
        if report.shed_failure:
            assert counters["cluster.shed"] == report.shed_failure
        # Conservation still holds with mid-run losses.
        assert report.generated == (
            report.completed + report.shed_admission
            + report.shed_failure + report.shed_no_node
        )

    def test_unrecovered_node_sheds_nothing_after_death(self):
        report = _run(
            nodes=2, rate_per_s=8.0, duration_s=3.0,
            faults=(FaultSpec(0, 1.0),),  # never recovers
        )
        stats = report.node_stats[0]
        assert stats["alive"] is False
        end = max(
            3.0,
            *(r.end_time_s for r in report.node_reports),
        )
        assert stats["downtime_s"] == pytest.approx(end - 1.0)
        # Node 0 accepted nothing after the kill: its last arrival
        # predates the fault.
        last_arrival = max(
            (t for t, _ in report.node_reports[0].arrivals),
            default=0.0,
        )
        assert last_arrival <= 1.0

    def test_single_node_fleet_with_dead_node_sheds_no_node(self):
        report = _run(
            nodes=1, router="least-loaded", rate_per_s=8.0,
            duration_s=3.0, faults=(FaultSpec(0, 1.0),),
        )
        assert report.shed_no_node > 0
        assert report.generated == (
            report.completed + report.shed_admission
            + report.shed_failure + report.shed_no_node
        )

    def test_faults_are_byte_deterministic(self):
        faults = (FaultSpec(1, 1.0, 2.0),)
        first = _run(nodes=3, faults=faults, rate_per_s=8.0)
        second = _run(nodes=3, faults=faults, rate_per_s=8.0)
        assert first.to_json() == second.to_json()


class TestAdaptiveFleet:
    def test_adaptive_nodes_reconfigure(self):
        report = _run(policy="adaptive", rate_per_s=8.0)
        for node_report in report.node_reports:
            controller = node_report.controller
            assert controller["enabled"]
            assert controller["ticks"] > 0
        assert any(
            node_report.controller["reconfigurations"] > 0
            for node_report in report.node_reports
        )

    def test_affinity_router_reports_classifications(self):
        report = _run(router="affinity", rate_per_s=8.0)
        described = report.router
        assert described["policy"] == "affinity"
        assert described["classifications"]["scan"] == "polluting"
        assert described["classifications"]["agg"] == "sensitive"
