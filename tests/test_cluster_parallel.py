"""Sequential-vs-parallel fleet equivalence (epoch-parallel engine).

The contract: under the stateless ``hash`` router, ``run(fleet_jobs=N)``
produces a fleet report **byte-identical** to the sequential merged-heap
loop for any N — same JSON, same node counters, same histograms — with
or without faults, sampling, or an adaptive controller.  Stateful
routers degrade gracefully to the sequential path and say so in the
report's ``execution`` block.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultSpec,
    count_epochs,
    expand_schedule,
    tenant_id,
)
from repro.errors import ClusterError
from repro.obs import observing

FAULTS = (FaultSpec(1, 1.0, 2.0), FaultSpec(2, 1.5, None))


def _config(**overrides) -> ClusterConfig:
    defaults = dict(
        nodes=4, router="hash", policy="none", duration_s=3.0,
        rate_per_s=6.0, seed=7,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _json(fleet_jobs=1, **overrides) -> str:
    cluster = Cluster(_config(**overrides))
    return cluster.run(fleet_jobs=fleet_jobs).to_json()


class TestJobsEquivalence:
    @pytest.mark.parametrize(
        "profile", ["poisson", "bursty", "diurnal"]
    )
    def test_profiles_byte_identical_across_jobs(self, profile):
        sequential = _json(1, profile=profile)
        for jobs in (2, 4):
            assert _json(jobs, profile=profile) == sequential

    def test_fault_schedule_byte_identical(self):
        # Mid-run kill + recover plus an unrecovered kill: the
        # parallel path must reproduce failovers, shed accounting,
        # downtime closure and the fault log exactly.
        sequential = _json(1, faults=FAULTS, rate_per_s=8.0)
        assert _json(4, faults=FAULTS, rate_per_s=8.0) == sequential
        payload = json.loads(sequential)
        # kill@1.0, recover@2.0, kill@1.5 -> three boundaries.
        assert payload["execution"]["epochs"] == 4

    def test_adaptive_policy_byte_identical(self):
        # Controllers run full analysis sweeps inside forked workers
        # (each installs a sequential parallel context); results must
        # still match the in-process run bit-for-bit.
        sequential = _json(1, policy="adaptive", nodes=2)
        assert _json(2, policy="adaptive", nodes=2) == sequential

    def test_sampled_run_byte_identical(self):
        kwargs = dict(
            duration_s=6.0, sample_window_s=1.0, sample_period=3,
        )
        assert _json(4, **kwargs) == _json(1, **kwargs)

    def test_excess_jobs_clamp_to_fleet_size(self):
        assert _json(16, nodes=2) == _json(1, nodes=2)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ClusterError):
            Cluster(_config()).run(fleet_jobs=0)


class TestSeedSweep:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_any_seed_byte_identical(self, seed):
        kwargs = dict(
            nodes=3, duration_s=2.0, rate_per_s=5.0, seed=seed,
        )
        assert _json(3, **kwargs) == _json(1, **kwargs)


class TestEpochSplitting:
    def test_boundary_fault_opens_exactly_one_epoch(self):
        events = expand_schedule((FaultSpec(1, 1.0, 2.0),))
        # The initial epoch, then one at the kill and one at the
        # recovery.
        assert count_epochs(events) == 3

    def test_simultaneous_events_share_one_epoch(self):
        events = expand_schedule((
            FaultSpec(0, 1.0, 2.0), FaultSpec(1, 1.0, 2.0),
        ))
        # Both kills at t=1.0 open one epoch, both recoveries another.
        assert len(events) == 4
        assert count_epochs(events) == 3

    def test_empty_schedule_is_one_epoch(self):
        assert count_epochs(()) == 1


def _first_arrival(config: ClusterConfig, source: int):
    """The exact instant of ``source``'s first arrival and the node the
    ring routes it to on a healthy fleet."""
    cluster = Cluster(config)
    stream = cluster._sources[source]
    stream.pull(0.0)
    timestamp, cls = stream.pending
    tenant = int(stream.tenant_rng.integers(config.tenants_per_group))
    decision = cluster.router.route(
        source, tenant_id(cls.tenant, tenant), cls, cluster.nodes,
        frozenset(range(config.nodes)),
    )
    return timestamp, decision.target


class TestBoundaryArrival:
    def test_arrival_on_fault_instant_byte_identical(self):
        # A kill at exactly an arrival's instant fires first (lane 0
        # before lane 2), so that arrival fails over; one ulp later it
        # still reaches its ring target.  Both must hold on every path.
        base = _config(rate_per_s=8.0)
        instant, target = _first_arrival(base, 0)
        reports = {}
        for kill_at in (instant, math.nextafter(instant, math.inf)):
            config = _config(
                rate_per_s=8.0,
                faults=(FaultSpec(target, kill_at, kill_at + 1.0),),
            )
            sequential = Cluster(config).run().to_json()
            for jobs in (2, 4):
                assert Cluster(config).run(fleet_jobs=jobs).to_json() == (
                    sequential
                )
            reports[kill_at] = json.loads(sequential)
        on_instant, after = reports.values()
        assert on_instant["failovers"] == after["failovers"] + 1


def _node_state(node) -> dict:
    """What a sequential run leaves on a node, as comparable values."""
    return {
        "rate_cache": list(node.rate_cache._entries.items()),
        "slo": {
            tenant: node.slo.histogram(tenant).bucket_counts()
            for tenant in node.slo.tenants()
        },
        "clock": node.clock.now,
        "rate_solves": node.rate_solves,
        "rate_cache_hits": node.rate_cache_hits,
        "downtime_s": node.downtime_s,
        "kills": node.kills,
    }


class TestParentState:
    def test_nodes_match_sequential_after_faulted_adaptive_run(self):
        config = _config(
            policy="adaptive", faults=FAULTS, rate_per_s=8.0
        )
        states = {}
        for jobs in (1, 2):
            cluster = Cluster(config)
            cluster.run(fleet_jobs=jobs)
            states[jobs] = [_node_state(node) for node in cluster.nodes]
            # Adopted nodes share the fleet memo again.
            assert all(
                node.solve_memo is cluster.solve_memo
                for node in cluster.nodes
            )
        assert states[2] == states[1]
        assert any(state["kills"] for state in states[1])
        assert all(state["rate_cache"] for state in states[1])

    def test_metrics_match_sequential_on_sampled_faulted_run(self):
        config = _config(
            faults=FAULTS, rate_per_s=8.0, duration_s=6.0,
            sample_window_s=1.0, sample_period=3,
        )
        names = (
            "cluster.routed", "cluster.failover", "cluster.shed",
            "serve.sample.window_jumps", "serve.rate_solves",
            "serve.requests.completed",
        )
        counts = {}
        for jobs in (1, 2):
            with observing() as (_, metrics):
                Cluster(config).run(fleet_jobs=jobs)
            counts[jobs] = {
                name: metrics.counter(name).value for name in names
            }
        assert counts[2] == counts[1]
        assert all(counts[1].values())


class TestStatefulFallback:
    @pytest.mark.parametrize("router", ["least-loaded", "affinity"])
    def test_fallback_records_warning(self, router):
        report = Cluster(_config(router=router)).run(fleet_jobs=4)
        warnings = report.execution["warnings"]
        assert len(warnings) == 1
        assert "fleet_jobs=4" in warnings[0]
        assert router in warnings[0]
        assert "ran sequentially" in warnings[0]
        assert report.generated > 0  # the run still completed

    def test_hash_parallel_report_has_no_warnings(self):
        report = Cluster(_config()).run(fleet_jobs=4)
        assert report.execution["warnings"] == []

    def test_single_node_fleet_stays_sequential(self):
        # Nothing to fan out; no warning either (not a degradation).
        report = Cluster(_config(nodes=1)).run(fleet_jobs=4)
        assert report.execution["warnings"] == []


DEFENSE_WARNING = (
    "attack streams and the contention detector interleave with node "
    "events; fleet execution is sequential for any fleet_jobs value"
)
PLANNER_WARNING = (
    "policy 'planned' replans routing and CAT state on a timer; fleet "
    "execution is sequential for any fleet_jobs value"
)
#: policy case -> config overrides (runs last 2 s: a 1 s plan interval
#: fires, a 2 s one never does).
RULE_POLICIES = {
    "none": dict(policy="none"),
    "planned-firing": dict(policy="planned", plan_interval_s=1.0),
    "planned-idle": dict(policy="planned", plan_interval_s=2.0),
}


class TestSequentialRule:
    """The whole matrix of the one sequential-execution rule: first
    blocker wins (defense, then planner, then router)."""

    @pytest.mark.parametrize("nodes", [1, 3])
    @pytest.mark.parametrize("fleet_jobs", [1, 4])
    @pytest.mark.parametrize("defended", [False, True])
    @pytest.mark.parametrize("policy", list(RULE_POLICIES))
    @pytest.mark.parametrize(
        "router", ["hash", "least-loaded", "affinity", "planned"]
    )
    def test_matrix(self, router, policy, defended, fleet_jobs, nodes):
        if (router == "planned") != (policy != "none"):
            pytest.skip("policy 'planned' and router 'planned' go together")
        config = ClusterConfig(
            nodes=nodes, router=router, duration_s=2.0, rate_per_s=3.0,
            seed=5, defense="jail" if defended else "off",
            **RULE_POLICIES[policy],
        )
        with observing() as (_, metrics):
            report = Cluster(config).run(fleet_jobs=fleet_jobs)
        fan_out = fleet_jobs > 1 and nodes > 1
        if defended:
            warnings = [DEFENSE_WARNING]
        elif policy == "planned-firing":
            warnings = [PLANNER_WARNING]
        elif router in ("least-loaded", "affinity") and fan_out:
            warnings = [
                f"fleet_jobs={fleet_jobs} requested but router "
                f"{router!r} reads live node state per decision; ran "
                "sequentially"
            ]
        else:
            warnings = []
        parallel = fan_out and not warnings
        assert report.execution["warnings"] == warnings
        assert metrics.counter("cluster.parallel.fallbacks").value == (
            1 if fan_out and warnings else 0
        )
        assert metrics.counter("cluster.parallel.tasks").value == (
            nodes if parallel else 0
        )
