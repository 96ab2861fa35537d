"""Integration tests: the discrete-event query service."""

import json

import pytest

from repro.errors import ServeError
from repro.serve import QueryService, ServiceConfig, olap_heavy_mix
from repro.serve.controller import AdaptiveController


def _config(**overrides):
    base = dict(
        profile="poisson",
        policy="none",
        mix="olap",
        duration_s=4.0,
        rate_per_s=8.0,
        seed=7,
    )
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture(scope="module")
def rate_cache():
    """Shared composition->rates cache: identical compositions across
    the module's runs are solved once."""
    return {}


@pytest.fixture(scope="module")
def baseline_report(rate_cache):
    return QueryService(_config(), rate_cache=rate_cache).run()


class TestConservation:
    def test_every_arrival_accounted_for(self, baseline_report):
        report = baseline_report
        assert report.arrived > 0
        # The run drains after the horizon: everything not shed
        # eventually completes.
        assert report.completed + report.shed == report.arrived

    def test_events_balanced(self, baseline_report):
        events = baseline_report.events
        assert events["pushed"] == events["popped"]

    def test_clock_never_precedes_horizon_work(self, baseline_report):
        assert baseline_report.end_time_s > 0.0


class TestDeterminism:
    def test_same_config_byte_identical_report(self, rate_cache):
        first = QueryService(_config(), rate_cache=rate_cache).run()
        second = QueryService(_config(), rate_cache=rate_cache).run()
        assert first.to_json() == second.to_json()

    def test_cold_cache_equals_warm_cache(self, rate_cache):
        warm = QueryService(_config(), rate_cache=rate_cache).run()
        cold = QueryService(_config(), rate_cache={}).run()
        payload_warm = warm.to_dict()
        payload_cold = cold.to_dict()
        # Cache hit counts differ by construction; everything
        # observable about the simulation must not.
        for payload in (payload_warm, payload_cold):
            payload.pop("rate_cache_hits")
            payload.pop("rate_solves")
        assert payload_warm == payload_cold

    def test_different_seed_different_run(self, rate_cache):
        a = QueryService(
            _config(seed=1), rate_cache=rate_cache
        ).run()
        b = QueryService(
            _config(seed=2), rate_cache=rate_cache
        ).run()
        assert a.to_json() != b.to_json()


class TestQueueingAndShedding:
    def test_overload_sheds(self, rate_cache):
        report = QueryService(
            _config(rate_per_s=60.0, max_concurrency=2,
                    queue_depth=2, duration_s=2.0),
            rate_cache=rate_cache,
        ).run()
        assert report.shed > 0
        assert report.completed + report.shed == report.arrived

    def test_latency_includes_queue_wait(self, rate_cache):
        light = QueryService(
            _config(rate_per_s=2.0), rate_cache=rate_cache
        ).run()
        heavy = QueryService(
            _config(rate_per_s=40.0, queue_depth=32,
                    duration_s=3.0),
            rate_cache=rate_cache,
        ).run()
        assert (
            heavy.verdict_for("olap").p99_s
            > light.verdict_for("olap").p99_s
        )


class TestPolicies:
    def test_static_enables_partitioning(self, rate_cache):
        service = QueryService(
            _config(policy="static"), rate_cache=rate_cache
        )
        assert service.cache_controller.enabled
        report = service.run()
        assert report.completed > 0
        assert not report.controller["enabled"]

    def test_none_runs_unpartitioned(self, rate_cache):
        service = QueryService(_config(), rate_cache=rate_cache)
        assert not service.cache_controller.enabled
        mix = olap_heavy_mix(service.spec.cores, service.calibration)
        for cls in mix.classes:
            assert service._mask_for(cls) == service.spec.full_mask

    def test_adaptive_reconfigures_and_converges(self, rate_cache):
        report = QueryService(
            _config(policy="adaptive", duration_s=6.0),
            rate_cache=rate_cache,
        ).run()
        controller = report.controller
        assert controller["enabled"]
        assert controller["reconfigurations"] >= 1
        assert controller["ticks"] >= controller["reconfigurations"]
        # Converged: the tail of the decision log is all unchanged.
        decisions = controller["decisions"]
        assert decisions, "expected at least one control decision"
        assert not decisions[-1]["changed"]

    def test_adaptive_starts_unpartitioned(self):
        service = QueryService(_config(policy="adaptive"))
        mix = olap_heavy_mix(service.spec.cores, service.calibration)
        for cls in mix.classes:
            assert service._mask_for(cls) == service.spec.full_mask


class TestReports:
    def test_report_roundtrips_as_json(self, baseline_report,
                                       tmp_path):
        path = baseline_report.write(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["report_version"] == 4
        assert payload["config"]["seed"] == 7
        assert payload["completed"] == baseline_report.completed
        # v2+: the offered arrival log rides along for trace replay.
        assert len(payload["arrivals"]) == payload["arrived"]
        times = [entry[0] for entry in payload["arrivals"]]
        assert times == sorted(times)

    def test_verdict_lookup(self, baseline_report):
        assert baseline_report.verdict_for("olap").tenant == "olap"
        with pytest.raises(ServeError):
            baseline_report.verdict_for("nobody")

    def test_cache_control_stats_reported(self, rate_cache):
        report = QueryService(
            _config(policy="static"), rate_cache=rate_cache
        ).run()
        stats = report.cache_control
        assert stats["associations_requested"] > 0
        assert (
            stats["kernel_calls"] + stats["elided_calls"]
            == stats["associations_requested"]
        )


class TestControllerUnit:
    def test_interval_validation(self, spec):
        from repro.engine.cache_control import CacheController
        from repro.hardware.cat import CatController
        from repro.resctrl.filesystem import ResctrlFilesystem
        from repro.resctrl.interface import ResctrlInterface

        cache_controller = CacheController(
            spec,
            ResctrlInterface(ResctrlFilesystem(CatController(spec))),
        )
        with pytest.raises(ServeError):
            AdaptiveController(
                spec, cache_controller, interval_s=0.0
            )
        with pytest.raises(ServeError):
            AdaptiveController(
                spec, cache_controller, sweep_ways=()
            )

    def test_idle_tick_changes_nothing(self, spec):
        from repro.engine.cache_control import CacheController
        from repro.hardware.cat import CatController
        from repro.resctrl.filesystem import ResctrlFilesystem
        from repro.resctrl.interface import ResctrlInterface

        cache_controller = CacheController(
            spec,
            ResctrlInterface(ResctrlFilesystem(CatController(spec))),
        )
        controller = AdaptiveController(spec, cache_controller)
        decision = controller.tick(1.0, [])
        assert not decision.changed
        assert controller.reconfigurations == 0
        assert not cache_controller.enabled


class TestConfigValidation:
    def test_rejects_bad_enumerations(self):
        with pytest.raises(ServeError):
            _config(profile="uniform")
        with pytest.raises(ServeError):
            _config(policy="magic")
        with pytest.raises(ServeError):
            _config(mix="hybrid")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ServeError):
            _config(duration_s=0.0)
        with pytest.raises(ServeError):
            _config(rate_per_s=-1.0)
        with pytest.raises(ServeError):
            _config(seed=-1)
        with pytest.raises(ServeError):
            _config(mix="shift", shift_at_s=10.0)  # past horizon
