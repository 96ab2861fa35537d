"""Tests for trace replay (repro.serve.replay)."""

import dataclasses
import json

import pytest

from repro.cluster import FLEET_REPORT_VERSION
from repro.errors import ServeError
from repro.serve import (
    REPORT_VERSION,
    QueryService,
    ReplayArrivals,
    ServiceConfig,
    load_trace,
)
from repro.serve.arrivals import catalog_classes


def _record(tmp_path, policy="none", seed=7):
    config = ServiceConfig(
        profile="poisson", policy=policy, mix="olap",
        duration_s=3.0, rate_per_s=6.0, seed=seed,
    )
    report = QueryService(config).run()
    return report, report.write(tmp_path / "trace.json")


def _replay_config(path, policy: str) -> ServiceConfig:
    traced = json.loads(path.read_text())["config"]
    return dataclasses.replace(
        ServiceConfig.from_dict(traced), profile="replay", policy=policy
    )


class TestReplayArrivals:
    def test_replays_recorded_sequence(self):
        classes = catalog_classes()
        trace = (
            (0.5, classes["agg"]),
            (1.0, classes["scan"]),
            (1.0, classes["oltp"]),
        )
        replay = ReplayArrivals(trace)
        assert len(replay) == 3
        for expected in trace:
            assert replay.next_arrival(0.0) == expected

    def test_exhausted_trace_returns_beyond_horizon(self):
        classes = catalog_classes()
        replay = ReplayArrivals(((0.5, classes["agg"]),))
        replay.next_arrival(0.0)
        timestamp, _ = replay.next_arrival(0.5)
        assert timestamp == float("inf")

    def test_empty_trace_never_arrives(self):
        timestamp, _ = ReplayArrivals(()).next_arrival(0.0)
        assert timestamp == float("inf")

    def test_rejects_decreasing_timestamps(self):
        classes = catalog_classes()
        with pytest.raises(ServeError):
            ReplayArrivals(
                ((1.0, classes["agg"]), (0.5, classes["scan"]))
            )


class TestLoadTrace:
    def test_roundtrip(self, tmp_path):
        report, path = _record(tmp_path)
        _, replay = load_trace(path)
        assert len(replay) == report.arrived

    def test_load_trace_returns_recorded_config(self, tmp_path):
        report, path = _record(tmp_path)
        config, _ = load_trace(path)
        assert config == report.config

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ServeError, match="cannot read"):
            load_trace(tmp_path / "nope.json")

    def test_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ServeError, match="not a service report"):
            load_trace(path)

    def test_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps(
            {"report_version": 99, "arrivals": []}
        ))
        with pytest.raises(ServeError, match="newer"):
            load_trace(path)

    def test_v1_report_points_to_rerecord(self, tmp_path):
        # Version-1 reports predate the arrival log; they still load
        # elsewhere but replay needs the log.
        _, path = _record(tmp_path)
        payload = json.loads(path.read_text())
        payload["report_version"] = 1
        del payload["arrivals"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ServeError, match="re-record"):
            load_trace(path)

    @pytest.mark.parametrize("mutate, match", [
        (lambda p: [p], "JSON object, not list"),
        (lambda p: {**p, "report_version": True}, "invalid report_version"),
        (lambda p: {**p, "report_version": REPORT_VERSION - 1},
         "re-record"),
        (lambda p: {**p, "config": {**p["config"], "duration_s": "x"}},
         "duration_s must be float"),
        (lambda p: {**p, "config": {**p["config"], "extra": 1}},
         "unknown keys"),
        (lambda p: {k: v for k, v in p.items() if k != "config"},
         "JSON object"),
        (lambda p: {**p, "arrivals": [[0.1]]}, r"\[time_s, class\]"),
        (lambda p: {**p, "arrivals": [["x", "agg"]]},
         r"\[time_s, class\]"),
        (lambda p: {**p, "arrivals": [[True, "agg"]]},
         r"\[time_s, class\]"),
        (lambda p: {**p, "arrivals": [[0.1, ["agg"]]]},
         r"\[time_s, class\]"),
        (lambda p: {**p, "arrivals": None}, "no arrivals log"),
        (lambda p: {"fleet_report_version": FLEET_REPORT_VERSION},
         "fleet report"),
    ])
    def test_bad_trace_raises_serve_error(self, tmp_path, mutate, match):
        _, path = _record(tmp_path)
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ServeError, match=match):
            load_trace(path)

    def test_rejects_unknown_class(self, tmp_path):
        _, path = _record(tmp_path)
        payload = json.loads(path.read_text())
        payload["arrivals"] = [[0.5, "mystery"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ServeError, match="catalog"):
            load_trace(path)


class TestReplayThroughService:
    def test_same_policy_reproduces_the_run(self, tmp_path):
        recorded, path = _record(tmp_path, policy="none")
        config = _replay_config(path, policy="none")
        replayed = QueryService(
            config, arrivals=load_trace(path)[1]
        ).run()
        # The written report is the canonical trace: timestamps are
        # rounded to 9 decimals there, so the comparison happens at
        # the report level (in-memory floats differ below 1e-9).
        assert (
            replayed.to_dict()["arrivals"]
            == recorded.to_dict()["arrivals"]
        )
        assert replayed.completed == recorded.completed
        for mine, theirs in zip(replayed.slo, recorded.slo):
            assert mine.tenant == theirs.tenant
            assert mine.completed == theirs.completed
            # Quantiles are bucket bounds — exact across the 1e-9
            # timestamp rounding; means shift below that scale.
            assert mine.p99_s == theirs.p99_s
            assert mine.mean_s == pytest.approx(theirs.mean_s)

    def test_replaying_a_replay_is_a_fixed_point(self, tmp_path):
        _, path = _record(tmp_path, policy="none")
        config = _replay_config(path, policy="none")
        replayed = QueryService(
            config, arrivals=load_trace(path)[1]
        ).run()
        second_path = replayed.write(tmp_path / "replay.json")
        again = QueryService(
            _replay_config(second_path, "none"),
            arrivals=load_trace(second_path)[1],
        ).run()
        assert again.arrivals == replayed.arrivals

    def test_policy_ab_test_on_identical_traffic(self, tmp_path):
        recorded, path = _record(tmp_path, policy="none")
        config = _replay_config(path, policy="static")
        replayed = QueryService(
            config, arrivals=load_trace(path)[1]
        ).run()
        # Identical offered traffic, different policy under test.
        assert (
            replayed.to_dict()["arrivals"]
            == recorded.to_dict()["arrivals"]
        )
        assert replayed.config.policy == "static"

    def test_replay_profile_without_trace_rejected(self):
        config = ServiceConfig(profile="replay", policy="none")
        with pytest.raises(ServeError, match="replay"):
            QueryService(config)
