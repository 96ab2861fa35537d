"""Tests for the arrival forecasters (repro.planner.forecast)."""

import json

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import PlannerError
from repro.planner import (
    FORECASTERS,
    EwmaForecaster,
    PlannerConfig,
    SeasonalWindowForecaster,
    fit_forecaster,
    forecaster_from_dict,
    make_forecaster,
    training_from_report,
)

WINDOWS = [
    {"scan": 4, "agg": 2},
    {"scan": 6, "agg": 1, "oltp": 3},
    {"scan": 2},
    {"agg": 5, "oltp": 2},
]


class TestRegistry:
    def test_factory_covers_every_name(self):
        for name in FORECASTERS:
            model = make_forecaster(name)
            assert model.name == name

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(PlannerError, match="forecaster"):
            make_forecaster("arima")

    def test_from_dict_rejects_unknown_name(self):
        with pytest.raises(PlannerError, match="serialized"):
            forecaster_from_dict({"name": "arima"})

    def test_rejects_bad_parameters(self):
        with pytest.raises(PlannerError):
            EwmaForecaster(window_s=0.0)
        with pytest.raises(PlannerError):
            EwmaForecaster(alpha=0.0)
        with pytest.raises(PlannerError):
            SeasonalWindowForecaster(period_s=-1.0)
        with pytest.raises(PlannerError):
            make_forecaster("ewma").observe(-1, {})
        with pytest.raises(PlannerError):
            make_forecaster("ewma").forecast(0.0, 0.0)


class TestDeterminism:
    @pytest.mark.parametrize("name", FORECASTERS)
    def test_same_log_gives_byte_identical_state(self, name):
        first = fit_forecaster(make_forecaster(name), WINDOWS)
        second = fit_forecaster(make_forecaster(name), WINDOWS)
        assert first.state_json() == second.state_json()

    @pytest.mark.parametrize("name", FORECASTERS)
    def test_key_order_inside_windows_is_irrelevant(self, name):
        shuffled = [
            dict(reversed(list(window.items())))
            for window in WINDOWS
        ]
        first = fit_forecaster(make_forecaster(name), WINDOWS)
        second = fit_forecaster(make_forecaster(name), shuffled)
        assert first.state_json() == second.state_json()

    @pytest.mark.parametrize("name", FORECASTERS)
    def test_forecast_is_deterministic(self, name):
        model = fit_forecaster(make_forecaster(name), WINDOWS)
        first = model.forecast(4.0, 2.0).to_dict()
        second = model.forecast(4.0, 2.0).to_dict()
        assert first == second


class TestRoundTrip:
    @pytest.mark.parametrize("name", FORECASTERS)
    def test_state_survives_serialization(self, name):
        model = fit_forecaster(make_forecaster(name), WINDOWS)
        rebuilt = forecaster_from_dict(
            json.loads(model.state_json())
        )
        assert rebuilt.state_json() == model.state_json()
        assert (
            rebuilt.forecast(4.0, 2.0).to_dict()
            == model.forecast(4.0, 2.0).to_dict()
        )

    @pytest.mark.parametrize("name", FORECASTERS)
    def test_rebuilt_model_keeps_learning_identically(self, name):
        model = fit_forecaster(make_forecaster(name), WINDOWS)
        rebuilt = forecaster_from_dict(
            json.loads(model.state_json())
        )
        model.observe(4, {"scan": 9})
        rebuilt.observe(4, {"scan": 9})
        assert rebuilt.state_json() == model.state_json()


class TestModels:
    def test_ewma_tracks_a_level_shift_with_lag(self):
        model = EwmaForecaster(window_s=1.0, alpha=0.5)
        fit_forecaster(model, [{"scan": 10}] * 4)
        model.observe(4, {"scan": 0})
        level = model.level()["scan"]
        assert 0.0 < level < 10.0

    def test_seasonal_predicts_a_recurring_shift_ahead(self):
        # One trained "day": quiet first half, busy second half.
        day = [{"scan": 2}] * 5 + [{"scan": 20}] * 5
        model = SeasonalWindowForecaster(window_s=1.0, period_s=10.0)
        fit_forecaster(model, day)
        quiet = model.forecast(0.0, 2.0).rate_per_s
        busy = model.forecast(6.0, 2.0).rate_per_s
        assert busy > quiet * 4

    def test_seasonal_falls_back_to_ewma_on_unseen_phases(self):
        model = SeasonalWindowForecaster(window_s=1.0, period_s=10.0)
        model.observe(0, {"scan": 8})
        # Phase 5 has never been observed: EWMA level answers.
        unseen = model.forecast(5.0, 1.0)
        assert unseen.rate_per_s == pytest.approx(8.0)

    def test_mix_fractions_sum_to_one(self):
        model = fit_forecaster(make_forecaster("ewma"), WINDOWS)
        forecast = model.forecast(4.0, 2.0)
        assert sum(forecast.mix.values()) == pytest.approx(1.0)
        assert forecast.rate_for("scan") + forecast.rate_for(
            "agg"
        ) + forecast.rate_for("oltp") == pytest.approx(
            forecast.rate_per_s
        )

    def test_empty_model_forecasts_zero(self):
        forecast = make_forecaster("ewma").forecast(0.0, 1.0)
        assert forecast.rate_per_s == 0.0
        assert forecast.mix == {}


class TestTrainingFromReport:
    def test_fleet_report_round_trips_into_training_windows(self):
        report = Cluster(ClusterConfig(
            nodes=2, duration_s=3.0, rate_per_s=8.0, seed=11,
            policy="none",
        )).run()
        training = training_from_report(report.to_dict())
        assert len(training) == 3
        total = sum(
            count for window in training for _, count in window
        )
        assert total == report.generated
        # The canonical form is hashable and sorted.
        for window in training:
            assert list(window) == sorted(window)

    def test_rejects_reports_without_arrival_windows(self):
        with pytest.raises(PlannerError, match="arrival_windows"):
            training_from_report({"report_version": 3})

    def test_rejects_malformed_blocks(self):
        with pytest.raises(PlannerError, match="per-class"):
            training_from_report(
                {"arrival_windows": {"classes": None}}
            )

    @pytest.mark.parametrize("payload, match", [
        ([1, 2], "JSON object"),
        ({"arrival_windows": {"classes": [["scan", 1]]}}, "map class"),
        ({"arrival_windows": {"classes": [{"scan": "x"}]}}, "integer"),
        ({"arrival_windows": {"classes": [{"scan": -3}]}}, "integer"),
        ({"arrival_windows": {"classes": [{"scan": 2.7}]}}, "integer"),
        ({"arrival_windows": {"classes": [{"scan": True}]}}, "integer"),
    ])
    def test_rejects_bad_payloads_windows_and_counts(self, payload, match):
        with pytest.raises(PlannerError, match=match):
            training_from_report(payload)

    def test_planner_config_rejects_negative_counts(self):
        with pytest.raises(PlannerError, match=">= 0"):
            PlannerConfig(training=((("scan", -1),),))
        assert PlannerConfig(training=((("scan", 0),),)).training
