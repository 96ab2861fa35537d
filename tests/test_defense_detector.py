"""Tests for online contention detection (repro.defense.detector)."""

import json

import pytest

from repro.config import SystemSpec
from repro.defense import (
    DETECTOR_SCHEMA_VERSION,
    ContentionDetector,
    DefenseConfig,
    attack_classes,
    detector_from_dict,
)
from repro.errors import DefenseError
from repro.schema import load_report


def _classes():
    """Attack classes keyed by class name, as the fleet wires them."""
    return {
        cls.name: cls for cls in attack_classes().values()
    }


def _detector(**config_overrides):
    config = DefenseConfig(mode="jail", **config_overrides)
    return ContentionDetector(
        spec=SystemSpec(),
        config=config,
        classes=_classes(),
        nodes=2,
    )


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(DefenseError):
            DefenseConfig(mode="banhammer")

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(DefenseError):
            DefenseConfig(interval_s=0.0)

    def test_rejects_zero_convict_windows(self):
        with pytest.raises(DefenseError):
            DefenseConfig(convict_windows=0)

    def test_rejects_zero_release_windows(self):
        with pytest.raises(DefenseError):
            DefenseConfig(release_windows=0)

    def test_rejects_bandwidth_share_out_of_range(self):
        with pytest.raises(DefenseError):
            DefenseConfig(bandwidth_share=0.0)
        with pytest.raises(DefenseError):
            DefenseConfig(bandwidth_share=1.5)

    def test_rejects_occupancy_share_out_of_range(self):
        with pytest.raises(DefenseError):
            DefenseConfig(occupancy_share=1.01)

    def test_rejects_nonpositive_duty_threshold(self):
        with pytest.raises(DefenseError):
            DefenseConfig(duty_threshold=0.0)

    def test_round_trip(self):
        config = DefenseConfig(
            mode="evict", interval_s=0.5, convict_windows=3,
            release_windows=4, bandwidth_share=0.4,
            occupancy_share=0.9, duty_threshold=1.5,
        )
        assert DefenseConfig.from_dict(config.to_dict()) == config

    def test_round_trip_rejects_missing_key(self):
        payload = DefenseConfig().to_dict()
        del payload["duty_threshold"]
        with pytest.raises(DefenseError, match="missing"):
            DefenseConfig.from_dict(payload)


class TestWindowVerdicts:
    def test_thrasher_convicts_after_hysteresis(self):
        detector = _detector(convict_windows=2)
        windows = [{"atk_thrash": 20}, {"atk_thrash": 20}]
        actions = detector.tick(1.0, windows)
        assert actions == []  # one suspect window is not enough
        actions = detector.tick(2.0, windows)
        assert [a["action"] for a in actions] == ["convict"]
        assert actions[0]["group"] == "thrash"
        assert detector.convicted_groups == ("thrash",)

    def test_probe_convicts_on_duty_times_occupancy(self):
        # The probe classifies SENSITIVE — the bandwidth arm never
        # fires — so a conviction proves the duty x occupancy arm.
        detector = _detector(convict_windows=1)
        detector.tick(1.0, [{"atk_probe": 20}])
        assert detector.convicted_groups == ("probe",)

    def test_idle_windows_release_a_convict(self):
        detector = _detector(convict_windows=1, release_windows=2)
        windows = [{"atk_thrash": 20}, {}, {}, {}]
        detector.tick(1.0, windows)
        assert detector.convicted_groups == ("thrash",)
        actions = detector.tick(4.0, windows)
        assert [a["action"] for a in actions] == ["release"]
        assert detector.convicted_groups == ()

    def test_suspect_window_resets_clean_streak(self):
        detector = _detector(convict_windows=1, release_windows=2)
        windows = [
            {"atk_thrash": 20}, {}, {"atk_thrash": 20}, {}, {},
        ]
        detector.tick(5.0, windows)
        # The clean run was interrupted at window 2, so release only
        # lands after windows 3 and 4.
        assert detector.convicted_groups == ()
        assert detector.releases[0]["window"] == 4

    def test_light_traffic_is_not_suspect(self):
        detector = _detector(convict_windows=1)
        detector.tick(1.0, [{"atk_thrash": 1}])
        assert detector.convicted_groups == ()

    def test_windows_only_judged_once_elapsed(self):
        detector = _detector(convict_windows=1)
        actions = detector.tick(0.5, [{"atk_thrash": 20}])
        assert actions == []


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        detector = _detector(convict_windows=1, release_windows=2)
        detector.tick(
            2.0, [{"atk_thrash": 20}, {"atk_probe": 20}]
        )
        payload = detector.to_dict()
        restored = detector_from_dict(
            payload, spec=SystemSpec(), classes=_classes()
        )
        assert json.dumps(
            restored.to_dict(), sort_keys=True
        ) == json.dumps(payload, sort_keys=True)

    def test_restored_detector_keeps_judging(self):
        detector = _detector(convict_windows=1, release_windows=1)
        windows = [{"atk_thrash": 20}, {}]
        detector.tick(1.0, windows)
        restored = detector_from_dict(
            detector.to_dict(),
            spec=SystemSpec(),
            classes=_classes(),
        )
        actions = restored.tick(2.0, windows)
        assert [a["action"] for a in actions] == ["release"]

    def test_rejects_unversioned_state(self):
        payload = _detector().to_dict()
        del payload["schema_version"]
        with pytest.raises(DefenseError, match="schema_version"):
            detector_from_dict(payload)

    def test_rejects_newer_schema(self):
        payload = _detector().to_dict()
        payload["schema_version"] = DETECTOR_SCHEMA_VERSION + 1
        with pytest.raises(DefenseError, match="newer"):
            detector_from_dict(payload)

    @pytest.mark.parametrize("key, value", [
        ("nodes", "2"),
        ("nodes", True),
        ("window_s", True),
        ("window_s", "1.0"),
        ("next_window", 2.9),
        ("convicted", "thrash"),
        ("convicted", [1]),
        ("suspect_streaks", {"thrash": 1.5}),
        ("clean_streaks", {"thrash": True}),
        ("clean_streaks", [["thrash", 1]]),
    ])
    def test_rejects_mistyped_state(self, key, value):
        # The config type rule: an int is a float, a bool is nothing,
        # and nothing is coerced.
        payload = _detector().to_dict()
        payload[key] = value
        with pytest.raises(DefenseError, match=key):
            detector_from_dict(payload)

    def test_int_window_loads_as_given(self):
        payload = _detector().to_dict()
        payload["window_s"] = 2
        assert detector_from_dict(payload).window_s == 2


class TestLoadDefense:
    """A fleet report's defense block, read through load_report."""

    def test_rejects_unversioned_report(self):
        with pytest.raises(DefenseError, match="fleet_report_version"):
            load_report({}, DefenseError)

    def test_rejects_invalid_version(self):
        with pytest.raises(DefenseError, match="invalid"):
            load_report({"fleet_report_version": "six"}, DefenseError)

    def test_rejects_newer_report(self):
        with pytest.raises(DefenseError, match="newer"):
            load_report({"fleet_report_version": 7}, DefenseError)

    def test_rejects_pre_training_reports(self):
        with pytest.raises(DefenseError, match="predates"):
            load_report({"fleet_report_version": 3}, DefenseError)

    def test_v6_block_passes_through(self):
        defense = {"enabled": True, "mode": "jail", "attacks": []}
        report = {"fleet_report_version": 6, "defense": defense}
        assert load_report(report, DefenseError)["defense"] is defense
