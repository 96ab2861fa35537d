"""Tests for the adversarial tenant workloads (repro.defense.attacks)."""

import pytest

from repro.cli import _parse_attack
from repro.defense import (
    ATTACK_PROFILES,
    ATTACK_SCHEMA_VERSION,
    DEFAULT_ATTACK_RATE,
    AttackSpec,
    attack_classes,
    seeded_attacks,
    validate_attacks,
)
from repro.errors import DefenseError
from repro.operators.base import CacheUsage


class TestSpecValidation:
    def test_rejects_unknown_profile(self):
        with pytest.raises(DefenseError):
            AttackSpec(profile="ddos")

    def test_rejects_negative_start(self):
        with pytest.raises(DefenseError):
            AttackSpec(profile="thrash", start_s=-1.0)

    def test_rejects_stop_before_start(self):
        with pytest.raises(DefenseError):
            AttackSpec(profile="thrash", start_s=2.0, stop_s=2.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DefenseError):
            AttackSpec(profile="probe", rate_per_s=0.0)


class TestSerialization:
    def test_round_trip(self):
        spec = AttackSpec(
            profile="saturate", start_s=1.5, stop_s=4.0,
            rate_per_s=12.0,
        )
        assert AttackSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_open_ended(self):
        spec = AttackSpec(profile="thrash", start_s=0.0)
        assert spec.stop_s is None
        assert AttackSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unversioned_payload(self):
        payload = AttackSpec(profile="thrash").to_dict()
        del payload["schema_version"]
        with pytest.raises(DefenseError, match="schema_version"):
            AttackSpec.from_dict(payload)

    def test_rejects_newer_schema(self):
        payload = AttackSpec(profile="thrash").to_dict()
        payload["schema_version"] = ATTACK_SCHEMA_VERSION + 1
        with pytest.raises(DefenseError, match="newer"):
            AttackSpec.from_dict(payload)

    def test_rejects_invalid_schema(self):
        payload = AttackSpec(profile="thrash").to_dict()
        payload["schema_version"] = "one"
        with pytest.raises(DefenseError, match="invalid"):
            AttackSpec.from_dict(payload)

    def test_rejects_missing_key(self):
        payload = AttackSpec(profile="thrash").to_dict()
        del payload["rate_per_s"]
        with pytest.raises(DefenseError, match="missing"):
            AttackSpec.from_dict(payload)


class TestCanonicalisation:
    def test_order_insensitive(self):
        a = AttackSpec(profile="thrash", start_s=2.0)
        b = AttackSpec(profile="probe", start_s=1.0)
        c = AttackSpec(profile="probe", start_s=1.0, rate_per_s=5.0)
        assert validate_attacks((a, b, c)) == validate_attacks(
            (c, a, b)
        )

    def test_sorted_by_start_then_profile(self):
        late = AttackSpec(profile="thrash", start_s=3.0)
        early = AttackSpec(profile="saturate", start_s=1.0)
        assert validate_attacks((late, early)) == (early, late)


class TestSeededSchedules:
    def test_deterministic_per_seed(self):
        assert seeded_attacks(3, 10.0, 42) == seeded_attacks(
            3, 10.0, 42
        )

    def test_seed_changes_schedule(self):
        assert seeded_attacks(3, 10.0, 42) != seeded_attacks(
            3, 10.0, 43
        )

    def test_schedule_is_valid_and_in_horizon(self):
        attacks = seeded_attacks(5, 20.0, 7)
        assert len(attacks) == 5
        assert attacks == validate_attacks(attacks)
        for attack in attacks:
            assert attack.profile in ATTACK_PROFILES
            assert 0.1 * 20.0 <= attack.start_s <= 0.5 * 20.0
            assert attack.stop_s is None or attack.stop_s <= 20.0
            assert attack.rate_per_s == DEFAULT_ATTACK_RATE

    def test_zero_count_is_empty(self):
        assert seeded_attacks(0, 10.0, 1) == ()

    def test_rejects_negative_count(self):
        with pytest.raises(DefenseError):
            seeded_attacks(-1, 10.0, 1)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(DefenseError):
            seeded_attacks(1, 0.0, 1)


class TestAttackClasses:
    def test_one_class_per_profile_with_own_tenant(self):
        classes = attack_classes()
        assert set(classes) == set(ATTACK_PROFILES)
        for profile, cls in classes.items():
            assert cls.tenant == profile
            assert cls.name == f"atk_{profile}"

    def test_probe_masquerades_as_sensitive(self):
        # The probe occupies the LLC rather than streaming past it, so
        # static classification cannot flag it — detection must go
        # through occupancy x duty instead.
        classes = attack_classes()
        assert classes["probe"].static_cuid is CacheUsage.SENSITIVE
        assert classes["thrash"].static_cuid is CacheUsage.POLLUTING
        assert classes["saturate"].static_cuid is CacheUsage.POLLUTING


class TestCliParsing:
    def test_bare_profile(self):
        assert _parse_attack("thrash") == AttackSpec(profile="thrash")

    def test_full_form(self):
        assert _parse_attack("probe:1.5:6:12") == AttackSpec(
            profile="probe", start_s=1.5, stop_s=6.0, rate_per_s=12.0,
        )

    def test_empty_fields_keep_defaults(self):
        spec = _parse_attack("saturate:2::")
        assert spec.start_s == 2.0
        assert spec.stop_s is None
        assert spec.rate_per_s == DEFAULT_ATTACK_RATE

    def test_rejects_excess_fields(self):
        with pytest.raises(DefenseError):
            _parse_attack("thrash:1:2:3:4")

    def test_rejects_garbage_number(self):
        with pytest.raises(DefenseError):
            _parse_attack("thrash:soon")
