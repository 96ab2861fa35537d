"""Adversarial tenants and online contention defense.

The paper's CAT partitioning story assumes tenants are merely *noisy*;
shared platforms face *hostile* ones.  This package models the
Shadow-Hunting contention primitives as schedulable fleet tenants
(:mod:`repro.defense.attacks`), detects them online from counters the
stack already records (:mod:`repro.defense.detector`), and lets the
fleet quarantine convicted aggressors behind a minimal CAT "jail" mask
and sacrificial-node routing (``--defense {off,jail,evict}``).
"""

from __future__ import annotations

from .attacks import (
    ATTACK_PROFILES,
    ATTACK_SCHEMA_VERSION,
    DEFAULT_ATTACK_RATE,
    AttackSpec,
    attack_classes,
    seeded_attacks,
    validate_attacks,
)
from .detector import (
    DEFENSE_MODES,
    DETECTOR_SCHEMA_VERSION,
    ContentionDetector,
    DefenseConfig,
    detector_from_dict,
)

__all__ = [
    "ATTACK_PROFILES",
    "ATTACK_SCHEMA_VERSION",
    "DEFAULT_ATTACK_RATE",
    "AttackSpec",
    "attack_classes",
    "seeded_attacks",
    "validate_attacks",
    "DEFENSE_MODES",
    "DETECTOR_SCHEMA_VERSION",
    "ContentionDetector",
    "DefenseConfig",
    "detector_from_dict",
]
