"""Seeded adversarial tenant workloads (contention attacks).

Three hostile profiles modeled on the Shadow-Hunting contention
primitives, expressed in the same :class:`~repro.model.streams.
AccessProfile` vocabulary every legitimate tenant uses — the fleet
admits, routes and simulates them like any other request class:

* **thrash** — an LLC thrasher: a random sweep over a footprint ~4x
  the LLC with near-zero reuse plus a streaming flood.  Evicts every
  co-resident line while gaining nothing from the cache itself.
* **saturate** — a memory-bus saturator: pure sequential streaming
  with almost no compute, maximising DRAM bytes per instruction.
* **probe** — an occupancy probe: bursty prime-style sweeps over a
  buffer just under the LLC size with high reuse.  It *occupies* the
  cache rather than streaming past it, so it classifies SENSITIVE —
  detection must catch it by occupancy x duty, not by CUID.

An :class:`AttackSpec` schedules one attack stream (start/stop/rate),
mirroring :class:`~repro.cluster.faults.FaultSpec`; schedules are
either explicit or drawn from a seeded generator
(:func:`seeded_attacks`) whose stream derives from the cluster seed via
``derive_from(seed, "attacks")`` so attack timing never perturbs any
node's arrival stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import seeding
from ..config import SystemSpec
from ..errors import DefenseError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.streams import AccessProfile, RandomRegion, SequentialStream
from ..operators.base import CacheUsage
from ..schema import (
    ATTACK_SCHEMA_VERSION,
    check_finite,
    check_version,
    config_from_dict,
    config_to_dict,
)
from ..serve.arrivals import RequestClass

#: The recognised hostile profiles, in canonical order.
ATTACK_PROFILES = ("thrash", "saturate", "probe")

#: Default attack request rate (requests/s) for seeded schedules.
DEFAULT_ATTACK_RATE = 20.0

#: Work per attack request, in model tuples.  Sized so one request
#: runs ~50-120 ms of simulated service time at full cache —
#: long enough to dominate a node, short enough that streams at tens
#: of requests/s keep the pressure continuous.  The probe is the
#: heaviest: squatting works by *duty* (offered service seconds per
#: wall second), and the detector's duty gate sits at multiples of a
#: node's capacity, so probe requests must be long for default attack
#: rates to clear it (see docs/DEFENSE.md).
THRASH_REQUEST_TUPLES = 2.0e7
SATURATE_REQUEST_TUPLES = 2.0e7
PROBE_REQUEST_TUPLES = 1.2e8


@dataclass(frozen=True)
class AttackSpec:
    """One scheduled hostile tenant stream."""

    profile: str
    start_s: float = 0.0
    stop_s: float | None = None
    rate_per_s: float = DEFAULT_ATTACK_RATE

    def __post_init__(self) -> None:
        check_finite(self, DefenseError)
        if self.profile not in ATTACK_PROFILES:
            raise DefenseError(
                f"unknown attack profile {self.profile!r}; expected "
                f"one of {ATTACK_PROFILES}"
            )
        if self.start_s < 0.0:
            raise DefenseError(
                f"attack start must be >= 0: {self.start_s}"
            )
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise DefenseError(
                "attack stop must follow the start: "
                f"{self.stop_s} <= {self.start_s}"
            )
        if self.rate_per_s <= 0.0:
            raise DefenseError(
                f"attack rate must be > 0: {self.rate_per_s}"
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": ATTACK_SCHEMA_VERSION, **config_to_dict(self),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackSpec":
        """The inverse of :meth:`to_dict` (current schema only)."""
        if isinstance(payload, dict):
            check_version(
                payload, "schema_version", ATTACK_SCHEMA_VERSION,
                DefenseError,
            )
            payload = {
                k: v for k, v in payload.items() if k != "schema_version"
            }
        return config_from_dict(cls, payload, DefenseError)


def validate_attacks(
    attacks: tuple[AttackSpec, ...],
) -> tuple[AttackSpec, ...]:
    """Canonicalise a schedule: time-sorted, stable across input order.

    Stream indices (and therefore tenant ids and per-stream seed
    labels) are positions in this canonical order, so two ways of
    writing the same schedule produce byte-identical fleets.
    """
    return tuple(sorted(
        attacks,
        key=lambda a: (
            a.start_s,
            ATTACK_PROFILES.index(a.profile),
            a.rate_per_s,
            a.stop_s if a.stop_s is not None else float("inf"),
        ),
    ))


def seeded_attacks(
    count: int,
    duration_s: float,
    seed: int,
) -> tuple[AttackSpec, ...]:
    """Draw a random attack schedule from the cluster seed.

    Profiles uniform over :data:`ATTACK_PROFILES`, starts uniform in
    the first half of the run (after 10 %), each attack active for
    30-50 % of the horizon (clipped to the run end).
    """
    if count < 0:
        raise DefenseError(f"attack count must be >= 0: {count}")
    if count == 0:
        return ()
    if duration_s <= 0.0:
        raise DefenseError(
            f"attack horizon must be > 0: {duration_s}"
        )
    rng = np.random.default_rng(seeding.derive_from(seed, "attacks"))
    attacks = []
    for _ in range(count):
        profile = ATTACK_PROFILES[int(rng.integers(
            len(ATTACK_PROFILES)
        ))]
        start = float(rng.uniform(0.1 * duration_s, 0.5 * duration_s))
        length = float(rng.uniform(0.3 * duration_s, 0.5 * duration_s))
        stop = min(start + length, duration_s)
        if stop <= start:
            stop = None
        attacks.append(AttackSpec(
            profile=profile, start_s=start, stop_s=stop,
            rate_per_s=DEFAULT_ATTACK_RATE,
        ))
    return validate_attacks(tuple(attacks))


def attack_classes(
    workers: int = 22,
    calibration: Calibration = DEFAULT_CALIBRATION,
    spec: SystemSpec | None = None,
) -> dict[str, RequestClass]:
    """The hostile request classes, keyed by profile name.

    Each class is tenanted into its *own* group named after the
    profile (``thrash``, ``saturate``, ``probe``) — those group names
    are the ground-truth attack labels the report's false-positive
    accounting compares detector convictions against.
    """
    system = spec if spec is not None else SystemSpec()
    llc_bytes = float(system.llc.size_bytes)
    thrash = AccessProfile(
        name="atk_thrash",
        tuples=1.0e6,
        compute_cycles_per_tuple=1.0,
        instructions_per_tuple=2.0,
        regions=(RandomRegion(
            "sweep", 16.0 * llc_bytes, accesses_per_tuple=2.0,
        ),),
        streams=(SequentialStream("flood", 64.0),),
    )
    saturate = AccessProfile(
        name="atk_saturate",
        tuples=1.0e6,
        compute_cycles_per_tuple=0.5,
        instructions_per_tuple=1.0,
        streams=(SequentialStream("burst", 256.0),),
    )
    probe = AccessProfile(
        name="atk_probe",
        tuples=1.0e6,
        compute_cycles_per_tuple=1.0,
        instructions_per_tuple=2.0,
        regions=(RandomRegion(
            "prime", 0.95 * llc_bytes, accesses_per_tuple=8.0,
        ),),
    )
    return {
        "thrash": RequestClass(
            name="atk_thrash",
            tenant="thrash",
            profile=thrash,
            work_tuples=THRASH_REQUEST_TUPLES,
            static_cuid=CacheUsage.POLLUTING,
        ),
        "saturate": RequestClass(
            name="atk_saturate",
            tenant="saturate",
            profile=saturate,
            work_tuples=SATURATE_REQUEST_TUPLES,
            static_cuid=CacheUsage.POLLUTING,
        ),
        "probe": RequestClass(
            name="atk_probe",
            tenant="probe",
            profile=probe,
            work_tuples=PROBE_REQUEST_TUPLES,
            static_cuid=CacheUsage.SENSITIVE,
        ),
    }
