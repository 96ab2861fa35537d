"""Deterministic node fault injection.

A fault is a ``(node, kill_at_s, recover_at_s)`` triple; ``None``
recovery means the node stays down for the rest of the run.  Schedules
are either written explicitly or drawn from a seeded generator
(:func:`seeded_faults`) whose stream derives from the cluster seed via
``repro.seeding.derive_from(seed, "faults")`` — so fault timing never
perturbs any node's arrival stream, and the same seed reproduces the
same outage pattern byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import seeding
from ..errors import ClusterError
from ..schema import check_finite, config_from_dict, config_to_dict


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled node outage."""

    node: int
    kill_at_s: float
    recover_at_s: float | None = None

    def __post_init__(self) -> None:
        check_finite(self, ClusterError)
        if self.node < 0:
            raise ClusterError(f"fault node must be >= 0: {self.node}")
        if self.kill_at_s < 0.0:
            raise ClusterError(
                f"kill time must be >= 0: {self.kill_at_s}"
            )
        if (
            self.recover_at_s is not None
            and self.recover_at_s <= self.kill_at_s
        ):
            raise ClusterError(
                "recovery must follow the kill: "
                f"{self.recover_at_s} <= {self.kill_at_s}"
            )

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return config_from_dict(cls, payload, ClusterError)


@dataclass(frozen=True)
class FaultEvent:
    """One side of an outage: a kill or a recovery instant.

    The expanded form of a :class:`FaultSpec` the fleet loop and the
    epoch planner both consume.
    """

    time_s: float
    node: int
    recover: bool
    spec: FaultSpec | None = None


def expand_schedule(
    faults: tuple[FaultSpec, ...],
) -> tuple[FaultEvent, ...]:
    """Flatten outages into time-ordered kill/recover events.

    Kills sort before recoveries at equal instants, then node order —
    the processing order the merged heap's fault lane delivers.
    """
    events = []
    for fault in faults:
        events.append(FaultEvent(
            fault.kill_at_s, fault.node, recover=False, spec=fault,
        ))
        if fault.recover_at_s is not None:
            events.append(FaultEvent(
                fault.recover_at_s, fault.node, recover=True,
                spec=fault,
            ))
    return tuple(sorted(
        events,
        key=lambda e: (e.time_s, 1 if e.recover else 0, e.node),
    ))


def validate_schedule(
    faults: tuple[FaultSpec, ...], nodes: int
) -> tuple[FaultSpec, ...]:
    """Check a schedule against a fleet size; returns it time-sorted.

    Per-node outages must not overlap (a dead node cannot be killed
    again), and a fault may not target a node outside the fleet.
    """
    ordered = tuple(
        sorted(faults, key=lambda f: (f.kill_at_s, f.node))
    )
    last_recovery: dict[int, float | None] = {}
    for fault in ordered:
        if fault.node >= nodes:
            raise ClusterError(
                f"fault targets node {fault.node} but the fleet has "
                f"{nodes} node(s)"
            )
        previous = last_recovery.get(fault.node, 0.0)
        if previous is None or fault.kill_at_s < previous:
            raise ClusterError(
                f"overlapping outages on node {fault.node}: kill at "
                f"{fault.kill_at_s} inside an open outage"
            )
        last_recovery[fault.node] = fault.recover_at_s
    return ordered


def seeded_faults(
    nodes: int,
    count: int,
    duration_s: float,
    seed: int,
    mean_outage_s: float = 2.0,
) -> tuple[FaultSpec, ...]:
    """Draw a valid random outage schedule from the cluster seed.

    Kill instants are uniform over the middle of the run (after 10 %,
    before 80 % of the horizon, so outages land while traffic flows),
    outage lengths exponential with ``mean_outage_s``, victims uniform.
    Draws that would overlap an open outage on the same node are
    re-targeted to the next node (mod N) — deterministic repair, no
    rejection loop.
    """
    if count < 0:
        raise ClusterError(f"fault count must be >= 0: {count}")
    if count == 0:
        return ()
    if nodes <= 1:
        raise ClusterError(
            "fault injection needs >= 2 nodes (a 1-node fleet with "
            "its node down can only shed)"
        )
    rng = np.random.default_rng(seeding.derive_from(seed, "faults"))
    open_until: dict[int, float] = {}
    faults = []
    for _ in range(count):
        kill_at = float(
            rng.uniform(0.1 * duration_s, 0.8 * duration_s)
        )
        outage = float(rng.exponential(mean_outage_s))
        victim = int(rng.integers(nodes))
        for _ in range(nodes):
            if open_until.get(victim, 0.0) <= kill_at:
                break
            victim = (victim + 1) % nodes
        else:
            continue  # every node already down at this instant
        recover_at = min(kill_at + outage, duration_s)
        if recover_at <= kill_at:
            recover_at = kill_at + mean_outage_s
        open_until[victim] = recover_at
        faults.append(FaultSpec(victim, kill_at, recover_at))
    return validate_schedule(tuple(faults), nodes)
