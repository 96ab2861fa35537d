"""Trace replay: re-drive a recorded run's exact arrival sequence.

Every service report carries an ``arrivals`` log — the offered
``[time_s, class]`` sequence, shed requests included — and the run's
``config`` block.  :func:`load_trace` reads a report back into the
recorded :class:`ServiceConfig` and a :class:`ReplayArrivals` process,
which the service consumes through the same ``next_arrival(now)``
contract as the stochastic profiles.  That makes controller or router
changes A/B-testable against *identical* traffic:

    python -m repro serve --profile poisson --seed 7      # record
    python -m repro serve --profile replay \\
        --trace-file runs/serve-poisson-adaptive-seed7.json \\
        --policy static                                   # replay

The replayed run offers the same requests at the same instants; only
the policy under test differs.  Replaying a replay is a fixed point:
the re-recorded arrival log equals the one replayed.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..errors import ServeError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..schema import load_report
from .arrivals import RequestClass, catalog_classes
from .service import ServiceConfig


class ReplayArrivals:
    """An arrival process that replays a recorded sequence.

    Stateful like the seeded generators: each ``next_arrival`` call
    consumes the next recorded arrival.  ``now`` is accepted for
    interface compatibility; the recorded timestamps are authoritative
    (they are non-decreasing by construction — the recorder's clock
    never runs backwards).
    """

    def __init__(
        self, arrivals: tuple[tuple[float, RequestClass], ...]
    ) -> None:
        times = [time_s for time_s, _ in arrivals]
        if times != sorted(times):
            raise ServeError(
                "replay trace timestamps must be non-decreasing"
            )
        self._arrivals = tuple(arrivals)
        self._index = 0

    def __len__(self) -> int:
        return len(self._arrivals)

    def next_arrival(self, now: float) -> tuple[float, RequestClass]:
        """The next recorded arrival; past the end, one beyond any
        horizon (the service only schedules arrivals inside the run)."""
        if self._index >= len(self._arrivals):
            return (float("inf"), self._arrivals[-1][1]) if (
                self._arrivals
            ) else (float("inf"), _sentinel_class())
        timestamp, cls = self._arrivals[self._index]
        self._index += 1
        return timestamp, cls


def _sentinel_class() -> RequestClass:
    # Only reachable for an empty trace: the returned class is never
    # offered (its timestamp is +inf, past every horizon).
    return next(iter(catalog_classes().values()))


def load_trace(
    path: str | Path,
    workers: int = 22,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> tuple[ServiceConfig, ReplayArrivals]:
    """The recorded config and a replay process, from a service report.

    The file is read once and must be a service report at the current
    version.  Class names are resolved against the service catalog.
    """
    payload = load_report(path, ServeError)
    if "report_version" not in payload:
        raise ServeError(
            f"trace file {path} is a fleet report; replay takes a "
            "service report"
        )
    entries = payload.get("arrivals")
    if not isinstance(entries, list):
        raise ServeError(f"trace file {path} has no arrivals log")
    config = ServiceConfig.from_dict(payload.get("config"))
    classes = catalog_classes(workers, calibration)
    arrivals = []
    for entry in entries:
        if not (
            isinstance(entry, list) and len(entry) == 2
            and type(entry[0]) in (int, float) and math.isfinite(entry[0])
            and isinstance(entry[1], str)
        ):
            raise ServeError(
                f"trace arrival must be [time_s, class]: {entry!r}"
            )
        time_s, name = entry
        cls = classes.get(name)
        if cls is None:
            raise ServeError(
                f"trace class {name!r} is not in the service catalog "
                f"({sorted(classes)})"
            )
        arrivals.append((float(time_s), cls))
    return config, ReplayArrivals(tuple(arrivals))
