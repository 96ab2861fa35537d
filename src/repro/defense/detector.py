"""Online contention detection with hysteresis.

The detector consumes only counters the stack already records — the
per-window arrival counts the fleet keeps for planner training, the
online CUID classification (shared, memoized, through the adaptive
controller's :func:`~repro.serve.controller.classify_cached`), and the
model's bandwidth/occupancy estimates per request class.  From those
it derives three per-tenant-group signals per sampled window:

* **bandwidth share** — offered DRAM traffic (arrivals x modeled
  bytes/request) as a fraction of *one node's* bus bandwidth — an
  attack stream is a single tenant id, so consistent hashing lands
  all of it on one node, while a legitimate group's many tenants
  spread fleet-wide (the per-node normalisation is conservative
  toward aggressors, not victims),
* **duty** — offered service seconds per wall second (> 1 means the
  group alone can saturate a node),
* **occupancy** — the largest modeled LLC-resident fraction among the
  group's classes.

A group is *suspect* in a window when it is classified
polluting/unknown and claims more than ``bandwidth_share`` of the bus
(thrashers, saturators), or when it offers ``duty_threshold`` node-
seconds of service per wall second over a near-full LLC footprint
(occupancy probes, which classify SENSITIVE and must be caught by
occupancy x duty instead).  Hysteresis
turns window verdicts into convictions: ``convict_windows``
consecutive suspect windows convict, ``release_windows`` consecutive
clean windows release (windows with no arrivals count clean, so a
stopped attack reforms on schedule).

Everything is a pure function of the run configuration — the detector
never reads simulation state that depends on execution interleaving —
so defended fleets stay byte-identical across repeats and
``--fleet-jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemSpec
from ..core.online import OnlineClassifier
from ..errors import DefenseError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.simulator import QuerySpec
from ..obs import runtime
from ..schema import (
    DETECTOR_SCHEMA_VERSION,
    check_finite,
    check_version,
    config_from_dict,
    config_to_dict,
    load_value,
)
from ..serve.arrivals import RequestClass
from ..serve.controller import classify_cached

#: Recognised defense modes: monitoring only happens under jail/evict.
DEFENSE_MODES = ("off", "jail", "evict")


@dataclass(frozen=True)
class DefenseConfig:
    """Detector and quarantine knobs (CLI: ``--defense*``)."""

    mode: str = "off"
    interval_s: float = 1.0
    convict_windows: int = 2
    release_windows: int = 3
    bandwidth_share: float = 0.50
    occupancy_share: float = 0.85
    #: An occupancy probe must offer this many node-seconds of service
    #: per wall second to be suspect.  Legitimate interactive groups
    #: run near or just above 1.0 at healthy fleet loads, so the
    #: threshold sits well clear of them — only a tenant squatting on
    #: the LLC with *multiples* of a node's service capacity trips it.
    duty_threshold: float = 2.0

    def __post_init__(self) -> None:
        check_finite(self, DefenseError)
        if self.mode not in DEFENSE_MODES:
            raise DefenseError(
                f"unknown defense mode {self.mode!r}; expected one "
                f"of {DEFENSE_MODES}"
            )
        if self.interval_s <= 0.0:
            raise DefenseError(
                f"defense interval must be > 0: {self.interval_s}"
            )
        if self.convict_windows < 1:
            raise DefenseError(
                "convict_windows must be >= 1: "
                f"{self.convict_windows}"
            )
        if self.release_windows < 1:
            raise DefenseError(
                "release_windows must be >= 1: "
                f"{self.release_windows}"
            )
        if not 0.0 < self.bandwidth_share <= 1.0:
            raise DefenseError(
                "bandwidth_share must be in (0, 1]: "
                f"{self.bandwidth_share}"
            )
        if not 0.0 < self.occupancy_share <= 1.0:
            raise DefenseError(
                "occupancy_share must be in (0, 1]: "
                f"{self.occupancy_share}"
            )
        if self.duty_threshold <= 0.0:
            raise DefenseError(
                f"duty_threshold must be > 0: {self.duty_threshold}"
            )

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "DefenseConfig":
        return config_from_dict(cls, payload, DefenseError)


class ContentionDetector:
    """Windowed aggressor detection over modeled per-class signals."""

    def __init__(
        self,
        spec: SystemSpec,
        config: DefenseConfig,
        classes: dict[str, RequestClass],
        nodes: int,
        window_s: float = 1.0,
        calibration: Calibration = DEFAULT_CALIBRATION,
        shared_cuids: dict[str, str] | None = None,
    ) -> None:
        if nodes < 1:
            raise DefenseError(f"detector needs >= 1 node: {nodes}")
        if window_s <= 0.0:
            raise DefenseError(
                f"detector window must be > 0: {window_s}"
            )
        self.spec = spec
        self.config = config
        self.nodes = nodes
        self.window_s = float(window_s)
        self._classes = dict(classes)
        self._classifier = OnlineClassifier(spec, calibration)
        self._cuids = (
            shared_cuids if shared_cuids is not None else {}
        )
        self._signals: dict[str, dict] = {}
        self._next_window = 0
        self._suspect_streak: dict[str, int] = {}
        self._clean_streak: dict[str, int] = {}
        self._convicted: set[str] = set()
        self.convictions: list[dict] = []
        self.releases: list[dict] = []

    # -- per-class signals (memoized model probes) ---------------------

    def _signal_for(self, cls: RequestClass) -> dict:
        signal = self._signals.get(cls.name)
        if signal is None:
            result = self._classifier.simulator.simulate(
                [QuerySpec(cls.profile.name, cls.profile,
                           self.spec.cores, self.spec.full_mask)]
            )[cls.profile.name]
            throughput = result.throughput_tuples_per_s
            cuid = classify_cached(
                self._classifier, cls, self._cuids
            )
            if throughput <= 0.0:
                # No throughput signal (starved probe): the class can
                # never be convicted on model evidence alone.
                signal = {
                    "cuid": cuid,
                    "dram_bytes_per_request": 0.0,
                    "occupancy_fraction": 0.0,
                    "request_s": 0.0,
                }
            else:
                request_s = cls.work_tuples / throughput
                occupancy = (
                    self._classifier._occupancy_estimate(result)
                    / self.spec.llc.size_bytes
                )
                signal = {
                    "cuid": cuid,
                    "dram_bytes_per_request": round(
                        result.dram_bytes_per_s * request_s, 6
                    ),
                    "occupancy_fraction": round(occupancy, 9),
                    "request_s": round(request_s, 9),
                }
            self._signals[cls.name] = signal
            runtime.metrics.counter("defense.probes").inc()
        return signal

    # -- window evaluation ---------------------------------------------

    def _window_verdicts(self, counts: dict[str, int]) -> set[str]:
        """The suspect groups of one arrival window."""
        by_group: dict[str, list[tuple[RequestClass, int]]] = {}
        for name in sorted(counts):
            cls = self._classes.get(name)
            if cls is None or counts[name] <= 0:
                continue
            by_group.setdefault(cls.tenant, []).append(
                (cls, counts[name])
            )
        bus = self.spec.dram.bandwidth_bytes_per_s * self.window_s
        suspects = set()
        for group, members in by_group.items():
            signals = [
                (self._signal_for(cls), count)
                for cls, count in members
            ]
            bw_share = sum(
                s["dram_bytes_per_request"] * count
                for s, count in signals
            ) / bus
            duty = sum(
                s["request_s"] * count for s, count in signals
            ) / self.window_s
            occupancy = max(
                s["occupancy_fraction"] for s, _ in signals
            )
            polluting = all(
                s["cuid"] in ("polluting", "unknown")
                for s, _ in signals
            )
            if polluting and bw_share >= self.config.bandwidth_share:
                suspects.add(group)
            elif (
                duty >= self.config.duty_threshold
                and occupancy >= self.config.occupancy_share
            ):
                suspects.add(group)
        return suspects

    def tick(
        self, now: float, class_windows: list[dict[str, int]]
    ) -> list[dict]:
        """Process every window fully elapsed by ``now``.

        Returns the convict/release actions in window order; the fleet
        applies them (jail masks, quarantine routing) as they return.
        """
        actions = []
        while (
            self._next_window < len(class_windows)
            and (self._next_window + 1) * self.window_s
            <= now + 1e-9
        ):
            window = self._next_window
            self._next_window += 1
            suspects = self._window_verdicts(class_windows[window])
            tracked = sorted(
                suspects | self._convicted
                | set(self._suspect_streak)
                | set(self._clean_streak)
            )
            for group in tracked:
                if group in suspects:
                    self._suspect_streak[group] = (
                        self._suspect_streak.get(group, 0) + 1
                    )
                    self._clean_streak[group] = 0
                else:
                    self._clean_streak[group] = (
                        self._clean_streak.get(group, 0) + 1
                    )
                    self._suspect_streak[group] = 0
                if (
                    group not in self._convicted
                    and self._suspect_streak[group]
                    >= self.config.convict_windows
                ):
                    self._convicted.add(group)
                    action = {
                        "action": "convict",
                        "group": group,
                        "window": window,
                        "time_s": round(
                            (window + 1) * self.window_s, 9
                        ),
                    }
                    self.convictions.append(action)
                    actions.append(action)
                    runtime.metrics.counter(
                        "defense.convictions"
                    ).inc()
                elif (
                    group in self._convicted
                    and self._clean_streak[group]
                    >= self.config.release_windows
                ):
                    self._convicted.discard(group)
                    del self._suspect_streak[group]
                    del self._clean_streak[group]
                    action = {
                        "action": "release",
                        "group": group,
                        "window": window,
                        "time_s": round(
                            (window + 1) * self.window_s, 9
                        ),
                    }
                    self.releases.append(action)
                    actions.append(action)
                    runtime.metrics.counter(
                        "defense.releases"
                    ).inc()
            runtime.metrics.counter("defense.windows").inc()
        return actions

    @property
    def convicted_groups(self) -> tuple[str, ...]:
        return tuple(sorted(self._convicted))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Byte-stable detector state (fleet report ``detector`` key)."""
        return {
            "schema_version": DETECTOR_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "window_s": round(self.window_s, 9),
            "nodes": self.nodes,
            "next_window": self._next_window,
            "convicted": sorted(self._convicted),
            "suspect_streaks": dict(
                sorted(self._suspect_streak.items())
            ),
            "clean_streaks": dict(
                sorted(self._clean_streak.items())
            ),
            "signals": {
                name: dict(sorted(signal.items()))
                for name, signal in sorted(self._signals.items())
            },
            "convictions": list(self.convictions),
            "releases": list(self.releases),
        }


def detector_from_dict(
    payload: dict,
    spec: SystemSpec | None = None,
    classes: dict[str, RequestClass] | None = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    shared_cuids: dict[str, str] | None = None,
) -> ContentionDetector:
    """Rebuild a detector from serialized state (round-trip loader).

    Cached signals restore verbatim (they are pure model probes, so
    the serialized values equal what a fresh probe would compute);
    ``to_dict`` of the result is byte-identical to the input.  Scalar
    state and the streak maps load under the config type rule
    (:func:`repro.schema.load_value`): a mistyped value raises
    :class:`DefenseError` naming its key.
    """
    check_version(
        payload, "schema_version", DETECTOR_SCHEMA_VERSION, DefenseError
    )

    def read(key: str, hint):
        return load_value(hint, payload[key], f"detector {key}", DefenseError)

    try:
        detector = ContentionDetector(
            spec=spec if spec is not None else SystemSpec(),
            config=DefenseConfig.from_dict(payload["config"]),
            classes=classes if classes is not None else {},
            nodes=read("nodes", int),
            window_s=read("window_s", float),
            calibration=calibration,
            shared_cuids=shared_cuids,
        )
        detector._next_window = read("next_window", int)
        detector._convicted = set(read("convicted", tuple[str, ...]))
        detector._suspect_streak = read("suspect_streaks", dict[str, int])
        detector._clean_streak = read("clean_streaks", dict[str, int])
        detector._signals = {
            name: dict(signal)
            for name, signal in payload["signals"].items()
        }
        detector.convictions = [
            dict(c) for c in payload["convictions"]
        ]
        detector.releases = [dict(r) for r in payload["releases"]]
    except KeyError as exc:
        raise DefenseError(
            f"detector state is missing required key: {exc}"
        ) from None
    return detector
