"""Arrival forecasting: per-class rate and mix predictions from
recorded per-window arrival counts.

Both the service and fleet reports (schema v4+) record an
``arrival_windows`` block — per-window counts of offered arrivals,
keyed by request class and by tenant — so a forecaster can train from
*any* prior run, not just ``--profile replay`` traces.  A forecaster
consumes those windows in order and answers one question: *over the
next horizon, how many arrivals of each class per second?*

Two pluggable models:

* ``ewma`` — exponentially weighted moving average of per-window
  counts.  The purely reactive baseline: it tracks level shifts with a
  lag of ``~1/alpha`` windows and has no notion of recurrence.
* ``seasonal`` — seasonal-window means.  Windows are folded onto a
  phase grid of ``period_s / window_s`` bins; each bin keeps a running
  mean of the counts observed at that phase.  Trained on a prior run
  of the same scenario (one "day"), it predicts a recurring shift
  *before* it happens — phases never observed fall back to the EWMA.

Determinism: fitting is a fold over windows in index order with plain
float arithmetic — no RNG, no dict-order dependence (keys are visited
sorted).  The serialized state (:meth:`Forecaster.state_json`) is
canonical JSON, so the same log always produces byte-identical state
(the round-trip suite pins this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import PlannerError

#: Registry of forecaster model names (the ``--plan-forecaster`` CLI
#: choices).
FORECASTERS = ("ewma", "seasonal")

#: Default smoothing factor for the EWMA level (and the seasonal
#: model's fallback).
DEFAULT_ALPHA = 0.3


@dataclass(frozen=True)
class Forecast:
    """One horizon prediction: total rate plus the class mix."""

    start_s: float
    horizon_s: float
    #: Predicted total arrivals per second over the horizon.
    rate_per_s: float
    #: Predicted fraction per key (sums to 1.0 when rate > 0).
    mix: dict

    def rate_for(self, key: str) -> float:
        """The predicted arrival rate of one key (requests/s)."""
        return self.rate_per_s * self.mix.get(key, 0.0)

    def to_dict(self) -> dict:
        return {
            "start_s": round(self.start_s, 9),
            "horizon_s": round(self.horizon_s, 9),
            "rate_per_s": round(self.rate_per_s, 9),
            "mix": {
                key: round(value, 9)
                for key, value in sorted(self.mix.items())
            },
        }


class Forecaster:
    """Base contract: observe windows in order, forecast a horizon."""

    name = "base"

    def observe(self, index: int, counts: dict) -> None:
        """Fold one complete window (``index``-th, 0-based) of
        per-key arrival counts into the model state."""
        raise NotImplementedError

    def forecast(self, start_s: float, horizon_s: float) -> Forecast:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def state_json(self) -> str:
        """Canonical serialized state — byte-stable for a given
        training sequence (same log in, same bytes out)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )


def _check_window(window_s: float) -> None:
    if window_s <= 0:
        raise PlannerError(f"window_s must be > 0: {window_s}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise PlannerError(f"alpha must be in (0, 1]: {alpha}")


class EwmaForecaster(Forecaster):
    """Exponentially weighted per-key counts — the reactive baseline."""

    name = "ewma"

    def __init__(
        self, window_s: float = 1.0, alpha: float = DEFAULT_ALPHA
    ) -> None:
        _check_window(window_s)
        _check_alpha(alpha)
        self.window_s = window_s
        self.alpha = alpha
        self.windows_observed = 0
        self._level: dict[str, float] = {}

    def observe(self, index: int, counts: dict) -> None:
        if index < 0:
            raise PlannerError(f"window index must be >= 0: {index}")
        self.windows_observed += 1
        alpha = self.alpha
        for key in sorted(set(self._level) | set(counts)):
            value = float(counts.get(key, 0))
            previous = self._level.get(key)
            self._level[key] = (
                value if previous is None
                else previous + alpha * (value - previous)
            )

    def level(self) -> dict[str, float]:
        """The smoothed per-window count per key."""
        return dict(self._level)

    def forecast(self, start_s: float, horizon_s: float) -> Forecast:
        if horizon_s <= 0:
            raise PlannerError(f"horizon must be > 0: {horizon_s}")
        total = sum(self._level.values())
        mix = (
            {
                key: value / total
                for key, value in sorted(self._level.items())
            }
            if total > 0.0 else {}
        )
        return Forecast(
            start_s=start_s,
            horizon_s=horizon_s,
            rate_per_s=max(0.0, total / self.window_s),
            mix=mix,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "window_s": self.window_s,
            "alpha": self.alpha,
            "windows_observed": self.windows_observed,
            "level": {
                key: value
                for key, value in sorted(self._level.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EwmaForecaster":
        model = cls(
            window_s=payload["window_s"], alpha=payload["alpha"]
        )
        model.windows_observed = payload["windows_observed"]
        model._level = dict(payload["level"])
        return model


class SeasonalWindowForecaster(Forecaster):
    """Seasonal-window means with an EWMA fallback.

    Window ``i`` maps to phase ``i mod (period_s / window_s)``; each
    phase keeps a running mean of the per-key counts observed there.
    The forecast averages the phase predictions covering
    ``[start, start + horizon)`` — so a model trained on one full
    period of a recurring scenario predicts its shifts *ahead* of
    time.  Phases with no observations fall back to the EWMA level.
    """

    name = "seasonal"

    def __init__(
        self,
        window_s: float = 1.0,
        period_s: float = 20.0,
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        _check_window(window_s)
        if period_s <= 0:
            raise PlannerError(f"period_s must be > 0: {period_s}")
        self.window_s = window_s
        self.period_s = period_s
        self.period_windows = max(1, round(period_s / window_s))
        self._fallback = EwmaForecaster(window_s, alpha)
        #: phase -> (observations, per-key running mean counts)
        self._phase_seen: dict[int, int] = {}
        self._phase_mean: dict[int, dict[str, float]] = {}

    @property
    def alpha(self) -> float:
        return self._fallback.alpha

    @property
    def windows_observed(self) -> int:
        return self._fallback.windows_observed

    def observe(self, index: int, counts: dict) -> None:
        if index < 0:
            raise PlannerError(f"window index must be >= 0: {index}")
        phase = index % self.period_windows
        seen = self._phase_seen.get(phase, 0) + 1
        self._phase_seen[phase] = seen
        mean = self._phase_mean.setdefault(phase, {})
        for key in sorted(set(mean) | set(counts)):
            value = float(counts.get(key, 0))
            previous = mean.get(key, 0.0)
            mean[key] = previous + (value - previous) / seen
        self._fallback.observe(index, counts)

    def _predict_phase(self, phase: int) -> dict[str, float]:
        if self._phase_seen.get(phase):
            return self._phase_mean[phase]
        return self._fallback._level

    def forecast(self, start_s: float, horizon_s: float) -> Forecast:
        if horizon_s <= 0:
            raise PlannerError(f"horizon must be > 0: {horizon_s}")
        first = int(start_s / self.window_s)
        count = max(1, round(horizon_s / self.window_s))
        totals: dict[str, float] = {}
        for offset in range(count):
            phase = (first + offset) % self.period_windows
            for key, value in sorted(
                self._predict_phase(phase).items()
            ):
                totals[key] = totals.get(key, 0.0) + value
        span_s = count * self.window_s
        total = sum(totals.values())
        mix = (
            {
                key: value / total
                for key, value in sorted(totals.items())
            }
            if total > 0.0 else {}
        )
        return Forecast(
            start_s=start_s,
            horizon_s=horizon_s,
            rate_per_s=max(0.0, total / span_s),
            mix=mix,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "window_s": self.window_s,
            "period_s": self.period_s,
            "alpha": self.alpha,
            "fallback": self._fallback.to_dict(),
            "phases": {
                str(phase): {
                    "seen": self._phase_seen[phase],
                    "mean": {
                        key: value
                        for key, value in sorted(
                            self._phase_mean[phase].items()
                        )
                    },
                }
                for phase in sorted(self._phase_seen)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SeasonalWindowForecaster":
        model = cls(
            window_s=payload["window_s"],
            period_s=payload["period_s"],
            alpha=payload["alpha"],
        )
        model._fallback = EwmaForecaster.from_dict(payload["fallback"])
        for phase_text, entry in payload["phases"].items():
            phase = int(phase_text)
            model._phase_seen[phase] = entry["seen"]
            model._phase_mean[phase] = dict(entry["mean"])
        return model


def make_forecaster(
    name: str,
    window_s: float = 1.0,
    period_s: float = 20.0,
    alpha: float = DEFAULT_ALPHA,
) -> Forecaster:
    """Factory over the registry (the CLI-facing model names)."""
    if name == "ewma":
        return EwmaForecaster(window_s=window_s, alpha=alpha)
    if name == "seasonal":
        return SeasonalWindowForecaster(
            window_s=window_s, period_s=period_s, alpha=alpha
        )
    raise PlannerError(
        f"forecaster must be one of {FORECASTERS}: {name!r}"
    )


def forecaster_from_dict(payload: dict) -> Forecaster:
    """Rebuild a serialized forecaster (:meth:`Forecaster.to_dict`)."""
    name = payload.get("name")
    if name == "ewma":
        return EwmaForecaster.from_dict(payload)
    if name == "seasonal":
        return SeasonalWindowForecaster.from_dict(payload)
    raise PlannerError(
        f"serialized forecaster must be one of {FORECASTERS}: "
        f"{name!r}"
    )


def fit_forecaster(forecaster: Forecaster, windows) -> Forecaster:
    """Fold a window sequence into a forecaster, in index order."""
    for index, counts in enumerate(windows):
        forecaster.observe(index, dict(counts))
    return forecaster


def training_from_report(payload: dict) -> tuple:
    """Canonical training windows from a recorded report.

    Accepts a service *or* fleet report dict (its
    ``arrival_windows`` block; version-check a file through
    :func:`repro.schema.load_report` first) and returns the hashable form
    :class:`~repro.cluster.fleet.ClusterConfig` carries in
    ``plan_training``: one ``((class, count), ...)`` tuple per window,
    entries sorted by class name.
    """
    if not isinstance(payload, dict):
        raise PlannerError(
            f"report must be a JSON object: {type(payload).__name__}"
        )
    block = payload.get("arrival_windows")
    if not isinstance(block, dict):
        raise PlannerError("report has no arrival_windows block")
    windows = block.get("classes")
    if not isinstance(windows, list):
        raise PlannerError(
            "arrival_windows block has no per-class counts"
        )
    for window in windows:
        if not isinstance(window, dict):
            raise PlannerError(
                f"arrival window must map class to count: {window!r}"
            )
        for name, count in window.items():
            if (
                not isinstance(count, int) or isinstance(count, bool)
                or count < 0
            ):
                raise PlannerError(
                    f"arrival count for {name!r} must be a "
                    f"non-negative integer: {count!r}"
                )
    return tuple(
        tuple(sorted(
            (str(name), count) for name, count in window.items()
        ))
        for window in windows
    )
