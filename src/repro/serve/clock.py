"""Deterministic simulation clock.

:class:`SimulatedClock` is the event loop's time source.  It only moves
when an event is dispatched (:meth:`SimulatedClock.advance_to`) and
refuses to move backwards, so every timestamp a run records is a pure
function of the event schedule.
"""

from __future__ import annotations

from ..errors import ServeError


class SimulatedClock:
    """Monotonic simulated time in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ServeError(f"clock must start at >= 0: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` (never backwards)."""
        if timestamp < self._now:
            raise ServeError(
                f"clock cannot run backwards: {timestamp} < {self._now}"
            )
        self._now = float(timestamp)
        return self._now
