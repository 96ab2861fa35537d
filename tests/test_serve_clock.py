"""Tests for the simulation clock."""

import pytest

from repro.errors import ServeError
from repro.serve.clock import SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        assert clock() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        assert clock.advance_to(1.5) == 1.5
        assert clock.now == 1.5
        # Advancing to the same instant is allowed (simultaneous
        # events share a timestamp).
        assert clock.advance_to(1.5) == 1.5

    def test_refuses_to_run_backwards(self):
        clock = SimulatedClock(start=2.0)
        with pytest.raises(ServeError):
            clock.advance_to(1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ServeError):
            SimulatedClock(start=-1.0)

    def test_callable_matches_now(self):
        clock = SimulatedClock()
        clock.advance_to(3.25)
        # Reading never advances: the event loop owns time.
        assert clock() == clock() == 3.25

