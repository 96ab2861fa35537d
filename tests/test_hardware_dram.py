"""Tests for the DRAM bandwidth arbiter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.hardware.dram import BandwidthArbiter
from repro.units import GB


class TestArbiterBasics:
    def test_undersubscribed_everyone_satisfied(self):
        arbiter = BandwidthArbiter(64 * GB)
        grants = arbiter.allocate({"a": 10 * GB, "b": 20 * GB})
        assert grants["a"] == pytest.approx(10 * GB)
        assert grants["b"] == pytest.approx(20 * GB)

    def test_two_saturating_streams_split_equally(self):
        arbiter = BandwidthArbiter(64 * GB)
        grants = arbiter.allocate({"a": 100 * GB, "b": 100 * GB})
        assert grants["a"] == pytest.approx(32 * GB)
        assert grants["b"] == pytest.approx(32 * GB)

    def test_light_stream_protected(self):
        # Max-min fairness: the 5 GB/s stream is untouched; the hogs
        # split the rest.
        arbiter = BandwidthArbiter(64 * GB)
        grants = arbiter.allocate(
            {"light": 5 * GB, "hog1": 100 * GB, "hog2": 100 * GB}
        )
        assert grants["light"] == pytest.approx(5 * GB)
        assert grants["hog1"] == pytest.approx(29.5 * GB)
        assert grants["hog2"] == pytest.approx(29.5 * GB)

    def test_slowdown_factors(self):
        arbiter = BandwidthArbiter(64 * GB)
        slowdowns = arbiter.slowdown({"a": 128 * GB, "b": 0.0})
        assert slowdowns["a"] == pytest.approx(2.0)
        assert slowdowns["b"] == 1.0

    def test_rejects_negative_demand(self):
        arbiter = BandwidthArbiter(64 * GB)
        with pytest.raises(ModelError):
            arbiter.allocate({"a": -1.0})

    def test_rejects_zero_capacity(self):
        with pytest.raises(ModelError):
            BandwidthArbiter(0)

    def test_empty_demands(self):
        arbiter = BandwidthArbiter(64 * GB)
        assert arbiter.allocate({}) == {}


demand_dicts = st.dictionaries(
    keys=st.sampled_from(["a", "b", "c", "d", "e"]),
    values=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    min_size=1,
    max_size=5,
)


class TestArbiterProperties:
    @given(demands=demand_dicts)
    @settings(max_examples=200, deadline=None)
    def test_grants_bounded_by_demand_and_capacity(self, demands):
        capacity = 64e9
        grants = BandwidthArbiter(capacity).allocate(demands)
        for name, grant in grants.items():
            assert grant <= demands[name] + 1e-3
        assert sum(grants.values()) <= capacity * (1 + 1e-9)

    @given(demands=demand_dicts)
    @settings(max_examples=200, deadline=None)
    def test_work_conserving(self, demands):
        capacity = 64e9
        grants = BandwidthArbiter(capacity).allocate(demands)
        total_demand = sum(demands.values())
        total_grant = sum(grants.values())
        expected = min(total_demand, capacity)
        assert total_grant == pytest.approx(expected, rel=1e-6, abs=1.0)

    @given(demands=demand_dicts)
    @settings(max_examples=200, deadline=None)
    def test_max_min_fairness(self, demands):
        """No unsatisfied requester may hold less than a satisfied
        requester demands: that would contradict max-min fairness."""
        capacity = 64e9
        grants = BandwidthArbiter(capacity).allocate(demands)
        unsatisfied = [
            grants[n] for n in demands if grants[n] < demands[n] - 1e-3
        ]
        if not unsatisfied:
            return
        smallest_unsatisfied = min(unsatisfied)
        for name in demands:
            # Every requester receives at least min(demand, the smallest
            # unsatisfied grant) up to numerical noise.
            entitled = min(demands[name], smallest_unsatisfied)
            assert grants[name] >= entitled - 1e-3
