"""DRAM bandwidth contention arbitration.

The paper's concurrent experiments are shaped by two memory effects:
LLC capacity conflicts (handled by the cache/occupancy models) and DRAM
*bandwidth* contention — e.g. Fig. 9c, where a 400 MiB dictionary makes
both queries bandwidth-bound and cache partitioning barely helps.

:class:`BandwidthArbiter` implements max-min fair sharing (water-
filling): every requester gets its demand if the bus is undersubscribed;
otherwise unsatisfied requesters split the residual capacity equally.
This matches the behaviour of a memory controller that round-robins
among saturating streams while light streams are unaffected.
"""

from __future__ import annotations

from ..errors import ModelError


class BandwidthArbiter:
    """Max-min fair division of DRAM bandwidth among demand streams."""

    def __init__(self, capacity_bytes_per_s: float) -> None:
        if capacity_bytes_per_s <= 0:
            raise ModelError(
                f"bandwidth capacity must be > 0: {capacity_bytes_per_s}"
            )
        self._capacity = capacity_bytes_per_s

    @property
    def capacity(self) -> float:
        return self._capacity

    def allocate(self, demands: dict[str, float]) -> dict[str, float]:
        """Return per-requester bandwidth grants.

        Properties (asserted by the test suite):
        * grant_i <= demand_i,
        * sum(grants) <= capacity,
        * work conserving: if sum(demands) >= capacity the bus is fully
          used; otherwise everyone is fully satisfied,
        * max-min fairness: no requester can gain without a requester
          with an equal-or-smaller grant losing.
        """
        for name, demand in demands.items():
            if demand < 0:
                raise ModelError(f"demand for {name!r} must be >= 0: {demand}")
        grants = {name: 0.0 for name in demands}
        remaining = dict(demands)
        capacity_left = self._capacity
        while remaining and capacity_left > 1e-12:
            fair_share = capacity_left / len(remaining)
            satisfied = {
                name: demand
                for name, demand in remaining.items()
                if demand <= fair_share
            }
            if satisfied:
                for name, demand in satisfied.items():
                    grants[name] = demands[name]
                    capacity_left -= demand
                    del remaining[name]
            else:
                # Everyone left is saturating: split equally and stop.
                for name in remaining:
                    grants[name] = grants[name] + fair_share
                capacity_left = 0.0
                remaining = {}
        return grants

    def slowdown(self, demands: dict[str, float]) -> dict[str, float]:
        """Per-requester slowdown factor (demand / grant, >= 1.0).

        A stream that would need more bandwidth than it was granted runs
        proportionally slower.  Streams with zero demand get factor 1.
        """
        grants = self.allocate(demands)
        factors = {}
        for name, demand in demands.items():
            grant = grants[name]
            if demand <= 0 or grant >= demand:
                factors[name] = 1.0
            else:
                factors[name] = demand / grant if grant > 0 else float("inf")
        return factors
