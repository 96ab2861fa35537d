"""Per-tenant latency tracking and SLO verdicts.

Latency percentiles are computed from a **fixed-bound log-spaced
histogram** rather than by storing every sample: bucket boundaries are
a deterministic geometric ladder from 100 microseconds to ~200
seconds, so a histogram's state (and every quantile read from it) is a
pure function of the observed latencies — independent of sample count,
insertion order, and platform.  Quantiles are reported as the **upper
bound** of the bucket holding the target rank; with ~24 buckets per
decade the overestimate is bounded at ~10 %, which is the usual
monitoring trade-off (Prometheus histograms make the same one).

Bucket counts live in a NumPy ``int64`` struct-of-arrays.  Indexing is
``bisect_right`` over the static bounds (bucket ``i`` holds samples in
``[bounds[i-1], bounds[i])``; a sample exactly on a bound lands in the
bucket whose upper edge is the *next* bound).  Observations are
buffered and filed in one ``searchsorted`` sweep on the next read —
``numpy.searchsorted(side="right")`` computes exactly
``bisect.bisect_right``, the single-sample rule
:meth:`LatencyHistogram._bucket_index` states.  ``NaN`` latencies
raise (they would otherwise be misfiled silently); negative inputs to
the index clamp to bucket 0.

:class:`SloTracker` keeps one histogram per tenant, mirrors counts into
the run's :class:`repro.obs.metrics.MetricsRegistry`, and renders
:class:`SloVerdict` rows against per-tenant :class:`SloTarget`
objectives — the signal the adaptive controller and the service report
both consume.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import ServeError
from ..obs import runtime

#: Histogram ladder: geometric from 100 us, ratio 1.1, 130 buckets
#: (~24 per decade) tops out a little above 200 s.
_FIRST_BOUND_S = 1.0e-4
_BUCKET_RATIO = 1.1
_BUCKET_COUNT = 130


def _bucket_bounds() -> tuple[float, ...]:
    bounds = []
    bound = _FIRST_BOUND_S
    for _ in range(_BUCKET_COUNT):
        bounds.append(bound)
        bound *= _BUCKET_RATIO
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram with deterministic quantiles."""

    BOUNDS_S: tuple[float, ...] = _bucket_bounds()
    _BOUNDS_ARRAY = np.array(BOUNDS_S, dtype=np.float64)

    def __init__(self) -> None:
        # One count per bound, plus an overflow bucket at the end.
        self._counts = np.zeros(len(self.BOUNDS_S) + 1, dtype=np.int64)
        self._pending: list[float] = []
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def observe(self, latency_s: float) -> None:
        if math.isnan(latency_s):
            raise ServeError("latency must not be NaN")
        if latency_s < 0:
            raise ServeError(f"latency must be >= 0: {latency_s}")
        self.total += 1
        self.sum_s += latency_s
        if latency_s > self.max_s:
            self.max_s = latency_s
        self._pending.append(latency_s)

    @classmethod
    def _bucket_index(cls, latency_s: float) -> int:
        """Bucket for one sample: ``bisect_right`` over the bounds.

        Raises on ``NaN`` (every comparison against NaN is false, so a
        search would misfile it silently); negative values clamp to
        bucket 0.  ``+inf`` lands in the overflow bucket.
        """
        if math.isnan(latency_s):
            raise ServeError("latency must not be NaN")
        if latency_s < 0:
            return 0
        return bisect_right(cls.BOUNDS_S, latency_s)

    def _flush(self) -> None:
        """File buffered observations into the bucket counts."""
        if not self._pending:
            return
        indexes = np.searchsorted(
            self._BOUNDS_ARRAY,
            np.asarray(self._pending, dtype=np.float64),
            side="right",
        )
        np.add.at(self._counts, indexes, 1)
        self._pending.clear()

    def bucket_counts(self) -> tuple[int, ...]:
        """The bucket counts (overflow last), flushed and copied."""
        self._flush()
        return tuple(int(count) for count in self._counts)

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample.

        Returns 0.0 for an empty histogram.  Samples beyond the last
        bound report the maximum observed latency.
        """
        if not 0.0 < q <= 1.0:
            raise ServeError(f"quantile must be in (0, 1]: {q}")
        if self.total == 0:
            return 0.0
        self._flush()
        rank = q * self.total
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        if index < len(self.BOUNDS_S):
            return self.BOUNDS_S[index]
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        """Pool another histogram into this one (bucket-wise add).

        Because the bucket ladder is fixed, pooled state — and every
        quantile read from it — equals the histogram of the combined
        sample stream regardless of which node observed what.  This is
        how the cluster folds per-node tenant histograms into
        fleet-wide SLO verdicts.  The add is one vectorized ``int64``
        array operation per merged histogram.
        """
        self._flush()
        other._flush()
        self._counts += other._counts
        self.total += other.total
        self.sum_s += other.sum_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s


@dataclass(frozen=True)
class SloTarget:
    """A latency objective for one tenant."""

    tenant: str
    p99_s: float
    p95_s: float | None = None

    def __post_init__(self) -> None:
        if self.p99_s <= 0:
            raise ServeError(f"p99 target must be > 0: {self.p99_s}")
        if self.p95_s is not None and self.p95_s <= 0:
            raise ServeError(f"p95 target must be > 0: {self.p95_s}")


@dataclass(frozen=True)
class SloVerdict:
    """One tenant's measured percentiles against its target."""

    tenant: str
    completed: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    target_p99_s: float | None
    ok: bool

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "completed": self.completed,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
            "target_p99_s": self.target_p99_s,
            "ok": self.ok,
        }


class SloTracker:
    """Per-tenant latency histograms with SLO evaluation."""

    def __init__(
        self,
        targets: tuple[SloTarget, ...] = (),
    ) -> None:
        tenants = [t.tenant for t in targets]
        if len(tenants) != len(set(tenants)):
            raise ServeError(f"duplicate SLO tenants: {tenants}")
        self._targets = {t.tenant: t for t in targets}
        self._histograms: dict[str, LatencyHistogram] = {}

    def observe(self, tenant: str, latency_s: float) -> None:
        histogram = self._histograms.get(tenant)
        if histogram is None:
            histogram = LatencyHistogram()
            self._histograms[tenant] = histogram
        histogram.observe(latency_s)
        runtime.metrics.counter(
            f"serve.slo.{tenant}.completed"
        ).inc()
        runtime.metrics.histogram(
            f"serve.slo.{tenant}.latency_s"
        ).observe(latency_s)

    def histogram(self, tenant: str) -> LatencyHistogram | None:
        return self._histograms.get(tenant)

    def tenants(self) -> tuple[str, ...]:
        """Tenants with at least one observation, sorted."""
        return tuple(sorted(self._histograms))

    def merge(self, other: "SloTracker") -> None:
        """Pool another tracker's histograms (no metrics side effects)."""
        for tenant in sorted(other._histograms):
            target = self._histograms.get(tenant)
            if target is None:
                target = LatencyHistogram()
                self._histograms[tenant] = target
            target.merge(other._histograms[tenant])

    def pooled(self) -> LatencyHistogram:
        """All tenants' observations merged into one histogram."""
        combined = LatencyHistogram()
        for tenant in sorted(self._histograms):
            combined.merge(self._histograms[tenant])
        return combined

    def p99(self, tenant: str) -> float:
        histogram = self._histograms.get(tenant)
        return histogram.quantile(0.99) if histogram else 0.0

    def verdicts(self) -> tuple[SloVerdict, ...]:
        """One verdict per tenant seen or targeted, sorted by name."""
        tenants = sorted(
            set(self._histograms) | set(self._targets)
        )
        rows = []
        for tenant in tenants:
            histogram = self._histograms.get(tenant)
            target = self._targets.get(tenant)
            if histogram is None or histogram.total == 0:
                rows.append(SloVerdict(
                    tenant=tenant, completed=0, p50_s=0.0,
                    p95_s=0.0, p99_s=0.0, mean_s=0.0,
                    target_p99_s=target.p99_s if target else None,
                    ok=True,
                ))
                continue
            p95 = histogram.quantile(0.95)
            p99 = histogram.quantile(0.99)
            ok = True
            if target is not None:
                ok = p99 <= target.p99_s
                if ok and target.p95_s is not None:
                    ok = p95 <= target.p95_s
            rows.append(SloVerdict(
                tenant=tenant,
                completed=histogram.total,
                p50_s=histogram.quantile(0.50),
                p95_s=p95,
                p99_s=p99,
                mean_s=histogram.mean_s,
                target_p99_s=target.p99_s if target else None,
                ok=ok,
            ))
        return tuple(rows)
