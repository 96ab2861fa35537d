"""Tests for latency histograms and SLO verdicts."""

import math
from bisect import bisect_right

import pytest

from repro.errors import ServeError
from repro.serve.slo import LatencyHistogram, SloTarget, SloTracker


class TestLatencyHistogram:
    def test_empty_quantiles_are_zero(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(0.99) == 0.0
        assert histogram.mean_s == 0.0

    def test_quantile_is_bucket_upper_bound(self):
        histogram = LatencyHistogram()
        histogram.observe(0.010)
        p50 = histogram.quantile(0.5)
        # The reported quantile is the upper edge of the bucket that
        # holds the sample: >= the sample, within one bucket ratio.
        assert p50 >= 0.010
        assert p50 <= 0.010 * 1.1

    def test_quantiles_ordered(self):
        histogram = LatencyHistogram()
        for i in range(1, 101):
            histogram.observe(i / 100.0)
        assert (
            histogram.quantile(0.5)
            <= histogram.quantile(0.95)
            <= histogram.quantile(0.99)
        )

    def test_deterministic_independent_of_order(self):
        values = [0.001, 0.5, 0.02, 1.7, 0.3] * 20
        forward = LatencyHistogram()
        backward = LatencyHistogram()
        for value in values:
            forward.observe(value)
        for value in reversed(values):
            backward.observe(value)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert forward.quantile(q) == backward.quantile(q)

    def test_overflow_reports_max(self):
        histogram = LatencyHistogram()
        histogram.observe(10_000.0)  # beyond the last bound
        assert histogram.quantile(0.99) == 10_000.0

    def test_mean_and_max(self):
        histogram = LatencyHistogram()
        histogram.observe(1.0)
        histogram.observe(3.0)
        assert histogram.mean_s == 2.0
        assert histogram.max_s == 3.0

    def test_validation(self):
        histogram = LatencyHistogram()
        with pytest.raises(ServeError):
            histogram.observe(-0.1)
        with pytest.raises(ServeError):
            histogram.quantile(0.0)
        with pytest.raises(ServeError):
            histogram.quantile(1.5)


class TestBucketBoundaries:
    def test_bucket_index_matches_bisect_right(self):
        # The ladder is the contract: an exact bound value belongs to
        # the *next* bucket (bisect_right semantics), so a sample at a
        # bound is reported as that bound by quantile().
        for bound in LatencyHistogram.BOUNDS_S:
            assert LatencyHistogram._bucket_index(bound) == (
                bisect_right(LatencyHistogram.BOUNDS_S, bound)
            )

    def test_exact_bound_lands_in_next_bucket(self):
        bounds = LatencyHistogram.BOUNDS_S
        below = LatencyHistogram._bucket_index(bounds[3] * 0.999)
        at = LatencyHistogram._bucket_index(bounds[3])
        assert at == below + 1

    def test_nan_raises(self):
        with pytest.raises(ServeError):
            LatencyHistogram._bucket_index(float("nan"))
        histogram = LatencyHistogram()
        with pytest.raises(ServeError):
            histogram.observe(float("nan"))

    def test_negative_clamps_to_first_bucket(self):
        # observe() rejects negatives outright; the raw bucketing
        # clamps them (merged/deserialised data defensiveness).
        assert LatencyHistogram._bucket_index(-1.0) == 0
        assert LatencyHistogram._bucket_index(0.0) == 0

    def test_zero_latency_observable(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0)
        assert sum(histogram.bucket_counts()) == 1

    def test_infinity_goes_to_overflow_bucket(self):
        assert LatencyHistogram._bucket_index(math.inf) == len(
            LatencyHistogram.BOUNDS_S
        )


def _reference_counts(values) -> tuple[int, ...]:
    """Bucket counts filed one sample at a time via ``_bucket_index``."""
    counts = [0] * (len(LatencyHistogram.BOUNDS_S) + 1)
    for value in values:
        counts[LatencyHistogram._bucket_index(value)] += 1
    return tuple(counts)


class TestBufferedFiling:
    def test_buffered_filing_matches_bucket_index(self):
        values = [0.0, 1e-6, 0.001, 0.0099, 0.01, 0.5, 3.2, 900.0] * 7
        histogram = LatencyHistogram()
        for value in values:
            histogram.observe(value)
        assert histogram.bucket_counts() == _reference_counts(values)

    def test_merge_files_pending_observations(self):
        flushed = LatencyHistogram()
        pending = LatencyHistogram()
        for value in (0.01, 0.2, 5.0):
            flushed.observe(value)
            pending.observe(value)
        flushed.bucket_counts()
        merged = LatencyHistogram()
        merged.merge(flushed)
        merged.merge(pending)
        assert merged.bucket_counts() == _reference_counts(
            (0.01, 0.2, 5.0) * 2
        )


class TestSloTracker:
    def test_per_tenant_isolation(self):
        tracker = SloTracker()
        tracker.observe("olap", 1.0)
        tracker.observe("oltp", 0.01)
        assert tracker.p99("olap") > tracker.p99("oltp")

    def test_verdict_against_target(self):
        tracker = SloTracker((SloTarget("olap", p99_s=0.5),))
        for _ in range(100):
            tracker.observe("olap", 0.1)
        (verdict,) = tracker.verdicts()
        assert verdict.tenant == "olap"
        assert verdict.ok
        assert verdict.completed == 100
        assert verdict.target_p99_s == 0.5

    def test_verdict_violation(self):
        tracker = SloTracker((SloTarget("olap", p99_s=0.05),))
        for _ in range(100):
            tracker.observe("olap", 1.0)
        (verdict,) = tracker.verdicts()
        assert not verdict.ok

    def test_p95_target_checked(self):
        tracker = SloTracker(
            (SloTarget("olap", p99_s=10.0, p95_s=0.01),)
        )
        for _ in range(100):
            tracker.observe("olap", 1.0)
        (verdict,) = tracker.verdicts()
        assert not verdict.ok  # p99 fine, p95 violated

    def test_untouched_target_tenant_reported_ok(self):
        tracker = SloTracker((SloTarget("oltp", p99_s=1.0),))
        (verdict,) = tracker.verdicts()
        assert verdict.tenant == "oltp"
        assert verdict.completed == 0
        assert verdict.ok

    def test_verdicts_sorted_by_tenant(self):
        tracker = SloTracker()
        tracker.observe("zeta", 0.1)
        tracker.observe("alpha", 0.1)
        assert [v.tenant for v in tracker.verdicts()] == [
            "alpha", "zeta",
        ]

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ServeError):
            SloTracker(
                (SloTarget("a", 1.0), SloTarget("a", 2.0))
            )

    def test_target_validation(self):
        with pytest.raises(ServeError):
            SloTarget("a", p99_s=0.0)
        with pytest.raises(ServeError):
            SloTarget("a", p99_s=1.0, p95_s=-1.0)
