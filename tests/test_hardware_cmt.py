"""Tests for the Cache Monitoring Technology model."""

from repro.hardware.cmt import CmtSample


class TestSample:
    def test_miss_ratio_guard(self):
        assert CmtSample(1, 0, 0, 0).miss_ratio == 0.0
