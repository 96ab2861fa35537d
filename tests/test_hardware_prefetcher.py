"""Tests for the stream prefetcher model."""

import numpy as np
import pytest

from repro.config import CacheSpec, SystemSpec
from repro.hardware.cache import SetAssociativeCache
from repro.hardware.cat import CatController, contiguous_mask
from repro.hardware.fastcache import FastSetAssociativeCache
from repro.hardware.prefetcher import StreamPrefetcher
from repro.units import KiB


class TestDetection:
    def test_no_prefetch_before_trigger(self):
        prefetcher = StreamPrefetcher(trigger_length=3, degree=2)
        assert prefetcher.observe("s", 10) == []
        assert prefetcher.observe("s", 11) == []

    def test_prefetch_after_trigger(self):
        prefetcher = StreamPrefetcher(trigger_length=3, degree=2)
        prefetcher.observe("s", 10)
        prefetcher.observe("s", 11)
        assert prefetcher.observe("s", 12) == [13, 14]

    def test_continues_prefetching_on_stream(self):
        prefetcher = StreamPrefetcher(trigger_length=2, degree=1)
        prefetcher.observe("s", 0)
        assert prefetcher.observe("s", 1) == [2]
        assert prefetcher.observe("s", 2) == [3]

    def test_non_sequential_resets_run(self):
        prefetcher = StreamPrefetcher(trigger_length=3, degree=1)
        prefetcher.observe("s", 10)
        prefetcher.observe("s", 11)
        prefetcher.observe("s", 99)  # breaks the run
        assert prefetcher.observe("s", 100) == []

    def test_repeated_line_is_neutral(self):
        prefetcher = StreamPrefetcher(trigger_length=2, degree=1)
        prefetcher.observe("s", 5)
        assert prefetcher.observe("s", 5) == []
        assert prefetcher.observe("s", 6) == [7]

    def test_streams_tracked_independently(self):
        prefetcher = StreamPrefetcher(trigger_length=2, degree=1)
        prefetcher.observe("a", 0)
        prefetcher.observe("b", 100)
        assert prefetcher.observe("a", 1) == [2]
        assert prefetcher.observe("b", 101) == [102]

    def test_tracker_capacity_eviction(self):
        prefetcher = StreamPrefetcher(trigger_length=2, degree=1,
                                      max_streams=2)
        prefetcher.observe("a", 0)
        prefetcher.observe("b", 10)
        prefetcher.observe("c", 20)  # evicts one tracker entry
        # Capacity respected: no crash, at most 2 live streams tracked.
        assert prefetcher.observe("c", 21) == [22]

    def test_issued_counter(self):
        prefetcher = StreamPrefetcher(trigger_length=1, degree=3)
        prefetcher.observe("s", 0)
        assert prefetcher.issued == 3

    def test_reset(self):
        prefetcher = StreamPrefetcher(trigger_length=1, degree=1)
        prefetcher.observe("s", 0)
        prefetcher.reset()
        assert prefetcher.issued == 0

    @pytest.mark.parametrize("kwargs", [
        {"trigger_length": 0}, {"degree": 0}, {"max_streams": 0},
    ])
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ValueError):
            StreamPrefetcher(**kwargs)


#: 128 sets x 16 ways: small enough for the per-access oracle, and every
#: stream below wraps the sets eight times.
WIDTH_SPEC = SystemSpec(cores=2, llc=CacheSpec(128 * KiB, 16))
STREAM_LINES = 1024
PREFETCH_CLOS = 1


def prefetch_schedule(streams: int, aligned: bool):
    """Round-robin demand streams with the prefetches each one triggers.

    Stream ``i`` reads ``STREAM_LINES`` consecutive lines.  Set-aligned
    streams start in the same set, so at every step they all demand
    (and prefetch into) the same sets; staggered streams start
    ``sets / streams`` sets apart.  The prefetcher observes demand
    lines only, so the schedule does not depend on hits and is the same
    for every cache and mask it is replayed under.

    Returns byte addresses, stream labels, the prefetch flags and a
    mask of the demand accesses whose line an earlier prefetch covered.
    """
    sets = WIDTH_SPEC.llc.sets
    prefetcher = StreamPrefetcher()
    # Regions start ``64 * sets`` lines apart: far enough that no
    # stream (or its prefetches) reaches the next, and all in set 0.
    bases = [
        (i + 1) * sets * 64 + (0 if aligned else i * sets // streams)
        for i in range(streams)
    ]
    lines, labels, prefetch, covered = [], [], [], []
    issued = set()
    for step in range(STREAM_LINES):
        for i, base in enumerate(bases):
            line, label = base + step, f"s{i}"
            lines.append(line)
            labels.append(label)
            prefetch.append(False)
            covered.append(line in issued)
            for target in prefetcher.observe(label, line):
                issued.add(target)
                lines.append(target)
                labels.append(label)
                prefetch.append(True)
                covered.append(False)
    return (
        np.array(lines) * WIDTH_SPEC.llc.line_bytes,
        labels,
        np.array(prefetch),
        np.array(covered),
    )


def replay_schedule(cache_cls, ways: int, schedule):
    """Per-access hits of ``schedule`` in one CLOS of ``ways`` ways."""
    addrs, labels, prefetch, _ = schedule
    cat = CatController(WIDTH_SPEC)
    cat.set_clos_mask(PREFETCH_CLOS, contiguous_mask(ways))
    cache = cache_cls(WIDTH_SPEC.llc, cat=cat)
    return cache.access_batch(
        addrs, clos=PREFETCH_CLOS, stream=labels, is_prefetch=prefetch
    )


class TestPrefetchWidth:
    """How wide a CAT mask must be for prefetched lines to survive.

    Measured on both trace caches: a lone stream, or any number of
    streams that do not share sets, keeps its prefetches useful even in
    one way; ``k`` set-aligned streams in one CLOS lose them all under a
    mask narrower than ``k`` ways, because each stream's fills evict the
    others' before the demand arrives.  ``LatencyModel.min_prefetch_ways``
    models the aligned pair.
    """

    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("streams,aligned", [
        (1, True), (2, False), (3, False), (2, True), (3, True),
    ])
    def test_useful_prefetch_fraction(self, streams, aligned, ways):
        schedule = prefetch_schedule(streams, aligned)
        reference = replay_schedule(SetAssociativeCache, ways, schedule)
        fast = replay_schedule(FastSetAssociativeCache, ways, schedule)
        assert np.array_equal(reference, fast)

        covered = schedule[3]
        useful = reference[covered].sum() / covered.sum()
        if aligned and ways < streams:
            assert useful <= 0.01
        else:
            assert useful >= 0.99
