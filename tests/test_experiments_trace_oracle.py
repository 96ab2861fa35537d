"""Figure-level oracle check for the ``ext-trace`` experiment.

The experiment replays its schedules on the vectorized engine only.
Here the TOY-geometry schedules it draws (same seed, same order, the
``--fast`` step counts) replay on both cache classes with the
experiment's CAT programming; hits, statistics and final state must
be identical.
"""

import numpy as np
import pytest

from repro.experiments.ext_trace_validation import (
    CONFIGS,
    TOY,
    _cat_setup,
    _replay,
    _schedule,
)
from repro.hardware.cache import SetAssociativeCache, cache_state_digest
from repro.hardware.fastcache import FastSetAssociativeCache

#: ``run(fast=True)``'s TOY step count.
TOY_STEPS = 12_000


def _toy_schedules():
    """The TOY configs' schedules, drawn as the experiment draws them
    (TOY configs come first, so the rng stream matches)."""
    rng = np.random.default_rng(0xBEEF)
    schedules = []
    for geometry, region_lines, stream_rate, partitioned in CONFIGS:
        if geometry is not TOY:
            break
        lines, is_region, _ = _schedule(
            region_lines, stream_rate, TOY_STEPS, rng
        )
        schedules.append((region_lines, partitioned, lines, is_region))
    return schedules


def _stats(cache):
    return (
        vars(cache.stats),
        {k: vars(v) for k, v in cache.stats_by_clos.items()},
        {k: vars(v) for k, v in cache.stats_by_stream.items()},
    )


SCHEDULES = _toy_schedules()


@pytest.mark.parametrize(
    "partitioned, lines, is_region",
    [schedule[1:] for schedule in SCHEDULES],
    ids=[
        f"region{region}-{'cat' if partitioned else 'shared'}"
        for region, partitioned, _, _ in SCHEDULES
    ],
)
def test_toy_schedule_replays_identically_on_both_classes(
    partitioned, lines, is_region
):
    caches, hits = [], []
    for cls in (SetAssociativeCache, FastSetAssociativeCache):
        llc, cat = _cat_setup(TOY, partitioned)
        caches.append(cls(llc, cat=cat))
        hits.append(_replay(caches[-1], lines, is_region))
    ref, fast = caches
    assert np.array_equal(hits[0], hits[1])
    assert _stats(ref) == _stats(fast)
    assert cache_state_digest(ref) == cache_state_digest(fast)
    # The replay is not degenerate: the scan evicts, the region hits.
    assert ref.stats.evictions > 0
    assert 0 < ref.stats.hits < len(lines)
