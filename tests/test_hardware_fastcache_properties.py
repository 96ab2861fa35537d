"""Property-based equivalence of the fast engine and its oracle
(hypothesis).

The fast engine's contract is *bit-identical* behaviour to the
reference cache, both built here by class name: for any trace —
random addresses, random contiguous CLOS masks, stream labels,
prefetch flags, mask reprogramming mid-trace — the reference loop and
the vectorized batch replay must produce identical per-access hit
results, identical statistics (including evictions) and identical
final cache contents.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheSpec, SystemSpec
from repro.hardware.cache import SetAssociativeCache, cache_state_digest
from repro.hardware.cat import CatController
from repro.hardware.fastcache import FastSetAssociativeCache
from repro.units import KiB

LINE = 64


def _build(sets: int, ways: int, masks: dict[int, int]):
    spec = SystemSpec(
        cores=2,
        llc=CacheSpec(sets * ways * LINE, ways),
        l1d=CacheSpec(2 * KiB, 2),
        l2=CacheSpec(4 * KiB, 4),
        cat_min_bits=1,
    )
    cat = CatController(spec)
    for clos, mask in masks.items():
        cat.set_clos_mask(clos, mask)
    return (
        SetAssociativeCache(spec.llc, cat=cat),
        FastSetAssociativeCache(spec.llc, cat=cat),
        cat,
    )


def _contiguous_mask(ways: int, start: int, width: int) -> int:
    start %= ways
    width = max(1, width % ways)
    width = min(width, ways - start)
    return ((1 << width) - 1) << start


def _replay_both(ref, fast, events):
    """Per-access on the reference, one batch on the fast engine."""
    ref_hits = [
        ref.access(line * LINE, clos=clos, stream=stream,
                   is_prefetch=prefetch)
        for line, clos, stream, prefetch in events
    ]
    fast_hits = fast.access_batch(
        np.array([line * LINE for line, _, _, _ in events], np.int64),
        clos=np.array([clos for _, clos, _, _ in events], np.int64),
        stream=np.array(
            [stream for _, _, stream, _ in events], dtype=object
        ),
        is_prefetch=np.array(
            [prefetch for _, _, _, prefetch in events], bool
        ),
    )
    return ref_hits, fast_hits.tolist()


def _assert_equivalent(ref, fast, ref_hits, fast_hits):
    assert ref_hits == fast_hits
    assert vars(ref.stats) == vars(fast.stats)
    assert {k: vars(v) for k, v in ref.stats_by_clos.items()} == \
        {k: vars(v) for k, v in fast.stats_by_clos.items()}
    assert {k: vars(v) for k, v in ref.stats_by_stream.items()} == \
        {k: vars(v) for k, v in fast.stats_by_stream.items()}
    assert ref.occupancy_by_way() == fast.occupancy_by_way()
    assert ref.occupancy_by_stream() == fast.occupancy_by_stream()
    assert sorted(ref.iter_lines()) == sorted(fast.iter_lines())
    assert cache_state_digest(ref) == cache_state_digest(fast)


events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # line address
        st.integers(min_value=1, max_value=2),  # clos
        st.sampled_from([None, "", "a", "b"]),  # stream label
        st.booleans(),  # is_prefetch
    ),
    min_size=1,
    max_size=200,
)

mask_params = st.tuples(
    st.integers(min_value=0, max_value=7),  # start
    st.integers(min_value=1, max_value=7),  # width
)


@given(events=events_strategy, mask1=mask_params, mask2=mask_params)
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_traces(events, mask1, mask2):
    ways = 4
    masks = {
        1: _contiguous_mask(ways, *mask1),
        2: _contiguous_mask(ways, *mask2),
    }
    ref, fast, _ = _build(8, ways, masks)
    ref_hits, fast_hits = _replay_both(ref, fast, events)
    _assert_equivalent(ref, fast, ref_hits, fast_hits)


@given(
    events=events_strategy,
    mask_before=mask_params,
    mask_after=mask_params,
    split=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_engines_agree_across_mask_reprogramming(
    events, mask_before, mask_after, split
):
    """CAT masks reprogrammed mid-trace invalidate both engines' memos
    identically: the halves replayed around the change stay equal."""
    ways = 4
    ref, fast, cat = _build(
        8, ways,
        {1: _contiguous_mask(ways, *mask_before), 2: (1 << ways) - 1},
    )
    split = min(split, len(events))
    head, tail = events[:split], events[split:]
    results = ([], [])
    if head:
        ref_hits, fast_hits = _replay_both(ref, fast, head)
        results[0].extend(ref_hits)
        results[1].extend(fast_hits)
    cat.set_clos_mask(1, _contiguous_mask(ways, *mask_after))
    if tail:
        ref_hits, fast_hits = _replay_both(ref, fast, tail)
        results[0].extend(ref_hits)
        results[1].extend(fast_hits)
    _assert_equivalent(ref, fast, results[0], results[1])


@given(events=events_strategy)
@settings(max_examples=40, deadline=None)
def test_engines_agree_without_cat(events):
    spec = CacheSpec(8 * 4 * LINE, 4)
    ref = SetAssociativeCache(spec)
    fast = FastSetAssociativeCache(spec)
    ref_hits, fast_hits = _replay_both(ref, fast, events)
    _assert_equivalent(ref, fast, ref_hits, fast_hits)
