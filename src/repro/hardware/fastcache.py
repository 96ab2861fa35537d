"""Vectorized NumPy trace engine for the set-associative CAT cache.

:class:`FastSetAssociativeCache` is the trace engine every run uses.
It replays whole address *batches* instead of single accesses, and the
per-access :class:`repro.hardware.cache.SetAssociativeCache` is its
oracle: tests and ``benchmarks/bench_trace.py`` build both by class
name and compare them.  State lives in
struct-of-arrays form — ``tags``, ``stamps``, ``streams`` and ``clos``
as 2-D ``sets x ways`` integer arrays, stream labels interned to ints —
and a batch is processed as a *wavefront*:

1. line and set indices for the whole batch are computed vectorized;
2. accesses are grouped per set with one stable argsort, and the k-th
   access of every set forms round k — within a round every access
   targets a *distinct* set, so hit detection (a broadcast tag
   compare), LRU stamp updates and victim installs are plain fancy
   indexing with no write conflicts;
3. victim selection restricts the invalid-way scan and the LRU argmin
   to the per-CLOS way-index table derived from the CAT bitmasks
   (memoized, invalidated through ``CatController.mask_version``).

Because per-set access order, the global clock stamps and the CAT
semantics (hit anywhere, allocate only inside the mask; demand hits
re-brand the line's stream; prefetch fills uncounted) are all preserved
exactly, the engine produces **bit-identical** hit/miss/eviction counts
and final tag state to the reference oracle on any trace — the
equivalence is enforced by ``tests/test_hardware_fastcache_properties``
and re-checked on every benchmark run (``benchmarks/bench_trace.py``).

Throughput scales with the number of *distinct sets per round*: uniform
or streaming traces over a realistic geometry (2048 sets) replay at
tens of millions of accesses per second, versus a few hundred thousand
for the per-access reference loop.  A trace hammering one single set
degenerates to scalar behaviour — exactness is never traded for speed.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

try:  # COO->CSR conversion is a C counting sort; see _group_by_set.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy ships with the toolchain
    _sparse = None

from ..config import CacheSpec
from ..errors import CacheConfigError, CatError
from ..obs import runtime
from .cache import CacheStats
from .cat import CatController

#: Interned stream id meaning "no stream label" (``stream=None``).
NO_STREAM = -1

#: Victim-key encoding (see ``_replay``): keys below ``_KEY_BASE`` are
#: invalid-way indices, keys above are ``stamp*wmul + way + _KEY_BASE``,
#: and ``_KEY_HUGE`` penalizes ways outside the CLOS capacity mask.
_KEY_BASE = 1 << 56
_KEY_HUGE = 1 << 61


def _group_by_set(
    set_ids: np.ndarray, sets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of batch positions by set index.

    Returns ``(perm, group_sets, counts)``: ``perm`` lists the batch
    positions sorted by set (batch order within a set), ``group_sets``
    the distinct sets in ascending order and ``counts`` their access
    counts.  Uses SciPy's COO->CSR conversion — a C counting sort,
    O(n + sets) and several times faster than ``np.argsort`` — with a
    stable argsort fallback when SciPy is unavailable.
    """
    n = len(set_ids)
    if _sparse is not None:
        matrix = _sparse.csr_matrix(
            (
                np.broadcast_to(np.int8(1), (n,)),
                (set_ids, np.arange(n)),
            ),
            shape=(sets, n),
            copy=False,
        )
        all_counts = np.diff(matrix.indptr)
        group_sets = np.flatnonzero(all_counts)
        return (
            matrix.indices.astype(np.int64, copy=False),
            group_sets,
            all_counts[group_sets].astype(np.int64, copy=False),
        )
    perm = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[perm]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, n))
    return perm, sorted_sets[starts], counts


class FastSetAssociativeCache:
    """NumPy struct-of-arrays LRU cache honouring CAT capacity bitmasks.

    Replays through ``access_batch`` (``access_many`` wraps it) and
    exposes the inspection surface the oracle tests compare against
    the reference cache: ``contains``, occupancy, ``iter_lines``,
    ``valid_lines``, ``lines_in_ways``, statistics and ``flush``.
    """

    def __init__(
        self,
        spec: CacheSpec,
        cat: Optional[CatController] = None,
    ) -> None:
        self._spec = spec
        self._cat = cat
        shape = (spec.sets, spec.ways)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._stamps = np.zeros(shape, dtype=np.int64)
        self._streams = np.full(shape, NO_STREAM, dtype=np.int64)
        self._clos = np.zeros(shape, dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()
        self.stats_by_clos: dict[int, CacheStats] = {}
        self.stats_by_stream: dict[str, CacheStats] = {}
        # Stream interning: labels occur per access but statistics and
        # state comparisons need the strings back.
        self._stream_ids: dict[str, int] = {}
        self._stream_names: list[str] = []
        # A demand hit re-brands the line only for *truthy* labels
        # (reference semantics: ``line.stream = stream or line.stream``).
        self._stream_truthy: list[bool] = []
        # Per-CLOS allowed-way table, invalidated via CAT mask_version.
        self._allowed: dict[int, np.ndarray] = {}
        self._allowed_version = -1

    @property
    def spec(self) -> CacheSpec:
        return self._spec

    # ------------------------------------------------------------------
    # interning and CLOS way tables

    def intern_stream(self, stream: Optional[str]) -> int:
        """Map a stream label to its interned id (``NO_STREAM`` for None)."""
        if stream is None:
            return NO_STREAM
        sid = self._stream_ids.get(stream)
        if sid is None:
            sid = len(self._stream_names)
            name = str(stream)
            self._stream_ids[name] = sid
            self._stream_names.append(name)
            self._stream_truthy.append(bool(name))
        return sid

    def _stream_name(self, sid: int) -> Optional[str]:
        return None if sid < 0 else self._stream_names[sid]

    def _clos_allowed(self, clos: int) -> np.ndarray:
        """Boolean way mask the given CLOS may allocate into (memoized)."""
        ways = self._spec.ways
        if self._cat is None:
            return np.ones(ways, dtype=bool)
        version = self._cat.mask_version
        if version != self._allowed_version:
            self._allowed.clear()
            self._allowed_version = version
        cached = self._allowed.get(clos)
        if cached is not None:
            return cached
        mask = self._cat.clos_mask(clos)
        if mask <= 0:
            raise CatError(f"CLOS {clos} has an empty effective mask")
        if mask.bit_length() > ways:
            raise CacheConfigError(
                f"CLOS {clos} mask references way {mask.bit_length() - 1} "
                f"but cache has only {ways} ways"
            )
        allowed = (mask >> np.arange(ways) & 1).astype(bool)
        self._allowed[clos] = allowed
        return allowed

    def _allowed_table(
        self, uniq_clos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
        """Allowed-way rows for each unique CLOS in a batch.

        Mask resolution errors (unconfigured CLOS, bad mask) are not
        raised here: the reference cache only resolves a mask on a
        *miss*, so a faulty CLOS that happens to always hit must not
        fail.  Faulty rows are marked poisoned and the stored exception
        is raised by the replay loop on the first miss that needs one
        (the batch is atomic on error: no state has been written back).
        """
        table = np.zeros((len(uniq_clos), self._spec.ways), dtype=bool)
        poison = np.zeros(len(uniq_clos), dtype=bool)
        errors: dict[int, Exception] = {}
        for j, value in enumerate(uniq_clos.tolist()):
            try:
                table[j] = self._clos_allowed(int(value))
            except (CatError, CacheConfigError) as exc:
                poison[j] = True
                errors[j] = exc
        return table, poison, errors

    # ------------------------------------------------------------------
    # batched access

    def _factorize_labels(self, labels: np.ndarray) -> np.ndarray:
        """Intern a string-dtype label array to an id array.

        Real traces carry a handful of distinct labels, so resolving
        one label per pass with a vectorized string compare beats the
        sort inside ``np.unique``; a pathological label population
        falls back to ``np.unique`` on the unresolved remainder.
        """
        stream_ids = np.full(len(labels), -2, dtype=np.int64)
        for _ in range(8):
            unresolved = np.flatnonzero(stream_ids == -2)
            if not len(unresolved):
                return stream_ids
            label = str(labels[unresolved[0]])
            stream_ids[labels == label] = self.intern_stream(label)
        unresolved = np.flatnonzero(stream_ids == -2)
        if len(unresolved):
            uniq, inverse = np.unique(
                labels[unresolved], return_inverse=True
            )
            ids = np.fromiter(
                (self.intern_stream(label) for label in uniq.tolist()),
                dtype=np.int64,
                count=len(uniq),
            )
            stream_ids[unresolved] = ids[inverse]
        return stream_ids

    def access_batch(
        self,
        addrs,
        clos=0,
        stream=None,
        is_prefetch=False,
    ) -> np.ndarray:
        """Replay a batch of byte addresses; returns per-access hits.

        ``clos`` and ``is_prefetch`` may be scalars or per-access
        arrays.  ``stream`` may be ``None``, one label, a sequence of
        labels (``None`` entries allowed), or an array of ids already
        interned through :meth:`intern_stream`.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        n = len(addrs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        line_addrs = addrs // self._spec.line_bytes
        clos_ids = np.broadcast_to(
            np.asarray(clos, dtype=np.int64), (n,)
        )
        prefetch = np.broadcast_to(np.asarray(is_prefetch, bool), (n,))
        if stream is None or isinstance(stream, str):
            stream_ids = np.broadcast_to(
                np.int64(self.intern_stream(stream)), (n,)
            )
        elif isinstance(stream, np.ndarray) and stream.dtype.kind == "i":
            stream_ids = np.broadcast_to(stream, (n,))
        else:
            labels = np.asarray(stream)
            if labels.dtype.kind in "US":
                stream_ids = self._factorize_labels(labels)
            else:  # mixed labels/None: per-element interning
                stream_ids = np.fromiter(
                    (self.intern_stream(label) for label in stream),
                    dtype=np.int64,
                    count=n,
                )
        return self._replay(line_addrs, clos_ids, stream_ids, prefetch)

    def access_many(
        self,
        addrs: Iterable[int],
        clos: int = 0,
        stream: Optional[str] = None,
    ) -> CacheStats:
        """Replay a trace of byte addresses; returns stats for this call."""
        before = (self.stats.hits, self.stats.misses, self.stats.evictions)
        self.access_batch(np.fromiter(addrs, dtype=np.int64), clos, stream)
        return CacheStats(
            hits=self.stats.hits - before[0],
            misses=self.stats.misses - before[1],
            evictions=self.stats.evictions - before[2],
        )

    def _replay(
        self,
        line_addrs: np.ndarray,
        clos_ids: np.ndarray,
        stream_ids: np.ndarray,
        prefetch: np.ndarray,
    ) -> np.ndarray:
        """Exact wavefront replay of one batch; returns per-access hits.

        The batch is pivoted into ``rank x set`` matrices: entry
        ``[k, c]`` is the k-th access to the set in column c, columns
        sorted by per-set access count (descending), so round k is the
        contiguous prefix of width ``round_sizes[k]``.  Every round
        touches each set at most once — all round updates are
        conflict-free fancy indexing on *working copies* of the touched
        set rows, which are written back once at the end.
        """
        n = len(line_addrs)
        set_ids = line_addrs % self._spec.sets

        # Group accesses by set (stable: per-set order is batch order).
        perm, group_sets, counts = _group_by_set(
            set_ids, self._spec.sets
        )
        ranks = np.arange(n) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        round_sizes = np.bincount(ranks)

        # Column c holds the set with the c-th largest access count, so
        # the k-th round occupies columns [0, round_sizes[k]).
        col_order = np.argsort(-counts, kind="stable")
        col_of_group = np.empty(len(counts), dtype=np.int64)
        col_of_group[col_order] = np.arange(len(counts))
        touched_sets = group_sets[col_order]
        group_per_access = np.repeat(
            np.arange(len(counts)), counts
        )
        cols = col_of_group[group_per_access]

        # Pivot the batch: original index, line, CLOS, stream id and
        # rebrand flag per (rank, column) cell.  Flat-index scatters
        # are measurably cheaper than 2-D fancy indexing.
        shape = (len(round_sizes), len(counts))
        flat = ranks * shape[1] + cols
        orig2d = np.full(shape, -1, dtype=np.int64)
        orig2d.ravel()[flat] = perm
        line2d = np.empty(shape, dtype=np.int64)
        line2d.ravel()[flat] = line_addrs[perm]
        # CLOS ids are factorized so each round resolves its allowed-way
        # rows with one small-table gather (no per-round np.unique).  A
        # stride-0 first axis means a broadcast scalar: one class, no
        # O(n) factorization needed.
        closix2d = np.zeros(shape, dtype=np.int64)
        if clos_ids.strides[0] == 0:
            uniq_clos = clos_ids[:1].copy()
        else:
            clos_min = int(clos_ids.min())
            clos_max = int(clos_ids.max())
            if clos_min == clos_max:
                uniq_clos = np.array([clos_min], dtype=np.int64)
            elif 0 <= clos_min and clos_max < 65536:
                # Small non-negative ids (the CAT hardware range):
                # bincount factorization beats sorting-based np.unique.
                uniq_clos = np.flatnonzero(np.bincount(clos_ids))
                lookup = np.zeros(clos_max + 1, dtype=np.int64)
                lookup[uniq_clos] = np.arange(len(uniq_clos))
                closix2d.ravel()[flat] = lookup[clos_ids[perm]]
            else:
                uniq_clos, clos_inverse = np.unique(
                    clos_ids, return_inverse=True
                )
                closix2d.ravel()[flat] = clos_inverse[perm]
        allowed_table, poison, mask_errors = self._allowed_table(uniq_clos)
        has_poison = bool(poison.any())
        sid2d = np.empty(shape, dtype=np.int64)
        sid2d.ravel()[flat] = stream_ids[perm]
        # A demand hit re-brands the line's stream only for truthy
        # labels (reference: ``line.stream = stream or line.stream``).
        truthy = (
            np.asarray(self._stream_truthy, dtype=bool)
            if self._stream_names
            else np.zeros(1, dtype=bool)
        )
        rebrand = (
            ~prefetch & (stream_ids >= 0)
            & truthy[np.maximum(stream_ids, 0)]
        )
        rb2d = np.zeros(shape, dtype=bool)
        rb2d.ravel()[flat] = rebrand[perm]

        # Working copies of the touched set rows, transposed to
        # ``ways x sets`` so every per-round reduction runs over
        # contiguous rows (NumPy's axis-0 min/max are vectorized; the
        # straightforward argmin-per-set formulation is ~5x slower).
        # Victim preference is folded into one integer key per line:
        #   invalid way w              -> w            (smallest wins)
        #   valid way w, LRU stamp s   -> s*wmul+w+KEY_BASE
        #   way outside the CLOS mask  -> +KEY_HUGE    (penalty)
        # so the reference policy — first invalid allowed way, else the
        # LRU allowed way (lowest way on ties; stamps are unique) — is
        # exactly ``min`` over the masked keys.
        ways_count = self._spec.ways
        way_shift = (ways_count - 1).bit_length()
        wmul = 1 << way_shift
        way_col = np.arange(ways_count, dtype=np.int64)[:, None]
        tags_w = np.ascontiguousarray(self._tags[touched_sets].T)
        streams_w = np.ascontiguousarray(self._streams[touched_sets].T)
        clos_w = np.ascontiguousarray(self._clos[touched_sets].T)
        stamps0 = np.ascontiguousarray(self._stamps[touched_sets].T)
        vkeys = np.where(
            tags_w < 0, way_col, stamps0 * wmul + way_col + _KEY_BASE
        )
        # Penalty rows per unique CLOS; a poisoned CLOS penalizes every
        # way (its error is raised before the key min is consulted).
        # With a single all-ways class the penalty is identically zero
        # and the add is skipped; with a single masked class it reduces
        # to a broadcast column.
        penalty = np.where(allowed_table.T, 0, _KEY_HUGE)
        single_clos = len(uniq_clos) == 1
        no_penalty = single_clos and not penalty.any()
        way_plus1 = (way_col + 1).astype(np.int16)

        base = self._clock + 1
        all_cols = np.arange(len(counts))
        hits_out = np.empty(n, dtype=bool)
        evict_parts: list[tuple[np.ndarray, ...]] = []

        for rnd in range(len(round_sizes)):
            width = int(round_sizes[rnd])
            cols_r = all_cols[:width]
            orig_r = orig2d[rnd, :width]
            lines_r = line2d[rnd, :width]
            closix_r = closix2d[rnd, :width]

            # Hit way via max: at most one way per set matches the tag.
            eq = tags_w[:, :width] == lines_r[None, :]
            hit_plus1 = (eq * way_plus1).max(axis=0)
            is_hit = hit_plus1 > 0
            hits_out[orig_r] = is_hit
            ways = hit_plus1.astype(np.int64) - 1

            # Victim selection, restricted to the columns that missed.
            miss_cols = np.flatnonzero(~is_hit)
            if len(miss_cols):
                if has_poison:
                    bad = poison[closix_r[miss_cols]]
                    if bad.any():
                        raise mask_errors[
                            int(closix_r[miss_cols[bad.argmax()]])
                        ]
                if no_penalty:
                    vmin = vkeys[:, :width].min(axis=0)[miss_cols]
                elif single_clos:
                    vmin = (
                        vkeys[:, miss_cols] + penalty[:, :1]
                    ).min(axis=0)
                else:
                    vmin = (
                        vkeys[:, miss_cols]
                        + penalty[:, closix_r[miss_cols]]
                    ).min(axis=0)
                has_invalid = vmin < _KEY_BASE
                victims = np.where(
                    has_invalid, vmin, (vmin - _KEY_BASE) & (wmul - 1)
                )
                ways[miss_cols] = victims
                ev_sub = np.flatnonzero(~has_invalid)
                if len(ev_sub):
                    cells = miss_cols[ev_sub]
                    evict_ways = victims[ev_sub]
                    evict_parts.append((
                        streams_w[evict_ways, cells],
                        clos_w[evict_ways, cells],
                    ))

            sid_r = sid2d[rnd, :width]
            old_streams = streams_w[ways, cols_r]
            old_clos = clos_w[ways, cols_r]
            # On a hit the tag write is the identity; keys refresh in
            # both cases; streams follow install/rebrand semantics.
            tags_w[ways, cols_r] = lines_r
            vkeys[ways, cols_r] = (
                (base + orig_r) * wmul + ways + _KEY_BASE
            )
            streams_w[ways, cols_r] = np.where(
                ~is_hit | rb2d[rnd, :width], sid_r, old_streams
            )
            clos_w[ways, cols_r] = np.where(
                is_hit, old_clos, uniq_clos[closix_r]
            )

        self._tags[touched_sets] = tags_w.T
        # Stamps of invalid lines are behaviourally dead (victim search
        # prefers invalid ways before comparing stamps); keep their old
        # values rather than decoding the way-index keys.
        self._stamps[touched_sets] = np.where(
            tags_w >= 0, (vkeys - _KEY_BASE) >> way_shift, stamps0
        ).T
        self._streams[touched_sets] = streams_w.T
        self._clos[touched_sets] = clos_w.T

        self._clock += n
        self._fold_stats(
            hits_out, clos_ids, stream_ids, prefetch, evict_parts
        )
        metrics = runtime.metrics
        metrics.counter("sim.trace.batches").inc()
        metrics.counter("sim.trace.accesses").inc(n)
        metrics.counter("sim.trace.rounds").inc(len(round_sizes))
        return hits_out

    def _fold_stats(
        self,
        hits: np.ndarray,
        clos_ids: np.ndarray,
        stream_ids: np.ndarray,
        prefetch: np.ndarray,
        evict_parts: list[tuple[np.ndarray, ...]],
    ) -> None:
        """Accumulate the batch into the per-scope CacheStats dicts.

        Stride-0 id arrays are broadcast scalars (one CLOS / one stream
        label for the whole batch): those scopes are updated directly
        without the O(n) bincount passes.
        """
        all_demand = prefetch.strides[0] == 0 and not prefetch[0]
        if all_demand:
            hit_total = int(np.count_nonzero(hits))
            miss_total = len(hits) - hit_total
            demand = None
        else:
            demand = ~prefetch
            hit_total = int(np.count_nonzero(demand & hits))
            miss_total = int(np.count_nonzero(demand)) - hit_total
        self.stats.hits += hit_total
        self.stats.misses += miss_total

        def fold(ids: np.ndarray, mask: np.ndarray, scope, field: str):
            if not mask.any():
                return
            counts = np.bincount(ids[mask])
            for value in np.flatnonzero(counts):
                entry = scope.setdefault(int(value), CacheStats())
                setattr(
                    entry, field,
                    getattr(entry, field) + int(counts[value]),
                )

        def fold_joint(ids: np.ndarray, scope, id_shift: int):
            """One bincount over interleaved (id, hit) keys; ``id_shift``
            remaps key ids back (streams are offset by 1 so NO_STREAM
            lands on key 0/1 and is skipped)."""
            keyed = 2 * (ids + id_shift) + hits
            joint = np.bincount(keyed if demand is None else keyed[demand])
            for idx in np.flatnonzero(joint):
                ident = (int(idx) >> 1) - id_shift
                if ident < 0:
                    continue
                entry = scope.setdefault(ident, CacheStats())
                if idx & 1:
                    entry.hits += int(joint[idx])
                else:
                    entry.misses += int(joint[idx])

        by_sid: dict[int, CacheStats] = {}
        counted = hit_total or miss_total
        if clos_ids.strides[0] == 0:
            if counted:
                entry = self.stats_by_clos.setdefault(
                    int(clos_ids[0]), CacheStats()
                )
                entry.hits += hit_total
                entry.misses += miss_total
        elif int(clos_ids.min()) >= 0:
            fold_joint(clos_ids, self.stats_by_clos, 0)
        else:
            demand_hits = hits if demand is None else demand & hits
            demand_misses = ~hits if demand is None else demand & ~hits
            fold(clos_ids, demand_hits, self.stats_by_clos, "hits")
            fold(clos_ids, demand_misses, self.stats_by_clos, "misses")
        if stream_ids.strides[0] == 0:
            sid = int(stream_ids[0])
            if sid >= 0 and counted:
                entry = by_sid.setdefault(sid, CacheStats())
                entry.hits += hit_total
                entry.misses += miss_total
        else:
            fold_joint(stream_ids, by_sid, 1)

        if evict_parts:
            victim_sids = np.concatenate([p[0] for p in evict_parts])
            victim_clos = np.concatenate([p[1] for p in evict_parts])
            self.stats.evictions += len(victim_clos)
            fold(
                victim_clos, np.ones(len(victim_clos), bool),
                self.stats_by_clos, "evictions",
            )
            fold(victim_sids, victim_sids >= 0, by_sid, "evictions")

        for sid, delta in by_sid.items():
            self.stats_by_stream.setdefault(
                self._stream_names[sid], CacheStats()
            ).merge(delta)

    # ------------------------------------------------------------------
    # inspection and maintenance (compared against the oracle)

    def contains(self, addr: int) -> bool:
        """True when the line holding ``addr`` is currently cached."""
        line_addr = addr // self._spec.line_bytes
        return bool(
            (self._tags[line_addr % self._spec.sets] == line_addr).any()
        )

    def occupancy_by_stream(self) -> dict[str, int]:
        """Number of valid lines currently owned by each stream label."""
        valid = self._tags >= 0
        sids = self._streams[valid & (self._streams >= 0)]
        counts = np.bincount(sids) if len(sids) else np.zeros(0, int)
        return {
            self._stream_names[sid]: int(counts[sid])
            for sid in np.flatnonzero(counts)
        }

    def occupancy_by_way(self) -> dict[int, int]:
        """Number of valid lines per way index (for CAT isolation checks)."""
        per_way = (self._tags >= 0).sum(axis=0)
        return {
            way: int(per_way[way]) for way in np.flatnonzero(per_way)
        }

    def iter_lines(self):
        """Yield ``(set_index, way, tag, stream, clos)`` per valid line."""
        sets, ways = np.nonzero(self._tags >= 0)
        for set_index, way in zip(sets, ways):
            yield (
                int(set_index),
                int(way),
                int(self._tags[set_index, way]),
                self._stream_name(int(self._streams[set_index, way])),
                int(self._clos[set_index, way]),
            )

    def valid_lines(self) -> int:
        """Total number of valid lines in the cache."""
        return int((self._tags >= 0).sum())

    def lines_in_ways(self, way_mask: int) -> int:
        """Valid lines residing in ways selected by ``way_mask``."""
        selected = (
            way_mask >> np.arange(self._spec.ways) & 1
        ).astype(bool)
        return int((self._tags[:, selected] >= 0).sum())

    def reset_stats(self) -> None:
        self.stats = CacheStats()
        self.stats_by_clos = {}
        self.stats_by_stream = {}

    def flush(self) -> None:
        """Invalidate every line and reset statistics."""
        self._tags.fill(-1)
        self._streams.fill(NO_STREAM)
        self.reset_stats()

