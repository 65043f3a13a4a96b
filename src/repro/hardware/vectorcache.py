"""Batched LRU cache models: whole access windows as array operations.

A sequential LRU walks one ``OrderedDict`` operation per key, which caps a
serving-window simulator at a couple of million accesses per second.  This
module replaces the *per-key walk* without replacing the *semantics*:
:class:`BatchLRUCache` consumes a whole per-window access array at once and
returns a hit mask and an eviction count, while reproducing the sequential
byte-capacity LRU (``tests/reference/cache.py``) bit-for-bit (hit/miss
sequence, recency order, eviction count) — a property pinned by randomized
traces in ``tests/test_vectorcache.py``.

Both caches serve the one traffic shape the serving engine sends them:
keys from a known universe ``[0, universe)`` and one entry size per cache
lifetime.  Membership and recency live in direct-address planes over that
universe (the same dense-lane idea as
:class:`repro.core.kernels.IdSlotTable`), so no sorting or searching
appears anywhere on the hot path.  A key outside the universe or a second
entry size raises ``ValueError``: a negative key would otherwise wrap
silently under numpy fancy indexing.

How exactness survives batching
-------------------------------

With a uniform entry size ``s`` the byte-capacity LRU is an entry-capacity
LRU with ``C = capacity_bytes // s`` slots.  ``access_many`` splits the
stream into chunks of at most ``C`` accesses.  Inside such a chunk no key
that has been touched can be evicted again before the chunk ends (fewer
than ``C`` distinct keys follow it), which collapses per-access state into
three vectorizable facts:

* an access hits iff its key was resident at chunk start and not yet
  evicted, **or** occurred earlier in the same chunk;
* evictions consume resident keys in LRU order, *skipping* keys the chunk
  has already touched (they moved to MRU);
* the post-chunk recency order is ``surviving untouched residents (old
  order) + touched keys (last-touch order)``.

The only sequential ambiguity left is a resident key whose first touch
races the eviction frontier (touch first -> it escapes and the frontier
skips it; eviction first -> the touch is a miss that re-inserts the key and
fires one more eviction).  :meth:`BatchLRUCache._resolve_chunk` settles
that race exactly with an optimistic vectorized pass plus a short
confirmation loop over the (rare) conflicting keys.
"""

from __future__ import annotations

import bisect
import operator

import numpy as np

from .cache import CacheStats

__all__ = ["BatchAccessResult", "BatchLRUCache", "IntervalCache"]

# Keep chunk working sets small enough to stay cache-friendly even when the
# modelled LRU itself is huge.
_MAX_CHUNK = 1 << 17


def _kth_of_merged(a: np.ndarray, b: list, k: int) -> int:
    """k-th smallest (0-based) of sorted array ``a`` merged with sorted
    list ``b`` (values distinct across both), without materialising the
    merge — O(log len(b)) via the classic two-sorted-arrays selection."""
    if not b:
        return int(a[k])
    lo = max(0, k + 1 - a.size)
    hi = min(len(b), k + 1)
    while lo < hi:
        f = (lo + hi) // 2  # elements taken from b
        if k - f >= a.size or (f < len(b) and b[f] < a[k - f]):
            lo = f + 1
        else:
            hi = f
    f = lo
    best = b[f - 1] if f > 0 else -1
    if 0 <= k - f < a.size:
        best = max(best, int(a[k - f]))
    return best


class BatchAccessResult:
    """Outcome of one ``access_many`` call.

    Attributes
    ----------
    hit_mask : numpy.ndarray of bool
        Per-access hit flag, aligned with the ``keys`` argument.
    num_evictions : int
        Entries evicted during the call (always ``0`` for
        :class:`IntervalCache`, whose expiry is implicit).
    """

    __slots__ = ("hit_mask", "num_evictions")

    def __init__(self, hit_mask: np.ndarray, num_evictions: int) -> None:
        self.hit_mask = hit_mask
        self.num_evictions = num_evictions


class _DenseCache:
    """The boundary both caches share: a key universe, one entry size.

    Parameters
    ----------
    capacity_bytes : int
        Total capacity.  Zero is legal (everything misses); an entry larger
        than the capacity bypasses the cache (always misses, never
        inserts), as in the sequential reference.
    universe : int
        The key space ``[0, universe)``; recency lives in direct-address
        planes of this length.
    """

    def __init__(self, capacity_bytes: int, universe: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if not 0 < universe < 1 << 31:
            raise ValueError("universe must be positive and fit in int32")
        self.capacity_bytes = int(capacity_bytes)
        self.universe = int(universe)
        self._entry_size: int | None = None

    def _admit(self, keys: np.ndarray, size: int) -> np.ndarray:
        """Validate one call's arguments; returns the keys as ``int64``.

        The checks run before any state changes, so a rejected call
        leaves the cache as it was.
        """
        size = operator.index(size)
        if size < 0:
            raise ValueError("entry sizes must be non-negative")
        if self._entry_size not in (None, size):
            raise ValueError(
                f"cache holds {self._entry_size}-byte entries, got {size}"
            )
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.universe):
            raise ValueError(f"keys must lie in [0, {self.universe})")
        self._entry_size = size
        return keys

    @staticmethod
    def _result(
        hit_mask: np.ndarray, num_evictions: int, stats: CacheStats | None
    ) -> BatchAccessResult:
        """The call's result, its hits folded into ``stats`` when given."""
        if stats is not None:
            hits = int(hit_mask.sum())
            stats.hits += hits
            stats.misses += hit_mask.size - hits
        return BatchAccessResult(hit_mask, num_evictions)


class BatchLRUCache(_DenseCache):
    """Byte-capacity LRU over a dense key universe, one window per call.

    Semantically identical to the sequential LRU in
    ``tests/reference/cache.py`` (insert-on-miss, LRU eviction, oversized
    objects bypass) for one entry size; one :meth:`access_many` call
    consumes a whole access window and returns vectors instead of walking
    a dict per key.  Parameters as for the shared base: ``capacity_bytes``
    and the key ``universe``.
    """

    def __init__(self, capacity_bytes: int, universe: int) -> None:
        super().__init__(capacity_bytes, universe)
        self._order = np.empty(0, dtype=np.intp)  # keys, LRU -> MRU
        self._depth_of = np.full(universe, -1, dtype=np.int32)
        # Scratch planes for the chunk kernels (first/last occurrence, uniq
        # ids), int32 to halve the random-access traffic.  Allocated once
        # and reused: reads are confined to the keys the current chunk just
        # wrote, so stale contents are harmless.
        self._scratch = np.empty((3, universe), dtype=np.int32)

    def access_many(
        self,
        keys: np.ndarray,
        size: int,
        stats: CacheStats | None = None,
    ) -> BatchAccessResult:
        """Touch a key sequence in order.

        Parameters
        ----------
        keys : numpy.ndarray of int
            Access stream in ``[0, universe)``, in access order.
            Duplicates are honoured sequentially (a miss earlier in the
            batch turns later touches of the same key into hits, subject
            to evictions).
        size : int
            Entry size in bytes; one value per cache lifetime.
        stats : CacheStats, optional
            Aggregate accumulator updated in place when given.
        """
        keys = self._admit(keys, size)
        n = keys.size
        hit_mask = np.zeros(n, dtype=bool)
        s = self._entry_size
        if n == 0 or s > self.capacity_bytes:
            return self._result(hit_mask, 0, stats)
        cap = self.capacity_bytes // s if s > 0 else n + self._order.size
        # Chunks anywhere <= cap are exact; fractions of cap are faster in
        # practice — an evict-then-retouch race only needs resolving when
        # both ends land in the SAME chunk, so shorter chunks turn most
        # races into ordinary cross-chunk misses on the cheap path.
        chunk = max(1, min(cap, max(cap // 4, 4096), _MAX_CHUNK))
        # Index arrays stay intp: numpy casts any other index dtype back
        # to intp on every gather and scatter.
        positions = np.arange(min(chunk, n), dtype=np.intp)
        evictions = 0
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            evictions += self._access_chunk(
                keys[lo:hi], cap, hit_mask[lo:hi], positions[: hi - lo]
            )
        return self._result(hit_mask, evictions, stats)

    def _access_chunk(
        self,
        chunk: np.ndarray,
        cap: int,
        hit_out: np.ndarray,
        positions: np.ndarray,
    ) -> int:
        """One <=cap-length chunk: fills ``hit_out``, returns the eviction
        count and leaves ``_order`` / ``_depth_of`` at the chunk's end.

        Sort-free: distinct keys, first/last occurrences and membership all
        come from scatter/gather against the key universe.
        """
        order, depth_of = self._order, self._depth_of
        n_res = order.size
        size = chunk.size
        first_of, uid_of, last_of = self._scratch
        # First occurrence per key: reversed scatter makes the first write
        # win; a position is "first" iff the scatter kept it.
        first_of[chunk[::-1]] = positions[::-1]
        is_first = first_of[chunk] == positions
        uniq = chunk[is_first]  # distinct keys, first-occurrence order
        n_uniq = uniq.size
        uid_of[uniq] = positions[:n_uniq]
        inv = uid_of[chunk]
        last_of[chunk] = positions
        last_pos = last_of[uniq]
        depth_u = depth_of[uniq]
        found = depth_u >= 0
        n_touched = int(found.sum())
        new_inserts = n_uniq - n_touched

        flipped_u = np.zeros(n_uniq, dtype=bool)
        evicted_depth = np.zeros(n_res, dtype=bool)
        touched_any = n_touched > 0
        if not touched_any:
            evicted_depth[: max(0, n_res + new_inserts - cap)] = True
        elif n_res + new_inserts + n_touched > cap:
            # Frontier may race the touches; resolve exactly.  Decisions
            # ordered by depth via one O(entries) bucket scatter.
            dbuf = np.full(n_res, -1, dtype=np.int32)
            touched_uid = np.flatnonzero(found)
            dbuf[depth_u[touched_uid]] = touched_uid
            dec_depth = np.flatnonzero(dbuf >= 0)
            dec_uniq = dbuf[dec_depth]
            dec_pos = first_of[uniq[dec_uniq]]
            if dec_depth.size < 512:
                # uniq is in first-occurrence order, so new-key first
                # touches are already an ascending position array.
                self._resolve_chunk_scalar(
                    n_res,
                    cap,
                    first_of[uniq[~found]],
                    dec_pos,
                    dec_depth,
                    dec_uniq,
                    evicted_depth,
                    flipped_u,
                )
            else:
                self._resolve_chunk(
                    n_res,
                    cap,
                    is_first & (~found)[inv],
                    dec_pos,
                    dec_depth,
                    dec_uniq,
                    evicted_depth,
                    flipped_u,
                )

        miss_first_u = ~found | flipped_u
        np.logical_not(is_first & miss_first_u[inv], out=hit_out)

        evicted = order[evicted_depth]
        depth_of[evicted] = -1
        # Post-chunk recency order: surviving untouched residents keep their
        # relative order; every chunk key re-enters at MRU in last-touch
        # order (rank via one cumsum — last positions are distinct ints).
        surv = ~evicted_depth
        if touched_any:
            surv[depth_u[found]] = False
        seen = np.zeros(size, dtype=bool)
        seen[last_pos] = True
        rank_u = np.cumsum(seen)[last_pos] - 1
        tail = np.empty(n_uniq, dtype=np.intp)
        tail[rank_u] = uniq
        self._order = np.concatenate([order[surv], tail])
        depth_of[self._order] = np.arange(self._order.size, dtype=np.int32)
        return int(evicted.size)

    @staticmethod
    def _resolve_chunk(
        n_res: int,
        cap: int,
        base_insert_pos: np.ndarray,
        dec_pos: np.ndarray,
        dec_depth: np.ndarray,
        dec_uniq: np.ndarray,
        evicted_depth: np.ndarray,
        flipped_u: np.ndarray,
    ) -> None:
        """Race the eviction frontier against the resident touches, exactly.

        A touched resident at depth ``d`` either *escapes* (touched before
        the frontier reaches ``d``; the frontier skips it from then on) or
        *flips* (evicted first; its touch re-misses and the re-insert fires
        one more eviction downstream).  Resolution is optimistic: assume
        every touched resident escapes, compute each one's would-be
        consumption event vectorized, and check it against the touch
        position.  Violations consumed before the earliest *remaining*
        violating touch are insulated from undiscovered re-inserts and
        confirmed in consumption order, folding each confirmed flip's
        re-insert (a small sorted list) and below-count shift into later
        candidates' lookups — as flips confirm, the remaining minimum
        touch rises, so whole cascades settle in one round.  The
        earliest-consumed candidate is causally forced, so every round
        makes progress; violations only *created* by a round's re-inserts
        surface on the next pass.  Fills ``evicted_depth`` / ``flipped_u``.
        """
        free = cap - n_res
        n_dec = dec_depth.size
        dec_rank = np.arange(n_dec, dtype=np.int64)  # touched residents below, by depth
        insert_pos = base_insert_pos.copy()
        flip_mask_depth = np.zeros(n_res, dtype=np.int64)
        pending = np.ones(n_dec, dtype=bool)
        while True:
            events = np.flatnonzero(insert_pos)  # insert times, ascending
            # Frontier reaches depth d at the event consuming its
            # (non-escaped-below + 1)-th victim; escaped-below under the
            # current assumption = shallower decisions minus known flips.
            flips_below = np.cumsum(flip_mask_depth) - flip_mask_depth
            below = dec_depth - dec_rank + flips_below[dec_depth]
            event_idx = free + below  # 0-based index into ``events``
            reachable = pending & (event_idx < events.size)
            viol = reachable.copy()
            cons = events[event_idx[reachable]]
            viol[reachable] = cons < dec_pos[reachable]
            if not viol.any():
                break
            cons_v = np.zeros(n_dec, dtype=np.int64)
            cons_v[reachable] = cons
            viol_idx = np.flatnonzero(viol)
            by_cons = viol_idx[np.argsort(cons_v[viol_idx], kind="stable")]
            by_touch = viol_idx[np.argsort(dec_pos[viol_idx], kind="stable")]
            touch_order = by_touch.tolist()
            touch_pos = dec_pos[by_touch].tolist()
            heap_at = 0
            accepted = np.zeros(n_dec, dtype=bool)
            new_pos: list[int] = []  # this round's re-inserts, sorted
            new_depths: list[int] = []  # their depths, sorted
            ev_list = event_idx.tolist()
            dd_list = dec_depth.tolist()
            dp_list = dec_pos.tolist()
            n_events = events.size
            # repro-lint: disable=hot-loop -- eviction-frontier race resolver: each confirmed flip feeds the next candidate's merged lookup, inherently sequential; loop length is violations-per-round, not batch size
            for i in by_cons.tolist():
                k = ev_list[i] + bisect.bisect_left(new_depths, dd_list[i])
                if k >= n_events + len(new_pos):
                    continue
                consumed_at = _kth_of_merged(events, new_pos, k)
                while accepted[touch_order[heap_at]]:
                    heap_at += 1
                if consumed_at < touch_pos[heap_at]:
                    accepted[i] = True
                    pending[i] = False
                    insert_pos[dp_list[i]] = True  # the re-miss inserts
                    flip_mask_depth[dd_list[i]] = 1
                    bisect.insort(new_pos, dp_list[i])
                    bisect.insort(new_depths, dd_list[i])
        flipped = ~pending
        flipped_u[dec_uniq[flipped]] = True
        esc_depths = dec_depth[pending]  # ascending by construction
        fired = max(0, n_res + int(insert_pos.sum()) - cap)
        frontier = fired
        while True:
            stretched = fired + int(np.searchsorted(esc_depths, frontier))
            if stretched == frontier:
                break
            frontier = stretched
        if frontier > n_res:
            raise AssertionError("eviction frontier overran the cache")
        evicted_depth[:frontier] = True
        evicted_depth[esc_depths[esc_depths < frontier]] = False

    @staticmethod
    def _resolve_chunk_scalar(
        n_res: int,
        cap: int,
        new_first_pos: np.ndarray,
        dec_pos: np.ndarray,
        dec_depth: np.ndarray,
        dec_uniq: np.ndarray,
        evicted_depth: np.ndarray,
        flipped_u: np.ndarray,
    ) -> None:
        """Direct time-ordered walk of the frontier race, for few decisions.

        Same contract as :meth:`_resolve_chunk` (``new_first_pos`` is the
        sorted first-touch positions of brand-new keys rather than a
        per-position mask); this variant simulates the touch events in
        access order, tracking the frontier in pure integer arithmetic
        (skips resolved by bisect over the small escaped list) and
        materialising the eviction mask once at the end.  O(decisions)
        Python steps — the cheaper shape when a thrashed cache touches
        only a handful of residents per chunk.
        """
        free = cap - n_res
        order_ev = np.argsort(dec_pos, kind="stable")
        ins_at = np.searchsorted(new_first_pos, dec_pos)
        escaped: list[int] = []  # sorted depths the frontier must skip
        frontier = 0
        fired = 0
        extra = 0

        def advance(due: int) -> None:
            nonlocal frontier, fired
            need = due - fired
            if need <= 0:
                return
            lo = bisect.bisect_left(escaped, frontier)
            x = frontier + need
            while True:
                hi = bisect.bisect_left(escaped, x)
                stretched = frontier + need + (hi - lo)
                if stretched == x:
                    break
                x = stretched
            frontier = x
            fired += need

        ins_list = ins_at.tolist()
        depth_list = dec_depth.tolist()
        uniq_list = dec_uniq.tolist()
        # repro-lint: disable=hot-loop -- frontier replay over eviction events only (not accesses); each event's advance depends on the previous event's escapes
        for e in order_ev.tolist():
            advance(ins_list[e] + extra - free)
            d = depth_list[e]
            if d < frontier:
                # Evicted before its touch: the touch misses and re-inserts.
                flipped_u[uniq_list[e]] = True
                extra += 1
            else:
                bisect.insort(escaped, d)
        advance(new_first_pos.size + extra - free)
        if frontier > n_res:
            raise AssertionError("eviction frontier overran the cache")
        evicted_depth[:frontier] = True
        below = escaped[: bisect.bisect_left(escaped, frontier)]
        if below:
            evicted_depth[below] = False


class IntervalCache(_DenseCache):
    """CLOCK-style coarse-recency cache: resident = touched recently.

    The issue with exact LRU is that eviction *order* serialises the
    simulation; real L3s do not pay that cost either — they run
    pseudo-LRU/CLOCK, which approximates recency with periodically cleared
    reference bits.  This model makes the same trade, taken to its
    vectorizable limit: an entry is resident iff it was touched within the
    last ``W = capacity_bytes // entry_size`` accesses.  Since ``W``
    consecutive accesses touch at most ``W`` distinct keys, occupancy never
    exceeds the byte capacity, and the resident set is always a *subset* of
    what true LRU would hold — every hit this model reports is a hit the
    exact model reports too (pinned in ``tests/test_vectorcache.py``).

    One ``access_many`` pass costs ~8 array ops per ``W``-sized block
    (last-touch gather, window compare, scatter update), with no per-key
    or per-eviction work at all, which is what lets the serving-window
    engine consume production-scale windows at memory speed.  The exact
    twin, :class:`BatchLRUCache`, is the ``cache_policy="lru"`` mode of the
    serving engine.  Parameters as for the shared base: ``capacity_bytes``
    (entries silently expire once ``W`` younger accesses have gone by) and
    the key ``universe``.
    """

    def __init__(self, capacity_bytes: int, universe: int) -> None:
        super().__init__(capacity_bytes, universe)
        self._last = np.full(universe, np.iinfo(np.int64).min // 2, dtype=np.int64)
        self._first_scratch = np.empty(universe, dtype=np.int32)
        self._tick = 0  # absolute position of the next access

    def access_many(
        self,
        keys: np.ndarray,
        size: int,
        stats: CacheStats | None = None,
    ) -> BatchAccessResult:
        """Touch a key sequence in order; same contract as
        :meth:`BatchLRUCache.access_many`, and ``num_evictions`` is always
        ``0``: expiry is implicit."""
        keys = self._admit(keys, size)
        n = keys.size
        s = self._entry_size
        hit_mask = np.zeros(n, dtype=bool)
        if s <= self.capacity_bytes:  # an oversized entry always misses
            w = self.capacity_bytes // s if s > 0 else 1 << 62
            last, first_of = self._last, self._first_scratch
            # Blocks no longer than the window: a repeat inside one block
            # is by construction within the window (a guaranteed hit), so
            # only each block's first occurrence consults the last-touch
            # plane.  First occurrences via the reversed-scatter trick.
            block = max(1, min(w, _MAX_CHUNK))
            offs = np.arange(block, dtype=np.int32)
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                part = keys[lo:hi]
                off = offs[: hi - lo]
                first_of[part[::-1]] = off[::-1]
                is_first = first_of[part] == off
                pos = np.arange(
                    self._tick + lo, self._tick + hi, dtype=np.int64
                )
                prev = last[part]
                last[part] = pos
                sub = hit_mask[lo:hi]
                np.less_equal(pos - prev, w, out=sub)
                sub[~is_first] = True
        self._tick += n
        return self._result(hit_mask, 0, stats)
