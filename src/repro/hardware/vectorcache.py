"""Batched LRU cache model: whole access windows as array operations.

A sequential LRU walks one ``OrderedDict`` operation per key, which caps a
serving-window simulator at a couple of million accesses per second.  This
module replaces the *per-key walk* without replacing the *semantics*:
:class:`BatchLRUCache` consumes a whole per-window access array at once and
returns hit masks, eviction events and byte traffic as vectors, while
reproducing the sequential byte-capacity LRU (``tests/reference/cache.py``)
bit-for-bit (hit/miss sequence, ``used_bytes``, eviction order) — a
property pinned by randomized traces in ``tests/test_vectorcache.py``.

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

Like :class:`repro.core.kernels.IdSlotTable`, the cache has a *dense lane*:
when the id universe is known (``universe=`` — the serving simulator's key
spaces are bounded by construction), membership and recency depth are one
direct-address gather per batch and every remaining step is an O(chunk)
scatter, so no sorting or searching appears anywhere on the hot path.
Without a universe, each call compacts the ids it sees through one
``np.unique`` and runs the same dense core in compact space — still exact,
still batched, just paying one sort per call.

Mixed entry sizes (or a batch whose size disagrees with the resident
entries) fall back to an exact sequential replay, so every batch gets the
scalar cache's answer, merely faster where it matters.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict

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
    """Vectorized outcome of one :meth:`BatchLRUCache.access_many` call.

    Attributes
    ----------
    hit_mask : numpy.ndarray of bool
        Per-access hit flag, aligned with the ``keys`` argument.
    fill_bytes : numpy.ndarray of int64
        Per-access bytes fetched from the backing store (``0`` on a hit,
        the entry size on a miss — bypassing oversized objects still pay
        the fetch).  Materialised lazily.
    evicted_keys : numpy.ndarray of int64
        Keys evicted during the call, in eviction order.  Materialised
        lazily from the per-chunk eviction runs.
    evicted_bytes : numpy.ndarray of int64
        Bytes released per eviction, aligned with ``evicted_keys``.
    """

    __slots__ = ("hit_mask", "_sizes", "_evicted_parts", "_num_hits")

    def __init__(self, hit_mask, sizes, evicted_parts):
        self.hit_mask = hit_mask
        self._sizes = sizes  # scalar or per-access array
        self._evicted_parts = evicted_parts  # list of (keys, size) runs
        self._num_hits: int | None = None

    @property
    def fill_bytes(self) -> np.ndarray:
        return np.where(self.hit_mask, 0, self._sizes).astype(np.int64)

    @property
    def evicted_keys(self) -> np.ndarray:
        if not self._evicted_parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [k for k, _ in self._evicted_parts]
        ).astype(np.int64)

    @property
    def evicted_bytes(self) -> np.ndarray:
        return np.concatenate(
            [np.full(k.size, s, dtype=np.int64) for k, s in self._evicted_parts]
        ) if self._evicted_parts else np.empty(0, dtype=np.int64)

    @property
    def num_hits(self) -> int:
        if self._num_hits is None:
            self._num_hits = int(self.hit_mask.sum())
        return self._num_hits

    @property
    def num_misses(self) -> int:
        return int(self.hit_mask.size) - self.num_hits

    @property
    def num_evictions(self) -> int:
        return sum(int(k.size) for k, _ in self._evicted_parts)

    @property
    def total_fill_bytes(self) -> int:
        return int(self.fill_bytes.sum())

    def stats(self, into: CacheStats | None = None) -> CacheStats:
        """Fold the hit mask into a :class:`CacheStats` aggregate."""
        into = into if into is not None else CacheStats()
        into.hits += self.num_hits
        into.misses += self.num_misses
        return into


class BatchLRUCache:
    """Byte-capacity LRU over ``int64`` keys with batched array access.

    Semantically identical to the sequential LRU in
    ``tests/reference/cache.py`` (insert-on-miss, LRU eviction, oversized
    objects bypass) but keyed by integers and built for
    :meth:`access_many`: one call consumes a whole access window and
    returns vectors instead of walking a dict per key.

    Parameters
    ----------
    capacity_bytes : int
        Total capacity; inserting beyond it evicts LRU entries.  Zero is
        legal (everything misses).
    universe : int, optional
        When the key space is known to be ``[0, universe)``, a flat
        direct-address depth array replaces every search on the hot path
        (the same dense-lane idea as ``IdSlotTable``).  Keys outside the
        universe bypass the cache (always miss, never insert).  Without a
        universe any ``int64`` key is accepted and each ``access_many``
        call compacts its ids through one ``np.unique``.
    """

    def __init__(self, capacity_bytes: int, universe: int | None = None) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if universe is not None and universe <= 0:
            raise ValueError("universe must be positive when set")
        if universe is not None and universe >= 1 << 31:
            raise ValueError("universe must fit in int32")
        self.capacity_bytes = int(capacity_bytes)
        self.universe = universe
        self._order = np.empty(0, dtype=np.int64)  # keys, LRU -> MRU
        self._sizes = np.empty(0, dtype=np.int64)  # aligned with _order
        self._used = 0
        self._depth_of = (
            None if universe is None else np.full(universe, -1, dtype=np.int32)
        )
        # Scratch planes for the chunk kernels (first/last occurrence, uniq
        # ids), int32 to halve the random-access traffic.  Allocated once
        # and reused: reads are confined to the keys the current chunk just
        # wrote, so stale contents are harmless.
        self._scratch = np.empty((3, 0), dtype=np.int32)

    # ------------------------------------------------------------------ state
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def num_entries(self) -> int:
        return int(self._order.size)

    def __contains__(self, key: object) -> bool:
        try:
            k = int(key)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        if self._depth_of is not None:
            return 0 <= k < self._depth_of.size and self._depth_of[k] >= 0
        return bool((self._order == k).any())

    def clear(self) -> None:
        if self._depth_of is not None:
            self._depth_of[self._order] = -1
        self._order = np.empty(0, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.int64)
        self._used = 0

    # ----------------------------------------------------------------- batch
    def access_many(
        self,
        keys: np.ndarray,
        sizes: np.ndarray | int,
        stats: CacheStats | None = None,
    ) -> BatchAccessResult:
        """Touch a key sequence in order; returns per-access vectors.

        Parameters
        ----------
        keys : numpy.ndarray of int64
            Access stream, in access order.  Duplicates are honoured
            sequentially (a miss earlier in the batch turns later touches
            of the same key into hits, subject to evictions).
        sizes : int or numpy.ndarray of int64
            Entry size per access; a scalar means one uniform size.  The
            fast vectorized path requires the batch and the resident
            entries to share one size — mixed sizes replay sequentially
            (still exact, no longer batched).
        stats : CacheStats, optional
            Aggregate accumulator updated in place when given.

        Returns
        -------
        BatchAccessResult
            Hit mask, per-access fill bytes and the eviction sequence.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = keys.size
        if n == 0:
            return BatchAccessResult(np.zeros(0, dtype=bool), 0, [])
        size_arr = None
        if np.ndim(sizes) == 0:
            s = int(sizes)
        else:
            size_arr = np.ascontiguousarray(sizes, dtype=np.int64)
            if size_arr.size != n:
                raise ValueError("keys and sizes disagree on length")
            if (size_arr < 0).any():
                raise ValueError("entry sizes must be non-negative")
            if (size_arr == size_arr[0]).all():
                s = int(size_arr[0])
                size_arr = None
            else:
                s = -1
        if size_arr is None and s < 0:
            raise ValueError("entry sizes must be non-negative")

        uniform_resident = self._order.size == 0 or bool(
            (self._sizes == s).all()
        )
        if size_arr is not None or not uniform_resident:
            per_size = (
                size_arr
                if size_arr is not None
                else np.full(n, s, dtype=np.int64)
            )
            result = self._access_seq(keys, per_size)
        else:
            result = self._access_uniform(keys, s)
        if stats is not None:
            result.stats(stats)
        return result

    # ------------------------------------------------------- uniform fast path
    def _access_uniform(self, keys: np.ndarray, s: int) -> BatchAccessResult:
        n = keys.size
        hit_mask = np.zeros(n, dtype=bool)
        if s > self.capacity_bytes:
            # Un-cacheable objects bypass; with a uniform resident size the
            # cache is empty here, so every access misses and nothing inserts.
            return BatchAccessResult(hit_mask, s, [])

        if self._depth_of is not None:
            in_range = (keys >= 0) & (keys < self._depth_of.size)
            if in_range.all():
                evicted = self._run_dense(keys, s, hit_mask)
            else:
                # Out-of-universe keys bypass; the in-range sub-stream runs
                # through the dense core and the mask stitches back.
                sub_hits = np.zeros(int(in_range.sum()), dtype=bool)
                evicted = self._run_dense(keys[in_range], s, sub_hits)
                hit_mask[in_range] = sub_hits
        else:
            evicted = self._run_sparse(keys, s, hit_mask)
        return BatchAccessResult(hit_mask, s, [(ev, s) for ev in evicted])

    def _run_dense(
        self, keys: np.ndarray, s: int, hit_out: np.ndarray
    ) -> list[np.ndarray]:
        """Uniform-size batch against the persistent direct-address lane."""
        self._order, evicted = self._run_core(
            keys.astype(np.int32),
            s,
            self._depth_of,
            self._order.astype(np.int32, copy=False),
            hit_out,
        )
        self._sizes = np.full(self._order.size, s, dtype=np.int64)
        self._used = int(self._order.size) * s
        return evicted

    def _run_sparse(
        self, keys: np.ndarray, s: int, hit_out: np.ndarray
    ) -> list[np.ndarray]:
        """Uniform-size batch without a universe: compact ids, then dense."""
        n_res = self._order.size
        uniq_all, inverse = np.unique(
            np.concatenate([self._order, keys]), return_inverse=True
        )
        inverse = inverse.astype(np.int32)
        depth_of = np.full(uniq_all.size, -1, dtype=np.int32)
        order_c = inverse[:n_res]
        depth_of[order_c] = np.arange(n_res, dtype=np.int32)
        order_c, evicted_c = self._run_core(
            inverse[n_res:], s, depth_of, order_c, hit_out
        )
        self._order = uniq_all[order_c]
        self._sizes = np.full(self._order.size, s, dtype=np.int64)
        self._used = int(self._order.size) * s
        return [uniq_all[ev] for ev in evicted_c]

    def _run_core(
        self,
        keys: np.ndarray,
        s: int,
        depth_of: np.ndarray,
        order: np.ndarray,
        hit_out: np.ndarray,
    ) -> list[np.ndarray]:
        """Chunked exact LRU over a compact key space.

        ``depth_of`` maps key -> recency depth (-1 absent) and ``order``
        maps depth -> key; ``depth_of`` is updated in place.  Returns the
        final recency order plus the per-chunk eviction runs; callers
        store/translate them for their key space (dense keeps them as-is,
        sparse maps compact ids back).
        """
        n = keys.size
        cap = self.capacity_bytes // s if s > 0 else n + order.size
        # Chunks anywhere <= cap are exact; fractions of cap are faster in
        # practice — an evict-then-retouch race only needs resolving when
        # both ends land in the SAME chunk, so shorter chunks turn most
        # races into ordinary cross-chunk misses on the cheap path.
        chunk = max(1, min(cap, max(cap // 4, 4096), _MAX_CHUNK))
        positions = np.arange(min(chunk, n), dtype=np.int32)
        evicted_parts: list[np.ndarray] = []
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            order, ev = self._access_chunk(
                keys[lo:hi],
                cap,
                depth_of,
                order,
                hit_out[lo:hi],
                positions[: hi - lo],
            )
            if ev.size:
                evicted_parts.append(ev)
        return order, evicted_parts

    def _access_chunk(
        self,
        chunk: np.ndarray,
        cap: int,
        depth_of: np.ndarray,
        order: np.ndarray,
        hit_out: np.ndarray,
        positions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One <=cap-length chunk: fills ``hit_out``, returns (order, evicted).

        Sort-free: distinct keys, first/last occurrences and membership all
        come from scatter/gather against the compact key space.
        """
        n_res = order.size
        size = chunk.size
        if self._scratch.shape[1] < depth_of.size:
            self._scratch = np.empty((3, depth_of.size), dtype=np.int32)
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
        tail = np.empty(n_uniq, dtype=np.int32)
        tail[rank_u] = uniq
        new_order = np.concatenate([order[surv], tail])
        depth_of[new_order] = np.arange(new_order.size, dtype=np.int32)
        return new_order, evicted

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

    # ------------------------------------------------------ sequential fallback
    def _access_seq(
        self, keys: np.ndarray, sizes: np.ndarray
    ) -> BatchAccessResult:
        """Exact sequential replay for mixed-size batches."""
        entries: OrderedDict[int, int] = OrderedDict(
            zip(self._order.tolist(), self._sizes.tolist())
        )
        used = self._used
        cap = self.capacity_bytes
        bound = None if self._depth_of is None else self._depth_of.size
        hit_mask = np.zeros(keys.size, dtype=bool)
        evicted_keys: list[int] = []
        evicted_bytes: list[int] = []
        # repro-lint: disable=hot-loop -- exact sequential reference for mixed-size batches; the batched lanes above handle the uniform-size hot shapes
        for j, (k, s) in enumerate(zip(keys.tolist(), sizes.tolist())):
            if k in entries:
                entries.move_to_end(k)
                hit_mask[j] = True
                continue
            if s > cap:
                continue
            if bound is not None and not 0 <= k < bound:
                continue  # outside the dense universe: bypass
            entries[k] = s
            used += s
            while used > cap:
                ev_k, ev_s = entries.popitem(last=False)
                used -= ev_s
                evicted_keys.append(ev_k)
                evicted_bytes.append(ev_s)
        if self._depth_of is not None:
            self._depth_of[self._order] = -1
        self._order = np.fromiter(
            entries.keys(), dtype=np.int64, count=len(entries)
        )
        self._sizes = np.fromiter(
            entries.values(), dtype=np.int64, count=len(entries)
        )
        self._used = used
        if self._depth_of is not None:
            self._depth_of[self._order] = np.arange(self._order.size, dtype=np.int64)
        parts = [
            (np.array([k], dtype=np.int64), sz)
            for k, sz in zip(evicted_keys, evicted_bytes)
        ]
        return BatchAccessResult(hit_mask, sizes, parts)


class IntervalCache:
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
    twin, :class:`BatchLRUCache`, stays available as the
    ``cache_policy="lru"`` mode of the serving engine and as the reference
    the property tests pin against.

    Parameters
    ----------
    capacity_bytes : int
        Byte capacity; entries silently expire once ``W`` younger accesses
        have gone by.
    universe : int
        The key space ``[0, universe)`` (required — recency lives in a
        direct-address plane).  Keys outside bypass (always miss).
    """

    def __init__(self, capacity_bytes: int, universe: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if universe is None or universe <= 0:
            raise ValueError("IntervalCache requires a positive universe")
        if universe >= 1 << 31:
            raise ValueError("universe must fit in int32")
        self.capacity_bytes = int(capacity_bytes)
        self.universe = int(universe)
        self._last = np.full(universe, np.iinfo(np.int64).min // 2, dtype=np.int64)
        self._first_scratch = np.empty(0, dtype=np.int32)
        self._tick = 0  # absolute position of the next access
        self._entry_size: int | None = None

    # ------------------------------------------------------------------ state
    @property
    def used_bytes(self) -> int:
        return self.num_entries * (self._entry_size or 0)

    @property
    def num_entries(self) -> int:
        # Lazy O(universe) scan: nothing on the hot path reads residency,
        # and ``_last`` + the clock already hold the full state.
        if self._entry_size is None:
            return 0
        return int(
            (self._last >= self._tick - self._window(self._entry_size)).sum()
        )

    def _window(self, s: int) -> int:
        return self.capacity_bytes // s if s > 0 else 1 << 62

    def __contains__(self, key: object) -> bool:
        try:
            k = int(key)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        if not 0 <= k < self.universe or self._entry_size is None:
            return False
        return self._tick - self._last[k] <= self._window(self._entry_size)

    def clear(self) -> None:
        # Lazy: jumping the clock past any window expires everything.
        self._tick += self.universe + (
            self._window(self._entry_size) if self._entry_size else 0
        )

    # ----------------------------------------------------------------- access
    def access_many(
        self,
        keys: np.ndarray,
        sizes: np.ndarray | int,
        stats: CacheStats | None = None,
    ) -> BatchAccessResult:
        """Touch a key sequence in order; returns per-access vectors.

        Same contract as :meth:`BatchLRUCache.access_many`, minus the
        eviction *sequence*: expiry is implicit, so ``evicted_keys`` is
        always empty while ``used_bytes`` tracks the resident count
        exactly for this model.  Requires one uniform entry size per
        cache lifetime (the serving engine's workloads are row-granular).
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = keys.size
        if np.ndim(sizes) != 0:
            arr = np.ascontiguousarray(sizes, dtype=np.int64)
            if arr.size != n:
                raise ValueError("keys and sizes disagree on length")
            if n and not (arr == arr[0]).all():
                raise ValueError("IntervalCache entries must share one size")
            s = int(arr[0]) if n else 0
        else:
            s = int(sizes)
        if s < 0:
            raise ValueError("entry sizes must be non-negative")
        if n == 0:
            return BatchAccessResult(np.zeros(0, dtype=bool), s, [])
        if self._entry_size is None:
            self._entry_size = s
        elif s != self._entry_size:
            raise ValueError("IntervalCache entries must share one size")
        w = self._window(s)
        hit_mask = np.empty(n, dtype=bool)
        in_range = (keys >= 0) & (keys < self.universe)
        if not in_range.all():
            # Out-of-universe keys bypass (always miss, never touch state
            # or age the clock), matching BatchLRUCache's dense-lane
            # contract; the in-range sub-stream recurses and stitches back.
            hit_mask[:] = False
            hit_mask[in_range] = self.access_many(keys[in_range], s).hit_mask
            result = BatchAccessResult(hit_mask, s, [])
            if stats is not None:
                result.stats(stats)
            return result
        if s > self.capacity_bytes:
            hit_mask[:] = False  # oversized objects bypass
        else:
            last = self._last
            if self._first_scratch.size < self.universe:
                self._first_scratch = np.empty(self.universe, dtype=np.int32)
            first_of = self._first_scratch
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
        result = BatchAccessResult(hit_mask, s, [])
        if stats is not None:
            result.stats(stats)
        return result
