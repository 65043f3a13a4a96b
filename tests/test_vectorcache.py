"""Equivalence tests: BatchLRUCache == sequential LRUCache
(``tests/reference/cache.py``), bit for bit, on the dense lane the serving
engine runs: every cache is built with ``universe=`` and holds one entry
size.

The batched cache must reproduce the scalar reference's observable
behaviour exactly — per-access hit/miss sequence, the recency order and
the eviction count after every batch — on randomized traces across cache
regimes (hot, thrashed, tiny, zero, oversized).  Keys outside the universe
and a second entry size are rejected with ``ValueError`` by both caches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.cache import LRUCache
from repro.hardware.cache import CacheStats
from repro.hardware.vectorcache import BatchAccessResult, BatchLRUCache, IntervalCache


class RecordingLRUCache(LRUCache):
    """Seed-semantics LRU that also records its eviction sequence."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self.evicted: list[int] = []

    def access(self, key, size_bytes):
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        if size_bytes > self.capacity_bytes:
            return False
        self._entries[key] = size_bytes
        self._used += size_bytes
        while self._used > self.capacity_bytes:
            k, s = self._entries.popitem(last=False)
            self._used -= s
            self.evicted.append(k)
        return False


def run_reference(ref: RecordingLRUCache, keys, size) -> np.ndarray:
    return np.array([ref.access(int(k), size) for k in keys], dtype=bool)


def assert_same_state(batch: BatchLRUCache, ref: RecordingLRUCache) -> None:
    np.testing.assert_array_equal(
        batch._order, np.fromiter(ref._entries, dtype=np.int64)
    )


def check_trace(capacity_bytes, size, trace, batch_lens, universe) -> None:
    """Feed one trace through both caches, comparing after every batch."""
    batch = BatchLRUCache(capacity_bytes, universe=universe)
    ref = RecordingLRUCache(capacity_bytes)
    start = 0
    for blen in batch_lens:
        part = trace[start : start + blen]
        start += blen
        evicted_before = len(ref.evicted)
        result = batch.access_many(part, size)
        expected = run_reference(ref, part, size)
        np.testing.assert_array_equal(result.hit_mask, expected)
        assert result.num_evictions == len(ref.evicted) - evicted_before
        assert_same_state(batch, ref)


def split_lengths(n, num_batches, rng):
    if num_batches <= 1:
        return [n]
    cuts = np.sort(rng.integers(0, n + 1, size=num_batches - 1))
    return np.diff(np.r_[0, cuts, n]).tolist()


CACHE_REGIMES = [
    # (capacity_entries, universe) — hot set fits / thrashes / tiny cache
    (64, 32),  # everything fits after warmup
    (64, 256),  # moderate thrash
    (8, 1024),  # heavy thrash, frontier races touches
    (1, 16),  # single-entry cache
    (500, 600),  # near-capacity, many decision keys
]


@pytest.mark.parametrize("capacity_entries,universe", CACHE_REGIMES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_traces_match_sequential(capacity_entries, universe, seed):
    rng = np.random.default_rng(seed)
    size = 8
    for trial in range(4):
        n = int(rng.integers(1, 4000))
        if trial % 2:
            trace = rng.integers(0, universe, n)  # uniform
        else:
            trace = rng.zipf(1.3, size=n) % universe  # skewed
        lens = split_lengths(n, int(rng.integers(1, 6)), rng)
        check_trace(
            capacity_entries * size, size, trace.astype(np.int64), lens, universe
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_decision_chunks_hit_vectorized_resolver(seed):
    """Force >=512 touched residents per chunk: the rounds resolver path.

    The dispatch in ``_access_chunk`` sends chunks with many decisions
    through ``_resolve_chunk`` (optimistic rounds) rather than the scalar
    walker; a hot zipf trace against a multi-thousand-entry cache is the
    engine-shaped workload that exercises it.
    """
    rng = np.random.default_rng(seed)
    size = 8
    capacity_entries = 4096
    universe = 12_000
    # Warm so the cache is full of residents, then a hot trace re-touches
    # thousands of them per chunk while cold keys push the frontier.
    warm = rng.permutation(universe)[:capacity_entries]
    hot = warm[rng.integers(0, capacity_entries, 6000)]
    cold = rng.integers(0, universe, 6000)
    trace = np.empty(12_000, dtype=np.int64)
    trace[::2] = hot
    trace[1::2] = cold
    check_trace(
        capacity_entries * size,
        size,
        np.concatenate([warm, trace]),
        [capacity_entries, 12_000],
        universe,
    )


@given(
    keys=st.lists(st.integers(0, 40), min_size=1, max_size=300),
    capacity_entries=st.integers(1, 24),
    num_batches=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_property_equivalence(keys, capacity_entries, num_batches, seed):
    rng = np.random.default_rng(seed)
    trace = np.array(keys, dtype=np.int64)
    lens = split_lengths(len(keys), num_batches, rng)
    check_trace(capacity_entries * 8, 8, trace, lens, universe=41)


def test_duplicate_keys_within_one_batch():
    batch = BatchLRUCache(10 * 8, universe=10)
    result = batch.access_many(np.array([5, 5, 5, 7, 5]), 8)
    np.testing.assert_array_equal(
        result.hit_mask, [False, True, True, False, True]
    )


def test_eviction_then_retouch_within_batch():
    """A resident key can be evicted and re-missed inside one batch."""
    capacity = 4 * 8
    batch = BatchLRUCache(capacity, universe=16)
    ref = RecordingLRUCache(capacity)
    warm = np.array([1, 2, 3, 4])
    batch.access_many(warm, 8)
    run_reference(ref, warm, 8)
    # 1 is LRU; three inserts evict 1, 2, 3; touching 1 must now MISS and
    # its re-insert evicts 4.
    trace = np.array([10, 11, 12, 1])
    result = batch.access_many(trace, 8)
    expected = run_reference(ref, trace, 8)
    np.testing.assert_array_equal(result.hit_mask, expected)
    assert not result.hit_mask[3]
    assert result.num_evictions == 4 and ref.evicted == [1, 2, 3, 4]
    assert_same_state(batch, ref)


def test_frontier_skips_touched_residents():
    """A resident touched before the frontier reaches it escapes eviction."""
    capacity = 3 * 8
    batch = BatchLRUCache(capacity, universe=64)
    ref = RecordingLRUCache(capacity)
    warm = np.array([1, 2, 3])
    batch.access_many(warm, 8)
    run_reference(ref, warm, 8)
    # Touch the LRU (1) first: inserts must evict 2 then 3, never 1.
    trace = np.array([1, 50, 51])
    result = batch.access_many(trace, 8)
    expected = run_reference(ref, trace, 8)
    np.testing.assert_array_equal(result.hit_mask, expected)
    assert result.hit_mask[0]
    assert result.num_evictions == 2 and ref.evicted == [2, 3]
    assert_same_state(batch, ref)


def test_zero_capacity_all_miss():
    batch = BatchLRUCache(0, universe=4)
    result = batch.access_many(np.array([1, 1, 2]), 8)
    assert not result.hit_mask.any()
    assert batch._order.size == 0 and result.num_evictions == 0


def test_oversized_objects_bypass():
    batch = BatchLRUCache(100, universe=4)
    result = batch.access_many(np.array([1, 1]), 200)
    assert not result.hit_mask.any()
    assert batch._order.size == 0 and result.num_evictions == 0


def test_zero_size_entries_cacheable():
    ref = RecordingLRUCache(0)
    batch = BatchLRUCache(0, universe=8)
    trace = np.array([3, 3, 4, 3])
    np.testing.assert_array_equal(
        batch.access_many(trace, 0).hit_mask, run_reference(ref, trace, 0)
    )
    assert_same_state(batch, ref)


def test_scalar_access_parity():
    batch = BatchLRUCache(3 * 8, universe=8)
    ref = RecordingLRUCache(3 * 8)
    for k in [1, 2, 3, 1, 4, 2, 5, 1]:
        hit = batch.access_many(np.array([k]), 8).hit_mask[0]
        assert hit == ref.access(k, 8)
    assert_same_state(batch, ref)


def test_stats_accumulate_across_calls():
    batch = BatchLRUCache(10_000, universe=16)
    stats = CacheStats()
    batch.access_many(np.array([1, 2, 1]), 100, stats=stats)
    batch.access_many(np.array([2, 9]), 100, stats=stats)
    assert stats.hits == 2 and stats.misses == 3


def test_empty_batch():
    batch = BatchLRUCache(100, universe=4)
    result = batch.access_many(np.empty(0, dtype=np.int64), 8)
    assert isinstance(result, BatchAccessResult)
    assert result.hit_mask.size == 0 and result.num_evictions == 0


CACHES = [BatchLRUCache, IntervalCache]


@pytest.mark.parametrize("cache_cls", CACHES)
def test_rejects_bad_construction_and_sizes(cache_cls):
    with pytest.raises(ValueError):
        cache_cls(-1, universe=4)
    for universe in (0, 1 << 31):
        with pytest.raises(ValueError):
            cache_cls(100, universe=universe)
    cache = cache_cls(100, universe=4)
    with pytest.raises(ValueError):
        cache.access_many(np.array([1]), -4)
    with pytest.raises(TypeError):  # one scalar size, not one per access
        cache.access_many(np.array([1, 2]), np.array([8, 8]))


@pytest.mark.parametrize("cache_cls", CACHES)
@pytest.mark.parametrize("bad", [-1, 100, 1 << 40])
def test_out_of_universe_keys_raise(cache_cls, bad):
    """A key outside ``[0, universe)`` is an error, not a bypass: a negative
    key would otherwise wrap to the top of the direct-address planes."""
    cache, twin = cache_cls(4 * 8, universe=100), cache_cls(4 * 8, universe=100)
    warm, after = np.array([1, 99, 2]), np.array([99, 7, 1, 99])
    cache.access_many(warm, 8)
    twin.access_many(warm, 8)
    with pytest.raises(ValueError, match=r"\[0, 100\)"):
        cache.access_many(np.array([7, bad, 1]), 8)
    # The rejected call touched nothing: the cache answers as its twin
    # that never saw it.
    got = cache.access_many(after, 8).hit_mask
    np.testing.assert_array_equal(got, twin.access_many(after, 8).hit_mask)
    assert got[0] and not got[1]


@pytest.mark.parametrize("cache_cls", CACHES)
def test_second_entry_size_raises(cache_cls):
    cache = cache_cls(10 * 8, universe=10)
    cache.access_many(np.array([1, 2]), 8)
    with pytest.raises(ValueError, match="8-byte"):
        cache.access_many(np.array([1]), 16)
    assert cache.access_many(np.array([1, 2]), 8).hit_mask.all()


class TestIntervalCache:
    """The CLOCK-style fast lane: exact to its own model, subset of LRU."""

    def reference(self, trace, window):
        lastpos = {}
        exp = np.zeros(len(trace), dtype=bool)
        for j, k in enumerate(trace.tolist()):
            if k in lastpos and j - lastpos[k] <= window:
                exp[j] = True
            lastpos[k] = j
        return exp

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_positional_window_model(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            w = int(rng.integers(1, 50))
            uni = int(rng.integers(2, 90))
            n = int(rng.integers(1, 500))
            trace = rng.integers(0, uni, n)
            cache = IntervalCache(w * 8, universe=uni)
            cut = int(rng.integers(0, n + 1))
            got = np.concatenate(
                [
                    cache.access_many(trace[:cut], 8).hit_mask,
                    cache.access_many(trace[cut:], 8).hit_mask,
                ]
            )
            np.testing.assert_array_equal(got, self.reference(trace, w))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hits_are_subset_of_exact_lru(self, seed):
        rng = np.random.default_rng(seed)
        trace = rng.integers(0, 300, 3000)
        itv = IntervalCache(64 * 8, universe=300).access_many(trace, 8)
        ref = RecordingLRUCache(64 * 8)
        lru_hits = run_reference(ref, trace, 8)
        assert not (itv.hit_mask & ~lru_hits).any()

    def test_oversized_entries_bypass(self):
        cache = IntervalCache(10, universe=50)
        assert not cache.access_many(np.array([1, 1]), 20).hit_mask.any()
