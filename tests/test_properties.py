"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.cache import LRUCache
from reference.sync import average_merge, priority_merge
from repro.core.dtypes import ROW_DTYPE
from repro.core.lora import LoRAAdapter
from repro.core.pruning import UsageTracker
from repro.core.rank_adaptation import cumulative_variance, rank_for_variance
from repro.core.sync import average_merge_rows, priority_merge_rows
from repro.dlrm.metrics import auc_roc
from repro.dlrm.model import sigmoid
from repro.cluster.timeline import simulate_periodic_updates


def frequency(tracker, idx):
    """Updates of ``idx`` inside the tracker's window."""
    counts = tracker._counts
    return int(counts[idx]) if 0 <= idx < counts.size else 0


# ------------------------------------------------------------------ metrics
@given(
    labels=st.lists(st.integers(0, 1), min_size=2, max_size=200),
    seed=st.integers(0, 2 ** 16),
)
def test_auc_bounded_and_complement_symmetric(labels, seed):
    labels = np.array(labels, dtype=float)
    scores = np.random.default_rng(seed).random(len(labels))
    auc = auc_roc(labels, scores)
    if np.isnan(auc):
        assert labels.min() == labels.max()
    else:
        assert 0.0 <= auc <= 1.0
        # reversing the ranking reflects the AUC around 0.5
        assert abs(auc_roc(labels, -scores) - (1.0 - auc)) < 1e-9


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=50))
def test_sigmoid_bounded_and_monotone(zs):
    z = np.sort(np.array(zs))
    s = sigmoid(z)
    assert ((s >= 0) & (s <= 1)).all()
    assert (np.diff(s) >= -1e-12).all()


# -------------------------------------------------------------------- cache
@given(
    keys=st.lists(st.integers(0, 30), min_size=1, max_size=300),
    capacity_entries=st.integers(1, 40),
)
def test_lru_cache_never_exceeds_capacity(keys, capacity_entries):
    size = 8
    cache = LRUCache(capacity_entries * size)
    for k in keys:
        cache.access(k, size)
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.num_entries * size == cache.used_bytes


@given(keys=st.lists(st.integers(0, 10), min_size=1, max_size=100))
def test_lru_cache_with_huge_capacity_misses_once_per_key(keys):
    cache = LRUCache(10_000)
    misses = sum(0 if cache.access(k, 1) else 1 for k in keys)
    assert misses == len(set(keys))


# --------------------------------------------------------------------- LoRA
def _grow_and_compare(ids, rank, seed, dtype):
    """Grow an adapter's rank by up to 3; return the delta rows before and
    after, and the largest ``|A| @ |B|`` entry (what a rounding error in
    ``A @ B`` scales with)."""
    dim = 8
    rng = np.random.default_rng(seed)
    adapter = LoRAAdapter(dim=dim, rank=rank, capacity=32, rng=rng, dtype=dtype)
    arr = np.array(ids)
    adapter.accumulate_grad(arr, rng.normal(size=(len(arr), dim)), lr=0.1)
    before = adapter.delta_rows(arr)
    scale = float((np.abs(adapter.a.astype(np.float64)) @ np.abs(adapter.b)).max())
    adapter.resize_rank(min(rank + 3, dim))
    return before, adapter.delta_rows(arr), scale


@given(
    ids=st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True),
    rank=st.integers(1, 8),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_lora_grow_preserves_delta(ids, rank, seed):
    # The float32 serving lane.  The zero-padded columns add nothing, but a
    # longer float32 dot product may sum in another order: each entry of
    # A @ B is then off by at most k * eps * (|A| @ |B|) per side.
    before, after, scale = _grow_and_compare(ids, rank, seed, ROW_DTYPE)
    k = min(rank + 3, 8)
    atol = 2 * k * float(np.finfo(np.float32).eps) * scale
    np.testing.assert_allclose(after, before, rtol=0, atol=atol)


@given(
    ids=st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True),
    rank=st.integers(1, 8),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_lora_grow_preserves_delta_on_the_float64_lane(ids, rank, seed):
    before, after, _ = _grow_and_compare(ids, rank, seed, np.float64)
    np.testing.assert_allclose(after, before, atol=1e-9)


@given(
    ids=st.lists(st.integers(0, 49), min_size=1, max_size=40),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_lora_merge_equals_overlay(ids, seed):
    """merge_into(base) must equal base + delta for every active id."""
    dim = 6
    rng = np.random.default_rng(seed)
    adapter = LoRAAdapter(dim=dim, rank=3, capacity=64, rng=rng)
    arr = np.unique(np.array(ids))
    adapter.accumulate_grad(arr, rng.normal(size=(len(arr), dim)), lr=0.2)
    base = rng.normal(size=(50, dim))
    expected = base[arr] + adapter.delta_rows(arr)
    weight = base.copy()
    adapter.merge_into(weight)
    np.testing.assert_allclose(weight[arr], expected, atol=1e-9)


# ---------------------------------------------------------- rank adaptation
@given(
    n=st.integers(2, 40),
    d=st.integers(2, 16),
    seed=st.integers(0, 1000),
    alpha=st.floats(0.1, 1.0, exclude_min=True),
)
@settings(max_examples=50, deadline=None)
def test_rank_for_variance_within_bounds(n, d, seed, alpha):
    m = np.random.default_rng(seed).normal(size=(n, d))
    r = rank_for_variance(m, alpha)
    assert 1 <= r <= min(n, d)
    cum = cumulative_variance(m)
    assert cum[r - 1] >= alpha - 1e-9
    if r > 1:
        assert cum[r - 2] < alpha


# ------------------------------------------------------------------ pruning
@given(
    updates=st.lists(
        st.lists(st.integers(0, 15), min_size=1, max_size=8),
        min_size=1,
        max_size=40,
    ),
    window=st.integers(1, 20),
)
@settings(max_examples=50, deadline=None)
def test_usage_tracker_counts_match_window(updates, window):
    tracker = UsageTracker(window_iters=window, tau_prune=1, c_min=1, c_max=100)
    for ids in updates:
        tracker.record_update(np.array(ids))
    recent = updates[-window:]
    for idx in range(16):
        expected = sum(1 for ids in recent if idx in ids)
        assert frequency(tracker, idx) == expected


@given(
    updates=st.lists(
        st.lists(st.integers(0, 15), min_size=1, max_size=8),
        min_size=1,
        max_size=30,
    ),
    c_min=st.integers(1, 5),
    c_max=st.integers(5, 30),
)
@settings(max_examples=50, deadline=None)
def test_capacity_always_clamped(updates, c_min, c_max):
    tracker = UsageTracker(10, tau_prune=1, c_min=c_min, c_max=max(c_min, c_max))
    for ids in updates:
        tracker.record_update(np.array(ids))
    decision = tracker.decide()
    assert c_min <= decision.new_capacity <= max(c_min, c_max)


# ------------------------------------------------------------------- merge
@given(
    data=st.lists(
        st.dictionaries(
            st.integers(0, 10), st.floats(-10, 10), min_size=0, max_size=5
        ),
        min_size=0,
        max_size=5,
    )
)
def test_priority_merge_respects_max_rank(data):
    per_rank = [
        {k: np.array([v]) for k, v in d.items()} for d in data
    ]
    merged = priority_merge(per_rank)
    for idx, value in merged.items():
        owners = [r for r, d in enumerate(data) if idx in d]
        assert value[0] == data[max(owners)][idx]
    all_keys = set().union(*(d.keys() for d in data)) if data else set()
    assert set(merged) == all_keys
    # the array merges the synchronizer runs agree with the dict oracles
    arrays = [
        (np.array(sorted(d), dtype=np.int64),
         np.array([[d[k]] for k in sorted(d)], dtype=float).reshape(-1, 1))
        for d in data
    ]
    for rows_merge, dict_merge in (
        (priority_merge_rows, priority_merge),
        (average_merge_rows, average_merge),
    ):
        want = dict_merge(per_rank)
        ids, rows = rows_merge(arrays, 1)
        assert ids.tolist() == sorted(want)
        np.testing.assert_allclose(
            rows[:, 0], [want[i][0] for i in ids.tolist()], rtol=1e-12
        )


# ----------------------------------------------------------------- timeline
@given(
    interval=st.floats(30, 900),
    duration=st.floats(0.1, 2000),
)
@settings(max_examples=50, deadline=None)
def test_timeline_staleness_never_negative(interval, duration):
    tl = simulate_periodic_updates(3600, interval, duration, kind="x")
    for t in np.linspace(0, 3600, 37):
        assert tl.staleness_at(float(t)) >= 0
