"""Additional property-based tests for the newer subsystems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.tiered_store import TieredEmbeddingStore, TieredStoreConfig
from repro.serving.router import ConsistentHashRouter
from repro.experiments.update_cost import update_ratio


@given(
    keys=st.lists(st.integers(0, 1 << 31), min_size=1, max_size=300),
    nodes=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_router_total_and_sticky(keys, nodes):
    router = ConsistentHashRouter(list(range(nodes)))
    arr = np.array(keys)
    first = router.route(arr)
    assert set(first.tolist()).issubset(set(range(nodes)))
    second = router.route(arr)
    np.testing.assert_array_equal(first, second)  # sticky without capacity


@given(
    ids=st.lists(st.integers(0, 99), min_size=1, max_size=300),
    hbm=st.integers(1, 50),
)
@settings(max_examples=30, deadline=None)
def test_tiered_store_conservation(ids, hbm):
    weight = np.arange(100 * 2, dtype=float).reshape(100, 2)
    store = TieredEmbeddingStore(
        weight, TieredStoreConfig(hbm_capacity_rows=hbm)
    )
    arr = np.array(ids)
    rows, latency = store.lookup(arr)
    # every access is attributed to exactly one tier
    assert store.stats.hbm_hits + store.stats.dram_hits == len(ids)
    assert latency > 0
    np.testing.assert_array_equal(rows, weight[arr])
    assert len(store._hbm) <= hbm


@given(
    w1=st.floats(1.0, 7200.0),
    w2=st.floats(1.0, 7200.0),
)
def test_update_ratio_monotone_bounded(w1, w2):
    lo, hi = sorted((w1, w2))
    assert 0.0 <= update_ratio(lo) <= update_ratio(hi) < 0.35
