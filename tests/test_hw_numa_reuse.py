"""Tests for Algorithm 2 (adaptive NUMA partitioning) and embedding reuse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.reuse import PrevLinkShadowReuse, ShadowEmbeddingBuffer
from repro.hardware.numa import AdaptiveNumaPartitioner
from repro.hardware.reuse import BatchedShadowReuse
from repro.hardware.topology import EPYC_9684X_DUAL


@pytest.fixture
def part():
    return AdaptiveNumaPartitioner(
        EPYC_9684X_DUAL,
        t_high_ms=10.0,
        t_low_ms=6.0,
        min_inference_ccds=4,
        max_training_ccds=4,
        initial_training_ccds=2,
    )


class TestPartitioner:
    def test_threshold_order_validated(self):
        with pytest.raises(ValueError):
            AdaptiveNumaPartitioner(EPYC_9684X_DUAL, t_high_ms=5, t_low_ms=6)

    def test_initial_split(self, part):
        assert part.state.num_training == 2
        assert part.state.num_inference == 14

    def test_high_latency_moves_ccd_to_inference(self, part):
        event = part.observe(12.0)
        assert event.action == "to_inference"
        assert part.state.num_training == 1

    def test_low_latency_reclaims_for_training(self, part):
        event = part.observe(4.0)
        assert event.action == "to_training"
        assert part.state.num_training == 3

    def test_mid_latency_holds(self, part):
        event = part.observe(8.0)
        assert event.action == "hold"

    def test_training_cap_respected(self, part):
        for _ in range(10):
            part.observe(4.0)
        assert part.state.num_training == 4  # max_training_ccds

    def test_inference_floor_respected(self):
        part = AdaptiveNumaPartitioner(
            EPYC_9684X_DUAL,
            min_inference_ccds=14,
            max_training_ccds=8,
            initial_training_ccds=2,
        )
        for _ in range(10):
            part.observe(4.0)
        assert part.state.num_inference >= 14

    def test_training_exhaustion_stops_moves(self, part):
        for _ in range(5):
            part.observe(15.0)
        assert part.state.num_training == 0
        event = part.observe(15.0)
        assert event.action == "hold"

    def test_closed_loop_converges_to_sla(self, part):
        """A latency curve decreasing in inference CCDs settles in band."""

        def measure(state):
            return 20.0 - state.num_inference  # 6..20 ms range

        part.run(measure, cycles=12)
        final_p99 = 20.0 - part.state.num_inference
        assert final_p99 < part.t_high_ms

    def test_history_recorded(self, part):
        part.observe(12.0)
        part.observe(4.0)
        assert len(part.history) == 2
        assert part.history[0].cycle == 1


class TestShadowBuffer:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowEmbeddingBuffer(0)

    def test_publish_lookup(self):
        buf = ShadowEmbeddingBuffer(10)
        buf.publish(0, np.array([1, 2]), np.arange(8).reshape(2, 4))
        row = buf.lookup(0, 1)
        np.testing.assert_array_equal(row, [0, 1, 2, 3])
        assert buf.lookup(0, 99) is None
        assert buf.stats.reused == 1 and buf.stats.fetched == 1

    def test_capacity_eviction_lru(self):
        buf = ShadowEmbeddingBuffer(2)
        rows = np.zeros((1, 4))
        buf.publish(0, np.array([1]), rows)
        buf.publish(0, np.array([2]), rows)
        buf.publish(0, np.array([3]), rows)  # evicts id 1
        assert buf.lookup(0, 1) is None
        assert buf.lookup(0, 3) is not None

    def test_fields_are_namespaced(self):
        buf = ShadowEmbeddingBuffer(10)
        buf.publish(0, np.array([1]), np.ones((1, 4)))
        assert buf.lookup(1, 1) is None

    def test_gather_mixes_reuse_and_fallback(self):
        buf = ShadowEmbeddingBuffer(10)
        buf.publish(0, np.array([1]), np.full((1, 4), 9.0))
        fallback = np.zeros((2, 4))
        rows, reused = buf.gather(0, np.array([1, 2]), fallback)
        assert reused == 1
        np.testing.assert_array_equal(rows[0], np.full(4, 9.0))
        np.testing.assert_array_equal(rows[1], np.zeros(4))

    def test_gather_does_not_mutate_fallback(self):
        buf = ShadowEmbeddingBuffer(10)
        buf.publish(0, np.array([0]), np.ones((1, 2)))
        fallback = np.zeros((1, 2))
        buf.gather(0, np.array([0]), fallback)
        np.testing.assert_array_equal(fallback, np.zeros((1, 2)))

    def test_reuse_ratio(self):
        buf = ShadowEmbeddingBuffer(10)
        buf.publish(0, np.array([1]), np.ones((1, 2)))
        buf.lookup(0, 1)
        buf.lookup(0, 2)
        assert buf.stats.reuse_ratio == pytest.approx(0.5)


@st.composite
def _reuse_traces(draw):
    """A publish stream, a capacity, and a non-decreasing prefix schedule
    (repeats and prefixes past the stream included) with query keys that
    stray below zero and past the universe."""
    universe = draw(st.integers(1, 60))
    published = draw(st.lists(st.integers(0, universe - 1), max_size=400))
    capacity = draw(st.integers(1, 50))
    steps = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12))
    prefixes = np.cumsum(steps).tolist()
    queries = [
        draw(st.lists(st.integers(-3, universe + 3), max_size=30))
        for _ in prefixes
    ]
    return published, capacity, list(zip(prefixes, queries))


class TestBatchedShadowReuse:
    """The incremental frontier against the sequential buffer it models
    and the prev-link/histogram version it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_reuse_traces())
    def test_matches_sequential_buffer(self, trace):
        published, capacity, schedule = trace
        stream = np.array(published, dtype=np.int64)
        batched = BatchedShadowReuse(stream, capacity)
        prev_link = PrevLinkShadowReuse(stream, capacity)
        buf = ShadowEmbeddingBuffer(capacity)
        row = np.zeros((1, 1))
        cursor = 0
        for prefix, query in schedule:
            for key in published[cursor:prefix]:
                buf.publish(0, np.array([key]), row)
            cursor = max(cursor, min(prefix, len(published)))
            keys = np.array(query, dtype=np.int64)
            expected = np.array(
                [buf.lookup(0, k) is not None for k in query], dtype=bool
            )
            got = batched.absorbed(prefix, keys)
            assert got.dtype == bool and got.shape == keys.shape
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(prev_link.absorbed(prefix, keys), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedShadowReuse(np.array([1, 2]), 0)
        with pytest.raises(ValueError):
            BatchedShadowReuse(np.array([1, 2]), -1)
        with pytest.raises(ValueError):
            BatchedShadowReuse(np.array([1, -2]), 4)

    def test_decreasing_prefix_raises(self):
        reuse = BatchedShadowReuse(np.arange(10), 4)
        reuse.absorbed(6, np.array([5]))
        reuse.absorbed(6, np.array([5]))  # repeating a prefix is fine
        with pytest.raises(ValueError):
            reuse.absorbed(5, np.array([5]))
