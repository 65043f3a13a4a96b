"""Tests for the inference-log ring buffer."""

import numpy as np
import pytest

from repro.data.stream import InferenceLogBuffer
from repro.data.synthetic import Batch


def _batch(ts, n=4, num_dense=2, num_fields=2, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(
        timestamp=ts,
        dense=rng.normal(size=(n, num_dense)),
        sparse_ids=rng.integers(0, 10, size=(n, num_fields)),
        labels=rng.integers(0, 2, size=n).astype(float),
    )


class TestRetention:
    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceLogBuffer(retention_s=0)

    def test_appends_accumulate(self):
        buf = InferenceLogBuffer(retention_s=100)
        buf.append(_batch(0.0))
        buf.append(_batch(10.0))
        assert len(buf) == 8

    def test_old_batches_evicted(self):
        buf = InferenceLogBuffer(retention_s=100)
        buf.append(_batch(0.0))
        buf.append(_batch(50.0))
        buf.append(_batch(150.0))
        assert len(buf) == 8  # t=0 evicted (150 - 0 > 100)
        assert buf.total_evicted == 4


class TestSampling:
    def test_empty_buffer_returns_none(self):
        buf = InferenceLogBuffer(retention_s=10)
        assert buf.sample_minibatch(4, np.random.default_rng(0)) is None

    def test_minibatch_shapes(self):
        buf = InferenceLogBuffer(retention_s=100)
        buf.append(_batch(0.0, n=16))
        mb = buf.sample_minibatch(8, np.random.default_rng(0))
        assert mb.dense.shape == (8, 2)
        assert mb.sparse_ids.shape == (8, 2)
        assert mb.labels.shape == (8,)

    def test_minibatch_draws_from_window_content(self):
        buf = InferenceLogBuffer(retention_s=100)
        b = _batch(0.0, n=16, seed=3)
        buf.append(b)
        mb = buf.sample_minibatch(50, np.random.default_rng(1))
        # every sampled row must exist in the source batch
        for row in mb.sparse_ids:
            assert any((b.sparse_ids == row).all(axis=1))

    def test_sampling_spans_batches(self):
        buf = InferenceLogBuffer(retention_s=100)
        b1 = _batch(0.0, n=4, seed=1)
        b2 = _batch(1.0, n=4, seed=2)
        b1.labels[:] = 0.0
        b2.labels[:] = 1.0
        buf.append(b1)
        buf.append(b2)
        mb = buf.sample_minibatch(200, np.random.default_rng(0))
        assert 0.0 < mb.labels.mean() < 1.0


class TestRingAgainstListOracle:
    """The wrap-around ring vs ``tests/reference``'s list of batches."""

    @staticmethod
    def _check(buf, oracle, rng_seed):
        assert len(buf) == len(oracle)
        assert buf.total_evicted == oracle.total_evicted
        if not len(oracle):
            return
        window = [buf._unwrap(lane) for lane in (buf._dense, buf._sparse, buf._labels)]
        for got, want in zip(window, oracle.window()):
            np.testing.assert_array_equal(got, want)
        # the same draws pick the same rows wherever the ring has put them
        mb = buf.sample_minibatch(64, np.random.default_rng(rng_seed))
        want = oracle.sample(64, np.random.default_rng(rng_seed))
        for got, ref in zip((mb.dense, mb.sparse_ids, mb.labels), want):
            np.testing.assert_array_equal(got, ref)

    def test_wraps_evicts_and_grows_like_the_list(self):
        from reference.stream import ListLogBuffer

        rng = np.random.default_rng(11)
        buf = InferenceLogBuffer(retention_s=40.0)
        oracle = ListLogBuffer(40.0)
        capacities = set()
        wrapped = False
        for step in range(300):
            # mostly small batches (the ring wraps many times inside one
            # capacity), now and then one that forces a reallocation
            n = int(rng.integers(1, 60)) if (step + 1) % 37 else int(rng.integers(900, 1500))
            batch = _batch(float(step), n=n, seed=step)
            buf.append(batch)
            oracle.append(batch)
            capacities.add(buf._capacity())
            wrapped |= buf._start + len(buf) > buf._capacity()
            self._check(buf, oracle, step)
        assert wrapped, "the sequence never wrapped the ring"
        assert len(capacities) > 1, "the sequence never grew the ring"

    def test_does_not_reallocate_while_the_window_fits(self):
        buf = InferenceLogBuffer(retention_s=10.0)
        for step in range(200):  # steady state: 11 batches of 100 live
            buf.append(_batch(float(step), n=100, seed=step))
            if step == 20:
                storage = (buf._dense, buf._sparse, buf._labels)
        assert len(buf) == 1100
        assert all(
            now is then
            for now, then in zip((buf._dense, buf._sparse, buf._labels), storage)
        )

    def test_a_dense_shape_change_starts_the_window_over(self):
        from reference.stream import ListLogBuffer

        buf = InferenceLogBuffer(retention_s=100.0)
        oracle = ListLogBuffer(100.0)
        for step in range(6):
            batch = _batch(float(step), n=30, seed=step)
            buf.append(batch)
            oracle.append(batch)
        for step in range(6, 12):  # a different feature layout arrives
            batch = _batch(float(step), n=20, num_dense=5, seed=step)
            buf.append(batch)
            oracle.append(batch)
            self._check(buf, oracle, step)
        assert buf.total_evicted == 180
