"""Dtype-lane policy tests: checked downcasts, lane plumbing, serving parity.

The model plane runs on an explicit lane policy
(:class:`repro.core.dtypes.DTypePolicy`): training computes in float64
(``TRAIN``) and serving in float32 (``SERVE``), with exactly one checked
crossing — the publish-time downcast.  These tests pin the policy
objects, the coercers' failure modes, the int32 slot lanes, the halved
byte accounting on float32-lane shard stores, and — the property that
makes the whole scheme safe — float32 serving predictions staying within
tolerance of the float64 train stack across random shapes and seeds.
"""

import numpy as np
import pytest

from repro.cluster.shardstore import ShardClient, ShardedParameterStore
from repro.core.dtypes import SERVE, TRAIN, as_float32_rows, as_rows
from repro.core.hot_index import HotIndexFilter
from repro.core.kernels import IdSlotTable
from repro.core.lora import LoRACollection
from repro.dlrm.mlp import MLP, clip_by_global_norm
from repro.dlrm.model import DLRM, DLRMConfig
from repro.hardware.vectorcache import BatchLRUCache, IntervalCache
from repro.serving.engine import NodeSimConfig


class TestPolicyObjects:
    def test_train_and_serve_lanes(self):
        assert TRAIN.row_dtype == np.dtype(np.float64)
        assert TRAIN.slot_dtype == np.dtype(np.int64)
        assert SERVE.row_dtype == np.dtype(np.float32)
        assert SERVE.slot_dtype == np.dtype(np.int32)

    def test_row_nbytes_halves_on_serve(self):
        for dim in (1, 16, 128):
            assert TRAIN.row_nbytes(dim) == 8 * dim
            assert SERVE.row_nbytes(dim) == 4 * dim
            assert SERVE.row_nbytes(dim) * 2 == TRAIN.row_nbytes(dim)

    def test_as_rows_lands_on_policy_lane(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        assert as_rows(TRAIN, rows).dtype == np.float64
        assert as_rows(SERVE, rows).dtype == np.float32
        model = DLRMConfig()
        assert model.policy is TRAIN


class TestCheckedDowncast:
    def test_exact_values_pass(self):
        wide = np.array([[1.0, -0.5, 1024.0]])
        narrow = as_float32_rows(wide, name="rows")
        assert narrow.dtype == np.float32
        np.testing.assert_array_equal(narrow.astype(np.float64), wide)

    def test_overflow_to_inf_raises(self):
        wide = np.array([[1e300]])
        with pytest.raises(ValueError, match="rows"):
            as_float32_rows(wide, name="rows")

    def test_subnormal_collapse_raises(self):
        wide = np.array([[1e-300]])
        with pytest.raises(ValueError):
            as_float32_rows(wide, name="rows", rtol=1e-6)

    def test_precision_loss_beyond_rtol_raises(self):
        # 1 + 2^-40 is exactly representable in float64 but rounds to
        # 1.0 in float32 — a 9e-13 relative error, far past rtol=0.
        wide = np.array([[1.0 + 2.0 ** -40]])
        with pytest.raises(ValueError):
            as_float32_rows(wide, name="rows", rtol=0.0)
        out = as_float32_rows(wide, name="rows", rtol=1e-6)
        assert out.dtype == np.float32

    def test_preexisting_nonfinite_passes_through(self):
        wide = np.array([[np.nan, np.inf, -np.inf]])
        narrow = as_float32_rows(wide, name="rows")
        assert np.isnan(narrow[0, 0])
        assert np.isposinf(narrow[0, 1])
        assert np.isneginf(narrow[0, 2])


class TestSlotLanes:
    def test_int32_slot_table_matches_int64(self):
        rng = np.random.default_rng(0)
        wide = IdSlotTable(64, universe=1000)
        narrow = IdSlotTable(64, universe=1000, slot_dtype=np.int32)
        for _ in range(5):
            ids = rng.integers(0, 1000, size=32)
            s_w, e_w = wide.insert(ids)
            s_n, e_n = narrow.insert(ids)
            np.testing.assert_array_equal(s_w, s_n)
            np.testing.assert_array_equal(e_w, e_n)
            probe = rng.integers(0, 1000, size=16)
            np.testing.assert_array_equal(
                wide.lookup(probe), narrow.lookup(probe)
            )
        assert narrow.slots.dtype == np.int32
        assert narrow.nbytes < wide.nbytes

    def test_capacity_must_fit_slot_dtype(self):
        with pytest.raises(OverflowError):
            IdSlotTable(1 << 40, slot_dtype=np.int32)

    def test_hot_index_float32_stamps(self):
        wide = HotIndexFilter(2, expiry_s=10.0, num_rows=100)
        narrow = HotIndexFilter(
            2, expiry_s=10.0, num_rows=100, stamp_dtype=np.float32
        )
        ids = np.array([3, 7, 50])
        for f in (wide, narrow):
            f.mark(0, ids, now=1.0)
            f.advance(5.0)
        probe = np.array([3, 7, 50, 51])
        np.testing.assert_array_equal(
            wide.is_hot(0, probe), narrow.is_hot(0, probe)
        )
        assert narrow.nbytes < wide.nbytes


class TestShardStoreLane:
    def _stores(self, dim=4):
        train = ShardedParameterStore(
            num_shards=2, row_bytes=None, row_dim=dim
        )
        serve = ShardedParameterStore(
            num_shards=2, row_bytes=None, row_dim=dim, row_dtype=np.float32
        )
        return train, serve

    def test_row_bytes_follow_the_lane(self):
        train, serve = self._stores(dim=4)
        assert train.row_bytes == 32
        assert serve.row_bytes == 16

    def test_non_float_lane_rejected(self):
        with pytest.raises(TypeError):
            ShardedParameterStore(num_shards=1, row_dtype=np.int32)

    def test_serve_store_downcasts_once_and_serves_float32(self):
        _, serve = self._stores(dim=4)
        ids = np.arange(8, dtype=np.int64)
        rows = np.linspace(0.0, 1.0, 32).reshape(8, 4)
        serve.publish_batch("emb", ids, rows)
        found, out = serve.pull_rows("emb", ids)
        assert found.all()
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out.astype(np.float64), rows, rtol=1e-6, atol=0
        )
        d_ids, d_rows, _version = serve.pull_delta("emb", 0)
        assert d_rows.dtype == np.float32
        assert d_ids.size == 8

    def test_publish_past_tolerance_raises(self):
        _, serve = self._stores(dim=1)
        with pytest.raises(ValueError):
            serve.publish_batch(
                "emb", np.array([0]), np.array([[1e300]])
            )

    def test_byte_accounting_halves_on_serve_lane(self):
        train, serve = self._stores(dim=4)
        ids = np.arange(16, dtype=np.int64)
        rows = np.ones((16, 4))
        train.publish_batch("emb", ids, rows)
        serve.publish_batch("emb", ids, rows)
        assert serve.total_bytes * 2 == train.total_bytes
        assert (
            serve.delta_volume_bytes("emb", 0) * 2
            == train.delta_volume_bytes("emb", 0)
        )

    def test_client_transfer_bytes_halve_on_serve_lane(self):
        train, serve = self._stores(dim=4)
        reports = []
        for store in (train, serve):
            client = ShardClient(store)
            client.stage(
                "emb", np.arange(8, dtype=np.int64), np.ones((8, 4))
            )
            reports.append(client.flush())
        assert reports[0].rows == reports[1].rows == 8
        assert reports[1].bytes * 2 == reports[0].bytes
        assert reports[1].seconds < reports[0].seconds

    def test_staged_rows_cross_onto_store_lane_at_stage_time(self):
        _, serve = self._stores(dim=1)
        client = ShardClient(serve)
        with pytest.raises(ValueError):
            client.stage("emb", np.array([0]), np.array([[1e300]]))


class TestLaneAwareCapacity:
    def test_batch_lru_capacity_rows(self):
        cache = BatchLRUCache(capacity_bytes=1 << 20)
        assert cache.capacity_rows(16, TRAIN) == (1 << 20) // 128
        assert cache.capacity_rows(16, SERVE) == (1 << 20) // 64
        assert (
            cache.capacity_rows(16, SERVE)
            == 2 * cache.capacity_rows(16, TRAIN)
        )

    def test_interval_cache_capacity_rows(self):
        cache = IntervalCache(capacity_bytes=1 << 20, universe=1000)
        assert cache.capacity_rows(32, SERVE) == (1 << 20) // 128

    def test_node_sim_config_for_lane(self):
        cfg = NodeSimConfig.for_lane(16, SERVE, num_rows=1000)
        assert cfg.row_bytes == 64
        assert cfg.num_rows == 1000
        assert NodeSimConfig.for_lane(16, TRAIN).row_bytes == 128
        with pytest.raises(ValueError):
            NodeSimConfig.for_lane(16, SERVE, row_bytes=99)


class TestServingParity:
    """Float32 serving must track the float64 train stack within tolerance."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_serving_copy_probs_within_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        config = DLRMConfig(
            num_dense=int(rng.integers(2, 8)),
            embedding_dim=int(rng.choice([4, 8, 16])),
            table_sizes=tuple(
                int(s) for s in rng.integers(20, 200, size=rng.integers(1, 5))
            ),
            bottom_mlp=(int(rng.integers(4, 32)),),
            top_mlp=(int(rng.integers(4, 32)),),
            seed=seed,
        )
        model = DLRM(config)
        serving = model.serving_copy()
        assert serving.config.policy is SERVE
        assert serving.bottom.weights[0].dtype == np.float32

        batch = int(rng.integers(1, 33))
        dense = rng.normal(size=(batch, config.num_dense))
        sparse = np.stack(
            [
                rng.integers(0, size, size=batch)
                for size in config.table_sizes
            ],
            axis=1,
        )
        wide = model.predict(dense, sparse)
        narrow = serving.predict(dense, sparse)
        assert narrow.dtype == np.float32
        # Probabilities sit in [0, 1]; a handful of float32 roundings
        # through the stack stays well inside 1e-4 absolute.
        np.testing.assert_allclose(
            narrow.astype(np.float64), wide, atol=1e-4
        )

    def test_overlay_keeps_the_serving_lane(self):
        """A float32 model served through its LoRA overlay stays float32 —
        the adapters cross onto the lane through the policy's checked
        downcast instead of upcasting every hot row to float64."""
        rng = np.random.default_rng(7)
        sizes = (120, 80)
        model = DLRM(DLRMConfig(table_sizes=sizes, embedding_dim=8, seed=7))
        lora = LoRACollection(
            [8, 8], rank=4, capacities=[40, 40], seed=7, universes=list(sizes)
        )
        for f, n in enumerate(sizes):
            slots = lora[f].activate_batch(rng.choice(n, size=30, replace=False))
            lora[f].a[slots] = rng.normal(scale=0.2, size=(30, 4))
        serving = model.serving_copy()
        narrow_lora = lora.cast(SERVE)
        for adapter in narrow_lora:
            assert adapter.a.dtype == adapter.b.dtype == np.float32
            assert adapter.policy is SERVE
        np.testing.assert_array_equal(narrow_lora[0].active_ids, lora[0].active_ids)

        dense = rng.normal(size=(64, 4))
        sparse = np.stack([rng.integers(0, n, size=64) for n in sizes], axis=1)
        wide = model.predict(dense, sparse, overlay=lora.overlay())
        narrow = serving.predict(dense, sparse, overlay=narrow_lora.overlay())
        assert narrow.dtype == np.float32
        assert not np.allclose(wide, model.predict(dense, sparse))  # overlay acts
        np.testing.assert_allclose(narrow.astype(np.float64), wide, atol=1e-4)
        # the adapter algebra itself stays on its lane
        ids = np.arange(10, dtype=np.int64)
        assert narrow_lora[0].delta_rows(ids).dtype == np.float32
        rows = np.zeros((10, 8), dtype=np.float32)
        assert narrow_lora[0].apply_to(ids, rows) is rows
        np.testing.assert_allclose(
            rows, lora[0].delta_rows(ids), rtol=10 * SERVE.downcast_rtol, atol=1e-6
        )
        # a float64 adapter's rows entering a float32 model are checked in
        # at the model's boundary, not silently truncated
        mixed = serving.predict(dense, sparse, overlay=lora.overlay())
        assert mixed.dtype == np.float32
        np.testing.assert_allclose(mixed.astype(np.float64), wide, atol=1e-4)

    def test_cast_refuses_a_factor_past_the_lane_tolerance(self):
        lora = LoRACollection([4], rank=2, capacities=[4], seed=0)
        slot = lora[0].activate(1)
        lora[0].a[slot] = 1e-46  # flushes to zero in float32
        with pytest.raises(ValueError, match="float32 downcast"):
            lora.cast(SERVE)

    def test_serving_copy_is_independent(self):
        model = DLRM(DLRMConfig(seed=5))
        serving = model.serving_copy()
        serving.bottom.weights[0][:] = 0.0
        assert not np.allclose(model.bottom.weights[0], 0.0)


class TestGradClipping:
    def test_clip_by_global_norm(self):
        rng = np.random.default_rng(9)
        mlp = MLP([4, 8, 2], rng=rng)
        x = rng.normal(size=(16, 4))
        _, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, rng.normal(size=(16, 2)))
        norm = grads.global_norm()
        assert norm > 0

        clipped, pre = clip_by_global_norm(grads, norm / 2)
        assert pre == pytest.approx(norm)
        assert clipped.global_norm() == pytest.approx(norm / 2, rel=1e-12)

        passthrough, pre2 = clip_by_global_norm(grads, norm * 2)
        assert passthrough is grads
        assert pre2 == pytest.approx(norm)
        with pytest.raises(ValueError):
            clip_by_global_norm(grads, 0.0)
