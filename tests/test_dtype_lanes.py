"""The one float lane: what is float32, how float64 enters, how close it stays.

The model and parameter planes run one row lane,
:data:`repro.core.dtypes.SERVE` (float32 rows, int32 slots), for training
and serving alike; float64 survives only as the oracle lane in
``tests/reference/lanes.py`` and in clocks.  These tests pin that every
default-built piece is float32, that float64 inputs cross onto the lane
through the checked downcast and nowhere else, the int32 slot lanes, the
halved byte accounting, and — what makes one lane safe — the float32
``predict``, ``train_step`` and LoRA step staying within stated
tolerances of the float64 oracle.
"""

import numpy as np
import pytest

from reference.lanes import TRAIN, float64_twin
from repro.cluster.shardstore import ShardClient, ShardedParameterStore
from repro.core.dtypes import SERVE, as_float32_rows, as_rows
from repro.core.hot_index import HotIndexFilter
from repro.core.kernels import IdSlotTable
from repro.core.lora import LoRACollection
from repro.core.trainer import LoRATrainer, TrainerConfig
from repro.data.stream import InferenceLogBuffer
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.mlp import MLP, clip_by_global_norm
from repro.dlrm.model import DLRM, DLRMConfig
from repro.dlrm.optim import RowwiseAdagrad
from repro.hardware.vectorcache import BatchLRUCache, IntervalCache

F32 = np.dtype(np.float32)
TABLE_SIZES = (300, 200, 120, 50)


def _config(seed: int = 0, **lane) -> DLRMConfig:
    return DLRMConfig(
        num_dense=4,
        embedding_dim=16,
        table_sizes=TABLE_SIZES,
        bottom_mlp=(32,),
        top_mlp=(64, 32),
        seed=seed,
        **lane,
    )


def _stream(seed: int = 0) -> DriftingCTRStream:
    return DriftingCTRStream(
        StreamConfig(table_sizes=TABLE_SIZES, num_dense=4, seed=seed)
    )


class TestPolicyObjects:
    def test_train_and_serve_lanes(self):
        assert SERVE.row_dtype == F32
        assert SERVE.slot_dtype == np.dtype(np.int32)
        # the float64 lane survives as the test oracle only
        assert TRAIN.row_dtype == np.dtype(np.float64)
        assert TRAIN.slot_dtype == np.dtype(np.int64)

    def test_row_nbytes_halves_on_serve(self):
        for dim in (1, 16, 128):
            assert SERVE.row_nbytes(dim) == 4 * dim
            assert SERVE.row_nbytes(dim) * 2 == TRAIN.row_nbytes(dim)

    def test_as_rows_lands_on_policy_lane(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        assert as_rows(SERVE, rows).dtype == F32
        assert as_rows(TRAIN, rows).dtype == np.float64
        assert DLRMConfig().policy is SERVE


class TestOneLane:
    """Everything ``src`` builds by default sits on the float32 lane."""

    def test_default_dlrm_is_float32(self):
        model = DLRM(_config())
        assert all(t.weight.dtype == F32 for t in model.embeddings)
        for mlp in (model.bottom, model.top):
            assert all(w.dtype == F32 for w in mlp.weights + mlp.biases)
        assert model.interaction.dtype == F32
        batch = _stream().next_batch(64)  # float64 features enter checked
        assert batch.dense.dtype == np.float64
        cache = model.forward(batch.dense, batch.sparse_ids)
        assert cache.probs.dtype == cache.logits.dtype == F32

    def test_lora_adapters_are_float32(self):
        trainer = LoRATrainer(
            DLRM(_config()), InferenceLogBuffer(600.0), TrainerConfig()
        )
        default = LoRACollection([16], rank=4, capacities=[8])
        for adapter in [*trainer.lora, *default]:
            assert adapter.policy is SERVE
            assert adapter.a.dtype == adapter.b.dtype == F32

    def test_adagrad_state_after_a_step_is_float32(self):
        model = DLRM(_config())
        optimizer = RowwiseAdagrad(lr=0.05)
        batch = _stream().next_batch(128)
        result = model.train_step(
            batch.dense, batch.sparse_ids, batch.labels, optimizer
        )
        assert all(g.rows.dtype == F32 for g in result.embedding_grads)
        assert result.top_grads.flat.dtype == F32
        for table in model.embeddings:
            assert table.weight.dtype == F32
            assert optimizer._row_state[table].dtype == F32
        for mlp in (model.bottom, model.top):
            assert mlp._params.dtype == F32
            assert optimizer._dense_state[mlp][0].dtype == F32

    def test_store_rows_are_float32(self):
        store = ShardedParameterStore(num_shards=2, row_dim=4)
        assert store.row_dtype == F32
        assert store.row_bytes == 128  # an explicit accounting size
        ids = np.arange(6, dtype=np.int64)
        store.publish_batch("emb", ids, np.ones((6, 4)))  # float64 in
        found, rows = store.pull_rows("emb", ids)
        assert found.all() and rows.dtype == F32
        assert store.pull_delta("emb", 0)[1].dtype == F32

    def test_pull_tables_delta_rows_are_float32(self):
        store = ShardedParameterStore(num_shards=4, replication=3, row_dim=4)
        writer, reader = ShardClient(store), ShardClient(store)
        writer.stage("emb", np.arange(32, dtype=np.int64), np.ones((32, 4)))
        writer.flush()
        deltas, report = reader.pull_tables(["emb", "unseen"])
        assert report.rows == 32
        for ids, rows in deltas.values():
            assert rows.dtype == F32


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
    """The default float32 store against an explicit float64 one."""

    def _stores(self, dim=4):
        wide = ShardedParameterStore(
            num_shards=2, row_bytes=None, row_dim=dim, row_dtype=np.float64
        )
        lane = ShardedParameterStore(num_shards=2, row_bytes=None, row_dim=dim)
        return wide, lane

    def test_row_bytes_follow_the_lane(self):
        wide, lane = self._stores(dim=4)
        assert wide.row_bytes == 32
        assert lane.row_bytes == 16

    def test_non_float_lane_rejected(self):
        with pytest.raises(TypeError):
            ShardedParameterStore(num_shards=1, row_dtype=np.int32)

    def test_serve_store_downcasts_once_and_serves_float32(self):
        _, lane = self._stores(dim=4)
        ids = np.arange(8, dtype=np.int64)
        rows = np.linspace(0.0, 1.0, 32).reshape(8, 4)
        lane.publish_batch("emb", ids, rows)
        found, out = lane.pull_rows("emb", ids)
        assert found.all()
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out.astype(np.float64), rows, rtol=1e-6, atol=0
        )
        d_ids, d_rows, _version = lane.pull_delta("emb", 0)
        assert d_rows.dtype == np.float32
        assert d_ids.size == 8

    def test_publish_past_tolerance_raises(self):
        _, lane = self._stores(dim=1)
        with pytest.raises(ValueError):
            lane.publish_batch("emb", np.array([0]), np.array([[1e300]]))

    def test_byte_accounting_halves_on_serve_lane(self):
        wide, lane = self._stores(dim=4)
        ids = np.arange(16, dtype=np.int64)
        rows = np.ones((16, 4))
        wide.publish_batch("emb", ids, rows)
        lane.publish_batch("emb", ids, rows)
        assert lane.total_bytes * 2 == wide.total_bytes
        assert (
            lane.delta_volume_bytes("emb", 0) * 2
            == wide.delta_volume_bytes("emb", 0)
        )

    def test_client_transfer_bytes_halve_on_serve_lane(self):
        reports = []
        for store in self._stores(dim=4):
            client = ShardClient(store)
            client.stage(
                "emb", np.arange(8, dtype=np.int64), np.ones((8, 4))
            )
            reports.append(client.flush())
        assert reports[0].rows == reports[1].rows == 8
        assert reports[1].bytes * 2 == reports[0].bytes
        assert reports[1].seconds < reports[0].seconds

    def test_staged_rows_cross_onto_store_lane_at_stage_time(self):
        _, lane = self._stores(dim=1)
        client = ShardClient(lane)
        with pytest.raises(ValueError):
            client.stage("emb", np.array([0]), np.array([[1e300]]))


class TestLaneAwareCapacity:
    def test_batch_lru_capacity_rows(self):
        cache = BatchLRUCache(capacity_bytes=1 << 20)
        assert cache.capacity_rows(16, SERVE) == (1 << 20) // 64
        assert (
            cache.capacity_rows(16, SERVE)
            == 2 * cache.capacity_rows(16, TRAIN)
        )

    def test_interval_cache_capacity_rows(self):
        cache = IntervalCache(capacity_bytes=1 << 20, universe=1000)
        assert cache.capacity_rows(32, SERVE) == (1 << 20) // 128


class TestServingParity:
    """The float32 lane against the float64 oracle from the same parameters.

    Tolerances are about 4x the worst gap over seeds 0-9 of this shape
    (4 tables, dim 16, bottom (32,), top (64, 32), batch 512).
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_predict_agrees_with_the_float64_oracle(self, seed):
        model = DLRM(_config(seed))
        oracle = float64_twin(model)
        batch = _stream(seed).next_batch(512)
        got = model.predict(batch.dense, batch.sparse_ids)
        want = oracle.predict(batch.dense, batch.sparse_ids)
        assert got.dtype == F32 and want.dtype == np.float64
        # probabilities; worst gap seen 3.9e-7
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-6)

    def test_overlay_keeps_the_serving_lane(self):
        """A float32 model served through float32 adapters stays float32,
        adjusts rows in place, and tracks the float64 oracle overlay; a
        float64 overlay is checked in at the model's boundary."""
        rng = np.random.default_rng(7)
        sizes = (120, 80)
        config = DLRMConfig(table_sizes=sizes, embedding_dim=8, seed=7)
        model = DLRM(config)
        oracle = float64_twin(model)
        lanes = [
            LoRACollection(
                [8, 8], rank=4, capacities=[40, 40], seed=7,
                universes=list(sizes), policy=policy,
            )
            for policy in (SERVE, TRAIN)
        ]
        for f, n in enumerate(sizes):
            ids = rng.choice(n, size=30, replace=False)
            values = rng.normal(scale=0.2, size=(30, 4))
            for lora in lanes:
                lora[f].a[lora[f].activate_batch(ids)] = values
        lora, lora_oracle = lanes

        dense = rng.normal(size=(64, 4))
        sparse = np.stack([rng.integers(0, n, size=64) for n in sizes], axis=1)
        want = oracle.predict(dense, sparse, overlay=lora_oracle.overlay())
        got = model.predict(dense, sparse, overlay=lora.overlay())
        assert got.dtype == F32
        assert not np.allclose(want, oracle.predict(dense, sparse))  # overlay acts
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        # the adapter algebra itself stays on its lane, in place
        ids = np.arange(10, dtype=np.int64)
        assert lora[0].delta_rows(ids).dtype == F32
        rows = np.zeros((10, 8), dtype=np.float32)
        assert lora[0].apply_to(ids, rows) is rows
        np.testing.assert_allclose(
            rows, lora_oracle[0].delta_rows(ids), rtol=0, atol=1e-6
        )
        # float64 adapter rows entering a float32 model are checked in at
        # the model's boundary, not silently truncated
        mixed = model.predict(dense, sparse, overlay=lora_oracle.overlay())
        assert mixed.dtype == F32
        np.testing.assert_allclose(mixed, want, rtol=0, atol=1e-5)

    def test_a_factor_past_the_lane_tolerance_is_refused(self):
        lora = LoRACollection([4], rank=2, capacities=[4], seed=0)
        with pytest.raises(ValueError, match="float32 downcast"):
            # 1e-46 flushes to zero in float32
            lora[0].scatter_rows(np.array([1]), np.array([[1e-46, 0.5]]))
        assert lora[0].num_active == 0  # refused before any slot is taken


class TestOracleAgreement:
    """One training step on each lane, from the same parameters and batch
    (tolerances as in :class:`TestServingParity`)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_train_step_agrees_with_the_float64_oracle(self, seed):
        model = DLRM(_config(seed))
        oracle = float64_twin(model)
        opt, opt_oracle = RowwiseAdagrad(lr=0.05), RowwiseAdagrad(lr=0.05)
        batch = _stream(seed).next_batch(512)
        args = (batch.dense, batch.sparse_ids, batch.labels)
        got = model.train_step(*args, opt)
        want = oracle.train_step(*args, opt_oracle)
        # loss: worst relative gap seen 1.0e-7
        assert got.loss == pytest.approx(want.loss, rel=5e-7)
        # embedding grads: worst gap seen 5.7e-7 of the largest entry
        for g, w in zip(got.embedding_grads, want.embedding_grads):
            np.testing.assert_array_equal(g.indices, w.indices)
            scale = np.abs(w.rows).max()
            np.testing.assert_allclose(g.rows, w.rows, rtol=0, atol=2e-6 * scale)
        for table, table_oracle in zip(model.embeddings, oracle.embeddings):
            # Adagrad row state, a mean of squared grads: worst relative
            # gap seen 2.2e-5 (small rows lose the most digits)
            np.testing.assert_allclose(
                opt._row_state[table],
                opt_oracle._row_state[table_oracle],
                rtol=1e-4,
                atol=0,
            )
            # updated rows: worst gap seen 1.8e-7
            np.testing.assert_allclose(
                table.weight, table_oracle.weight, rtol=0, atol=1e-6
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lora_train_step_agrees_with_the_float64_oracle(self, seed):
        stream = _stream(seed)
        buffers = [InferenceLogBuffer(600.0), InferenceLogBuffer(600.0)]
        for _ in range(4):
            batch = stream.next_batch(256)
            for buffer in buffers:
                buffer.append(batch)
        base = DLRM(_config(seed))
        config = TrainerConfig(seed=seed)
        trainer = LoRATrainer(base, buffers[0], config)
        oracle = LoRATrainer(float64_twin(base), buffers[1], config)
        assert oracle.lora[0].a.dtype == np.float64
        loss, loss_oracle = trainer.train_step(), oracle.train_step()
        # worst relative loss gap seen 8.1e-8
        assert loss == pytest.approx(loss_oracle, rel=5e-7)
        for adapter, adapter_oracle in zip(trainer.lora, oracle.lora):
            np.testing.assert_array_equal(
                adapter.active_ids, adapter_oracle.active_ids
            )
            # A: worst gap seen 5.5e-7 of the largest entry; B: 5.0e-8
            for got, want, tol in (
                (adapter.a, adapter_oracle.a, 2e-6),
                (adapter.b, adapter_oracle.b, 2e-7),
            ):
                scale = np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=0, atol=tol * scale)


class TestGradClipping:
    @staticmethod
    def _grads(dtype):
        rng = np.random.default_rng(9)
        mlp = MLP([4, 8, 2], rng=rng, dtype=dtype)
        x = rng.normal(size=(16, 4))
        _, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, rng.normal(size=(16, 2)))
        return grads

    def test_clip_by_global_norm(self):
        grads = self._grads(np.float64)
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

    def test_clipping_keeps_the_float32_lane(self):
        grads = self._grads(F32)
        norm = grads.global_norm()
        clipped, _ = clip_by_global_norm(grads, norm / 2)
        assert clipped.flat.dtype == F32
        # float32 rounding of the rescaled grads: rtol 1e-6
        assert clipped.global_norm() == pytest.approx(norm / 2, rel=1e-6)
