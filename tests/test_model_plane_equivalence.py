"""The slab forward/backward, the fused dense stack, the frozen-base lane
and the single-resolution LoRA step against the implementations they
replaced (``tests/reference``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dense as ref_dense
from reference import lora as ref_lora
from reference import model as ref_model
from reference.interaction import StackedDotInteraction
from reference.optim import apply_grads
from reference.pruning import CounterUsageTracker
from repro.core.hot_index import HotIndexFilter
from repro.core.lora import LoRAAdapter, LoRACollection
from repro.core.pruning import UsageTracker
from repro.dlrm.interaction import DotInteraction
from repro.dlrm.mlp import MLP
from repro.dlrm.model import DLRM, DLRMConfig, sigmoid

TABLE_SIZES = (300, 200, 120, 50)
# Batch sizes around the trainer's 256 and a serving burst, in an order
# that shrinks and regrows the reused scratch.
BATCHES = (256, 1, 6000, 255, 256, 1, 255)
RTOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def frequency(tracker, idx):
    """Updates of ``idx`` inside the tracker's window."""
    counts = tracker._counts
    return int(counts[idx]) if 0 <= idx < counts.size else 0


def _model(dtype=None) -> DLRM:
    """The default (float32) model, or one of row dtype ``dtype``."""
    lane = {} if dtype is None else {"dtype": dtype}
    config = DLRMConfig(
        num_dense=4,
        embedding_dim=16,
        table_sizes=TABLE_SIZES,
        bottom_mlp=(32,),
        top_mlp=(64, 32),
        seed=3,
        **lane,
    )
    return DLRM(config)


def _batch(rng, batch):
    dense = rng.normal(size=(batch, 4))
    ids = np.stack([rng.integers(0, n, size=batch) for n in TABLE_SIZES], axis=1)
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    return dense, ids, labels


def _trained_collection(rng) -> tuple[LoRACollection, HotIndexFilter]:
    """Float64 adapters with about half of each table active, a third of
    it hot (the copying-overlay reference computes in float64)."""
    coll = LoRACollection(
        [16] * len(TABLE_SIZES),
        rank=4,
        capacities=[n // 2 for n in TABLE_SIZES],
        seed=1,
        universes=list(TABLE_SIZES),
        dtype=np.float64,
    )
    hot = HotIndexFilter(list(TABLE_SIZES))
    for f, n in enumerate(TABLE_SIZES):
        active = rng.choice(n, size=n // 2, replace=False)
        slots = coll[f].activate_batch(active)
        coll[f].a[slots] = rng.normal(scale=0.1, size=(active.size, 4))
        hot.mark(f, rng.choice(n, size=n // 3, replace=False))
    return coll, hot


# ------------------------------------------------------------ interaction
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("features", [5, 12])  # direct kernel, gram kernel
def test_slab_interaction_matches_stacked_oracle(features, dtype):
    rng = np.random.default_rng(0)
    slab_layer = DotInteraction(features, 16, dtype=dtype)
    oracle = StackedDotInteraction(features, 16, dtype=dtype)
    rtol = RTOL[np.dtype(dtype)]
    for batch in BATCHES:
        feats = [rng.normal(size=(batch, 16)).astype(dtype) for _ in range(features)]
        grad_out = rng.normal(size=(batch, oracle.output_dim)).astype(dtype)
        want_out, stacked = oracle.forward(feats[0], feats[1:])
        want_dense, want_embs = oracle.backward(stacked, grad_out)
        slab = slab_layer.slab(batch)
        for f, rows in enumerate(feats):
            slab[f] = rows
        out = slab_layer.forward(slab)
        grad = slab_layer.backward(slab, grad_out)
        assert out.dtype == grad.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out, want_out, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(grad[0], want_dense, rtol=rtol, atol=rtol)
        for f, want in enumerate(want_embs):
            np.testing.assert_allclose(grad[1 + f], want, rtol=rtol, atol=rtol)


# ------------------------------------------------------------ dense stack
@pytest.mark.parametrize("fields", [6, 12])  # direct kernel, gram kernel
def test_fused_dense_step_matches_the_seed_list_and_pair_loops(fields):
    """Fused MLPs + slab interaction + SGD against the seed's per-layer
    lists and per-pair loop: probabilities, every gradient and the
    post-step parameters."""
    batch, num_dense, dim, hidden, lr = 8, 5, 4, 4, 0.05
    rng = np.random.default_rng(fields)
    # The seed loops compute in float64: build the fused stack on that lane.
    f64 = np.float64
    bottom = MLP([num_dense, hidden, dim], rng=rng, final_relu=True, dtype=f64)
    interaction = DotInteraction(1 + fields, dim, dtype=f64)
    top = MLP([interaction.output_dim, hidden, 1], rng=rng, dtype=f64)
    seed_bottom = ([w.copy() for w in bottom.weights], [b.copy() for b in bottom.biases])
    seed_top = ([w.copy() for w in top.weights], [b.copy() for b in top.biases])
    dense = rng.normal(size=(batch, num_dense))
    embeddings = [rng.normal(size=(batch, dim)) for _ in range(fields)]
    labels = rng.integers(0, 2, size=batch).astype(np.float64)

    want_probs, want_bottom, want_top = ref_dense.step(
        seed_bottom, seed_top, dense, embeddings, labels, lr
    )
    h_bottom, cache_b = bottom.forward(dense)
    slab = interaction.slab(batch)
    slab[0] = h_bottom
    for f, rows in enumerate(embeddings):
        slab[1 + f] = rows
    logits, cache_t = top.forward(interaction.forward(slab))
    probs = sigmoid(logits[:, 0])
    grad_inter, top_grads = top.backward(cache_t, ((probs - labels) / batch)[:, None])
    _, bottom_grads = bottom.backward(cache_b, interaction.backward(slab, grad_inter)[0])
    apply_grads(bottom, bottom_grads, lr)
    apply_grads(top, top_grads, lr)

    tol = dict(rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(probs, want_probs, **tol)
    for grads, (want_w, want_b) in ((bottom_grads, want_bottom), (top_grads, want_top)):
        for got, want in zip(grads.weights + grads.biases, want_w + want_b):
            np.testing.assert_allclose(got, want, **tol)
    for mlp, (want_w, want_b) in ((bottom, seed_bottom), (top, seed_top)):
        for got, want in zip(mlp.weights + mlp.biases, want_w + want_b):
            np.testing.assert_allclose(got, want, **tol)


# ------------------------------------------------------------------ model
@pytest.mark.parametrize("dtype", [None, np.float64])
def test_forward_backward_match_stacked_oracle(dtype):
    rng = np.random.default_rng(1)
    model = _model(dtype)
    rtol = RTOL[np.dtype(model.config.dtype)]
    for batch in BATCHES:
        dense, ids, labels = _batch(rng, batch)
        want = ref_model.forward(model, dense, ids)
        want_embs, want_bottom, want_top = ref_model.backward(model, want, labels)
        cache = model.forward(dense, ids)
        np.testing.assert_allclose(cache.probs, want.probs, rtol=rtol, atol=rtol)
        result = model.backward(cache, labels)
        for got, ref in zip(result.embedding_grads, want_embs):
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_allclose(got.rows, ref.rows, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(
            result.top_grads.flat, want_top.flat, rtol=rtol, atol=rtol
        )
        np.testing.assert_allclose(
            result.bottom_grads.flat, want_bottom.flat, rtol=rtol, atol=rtol
        )


def test_frozen_base_backward_is_bit_identical_on_embeddings():
    rng = np.random.default_rng(2)
    model = _model()
    for batch in (256, 31, 1024):
        dense, ids, labels = _batch(rng, batch)
        full = model.backward(model.forward(dense, ids), labels)
        frozen = model.backward(model.forward(dense, ids), labels, dense_grads=False)
        assert frozen.top_grads is None and frozen.bottom_grads is None
        assert frozen.loss == full.loss
        for got, ref in zip(frozen.embedding_grads, full.embedding_grads):
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.rows, ref.rows)


def test_backward_refuses_a_cache_whose_slab_was_reused():
    rng = np.random.default_rng(3)
    model = _model()
    dense, ids, labels = _batch(rng, 8)
    stale = model.forward(dense, ids)
    model.predict(*_batch(rng, 8)[:2])
    with pytest.raises(RuntimeError, match="stale ForwardCache"):
        model.backward(stale, labels)


def test_forward_rejects_a_wrong_number_of_id_columns():
    model = _model()
    with pytest.raises(ValueError, match="sparse ids"):
        model.forward(np.zeros((2, 4)), np.zeros((2, 3), dtype=np.int64))


# ---------------------------------------------------------------- overlay
@pytest.mark.parametrize("filtered", [False, True])
def test_in_place_overlay_matches_the_copying_overlay(filtered):
    rng = np.random.default_rng(4)
    model = _model(np.float64)
    coll, hot = _trained_collection(rng)
    hot_filter = hot if filtered else None
    for batch in BATCHES:
        dense, ids, _ = _batch(rng, batch)
        want = ref_model.forward(
            model, dense, ids, overlay=ref_lora.copying_overlay(coll, hot_filter)
        )
        tables_before = [t.weight.copy() for t in model.embeddings]
        got = model.predict(dense, ids, overlay=coll.overlay(hot_filter))
        np.testing.assert_allclose(got, want.probs, rtol=1e-12, atol=1e-12)
        for table, before in zip(model.embeddings, tables_before):
            np.testing.assert_array_equal(table.weight, before)  # base untouched


def test_overlay_rows_are_bitwise_those_of_the_copying_overlay():
    rng = np.random.default_rng(5)
    coll, hot = _trained_collection(rng)
    for f, n in enumerate(TABLE_SIZES):
        ids = rng.integers(0, n, size=500)
        base = rng.normal(size=(500, 16))
        want = ref_lora.copying_overlay(coll, hot)(f, ids, base.copy())
        rows = base.copy()
        got = coll.overlay(hot)(f, ids, rows)
        assert got is rows  # adjusted in place
        np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------- LoRA step
def _adapter_pair(rng, universe):
    adapters = []
    for _ in range(2):
        ad = LoRAAdapter(
            16, 4, 64, rng=np.random.default_rng(9), universe=universe,
            dtype=np.float64,
        )
        pre = np.arange(10, dtype=np.int64)
        ad.activate_batch(pre)
        adapters.append(ad)
    values = rng.normal(size=(10, 4))
    for ad in adapters:
        ad.a[:10] = values
    return adapters


@pytest.mark.parametrize("universe", [None, 400])
def test_sorted_unique_step_is_bit_identical_to_occurrence_rounds(universe):
    rng = np.random.default_rng(6)
    new, old = _adapter_pair(rng, universe)
    for _ in range(5):
        ids = np.unique(rng.integers(0, 100, size=80))  # more ids than slots
        grads = rng.normal(size=(ids.size, 16))
        assert new.accumulate_grad(ids, grads, 0.05) == ref_lora.accumulate_grad_rounds(
            old, ids, grads, 0.05
        )
        np.testing.assert_array_equal(new.a, old.a)
        np.testing.assert_array_equal(new.b, old.b)
        np.testing.assert_array_equal(new.active_ids, old.active_ids)


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(0, 30), min_size=1, max_size=60),
    seed=st.integers(0, 2**16),
    lr=st.sampled_from([0.01, 0.2]),
)
def test_repeated_ids_keep_row_by_row_sgd_semantics(ids, seed, lr):
    """Repeats are summed first; the cross term restores what applying the
    rows one at a time does to ``B`` (``tests/reference`` keeps that loop)."""
    rng = np.random.default_rng(seed)
    new, old = _adapter_pair(rng, 400)
    ids = np.array(ids, dtype=np.int64)
    grads = rng.normal(size=(ids.size, 16))
    seq_a, seq_b, seq_n = ref_lora.accumulate_grad_sequential(old, ids, grads, lr)
    assert new.accumulate_grad(ids, grads, lr) == seq_n
    np.testing.assert_allclose(new.a, seq_a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(new.b, seq_b, rtol=0, atol=1e-10)
    # and the retired vectorised form agrees with both
    ref_lora.accumulate_grad_rounds(old, ids, grads, lr)
    np.testing.assert_allclose(new.a, old.a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(new.b, old.b, rtol=0, atol=1e-10)


# ---------------------------------------------------------- usage tracker
@settings(max_examples=80, deadline=None)
@given(
    window=st.integers(1, 5),
    iterations=st.lists(
        st.lists(st.integers(0, 40), min_size=0, max_size=12), min_size=1, max_size=20
    ),
    tau=st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
)
def test_dense_count_tracker_matches_the_counter_tracker(window, iterations, tau):
    # c_max below the largest id: the count lane has to grow as well
    dense = UsageTracker(window_iters=window, tau_prune=tau, c_min=1, c_max=8)
    counter = CounterUsageTracker(window)
    for ids in iterations:  # more iterations than the window: entries expire
        dense.record_update(np.array(ids, dtype=np.int64))
        counter.record_update(ids)
        assert dense.num_tracked == counter.num_tracked
        for idx in range(42):
            assert frequency(dense, idx) == counter.frequency(idx)
        np.testing.assert_array_equal(dense.active_set(), counter.active_set(tau))
    if counter.num_tracked:
        want = counter.window_counts()
        k = max(1, int(round(0.34 * want.size)))
        assert dense.refresh_tau_from_window(0.34) == max(want[::-1][k - 1], 1.0)


def test_usage_tracker_rejects_negative_ids():
    tracker = UsageTracker(4, 1.0, 1, 10)
    with pytest.raises(ValueError, match="non-negative"):
        tracker.record_update(np.array([-1, 3]))
    assert tracker.num_tracked == 0
