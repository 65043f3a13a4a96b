"""Property tests: vectorized kernels vs per-id reference implementations.

The kernel layer (``repro.core.kernels`` and the batched paths built on it)
replaced dict/loop implementations of LoRA delta application, gradient
accumulation, hot-index membership and fleet routing.  These tests keep
small per-id reference implementations of the original semantics and check
the vectorized paths against them over randomized inputs — including
duplicate ids, capacity exhaustion and ring wrap-around.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.kernels import group_rows_sum_counting
from reference.ring import ring_replicas, ring_route
from repro.core.hot_index import HotIndexFilter
from repro.core.kernels import (
    IdSlotTable,
    TouchedRows,
    freshest_per_id,
    gather_in_range,
    group_rows_sum,
    hash_combine,
    is_sorted_unique,
    run_starts,
    sorted_find,
    splitmix64,
    stable_str_hash,
)
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


def ref_is_hot(table, ids):
    """Seed implementation: one dict probe per id."""
    return np.array([int(i) in table for i in ids], dtype=bool)


def ref_freshest(ids, versions):
    """Per-copy reference: walk the copies in arrival order; a copy takes
    its id unless the held one is strictly newer."""
    best: dict[int, tuple[int, int]] = {}
    for pos, (i, v) in enumerate(zip(ids.tolist(), versions.tolist())):
        if i not in best or v >= best[i][0]:
            best[i] = (v, pos)
    return {i: pos for i, (_, pos) in best.items()}


def ref_splitmix64(value, seed):
    """Scalar splitmix64 finaliser on Python ints (mod 2**64)."""
    mask = (1 << 64) - 1
    x = (value + seed * 0x9E3779B97F4A7C15 + 1) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


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

    @pytest.mark.parametrize("universe", [None, 2000])
    def test_free_list_matches_the_stack_across_grow_clear_rebuild(self, universe):
        """Released slots LIFO, then fresh ones ascending: the order of
        the former preallocated free stack, whose ``grow`` slid the new
        slots under it and whose ``clear``/``rebuild_sorted`` refilled it."""
        rng = np.random.default_rng(7)
        table = IdSlotTable(16, universe=universe)
        capacity = 16
        ref_map: dict[int, int] = {}
        ref_free = list(range(capacity - 1, -1, -1))
        for _ in range(120):
            op = rng.choice(["insert", "insert", "remove", "grow", "clear", "rebuild"])
            if op == "insert":
                ids = rng.integers(0, 1000, size=rng.integers(1, 20))
                slots, new_slots = table.insert(ids)
                granted = []
                for j, i in enumerate(ids.tolist()):
                    if i not in ref_map and ref_free:
                        ref_map[i] = ref_free.pop()
                        granted.append(ref_map[i])
                    assert slots[j] == ref_map.get(i, -1)
                np.testing.assert_array_equal(new_slots, granted)
            elif op == "remove":
                ids = np.unique(rng.integers(0, 1000, size=rng.integers(1, 20)))
                ids = np.union1d(ids, rng.choice(list(ref_map) or [0], size=3))
                released = table.remove(ids)
                want = [ref_map.pop(i) for i in ids.tolist() if i in ref_map]
                np.testing.assert_array_equal(released, want)
                ref_free.extend(want)
            elif op == "grow":
                new_capacity = capacity + int(rng.integers(0, 9))
                table.grow(new_capacity)
                ref_free = list(range(new_capacity - 1, capacity - 1, -1)) + ref_free
                capacity = new_capacity
            elif op == "clear":
                table.clear()
                ref_map = {}
                ref_free = list(range(capacity - 1, -1, -1))
            else:
                keys = np.array(sorted(ref_map), dtype=np.int64)
                capacity = max(keys.size, capacity + int(rng.integers(-4, 5)), 1)
                table.rebuild_sorted(keys, capacity)
                ref_map = {k: s for s, k in enumerate(keys.tolist())}
                ref_free = list(range(capacity - 1, keys.size - 1, -1))
            np.testing.assert_array_equal(table.keys, sorted(ref_map))
            np.testing.assert_array_equal(
                table.slots, [ref_map[k] for k in sorted(ref_map)]
            )

    def test_a_table_that_never_released_holds_no_free_array(self):
        table = IdSlotTable(1 << 16)
        table.insert(np.arange(0, 4000, 3, dtype=np.int64))
        table.grow(1 << 20)
        table.insert(np.arange(1, 4000, 3, dtype=np.int64))
        assert table._released.size == 0
        assert table.nbytes == table._keys.nbytes + table._vals.nbytes
        released = table.remove(np.arange(0, 30, dtype=np.int64))
        assert table.nbytes == (
            table._keys.nbytes + table._vals.nbytes + table._released.nbytes
        )
        assert table._released.nbytes <= 8 * 2 * released.size

    @pytest.mark.parametrize("universe", [None, 1000])
    def test_insert_merges_grants_into_the_sorted_keys(self, universe):
        """Byte-identical to the concatenate-and-argsort merge it replaced."""
        rng = np.random.default_rng(11)
        table = IdSlotTable(900, universe=universe)
        keys = np.empty(0, dtype=np.int64)
        vals = np.empty(0, dtype=np.int64)
        for _ in range(30):
            ids = rng.integers(-50, 1000, size=rng.integers(1, 80))
            if rng.random() < 0.3:
                table.remove(rng.choice(keys, size=min(keys.size, 10)) if keys.size else ids)
                keys, vals = table.keys, table.slots
            _, new_slots = table.insert(ids)
            granted = []
            for i in ids.tolist():
                held = universe is None or 0 <= i < universe
                if held and i not in keys and i not in granted:
                    granted.append(i)
            granted = np.array(granted[: new_slots.size], dtype=np.int64)
            merged_keys = np.concatenate([keys, granted])
            srt = np.argsort(merged_keys, kind="stable")
            keys = merged_keys[srt]
            vals = np.concatenate([vals, new_slots])[srt]
            assert table._keys.tobytes() == keys.tobytes()
            assert table._vals.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("universe", [None, 300])
    def test_sorted_insert_matches_the_general_path(self, universe, monkeypatch):
        """Strictly increasing ids take the fast path (no unique pass, the
        grant writes its own slots).  Twin tables see one op sequence —
        sorted and unsorted batches, out-of-universe ids, capacity
        exhaustion, released-slot reuse, growth — one as it is, one with
        the sortedness test forced off; every result and both maps stay
        byte-identical."""
        import repro.core.kernels as kernels

        real = kernels.is_sorted_unique
        rng = np.random.default_rng(21)
        fast, general = IdSlotTable(48, universe=universe), IdSlotTable(48, universe=universe)
        sorted_batches = denied = 0
        for step in range(200):
            ids = rng.integers(-20, 320, size=rng.integers(1, 40))
            if rng.random() < 0.7:
                ids = np.unique(ids)
                sorted_batches += 1
            op = rng.choice(["insert", "insert", "insert", "remove", "grow"])
            outs = []
            for table, sortedness in ((fast, real), (general, lambda ids: False)):
                monkeypatch.setattr(kernels, "is_sorted_unique", sortedness)
                if op == "insert":
                    outs.append(table.insert(ids))
                elif op == "remove":
                    outs.append((table.remove(ids),))
                elif step % 5 == 0:
                    table.grow(table.capacity + 8)
            for got, want in zip(*outs):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if op == "insert":
                denied += int(np.count_nonzero((outs[0][0] < 0) & (ids >= 0)))
            assert fast.keys.tobytes() == general.keys.tobytes()
            assert fast.slots.tobytes() == general.slots.tobytes()
        assert sorted_batches > 100 and denied > 0 and fast.size == general.size > 0

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
            dtype=np.float64,  # the references are float64
        )

    def test_delta_rows_matches_reference(self, universe):
        rng = np.random.default_rng(1)
        adapter = self._adapter(universe)
        active = rng.choice(2000, size=50, replace=False)
        adapter.activate_batch(active)
        adapter.a[:] = rng.normal(size=adapter.a.shape)
        id_to_slot = {
            int(i): int(s)
            for i, s in zip(adapter.active_ids, adapter._slots.slots)
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
            for i, s in zip(adapter.active_ids, adapter._slots.slots)
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


class TestHotIndexEquivalence:
    def test_matches_dict_probes(self):
        rng = np.random.default_rng(5)
        filt = HotIndexFilter([3000])
        table: dict[int, float] = {}
        for _ in range(10):
            marked = rng.integers(0, 3000, size=100)
            filt.mark(0, marked)
            for i in marked:
                table[int(i)] = 0.0
            ids = rng.integers(0, 3000, size=400)
            np.testing.assert_array_equal(filt.is_hot(0, ids), ref_is_hot(table, ids))
        assert int(filt.is_hot(0, np.arange(3000)).sum()) == len(table)

    @pytest.mark.parametrize(
        "num_rows", [[1], [3000, 17], [64, 64, 64]], ids=["one-row", "mixed", "three"]
    )
    def test_fields_match_per_field_sets(self, num_rows):
        """Each field answers from its own universe: ids outside
        ``[0, num_rows)`` are never hot, and ``clear`` empties every
        field at once."""
        rng = np.random.default_rng(9)
        filt = HotIndexFilter(num_rows)
        sets: list[set[int]] = [set() for _ in num_rows]
        for step in range(12):
            if step == 7:
                filt.clear()
                sets = [set() for _ in num_rows]
            for f, n in enumerate(num_rows):
                marked = rng.integers(-3, n + 3, size=40)
                filt.mark(f, marked)
                sets[f].update(int(i) for i in marked if 0 <= i < n)
            for f, n in enumerate(num_rows):
                ids = rng.integers(-5, n + 5, size=200)
                np.testing.assert_array_equal(
                    filt.is_hot(f, ids), ref_is_hot(sets[f], ids)
                )


# ------------------------------------------------------------------ router


_LAYOUTS = {
    "four-nodes": [3, 1, 4, 5],
    "three-nodes": [0, 1, 2],
    "one-node": [7],
    "five-nodes": [10, 20, 30, 40, 50],
}


class TestRouterEquivalence:
    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    def test_route_matches_sequential_reference(self, layout):
        nodes = _LAYOUTS[layout]
        rng = np.random.default_rng(7)
        # the top hash values land past the last ring point and wrap
        keys = rng.integers(0, 1 << 62, size=2000)
        router = ConsistentHashRouter(nodes)
        np.testing.assert_array_equal(router.route(keys), ring_route(router, keys))
        assert router.stats.routed == keys.size

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_replica_assign_matches_sequential_walk(self, r):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 1 << 62, size=500)
        router = ConsistentHashRouter([3, 1, 4, 5])
        got = router.replica_assign(keys, r)
        np.testing.assert_array_equal(got, ring_replicas(router, keys, r))
        np.testing.assert_array_equal(got[:, 0], router.route(keys))


# ------------------------------------------------------------ row kernels


class TestGroupRowsSumCountingLane:
    @given(
        ids=st.lists(st.integers(0, 199), min_size=4, max_size=120),
        dim=st.integers(1, 6),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_the_universe_pass_lane(self, ids, dim, dtype, seed):
        """The ``np.unique`` slots feed the same float64 bincount in the
        same order as the three passes over the universe did."""
        ids = np.array(ids, dtype=np.int64)
        rows = np.random.default_rng(seed).normal(size=(ids.size, dim))
        rows = rows.astype(dtype)
        num_rows = 200  # <= 64 * 4: always the counting lane
        uniq, summed = group_rows_sum(ids, rows, num_rows=num_rows)
        want_uniq, want_summed = group_rows_sum_counting(ids, rows, num_rows)
        assert summed.dtype == want_summed.dtype == dtype
        assert uniq.tobytes() == want_uniq.tobytes()
        assert summed.shape == want_summed.shape
        assert summed.tobytes() == want_summed.tobytes()


def _fold_padded(parts):
    """One ``freshest_per_id`` over ``(ids, rows, versions)`` parts in
    arrival order, each zero-padded on the right to the widest width (a
    re-widened ``lora_a/*`` table)."""
    width = max(part[1].shape[1] for part in parts)
    return freshest_per_id(
        np.concatenate([part[0] for part in parts]),
        np.concatenate(
            [np.pad(part[1], ((0, 0), (0, width - part[1].shape[1]))) for part in parts]
        ),
        np.concatenate([part[2] for part in parts]),
    )


def _lexsort_merge(held, ids, rows, versions):
    """The whole-history merge: concatenate everything held with the delta
    (both zero-padded to the wider width), lexsort, keep the last copy per
    id."""
    if held is not None:
        width = max(held[1].shape[1], rows.shape[1])
        rows = np.concatenate(
            [np.pad(r, ((0, 0), (0, width - r.shape[1]))) for r in (held[1], rows)]
        )
        ids = np.concatenate((held[0], ids))
        versions = np.concatenate((held[2], versions))
    order = np.lexsort((versions, ids))
    ids = ids[order]
    last = np.r_[ids[1:] != ids[:-1], True][: ids.size]
    return ids[last], rows[order][last], versions[order][last]


_DELTA = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 6)), min_size=0, max_size=25
)


class TestFreshestPerId:
    def test_later_copy_wins_a_version_tie(self):
        ids = np.array([5, 3, 5, 3, 5], dtype=np.int64)
        rows = np.arange(5, dtype=np.float64).reshape(5, 1)
        versions = np.array([2, 1, 2, 1, 1], dtype=np.int64)
        got_ids, got_rows, got_versions = freshest_per_id(ids, rows, versions)
        assert got_ids.tolist() == [3, 5]
        # id 3: copies 1 and 3 tie at v1, the later (3) wins; id 5: copies
        # 0 and 2 tie at v2, the later (2) wins, the older copy 4 loses
        assert got_rows[:, 0].tolist() == [3.0, 2.0]
        assert got_versions.tolist() == [1, 2]

    def test_empty(self):
        ids, rows, versions = freshest_per_id(
            np.empty(0, dtype=np.int64),
            np.zeros((0, 3), dtype=np.float32),
            np.empty(0, dtype=np.int64),
        )
        assert ids.size == 0 and rows.shape == (0, 3) and versions.size == 0

    def test_newer_delta_overrides_held_rows(self):
        """Held rows at v1 folded with a v2 delta: shared ids take the
        delta's rows, the rest keep theirs, and a new id joins in order."""
        ids = np.array([1, 2, 3, 2, 4], dtype=np.int64)
        rows = np.array([[1.0], [1.0], [1.0], [5.0], [5.0]])
        versions = np.array([1, 1, 1, 2, 2], dtype=np.int64)
        got_ids, got_rows, got_versions = freshest_per_id(ids, rows, versions)
        assert got_ids.tolist() == [1, 2, 3, 4]
        assert got_rows[:, 0].tolist() == [1.0, 5.0, 1.0, 5.0]
        assert got_versions.tolist() == [1, 2, 1, 2]

    def test_folding_a_fold_changes_nothing(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 10, size=40)
        rows = rng.normal(size=(40, 3)).astype(np.float32)
        versions = rng.integers(0, 4, size=40)
        once = freshest_per_id(ids, rows, versions)
        twice = freshest_per_id(*once)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a, b)
        assert twice[1].dtype == np.float32  # the lane is kept

    def test_outputs_are_fresh_arrays(self):
        """Already-unique sorted input still comes back as copies: a caller
        that writes into the winners cannot reach the replica parts."""
        ids = np.arange(4, dtype=np.int64)
        rows = np.ones((4, 2))
        versions = np.ones(4, dtype=np.int64)
        got = freshest_per_id(ids, rows, versions)
        for out, src in zip(got, (ids, rows, versions)):
            assert not np.shares_memory(out, src)
            out[...] = -1
        assert ids.tolist() == [0, 1, 2, 3]
        assert (rows == 1.0).all() and (versions == 1).all()

    @given(
        copies=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 4)), max_size=60
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_copy_reference(self, copies):
        ids = np.array([i for i, _ in copies], dtype=np.int64)
        versions = np.array([v for _, v in copies], dtype=np.int64)
        rows = np.arange(ids.size, dtype=np.float64).reshape(-1, 1)
        got_ids, got_rows, got_versions = freshest_per_id(ids, rows, versions)
        want = ref_freshest(ids, versions)
        winners = [want[i] for i in sorted(want)]
        assert got_ids.tolist() == sorted(want)
        assert got_rows[:, 0].tolist() == [float(pos) for pos in winners]
        assert got_versions.tolist() == versions[winners].tolist()

    @given(
        deltas=st.lists(_DELTA, min_size=1, max_size=8),
        shape=st.sampled_from(["as_drawn", "sorted", "replayed"]),
        widths=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        fold_every_delta=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_folded_deltas_agree_with_lexsort(
        self, deltas, shape, widths, fold_every_delta
    ):
        """Sorted, unsorted, duplicated, replayed and re-widened deltas,
        folded after every delta or all at once at the end (one call over
        many parts), give what a whole-history lexsort merge gives,
        version ties included: the rule ``_reconcile_parts`` runs on
        replica copies."""
        rng = np.random.default_rng(len(deltas))
        held = folded = None
        pending = []
        if shape == "replayed":
            deltas = [d for d in deltas for _ in range(2)]
        for step, delta in enumerate(deltas):
            if shape == "sorted":
                delta = sorted({rid: (rid, v) for rid, v in delta}.values())
            ids = np.array([rid for rid, _ in delta], dtype=np.int64)
            versions = np.array([v for _, v in delta], dtype=np.int64)
            if shape == "replayed" and step % 2:
                rows = last_rows  # the same delta again: must change nothing
            else:
                width = widths[step % len(widths)]
                rows = last_rows = rng.normal(size=(ids.size, width))
            held = _lexsort_merge(held, ids, rows, versions)
            pending.append((ids, rows, versions))
            if fold_every_delta or step == len(deltas) - 1:
                folded = _fold_padded(pending if folded is None else [folded, *pending])
                pending = []
                for got, want in zip(folded, held):
                    np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------ search kernels


class TestSortedFind:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_probe(self, seed):
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(-50, 300, size=int(rng.integers(1, 80))))
        queries = rng.integers(-60, 320, size=(4, 25))
        found, pos = sorted_find(keys, queries)
        index = {int(k): p for p, k in enumerate(keys)}
        assert found.shape == pos.shape == queries.shape
        for q, f, p in zip(queries.ravel(), found.ravel(), pos.ravel()):
            assert f == (int(q) in index)
            if f:
                assert p == index[int(q)]
            else:
                assert 0 <= p < keys.size  # a safe gather index

    @pytest.mark.parametrize(
        "keys, queries",
        [([], [1, 2]), ([1, 2], [])],
        ids=["no-keys", "no-queries"],
    )
    def test_empty_side(self, keys, queries):
        found, pos = sorted_find(
            np.array(keys, dtype=np.int64), np.array(queries, dtype=np.int64)
        )
        assert found.shape == pos.shape == (len(queries),)
        assert not found.any() and (pos == 0).all()


class TestRunKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_run_starts_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.integers(0, 12, size=int(rng.integers(1, 60))))
        want = [j for j in range(keys.size) if j == 0 or keys[j] != keys[j - 1]]
        assert run_starts(keys).tolist() == want

    @pytest.mark.parametrize("stray", [False, True], ids=["in-range", "stray"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gather_in_range_matches_loop(self, seed, stray):
        rng = np.random.default_rng(seed)
        lane = rng.integers(0, 1000, size=30)
        lo, hi = (-5, 36) if stray else (0, 30)
        ids = rng.integers(lo, hi, size=50)
        want = [int(lane[i]) if 0 <= i < lane.size else -1 for i in ids]
        got = gather_in_range(lane, ids, -1)
        assert got.dtype == lane.dtype
        assert got.tolist() == want

    def test_gather_in_range_empty(self):
        got = gather_in_range(np.arange(4), np.empty(0, dtype=np.int64), -1)
        assert got.shape == (0,)

    @pytest.mark.parametrize(
        "ids, want",
        [([], True), ([3], True), ([1, 2, 9], True), ([1, 1, 2], False), ([3, 2], False)],
        ids=["empty", "single", "increasing", "repeat", "decreasing"],
    )
    def test_is_sorted_unique(self, ids, want):
        assert is_sorted_unique(np.array(ids, dtype=np.int64)) is want


# -------------------------------------------------------------- id table lanes


@pytest.mark.parametrize("universe", [None, 500], ids=["sorted", "dense"])
class TestIdSlotTableLanes:
    def test_rebuild_sorted_repacks_slots(self, universe):
        table = IdSlotTable(8, universe=universe)
        table.insert(np.array([40, 7, 99, 3]))
        table.rebuild_sorted(np.array([3, 40, 99]), capacity=5)
        assert table.capacity == 5
        assert table.keys.tolist() == [3, 40, 99]
        assert table.lookup(np.array([3, 40, 99, 7])).tolist() == [0, 1, 2, -1]
        # the free stack resumes at the first slot past the packed keys
        slots, new = table.insert(np.array([7, 8]))
        assert slots.tolist() == [3, 4] and new.tolist() == [3, 4]
        assert table.insert(np.array([9]))[0].tolist() == [-1]

    def test_grow_keeps_slots_and_reuses_freed_first(self, universe):
        table = IdSlotTable(4, universe=universe)
        table.insert(np.array([40, 7, 99, 3]))
        table.remove(np.array([7]))
        table.grow(6)
        assert table.capacity == 6
        assert table.lookup(np.array([40, 99, 3, 7])).tolist() == [0, 2, 3, -1]
        # the freed slot first, then the new ones in ascending order
        slots, new = table.insert(np.array([8, 9, 11]))
        assert slots.tolist() == [1, 4, 5] and new.tolist() == [1, 4, 5]
        assert table.insert(np.array([12]))[0].tolist() == [-1]
        with pytest.raises(ValueError):
            table.grow(5)

    def test_rebuild_sorted_rejects_overflow(self, universe):
        table = IdSlotTable(4, universe=universe)
        with pytest.raises(ValueError):
            table.rebuild_sorted(np.array([1, 2, 3]), capacity=2)

    @pytest.mark.parametrize("seed", range(2))
    def test_lookup_present_matches_lookup(self, universe, seed):
        rng = np.random.default_rng(seed)
        table = IdSlotTable(64, universe=universe)
        table.insert(rng.integers(0, 500, size=80))
        table.remove(rng.integers(0, 500, size=20))
        present = rng.choice(table.keys, size=40)
        np.testing.assert_array_equal(
            table.lookup_present(present), table.lookup(present)
        )

    def test_clear_restarts_at_slot_zero(self, universe):
        table = IdSlotTable(4, universe=universe)
        table.insert(np.array([5, 6, 7]))
        table.remove(np.array([6]))
        table.clear()
        assert table.size == 0
        assert table.lookup(np.array([5, 7])).tolist() == [-1, -1]
        assert table.insert(np.array([9, 5]))[0].tolist() == [0, 1]

    def test_get_is_the_scalar_lookup(self, universe):
        table = IdSlotTable(4, universe=universe)
        table.insert(np.array([11, 22]))
        assert (table.get(11), table.get(22), table.get(33)) == (0, 1, None)


class TestIdSlotTableBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            IdSlotTable(0)
        with pytest.raises(ValueError):
            IdSlotTable(4, universe=0)

    def test_out_of_universe_ids_miss_and_are_never_granted(self):
        table = IdSlotTable(8, universe=10)
        slots, new = table.insert(np.array([3, 10, -1, 4]))
        assert slots.tolist() == [0, -1, -1, 1] and new.tolist() == [0, 1]
        assert table.lookup(np.array([10, 11, -2])).tolist() == [-1, -1, -1]

    def test_nbytes_counts_the_dense_lane(self):
        sparse, dense = IdSlotTable(16), IdSlotTable(16, universe=1000)
        assert dense.nbytes - sparse.nbytes == 1000 * 8


# ---------------------------------------------------------------- touched rows


class TestTouchedRowsReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_over_random_ops(self, seed):
        """Stamp/clear/drain/resize against a plain set, across more than
        one 8-bit epoch wrap."""
        rng = np.random.default_rng(seed)
        rows = TouchedRows(50)
        ref: set[int] = set()
        for _ in range(600):
            op = rng.random()
            if op < 0.5:
                ids = rng.integers(0, rows.num_rows, size=int(rng.integers(0, 12)))
                rows.stamp(ids)
                ref.update(ids.tolist())
            elif op < 0.8:
                rows.clear()
                ref.clear()
            elif op < 0.95:
                assert rows.drain().tolist() == sorted(ref)
                ref.clear()
            elif rows.num_rows < 80:
                rows.resize(rows.num_rows + 3)
            assert rows.ids().tolist() == sorted(ref)
            assert rows.count() == len(ref)
            assert rows.mask().sum() == len(ref)
            assert rows.fraction() == len(ref) / rows.num_rows


# --------------------------------------------------------------------- hashing


class TestHashing:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_splitmix64_matches_scalar_reference(self, seed):
        vals = np.array([0, 1, 2, 2**40, 2**63 - 1, -1, -5], dtype=np.int64)
        want = [ref_splitmix64(int(v) & ((1 << 64) - 1), seed) for v in vals]
        assert splitmix64(vals, seed=seed).tolist() == want

    def test_splitmix64_has_no_collisions_on_a_dense_range(self):
        out = splitmix64(np.arange(100_000, dtype=np.int64))
        assert np.unique(out).size == out.size

    def test_splitmix64_ignores_the_integer_width(self):
        vals = np.arange(-8, 8)
        np.testing.assert_array_equal(
            splitmix64(vals.astype(np.int32)), splitmix64(vals.astype(np.int64))
        )

    def test_hash_combine_is_order_sensitive_and_broadcasts(self):
        a = np.arange(50, dtype=np.int64)
        b = (a * 7 + 3) % 50
        ab, ba = hash_combine(a, b), hash_combine(b, a)
        assert not np.any((ab == ba) & (a != b))
        np.testing.assert_array_equal(
            hash_combine(a, np.int64(9)), hash_combine(a, np.full(50, 9))
        )

    def test_stable_str_hash_separates_names(self):
        names = [f"table_{i}" for i in range(500)] + ["", "ab", "ba", "a" * 9]
        hashes = [stable_str_hash(n) for n in names]
        assert len(set(hashes)) == len(names)
        assert all(0 <= h < 1 << 64 for h in hashes)
        assert stable_str_hash("ab") == hashes[-3]
