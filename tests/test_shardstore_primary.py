"""Primary-tagged rows, the shared delta slice, and the client boundary.

Two properties carry the fast read path:

* the **primary bit** a shard stores with every row equals what hashing
  the id through the ring would say — ``placement.shard_of(table, id) ==
  shard_id`` — after *any* interleaving of publish, kill, revive, dropped
  publishes, repair, rebalancing and compaction, so a primary-range read
  may select by the bit and never re-hash;
* the **memoised slice** a block hands out is shared by the readers of
  one sync point, is read-only, and is never served again once the block
  mutated.

The hash-and-filter read the bit replaced survives here, as the oracle.
On top, the same random histories drive a client without a policy and a
resilient one without a degraded cache: they must agree on whether a pull
can be answered, and an answered pull must equal a dict-of-rows oracle of
every acknowledged publish.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.resilience import (
    BreakerConfig,
    DegradedReadError,
    ResiliencePolicy,
)
from repro.cluster.shardstore import (
    QuorumError,
    ShardClient,
    ShardedParameterStore,
)

TABLES = ("emb", "lora_a/0")
DIM = 4
ID_SPACE = 400


def _resident_delta(block, since):
    """Definition of a delta, straight from the resident version vector:
    the ids whose latest version exceeds ``since`` (what the log slice
    must agree with, above and below ``log_floor``)."""
    ids = block.resident_ids
    slots = block.slots.lookup(ids)
    newer = block.row_version[slots] > since
    slots = slots[newer]
    return ids[newer], block.rows[slots], block.row_version[slots]


def _hash_filtered_primary(store, table, since, sid):
    """The read ``pull_delta_primary`` used to be: the shard's whole slice,
    every id re-hashed through the ring, non-primaries discarded."""
    block = store.shards[sid].block(table)
    if block is None:
        return store.empty_delta(table)
    ids, rows, versions = _resident_delta(block, since)
    keep = store.placement.shard_of(table, ids) == sid
    return ids[keep], rows[keep], versions[keep]


def _reconciled_delta(store, table, since):
    """The R-way read: every live replica's slice, freshest copy per id."""
    parts = []
    for sid in store.live_shard_ids:
        block = store.shards[sid].block(table)
        if block is not None:
            parts.append(_resident_delta(block, since))
    parts = [p for p in parts if p[0].size]
    if not parts:
        return store.empty_delta(table)[:2]
    ids, rows, _ = store._reconcile_parts(parts)
    return ids, rows


class PrimaryBitMachine(RuleBasedStateMachine):
    """Random plane histories; the bit and the reads checked every step."""

    def __init__(self) -> None:
        super().__init__()
        self.store = ShardedParameterStore(
            num_shards=5, row_bytes=None, row_dim=DIM, replication=3
        )
        self.reader = self.store.register_sync_point(0)
        self.rng = np.random.default_rng(0)
        self.plain = ShardClient(self.store)
        self.resilient = ShardClient(
            self.store, resilience=ResiliencePolicy(degraded=None)
        )
        # table -> id -> (version, row) of every acknowledged write
        self.acked: dict[str, dict[int, tuple[int, np.ndarray]]] = {
            table: {} for table in TABLES
        }

    # ----------------------------------------------------------------- rules
    @rule(
        table=st.sampled_from(TABLES),
        ids=st.lists(st.integers(0, ID_SPACE - 1), min_size=1, max_size=40),
    )
    def publish(self, table, ids):
        ids = np.asarray(ids, dtype=np.int64)
        rows = self.rng.normal(size=(ids.size, DIM)).astype(np.float32)  # the lane
        try:
            version = self.store.publish_batch(table, ids, rows)
        except QuorumError:
            return  # refused before any write: nothing was acknowledged
        for i, row in zip(ids.tolist(), rows):
            self.acked[table][i] = (version, row)

    @precondition(lambda self: len(self.store.live_shard_ids) > 1)
    @rule(data=st.data())
    def kill(self, data):
        self.store.kill_shard(data.draw(st.sampled_from(self.store.live_shard_ids)))

    @precondition(lambda self: self.store.down_shard_ids)
    @rule(data=st.data())
    def revive(self, data):
        self.store.revive_shard(data.draw(st.sampled_from(self.store.down_shard_ids)))

    @rule(data=st.data())
    def arm_publish_drop(self, data):
        self.store.arm_publish_drop(data.draw(st.sampled_from(self.store.shard_ids)))

    @rule()
    def repair(self):
        self.store.repair()

    @precondition(lambda self: not self.store.down_shard_ids and self.store.num_shards < 8)
    @rule()
    def add_shard(self):
        self.store.add_shard()

    @precondition(lambda self: not self.store.down_shard_ids and self.store.num_shards > 3)
    @rule(data=st.data())
    def remove_shard(self, data):
        self.store.remove_shard(data.draw(st.sampled_from(self.store.shard_ids)))

    @rule(behind=st.integers(0, 3))
    def compact(self, behind):
        """Truncate the logs up to a reader ``behind`` versions back, so
        later reads at older sync points run below ``log_floor``."""
        self.store.update_sync_point(
            self.reader, max(0, self.store.version - behind)
        )
        self.store.compact()

    @rule()
    def client_pull(self):
        """Both clients pull; each either answers the oracle's delta exactly
        or raises without moving its sync point — and they never disagree."""
        # Pulls are a window apart, so every breaker an earlier wave opened
        # has cooled down to a probe by now.
        self.resilient.resilience.clock.advance(BreakerConfig().cooldown_s)
        answers = []
        for client in (self.plain, self.resilient):
            since = client.synced_version
            pinned = self._registered(client)
            try:
                deltas, _ = client.pull_tables(list(TABLES))
            except DegradedReadError as err:
                assert err.reason == "coverage"
                assert client.synced_version == since
                assert self._registered(client) == pinned
                answers.append(None)
                continue
            for table in TABLES:
                want_ids, want_rows = self._acked_delta(table, since)
                np.testing.assert_array_equal(deltas[table][0], want_ids)
                np.testing.assert_array_equal(deltas[table][1], want_rows)
            assert client.synced_version == self.store.version
            answers.append(deltas)
        plain, resilient = answers
        assert (plain is None) == (resilient is None)
        if plain is not None:
            for table in TABLES:
                for got, want in zip(resilient[table], plain[table]):
                    np.testing.assert_array_equal(got, want)

    def _registered(self, client):
        token = client._sync_token
        return None if token is None else self.store._sync_points[token]

    def _acked_delta(self, table, since):
        held = self.acked[table]
        ids = sorted(i for i, (version, _) in held.items() if version > since)
        rows = np.array([held[i][1] for i in ids], dtype=np.float64)
        return np.asarray(ids, dtype=np.int64), rows.reshape(len(ids), DIM)

    # ------------------------------------------------------------ invariants
    @invariant()
    def compaction_keeps_what_registered_clients_need(self):
        """No block's log is truncated past a registered client's sync
        point: its next pull stays an O(changed) log read."""
        for client in (self.plain, self.resilient):
            if client._sync_token is None:
                continue
            assert self._registered(client) == client.synced_version
            for shard in self.store.shards.values():
                for table in shard.tables:
                    assert shard.block(table).log_floor <= client.synced_version

    def _sync_points(self):
        version = self.store.version
        return sorted({0, version // 2, max(0, version - 1), version})

    @invariant()
    def bit_is_the_ring_primary(self):
        store = self.store
        for sid, shard in store.shards.items():
            for table in shard.tables:
                block = shard.block(table)
                ids = block.resident_ids
                tagged = block.primary[block.slots.lookup(ids)]
                np.testing.assert_array_equal(
                    tagged, store.placement.shard_of(table, ids) == sid
                )

    @invariant()
    def primary_read_matches_hash_filter(self):
        store = self.store
        for since in self._sync_points():
            for sid in store.live_shard_ids:
                for table in TABLES:
                    got = store.pull_delta_primary(table, since, sid)
                    want = _hash_filtered_primary(store, table, since, sid)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w)
                        assert g.shape == w.shape

    @invariant()
    def plain_pull_matches_reconciled_read(self):
        store = self.store
        for since in self._sync_points():
            for table in TABLES:
                ids, rows, version = store.pull_delta(table, since)
                want_ids, want_rows = _reconciled_delta(store, table, since)
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(rows, want_rows)
                assert version == store.version


PrimaryBitMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestPrimaryBit = PrimaryBitMachine.TestCase


def _one_shard_block(n=50, table="t"):
    """A single-shard store: its one block holds every row."""
    store = ShardedParameterStore(num_shards=1, row_bytes=None, row_dim=DIM)
    store.publish_batch(table, np.arange(n), np.ones((n, DIM)))
    return store, store.shards[0], store.shards[0].block(table)


def _publish(store, shard, block):
    store.publish_batch("t", np.array([3, 70]), np.full((2, DIM), 2.0))


def _ingest(store, shard, block):
    shard.ingest(
        "t", np.array([90]), np.full((1, DIM), 3.0), np.array([1]), np.array([True])
    )


def _drop(store, shard, block):
    shard.drop("t", np.array([0, 1]))


def _compact(store, shard, block):
    store.compact()


def _rewiden(store, shard, block):
    block.rewiden(DIM + 2)


def _retag(store, shard, block):
    shard.retag_primary("t", np.array([5]), np.array([False]))


class TestSharedSlice:
    def test_readers_of_one_sync_point_share_the_arrays(self):
        _, _, block = _one_shard_block()
        first = block.delta(0, primary_only=True)
        again = block.delta(0, primary_only=True)
        assert all(a is b for a, b in zip(first, again))
        # the two lanes are separate slices of the same sync point
        assert block.delta(0, primary_only=False)[1] is not first[1]
        assert block.delta(0, primary_only=True)[1] is first[1]

    @pytest.mark.parametrize(
        "mutate", [_publish, _ingest, _drop, _compact, _rewiden, _retag]
    )
    @pytest.mark.parametrize("primary_only", [False, True])
    def test_slice_taken_before_a_mutation_is_never_served_after(
        self, mutate, primary_only
    ):
        store, shard, block = _one_shard_block()
        before = block.delta(0, primary_only)
        snapshot = [arr.copy() for arr in before]
        mutate(store, shard, block)
        after = block.delta(0, primary_only)
        assert all(a is not b for a, b in zip(after, before))
        want = _resident_delta(block, 0)
        if primary_only:
            keep = block.primary[block.slots.lookup(want[0])]
            want = tuple(arr[keep] for arr in want)
        for got, expected in zip(after, want):
            np.testing.assert_array_equal(got, expected)
        # and the old reader's arrays were not written through
        for held, copy in zip(before, snapshot):
            np.testing.assert_array_equal(held, copy)

    def test_a_different_sync_point_replaces_the_memo(self):
        store, _, block = _one_shard_block()
        store.publish_batch("t", np.array([1]), np.zeros((1, DIM)))
        assert block.delta(0, False)[0].size == 50
        assert block.delta(1, False)[0].tolist() == [1]
        assert block.delta(0, False)[0].size == 50

    def test_returned_arrays_are_read_only(self):
        store, _, _ = _one_shard_block()
        for part in (
            store.pull_delta_primary("t", 0, 0),
            store.shards[0].pull_delta("t", 0),
        ):
            for arr in part:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_store_and_client_results_are_private_copies(self):
        store, _, block = _one_shard_block()
        ids, rows, _ = store.pull_delta("t", 0)
        rows[:] = -1.0
        ids[:] = -1
        client = ShardClient(store, resilience=ResiliencePolicy())
        client.synced_version = 0
        deltas, _ = client.pull_tables(["t"])
        deltas["t"][1][:] = -2.0
        np.testing.assert_array_equal(block.delta(0, True)[1], np.ones((50, DIM)))
        np.testing.assert_array_equal(block.delta(0, True)[0], np.arange(50))

    def test_every_read_is_charged_memo_hit_or_not(self):
        store, shard, _ = _one_shard_block()
        before = (shard.stats.rows_read, shard.stats.bytes_read)
        for _ in range(3):
            shard.pull_delta("t", 0, primary_only=True)
        shard.pull_delta("t", 0, primary_only=True, charge=False)
        assert shard.stats.rows_read - before[0] == 3 * 50
        assert shard.stats.bytes_read - before[1] == 3 * 50 * shard.row_bytes

    def test_healthy_replicated_pull_reads_each_row_once(self):
        store = ShardedParameterStore(
            num_shards=6, row_bytes=None, row_dim=DIM, replication=3
        )
        store.publish_batch("t", np.arange(300), np.ones((300, DIM)))
        ids, _, _ = store.pull_delta("t", 0)
        assert ids.tolist() == list(range(300))
        assert sum(s.rows_read for s in store.shard_stats) == 300
        # one shard down: the reconciled read pays for every live copy
        store.kill_shard(0)
        read = sum(s.rows_read for s in store.shard_stats)
        ids, _, _ = store.pull_delta("t", 0)
        assert ids.tolist() == list(range(300))
        assert sum(s.rows_read for s in store.shard_stats) - read > 300


class TestEmptyDeltaWidth:
    """A zero-row delta carries the table's width wherever it is built."""

    def test_shard_without_a_block_has_no_width_to_invent(self):
        store = ShardedParameterStore(num_shards=4, row_bytes=None, row_dim=DIM)
        shard = store.shards[0]
        assert shard.pull_delta("ghost", 0) is None
        assert shard.drop("ghost", np.array([1])) is None

    def test_primary_read_of_a_blockless_shard_keeps_the_width(self):
        store = ShardedParameterStore(
            num_shards=8, row_bytes=None, replication=3
        )
        store.publish_batch("wide", np.array([1]), np.ones((1, 6)))
        blockless = [
            sid for sid in store.shard_ids
            if store.shards[sid].block("wide") is None
        ]
        assert blockless
        for sid in blockless:
            ids, rows, versions = store.pull_delta_primary("wide", 0, sid)
            assert ids.shape == (0,) and versions.shape == (0,)
            assert rows.shape == (0, 6)
        assert store.pull_delta_ranges("wide", 1, [0], [1, 2])[1].shape == (0, 6)
        assert store.pull_delta("wide", 1)[1].shape == (0, 6)

    def test_degraded_pull_returns_table_width_empties(self):
        store = ShardedParameterStore(
            num_shards=3, row_bytes=None, replication=3
        )
        store.publish_batch("wide", np.arange(4), np.ones((4, 6)))
        client = ShardClient(store, resilience=ResiliencePolicy())
        client.synced_version = 0
        for sid in (0, 1):
            store.kill_shard(sid)
        deltas, report = client.pull_tables(["wide"])
        assert report.degraded
        assert deltas["wide"][1].shape == (0, 6)
