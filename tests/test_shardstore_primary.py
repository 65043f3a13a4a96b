"""Primary-tagged rows, the shared delta slice, and the client boundary.

Two properties carry the fast read path:

* the **primary bit** a shard stores with every row equals what hashing
  the id through the ring would say — ``placement.replica_owners(table,
  [id], 1)[0, 0] == shard_id`` — after *any* interleaving of publish, kill, revive, dropped
  publishes, repair, rebalancing and compaction, so a primary-range read
  may select by the bit and never re-hash;
* the **memoised slice** a block hands out is shared by the readers of
  one sync point, is read-only, and is never served again once the block
  mutated.

The hash-and-filter read the bit replaced survives here, as the oracle.
On top, the same random histories drive a client without a policy and a
resilient one: they must agree on whether a pull can be answered (the
plain client raises where the resilient one reports ``degraded``), and an
answered pull must equal a dict-of-rows oracle of every acknowledged
publish.
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

from repro.cluster.resilience import DegradedReadError, ResiliencePolicy
from repro.cluster.resilience.breaker import BREAKER_COOLDOWN_S
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
    keep = store.placement.replica_owners(table, ids, 1)[:, 0] == sid
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


def _assert_bit_is_the_ring_primary(store):
    for sid, shard in store.shards.items():
        for table in shard.tables:
            block = shard.block(table)
            ids = block.resident_ids
            tagged = block.primary[block.slots.lookup(ids)]
            np.testing.assert_array_equal(
                tagged, store.placement.replica_owners(table, ids, 1)[:, 0] == sid
            )


def _assert_directory_is_the_ring_and_the_blocks(store):
    """Every row-directory entry names the ring's owners of its id, in rank
    order, and the slot each owner's block holds it at; an id the
    directory does not hold is ``-1`` in both lanes."""
    for table, directory in store._directories.items():
        held = directory.slot[:, 0] >= 0
        assert ((directory.slot >= 0) == held[:, None]).all()
        assert (directory.owner[~held] == -1).all()
        ids = np.flatnonzero(held)
        assert directory.entries == ids.size
        owners = directory.owner[ids]
        np.testing.assert_array_equal(
            owners, store.placement.replica_owners(table, ids, store.replication)
        )
        for rank in range(store.replication):
            for sid in np.unique(owners[:, rank]):
                on = owners[:, rank] == sid
                block = store.shards[int(sid)].block(table)
                np.testing.assert_array_equal(
                    directory.slot[ids[on], rank], block.slots.lookup(ids[on])
                )


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
        self.resilient = ShardClient(self.store, resilience=ResiliencePolicy())
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
        self._read_previous_sync_point(table, version - 1)

    def _read_previous_sync_point(self, table, since):
        """The read a publish primes: every live shard's primary slice and
        the plain pull at the sync point right before the publish, first
        thing after it, against the oracles."""
        store = self.store
        for sid in store.live_shard_ids:
            got = store.pull_delta_primary(table, since, sid)
            want = _hash_filtered_primary(store, table, since, sid)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                np.testing.assert_array_equal(g, w)
        ids, rows, _ = store.pull_delta(table, since)
        want_ids, want_rows = _reconciled_delta(store, table, since)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(rows, want_rows)

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
        or fails without moving its sync point — the plain one raises, the
        resilient one reports ``degraded`` with empty rows — and they never
        disagree."""
        # Pulls are a window apart, so every breaker an earlier wave opened
        # has cooled down to a probe by now.
        self.resilient.resilience.clock.advance(BREAKER_COOLDOWN_S)
        answers = []
        for client in (self.plain, self.resilient):
            since = client.synced_version
            pinned = self._registered(client)
            try:
                deltas, report = client.pull_tables(list(TABLES))
            except DegradedReadError as err:
                assert client is self.plain and err.reason == "coverage"
                deltas, report = None, client.pull_log[-1]
            if report.degraded:
                # only the plain client raises; the resilient one returns
                assert (deltas is None) == (client is self.plain)
                assert client.synced_version == report.version == since
                assert self._registered(client) == pinned
                if deltas is not None:
                    assert all(deltas[table][0].size == 0 for table in TABLES)
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
        _assert_bit_is_the_ring_primary(self.store)

    @invariant()
    def directory_is_the_ring_and_the_blocks(self):
        _assert_directory_is_the_ring_and_the_blocks(self.store)

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


class TestRowDirectory:
    """One ``publish_many`` mixing directory hits, new ids and ids the
    directory cannot address, with every owner up or one down."""

    HITS = [3, 17, 42, 99]
    NEW = [150, 151, 300]
    PAST_CAP = [-5, 10**6]

    def _publish_mix(self, store, rng):
        ids = np.asarray(self.PAST_CAP[:1] + self.HITS + self.NEW + self.PAST_CAP[1:])
        rows = rng.normal(size=(ids.size, DIM)).astype(np.float32)
        other = np.array([7, 150])  # a second table in the same event
        return store.publish_many(
            [
                ("emb", ids, rows),
                ("lora_a/0", other, rng.normal(size=(2, DIM)).astype(np.float32)),
            ]
        )

    def _assert_reads(self, store, since):
        _assert_bit_is_the_ring_primary(store)
        _assert_directory_is_the_ring_and_the_blocks(store)
        for table in TABLES:
            for sid in store.live_shard_ids:
                got = store.pull_delta_primary(table, since, sid)
                _assert_bytes_equal(got, _hash_filtered_primary(store, table, since, sid))
            ids, rows, _ = store.pull_delta(table, since)
            want_ids, want_rows = _reconciled_delta(store, table, since)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(rows, want_rows)

    def _held(self, store, ids, table="emb"):
        slot = store._directories[table].slot
        ids = np.asarray(ids)
        inside = (ids >= 0) & (ids < slot.shape[0])
        held = np.zeros(ids.size, dtype=bool)
        held[inside] = slot[ids[inside], 0] >= 0
        return held.tolist()

    @pytest.mark.parametrize("down", [False, True], ids=["all_up", "owner_down"])
    def test_mixed_publish_matches_the_oracles(self, down):
        store = ShardedParameterStore(
            num_shards=5, row_bytes=None, row_dim=DIM, replication=3
        )
        rng = np.random.default_rng(1)
        store.publish_batch("emb", np.arange(100), rng.normal(size=(100, DIM)))
        store.publish_batch("lora_a/0", np.arange(10), rng.normal(size=(10, DIM)))
        assert store._directories["emb"].entries == 100
        dead = int(store.placement.replica_owners("emb", np.array([150]), 3)[0, 0])
        if down:
            store.kill_shard(dead)
        v = self._publish_mix(store, rng)
        for since in (0, v - 1):
            self._assert_reads(store, since)
        new_owners = store.placement.replica_owners("emb", np.asarray(self.NEW), 3)
        assert self._held(store, self.HITS) == [True] * 4
        assert self._held(store, self.NEW) == (~(new_owners == dead).any(axis=1) | (not down)).tolist()
        assert self._held(store, self.PAST_CAP) == [False, False]
        if down:
            assert not self._held(store, [150])[0]
            store.revive_shard(dead)
            store.repair()
            self._assert_reads(store, 0)
            # the first unmasked publish after the repair enters the rest
            v = self._publish_mix(store, rng)
            self._assert_reads(store, v - 1)
            assert self._held(store, self.NEW) == [True] * 3
            assert self._held(store, self.PAST_CAP) == [False, False]

    @pytest.mark.parametrize("added", [-40000, -1, 40000])
    def test_added_shard_outside_the_narrow_owner_lane(self, added):
        """A shard id int16 cannot hold widens the owner lane instead of
        wrapping to another shard's id; shard ``-1`` is told from an
        unknown owner by the slot lane."""
        store = ShardedParameterStore(
            num_shards=4, row_bytes=None, row_dim=DIM, replication=3
        )
        rng = np.random.default_rng(2)
        store.publish_batch("emb", np.arange(200), rng.normal(size=(200, DIM)))
        # add_shard always takes the next id, so place the odd id directly
        store._migrate_to(store.placement.with_shard_added(added))
        for _ in range(2):  # the second publish runs on directory hits
            v = self._publish_mix(store, rng)
            for since in (0, v - 1):
                self._assert_reads(store, since)
        assert store.shards[added].num_rows > 0
        assert (store._directories["emb"].owner == added).any()


def _one_shard_block(n=50, table="t"):
    """A single-shard store: its one block holds every row."""
    store = ShardedParameterStore(num_shards=1, row_bytes=None, row_dim=DIM)
    store.publish_batch(table, np.arange(n), np.ones((n, DIM)))
    return store, store.shards[0], store.shards[0].block(table)


def _overwrite(store, ids=(2, 5, 9, 30), value=4.0, table="t"):
    """Rewrite resident rows only: the publish that primes the memo."""
    ids = np.asarray(ids, dtype=np.int64)
    return store.publish_batch(table, ids, np.full((ids.size, DIM), value))


def _primary_delta(block, since):
    """``_resident_delta`` cut to the rows whose primary bit is set."""
    want = _resident_delta(block, since)
    keep = block.primary[block.slots.lookup(want[0])]
    return tuple(arr[keep] for arr in want)


def _assert_bytes_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


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
    @pytest.mark.parametrize("primed", [False, True])
    def test_slice_taken_before_a_mutation_is_never_served_after(
        self, mutate, primary_only, primed
    ):
        """Read at sync point 0, or read the slice an overwriting publish
        primed for sync point 1; then mutate and read again."""
        store, shard, block = _one_shard_block()
        since = 0
        if primed:
            _overwrite(store)
            since = store.version - 1
            assert block._memo
        before = block.delta(since, primary_only)
        snapshot = [arr.copy() for arr in before]
        mutate(store, shard, block)
        after = block.delta(since, primary_only)
        assert all(a is not b for a, b in zip(after, before))
        want = (_primary_delta if primary_only else _resident_delta)(block, since)
        for got, expected in zip(after, want):
            np.testing.assert_array_equal(got, expected)
            assert got.dtype == expected.dtype
        # and the old reader's arrays were not written through
        for held, copy in zip(before, snapshot):
            np.testing.assert_array_equal(held, copy)

    def test_overwrite_primes_the_previous_sync_points(self):
        """A reader at ``v-1`` and, when the block skipped ``v-1``, one at
        ``v-2`` both map to the primed segment and get the resident truth."""
        store, _, block = _one_shard_block()
        store.publish_batch("other", np.array([1]), np.ones((1, DIM)))
        v = _overwrite(store)
        assert block._memo
        primed = block.delta(v - 1, True)
        _assert_bytes_equal(primed, _primary_delta(block, v - 1))
        assert block.delta(v - 2, True) is primed
        _assert_bytes_equal(block.delta(v - 2, True), _primary_delta(block, v - 2))
        for since in (v - 1, v - 2):
            _assert_bytes_equal(
                block.delta(since, False), _resident_delta(block, since)
            )
        assert primed[0].tolist() == [2, 5, 9, 30]

    @pytest.mark.parametrize("n", [50, 64])  # a free slot left; a full block
    def test_publish_that_grows_the_block_does_not_prime(self, n):
        store, _, block = _one_shard_block(n)
        assert not block._memo  # the fill granted every slot
        store.publish_batch("t", np.array([4, 77]), np.zeros((2, DIM)))
        assert (block.capacity > 64) == (n == 64)
        assert not block._memo
        _assert_bytes_equal(
            block.delta(store.version - 1, True),
            _primary_delta(block, store.version - 1),
        )

    def test_same_version_double_segment_is_never_half_a_tail(self):
        """One table twice in one ``publish_many``: two log segments at one
        version.  The reader synced before it gets both, overlap resolved
        to the second write."""
        store, _, block = _one_shard_block()
        first, second = np.array([1, 4, 8]), np.array([4, 6])
        v = store.publish_many(
            [
                ("t", first, np.full((3, DIM), 5.0)),
                ("t", second, np.full((2, DIM), 6.0)),
            ]
        )
        for primary_only in (True, False):
            got = block.delta(v - 1, primary_only)
            assert got[0].tolist() == [1, 4, 6, 8]
            want = (_primary_delta if primary_only else _resident_delta)(block, v - 1)
            _assert_bytes_equal(got, want)
        assert block.delta(v - 1, True)[1][1].tolist() == [6.0] * DIM

    def test_primed_slice_owns_its_arrays(self):
        """Rewriting the caller's ``ids``, ``rows`` or ``primary`` after a
        publish cannot reach the slice the publish primed."""
        store, shard, block = _one_shard_block()
        ids = np.array([3, 7, 11], dtype=np.int64)
        rows = np.full((3, DIM), 8.0, dtype=np.float32)
        primary = np.array([True, False, True])
        v = store.version + 1
        shard.publish("t", ids, rows, v, primary, np.full(3, -1))
        ids[:] = -1
        rows[:] = -1.0
        primary[:] = False
        got = shard.pull_delta("t", v - 1, primary_only=True)
        assert got[0].tolist() == [3, 11]
        np.testing.assert_array_equal(got[1], np.full((2, DIM), 8.0))
        assert got[2].tolist() == [v, v]
        _assert_bytes_equal(got, _primary_delta(block, v - 1))
        _assert_bytes_equal(
            shard.pull_delta("t", v - 1), _resident_delta(block, v - 1)
        )

    def test_a_different_sync_point_replaces_the_memo(self):
        store, _, block = _one_shard_block()
        assert block.delta(0, False)[0].size == 50
        # an overwrite: primes sync point 1, not the 0 read just before it
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
