"""The merged delta every client at one sync point shares.

``ShardedParameterStore.pull_covered`` memoises one merge per ``(table,
sync point, coverage)`` and ``changed_rows`` one count per shard, both at
the store's mutation epoch.  Sharing must be invisible: every pull equals
the uncached read (the per-shard primitives ``pull_delta_primary`` /
``pull_delta_ranges`` merged by ``_merge_disjoint``) byte for byte, charges
the same rows to the same shards' ``ShardStats``, and hands each caller
arrays of its own.  Random histories interleave every store mutation with
plain and resilient pulls from four clients, two of each kind, that often
pull at one sync point.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.cluster.resilience import DegradedReadError, ResiliencePolicy
from repro.cluster.resilience.breaker import BREAKER_COOLDOWN_S
from repro.cluster.shardstore import QuorumError, ShardClient, ShardedParameterStore

TABLES = ("emb", "lora_a/0")
DIM = 4
ID_SPACE = 300


def _uncached(store, table, since, clean, recon, available):
    """The read before sharing: per-shard primitives, one merge."""
    parts = [store.pull_delta_primary(table, since, sid) for sid in clean]
    if recon:
        parts.append(store.pull_delta_ranges(table, since, recon, available))
    return store._merge_disjoint(parts)


def _charged(store, read):
    """``read()`` and the ``ShardStats`` it charged, per shard id."""
    before = {sid: dataclasses.replace(s.stats) for sid, s in store.shards.items()}
    out = read()
    charged = {
        sid: (s.stats.rows_read - before[sid].rows_read,
              s.stats.bytes_read - before[sid].bytes_read)
        for sid, s in store.shards.items()
    }
    return out, charged, before


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class _Checked:
    """Wraps one store's shared reads: each call is checked against the
    uncached read of the same state, rows and charges both."""

    def __init__(self, store: ShardedParameterStore) -> None:
        self.store = store
        self.covered = store.pull_covered
        self.counted = store.changed_rows
        store.pull_covered = self.pull_covered
        store.changed_rows = self.changed_rows
        self.calls = 0

    def pull_covered(self, table, since, clean, recon, available):
        store = self.store
        want, want_charged, before = _charged(
            store, lambda: _uncached(store, table, since, clean, recon, available)
        )
        for sid, stats in before.items():  # the oracle's reads are not real
            store.shards[sid].stats = stats
        got, got_charged, _ = _charged(
            store, lambda: self.covered(table, since, clean, recon, available)
        )
        _assert_bytes_equal(got, want)
        assert got_charged == want_charged
        assert all(arr.flags.writeable for arr in got)
        self.calls += 1
        return got

    def changed_rows(self, tables, since):
        got = self.counted(tables, since)
        assert got == {
            sid: sum(shard.changed_count(t, since) for t in tables)
            for sid, shard in sorted(self.store.shards.items())
        }
        return got


class SharedDeltaMachine(RuleBasedStateMachine):
    """Random plane histories; every pull checked against the uncached read."""

    def __init__(self) -> None:
        super().__init__()
        self.store = ShardedParameterStore(
            num_shards=5, row_bytes=None, row_dim=DIM, replication=3
        )
        self.checked = _Checked(self.store)
        self.rng = np.random.default_rng(0)
        self.clients = [ShardClient(self.store) for _ in range(2)] + [
            ShardClient(self.store, resilience=ResiliencePolicy()) for _ in range(2)
        ]
        self.width = {table: DIM for table in TABLES}

    # ------------------------------------------------------------- mutations
    @rule(
        table=st.sampled_from(TABLES),
        ids=st.lists(st.integers(0, ID_SPACE - 1), min_size=1, max_size=30),
        wider=st.booleans(),
    )
    def publish(self, table, ids, wider):
        """A publish; a wider one re-widens every block of the table."""
        if wider and self.width[table] < DIM + 3:
            self.width[table] += 1
        ids = np.asarray(ids, dtype=np.int64)
        rows = self.rng.normal(size=(ids.size, self.width[table])).astype(np.float32)
        try:
            self.store.publish_batch(table, ids, rows)
        except QuorumError:
            pass

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

    @rule()
    def compact(self):
        self.store.compact()

    @precondition(lambda self: not self.store.down_shard_ids and self.store.num_shards < 7)
    @rule()
    def add_shard(self):
        self.store.add_shard()

    @precondition(lambda self: not self.store.down_shard_ids and self.store.num_shards > 3)
    @rule(data=st.data())
    def remove_shard(self, data):
        self.store.remove_shard(data.draw(st.sampled_from(self.store.shard_ids)))

    # ----------------------------------------------------------------- pulls
    def _pull(self, client):
        """One pull; then scribble over what it returned, which no later
        pull — of this client or another at the same sync point — may see."""
        if client.resilience is not None:
            client.resilience.clock.advance(BREAKER_COOLDOWN_S)
        try:
            deltas, _ = client.pull_tables(list(TABLES))
        except DegradedReadError:
            return
        for ids, rows in deltas.values():
            ids[:] = -7
            rows[:] = np.nan

    @rule()
    def pull_all(self):
        """Every client pulls, in turn: clients that pulled together last
        time share a sync point now, plain and resilient alike."""
        for client in self.clients:
            self._pull(client)

    @rule(which=st.integers(0, 3), again=st.booleans())
    def pull_one(self, which, again):
        """One client pulls (and moves off the others' sync point); maybe
        a second time, at the new point."""
        self._pull(self.clients[which])
        if again:
            self._pull(self.clients[which])


SharedDeltaMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSharedDelta = SharedDeltaMachine.TestCase


# ------------------------------------------------------------ unit checks
def _store():
    store = ShardedParameterStore(
        num_shards=5, row_bytes=None, row_dim=DIM, replication=3
    )
    rng = np.random.default_rng(4)
    for table in TABLES:
        store.publish_batch(table, np.arange(120), rng.normal(size=(120, DIM)))
    return store


def _coverage(store):
    return store.live_shard_ids, [], store.live_shard_ids


def test_readers_at_one_sync_point_share_one_merge():
    store = _store()
    clean, recon, available = _coverage(store)
    first = store.pull_covered("emb", 0, clean, recon, available)
    shared = store._shared[("delta", "emb", 0, tuple(clean), (), tuple(available))][0]
    again = store.pull_covered("emb", 0, clean, recon, available)
    _assert_bytes_equal(again, first)
    # each caller its own copy; the shared merge itself is read-only
    assert not any(np.shares_memory(a, b) for a, b in zip(first, again))
    assert not any(np.shares_memory(a, s) for a, s in zip(again, shared))
    assert not any(arr.flags.writeable for arr in shared)


def test_a_repeat_pull_charges_what_the_first_one_did():
    store = _store()
    clean, recon, available = _coverage(store)
    _, first, _ = _charged(
        store, lambda: store.pull_covered("emb", 0, clean, recon, available)
    )
    _, again, _ = _charged(
        store, lambda: store.pull_covered("emb", 0, clean, recon, available)
    )
    assert again == first
    assert sum(rows for rows, _ in first.values()) == 120


def test_writing_into_a_pull_changes_no_other_pull():
    store = _store()
    clients = [ShardClient(store) for _ in range(3)]
    for client in clients:
        client.synced_version = 0
    want = _uncached(store, "emb", 0, *_coverage(store))
    for client in clients:
        deltas, _ = client.pull_tables(["emb"])
        _assert_bytes_equal(deltas["emb"], want[:2])
        deltas["emb"][0][:] = -1
        deltas["emb"][1][:] = np.nan


#: Coverages read around each mutation, fixed so that a read after it
#: repeats a key read before it: clean primaries, reconciled ranges, the
#: shards those ranges are read from (shards absent or down are skipped).
COVERAGES = (
    ([1], [], [1, 2, 3, 4]),
    ([1, 2, 3, 4], [0], [1, 2, 3, 4]),
    ([2], [0, 1, 3, 4], [0, 1, 2, 3, 4]),
    ([0, 1, 2, 3, 4], [], [0, 1, 2, 3, 4]),
)


def _read_all(store):
    """Every fixed coverage, both tables, two sync points; ``store`` is
    wrapped by ``_Checked``, so each read is checked as it is made."""
    live = store.live_shard_ids
    for since in (0, store.version - 1):
        for clean, recon, available in COVERAGES:
            store.changed_rows(list(TABLES), since)
            for table in TABLES:
                store.pull_covered(
                    table,
                    since,
                    [s for s in clean if s in live],
                    [s for s in recon if s in store.shards],
                    [s for s in available if s in store.shards],
                )


def _shard_ingest(store):
    store.shards[0].ingest(
        "emb", np.array([500]), np.full((1, DIM), 9.0), np.array([store.version]),
        np.array([True]),
    )


def _shard_drop(store):
    shard = store.shards[0]
    shard.drop("emb", shard.resident_ids("emb")[:5])


def _shard_retag(store):
    shard = store.shards[1]
    block = shard.block("emb")
    ids = shard.resident_ids("emb")[:5]
    shard.retag_primary("emb", ids, ~block.primary[block.slots.lookup(ids)])


def _shard_rewiden(store):
    for shard in store.shards.values():
        shard.rewiden("emb", DIM + 2)


def _shard_publish(store):
    shard = store.shards[1]
    ids = shard.resident_ids("emb")[:3]
    shard.publish(
        "emb", ids, np.full((3, DIM), 5.0, dtype=np.float32), store.version,
        np.ones(3, dtype=bool), np.full(3, -1),
    )


def _shard_compact(store):
    store.shards[0].compact(store.version)


def _publish(store):
    store.publish_batch("emb", np.array([1, 2]), np.full((2, DIM), 3.0))


def _compact(store):
    store.compact()


def _kill(store):
    store.kill_shard(0)


def _revive(store):
    store.kill_shard(0)
    _read_all(store)
    store.revive_shard(0)


def _repair(store):
    store.kill_shard(0)
    store.publish_batch("emb", np.arange(40), np.full((40, DIM), 2.0))
    store.revive_shard(0)
    _read_all(store)
    store.repair()


def _add_shard(store):
    store.add_shard()


def _remove_shard(store):
    store.remove_shard(0)


@pytest.mark.parametrize(
    "mutate",
    [
        _shard_ingest, _shard_drop, _shard_retag, _shard_rewiden, _shard_publish,
        _shard_compact, _publish, _compact, _kill, _revive, _repair, _add_shard,
        _remove_shard,
    ],
)
def test_every_mutation_moves_the_epoch_and_no_stale_read_survives(mutate):
    """Each write path, store or shard, moves the epoch; a read memoised
    before it is never served after it, rows or charges."""
    store = _store()
    checked = _Checked(store)
    _read_all(store)
    epoch = store._epoch.value
    mutate(store)
    assert store._epoch.value > epoch
    _read_all(store)
    assert checked.calls > 0
