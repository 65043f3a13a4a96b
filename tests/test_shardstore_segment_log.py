"""The segment delta log of a table block against the flat log it replaced.

``_TableBlock`` keeps its delta log as a version-ascending list of publish
segments ``(version, ids)``.  ``reference.delta_log.FlatDeltaLog`` is the
former flat ``(version, id)`` log; seeded random sequences of publishes,
compactions, drops, ingests and re-widenings must leave every delta read
(each sync point, both lanes) and every compaction count identical, and
the log must hold 8 bytes per entry and one int per segment.
"""

import gc
import weakref

import numpy as np
import pytest

from reference.delta_log import FlatDeltaLog
from repro.cluster.shardstore.shard import _TableBlock

DIM = 3
UNIVERSE = 300
OPS = ("overwrite", "grow", "compact", "compact_floor", "drop", "ingest", "rewiden")
OP_P = (0.3, 0.2, 0.08, 0.1, 0.1, 0.17, 0.05)


def _rows(rng, n, dim):
    return rng.normal(size=(n, dim)).astype(np.float32)


def _assert_log_shape(block, ref):
    """Same entries as the flat log, 8 bytes each, one int per segment."""
    assert len(block._seg_versions) == len(block._seg_ids)
    assert all(type(v) is int for v in block._seg_versions)
    assert block._seg_versions == sorted(block._seg_versions)
    for ids in block._seg_ids:
        assert ids.size and ids.base is None and not ids.flags.writeable
        assert ids.dtype == np.int64 and (ids[1:] > ids[:-1]).all()
    assert sum(ids.nbytes for ids in block._seg_ids) == 8 * ref.log_ids.size
    got = sorted(
        (v, i) for v, ids in zip(block._seg_versions, block._seg_ids)
        for i in ids.tolist()
    )
    assert got == sorted(zip(ref.log_versions.tolist(), ref.log_ids.tolist()))
    assert block.log_floor == ref.log_floor


def _assert_reads(block, ref, version):
    for since in range(version + 1):
        for primary_only in (False, True):
            got = block.delta(since, primary_only)
            want = ref.delta(since, primary_only)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        assert block.changed_count(since) == ref.delta(since, False)[0].size


@pytest.mark.parametrize("seed", range(12))
def test_segment_log_matches_the_flat_log(seed):
    rng = np.random.default_rng(seed)
    block = _TableBlock(DIM, np.float32)
    ref = FlatDeltaLog(DIM, np.float32)
    version = 0
    for _ in range(40):
        op = OPS[rng.choice(len(OPS), p=OP_P)]
        resident = np.array(sorted(ref.resident), dtype=np.int64)
        if op == "overwrite" and resident.size:
            # The store's case: slots known from its directory, primary
            # bits as resident.
            ids = np.sort(rng.choice(
                resident, size=rng.integers(1, min(40, resident.size) + 1),
                replace=False,
            ))
            primary = np.array([ref.resident[i][2] for i in ids.tolist()])
            slots = block.slots.lookup(ids)
        elif op in ("overwrite", "grow"):
            ids = np.unique(rng.integers(0, UNIVERSE, size=rng.integers(1, 60)))
            primary = rng.random(ids.size) < 0.6
            slots = np.full(ids.size, -1, dtype=np.int64)
        if op in ("overwrite", "grow"):
            version += 1
            rows = _rows(rng, ids.size, block.dim)
            block.publish(ids, rows, version, primary, slots)
            ref.publish(ids, rows, version, primary)
        elif op == "compact":
            assert block.compact() == ref.compact()
        elif op == "compact_floor":
            watermark = int(rng.integers(0, version + 1))
            assert block.compact(watermark) == ref.compact(watermark)
        elif op == "drop":
            cands = np.unique(rng.integers(0, UNIVERSE, size=rng.integers(1, 40)))
            ids, rows, versions = block.drop(cands)
            np.testing.assert_array_equal(ids, ref.drop(cands))
        elif op == "ingest" and version:
            # Migrated and repaired rows: unique ids, resident or not,
            # versions interleaving the ones already logged.
            ids = np.unique(rng.integers(0, UNIVERSE, size=rng.integers(1, 40)))
            rng.shuffle(ids)
            versions = rng.integers(1, version + 1, size=ids.size)
            primary = rng.random(ids.size) < 0.5
            rows = _rows(rng, ids.size, block.dim)
            block.ingest(ids, rows, versions, primary)
            ref.ingest(ids, rows, versions, primary)
        elif op == "rewiden":
            dim = block.dim + int(rng.integers(1, 3))
            block.rewiden(dim)
            ref.rewiden(dim)
        _assert_log_shape(block, ref)
        _assert_reads(block, ref, version)


def _filled_block(n=1000):
    block = _TableBlock(DIM, np.float32)
    ids = np.arange(n, dtype=np.int64)
    block.publish(
        ids, np.ones((n, DIM), dtype=np.float32), 1,
        np.ones(n, dtype=bool), np.full(n, -1, dtype=np.int64),
    )
    return block


def _overwrite(block, ids, version):
    block.publish(
        ids, np.full((ids.size, DIM), version, dtype=np.float32), version,
        np.ones(ids.size, dtype=bool), block.slots.lookup(ids),
    )


class TestLogMemory:
    def test_eight_bytes_per_entry_and_one_int_per_segment(self):
        block = _filled_block()
        for version in range(2, 7):
            _overwrite(block, np.arange(version, 100 * version, dtype=np.int64), version)
        entries = 1000 + sum(100 * v - v for v in range(2, 7))
        # each segment owns exactly its ids: no view of a larger buffer
        assert all(ids.base is None for ids in block._seg_ids)
        assert sum(ids.nbytes for ids in block._seg_ids) == 8 * entries
        assert block._seg_versions == [1, 2, 3, 4, 5, 6]
        # a whole-table delta read does not copy the fill into the log
        assert block.delta(0, False)[0].size == 1000
        assert sum(ids.nbytes for ids in block._seg_ids) == 8 * entries

    def test_a_watermark_past_the_fill_frees_the_fill_segment(self):
        block = _filled_block()
        fill = weakref.ref(block._seg_ids[0])
        _overwrite(block, np.arange(0, 50, dtype=np.int64), 2)
        _overwrite(block, np.arange(25, 75, dtype=np.int64), 3)
        block.delta(0, True)
        # the fill, and version 2's entries version 3 rewrote
        assert block.compact(watermark=1) == 1000 + 25
        gc.collect()
        assert fill() is None
        assert block._seg_versions == [2, 3]
        assert sum(ids.nbytes for ids in block._seg_ids) == 8 * (25 + 50)

    def test_one_segment_tail_is_the_segment(self):
        """A reader one publish behind gets the segment's own ids: no copy
        and no sort inside the block."""
        block = _filled_block()
        _overwrite(block, np.arange(10, 20, dtype=np.int64), 2)
        segment = block._seg_ids[-1]
        block._memo.clear()
        ids, _ = block._changed(1)
        assert ids is segment
