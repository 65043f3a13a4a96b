"""The flat ``(version, id)`` delta log a table block kept before its log
became a list of publish segments.

Two parallel lanes, one entry per logged id, sorted by version by
construction (an ingest re-sorts stably); rows, versions and primary bits
live in a dict per id.  Every operation is the former block's algorithm
written out plainly, so ``tests/test_shardstore_segment_log.py`` can check
the segment log's delta reads and compaction counts against it.
"""

import numpy as np


class FlatDeltaLog:
    def __init__(self, dim: int, dtype) -> None:
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self.log_versions = np.empty(0, dtype=np.int64)
        self.log_ids = np.empty(0, dtype=np.int64)
        self.log_floor = 0
        # id -> [row, version, primary]
        self.resident: dict[int, list] = {}

    def _append(self, versions, ids) -> None:
        self.log_versions = np.concatenate([self.log_versions, versions])
        self.log_ids = np.concatenate([self.log_ids, ids])

    def publish(self, ids, rows, version, primary) -> None:
        for i, row, p in zip(ids.tolist(), rows, primary.tolist()):
            self.resident[i] = [row.astype(self.dtype), version, p]
        self._append(np.full(ids.size, version, dtype=np.int64), ids)

    def ingest(self, ids, rows, versions, primary) -> None:
        for i, row, v, p in zip(ids.tolist(), rows, versions.tolist(), primary.tolist()):
            self.resident[i] = [row.astype(self.dtype), v, p]
        self._append(np.asarray(versions, dtype=np.int64), ids)
        order = np.argsort(self.log_versions, kind="stable")
        self.log_versions = self.log_versions[order]
        self.log_ids = self.log_ids[order]

    def drop(self, ids) -> np.ndarray:
        """Evicts the resident ones among ``ids``; returns them."""
        gone = np.array([i for i in ids.tolist() if i in self.resident], dtype=np.int64)
        for i in gone.tolist():
            del self.resident[i]
        keep = ~np.isin(self.log_ids, gone)
        self.log_versions = self.log_versions[keep]
        self.log_ids = self.log_ids[keep]
        return gone

    def rewiden(self, dim: int) -> None:
        if dim <= self.dim:
            return
        for entry in self.resident.values():
            entry[0] = np.pad(entry[0], (0, dim - self.dim))
        self.dim = dim

    def compact(self, watermark=None) -> int:
        n = self.log_ids.size
        if n == 0:
            if watermark is not None:
                self.log_floor = max(self.log_floor, watermark)
            return 0
        _, last_rev = np.unique(self.log_ids[::-1], return_index=True)
        keep = np.sort(n - 1 - last_rev)
        if watermark is not None:
            keep = keep[self.log_versions[keep] > watermark]
            self.log_floor = max(self.log_floor, watermark)
        self.log_versions = self.log_versions[keep]
        self.log_ids = self.log_ids[keep]
        return n - keep.size

    def delta(self, since, primary_only):
        """``(ids, rows, versions)`` changed after ``since``, ids ascending."""
        if since < self.log_floor:
            ids = sorted(i for i, e in self.resident.items() if e[1] > since)
        else:
            ids = np.unique(self.log_ids[self.log_versions > since]).tolist()
        if primary_only:
            ids = [i for i in ids if self.resident[i][2]]
        rows = np.zeros((len(ids), self.dim), dtype=self.dtype)
        for k, i in enumerate(ids):
            rows[k] = self.resident[i][0]
        versions = np.array([self.resident[i][1] for i in ids], dtype=np.int64)
        return np.array(ids, dtype=np.int64), rows, versions
