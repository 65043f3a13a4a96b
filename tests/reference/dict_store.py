"""The seed parameter server: one Python dict entry per row.

``pull_delta`` scans every key of every table, so its cost tracks the
resident table, not the delta.  ``ShardedParameterStore`` replaced it;
``tests/test_shardstore.py`` checks the two return the same deltas.  The
seed's per-key shard lookup is left out: its builtin-``hash()`` placement
was nondeterministic and no delta depends on it.
"""

import numpy as np


class SeedDictStore:
    def __init__(self) -> None:
        self.version = 0
        self._rows: dict[tuple[str, int], np.ndarray] = {}
        self._row_version: dict[tuple[str, int], int] = {}

    def publish_batch(self, table, indices, rows) -> int:
        indices = np.asarray(indices, dtype=np.int64)
        self.version += 1
        for i, row in zip(indices, rows):
            key = (table, int(i))
            self._rows[key] = np.array(row, dtype=np.float64, copy=True)
            self._row_version[key] = self.version
        return self.version

    def pull_delta(self, table, since_version):
        hits = [
            (key[1], self._rows[key])
            for key, ver in self._row_version.items()
            if key[0] == table and ver > since_version
        ]
        if not hits:
            return np.array([], dtype=np.int64), np.zeros((0, 1)), self.version
        hits.sort(key=lambda kv: kv[0])
        indices = np.array([h[0] for h in hits], dtype=np.int64)
        rows = np.stack([h[1] for h in hits])
        return indices, rows, self.version
