"""Bounded-staleness degraded serving from the client's last-synced rows.

When no replica set can answer a pull inside its deadline, failing the
request is not the only option: the client has every row it ever synced,
exact as of its own sync point.  :class:`DegradedReadMode` maintains that
cache — per table, ids + payloads + the store version each row was last
written at — and serves it as a :class:`StaleRead` that is *explicit*
about its staleness: a ``degraded=True`` flag, the sync point the rows
are exact as of, and per-row version lag.  The staleness bound is the
contract: a degraded read never serves a row staler than the client's
last successful sync, and never pretends to be fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StaleRead", "DegradedReadMode"]


@dataclass
class StaleRead:
    """One table's rows served from the degraded cache.

    Attributes
    ----------
    table : str
        Table the rows belong to.
    ids : numpy.ndarray of int64
        Cached row ids, ascending.
    rows : numpy.ndarray
        Their payloads as of :attr:`as_of_version`.
    row_versions : numpy.ndarray of int64
        Store version each row was last written at (all at or below
        :attr:`as_of_version` — the staleness bound).
    as_of_version : int
        The client sync point the cache is exact as of.
    current_version : int
        Store version at serve time, when known (else equals
        ``as_of_version``).
    degraded : bool
        Always True; consumers must branch on it explicitly.
    """

    table: str
    ids: np.ndarray
    rows: np.ndarray
    row_versions: np.ndarray
    as_of_version: int
    current_version: int
    degraded: bool = True

    @property
    def staleness_versions(self) -> int:
        """Publish events this read may be behind (the staleness bound)."""
        return max(0, self.current_version - self.as_of_version)

    @property
    def row_staleness(self) -> np.ndarray:
        """Per-row publish lag: ``current_version - row_versions``."""
        return self.current_version - self.row_versions


def _fit_width(rows: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad ``rows`` on the right to ``width`` — what the store does to
    resident rows when a table re-widens (rank growth of ``lora_a/*``)."""
    if rows.shape[1] == width:
        return rows
    return np.pad(rows, ((0, 0), (0, width - rows.shape[1])))


@dataclass
class DegradedReadMode:
    """Client-side last-synced row cache behind degraded serving.

    Updated on every *successful* pull (and only then — a degraded pull
    must not advance the cache, or the staleness accounting would lie),
    and served when the replica set cannot answer inside the deadline.
    """

    _tables: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    as_of_version: int = 0

    @property
    def tables(self) -> list[str]:
        return sorted(self._tables)

    def rows_cached(self, table: str) -> int:
        entry = self._tables.get(table)
        return 0 if entry is None else int(entry[0].size)

    def update(
        self,
        table: str,
        ids: np.ndarray,
        rows: np.ndarray,
        versions: np.ndarray,
        synced_version: int,
    ) -> None:
        """Fold one successful pull's delta into the cache.

        Parameters
        ----------
        table : str
            Table the delta belongs to.
        ids, rows, versions : numpy.ndarray
            The delta rows and the store version each was written at.
        synced_version : int
            The client's new sync point after this pull.
        """
        self.as_of_version = max(self.as_of_version, int(synced_version))
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.asarray(rows)
        versions = np.asarray(versions, dtype=np.int64)
        if ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1])):
            # Unsorted or repeated ids: keep each id's freshest copy (the
            # later one on a version tie), as the store's replica merge does.
            order = np.lexsort((versions, ids))
            by_id = ids[order]
            order = order[np.r_[by_id[1:] != by_id[:-1], True]]
            ids, rows, versions = ids[order], rows[order], versions[order]
        held = self._tables.get(table)
        if held is None:
            # Own copies: later merges overwrite these arrays in place.
            self._tables[table] = (ids.copy(), rows.copy(), versions.copy())
            return
        # Sorted merge, O(delta log cache): an incoming row replaces the
        # held one unless it is older (so replaying a delta is idempotent);
        # only ids the cache has never seen cost a re-allocation.
        held_ids, held_rows, held_versions = held
        width = max(held_rows.shape[1], rows.shape[1])
        held_rows, rows = _fit_width(held_rows, width), _fit_width(rows, width)
        pos = np.searchsorted(held_ids, ids)
        known = pos < held_ids.size
        known[known] = held_ids[pos[known]] == ids[known]
        fresh = known.copy()
        fresh[known] = versions[known] >= held_versions[pos[known]]
        held_rows[pos[fresh]] = rows[fresh]
        held_versions[pos[fresh]] = versions[fresh]
        if not known.all():
            at, new = pos[~known], ~known
            held_ids = np.insert(held_ids, at, ids[new])
            held_rows = np.insert(held_rows, at, rows[new], axis=0)
            held_versions = np.insert(held_versions, at, versions[new])
        self._tables[table] = (held_ids, held_rows, held_versions)

    def serve(self, table: str, current_version: int | None = None) -> StaleRead:
        """Serve one table's cached rows with explicit staleness accounting.

        Parameters
        ----------
        table : str
            Table to serve; an unseen table serves an empty (but still
            explicitly degraded) result.
        current_version : int, optional
            The store version at serve time, for the staleness bound;
            defaults to the cache's own sync point.
        """
        entry = self._tables.get(table)
        if entry is None:
            entry = (
                np.empty(0, dtype=np.int64),
                np.zeros((0, 1), dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        current = (
            self.as_of_version if current_version is None else int(current_version)
        )
        # Copies: the cache merges in place, a served read must not move.
        return StaleRead(
            table=table,
            ids=entry[0].copy(),
            rows=entry[1].copy(),
            row_versions=entry[2].copy(),
            as_of_version=self.as_of_version,
            current_version=current,
        )
