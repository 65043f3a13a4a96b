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

from ...core.kernels import freshest_per_id

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


#: ``(ids, rows, versions)`` of one table.
_Slice = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class _TableCache:
    """One table's cache: the folded *held* rows (ids ascending and
    unique) plus the deltas appended since the last fold, in arrival
    order."""

    held: _Slice
    pending: list[_Slice] = field(default_factory=list)
    pending_rows: int = 0

    def fold(self) -> _Slice:
        """Merge the pending deltas into the held rows and return them."""
        if self.pending:
            parts = [self.held, *self.pending]
            width = max(part[1].shape[1] for part in parts)
            self.held = freshest_per_id(
                np.concatenate([part[0] for part in parts]),
                np.concatenate([_fit_width(part[1], width) for part in parts]),
                np.concatenate([part[2] for part in parts]),
            )
            self.pending, self.pending_rows = [], 0
        return self.held


@dataclass
class DegradedReadMode:
    """Client-side last-synced row cache behind degraded serving.

    Updated on every *successful* pull (and only then — a degraded pull
    must not advance the cache, or the staleness accounting would lie),
    and served when the replica set cannot answer inside the deadline.

    An update only appends a copy of its delta; the pending deltas fold
    into the held rows — one stable sort keeping each id's freshest copy,
    a later copy winning a tie (:func:`~repro.core.kernels.freshest_per_id`)
    — once they outnumber the held rows, or on a read.  A pull therefore
    costs its delta, not the cache: each row is re-sorted O(log n) times
    over its life, and the cache holds at most twice its rows.
    """

    _tables: dict[str, _TableCache] = field(default_factory=dict)
    as_of_version: int = 0

    @property
    def tables(self) -> list[str]:
        return sorted(self._tables)

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
            The delta rows and the store version each was written at; any
            order, repeats allowed.  Copied, never adopted.
        synced_version : int
            The client's new sync point after this pull.
        """
        self.as_of_version = max(self.as_of_version, int(synced_version))
        entry = self._tables.get(table)
        # The first delta fixes the table's row lane; later ones cast to it.
        dtype = None if entry is None else entry.held[1].dtype
        delta = (
            np.array(ids, dtype=np.int64),
            np.array(rows, dtype=dtype),
            np.array(versions, dtype=np.int64),
        )
        if entry is None:
            empty = np.empty(0, dtype=np.int64)
            held = (empty, delta[1][:0], empty)
            entry = self._tables[table] = _TableCache(held)
        entry.pending.append(delta)
        # An empty delta counts as one row, so empty pulls cannot pile up.
        entry.pending_rows += max(delta[0].size, 1)
        if entry.pending_rows > entry.held[0].size:
            entry.fold()

    def serve(self, table: str, current_version: int | None = None) -> StaleRead:
        """Serve one table's cached rows with explicit staleness accounting.

        Parameters
        ----------
        table : str
            Table to serve; it must have been updated at least once.
        current_version : int, optional
            The store version at serve time, for the staleness bound;
            defaults to the cache's own sync point.

        Raises
        ------
        KeyError
            When the cache never held ``table``.
        """
        ids, rows, versions = self._tables[table].fold()
        current = (
            self.as_of_version if current_version is None else int(current_version)
        )
        # Copies: a caller editing its read must not edit the cache.
        return StaleRead(
            table=table,
            ids=ids.copy(),
            rows=rows.copy(),
            row_versions=versions.copy(),
            as_of_version=self.as_of_version,
            current_version=current,
        )
