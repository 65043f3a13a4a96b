"""Store-wide reads the replicated shard store no longer serves itself.

``ShardedParameterStore.pull_rows`` (freshest live copy per point id) and
the convergence audit ``check_replica_convergence`` were the store's
answer to "what does every replica hold".  No workload reads rows by id
or audits replicas, so both left ``src/``; the tests keep them as the
oracles the delta path and repair are checked against.  Both read
through the shards' own ``pull_rows_versions`` / ``export_table``.
``staged_rows`` counts what a client holds for its next flush, which the
tests check survives a refused publish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def staged_rows(client) -> int:
    """Rows staged on a ``ShardClient`` and not yet flushed."""
    return sum(ids.size for parts in client._staged.values() for ids, _ in parts)


def pull_rows(store, table: str, indices) -> tuple[np.ndarray, np.ndarray]:
    """``(found, rows)``: the freshest live replica's copy of each id.

    Rows a live owner misses read as zeros with ``found`` False.
    """
    indices = np.asarray(indices, dtype=np.int64)
    mask = np.zeros(indices.size, dtype=bool)
    out = np.zeros((indices.size, store.dim_of(table)), dtype=store.row_dtype)
    if indices.size == 0:
        return mask, out
    owners = store.placement.replica_owners(table, indices, store.replication)
    best = np.zeros(indices.size, dtype=np.int64)
    live = set(store.live_shard_ids)
    for k in range(store.replication):
        col = owners[:, k]
        for sid in np.unique(col):
            if int(sid) not in live:
                continue
            sel = np.flatnonzero(col == sid)
            result = store.shards[int(sid)].pull_rows_versions(
                table, indices[sel]
            )
            if result is None:
                continue
            found, rows, versions = result
            fresher = found & (versions > best[sel])
            sub = sel[fresher]
            mask[sub] = True
            out[sub] = rows[fresher]
            best[sub] = versions[fresher]
    return mask, out


@dataclass
class ReplicaConvergenceReport:
    """Result of one store-level replica convergence sweep."""

    tables_checked: int
    copies_checked: int
    missing_copies: int
    version_mismatches: int
    byte_mismatches: int

    @property
    def converged(self) -> bool:
        """True when every live replica holds a byte-identical, correctly
        versioned copy of every row it owns."""
        return (
            self.missing_copies == 0
            and self.version_mismatches == 0
            and self.byte_mismatches == 0
        )

    @property
    def summary(self) -> str:
        status = "CONVERGED" if self.converged else "DIVERGED"
        return (
            f"{status}: {self.copies_checked} copies over "
            f"{self.tables_checked} tables "
            f"(missing {self.missing_copies}, "
            f"stale {self.version_mismatches}, "
            f"byte-diff {self.byte_mismatches})"
        )


def check_replica_convergence(store, tables=None) -> ReplicaConvergenceReport:
    """Audit a replicated parameter store's copies against each other.

    For every ``(table, row)`` the reconciled truth is the
    highest-versioned copy on any live shard, and every live shard owning
    that row (at any replica rank) must hold it at exactly that version
    with bit-identical bytes.  After ``store.repair()`` this must report
    converged: the replication protocol's acceptance bar, asserted by the
    chaos suites.  Down shards are skipped.
    """
    live = store.live_shard_ids
    if tables is None:
        tables = sorted({t for sid in live for t in store.shards[sid].tables})
    copies_checked = 0
    missing = 0
    stale = 0
    byte_diff = 0
    for table in tables:
        parts = []
        for sid in live:
            exported = store.shards[sid].export_table(table)
            if exported is not None and exported[0].size:
                parts.append(exported)
        if not parts:
            continue
        ids = np.concatenate([p[0] for p in parts])
        rows = np.concatenate([p[1] for p in parts], axis=0)
        versions = np.concatenate([p[2] for p in parts])
        order = np.lexsort((versions, ids))
        ids, rows, versions = ids[order], rows[order], versions[order]
        last = np.r_[ids[1:] != ids[:-1], True]
        truth_ids, truth_rows, truth_versions = (
            ids[last],
            rows[last],
            versions[last],
        )
        owners = store.placement.replica_owners(
            table, truth_ids, store.replication
        )
        for sid in live:
            owned = (owners == sid).any(axis=1)
            if not owned.any():
                continue
            want_ids = truth_ids[owned]
            copies_checked += int(want_ids.size)
            result = store.shards[sid].pull_rows_versions(
                table, want_ids, charge=False
            )
            if result is None:
                missing += int(want_ids.size)
                continue
            found, got_rows, got_versions = result
            missing += int((~found).sum())
            stale += int((found & (got_versions != truth_versions[owned])).sum())
            want_rows = np.ascontiguousarray(truth_rows[owned])
            same_bits = np.all(
                got_rows.view(np.uint8).reshape(got_rows.shape[0], -1)
                == want_rows.view(np.uint8).reshape(want_rows.shape[0], -1),
                axis=1,
            )
            byte_diff += int((found & ~same_bits).sum())
    return ReplicaConvergenceReport(
        tables_checked=len(tables),
        copies_checked=copies_checked,
        missing_copies=missing,
        version_mismatches=stale,
        byte_mismatches=byte_diff,
    )
