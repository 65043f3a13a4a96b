"""Fleet request routing.

Production serving shards traffic across inference nodes by consistent
hashing of a routing key (user/session).  Routing
is what creates the *node-local traffic distributions* LiveUpdate's local
trainers adapt to, and what the EMT partitioning in Fig. 2 assumes.

Hashing is :func:`repro.core.kernels.splitmix64`, never the builtin
``hash()``: the builtin is salted per process (``PYTHONHASHSEED``), which
would give every fleet member a different ring layout and make routing
decisions irreproducible across processes.  :meth:`route` is one
vectorised hash + a lookup in a jump table of ``2**_JT_BITS`` buckets over
the top bits of the 32-bit ring hash: a bucket that holds no ring point
stores its successor's ring index outright, and only keys that land in
one of the (at most ring-size) buckets holding a point fall back to
``np.searchsorted``.  Every request goes to its home node, with no
load-aware spillover, so :attr:`RouterStats.spill_ratio` is always 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dtypes import as_uint64_keys
from ..core.kernels import hash_combine, splitmix64

__all__ = ["RouterStats", "ConsistentHashRouter"]

# Fixed salt for request-key hashing: key placement is independent of the
# ring seed so alternative ring layouts stay comparable.
_KEY_SEED = 0x517CC1B7
# Ring points per physical node (smooths the split), and the ring's hash
# seed: every process of a deployment builds the same ring.
_VIRTUAL_NODES = 64
_RING_SEED = 0
# Jump-table buckets are the top _JT_BITS bits of a 32-bit ring hash.
_JT_BITS = 16
_JT_SHIFT = np.uint64(32 - _JT_BITS)


@dataclass
class RouterStats:
    """Routing outcome counters."""

    routed: int = 0

    @property
    def spill_ratio(self) -> float:
        """Share of requests sent past their home node: none, ever."""
        return 0.0


class ConsistentHashRouter:
    """Consistent-hash ring with ``_VIRTUAL_NODES`` points per node.

    Args:
        node_ids: physical inference nodes.
    """

    def __init__(self, node_ids: list[int]) -> None:
        if not node_ids:
            raise ValueError("need at least one node")
        self.node_ids = list(node_ids)
        nodes = np.repeat(np.asarray(self.node_ids, dtype=np.int64), _VIRTUAL_NODES)
        replicas = np.tile(
            np.arange(_VIRTUAL_NODES, dtype=np.int64), len(self.node_ids)
        )
        # deterministic ring position per (node, replica), stable across
        # processes; ties broken by node id for a reproducible ring order
        keys = hash_combine(nodes, replicas, _RING_SEED) % np.uint64(1 << 32)
        order = np.lexsort((nodes, keys))
        self._ring_keys = keys[order]
        self._ring_nodes = nodes[order]
        # dense per-node position for the replica tables
        self._nodes_sorted = np.unique(np.asarray(self.node_ids, dtype=np.int64))
        self._ring_node_pos = np.searchsorted(self._nodes_sorted, self._ring_nodes)
        self._jump = self._jump_table()
        self._replica_tables: dict[int, np.ndarray] = {}
        self.stats = RouterStats()

    # ---------------------------------------------------------------- basics
    def _jump_table(self) -> np.ndarray:
        """Ring index per hash bucket; ``-1`` where a bucket holds a point.

        A bucket with no ring point sends every hash in it to the first
        ring point past the bucket (wrapping to 0), which is exactly what
        ``searchsorted`` answers for any hash inside it.  The first point
        at or past each bucket start is the exclusive cumsum of the
        per-bucket point counts, so the table takes no search at all.
        """
        counts = np.bincount(
            (self._ring_keys >> _JT_SHIFT).astype(np.intp), minlength=1 << _JT_BITS
        )
        first = np.cumsum(counts) - counts
        first[first == self._ring_keys.size] = 0
        first[counts > 0] = -1
        return first.astype(np.int32)

    def _key_hashes(self, routing_keys) -> np.ndarray:
        # Checked coercion, the only one per call: the old bare
        # `.astype(np.int64)` accepted float keys, and a float64 detour
        # collapses every integer above 2**53 onto its even neighbour —
        # two distinct users silently sharing a ring position.  Floats
        # raise; integer keys keep their exact 64-bit pattern (uint64
        # included, wrap-identical to the previous int64 round-trip).
        # The uint64 copy stays a temporary of the hash: held for a whole
        # route it raised a 100k-key route's peak RSS by 0.8 MB.
        keys = as_uint64_keys(routing_keys, name="routing_keys").reshape(-1)
        return splitmix64(keys, _KEY_SEED) % np.uint64(1 << 32)

    def _ring_indices(self, routing_keys) -> np.ndarray:
        """Ring index of the first point at or past each key's hash."""
        hashes = self._key_hashes(routing_keys)
        idx = self._jump[(hashes >> _JT_SHIFT).astype(np.intp)]
        search = np.flatnonzero(idx < 0)
        if search.size:
            found = np.searchsorted(self._ring_keys, hashes[search])
            found[found == self._ring_keys.size] = 0
            idx[search] = found
        return idx

    def route(self, routing_keys: np.ndarray) -> np.ndarray:
        """Vector routing; returns the home node id per request."""
        if np.size(routing_keys) == 0:
            return np.empty(0, dtype=np.int64)
        idx = self._ring_indices(routing_keys)
        self.stats.routed += idx.size
        return self._ring_nodes[idx]

    def reset_window(self) -> None:
        """Start a new accounting window: a no-op, as routing keeps no
        per-window load (window-driven callers need no branch)."""

    # ------------------------------------------------------------ replication
    def _replica_table(self, r: int) -> np.ndarray:
        """``(ring_size, r)`` successor-owner table, built once per ``r``.

        Row ``i`` lists the first ``r`` *distinct* node ids encountered
        walking the ring clockwise from ring slot ``i`` (the slot's own
        node first).  Built fully vectorized: for each node, one
        ``searchsorted`` gives the cyclic distance from every ring slot
        to that node's next slot; an argsort over those distances orders
        the nodes by ring proximity.  Distances are distinct per slot
        (each ring slot belongs to exactly one node), so the order — and
        therefore replica placement — is deterministic in every process.
        """
        cached = self._replica_tables.get(r)
        if cached is not None:
            return cached
        num_nodes = self._nodes_sorted.size
        if not 1 <= r <= num_nodes:
            raise ValueError(
                f"replica count {r} must be in [1, {num_nodes}]"
            )
        ring_size = self._ring_nodes.size
        slots = np.arange(ring_size, dtype=np.int64)
        dist = np.empty((ring_size, num_nodes), dtype=np.int64)
        for pos in range(num_nodes):
            owned = np.flatnonzero(self._ring_node_pos == pos)
            nxt = np.searchsorted(owned, slots, side="left")
            wrapped = nxt == owned.size
            nxt = np.where(wrapped, 0, nxt)
            dist[:, pos] = owned[nxt] + wrapped * ring_size - slots
        order = np.argsort(dist, axis=1)[:, :r]
        table = self._nodes_sorted[order]
        self._replica_tables[r] = table
        return table

    def replica_assign(self, routing_keys: np.ndarray, r: int) -> np.ndarray:
        """First ``r`` distinct owners clockwise from each key's position.

        Pure ring placement: column 0 equals :meth:`route`, and columns 1..r-1 are
        the successor owners a replicated store writes to.  Analysis-only:
        neither window load nor :attr:`stats` move.

        Parameters
        ----------
        routing_keys : numpy.ndarray
            Keys to place.
        r : int
            Distinct owners per key; must not exceed the node count.

        Returns
        -------
        numpy.ndarray of int64
            ``(len(routing_keys), r)`` owner node ids per key.
        """
        table = self._replica_table(r)
        if np.size(routing_keys) == 0:
            return np.empty((0, r), dtype=np.int64)
        return table[self._ring_indices(routing_keys)]

    def replica_owner_table(self, r: int) -> np.ndarray:
        """The full ``(ring_size, r)`` successor-owner table for ``r``.

        One row per ring slot, listing the ``r`` distinct owners walking
        clockwise from it (slot's own node first).  Every possible
        replica set appears as some row, so coverage questions ("does a
        set of live nodes intersect every write quorum?") reduce to a
        vectorized membership test over this table instead of a
        per-key walk.  Read-only: callers must not mutate the result.
        """
        return self._replica_table(r)
