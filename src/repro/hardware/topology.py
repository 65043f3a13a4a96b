"""CPU topology model: sockets, Core Complex Dies (CCDs), cores, L3 caches.

The paper's inference nodes are dual-socket AMD EPYC 9684X machines: each CPU
has 8 CCDs with 96 MB of private L3 (768 MB per socket).  Although CCDs are
not exposed as hardware NUMA nodes, the paper treats each CCD as a logical
isolation unit; the topology model does the same, which is all the
NUMA-aware scheduler (Algorithm 2) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CCD", "Socket", "NodeTopology", "EPYC_9684X_DUAL"]


@dataclass(frozen=True)
class CCD:
    """One Core Complex Die: 8 cores sharing a private 96 MB L3 slice."""

    ccd_id: int
    socket_id: int


@dataclass(frozen=True)
class Socket:
    """One CPU package."""

    socket_id: int
    ccds: tuple[CCD, ...]


@dataclass(frozen=True)
class NodeTopology:
    """A full inference node: its sockets."""

    sockets: tuple[Socket, ...]

    @property
    def ccds(self) -> tuple[CCD, ...]:
        return tuple(c for s in self.sockets for c in s.ccds)

    @property
    def num_ccds(self) -> int:
        return len(self.ccds)


def _build_epyc_dual() -> NodeTopology:
    sockets = []
    ccd_id = 0
    for sid in range(2):
        ccds = []
        for _ in range(8):
            ccds.append(CCD(ccd_id=ccd_id, socket_id=sid))
            ccd_id += 1
        sockets.append(Socket(socket_id=sid, ccds=tuple(ccds)))
    return NodeTopology(sockets=tuple(sockets))


#: The paper's evaluation node: 2 x EPYC 9684X (8 CCDs x 96 MB L3 each),
#: 12 TB DDR5, 4 x H100.
EPYC_9684X_DUAL = _build_epyc_dual()
