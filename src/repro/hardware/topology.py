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

MB = 1024 ** 2
CORES_PER_CCD = 8
L3_BYTES_PER_CCD = 96 * MB
DRAM_GBPS_PER_SOCKET = 460.8  # 12 x DDR5-4800 channels @ 38.4 GB/s


@dataclass(frozen=True)
class CCD:
    """One Core Complex Die: ``CORES_PER_CCD`` cores sharing a private
    ``L3_BYTES_PER_CCD`` L3 slice."""

    ccd_id: int
    socket_id: int


@dataclass(frozen=True)
class Socket:
    """One CPU package."""

    socket_id: int
    ccds: tuple[CCD, ...]

    @property
    def num_cores(self) -> int:
        return CORES_PER_CCD * len(self.ccds)

    @property
    def total_l3_bytes(self) -> int:
        return L3_BYTES_PER_CCD * len(self.ccds)


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

    @property
    def num_cores(self) -> int:
        return sum(s.num_cores for s in self.sockets)

    @property
    def total_l3_bytes(self) -> int:
        return sum(s.total_l3_bytes for s in self.sockets)

    @property
    def total_dram_bandwidth_gbps(self) -> float:
        return DRAM_GBPS_PER_SOCKET * len(self.sockets)


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
