"""Typed failures of the resilient client plane.

Every failure a consumer can see is a named class with structured
attributes — never a leaked internal (`KeyError`, raw `RuntimeError`) and
never a silent empty result.  :class:`DegradedReadError` reports a read
a client without a resilience policy could not serve *provably fresh*
(not enough live replica owners to intersect every write quorum),
carrying enough context to decide whether serving the last applied rows
is acceptable.  A resilient client reports the same case as a
``degraded=True`` pull instead.
"""

from __future__ import annotations

__all__ = ["ResilienceError", "DegradedReadError"]


class ResilienceError(RuntimeError):
    """Base class for resilient-client-plane failures."""


class DegradedReadError(ResilienceError):
    """A read could not be served provably fresh.

    Raised by a client without a resilience policy when too many replica
    owners are unreachable for the answered set to intersect every write
    quorum (so an acknowledged publish could be missing).

    Attributes
    ----------
    tables : list of str
        Tables the failed read covered.
    synced_version : int
        The caller's sync point, which did not move — the rows it last
        applied are exact as of this version.
    current_version : int
        The store version at failure time; ``current_version -
        synced_version`` bounds the staleness in publish events.
    reason : str
        Machine-readable cause (``"coverage"``, ``"deadline"``, ...).
    """

    def __init__(
        self,
        tables: list[str],
        synced_version: int,
        current_version: int,
        reason: str = "coverage",
    ) -> None:
        lag = current_version - synced_version
        super().__init__(
            f"read of {tables!r} cannot be served fresh ({reason}); "
            f"client sync point v{synced_version} is {lag} publish(es) "
            f"behind v{current_version}"
        )
        self.tables = list(tables)
        self.synced_version = synced_version
        self.current_version = current_version
        self.reason = reason

    @property
    def staleness_versions(self) -> int:
        """Publish events between the sync point and the store version."""
        return self.current_version - self.synced_version
