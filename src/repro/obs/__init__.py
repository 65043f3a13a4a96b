"""Clocks for the simulated timelines.

``repro.obs`` holds no process-wide state: components keep their counts
in their own reports and logs (``ShardClient.push_log`` / ``pull_log``,
``SLAMonitor.reports``, ``FaultPlane.injected``, ``RepairReport``...).
What it exports is :class:`SimClock`, the manually advanced timeline a
:class:`~repro.cluster.resilience.policy.ResiliencePolicy` stamps its
backoffs, hedges and breaker cool-downs against.
"""

from .clock import SimClock

__all__ = ["SimClock"]
