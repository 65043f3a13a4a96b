"""LiveUpdate core: LoRA adapters, dynamic rank adaptation, usage-based
pruning, the inference-side trainer, hot-index filtering, sparse
data-parallel synchronization, and the tiered update strategy.

Kernel layer
------------
The id-granular hot paths (LoRA slot translation, hot-index membership,
consistent-hash routing) are built on :mod:`repro.core.kernels`: a
process-stable :func:`~repro.core.kernels.splitmix64` hash, the
array-native :class:`~repro.core.kernels.IdSlotTable` id -> slot map,
the duplicate-id scatter-add :func:`~repro.core.kernels.group_rows_sum`
and the epoch-stamped
:class:`~repro.core.kernels.TouchedRows` delta tracker.  Every per-batch
operation above them — ``delta_rows``, ``apply_to``, ``accumulate_grad``,
``is_hot``, ``mark``, ``route``, embedding forward/backward — is
expressed as gather/scatter + batched matmuls over whole arrays, with no
per-id Python loop.  ``tests/test_kernels_equivalence.py`` and
``tests/test_dlrm_vectorized.py`` pin them to the per-id reference
implementations they replaced.

Lazy imports
------------
Submodules load on first attribute access (PEP 562) rather than at
package import.  ``repro.core.kernels`` sits *below* the DLRM substrate
(``repro.dlrm.embedding`` pools and stamps through it), while
``repro.core.trainer`` and friends sit *above* it — eager package-level
imports would turn that layering into an import cycle.
"""

from __future__ import annotations

import importlib

# Public name -> defining submodule.  Resolved lazily on first access.
_EXPORTS = {
    "as_int64_ids": "dtypes",
    "as_uint64_keys": "dtypes",
    "as_float64_rows": "dtypes",
    "splitmix64": "kernels",
    "hash_combine": "kernels",
    "stable_str_hash": "kernels",
    "sorted_find": "kernels",
    "IdSlotTable": "kernels",
    "group_rows_sum": "kernels",
    "freshest_per_id": "kernels",
    "TouchedRows": "kernels",
    "LoRAAdapter": "lora",
    "LoRACollection": "lora",
    "cumulative_variance": "rank_adaptation",
    "rank_for_variance": "rank_adaptation",
    "RankMonitor": "rank_adaptation",
    "UsageTracker": "pruning",
    "PruneDecision": "pruning",
    "dynamic_tau_from_counts": "pruning",
    "HotIndexFilter": "hot_index",
    "LoRATrainer": "trainer",
    "TrainerConfig": "trainer",
    "TrainerReport": "trainer",
    "SparseLoRASynchronizer": "sync",
    "SyncReport": "sync",
    "priority_merge_rows": "sync",
    "average_merge_rows": "sync",
    "DriftMonitor": "drift",
    "DriftSample": "drift",
    "AdaptiveSyncPolicy": "drift",
    "LiveUpdate": "liveupdate",
    "LiveUpdateConfig": "liveupdate",
}

_SUBMODULES = frozenset(
    {
        "drift",
        "dtypes",
        "hot_index",
        "kernels",
        "liveupdate",
        "lora",
        "pruning",
        "rank_adaptation",
        "sync",
        "trainer",
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
