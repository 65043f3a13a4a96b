"""Lint configuration: hot-path modules, rule scopes, rule selection.

The defaults encode this repo's invariants — which modules are *hot*
(no per-element Python, explicit dtypes), which modules decide
*placement* (builtin ``hash()`` banned), and where simulated time is the
only clock.  Scopes are fnmatch patterns over dotted module names as
produced by :func:`repro.analysis.context.module_name_for`, so the same
patterns address ``src`` packages (``repro.core.kernels``) and the
sibling trees (``tests.*``, ``benchmarks.*``, ``examples.*``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "HOT_MODULES",
    "PLACEMENT_MODULES",
    "SIM_MODULES",
    "PUBLIC_API_MODULES",
    "FAULT_MODULES",
    "DTYPE_CONSTRUCTORS",
    "SANCTIONED_HASHES",
    "LintConfig",
]

# Modules declared hot: every per-element Python loop is a regression
# unless explicitly suppressed with a reason, and every array constructor
# must pin its dtype.  Mirrors the PR-1/PR-4/PR-5 vectorization work plus
# the modules the repo benchmark (``benchmarks/e2e``) shows are hot: the
# inference-side LoRA step, its overlay, pruning, the hot filter, the
# synchronizer, the inference-log ring and the serving-window simulator.
HOT_MODULES: tuple[str, ...] = (
    "repro.core.kernels",
    "repro.core.trainer",
    "repro.core.lora",
    "repro.core.pruning",
    "repro.core.hot_index",
    "repro.core.sync",
    "repro.data.stream",
    "repro.data.zipf",
    "repro.hardware.reuse",
    "repro.hardware.vectorcache",
    "repro.serving.engine",
    # route and replica_assign (the replicated store's owner lookup) are
    # 5-6 % self time of live_serve and colo_window (traced, seed 0,
    # --seconds 10).
    "repro.serving.router",
    "repro.cluster.shardstore.*",
    "repro.dlrm.embedding",
    "repro.dlrm.mlp",
    "repro.dlrm.interaction",
    "repro.dlrm.model",
    "repro.dlrm.optim",
    # auc_roc scores every window of live_serve, delta_sync and fleet_sync:
    # its scalar midrank loop was 3.7 s of a 28.9 s live_serve run
    # (whole-process cProfile, seed 0, --seconds 10).
    "repro.dlrm.metrics",
    "repro.obs.metrics",
)

# Modules whose decisions must be byte-identical across processes:
# request routing, shard placement, hashing kernels.  The salted builtin
# ``hash()`` broke exactly these twice (PR 1 routing, PR 2 placement).
PLACEMENT_MODULES: tuple[str, ...] = (
    "repro.serving.router",
    "repro.cluster.shardstore.*",
    "repro.core.kernels",
    "repro.core.hot_index",
    "repro.hardware.vectorcache",
)

# Simulation/model code: wall-clock reads would make simulated timelines
# host-dependent.  Everything under ``src`` counts; benchmarks and
# examples may time themselves.
SIM_MODULES: tuple[str, ...] = ("repro", "repro.*")

# Public modules that must carry a docstring and a resolvable ``__all__``.
PUBLIC_API_MODULES: tuple[str, ...] = ("repro", "repro.*")

# Modules where swallowing an exception can hide a lost write or a dead
# replica: retry loops, fault handling, and everything that models them.
# Bare ``except:`` and blanket ``except Exception`` handlers there must
# name the exception and re-raise or record it (tests are exempt — they
# assert on exceptions in ways that look like swallowing).
FAULT_MODULES: tuple[str, ...] = (
    "repro",
    "repro.*",
    "benchmarks.*",
    "examples.*",
)

# numpy constructors that must pass an explicit ``dtype=`` in hot modules.
DTYPE_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "numpy.zeros",
        "numpy.empty",
        "numpy.ones",
        "numpy.full",
        "numpy.arange",
        "numpy.asarray",
    }
)

# The process-stable hash family that replaces the builtin ``hash()``.
SANCTIONED_HASHES: tuple[str, ...] = (
    "repro.core.kernels.splitmix64",
    "repro.core.kernels.hash_combine",
    "repro.core.kernels.stable_str_hash",
)


@dataclass
class LintConfig:
    """Which rules one lint run applies.

    Attributes:
        disabled: rule names switched off entirely.
        selected: when non-empty, *only* these rules run.
    """

    disabled: frozenset[str] = frozenset()
    selected: frozenset[str] = frozenset()

    def rule_enabled(self, name: str) -> bool:
        """Whether rule ``name`` participates in this run."""
        if name in self.disabled:
            return False
        return not self.selected or name in self.selected
