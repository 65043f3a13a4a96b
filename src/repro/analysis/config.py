"""Rule scopes: which modules are hot, decide placement, or simulate.

These tuples encode this repo's invariants — which modules are *hot*
(no per-element Python, explicit dtypes), which modules decide
*placement* (builtin ``hash()`` banned), and where simulated time is the
only clock.  Scopes are fnmatch patterns over dotted module names as
produced by :func:`repro.analysis.context.module_name_for`, so the same
patterns address ``src`` packages (``repro.core.kernels``) and the
sibling trees (``tests.*``, ``benchmarks.*``, ``examples.*``).
"""

from __future__ import annotations

__all__ = [
    "HOT_MODULES",
    "PLACEMENT_MODULES",
    "SIM_MODULES",
    "PUBLIC_API_MODULES",
    "FAULT_MODULES",
    "DTYPE_CONSTRUCTORS",
]

# Modules declared hot: every per-element Python loop is a regression
# unless explicitly suppressed with a reason, and every array constructor
# must pin its dtype.  Each entry cites its largest self-time share of a
# whole-process, untraced ``python -m cProfile benchmarks/e2e/run.py
# --workload W --seed 0 --seconds 10`` (2 vCPUs, NumPy 2.4.6); a module
# under 1 % on every workload leaves.  ``repro.core.kernels`` and
# ``repro.cluster.shardstore.*`` stay regardless: the zero-suppression
# policy (docs/lint.md) names them.
HOT_MODULES: tuple[str, ...] = (
    "repro.core.kernels",  # 6.6 % fleet_sync
    "repro.core.lora",  # 3.2 % fleet_sync
    "repro.data.zipf",  # 26.5 % colo_window
    "repro.hardware.reuse",  # 10.7 % colo_window
    "repro.hardware.vectorcache",  # 35.8 % colo_window
    "repro.serving.engine",  # 5.4 % colo_window
    "repro.cluster.shardstore.*",  # 5.3 % delta_sync (shard; store 3.9 %)
    "repro.dlrm.embedding",  # 3.2 % fleet_sync
    "repro.dlrm.mlp",  # 15.8 % delta_sync
    "repro.dlrm.interaction",  # 3.6 % fleet_sync
    "repro.dlrm.model",  # 2.8 % fleet_sync
    "repro.dlrm.optim",  # 3.3 % delta_sync
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
