"""Experiment drivers: one module per paper figure/table family.

* :mod:`.accuracy` — Table III, Fig. 15 (and the shared serving harness)
* :mod:`.factories` — canonical strategy lineup
* :mod:`.update_cost` — Fig. 14, Fig. 8
* :mod:`.freshness` — Fig. 3a, Fig. 3b, Fig. 12
* :mod:`.utilization` — Fig. 4, Fig. 5, Fig. 18
* :mod:`.lowrank` — Fig. 6
* :mod:`.memory` — Fig. 17
* :mod:`.sync_interval` — Fig. 9, Fig. 19
"""

from .accuracy import (
    AccuracyConfig,
    StrategyRun,
    TimelinePoint,
    auc_improvement_table,
    build_pretrained_world,
    run_comparison,
    run_strategy,
)
from .factories import (
    delta_update,
    live_update,
    no_update,
    quick_update,
    standard_lineup,
)
from .freshness import (
    DecayPoint,
    UpdateRatioPoint,
    access_distribution,
    measure_update_ratio,
    staleness_decay_curve,
)
from .lowrank import GradientSpectrum, collect_gradient_spectra, spread_extremes
from .memory import MemoryFootprint, measure_memory_footprints
from .sync_interval import (
    ScalabilityPoint,
    SyncIntervalResult,
    scalability_curve,
    sync_interval_sweep,
)
from .update_cost import (
    CostRow,
    ProductionCostModel,
    fig8_timelines,
    fig14_grid,
    update_ratio,
)
from .utilization import (
    DayProfile,
    PowerComparison,
    power_comparison,
    simulate_day_profile,
)

__all__ = [
    "AccuracyConfig",
    "StrategyRun",
    "TimelinePoint",
    "build_pretrained_world",
    "run_strategy",
    "run_comparison",
    "auc_improvement_table",
    "no_update",
    "delta_update",
    "quick_update",
    "live_update",
    "standard_lineup",
    "update_ratio",
    "ProductionCostModel",
    "CostRow",
    "fig14_grid",
    "fig8_timelines",
    "UpdateRatioPoint",
    "measure_update_ratio",
    "DecayPoint",
    "staleness_decay_curve",
    "access_distribution",
    "GradientSpectrum",
    "collect_gradient_spectra",
    "spread_extremes",
    "MemoryFootprint",
    "measure_memory_footprints",
    "SyncIntervalResult",
    "sync_interval_sweep",
    "ScalabilityPoint",
    "scalability_curve",
    "DayProfile",
    "simulate_day_profile",
    "PowerComparison",
    "power_comparison",
]
