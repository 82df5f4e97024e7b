"""Risk-sensitive inter-delivery scheduling toolkit."""

from .errors import ConfigError, SchedulingError, StructuralError
from .model import (
    AsymptoticInstance,
    Instance,
    StateIndexer,
    StepDistribution,
    exceedance_count,
    exclusion_state,
    instance_from_json,
    slot_cost,
    step_distribution,
    successor_on_failure,
    successor_on_success,
)
from .exact import (
    GrowthRateResult,
    SolveReport,
    StationaryPolicy,
    ThetaThreshold,
    growth_rate_optima,
    growth_rate_optimal,
    theta_threshold,
)
from .asymptotic import (
    LevelSets,
    build_level_sets,
    mlg_stationary_policy,
    sn_policy,
)
from .heuristics import (
    PeriodicSchedule,
    build_periodic_schedule,
)
from .sim import (
    CostEstimate,
    SimConfig,
    estimate_costs,
    log_mean_exp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
