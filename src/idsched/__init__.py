"""Risk-sensitive inter-delivery scheduling toolkit."""

from .errors import (
    ConfigError,
    ResourceLimitError,
    SchedulingError,
    StructuralError,
)
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
    DpTable,
    GrowthRateResult,
    SolveReport,
    StationaryPolicy,
    ThetaThreshold,
    average_cost,
    doeblin_hitting_times,
    dp_mdp1,
    dp_mdp2,
    exhaustive_optimal,
    growth_rate_optima,
    growth_rate_optimal,
    is_ne,
    theta_threshold,
)
from .asymptotic import (
    AsymptoticCost,
    CycleAnalytics,
    LevelSets,
    TwoClientConfig,
    all_success_excess,
    build_level_sets,
    mlg_cost_leading,
    mlg_cycle_analytics,
    mlg_decide,
    mlg_optimality_check,
    mlg_stationary_policy,
    optimal_cost_lower_bound,
    sn_policy,
)
from .heuristics import (
    PeriodicSchedule,
    build_periodic_schedule,
    periodic_schedule_average_cost,
    prr_average_cost,
)
from .sim import (
    CostEstimate,
    SimConfig,
    estimate_cost,
    estimate_costs,
    log_mean_exp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
