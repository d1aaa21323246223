"""Core synthesis algorithms: the paper's contribution and baselines."""

from repro.core import cache_store
from repro.core.baseline import baseline_design
from repro.core.cache_store import (
    EngineSnapshot,
    merge_snapshot,
    snapshot_engine,
)
from repro.core.combined import combined_design
from repro.core.design import DesignResult
from repro.core.engine import (
    EngineStats,
    EvaluationEngine,
    default_engine,
    set_default_engine,
)
from repro.core.evaluate import (
    evaluate_allocation,
    evaluate_allocations,
    min_latency,
)
from repro.core.explore import (
    METHODS,
    SweepPoint,
    pareto_frontier,
    reliability_vs_area,
    reliability_vs_latency,
    sweep_bounds,
    synthesize,
)
from repro.core.find_design import find_design, uniform_allocations
from repro.core.montecarlo import (
    MonteCarloReport,
    simulate_design,
    simulate_designs,
)
from repro.core.objectives import minimize_area, minimize_latency
from repro.core.optimal import optimal_design
from repro.core.redundancy import apply_greedy_redundancy, best_upgrade
from repro.core.selfrecover import (
    SelfRecoveryDesign,
    duplication_overhead,
    self_recovery_design,
)

__all__ = [
    "DesignResult",
    "EvaluationEngine",
    "EngineStats",
    "EngineSnapshot",
    "cache_store",
    "snapshot_engine",
    "merge_snapshot",
    "default_engine",
    "set_default_engine",
    "find_design",
    "baseline_design",
    "combined_design",
    "apply_greedy_redundancy",
    "best_upgrade",
    "evaluate_allocation",
    "evaluate_allocations",
    "min_latency",
    "uniform_allocations",
    "minimize_area",
    "minimize_latency",
    "optimal_design",
    "simulate_design",
    "simulate_designs",
    "MonteCarloReport",
    "self_recovery_design",
    "SelfRecoveryDesign",
    "duplication_overhead",
    "sweep_bounds",
    "synthesize",
    "SweepPoint",
    "pareto_frontier",
    "reliability_vs_latency",
    "reliability_vs_area",
    "METHODS",
]
