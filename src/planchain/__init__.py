"""Exact chaining of time-windowed vehicle plans, with a DARP pipeline on top."""

from .errors import (
    GuardExceededError,
    InfeasibleError,
    InputError,
    InternalSolverError,
    PlanChainError,
)
from .model import (
    ChainingInstance,
    CostPolicy,
    FleetSize,
    Plan,
    TravelCost,
    TravelCostWaitCapped,
    TravelCostWaitPenalized,
    TravelMatrix,
    VariantRef,
    Vehicle,
    connection_cost,
    connection_feasible,
    connection_wait,
    travel_time,
)
from .variantgen import Connection, GenerationResult, generate, generate_exhaustive
from .flownet import FlowAssignment, FlowNetwork, build_network, solve_mcf
from .chainsolve import (
    Chain,
    ChainSolution,
    ValidationReport,
    extract_chains,
    solve_chaining,
    validate_chains,
)
from .oracle import OracleResult, brute_force_optimal, fleet_min_matching
from .darp import (
    AUTO_FLEET,
    DarpInstance,
    DarpSolution,
    Metrics,
    Request,
    RoutePlan,
    evaluate_metrics,
    insertion_heuristic,
    optimal_plan_for_group,
    plans_to_chaining,
    run_proposed,
    run_single_batch,
    solve_batch_exact,
    validate_darp_solution,
)

__version__ = "0.1.0"
