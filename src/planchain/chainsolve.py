"""Exact solver for the chaining problem with variant-consistency constraints.

The pure min-cost flow relaxation ignores the requirement that a plan must
leave a chain as the same variant it entered with.  When the relaxation
already satisfies consistency we are done; otherwise a branch-and-bound
search forces one variant per mismatched plan, using the relaxation value
as the bound.  Bounds only grow down a branch (children solve a restricted
network), so best-first search with integral costs prunes exactly.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleError, InputError, InternalSolverError
from . import model
from .model import (
    ChainingInstance,
    CostPolicy,
    TravelCostWaitCapped,
    TravelCostWaitPenalized,
    VariantRef,
    Vehicle,
)
from .variantgen import GenerationResult, generate, generate_exhaustive
from .flownet import (
    FlowAssignment,
    FlowInfeasibleError,
    FlowNetwork,
    build_network,
    solve_mcf,
)


@dataclass(frozen=True)
class BranchNode:
    """A branch-and-bound node: forced variants and their disabled edges.

    ``bound`` is a valid lower bound on every completion: the node's own
    relaxation value once solved, its parent's until then (children only
    remove edges, so bounds never decrease down a branch).
    """

    forced: tuple[tuple[int, int], ...]  # (plan id, forced delay)
    disabled_edges: frozenset[int]
    bound: int
    depth: int
    assignment: FlowAssignment | None


@dataclass(frozen=True)
class Chain:
    """A vehicle followed by the plan variants it serves, with link data."""

    vehicle: Vehicle
    elements: tuple[VariantRef, ...]
    link_costs: tuple[int, ...]
    link_waits: tuple[int, ...]

    @property
    def cost(self) -> int:
        return sum(self.link_costs)


@dataclass(frozen=True)
class SolverStats:
    nodes_explored: int
    relaxations_solved: int
    wall_ms: float


@dataclass(frozen=True)
class ChainSolution:
    chains: tuple[Chain, ...]
    objective: int
    stats: SolverStats


@dataclass(frozen=True)
class ValidationIssue:
    chain_index: int | None
    link_index: int | None
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]
    recomputed_objective: int | None

    @property
    def ok(self) -> bool:
        return not self.issues


def policy_needs_exhaustive_variants(policy: CostPolicy) -> bool:
    """Policies whose connection costs depend on the chosen delays.

    Minimal variant generation is optimal whenever chain costs are
    non-decreasing in the delays.  Wait caps can be satisfied by delaying
    an *earlier* plan, and fractional wait penalties create per-link
    rounding that favours shifted waits, so both need the exhaustive
    variant set.  Integer penalties telescope along a chain (total wait
    depends only on the final delay) and stay exact on the minimal set.
    """
    if isinstance(policy, TravelCostWaitCapped):
        return True
    if isinstance(policy, TravelCostWaitPenalized):
        return policy.alpha > 0 and Fraction(policy.alpha).denominator != 1
    return False


def _generation_for(instance: ChainingInstance, variants: str, guard_ticks: int) -> GenerationResult:
    if variants == "minimal":
        return generate(instance)
    if variants == "exhaustive":
        return generate_exhaustive(instance, guard_ticks=guard_ticks)
    if variants == "auto":
        if policy_needs_exhaustive_variants(instance.policy):
            return generate_exhaustive(instance, guard_ticks=guard_ticks)
        return generate(instance)
    raise InputError(f"unknown variant source {variants!r}")


def _active_connections(network: FlowNetwork, flows) -> np.ndarray:
    """Ids of the connection edges that carry flow."""
    block = network.connection_edges
    return block.start + np.flatnonzero(np.asarray(flows[block.start : block.stop]) == 1)


def _find_mismatches(network: FlowNetwork, flows) -> list[tuple[int, int, int]]:
    """Plans whose arrival variant differs from their departure variant.

    Returns (plan_id, in_delay, out_delay) triples in plan order.
    """
    n = len(network.plan_ids)
    delay_in = np.full(n, -1, dtype=np.int64)
    delay_out = np.full(n, -1, dtype=np.int64)
    entered = np.asarray(flows[network.right_struct]) == 1
    left = np.asarray(flows[network.left_struct]) == 1
    delay_in[network.variant_plan[entered]] = network.variant_delay[entered]
    delay_out[network.variant_plan[left]] = network.variant_delay[left]
    bad = np.flatnonzero((delay_in >= 0) & (delay_out >= 0) & (delay_in != delay_out))
    return list(zip(network.plan_ids[bad].tolist(), delay_in[bad].tolist(), delay_out[bad].tolist()))


def _active_connection_costs(network: FlowNetwork, flows) -> np.ndarray:
    """Per plan index: cost of the active connection into the plan plus the one out of it."""
    active = _active_connections(network, flows)
    costs = network.cost[active]
    origin = network.origin_col[network.tail[active]]
    from_plan = origin < len(network.plan_ids)
    cost_in = np.zeros(len(network.plan_ids), dtype=np.int64)
    cost_out = np.zeros(len(network.plan_ids), dtype=np.int64)
    cost_in[network.target_row[network.head[active]]] = costs
    cost_out[origin[from_plan]] = costs[from_plan]
    return cost_in + cost_out


def _pick_branch(network: FlowNetwork, flows, mismatches) -> int:
    """The mismatched plan whose active connections cost the most, lowest id on ties."""
    link_cost = dict(zip(network.plan_ids.tolist(), _active_connection_costs(network, flows).tolist()))
    return max((pid for pid, _, _ in mismatches), key=lambda pid: (link_cost[pid], -pid))


def _force_variant_edges(network: FlowNetwork, pid: int, keep_delay: int) -> frozenset[int]:
    out = set()
    for d in network.routed_delays[pid]:
        if d != keep_delay:
            out.add(network.left_struct_edge[(pid, d)])
            out.add(network.right_struct_edge[(pid, d)])
    return frozenset(out)


def extract_chains(network: FlowNetwork, assignment: FlowAssignment) -> tuple[Chain, ...]:
    """Walk unit flows from each vehicle through active connection edges.

    Structural hops collapse away; what remains is the vehicle followed by
    the plan variants it serves.  A consistency-violating or cyclic flow
    raises ``InternalSolverError`` (unreachable from the exact solver).
    """
    entered: dict[int, object] = {}
    successor: dict[tuple, object] = {}
    for eid in _active_connections(network, assignment.flows).tolist():
        conn = network.edge_connection(eid)
        pid = conn.target.plan_id
        if pid in entered:
            raise InternalSolverError(f"plan {pid} entered by two connections")
        entered[pid] = conn
        origin = conn.origin
        okey = ("v", origin.id) if isinstance(origin, Vehicle) else ("p", origin.plan_id)
        if okey in successor:
            raise InternalSolverError(f"origin {okey} leaves twice")
        successor[okey] = conn

    instance = network.instance
    chains = []
    used: set[int] = set()
    for v in instance.vehicles:
        conn = successor.get(("v", v.id))
        if conn is None:
            continue
        elements: list[VariantRef] = []
        costs: list[int] = []
        waits: list[int] = []
        prev: object = v
        while conn is not None:
            target = conn.target
            if target.plan_id in used:
                raise InternalSolverError("cycle in active connection edges")
            if isinstance(conn.origin, VariantRef):
                if entered[conn.origin.plan_id].target.delay != conn.origin.delay:
                    raise InternalSolverError(
                        f"plan {conn.origin.plan_id} leaves as a different variant than it arrived"
                    )
            used.add(target.plan_id)
            elements.append(target)
            costs.append(conn.cost)
            waits.append(model.connection_wait(instance, prev, target))
            prev = target
            conn = successor.get(("p", target.plan_id))
        chains.append(Chain(v, tuple(elements), tuple(costs), tuple(waits)))
    if len(used) != len(instance.plans):
        raise InternalSolverError("extracted chains do not cover every plan")
    return tuple(chains)


def solve_chaining(
    instance: ChainingInstance,
    *,
    variants: str = "auto",
    exhaustive_guard_ticks: int = 5000,
    _bound_trace: list | None = None,
) -> ChainSolution:
    """Compute a minimum-cost chain cover of all plans, or raise.

    ``variants`` selects the variant source: ``minimal`` (generate only
    needed delays), ``exhaustive`` (every integer delay), or ``auto``
    (exhaustive exactly for the delay-sensitive cost policies).  Raises
    ``InfeasibleError`` when no cover exists.
    """
    start = time.perf_counter()
    gen = _generation_for(instance, variants, exhaustive_guard_ticks)
    network = build_network(instance, gen)

    if not network.variant_delay.size:
        assignment = solve_mcf(network)
        chains = extract_chains(network, assignment)
        wall = (time.perf_counter() - start) * 1000.0
        return ChainSolution(chains, assignment.total_cost, SolverStats(0, 1, wall))

    root_assignment = solve_mcf(network)
    root = BranchNode((), frozenset(), root_assignment.total_cost, 0, root_assignment)
    relaxations = 1
    nodes_explored = 0
    counter = itertools.count()
    # best-first by bound, ties by depth (deeper first) with solved nodes
    # ahead of unsolved ones, then creation order; children enter the heap
    # unsolved and are relaxed only when popped, so an incumbent that
    # matches the parent bound prunes whole sibling sets without a solve
    heap = [(root.bound, -root.depth, 0, next(counter), root)]
    incumbent: tuple[int, FlowAssignment] | None = None
    while heap:
        _, _, _, _, node = heapq.heappop(heap)
        if incumbent is not None and node.bound >= incumbent[0]:
            continue
        if node.assignment is None:
            relaxations += 1
            try:
                assignment = solve_mcf(network, node.disabled_edges)
            except FlowInfeasibleError:
                continue
            if _bound_trace is not None:
                _bound_trace.append((node.bound, assignment.total_cost))
            if incumbent is not None and assignment.total_cost >= incumbent[0]:
                continue
            solved = BranchNode(
                node.forced, node.disabled_edges, assignment.total_cost, node.depth, assignment
            )
            heapq.heappush(heap, (solved.bound, -solved.depth, 0, next(counter), solved))
            continue
        nodes_explored += 1
        mismatches = _find_mismatches(network, node.assignment.flows)
        if not mismatches:
            if incumbent is None or node.assignment.total_cost < incumbent[0]:
                incumbent = (node.assignment.total_cost, node.assignment)
            continue
        pid = _pick_branch(network, node.assignment.flows, mismatches)
        for d in network.routed_delays[pid]:
            extra = _force_variant_edges(network, pid, d)
            child = BranchNode(node.forced + ((pid, d),), node.disabled_edges | extra, node.bound, node.depth + 1, None)
            heapq.heappush(heap, (child.bound, -child.depth, 1, next(counter), child))
    if incumbent is None:
        raise InfeasibleError("no variant-consistent chain cover exists")
    chains = extract_chains(network, incumbent[1])
    wall = (time.perf_counter() - start) * 1000.0
    return ChainSolution(chains, incumbent[0], SolverStats(nodes_explored, relaxations, wall))


def _normalize_chains(chains) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    out = []
    for chain in chains:
        if isinstance(chain, Chain):
            out.append((chain.vehicle.id, tuple((e.plan_id, e.delay) for e in chain.elements)))
        else:
            vid, elems = chain
            out.append((int(vid), tuple((int(p), int(d)) for p, d in elems)))
    return out


def validate_chains(instance: ChainingInstance, chains, claimed_objective: int | None = None) -> ValidationReport:
    """Recheck a chain cover against the raw instance data.

    Independent of the solver: every timing condition, delay budget,
    multiplicity constraint, and policy cost is recomputed from scratch.
    An empty report means the solution is feasible; the recomputed
    objective is compared against ``claimed_objective`` when given.
    """
    issues: list[ValidationIssue] = []
    normalized = _normalize_chains(chains)
    seen_vehicles: set[int] = set()
    plan_counts: dict[int, int] = {p.id: 0 for p in instance.plans}
    total = 0
    costable = True

    for ci, (vid, elems) in enumerate(normalized):
        try:
            vehicle = instance.vehicle(vid)
        except InputError:
            issues.append(ValidationIssue(ci, None, "unknown_vehicle", f"chain {ci}: unknown vehicle {vid}"))
            continue
        if vid in seen_vehicles:
            issues.append(ValidationIssue(ci, None, "vehicle_reused", f"vehicle {vid} heads more than one chain"))
        seen_vehicles.add(vid)
        if not elems:
            issues.append(ValidationIssue(ci, None, "empty_chain", f"chain {ci} serves no plan"))
            continue
        prev: object = vehicle
        for li, (pid, delay) in enumerate(elems):
            if pid not in plan_counts:
                issues.append(ValidationIssue(ci, li, "unknown_plan", f"chain {ci}: unknown plan {pid}"))
                costable = False
                prev = None
                continue
            plan_counts[pid] += 1
            plan = instance.plan(pid)
            ref = VariantRef(pid, delay)
            if not (0 <= delay <= plan.d_max):
                issues.append(
                    ValidationIssue(ci, li, "delay_out_of_range", f"plan {pid}: delay {delay} outside [0, {plan.d_max}]")
                )
                costable = False
                prev = ref
                continue
            if prev is None:
                costable = False
                prev = ref
                continue
            try:
                feasible = model.connection_feasible(instance, prev, ref)
            except InputError as exc:
                issues.append(ValidationIssue(ci, li, "invalid_link", f"chain {ci} link {li}: {exc}"))
                costable = False
                prev = ref
                continue
            if not feasible:
                issues.append(
                    ValidationIssue(ci, li, "link_infeasible", f"chain {ci} link {li}: timing violated into plan {pid}@{delay}")
                )
                costable = False
            else:
                cost = model.connection_cost(instance, prev, ref)
                if cost is None:
                    issues.append(
                        ValidationIssue(ci, li, "link_forbidden", f"chain {ci} link {li}: wait exceeds the policy cap")
                    )
                    costable = False
                else:
                    total += cost
            prev = ref

    for pid, count in plan_counts.items():
        if count != 1:
            issues.append(
                ValidationIssue(None, None, "plan_multiplicity", f"plan {pid} served {count} times (expected exactly once)")
            )
    recomputed = total if costable else None
    if claimed_objective is not None and recomputed is not None and claimed_objective != recomputed:
        issues.append(
            ValidationIssue(None, None, "objective_mismatch", f"claimed objective {claimed_objective} != recomputed {recomputed}")
        )
    return ValidationReport(tuple(issues), recomputed)
