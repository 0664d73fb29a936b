"""Exact solver for the chaining problem with variant-consistency constraints.

The pure min-cost flow relaxation ignores the requirement that a plan must
leave a chain as the same variant it entered with.  When the relaxation
already satisfies consistency we are done; otherwise a branch-and-bound
search restricts each plan to a delay window ``[lo, hi]`` and splits a
mismatched plan's window into two, one per child, using the relaxation
value as the bound.  Bounds only grow down a branch (children solve under a
narrower window), so best-first search with integral costs prunes exactly.

A node holds its window and the connection rows its relaxation chose, not
edge flows: mismatches, the branching plan and the chains are read from
the rows' columns.  A row out of a vehicle is its class's row, so the
chains take each chosen row's vehicle from its matrix column, which the
node's Hungarian state holds.

A child's relaxation is warm-started from its parent's Hungarian state.  A
child only narrows a window, so its assignment costs only rise and the
parent's duals stay feasible; only the plans whose assigned connection got
dearer are re-assigned, and the solver's duals still certify each child's
optimum, so every bound stays exact.  On tied optima a warm child can pick
another optimal assignment than a cold solve would; the branching, and with
it ``stats.relaxations_solved``, stays deterministic from run to run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
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
from .variantgen import generate, generate_exhaustive
from .flownet import (
    FlowInfeasibleError,
    FlowNetwork,
    HungarianState,
    build_network,
    solve_mcf,
)


@dataclass(frozen=True)
class BranchNode:
    """A branch-and-bound node: its depth and its delay window, lo and hi per plan index.

    ``bound`` is a valid lower bound on every completion: the node's own
    relaxation value once solved, its parent's until then (children only
    narrow the window, so bounds never decrease down a branch).  ``rows`` (None
    until solved) and ``state`` are its relaxation's; an unsolved node keeps
    its parent's state, the warm start of its own relaxation.
    """

    depth: int
    window: np.ndarray
    bound: int
    rows: np.ndarray | None
    state: HungarianState


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


def _per_plan(network: FlowNetwork, rows, into, out_of, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """Per plan index: column ``into`` of the chosen row into it, ``out_of`` of the one out of it."""
    conns, n = network.connections, len(network.plan_ids)
    entering, leaving = np.full(n, fill, dtype=np.int64), np.full(n, fill, dtype=np.int64)
    entering[conns.target[rows]] = into[rows]
    from_plan = rows[conns.origin[rows] < n]
    leaving[conns.origin[from_plan]] = out_of[from_plan]
    return entering, leaving


def _find_mismatches(network: FlowNetwork, rows) -> list[tuple[int, int, int]]:
    """(plan index, in_delay, out_delay), in plan order, of the plans the chosen ``rows`` leave by another variant."""
    conns = network.connections
    delay_in, delay_out = _per_plan(network, rows, conns.target_delay, conns.origin_delay, -1)
    bad = np.flatnonzero((delay_in >= 0) & (delay_out >= 0) & (delay_in != delay_out))
    return list(zip(bad.tolist(), delay_in[bad].tolist(), delay_out[bad].tolist()))


def _active_connection_costs(network: FlowNetwork, rows) -> np.ndarray:
    """Per plan index: cost of the chosen connection into the plan plus the one out of it."""
    cost_in, cost_out = _per_plan(network, rows, network.connections.cost, network.connections.cost, 0)
    return cost_in + cost_out


def _pick_branch(network: FlowNetwork, rows, mismatches) -> tuple[int, int, int]:
    """The mismatch whose plan's chosen connections cost the most, lowest plan index (and id) on ties."""
    link_cost = _active_connection_costs(network, rows).tolist()
    return max(mismatches, key=lambda m: (link_cost[m[0]], -m[0]))


def _split_window(window: np.ndarray, i: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Two copies of ``window``: plan index ``i``'s range cut below ``max(a, b)``, and from it on.

    A plan entered at ``a`` and left at ``b != a`` has both in its window
    (else ``InternalSolverError``: a cut would leave a child that repeats
    its parent), so each part is non-empty; a consistent cover serves the
    plan at one delay, which lies in exactly one part.
    """
    lo, hi = window[:, i].tolist()
    if not lo <= min(a, b) <= max(a, b) <= hi:
        raise InternalSolverError(f"plan index {i} is used at delays {a} and {b} outside its window [{lo}, {hi}]")
    low, high = window.copy(), window.copy()
    low[1, i], high[0, i] = max(a, b) - 1, max(a, b)
    return low, high


def extract_chains(network: FlowNetwork, rows, cols) -> tuple[Chain, ...]:
    """Walk from each vehicle through the chosen connection rows.

    Row ``rows[i]`` is taken out of origin column ``cols[i]``: a vehicle
    reads its class's rows in its own column.  Each chain is a vehicle
    followed by the plan variants it serves.  Rows that enter a plan or
    leave an origin twice, break variant consistency or miss a plan raise
    ``InternalSolverError`` (unreachable from the solver).
    """
    conns, instance = network.connections, network.instance
    origins, targets = cols.tolist(), conns.target[rows].tolist()
    if len(set(targets)) < len(targets) or len(set(origins)) < len(origins):
        raise InternalSolverError("a plan is entered, or an origin left, by two connections")
    mismatches = _find_mismatches(network, rows)
    if mismatches:
        pid = network.plan_ids[mismatches[0][0]]
        raise InternalSolverError(f"plan {pid} leaves as a different variant than it arrived")
    # origin column -> the target, its delay and the cost of the row out of it
    successor = dict(zip(origins, zip(targets, conns.target_delay[rows].tolist(), conns.cost[rows].tolist())))
    chains = []
    for j, vehicle in enumerate(instance.vehicles):
        elements, costs, waits, prev = [], [], [], vehicle
        link = successor.get(len(instance.plans) + j)
        while link is not None:  # no cycle: every plan is entered once
            target = VariantRef(instance.plans[link[0]].id, link[1])
            elements.append(target)
            costs.append(link[2])
            waits.append(model.connection_wait(instance, prev, target))
            prev = target
            link = successor.get(link[0])
        if elements:
            chains.append(Chain(vehicle, tuple(elements), tuple(costs), tuple(waits)))
    if sum(len(c.elements) for c in chains) != len(instance.plans):
        raise InternalSolverError("extracted chains do not cover every plan")
    return tuple(chains)


def solve_chaining(instance: ChainingInstance) -> ChainSolution:
    """Compute a minimum-cost chain cover of all plans, or raise.

    Variants come from minimal generation, or from exhaustive integer-delay
    enumeration for the policies that need it
    (``policy_needs_exhaustive_variants``).  Raises ``InfeasibleError``
    when no cover exists.
    """
    if policy_needs_exhaustive_variants(instance.policy):
        gen = generate_exhaustive(instance)
    else:
        gen = generate(instance)
    return solve_network(build_network(instance, gen))


def solve_network(network: FlowNetwork) -> ChainSolution:
    """Branch-and-bound to a minimum-cost variant-consistent cover over ``network``'s variants.

    Exact for the instance only when the network's variant set is complete
    for its policy, as ``solve_chaining`` ensures.  Raises
    ``InfeasibleError`` when no cover exists over these variants.
    """
    root = solve_mcf(network)
    if not network.connections.variants:
        chains = extract_chains(network, root.rows, root.state.columns)
        return ChainSolution(chains, root.total_cost, SolverStats(0, 1))

    relaxations, nodes_explored = 1, 0
    counter = itertools.count()
    # best-first by bound, ties by depth (deeper first) with solved nodes
    # ahead of unsolved ones, then creation order; children enter the heap
    # unsolved and are relaxed only when popped, so an incumbent that
    # matches the parent bound prunes whole sibling sets without a solve
    first = BranchNode(0, network.open_window, root.total_cost, root.rows, root.state)
    heap = [(root.total_cost, 0, 0, next(counter), first)]
    incumbent: BranchNode | None = None
    while heap:
        _, _, _, _, node = heapq.heappop(heap)
        if incumbent is not None and node.bound >= incumbent.bound:
            continue
        if node.rows is None:
            relaxations += 1
            try:
                assignment = solve_mcf(network, node.window, node.state)
            except FlowInfeasibleError:
                continue
            solved = replace(node, bound=assignment.total_cost, rows=assignment.rows, state=assignment.state)
            heapq.heappush(heap, (solved.bound, -solved.depth, 0, next(counter), solved))
            continue
        nodes_explored += 1
        mismatches = _find_mismatches(network, node.rows)
        if not mismatches:
            if incumbent is None or node.bound < incumbent.bound:
                incumbent = node
            continue
        for window in _split_window(node.window, *_pick_branch(network, node.rows, mismatches)):
            child = BranchNode(node.depth + 1, window, node.bound, None, node.state)
            heapq.heappush(heap, (child.bound, -child.depth, 1, next(counter), child))
    if incumbent is None:
        raise InfeasibleError("no variant-consistent chain cover exists")
    chains = extract_chains(network, incumbent.rows, incumbent.state.columns)
    return ChainSolution(chains, incumbent.bound, SolverStats(nodes_explored, relaxations))


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
            if not (0 <= delay <= plan.d_max):
                issues.append(
                    ValidationIssue(ci, li, "delay_out_of_range", f"plan {pid}: delay {delay} outside [0, {plan.d_max}]")
                )
                costable = False
                prev = None
                continue
            ref = VariantRef(pid, delay)
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
