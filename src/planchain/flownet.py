"""Network construction and the exact solver for its min-cost flow.

The chaining problem becomes a flow network with a source feeding one unit
per plan, left/right node pairs per plan (and per variant for plans that
have delayed variants), vehicle nodes, and a sink that absorbs one unit
per plan.  Connection edges carry the policy cost; all structural edges
are free and every edge has bounds [0, 1].

Plans that have at least one delayed variant also receive an explicit
zero-delay variant node pair, and every connection of such a plan is
routed through variant nodes.  Without that strengthening a plan could be
entered as a delayed variant yet leave through a base connection whose
feasibility was checked undelayed, which silently produces temporally
invalid chains.  The weaker, variant-only constraint layout is still
available (``constraint_mode="literal"``) for comparison experiments.

In both layouts a feasible flow is an assignment: each plan's right side
takes its unit from exactly one origin (a plan's left side or a vehicle)
and each origin sends at most one, so ``solve_mcf`` collapses the network
into a target-by-origin cost matrix and solves it with the Hungarian
method.  Its duals, spread back over the nodes as potentials, certify the
flow through ``residual_is_optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError
from .model import ChainingInstance, Vehicle
from .variantgen import Connection, GenerationResult

NO_EDGE = 1 << 60  # cost of a matrix cell without a usable connection
_UNSEEN = 1 << 62  # distance of a column the search has not reached


@dataclass(frozen=True)
class FlowNode:
    id: int
    kind: str  # source | sink | left_plan | right_plan | left_variant | right_variant | vehicle
    payload: object
    supply: int


@dataclass(frozen=True)
class FlowEdge:
    tail: int
    head: int
    lower: int
    upper: int
    cost: int


@dataclass(frozen=True)
class FlowAssignment:
    """Integral edge flows with the solver's optimality potentials."""

    flows: tuple[int, ...]
    total_cost: int
    potentials: tuple[int, ...]


class FlowInfeasibleError(InfeasibleError):
    def __init__(self, plan_id: int | None):
        self.plan_id = plan_id
        if plan_id is None:
            super().__init__("flow network is infeasible")
        else:
            super().__init__(f"no chain can reach plan {plan_id}: its right node is unreachable")


class FlowNetwork:
    """Immutable network plus lookup maps back into the domain objects."""

    def __init__(self, instance: ChainingInstance, constraint_mode: str):
        self.instance = instance
        self.constraint_mode = constraint_mode
        self.nodes: list[FlowNode] = []
        self.edges: list[FlowEdge] = []
        self.source_id = 0
        self.sink_id = 0
        self.left_plan: dict[int, int] = {}
        self.right_plan: dict[int, int] = {}
        self.left_variant: dict[tuple[int, int], int] = {}
        self.right_variant: dict[tuple[int, int], int] = {}
        self.vehicle_node: dict[int, int] = {}
        self.routed_delays: dict[int, tuple[int, ...]] = {}
        self.left_struct_edge: dict[tuple[int, int], int] = {}
        self.right_struct_edge: dict[tuple[int, int], int] = {}
        self.sink_edge: dict[int, int] = {}
        self.connection_edges: list[int] = []
        self.edge_connection: dict[int, Connection] = {}
        self.supply = 0

    def _add_node(self, kind: str, payload, supply: int) -> int:
        node = FlowNode(len(self.nodes), kind, payload, supply)
        self.nodes.append(node)
        return node.id

    def _add_edge(self, tail: int, head: int, cost: int) -> int:
        self.edges.append(FlowEdge(tail, head, 0, 1, cost))
        return len(self.edges) - 1

    def edge_list_text(self) -> str:
        """Plain-text dump, one edge per line: tail head lower upper cost."""
        return "\n".join(f"{e.tail} {e.head} {e.lower} {e.upper} {e.cost}" for e in self.edges)


def build_network(
    instance: ChainingInstance,
    gen: GenerationResult,
    constraint_mode: str = "extended",
) -> FlowNetwork:
    """Assemble the flow network for a generation result.

    ``extended`` routes every connection of a variant-carrying plan through
    variant nodes (adding an explicit zero-delay variant); ``literal``
    keeps base connections on the plan nodes.
    """
    if constraint_mode not in ("extended", "literal"):
        raise InputError(f"unknown constraint mode {constraint_mode!r}")
    net = FlowNetwork(instance, constraint_mode)
    plans = instance.plans
    n_plans = len(plans)

    delayed = gen.delays_by_plan()
    for p in plans:
        if p.id in delayed:
            base = [0] if constraint_mode == "extended" else []
            net.routed_delays[p.id] = tuple(base + delayed[p.id])
        else:
            net.routed_delays[p.id] = ()

    net.supply = n_plans
    net.source_id = net._add_node("source", None, n_plans)
    for p in plans:
        net.left_plan[p.id] = net._add_node("left_plan", p.id, 0)
    for p in plans:
        for d in net.routed_delays[p.id]:
            net.left_variant[(p.id, d)] = net._add_node("left_variant", (p.id, d), 0)
    for v in instance.vehicles:
        net.vehicle_node[v.id] = net._add_node("vehicle", v.id, 0)
    for p in plans:
        for d in net.routed_delays[p.id]:
            net.right_variant[(p.id, d)] = net._add_node("right_variant", (p.id, d), 0)
    for p in plans:
        net.right_plan[p.id] = net._add_node("right_plan", p.id, 0)
    net.sink_id = net._add_node("sink", None, -n_plans)

    for p in plans:
        net._add_edge(net.source_id, net.left_plan[p.id], 0)
    for v in instance.vehicles:
        net._add_edge(net.source_id, net.vehicle_node[v.id], 0)
    for p in plans:
        for d in net.routed_delays[p.id]:
            net.left_struct_edge[(p.id, d)] = net._add_edge(
                net.left_plan[p.id], net.left_variant[(p.id, d)], 0
            )
    for conn in gen.connections:
        origin = conn.origin
        if isinstance(origin, Vehicle):
            tail = net.vehicle_node[origin.id]
        else:
            key = (origin.plan_id, origin.delay)
            tail = net.left_variant.get(key, net.left_plan.get(origin.plan_id))
            if key not in net.left_variant and origin.delay > 0:
                raise InputError(f"connection origin {key} has no variant node")
        tkey = (conn.target.plan_id, conn.target.delay)
        head = net.right_variant.get(tkey, net.right_plan.get(conn.target.plan_id))
        if tkey not in net.right_variant and conn.target.delay > 0:
            raise InputError(f"connection target {tkey} has no variant node")
        eid = net._add_edge(tail, head, conn.cost)
        net.connection_edges.append(eid)
        net.edge_connection[eid] = conn
    for p in plans:
        for d in net.routed_delays[p.id]:
            net.right_struct_edge[(p.id, d)] = net._add_edge(
                net.right_variant[(p.id, d)], net.right_plan[p.id], 0
            )
    for p in plans:
        net.sink_edge[p.id] = net._add_edge(net.right_plan[p.id], net.sink_id, 0)
    return net


def _hungarian(cost: np.ndarray, limit: int, row_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign every row its own column at minimum total cost.

    The Hungarian method in its shortest-augmenting-path form (Jonker &
    Volgenant 1987): each row enters through a Dijkstra search over the
    reduced costs ``cost - u - v`` that stops at the first free column.
    On return ``u[i] + v[j] <= cost[i, j]`` holds everywhere, with equality
    on the assignment, ``v <= 0``, and ``v == 0`` on unassigned columns.
    ``owner[j]`` is the row assigned to column ``j``, or -1.  A row whose
    augmenting path would cost more than ``limit`` (any real assignment
    costs less) needs a no-edge cell: ``FlowInfeasibleError`` names it.
    """
    n, m = cost.shape
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(m + 1, dtype=np.int64)  # column m is the root of every search
    owner = np.full(m + 1, -1, dtype=np.int64)
    for i in range(n):
        owner[m] = i
        minv = np.full(m, _UNSEEN, dtype=np.int64)
        way = np.full(m, m, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        j0, spent = m, 0
        while owner[j0] >= 0:
            used[j0] = True
            i0 = owner[j0]
            cur = cost[i0] - u[i0] - v[:m]
            closer = (cur < minv) & ~used[:m]
            minv[closer] = cur[closer]
            way[closer] = j0
            frontier = np.where(used[:m], _UNSEEN, minv)
            j0 = int(frontier.argmin())
            delta = int(frontier[j0])
            spent += delta
            if spent > limit:
                raise FlowInfeasibleError(row_ids[i])
            tree = np.flatnonzero(used)
            u[owner[tree]] += delta
            v[tree] -= delta
            minv -= delta
        while j0 != m:
            prev = way[j0]
            owner[j0] = owner[prev]
            j0 = prev
    return owner[:m], u, v[:m]


def solve_mcf(network: FlowNetwork, disabled_edges: frozenset[int] = frozenset()) -> FlowAssignment:
    """Minimum-cost integral flow of a chaining network, solved as an assignment.

    Every feasible flow carries one unit into each plan's right side from
    one origin (a plan's left side or a vehicle), and each origin sends at
    most one unit, so the flow is a rectangular assignment of target plans
    to origins (Dantzig & Fulkerson 1954).  Each cell of the n x (n + V)
    cost matrix keeps the cheapest usable connection of its pair; a
    connection is unusable when it, or a structural edge on its path from
    the source or to the sink, is disabled, and equal costs go to the
    lowest edge id.  The Hungarian duals become node potentials under which
    no residual arc has a negative reduced cost, so ``residual_is_optimal``
    certifies the result.

    Raises ``FlowInfeasibleError`` naming the lowest-id plan without a
    usable incoming connection, else the plan whose row found no augmenting
    path; raises ``InputError`` when costs are too large for exact int64
    duals.
    """
    edges = network.edges
    instance = network.instance
    plans = instance.plans
    n, m, n_nodes = len(plans), len(plans) + len(instance.vehicles), len(network.nodes)
    max_cost = max((e.cost for e in edges), default=0)
    # a failed search must overshoot every real path (factor 2) and the
    # duals need headroom below the sentinel (another factor 2)
    if 4 * n * max_cost >= NO_EDGE:
        raise InputError(
            f"connection cost {max_cost} over {n} plans exceeds the exact integer range of the relaxation"
        )
    tails = np.fromiter((e.tail for e in edges), np.int64, len(edges))
    heads = np.fromiter((e.head for e in edges), np.int64, len(edges))
    cost = np.fromiter((e.cost for e in edges), np.int64, len(edges))

    row = np.full(n_nodes, -1, dtype=np.int64)  # right-side node -> target plan
    col = np.full(n_nodes, -1, dtype=np.int64)  # left-side node -> origin
    index = {p.id: i for i, p in enumerate(plans)}
    for pid, node in network.right_plan.items():
        row[node] = index[pid]
    for (pid, _), node in network.right_variant.items():
        row[node] = index[pid]
    for pid, node in network.left_plan.items():
        col[node] = index[pid]
    for (pid, _), node in network.left_variant.items():
        col[node] = index[pid]
    for j, vehicle in enumerate(instance.vehicles, start=n):
        col[network.vehicle_node[vehicle.id]] = j

    conn = np.asarray(network.connection_edges, dtype=np.int64)
    structural = np.ones(len(edges), dtype=bool)
    structural[conn] = False
    structural = np.flatnonzero(structural)
    down = structural[col[heads[structural]] >= 0]  # source side: edges into left nodes
    up = structural[row[tails[structural]] >= 0]  # sink side: edges out of right nodes
    off = np.zeros(len(edges), dtype=bool)
    off[list(disabled_edges)] = True
    cut = np.zeros(n_nodes, dtype=bool)  # a disabled edge separates the node from source or sink
    for _ in range(2):  # structural paths have at most two edges
        cut[heads[down]] = off[down] | cut[tails[down]]
        cut[tails[up]] = off[up] | cut[heads[up]]

    live = conn[~off[conn] & ~cut[tails[conn]] & ~cut[heads[conn]]]
    cell = row[heads[live]] * m + col[tails[live]]
    order = np.lexsort((live, cost[live], cell))
    first = order[np.diff(cell[order], prepend=-1) != 0]
    matrix = np.full(n * m, NO_EDGE, dtype=np.int64)
    matrix[cell[first]] = cost[live[first]]
    matrix = matrix.reshape(n, m)
    edge_at = np.full(n * m, -1, dtype=np.int64)
    edge_at[cell[first]] = live[first]
    starved = np.flatnonzero((matrix == NO_EDGE).all(axis=1))
    if starved.size:
        raise FlowInfeasibleError(plans[int(starved[0])].id)

    owner, u, v = _hungarian(matrix, n * max_cost, [p.id for p in plans])

    assigned = np.flatnonzero(owner >= 0)
    chosen = edge_at[owner[assigned] * m + assigned].tolist()
    flows = [0] * len(edges)
    parent = dict(zip(heads[down].tolist(), down.tolist()))
    child = dict(zip(tails[up].tolist(), up.tolist()))
    for e in chosen:
        flows[e] = 1
        node = edges[e].tail
        while node in parent:
            flows[parent[node]] = 1
            node = edges[parent[node]].tail
        node = edges[e].head
        while node in child:
            flows[child[node]] = 1
            node = edges[child[node]].head

    potentials = [0] * n_nodes
    for node in range(n_nodes):
        if cut[node]:
            potentials[node] = NO_EDGE if col[node] >= 0 else -NO_EDGE
        elif col[node] >= 0:
            potentials[node] = -int(v[col[node]])
        elif row[node] >= 0:
            potentials[node] = int(u[row[node]])
    potentials[network.sink_id] = int(u.max()) if n else 0
    total = sum(edges[e].cost for e in chosen)
    return FlowAssignment(tuple(flows), total, tuple(potentials))


def residual_is_optimal(
    network: FlowNetwork,
    assignment: FlowAssignment,
    disabled_edges: frozenset[int] = frozenset(),
) -> bool:
    """Certificate check: no residual arc has a negative reduced cost."""
    pi = assignment.potentials
    for i, e in enumerate(network.edges):
        if i in disabled_edges:
            continue
        f = assignment.flows[i]
        if f < e.upper and e.cost + pi[e.tail] - pi[e.head] < 0:
            return False
        if f > 0 and -e.cost + pi[e.head] - pi[e.tail] < 0:
            return False
    return True


def check_conservation(network: FlowNetwork, assignment: FlowAssignment) -> None:
    """Assert flow conservation and bounds exactly; raises on violation."""
    balance = [0] * len(network.nodes)
    for i, e in enumerate(network.edges):
        f = assignment.flows[i]
        if not (e.lower <= f <= e.upper):
            raise InfeasibleError(f"edge {i} flow {f} outside [{e.lower}, {e.upper}]")
        balance[e.tail] += f
        balance[e.head] -= f
    for node in network.nodes:
        if balance[node.id] != node.supply:
            raise InfeasibleError(
                f"node {node.id} ({node.kind}) balance {balance[node.id]} != supply {node.supply}"
            )
