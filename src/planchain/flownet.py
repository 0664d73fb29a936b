"""Network construction and the exact solver for its min-cost flow.

The chaining problem becomes a flow network with a source feeding one unit
per plan, left/right node pairs per plan (and per variant for plans that
have delayed variants), vehicle nodes, and a sink that absorbs one unit
per plan.  Connection edges carry the policy cost; all structural edges
are free and every edge has bounds [0, 1].

Plans that have at least one delayed variant also receive an explicit
zero-delay variant node pair, and every connection of such a plan is
routed through variant nodes.  A plan can then only leave a chain through
the variant it entered by, which is what makes the chaining exact: a plan
entered as a delayed variant cannot leave through a base connection whose
feasibility was checked undelayed.

The network is held as int64 edge arrays (tail, head, cost), built once,
with the node roles the solver needs precomputed beside them, from the
generators' connection columns by array indexing alone; ``edge_connection``
makes a ``Connection`` only for an edge asked about.  A feasible
flow is an assignment: each plan's right side takes its unit from exactly
one origin (a plan's left side or a vehicle) and each origin sends at
most one, so ``solve_mcf`` collapses the network into a target-by-origin
cost matrix and solves it with the Hungarian method.  Its duals, spread
back over the nodes as potentials, certify the flow through
``residual_is_optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, InputError
from .model import ChainingInstance
from .variantgen import Connection, Connections, GenerationResult

NO_EDGE = 1 << 60  # cost of a matrix cell without a usable connection
_UNSEEN = 1 << 62  # distance of a column the search has not reached


class HungarianState(NamedTuple):
    """Where the assignment solver stopped: enough to warm-start a re-solve.

    ``owner[j]`` is the row assigned to column ``j``, or -1; ``u`` and ``v``
    are the row and column duals.  Every cell satisfies ``u[i] + v[j] <=
    cost[i, j]``, with equality on the assignment, ``v <= 0``, and ``v == 0``
    on unassigned columns.
    """

    owner: np.ndarray  # int64 per column
    u: np.ndarray  # int64 per row
    v: np.ndarray  # int64 per column


@dataclass(frozen=True)
class FlowAssignment:
    """Integral edge flows with the solver's optimality potentials."""

    flows: np.ndarray  # int64 per edge, 0 or 1
    total_cost: int
    potentials: np.ndarray  # int64 per node
    state: HungarianState | None = None  # the solver's, to warm-start a restricted re-solve


class FlowInfeasibleError(InfeasibleError):
    def __init__(self, plan_id: int | None):
        self.plan_id = plan_id
        if plan_id is None:
            super().__init__("flow network is infeasible")
        else:
            super().__init__(f"no chain can reach plan {plan_id}: its right node is unreachable")


class FlowNetwork:
    """The network as int64 edge arrays, plus maps back into the domain objects.

    Nodes are numbered source, left plans, left variants, vehicles, right
    variants, right plans, sink; plans and vehicles in instance order and
    variants by plan, then delay.  Edges are numbered source-side
    structural edges (source to left plans, source to vehicles, left plan
    to left variant), then the connections in generation order, then
    sink-side structural edges (right variant to right plan, right plan to
    sink).  ``edges`` holds one (tail, head, cost) row per edge.
    """

    def __init__(self, instance: ChainingInstance, gen: GenerationResult):
        plans, vehicles = instance.plans, instance.vehicles
        n, n_veh = len(plans), len(vehicles)
        self.instance = instance
        self.connections = Connections.of(instance, gen.connections)
        routed: dict[int, list[int]] = {}  # plan id -> 0 and its delays, ascending
        for v in sorted(gen.variants, key=lambda v: (v.plan_id, v.delay)):
            routed.setdefault(v.plan_id, [0]).append(v.delay)
        self.routed_delays = {p.id: tuple(routed.get(p.id, ())) for p in plans}
        keys = [(p.id, d) for p in plans for d in self.routed_delays[p.id]]  # (plan id, delay) per variant
        self.plan_ids = np.array([p.id for p in plans], dtype=np.int64)
        self.variant_plan = np.searchsorted(self.plan_ids, [pid for pid, _ in keys])  # plan index
        self.variant_delay = np.array([d for _, d in keys], dtype=np.int64)
        k = len(keys)

        left_plan = 1 + np.arange(n)
        left_variant = 1 + n + np.arange(k)
        vehicle = 1 + n + k + np.arange(n_veh)
        right_variant = 1 + n + k + n_veh + np.arange(k)
        right_plan = 1 + n + 2 * k + n_veh + np.arange(n)
        self.source_id = 0
        self.sink_id = 1 + 2 * n + 2 * k + n_veh
        self.node_count = self.sink_id + 1
        self.target_row = np.full(self.node_count, -1, dtype=np.int64)  # right-side node -> target plan
        self.target_row[right_variant] = self.variant_plan
        self.target_row[right_plan] = np.arange(n)
        self.origin_col = np.full(self.node_count, -1, dtype=np.int64)  # left-side node -> origin
        self.origin_col[left_plan] = np.arange(n)
        self.origin_col[left_variant] = self.variant_plan
        self.origin_col[vehicle] = n + np.arange(n_veh)

        # every (plan index, delay) endpoint with a node pair, sorted, with its
        # left and right node: the variants, and each other plan at delay 0
        lp, rp, lv, rv = (x.tolist() for x in (left_plan, right_plan, left_variant, right_variant))
        ends = list(zip(self.variant_plan.tolist(), self.variant_delay.tolist(), lv, rv))
        ends += [(i, 0, lp[i], rp[i]) for i, p in enumerate(plans) if not self.routed_delays[p.id]]
        ends.sort()
        end_plan, end_delay, end_left, end_right = np.array(ends, dtype=np.int64).reshape(-1, 4).T

        # each plan-side endpoint of a connection, origins then targets, found by
        # one sorted search on (plan, rank of the delay): a key below n * (k + 2)
        conns = self.connections
        from_plan = (conns.origin < n).nonzero()[0]
        plan = np.concatenate([conns.origin[from_plan], conns.target])
        delay = np.concatenate([conns.origin_delay[from_plan], conns.target_delay])
        values = np.array(sorted({end[1] for end in ends}), dtype=np.int64)
        stride = len(values) + 1
        end_key = end_plan * stride + np.searchsorted(values, end_delay)
        at = np.searchsorted(end_key, plan * stride + np.searchsorted(values, delay), side="right") - 1
        missing = ((end_plan[at] != plan) | (end_delay[at] != delay)).nonzero()[0]
        if missing.size:
            r = missing[0]
            raise InputError(f"connection endpoint {(int(self.plan_ids[plan[r]]), int(delay[r]))} has no node")
        conn_tail = 1 + k + conns.origin  # a vehicle's node
        conn_tail[from_plan] = end_left[at[: len(from_plan)]]
        conn_head = end_right[at[len(from_plan) :]]
        self.max_cost = int(conns.cost.max()) if len(conns) else 0
        # checked in Python ints: an assignment through real cells must cost
        # less than one through a no-edge cell, and the duals and search
        # distances, which stay within n * max cost of 0 and of NO_EDGE, need
        # headroom below the sentinels (the argument is in ``_hungarian``)
        if 4 * n * self.max_cost >= NO_EDGE:
            raise InputError(
                f"connection cost {self.max_cost} over {n} plans exceeds the exact integer range of the relaxation"
            )

        down_head = np.concatenate([left_plan, vehicle, left_variant])
        up_tail = np.concatenate([right_variant, right_plan])
        tail = np.concatenate([np.zeros(n + n_veh, dtype=np.int64), left_plan[self.variant_plan], conn_tail, up_tail])
        head = np.concatenate([down_head, conn_head, right_plan[self.variant_plan], np.full(n, self.sink_id)])
        first, last = len(down_head), len(down_head) + len(conns)
        cost = np.zeros(len(tail), dtype=np.int64)
        cost[first:last] = conns.cost
        self.edges = np.stack([tail, head, cost], axis=1)
        self.edges.setflags(write=False)
        self.tail, self.head, self.cost = self.edges.T
        self.connection_edges = range(first, last)
        self.left_struct = slice(n + n_veh, first)
        self.right_struct = slice(last, last + k)
        self.left_struct_edge = dict(zip(keys, range(n + n_veh, first)))
        self.right_struct_edge = dict(zip(keys, range(last, last + k)))

        # the structural edge into each left node from the source side and
        # out of each right node to the sink side
        self.parent_edge = np.full(self.node_count, -1, dtype=np.int64)
        self.parent_edge[down_head] = np.arange(first)
        self.child_edge = np.full(self.node_count, -1, dtype=np.int64)
        self.child_edge[up_tail] = np.arange(last, len(tail))

        # matrix cell of each connection, and the connections sorted by
        # cell, then cost, then edge id: the first usable one of a cell wins
        self.cell = conns.target * (n + n_veh) + conns.origin
        self.cell_order = np.lexsort((np.arange(len(conns)), conns.cost, self.cell))

    def edge_connection(self, eid: int) -> Connection:
        """The connection a connection edge carries."""
        return self.connections[eid - self.connection_edges.start]

    def edge_list_text(self) -> str:
        """Plain-text dump, one edge per line: tail head lower upper cost."""
        return "\n".join(f"{t} {h} 0 1 {c}" for t, h, c in self.edges.tolist())


def build_network(instance: ChainingInstance, gen: GenerationResult) -> FlowNetwork:
    """Assemble the flow network for a generation result.

    Every connection of a variant-carrying plan is routed through variant
    nodes, including an explicit zero-delay variant.  Raises ``InputError``
    when a connection names a variant without a node, or when costs are
    too large for exact int64 duals.
    """
    return FlowNetwork(instance, gen)



def _hungarian(cost: np.ndarray, limit: int, row_ids, start: HungarianState) -> HungarianState:
    """Assign every row its own column at minimum total cost, from ``start``.

    The Hungarian method in its shortest-augmenting-path form (Jonker &
    Volgenant 1987): each unassigned row enters through a Dijkstra search
    over the reduced costs ``cost - u - v``.  The duals move only once the
    path is found: each scanned column and its row by how far short of the
    path's end the search reached it.

    ``start`` must be dual feasible for ``cost`` and is kept as far as it
    stays optimal: an assigned row whose cell is no longer tight (it got
    dearer or unusable) is freed, and only free rows are searched.  From the
    empty state (no owners, zero duals) this is the cold solve; from the
    state of a solve on cheaper costs it is the dynamic Hungarian method
    (Mills-Tettey, Stentz & Dias, CMU-RI-TR-07-27, 2007).

    The matrix is rectangular (n rows, m >= n columns), and a freed column
    can keep ``v < 0``, which an unassigned column may not have at the
    optimum.  The search treats the matrix as squared by m - n identical
    zero-cost slack rows.  At any dual-feasible state the columns they own
    all carry the largest column dual ``mu`` (their dual is ``-mu``), so
    they act as one pseudo-row owning m - n of the free columns at ``mu``.
    A search ends at the first free column it reaches, unless exactly m - n
    free columns are at ``mu`` and this is one of them: then the pseudo-row
    and all its columns join the search, which reaches any column ``j`` from
    there at ``mu - v[j]`` further.  (With more free columns at ``mu``, each
    is as near as the pseudo-row's own, so any of them can end a path.)  At
    the end the only free columns are the slack-owned ones, all at ``mu``,
    so shifting ``v -= mu`` and ``u += mu`` gives back rectangular duals.
    Cold searches never meet the pseudo-row: every free column is at ``mu =
    0`` and more than m - n are free.

    Infeasibility: the dual objective ``sum(u) + sum(v) - (m - n) * mu``
    never exceeds the optimum (weak duality), and a search that has reached
    distance ``d`` has raised it by ``d``.  An assignment through real cells
    costs at most ``limit`` (n times the largest cost), and one through a
    no-edge cell at least ``NO_EDGE``, so once the dual objective passes
    ``limit`` every assignment needs a no-edge cell: ``FlowInfeasibleError``
    names the row being searched.  This holds for any dual-feasible start;
    the empty state starts at 0 and a parent's state at the parent's
    optimum.  The fence ``4 * n * max cost < NO_EDGE`` in ``FlowNetwork``
    keeps this exact in int64: ``limit < NO_EDGE``, and as every search
    stops before the dual objective passes ``limit``, no dual moves further
    than ``limit`` from 0 and every distance stays below ``NO_EDGE + 2 *
    limit < _UNSEEN``.
    """
    n, m = cost.shape
    owner = np.append(start.owner, -1)  # column m roots every search
    u, v = start.u.copy(), start.v.copy()
    if np.any(v > 0) or np.any(cost - v < u[:, None]):
        raise ValueError("the start state is not dual feasible for this cost matrix")
    cols = (owner[:m] >= 0).nonzero()[0]
    rows = owner[cols]
    owner[cols[cost[rows, cols] != u[rows] + v[cols]]] = -1
    assigned = np.zeros(n, dtype=bool)
    assigned[owner[owner >= 0]] = True
    level = sum(u.tolist()) + sum(v.tolist())  # the dual objective
    slack, mu = m - n, 0
    for i in (~assigned).nonzero()[0].tolist():
        slack_cols = ((owner[:m] < 0) & (v == mu)).nonzero()[0]
        pseudo = slack > 0 and len(slack_cols) == slack
        dist = np.full(m, _UNSEEN, dtype=np.int64)  # final once a column is scanned
        front = dist.copy()  # dist of the columns not scanned yet
        way = np.full(m, m, dtype=np.int64)  # the column whose row reached each column
        scanned: list[int] = []
        entry = None  # distance at which the pseudo-row joined
        owner[m] = i
        r, j, d = i, m, 0
        while True:
            # nonnegative reduced costs keep every scanned column out of ``closer``
            if r >= 0:
                cur = cost[r] - v
                cur += d - int(u[r])
            else:  # the slack pseudo-row: zero costs, dual -mu
                cur = (d + mu) - v
            closer = cur < dist
            np.copyto(dist, cur, where=closer)
            np.copyto(front, cur, where=closer)
            np.copyto(way, j, where=closer)
            j = int(front.argmin())
            d = int(front[j])
            if level + d > limit:
                raise FlowInfeasibleError(row_ids[i])
            front[j] = _UNSEEN
            r = int(owner[j])
            if r >= 0:
                scanned.append(j)
            elif pseudo and v[j] == mu:
                dist[slack_cols] = d
                front[slack_cols] = _UNSEEN
                scanned += slack_cols.tolist()
                entry, pseudo = d, False
            else:
                break
        seen = np.array(scanned, dtype=np.int64)
        gain = d - dist[seen]
        v[seen] -= gain
        held = owner[seen]
        real = held >= 0
        u[held[real]] += gain[real]
        u[i] += d
        if entry is not None:
            mu -= d - entry
        level += d
        while j != m:
            prev = int(way[j])
            owner[j] = owner[prev]
            j = prev
    u += mu
    v -= mu
    return HungarianState(owner[:m], u, v)


def _assignment_matrix(net: FlowNetwork, disabled_edges: frozenset[int]):
    """The target-by-origin cost matrix of a network with some edges disabled.

    Returns the matrix (``NO_EDGE`` where no connection is usable), the
    connection edge behind each cell (-1 for none), flat, and the nodes a
    disabled edge separates from the source or the sink.
    """
    tails, heads = net.tail, net.head
    n = len(net.plan_ids)
    m = n + len(net.instance.vehicles)
    off = np.zeros(len(net.edges), dtype=bool)
    off[list(disabled_edges)] = True
    cut = np.zeros(net.node_count, dtype=bool)  # a disabled edge separates the node from source or sink
    start, stop = net.connection_edges.start, net.connection_edges.stop
    down, block, up = slice(0, start), slice(start, stop), slice(stop, None)
    for _ in range(2):  # structural paths have at most two edges
        cut[heads[down]] = off[down] | cut[tails[down]]
        cut[tails[up]] = off[up] | cut[heads[up]]

    usable = ~off[block] & ~cut[tails[block]] & ~cut[heads[block]]
    order = net.cell_order[usable[net.cell_order]]
    first = order[np.diff(net.cell[order], prepend=-1) != 0]
    matrix = np.full(n * m, NO_EDGE, dtype=np.int64)
    matrix[net.cell[first]] = net.cost[start + first]
    edge_at = np.full(n * m, -1, dtype=np.int64)
    edge_at[net.cell[first]] = start + first
    return matrix.reshape(n, m), edge_at, cut


def solve_mcf(
    network: FlowNetwork,
    disabled_edges: frozenset[int] = frozenset(),
    start: HungarianState | None = None,
) -> FlowAssignment:
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

    ``start`` warm-starts the solver from the ``state`` of an assignment
    solved on the same network with a subset of ``disabled_edges``.
    Disabling edges only raises cells, so that state stays dual feasible,
    and only the plans whose assigned cell got dearer are re-assigned; the
    result is as exact as a cold solve, though on tied optima it can be
    another optimal assignment.  Without ``start`` the solver begins from
    the empty assignment.

    Raises ``FlowInfeasibleError`` naming the lowest-id plan without a
    usable incoming connection, else the plan whose row found no augmenting
    path.
    """
    net = network
    n = len(net.plan_ids)
    m = n + len(net.instance.vehicles)
    matrix, edge_at, cut = _assignment_matrix(net, disabled_edges)
    starved = (matrix == NO_EDGE).all(axis=1).nonzero()[0]
    if starved.size:
        raise FlowInfeasibleError(int(net.plan_ids[starved[0]]))
    if start is None:
        start = HungarianState(np.full(m, -1, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64))

    state = _hungarian(matrix, n * net.max_cost, net.plan_ids.tolist(), start)
    owner, u, v = state
    for part in state:
        part.setflags(write=False)

    assigned = (owner >= 0).nonzero()[0]
    chosen = edge_at[owner[assigned] * m + assigned]
    flows = np.zeros(len(net.edges), dtype=np.int64)
    flows[chosen] = 1
    tails, heads = net.tail, net.head
    for path, end in ((net.parent_edge, tails), (net.child_edge, heads)):  # back to the source, on to the sink
        hop = chosen
        while hop.size:
            hop = path[end[hop]]
            hop = hop[hop >= 0]
            flows[hop] = 1

    left, right = net.origin_col >= 0, net.target_row >= 0
    potentials = np.zeros(net.node_count, dtype=np.int64)
    potentials[left] = -v[net.origin_col[left]]
    potentials[right] = u[net.target_row[right]]
    potentials[cut] = np.where(left[cut], NO_EDGE, -NO_EDGE)
    potentials[net.sink_id] = u.max() if n else 0
    total = sum(net.cost[chosen].tolist())
    flows.setflags(write=False)
    potentials.setflags(write=False)
    return FlowAssignment(flows, total, potentials, state)


def residual_is_optimal(
    network: FlowNetwork,
    assignment: FlowAssignment,
    disabled_edges: frozenset[int] = frozenset(),
) -> bool:
    """Certificate check: no residual arc has a negative reduced cost."""
    pi = np.asarray(assignment.potentials, dtype=np.int64)
    flows = np.asarray(assignment.flows, dtype=np.int64)
    live = np.ones(len(network.edges), dtype=bool)
    live[list(disabled_edges)] = False
    reduced = network.cost + pi[network.tail] - pi[network.head]
    forward = live & (flows < 1) & (reduced < 0)
    backward = live & (flows > 0) & (reduced > 0)
    return not (forward.any() or backward.any())


def check_conservation(network: FlowNetwork, assignment: FlowAssignment) -> None:
    """Assert flow conservation and bounds exactly; raises on violation."""
    flows = np.asarray(assignment.flows, dtype=np.int64)
    if flows.shape != (len(network.edges),):
        raise InfeasibleError(f"{flows.size} edge flows for {len(network.edges)} edges")
    outside = np.flatnonzero((flows < 0) | (flows > 1))
    if outside.size:
        i = int(outside[0])
        raise InfeasibleError(f"edge {i} flow {flows[i]} outside [0, 1]")
    on = flows == 1
    nodes = network.node_count
    balance = np.bincount(network.tail[on], minlength=nodes) - np.bincount(network.head[on], minlength=nodes)
    supply = np.zeros(nodes, dtype=np.int64)
    supply[network.source_id] = len(network.plan_ids)
    supply[network.sink_id] = -len(network.plan_ids)
    wrong = np.flatnonzero(balance != supply)
    if wrong.size:
        i = int(wrong[0])
        raise InfeasibleError(f"node {i} balance {balance[i]} != supply {supply[i]}")
