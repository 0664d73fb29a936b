"""Scalar twins of the vectorized code, for the differential tests.

``generate_reference`` and ``generate_exhaustive_reference`` mirror the
variant generators with one model-layer call per origin/target pair
(through ``try_connect`` for the minimal one), and pin their output,
connection order included.  ``assignment_matrix_reference`` builds the
relaxation's cost matrix from the edge view, as the node-level twin of
the solver's row-level one, and ``per_vehicle_reference`` orders the
per-vehicle rows of any class rows.  ``schedule_stops`` and
``insertion_reference`` restate the DARP insertion heuristic over
``Request`` fields and the range-checked ``TravelMatrix.duration``, so
the DARP references share no scheduling code with ``planchain.darp``.
``group_search_reference`` searches one group depth first, as the
oracle of ``darp._search_batch``'s label search over all groups, and
``next_stops_reference`` builds one mask's next stops row by row, as the
twin of ``darp._mask_steps`` over the per-batch ``darp._step_table``.

``check_assignment_certificate`` checks that a relaxation's Hungarian
duals prove its chosen rows optimal, reading only the connection rows and
its own usability rule.  ``full_variant_optimal`` re-solves an instance
with the solver under test over every integer-delay variant, as the
ground truth for the minimal generator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from planchain import model
from planchain.chainsolve import solve_network
from planchain.darp import RoutePlan, Stop
from planchain.errors import InfeasibleError, InputError
from planchain.flownet import NO_EDGE, build_network
from planchain.model import ChainingInstance, Plan, VariantRef, Vehicle
from planchain.variantgen import Connection, GenerationResult, generate_exhaustive

FULL_VARIANT_GUARD_TICKS = 200


@dataclass(frozen=True)
class Direct:
    """The target plan can follow without being delayed."""

    connection: Connection | None


@dataclass(frozen=True)
class NewVariant:
    """The target plan must be delayed; carries the fresh variant."""

    variant: VariantRef
    connection: Connection | None


@dataclass(frozen=True)
class Infeasible:
    """No delay within the target's budget makes the connection work."""


ConnectOutcome = Direct | NewVariant | Infeasible


def try_connect(instance: ChainingInstance, a: Vehicle | VariantRef, b: Plan) -> ConnectOutcome:
    """Attempt to connect origin ``a`` to plan ``b``, delaying ``b`` if needed.

    The produced delay is the minimum feasible one.  ``connection`` is
    ``None`` when the cost policy forbids the edge; the variant itself is
    still reported so callers can keep probing from it.
    """
    if isinstance(a, VariantRef) and a.plan_id == b.id:
        raise InputError(f"cannot connect plan {b.id} to its own variant")
    delay = model.minimal_target_delay(instance, a, b)
    if delay is None:
        return Infeasible()
    target = VariantRef(b.id, delay)
    cost = model.connection_cost(instance, a, target)
    connection = None if cost is None else Connection(a, target, cost)
    if delay == 0:
        return Direct(connection)
    return NewVariant(target, connection)


def generate_reference(instance: ChainingInstance, *, queue_lifo: bool = False) -> GenerationResult:
    """Plain scalar minimal generation via ``try_connect``; twin of ``variantgen.generate``."""
    variants: dict[VariantRef, None] = {}
    connections: dict[tuple, Connection] = {}
    queue: deque[VariantRef] = deque()

    def record(outcome: ConnectOutcome) -> None:
        if isinstance(outcome, Infeasible):
            return
        if isinstance(outcome, NewVariant) and outcome.variant not in variants:
            variants[outcome.variant] = None
            queue.append(outcome.variant)
        conn = outcome.connection
        if conn is None:
            return
        origin = conn.origin
        okey = ("v", origin.id) if isinstance(origin, Vehicle) else ("p", origin.plan_id, origin.delay)
        connections.setdefault((okey, conn.target.plan_id, conn.target.delay), conn)

    for a in instance.plans:
        origin = VariantRef(a.id, 0)
        for b in instance.plans:
            if b.id != a.id:
                record(try_connect(instance, origin, b))
    for v in instance.vehicles:
        for b in instance.plans:
            record(try_connect(instance, v, b))
    while queue:
        phi = queue.pop() if queue_lifo else queue.popleft()
        for p in instance.plans:
            if p.id != phi.plan_id:
                record(try_connect(instance, phi, p))
    return GenerationResult(tuple(variants), tuple(connections.values()))


def generate_exhaustive_reference(instance: ChainingInstance) -> GenerationResult:
    """Plain scalar exhaustive generation; twin of ``variantgen.generate_exhaustive``.

    Emits the connections in the same order: origins by (plan id, delay),
    then vehicles by id, each against targets by (plan id, delay).
    """
    variants: list[VariantRef] = []
    all_refs: list[VariantRef] = []
    for p in instance.plans:
        for d in range(p.d_max + 1):
            ref = VariantRef(p.id, d)
            all_refs.append(ref)
            if d > 0:
                variants.append(ref)
    connections: list[Connection] = []
    for origin in [*all_refs, *instance.vehicles]:
        for target in all_refs:
            if not isinstance(origin, Vehicle) and origin.plan_id == target.plan_id:
                continue
            if not model.connection_feasible(instance, origin, target):
                continue
            cost = model.connection_cost(instance, origin, target)
            if cost is not None:
                connections.append(Connection(origin, target, cost))
    return GenerationResult(tuple(variants), tuple(connections))


def assignment_matrix_reference(net, window):
    """``solve_mcf``'s cost matrix, and the connection edge per cell (-1: none), flat.

    Edge-level twin of the row rule: each variant outside its plan's
    ``window`` has both structural edges closed, and so does a plan without
    variants (its source and sink edge) when the window leaves out delay 0.
    A closed edge cuts the nodes past it on its structural path from the
    source or to the sink, and a connection at a cut node is unusable.  A
    connection's cell comes from its edge's nodes: the column of its left
    node (a plan, a variant's plan or a vehicle) and the plan of its right one.
    """
    n, k, v = len(net.plan_ids), len(net.variant_plan), len(net.instance.vehicles)
    m = n + v
    tail, head, cost = net.edges.T
    off = np.zeros(len(net.edges), dtype=bool)
    for i, (p, d) in enumerate(zip(net.variant_plan.tolist(), net.variant_delay.tolist())):
        if not window[0][p] <= d <= window[1][p]:
            off[net.left_struct.start + i] = off[net.right_struct.start + i] = True
    for i, pid in enumerate(net.plan_ids.tolist()):
        if not net.routed_delays[pid] and not window[0][i] <= 0 <= window[1][i]:
            off[i] = off[net.right_struct.stop + i] = True
    cut = np.zeros(net.node_count, dtype=bool)
    start, stop = net.connection_edges.start, net.connection_edges.stop
    down, block, up = slice(0, start), slice(start, stop), slice(stop, None)
    for _ in range(2):  # structural paths have at most two edges
        cut[head[down]] = off[down] | cut[tail[down]]
        cut[tail[up]] = off[up] | cut[head[up]]
    usable = ~off[block] & ~cut[tail[block]] & ~cut[head[block]]
    # the usable connections by cell, then cost, then edge: each cell's first wins
    column = np.concatenate([[-1], np.arange(n), net.variant_plan, n + np.arange(v)])  # per left-side node
    plan = np.concatenate([net.variant_plan, np.arange(n)])  # per right-side node, from 1 + n + k + v
    cell = plan[head[block] - (1 + n + k + v)] * m + column[tail[block]]
    order = np.lexsort((np.arange(len(cell)), cost[block], cell))
    order = order[usable[order]]
    first = order[np.diff(cell[order], prepend=-1) != 0]
    matrix, edge_at = np.full(n * m, NO_EDGE, dtype=np.int64), np.full(n * m, -1, dtype=np.int64)
    matrix[cell[first]] = cost[start + first]
    edge_at[cell[first]] = start + first
    return matrix.reshape(n, m), edge_at


def check_assignment_certificate(net, assignment) -> None:
    """Assert that ``assignment``'s duals prove its chosen rows an optimal assignment under its window.

    A row is usable when its target delay, and its origin delay if the
    origin is a plan, lie in that plan's window.  The chosen rows must own
    every plan once, each the usable row of its column's cell; ``v <= 0``,
    0 on free columns; every usable row must cost at least ``u`` of its
    target plus the largest ``v`` over its origin's class, with equality on
    the chosen rows; and the rows' cost, ``total_cost`` and the dual
    objective must agree.  An ``AssertionError`` names the broken part.
    """
    conns, rows, (owner, u, v) = net.connections, assignment.rows, assignment.state
    n, m = len(u), len(v)
    lo, hi = np.concatenate((assignment.window, np.zeros((2, m - n), dtype=np.int64)), axis=1)  # vehicles: [0, 0]
    target, origin = conns.target, conns.origin
    usable = (lo[target] <= conns.target_delay) & (conns.target_delay <= hi[target])
    usable &= (lo[origin] <= conns.origin_delay) & (conns.origin_delay <= hi[origin])
    cols = (owner >= 0).nonzero()[0]
    assert sorted(owner[cols].tolist()) == list(range(n)), "matching: a plan is not owned exactly once"
    assert len(rows) == len(cols), "matching: not one chosen row per assigned column"
    cell = (target[rows] == owner[cols]) & (origin[rows] == conns.column_class[cols])
    assert cell.all(), "matching: a chosen row is not its column's cell's"
    assert usable[rows].all(), "matching: a chosen row is unusable"
    assert (v <= 0).all() and (v[owner < 0] == 0).all(), "dual: v > 0, or v != 0 on a free column"
    class_v = np.full(m, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(class_v, conns.column_class, v)  # the largest column dual of each class
    below = conns.cost[usable] < u[target[usable]] + class_v[origin[usable]]
    assert not below.any(), "dual: a usable row is below its duals"
    assert (conns.cost[rows] == u[target[rows]] + v[cols]).all(), "tightness: a chosen row is not tight"
    cost = sum(conns.cost[rows].tolist())
    assert cost == assignment.total_cost == sum(u.tolist()) + sum(v.tolist()), "objective: primal and dual differ"


def full_variant_optimal(instance: ChainingInstance) -> int | None:
    """Optimal objective over every integer-delay variant, or None; guarded to ``FULL_VARIANT_GUARD_TICKS`` ticks.

    The exhaustive variant set makes the network formulation exact for any
    per-connection cost rule; it re-solves with ``chainsolve``.
    """
    gen = generate_exhaustive(instance, guard_ticks=FULL_VARIANT_GUARD_TICKS)
    try:
        return solve_network(build_network(instance, gen)).objective
    except InfeasibleError:
        return None


def per_vehicle_reference(conns):
    """The class row and the origin column of each per-vehicle row of ``conns``, for any row order.

    The general rule: each class row stays in place, and a member vehicle's
    copies of its class rows, in order, follow the last class row of any
    vehicle before it, members in vehicle order.  ``Connections._view``
    lays out only its generators' one run of vehicle rows.
    """
    n, rows, member = len(conns.instance.plans), np.arange(len(conns.cost)), conns.members
    if not member.size:
        return rows, conns.origin
    vehicle_rows = (conns.origin >= n).nonzero()[0]
    classes = conns.origin[vehicle_rows] - n
    by_class = vehicle_rows[np.argsort(classes, kind="stable")]  # each class's rows, in row order
    count = np.bincount(classes, minlength=len(conns.column_class) - n)  # class rows per representative
    start = np.cumsum(count) - count
    last = np.full(len(count), -1, dtype=np.int64)
    has = count > 0
    last[has] = by_class[(start + count - 1)[has]]
    cls = conns.column_class[n + member] - n
    width = count[cls]
    copies = by_class[np.repeat(start[cls], width) + np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)]
    at = np.repeat(np.maximum.accumulate(last)[member - 1] + 1, width)  # vehicle 0 leads its class
    return np.insert(rows, at, copies), np.insert(conns.origin, at, np.repeat(n + member, width))


def schedule_stops(order, travel, capacity: int, loc: int, t: int):
    """Earliest stop times of (request, "pickup" | "dropoff") ``order`` leaving ``loc`` at tick ``t``, or None.

    None when a pickup misses ``[t_r, latest_pickup]``, an arrival misses
    ``latest_arrival`` or more than ``capacity`` requests ride at once.
    """
    times, onboard = [], 0
    for req, kind in order:
        if kind == "pickup":
            t = max(t + travel.duration(loc, req.origin), req.t_r)
            loc, onboard = req.origin, onboard + 1
            if onboard > capacity or t > req.latest_pickup:
                return None
        else:
            t += travel.duration(loc, req.destination)
            loc, onboard = req.destination, onboard - 1
            if t > req.latest_arrival(travel):
                return None
        times.append(t)
    return times


def insertion_reference(instance):
    """(routes, objective) by ``darp.insertion_heuristic``'s rule; twin of it.

    Requests in (t_r, id) order; every (opened vehicle, i, j) is tried, the
    pickup going to position i and then the dropoff to position j of the
    route; the least duration increase wins, ties by vehicle id, then i,
    then j.  When no trial fits, the nearest unused vehicle by (approach,
    id) that can serve the request alone is opened; ``InfeasibleError``
    when none can.
    """
    travel, capacity = instance.travel, instance.capacity
    fleet = {v.id: v for v in instance.fleet}
    routes = {}  # vehicle id -> (order, times)
    for req in sorted(instance.requests, key=lambda r: (r.t_r, r.id)):
        trials = []  # (increase, vehicle id, i, j, order, times)
        for vid, (order, times) in routes.items():
            for i in range(len(order) + 1):
                for j in range(i + 1, len(order) + 2):
                    trial = order[:i] + [(req, "pickup")] + order[i:]
                    trial = trial[:j] + [(req, "dropoff")] + trial[j:]
                    new = schedule_stops(trial, travel, capacity, fleet[vid].start_location, fleet[vid].t_st)
                    if new is not None:
                        trials.append((new[-1] - new[0] - (times[-1] - times[0]), vid, i, j, trial, new))
        if trials:
            best = min(trials, key=lambda trial: trial[:4])
            routes[best[1]] = best[4:]
            continue
        alone = [(req, "pickup"), (req, "dropoff")]
        for v in sorted(instance.fleet, key=lambda v: (travel.duration(v.start_location, req.origin), v.id)):
            times = None if v.id in routes else schedule_stops(alone, travel, capacity, v.start_location, v.t_st)
            if times is not None:
                routes[v.id] = (alone, times)
                break
        else:
            raise InfeasibleError(f"fleet exhausted: request {req.id} fits no vehicle")
    out, objective = [], 0
    for vid in sorted(routes):
        order, times = routes[vid]
        locations = [fleet[vid].start_location] + [r.origin if k == "pickup" else r.destination for r, k in order]
        objective += sum(travel.duration(a, b) for a, b in zip(locations, locations[1:]))
        stops = tuple(Stop(r.id, k, loc, t) for (r, k), loc, t in zip(order, locations[1:], times))
        out.append((fleet[vid], RoutePlan(stops)))
    return tuple(out), objective


def group_search_reference(rows, travel):
    """Best (duration, driving, stops) of one group by depth-first search, or None.

    ``rows`` are ``darp._request_rows`` rows sorted by id, at most the
    capacity, so the onboard count never binds; each gains its shortest
    ride from the ``closure``.  Each stop is (0 for a pickup or 1 for a
    dropoff, request id, time, location).  A branch is cut once a bound
    read from the shortest-path ``closure`` shows that a pending pickup or
    any arrival must miss its window, or that the plan must last longer
    than the best one found; the duration cut is strict, so ties still
    reach the tie-break.
    """
    table, short = travel.table, travel.closure
    rows = [row + (short[row[1]][row[2]],) for row in rows]
    best: tuple | None = None

    def dfs(seq, loc, now, first, pending, riding, driving):
        nonlocal best
        if not pending and not riding:
            key = (now - first, driving, tuple(seq))
            if best is None or key < best:
                best = key
            return
        reach = short[loc]
        end = now
        for _, origin, _, t_r, latest_pickup, latest_arrival, ride in pending:
            t = now + reach[origin]
            if t < t_r:
                t = t_r
            if t > latest_pickup:
                return
            t += ride
            if t > latest_arrival:
                return
            if t > end:
                end = t
        for _, _, destination, _, _, latest_arrival, _ in riding:
            t = now + reach[destination]
            if t > latest_arrival:
                return
            if t > end:
                end = t
        if best is not None and end - first > best[0]:
            return
        row = table[loc]
        for req in pending:
            rid, origin, _, t_r, latest_pickup, _, _ = req
            leg = row[origin]
            t = now + leg
            if t < t_r:
                t = t_r
            if t <= latest_pickup:
                rest = [r for r in pending if r is not req]
                dfs(seq + [(0, rid, t, origin)], origin, t, first, rest, riding + [req], driving + leg)
        for req in riding:
            rid, _, destination, _, _, latest_arrival, _ = req
            leg = row[destination]
            t = now + leg
            if t <= latest_arrival:
                rest = [r for r in riding if r is not req]
                dfs(seq + [(1, rid, t, destination)], destination, t, first, pending, rest, driving + leg)

    for req in rows:  # the first stop: no approach leg
        rid, origin, _, t_r, _, _, _ = req
        dfs([(0, rid, t_r, origin)], origin, t_r, t_r, [r for r in rows if r is not req], [req], 0)
    return best


def next_stops_reference(rows, travel, onboard, opened):
    """``darp._mask_steps``'s steps for onboard mask ``onboard``, built from the rows alone, in row order.

    A step is (pickup bit or 0, location, earliest tick, latest tick, state
    delta, whether it empties the vehicle, stop code, request id).  The
    latest tick is the stop's window, lowered so that every rider can still
    reach its destination over the ``closure``.
    """
    n, short = len(rows), travel.closure
    riders = [(r[2], r[5]) for k, r in enumerate(rows) if onboard >> k & 1]
    steps = []
    for k, (rid, origin, destination, t_r, latest_pickup, latest_arrival) in enumerate(rows):
        bit = 1 << k
        if onboard & bit:
            code, to, earliest, latest, delta = 1, destination, 0, latest_arrival, -(bit << n)
        elif opened:
            code, to, earliest, latest, delta = 0, origin, t_r, latest_pickup, bit | bit << n
        else:
            continue
        reach = short[to]
        for dest, arrival in riders:
            if arrival - reach[dest] < latest:
                latest = arrival - reach[dest]
        steps.append((0 if code else bit, to, earliest, latest, delta + (to << 2 * n), onboard == bit, code, rid))
    return steps
