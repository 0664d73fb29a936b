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

A feasible flow is an assignment: each plan's right side takes its unit
from exactly one origin (a plan's left side or a vehicle) and each origin
sends at most one, so ``solve_mcf`` collapses the network into a
target-by-origin cost matrix and solves it with the Hungarian method.  It
reads only the connection rows, each one source-to-sink path of at most
five edges.  Branch-and-bound restricts a relaxation by a delay window per
plan, which closes the variant nodes outside it: a row is usable when its
own target delay, and its origin delay if the origin is a plan, lie in
those plans' windows.

The Hungarian method has two kernels that return the same state, or raise
the same error: a matrix of fewer than ``_LIST_CELLS`` cells is solved on
Python lists, where numpy's fixed cost per call would outweigh the
arithmetic, and a larger one on numpy arrays.

Generated connections hold one set of rows per vehicle class (vehicles
with one start location and ``t_st``): the network sorts and filters only
those, fills each class's matrix column from them and copies that column
to every member vehicle's, so the assignment sees one column per vehicle.
A chosen connection is therefore a matrix column and a class row, and
the Hungarian duals certify the assignment per connection row: the tests
check every usable row against them.  The edge view numbers one
connection edge per vehicle, through the per-vehicle view of the rows
(``Connections.per_vehicle``); it is derived on read, for the edge-list
dump and an edge count, and no solve reads it.

A network holds one live assignment matrix, not one per relaxation: each
relaxation moves it to its own window, and on a large network refills
only the cells of the plans whose window changed.  So a network serves
one relaxation at a time, and a matrix read from it holds only until the
next one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import eq, lt, sub
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, InputError
from .model import ChainingInstance
from .variantgen import Connections, GenerationResult

NO_EDGE = 1 << 60  # cost of a matrix cell without a usable connection
_UNSEEN = 1 << 62  # distance of a column the search has not reached
# class rows from which a network refills only the changed plans' cells of
# its live matrix (``_assignment_matrix``): below them a full fill per
# relaxation takes less time than a refill's fixed numpy calls (they broke
# even at about 4,000 to 6,000 rows on generated 12- to 50-plan networks)
_REFILL_ROWS = 4096
# matrix cells below which ``_hungarian`` runs its list kernel: there the
# numpy kernel's fixed cost per call outweighs its arithmetic (on a 2-core
# host the list kernel took 22 against 35 us a call on chain-small-many's
# matrices of at most 70 cells, 35 against 47 us on seed 502's 12 x 15, and
# the two broke even at about 300 to 380 cells on random matrices)
_LIST_CELLS = 256


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

    @property
    def columns(self) -> np.ndarray:
        """The assigned columns, ascending: the order of the rows ``solve_mcf`` chose."""
        return (self.owner >= 0).nonzero()[0]


class FlowAssignment(NamedTuple):
    """A solve's chosen connection ``rows``, with the Hungarian state that certifies them.

    ``rows`` are class rows, one per assigned matrix column in column order
    (``state.columns``); a vehicle's row is its class's.  ``state`` is the
    Hungarian state (to warm-start a restricted re-solve) and ``window``
    the int64 delay window it was solved under.
    """

    rows: np.ndarray
    state: HungarianState
    window: np.ndarray
    total_cost: int


class FlowInfeasibleError(InfeasibleError):
    """No feasible flow: plan ``plan_id`` has no usable incoming connection
    (``starved``), or no assignment of origins covers every plan, as the
    search for ``plan_id``'s origin found."""

    def __init__(self, plan_id: int, starved: bool = True):
        self.plan_id = plan_id
        if starved:
            super().__init__(f"no chain can reach plan {plan_id}: its right node is unreachable")
        else:
            super().__init__(f"no assignment of origins covers every plan (found while assigning plan {plan_id})")


class FlowNetwork:
    """A chaining network: connection rows for the solver, an edge list on demand.

    ``connections`` holds class rows: a generator keeps one vehicle's rows
    per class, and a hand-built list makes every vehicle its own class.
    ``Connections.of`` has checked that every delayed endpoint is one of
    the generation's variants, which ``routed_delays``, ``variant_plan``
    and ``variant_delay`` list with each such plan's explicit delay 0, and
    that every delay lies in ``open_window``, int64 ``[0, d_max]`` per plan.
    Variants other than a generator's own tuple are checked here: each must
    be a distinct delay in ``[1, d_max]`` of an instance plan, else
    ``InputError`` names it.

    Row ``r`` fills matrix cell ``cell[r] = target * m + origin`` of the n x
    m assignment matrix (m = n + vehicles), and a member vehicle's column
    is a copy of its class representative's (``connections.column_class``).
    ``cell_order`` lists the rows by cell, then cost, then row, as one
    stable sort of the int64 key ``cell * span + (cost - low)``, where
    ``low`` is the lowest cost and ``span = max_cost - low + 1``, and
    ``ordered_cells`` their cells in that order.  The key is below ``n * m
    * span``, so a network with ``n * m * span >= 2**63`` is refused with
    ``InputError``, as is one with a negative cost or with costs that break
    the relaxation's ``4 * n * max_cost < NO_EDGE`` fence.  That, and the
    rows' own delays, is all a solve reads; the network also keeps the
    live matrix of its last relaxation (``_assignment_matrix``).

    The edge view is derived on read from the per-vehicle rows
    (``connections.per_vehicle``) for the edge-list dump and an edge
    count; no solve reads it.  Nodes are numbered
    source, left plans, left variants, vehicles, right variants, right
    plans, sink; plans and vehicles in instance order and variants by plan,
    then delay.  Edges are numbered source to left plans, source to
    vehicles, ``left_struct`` (left plan to left variant),
    ``connection_edges`` (the per-vehicle rows in order), ``right_struct``
    (right variant to right plan), right plan to sink.  A row's path runs
    from its origin column's source edge through variant edges
    ``left_struct.start + i`` and ``right_struct.start + j`` to its target
    plan's sink edge, where ``_variant_index`` gives its origin's variant
    ``i`` and its target's ``j`` (-1, no edge, where there is none).
    """

    def __init__(self, instance: ChainingInstance, gen: GenerationResult):
        plans = instance.plans
        n, n_veh = len(plans), len(instance.vehicles)
        self.instance = instance
        self.connections = conns = Connections.of(instance, gen.connections, gen.variants)
        if conns is not gen.connections or conns.variants is not gen.variants:  # not a generator's own tuple
            budget, seen = {p.id: p.d_max for p in plans}, set()
            for v in gen.variants:
                ref = (v.plan_id, v.delay)
                if v.plan_id not in budget:
                    raise InputError(f"variant {ref} is not in the instance")
                if not 1 <= v.delay <= budget[v.plan_id]:
                    raise InputError(f"variant {ref} has a delay outside [1, {budget[v.plan_id]}]")
                if ref in seen:
                    raise InputError(f"variant {ref} is repeated")
                seen.add(ref)
        routed: dict[int, list[int]] = {}  # plan id -> 0 and its delays, ascending
        for v in sorted(gen.variants, key=lambda v: (v.plan_id, v.delay)):
            routed.setdefault(v.plan_id, [0]).append(v.delay)
        self.routed_delays = {p.id: tuple(routed.get(p.id, ())) for p in plans}
        keys = [(p.id, d) for p in plans for d in self.routed_delays[p.id]]  # (plan id, delay) per variant
        self.plan_ids = np.array([p.id for p in plans], dtype=np.int64)
        self.variant_plan = np.searchsorted(self.plan_ids, [pid for pid, _ in keys])  # plan index
        self.variant_delay = np.array([d for _, d in keys], dtype=np.int64)
        self.open_window = np.array([[0] * n, [p.d_max for p in plans]], dtype=np.int64)
        self.open_window.setflags(write=False)
        self.max_cost = int(conns.cost.max()) if len(conns.cost) else 0
        low = int(conns.cost.min()) if len(conns.cost) else 0
        span, m = self.max_cost - low + 1, n + n_veh
        # checked in Python ints: the empty start state and the infeasibility
        # fence need costs of at least 0, an assignment through real cells
        # must cost less than one through a no-edge cell, and the duals and
        # search distances, which stay within n * max cost of 0 and of
        # NO_EDGE, need headroom below the sentinels (the argument is in
        # ``_hungarian``)
        if low < 0:
            raise InputError(f"connection cost {low} is negative")
        if 4 * n * self.max_cost >= NO_EDGE:
            raise InputError(
                f"connection cost {self.max_cost} over {n} plans exceeds the exact integer range of the relaxation"
            )
        # the cell order's key, below n * m * span, must fit in int64
        if n * m * span >= 1 << 63:
            raise InputError(
                f"connection costs {low} to {self.max_cost} on {n} x {m} cells exceed the int64 range of the cell order"
            )

        # matrix cell of each connection, and the connections sorted by
        # cell, then cost, then row (one stable sort of the fenced key):
        # the first usable one of a cell wins
        cell = self.cell
        key = cell * span
        key += conns.cost - low
        self.cell_order = np.argsort(key, kind="stable")
        del key
        self.ordered_cells = cell[self.cell_order]
        self._live = None  # the live assignment matrix (``_assignment_matrix``)

    @property
    def cell(self) -> np.ndarray:
        """The matrix cell ``target * m + origin`` of each class row, in row order."""
        conns = self.connections
        return conns.target * len(conns.column_class) + conns.origin

    source_id = 0  # the edge view's numbering (class docstring), from here to ``edge_count``

    @property
    def node_count(self) -> int:
        return 2 + 2 * (len(self.plan_ids) + len(self.variant_plan)) + len(self.instance.vehicles)

    @property
    def sink_id(self) -> int:
        return self.node_count - 1

    @property
    def left_struct(self) -> slice:
        start = len(self.plan_ids) + len(self.instance.vehicles)
        return slice(start, start + len(self.variant_plan))

    @property
    def connection_edges(self) -> range:
        return range(self.left_struct.stop, self.left_struct.stop + len(self.connections))

    @property
    def right_struct(self) -> slice:
        return slice(self.connection_edges.stop, self.connection_edges.stop + len(self.variant_plan))

    @property
    def edge_count(self) -> int:
        return self.right_struct.stop + len(self.plan_ids)

    def _variant_index(self, plan: np.ndarray, delay: np.ndarray) -> np.ndarray:
        """The variant of each (origin column, delay) endpoint, as an index into ``variant_plan``; -1 if it has none.

        A vehicle and a plan without variants have none.  One sorted search
        on (plan, rank of the delay), the variants' order; ``Connections.of``
        has checked that every delayed endpoint is a variant.
        """
        values = np.unique(self.variant_delay)
        stride = len(values) + 1
        key = self.variant_plan * stride + values.searchsorted(self.variant_delay)
        want = plan * stride + values.searchsorted(delay)
        return np.where(np.isin(want, key), key.searchsorted(want), -1)

    @cached_property
    def edges(self) -> np.ndarray:
        """Read-only int64 (tail, head, cost) per edge, numbered as in the class docstring."""
        n, n_veh, k, vp = len(self.plan_ids), len(self.instance.vehicles), len(self.variant_plan), self.variant_plan
        right = 1 + n + k + n_veh  # the first right-side node
        conns = self.connections.per_vehicle
        origin = self._variant_index(conns.origin, conns.origin_delay)
        target = self._variant_index(conns.target, conns.target_delay)
        # variant i's nodes: 1 + n + i and right + i; plan i's: 1 + i and right + k + i; a vehicle's: 1 + k + its column
        conn_tail = 1 + np.where(origin >= 0, n + origin, conns.origin + k * (conns.origin >= n))
        conn_head = right + np.where(target >= 0, target, k + conns.target)
        tail = np.concatenate([np.zeros(n + n_veh, dtype=np.int64), 1 + vp, conn_tail, right + np.arange(k + n)])
        down_head = [1 + np.arange(n), 1 + n + k + np.arange(n_veh), 1 + n + np.arange(k)]
        head = np.concatenate([*down_head, conn_head, right + k + vp, np.full(n, self.sink_id)])
        cost = np.zeros(self.edge_count, dtype=np.int64)
        cost[self.connection_edges.start : self.connection_edges.stop] = conns.cost
        edges = np.stack([tail, head, cost], axis=1)
        edges.setflags(write=False)
        return edges

    def edge_list_text(self) -> str:
        """Plain-text dump, one edge per line: tail head lower upper cost."""
        return "\n".join(f"{t} {h} 0 1 {c}" for t, h, c in self.edges.tolist())


def build_network(instance: ChainingInstance, gen: GenerationResult) -> FlowNetwork:
    """Assemble the flow network for a generation result.

    Every connection of a variant-carrying plan is routed through variant
    nodes, including an explicit zero-delay variant.  Raises ``InputError``
    when a connection names a variant without a node, or when costs are
    too large for exact int64 duals or too widely spread for the cell
    order's int64 key.
    """
    return FlowNetwork(instance, gen)


def _hungarian(cost: np.ndarray, limit: int, row_ids, start: HungarianState) -> HungarianState:
    """Assign every row its own column at minimum total cost, from ``start``.

    The Hungarian method in its shortest-augmenting-path form (Jonker &
    Volgenant, Computing 38, 1987): each unassigned row enters through a
    Dijkstra search over the reduced costs ``cost - u - v``.  The duals move
    only once the path is found: each scanned column and its row by how far
    short of the path's end the search reached it.

    ``start`` must be dual feasible for ``cost``.  That is checked, raising
    ``ValueError``, for every start but the empty one, whose row duals the
    cold solve replaces at once; an owner outside ``[-1, n)`` raises
    ``InputError``.  The start is kept as far as it stays optimal: an
    assigned row whose cell is no longer tight (it got dearer or unusable)
    is freed, and only free rows are searched.  From the state of a solve
    on cheaper costs this is the dynamic Hungarian method
    (Mills-Tettey, Stentz & Dias, CMU-RI-TR-07-27, 2007).  From the empty
    state (no owners, zero duals) it is the cold solve, which first does
    what Jonker & Volgenant's initialisation does, on rows: ``u`` becomes
    each row's minimum, which keeps every reduced cost nonnegative and gives
    each row a tight cell, and each row in turn takes its first free tight
    column.  Only the rows left over are searched.  Any other start keeps
    its tight assigned cells as they are.

    The search settles the columns a level at a time: all the front columns
    at the current least distance ``d``.  If some are free, the lowest of
    them ends the path (or brings in the pseudo-row, below).  Otherwise the
    rows owning the level are scanned as one block, ``cost[R] - v - u[R,
    None] + d``, whose column minima update the front.  Each column records
    the scan that first reached it at its final distance; flipping the path
    finds a block's row again as the first that gives the column that
    distance.  A level of one column is the single-row scan.

    The matrix is rectangular (n rows, m >= n columns), and a freed column
    can keep ``v < 0``, which an unassigned column may not have at the
    optimum.  The search treats the matrix as squared by m - n identical
    zero-cost slack rows.  At any dual-feasible state the columns they own
    all carry the largest column dual ``mu`` (their dual is ``-mu``), so
    they act as one pseudo-row owning m - n of the free columns at ``mu``.
    A search ends at a free column it reaches, unless exactly m - n free
    columns are at ``mu`` and this is one of them: then the pseudo-row and
    all its columns join the search, which reaches any column ``j`` from
    there at ``mu - v[j]`` further.  (With more free columns at ``mu``, each
    is as near as the pseudo-row's own, so any of them can end a path.)  At
    the end the only free columns are the slack-owned ones, all at ``mu``,
    so shifting ``v -= mu`` and ``u += mu`` gives back rectangular duals.
    Cold searches never meet the pseudo-row: every free column is at ``mu =
    0`` and more than m - n are free.

    Infeasibility: the dual objective ``sum(u) + sum(v) - (m - n) * mu``
    never exceeds the optimum (weak duality), and a search whose level is
    at distance ``d`` has raised it by ``d``.  An assignment through real
    cells costs at most ``limit`` (n times the largest cost), and one
    through a no-edge cell at least ``NO_EDGE``, so once the dual objective
    passes ``limit`` every assignment needs a no-edge cell:
    ``FlowInfeasibleError`` names the row being searched.  This holds for
    any dual-feasible start: the row reduction starts at the sum of the row
    minima, a parent's state at the parent's optimum.  Taking a level at
    once changes neither: its ``d`` is the distance a column-at-a-time
    search reaches next, and the fence is tested on it before anything in
    the level is scanned.  A row of no-edge cells alone is reported before
    any search, as the lowest such row being unreachable.  The cold solve
    finds it as the first largest row minimum, the only way past ``limit``;
    from a parent's state it has lost its assigned cell, which is no longer
    tight (the parent's duals stay within ``limit`` of 0), so only the free
    rows are tested.  The fence ``4 * n * max cost < NO_EDGE`` in
    ``FlowNetwork`` keeps this exact in int64: ``limit < NO_EDGE``, the row
    minima ``u`` start in ``[0, max cost]``, and as every search stops
    before the dual objective passes ``limit``, no dual moves further than
    ``limit`` from 0 and every distance stays below ``NO_EDGE + 2 * limit <
    _UNSEEN``.  A block holds the same values a column-at-a-time search
    computes one row at a time, so the same bounds cover it.

    Two kernels run these steps, in the same order and with the same ties,
    so both return the same state or raise the same error with the same
    message: a matrix of fewer than ``_LIST_CELLS`` cells is solved on
    Python lists (``_hungarian_lists``), a larger one on numpy arrays
    (``_hungarian_arrays``).
    """
    kernel = _hungarian_lists if cost.size < _LIST_CELLS else _hungarian_arrays
    return kernel(cost, limit, row_ids, start)


def _hungarian_arrays(cost: np.ndarray, limit: int, row_ids, start: HungarianState) -> HungarianState:
    """``_hungarian`` on numpy arrays: each scan and update is one call over a whole row, block or level."""
    n, m = cost.shape
    owner, owners = np.concatenate((start.owner, [-1])), start.owner.tolist()  # column m roots every search
    if owners and (min(owners) < -1 or max(owners) >= n):
        raise InputError(f"a warm start's owners must lie in [-1, {n})")
    u, v = start.u.astype(np.int64), start.v.astype(np.int64)
    cols = (owner >= 0).nonzero()[0]
    if len(cols) or u.any() or v.any():  # check the start, then free the rows whose cells are no longer tight
        step = max(1, (1 << 15) // max(m, 1))  # rows per check, so that its temporaries stay small
        if (v > 0).any() or any((cost[r : r + step] - v < u[r : r + step, None]).any() for r in range(0, n, step)):
            raise ValueError("the start state is not dual feasible for this cost matrix")
        rows = owner[cols]
        owner[cols[cost[rows, cols] != u[rows] + v[cols]]] = -1
        free = sorted(set(range(n)).difference(owner.tolist()))  # the unassigned rows
        for i in free:  # a starved row has lost its assigned cell
            if cost[i].min() == NO_EDGE:
                raise FlowInfeasibleError(int(row_ids[i]))
    else:  # the empty state: reduce the rows, then give each row in turn its first free tight column
        u = cost.min(axis=1, initial=NO_EDGE)
        if sum(u.tolist()) > limit:  # a row of no-edge cells
            raise FlowInfeasibleError(int(row_ids[u.argmax()]))
        tight_rows, tight_cols = (cost == u[:, None]).nonzero()
        ends = np.searchsorted(tight_rows, np.arange(1, n + 1)).tolist()  # one past each row's tight cells
        tight_cols, owner, first = tight_cols.tolist(), owners + [-1], 0
        for i, end in enumerate(ends):
            for j in tight_cols[first:end]:
                if owner[j] < 0:
                    owner[j] = i
                    break
            first = end
        free = sorted(set(range(n)).difference(owner))
        owner = np.array(owner, dtype=np.int64)
    level = sum(u.tolist()) + sum(v.tolist())  # the dual objective
    slack, mu = m - n, 0
    way = np.empty(m, dtype=np.int64)  # the scan that reached each column, set as it is reached
    for i in free:
        slack_cols = ((owner[:m] < 0) & (v == mu)).nonzero()[0]
        pseudo = slack > 0 and len(slack_cols) == slack
        dist = np.full(m, _UNSEEN, dtype=np.int64)  # final once a column is scanned
        front = dist.copy()  # dist of the columns not scanned yet
        scans = []  # (rows, the columns they hold, d) per scan
        scanned: list[int] = []
        entry = None  # distance at which the pseudo-row joined
        owner[m] = i
        rows, near, d = i, m, 0  # the rows to scan (-1: the pseudo-row), reached at d through the columns near
        while True:
            # nonnegative reduced costs keep every scanned column out of ``closer``
            if type(rows) is int:
                if rows >= 0:
                    cur = cost[rows] - v
                    cur += d - int(u[rows])
                else:  # the slack pseudo-row: zero costs, dual -mu
                    cur = (d + mu) - v
            else:  # a level's rows as one block: each column's minimum, then its dual
                cur = cost[rows] - (u[rows] - d)[:, None]
                cur = cur.min(axis=0)
                cur -= v
            closer = cur < dist
            np.putmask(dist, closer, cur)
            np.putmask(front, closer, cur)
            np.putmask(way, closer, len(scans))
            scans.append((rows, near, d))
            j = int(front.argmin())
            d = int(front[j])
            if level + d > limit:
                raise FlowInfeasibleError(int(row_ids[i]), starved=False)
            near = (front == d).nonzero()[0]
            if len(near) > 1:
                held = owner[near]
                free = near[held < 0]
                if not len(free):  # every column of the level is owned: scan their rows as one block
                    front[near] = _UNSEEN
                    scanned += near.tolist()
                    rows = held
                    continue
                j = int(free[0])
            front[j] = _UNSEEN
            r = int(owner[j])
            if r >= 0:
                scanned.append(j)
                rows, near = r, j
            elif pseudo and v[j] == mu:
                dist[slack_cols] = d
                front[slack_cols] = _UNSEEN
                scanned += slack_cols.tolist()
                entry, pseudo = d, False
                rows, near = -1, j
            else:
                break
        seen = np.array(scanned, dtype=np.int64)
        held = owner[seen]
        # flip the path back to the root: each column to the row of the column it was reached through
        while j != m:
            rows, prev, at = scans[way[j]]
            if type(rows) is not int:  # the first row of the block that reached j at dist[j]
                prev = int(prev[(cost[rows, j] - u[rows] == dist[j] - at + v[j]).argmax()])
            owner[j] = owner[prev]
            j = prev
        gain = d - dist[seen]
        v[seen] -= gain
        real = held >= 0
        u[held[real]] += gain[real]
        u[i] += d
        if entry is not None:
            mu -= d - entry
        level += d
    if mu:
        u += mu
        v -= mu
    return HungarianState(owner[:m], u, v)


def _hungarian_lists(cost: np.ndarray, limit: int, row_ids, start: HungarianState) -> HungarianState:
    """``_hungarian`` on Python lists, step for step as ``_hungarian_arrays``, for matrices too small for numpy to pay.

    Each step mirrors its array twin, down to the order of the checks, the
    first column of a level that wins a tie and the gather-then-scatter of
    the dual updates.  The start's dual-feasibility check is its one numpy
    pass, and the results become int64 arrays.
    """
    n, m = cost.shape
    c, owners = cost.tolist(), start.owner.tolist()
    if owners and (min(owners) < -1 or max(owners) >= n):
        raise InputError(f"a warm start's owners must lie in [-1, {n})")
    owner, u, v = owners + [-1], start.u.tolist(), start.v.tolist()  # column m roots every search
    if max(owners, default=-1) >= 0 or any(u) or any(v):  # check the start, then free the rows whose cells are no longer tight
        if max(v, default=0) > 0 or (cost - start.v < start.u[:, None]).any():  # one numpy pass beats n * m list steps
            raise ValueError("the start state is not dual feasible for this cost matrix")
        for j, r in enumerate(owners):
            if r >= 0 and c[r][j] != u[r] + v[j]:
                owner[j] = -1
        free = sorted(set(range(n)).difference(owner))  # the unassigned rows
        for i in free:  # a starved row has lost its assigned cell
            if min(c[i]) == NO_EDGE:
                raise FlowInfeasibleError(int(row_ids[i]))
    else:  # the empty state: reduce the rows, then give each row in turn its first free tight column
        u = [min(row, default=NO_EDGE) for row in c]
        if sum(u) > limit:  # a row of no-edge cells
            raise FlowInfeasibleError(int(row_ids[u.index(max(u))]))
        for i, (row, ui) in enumerate(zip(c, u)):
            for j in compress(range(m), map(eq, row, repeat(ui))):
                if owner[j] < 0:
                    owner[j] = i
                    break
        free = sorted(set(range(n)).difference(owner))
    level = sum(u) + sum(v)  # the dual objective
    slack, mu = m - n, 0
    way = [0] * m  # the scan that reached each column, set as it is reached
    for i in free:
        slack_cols = [j for j in range(m) if owner[j] < 0 and v[j] == mu]
        pseudo = slack > 0 and len(slack_cols) == slack
        dist = [_UNSEEN] * m  # final once a column is scanned
        front = dist.copy()  # dist of the columns not scanned yet
        scans = []  # (rows, the columns they hold, d) per scan
        scanned: list[int] = []
        entry = None  # distance at which the pseudo-row joined
        owner[m] = i
        rows, near, d = i, m, 0  # the rows to scan (-1: the pseudo-row), reached at d through the columns near
        while True:
            if type(rows) is int:
                if rows >= 0:
                    shift = d - u[rows]
                    cur = [x - y + shift for x, y in zip(c[rows], v)]
                else:  # the slack pseudo-row: zero costs, dual -mu
                    cur = [d + mu - y for y in v]
            else:  # a level's rows as one block: each column's minimum, then its dual
                cur = None
                for r in rows:
                    shift = u[r] - d
                    part = [x - shift for x in c[r]]
                    cur = part if cur is None else list(map(min, cur, part))
                cur = list(map(sub, cur, v))
            k = len(scans)
            for j in compress(range(m), map(lt, cur, dist)):
                dist[j] = front[j] = cur[j]
                way[j] = k
            scans.append((rows, near, d))
            d = min(front)
            if level + d > limit:
                raise FlowInfeasibleError(int(row_ids[i]), starved=False)
            j = front.index(d)
            if front.count(d) > 1:
                near = [j for j, x in enumerate(front) if x == d]
                held = [owner[j] for j in near]
                open_cols = [j for j, r in zip(near, held) if r < 0]
                if not open_cols:  # every column of the level is owned: scan their rows as one block
                    for j in near:
                        front[j] = _UNSEEN
                    scanned += near
                    rows = held
                    continue
                j = open_cols[0]
            front[j] = _UNSEEN
            r = owner[j]
            if r >= 0:
                scanned.append(j)
                rows, near = r, j
            elif pseudo and v[j] == mu:
                for s in slack_cols:
                    dist[s], front[s] = d, _UNSEEN
                scanned += slack_cols
                entry, pseudo = d, False
                rows, near = -1, j
            else:
                break
        held = [owner[j] for j in scanned]
        # flip the path back to the root: each column to the row of the column it was reached through
        while j != m:
            rows, prev, at = scans[way[j]]
            if type(rows) is not int:  # the first row of the block that reached j at dist[j]
                want = dist[j] - at + v[j]
                prev = next((p for r, p in zip(rows, prev) if c[r][j] - u[r] == want), prev[0])
            owner[j] = owner[prev]
            j = prev
        gain = [d - dist[j] for j in scanned]
        # each update reads every old dual before it writes one, as a numpy fancy-index update does
        for j, x in [(j, v[j] - g) for j, g in zip(scanned, gain)]:
            v[j] = x
        for r, x in [(r, u[r] + g) for r, g in zip(held, gain) if r >= 0]:
            u[r] = x
        u[i] += d
        if entry is not None:
            mu -= d - entry
        level += d
    if mu:
        u = [x + mu for x in u]
        v = [x - mu for x in v]
    return HungarianState(np.array(owner[:m], dtype=np.int64), np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))


def _usable(net: FlowNetwork, window: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Whether each class row of ``rows`` (all of them, in row order, by default) is usable under ``window``.

    A row is usable when its target delay, and its origin delay if the
    origin is a plan, lie in that plan's window ``[window[0, i], window[1, i]]``.
    """
    conns, n = net.connections, len(net.plan_ids)
    # a vehicle origin's column gets the window [0, 0]: its delay is always 0
    lo, hi = np.concatenate((window, np.zeros((2, len(conns.column_class) - n), dtype=np.int64)), axis=1)
    target, delay = conns.target[rows], conns.target_delay[rows]
    usable = lo[target] <= delay
    usable &= delay <= hi[target]
    origin, delay = conns.origin[rows], conns.origin_delay[rows]
    usable &= lo[origin] <= delay
    usable &= delay <= hi[origin]
    return usable


def _fill(net: FlowNetwork, costs: np.ndarray, window, at=None) -> tuple[np.ndarray, np.ndarray]:
    """Give each cell the cost of its first usable row (``_usable``); only the cells at cell-order positions ``at`` if given.

    ``at`` covers whole cells, and ``costs`` is flat (``target * m + origin
    column``); None opens every delay.  Returns the cells given a row,
    ascending when every cell is filled, and those rows.
    """
    rows, cells = net.cell_order, net.ordered_cells
    if at is not None:
        rows, cells = rows[at], cells[at]
    if window is not None:
        usable = _usable(net, window, rows) if at is not None else _usable(net, window)[rows]
        keep = usable.nonzero()[0]
        rows, cells = rows[keep], cells[keep]
    lead = np.ones(len(cells), dtype=bool)  # the first row of each cell
    lead[1:] = cells[1:] != cells[:-1]
    rows, cells = rows[lead], cells[lead]
    costs[cells] = net.connections.cost[rows]
    return cells, rows


def _first_usable(net: FlowNetwork, window: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The class row that fills each of the usable flat ``cells``: the first of its cell's rows in cell order usable under ``window``."""
    at = net.ordered_cells.searchsorted(cells)
    pending = np.arange(len(at))
    while (pending := pending[~_usable(net, window, net.cell_order[at[pending]])]).size:
        at[pending] += 1  # a usable cell has a usable row, so this stays inside the cell's rows
    return net.cell_order[at]


def _assignment_matrix(net: FlowNetwork, window):
    """Move the network's live target-by-origin cost matrix to ``window``: the matrix, and the rows a full fill chose.

    A cell without a usable row (``_fill``) costs ``NO_EDGE``, and a member
    vehicle's column is a copy of its class's (``Connections.column_class``).
    A call that fills every cell also returns the ascending class cells it
    gave a row and those rows; a refill returns None, and
    ``_first_usable`` finds a cell's row.

    Every network keeps one live matrix, with the window it holds: a copy
    of ``window``, or ``net.open_window`` for None, whose rows are all
    usable (``Connections.of`` has checked their delays).  The returned
    matrix is the live one: it holds only until the next call on the
    network.  The first call fills every cell, and so does every call on a
    network of fewer than ``_REFILL_ROWS`` class rows.  A larger network
    finds the plans whose window changed, resets their rows and plan
    columns to ``NO_EDGE`` and refills those cells from the rows into or
    out of those plans alone: the dynamic Hungarian method's rule of
    applying only the cost changes (Mills-Tettey, Stentz & Dias,
    CMU-RI-TR-07-27, 2007).  Consecutive relaxations mostly differ in one
    or two plans.  The live state reads stale while it is refilled, so an
    interrupted refill starts the next call afresh.
    """
    conns, n = net.connections, len(net.plan_ids)
    m = len(conns.column_class)
    held = net.open_window if window is None else window.copy()
    live, net._live = net._live, None  # stale until the fill below has finished
    if live is None or len(conns.cost) < _REFILL_ROWS:
        costs = np.empty(n * m, dtype=np.int64) if live is None else live[0]
        costs.fill(NO_EDGE)
        filled = _fill(net, costs, window)
        refilled = slice(None)
    else:
        costs, changed = live[0], (held != live[1]).any(axis=0)
        plans = changed.nonzero()[0]
        if not plans.size:
            net._live = live
            return costs.reshape(n, m), None
        matrix = costs.reshape(n, m)
        matrix[plans] = NO_EDGE
        matrix[:, plans] = NO_EDGE
        # the cell ranges of the rows into a changed plan (its matrix row) and
        # out of one (its column's cell in every other plan's row)
        start = np.concatenate((plans * m, ((np.flatnonzero(~changed) * m)[:, None] + plans).ravel()))
        stop = start + 1
        stop[: len(plans)] += m - 1
        start, stop = net.ordered_cells.searchsorted(start), net.ordered_cells.searchsorted(stop)
        width = stop - start
        _fill(net, costs, window, np.repeat(start - (width.cumsum() - width), width) + np.arange(width.sum()))
        filled, refilled = None, plans[:, None]
    matrix, member = costs.reshape(n, m), conns.members
    if member.size:
        member = n + member
        matrix[refilled, member] = matrix[refilled, conns.column_class[member]]
    net._live = (costs, held)
    return matrix, filled


def solve_mcf(
    network: FlowNetwork, window: np.ndarray | None = None, start: HungarianState | None = None
) -> FlowAssignment:
    """Minimum-cost integral flow of a chaining network, solved as an assignment.

    Every feasible flow carries one unit into each plan's right side from
    one origin (a plan's left side or a vehicle), and each origin sends at
    most one unit, so the flow is a rectangular assignment of target plans
    to origins (Dantzig & Fulkerson 1954).  Each cell of the n x (n + V)
    cost matrix keeps the cheapest usable connection of its pair, and equal
    costs go to the lowest edge id; a member vehicle's column is its class
    column.  The result holds the chosen class rows, named with their
    columns by ``state.columns``, and the Hungarian state, whose duals
    certify the assignment against every usable connection row.

    ``window`` is an integer array of shape (2, n), taken as int64 here:
    plan index ``i`` may only be entered and left at a delay in
    ``[window[0, i], window[1, i]]``, which closes its variant nodes outside
    it.  Vehicles are never restricted; None is the network's
    ``open_window`` and tests no row.  Any other window (an unsigned one of
    2**63 or more too), or a ``start`` that is not a ``HungarianState`` of
    signed integer arrays shaped (m,), (n,), (m,), raises ``InputError``
    before the network's one live matrix moves to ``window``
    (``_assignment_matrix``), so a network serves one relaxation at a time.

    ``start`` warm-starts the solver from the ``state`` of an assignment
    solved on the same network under a window that contains ``window``.
    Narrowing windows only raises cells, so that state stays dual feasible,
    and only the plans whose assigned cell got dearer are re-assigned; the
    result is as exact as a cold solve, though on tied optima it can be
    another optimal assignment.  Without ``start`` the solver begins from
    the empty assignment, which it row-reduces and pre-assigns on tight
    cells before any search.

    Raises ``FlowInfeasibleError`` naming the lowest-id plan without a
    usable incoming connection ("its right node is unreachable"), else,
    when no assignment of origins covers every plan, the plan whose search
    found that out.
    """
    net, n = network, len(network.plan_ids)
    m = n + len(net.instance.vehicles)
    if window is not None:
        ok = isinstance(window, np.ndarray) and window.dtype.kind in "iu" and window.shape == (2, n)
        if not ok or window.dtype.kind == "u" and window.max(initial=0) >= 1 << 63:
            raise InputError(f"a delay window must be an integer array of shape (2, {n}) in the int64 range")
        window = window.astype(np.int64, copy=False)
    if start is None:
        start = HungarianState(np.full(m, -1, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64))
    elif not (
        isinstance(start, HungarianState) and all(map(isinstance, start, [np.ndarray] * 3))
        and start.owner.dtype.kind == start.u.dtype.kind == start.v.dtype.kind == "i"
        and start.owner.shape == start.v.shape == (m,) and start.u.shape == (n,)
    ):
        raise InputError(f"a warm start must be a HungarianState of signed integer arrays of shapes ({m},), ({n},), ({m},)")
    matrix, filled = _assignment_matrix(net, window)
    window = net._live[1]  # the window the live matrix holds: a copy, or the open window for None

    state = _hungarian(matrix, n * net.max_cost, net.plan_ids, start)
    for part in state:
        part.setflags(write=False)
    assigned = state.columns
    cells = state.owner[assigned] * m + net.connections.column_class[assigned]
    rows = filled[1][filled[0].searchsorted(cells)] if filled is not None else _first_usable(net, window, cells)
    rows.setflags(write=False)
    return FlowAssignment(rows, state, window, sum(net.connections.cost[rows].tolist()))

