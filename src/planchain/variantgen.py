"""Generation of delayed plan variants and their connections.

The minimal generator creates a delayed copy of a plan only when some
origin needs it, always with the smallest feasible delay, and then probes
the new variant as an origin against every other plan until the queue
drains.  The exhaustive generator enumerates every integer delay; it backs
the optimality cross-checks and the cost policies whose connection costs
depend on the chosen delays.

Both evaluate a block of origins per numpy pass through ``_ProbeTables``:
origins by plans for the minimal generator, origins by every variant of
every plan for the exhaustive one, at most ``_BLOCK_CELLS`` cells a pass.
The tables also hold the one fence on the wait penalty's int64
arithmetic.  Each generator joins its per-block arrays once into
``Connections``: int64 columns that the flow network reads directly, in
emission order, which is origin order and then target order.  Minimal
generation needs no deduplication of connections, as each origin is
probed once, each variant queued once, and a probe reaches each target
plan at most once.  The tests keep scalar twins of both generators
(``tests/scalar_twins.py``) and compare against them, order included.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError, InputError
from .model import ChainingInstance, Cost, VariantRef, Vehicle


@dataclass(frozen=True)
class Connection:
    """A feasible ordered pairing with its policy cost.

    ``origin`` is a vehicle or a plan variant (delay 0 encodes the base
    plan); ``target`` is always a variant reference.
    """

    origin: Vehicle | VariantRef
    target: VariantRef
    cost: Cost


class Connections(Sequence):
    """Connections as int64 columns; a ``Connection`` is built per row read.

    Row ``r`` links origin ``origin[r]`` (a plan index, or n + a vehicle
    index) at ``origin_delay[r]`` to plan index ``target[r]`` at
    ``target_delay[r]`` for ``cost[r]``; indices are instance positions.
    """

    def __init__(self, instance: ChainingInstance, origin, origin_delay, target, target_delay, cost):
        self.instance = instance
        self.columns = (origin, origin_delay, target, target_delay, cost)
        self.origin, self.origin_delay, self.target, self.target_delay, self.cost = self.columns

    @classmethod
    def of(cls, instance: ChainingInstance, connections: Sequence[Connection]) -> Connections:
        """``connections`` as columns over ``instance``.

        Columns made for it pass through; others are range-checked in Python
        ints first.  An endpoint outside the instance raises ``InputError``.
        """
        if isinstance(connections, Connections) and connections.instance is instance:
            return connections
        n = len(instance.plans)
        plan_col = {p.id: i for i, p in enumerate(instance.plans)}
        vehicle_col = {v.id: n + j for j, v in enumerate(instance.vehicles)}
        rows = []
        for c in connections:
            o, t = c.origin, c.target
            try:
                origin = (vehicle_col[o.id], 0) if type(o) is Vehicle else (plan_col[o.plan_id], o.delay)
                row = (*origin, plan_col[t.plan_id], t.delay, c.cost)
            except KeyError as exc:
                raise InputError(f"connection endpoint {exc.args[0]} is not in the instance") from None
            if not all(-(1 << 63) <= x < 1 << 63 for x in row):
                raise InputError(f"connection {c} exceeds the int64 range")
            rows.append(row)
        return cls(instance, *np.array(rows, dtype=np.int64).reshape(-1, 5).T)

    def _connection(self, o: int, od: int, t: int, td: int, cost: int) -> Connection:
        plans = self.instance.plans
        origin = VariantRef(plans[o].id, od) if o < len(plans) else self.instance.vehicles[o - len(plans)]
        return Connection(origin, VariantRef(plans[t].id, td), cost)

    def __len__(self) -> int:
        return len(self.cost)

    def __getitem__(self, r: int) -> Connection:
        return self._connection(*(int(col[r]) for col in self.columns))

    def __iter__(self):
        return map(self._connection, *(col.tolist() for col in self.columns))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and len(self) == len(other) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class GenerationResult:
    """Delayed variants plus all connections, as ``Connections`` when generated."""

    variants: tuple[VariantRef, ...]
    connections: Sequence[Connection]


def _column(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


# origins x targets evaluated in one numpy pass: a few MB per int64 temporary
_BLOCK_CELLS = 1 << 18


def _blocks(count: int, width: int):
    """Slices of ``count`` origins, each at most ``_BLOCK_CELLS`` cells over ``width`` targets.

    A block holds at least one origin, also when its row alone is wider.
    """
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return (slice(s, s + step) for s in range(0, count, step))


class _ProbeTables:
    """Vectorized feasibility/cost evaluation of a block of origins.

    An origin is a column of the assignment matrix, a plan index or n + a
    vehicle index, at a delay.  ``probe`` evaluates a block of origins
    against every other plan in one 2-D pass, with exactly the scalar
    semantics of ``model.minimal_target_delay`` and ``model.connection_cost``
    (minimal delays, the degenerate-tie ordering, policy costs with
    forbidden waits dropped);
    ``probe_variants`` evaluates a block against every integer-delay
    variant, which ``all_variants`` lays out once as flat arrays, with
    those of ``model.connection_feasible`` and ``model.connection_cost``.
    Both return the hits in row-major order: by origin, then by target.
    Differential tests pin both equivalences.
    """

    def __init__(self, instance: ChainingInstance, *, all_variants: bool = False):
        plans, vehicles = instance.plans, instance.vehicles
        self.n = n = len(plans)
        self.t_or = np.array([p.t_or for p in plans], dtype=np.int64)
        self.d_max = np.array([p.d_max for p in plans], dtype=np.int64)
        self.orig = np.array([p.origin_location for p in plans], dtype=np.intp)
        self.ids = np.array([p.id for p in plans], dtype=np.int64)
        # position of each plan in (t_or, id) order, the tie rule's key
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[np.lexsort((self.ids, self.t_or))] = np.arange(n)
        # per origin column: ready time at delay 0, location, plan index and
        # rank; a vehicle's plan and rank are -1, which no plan matches or follows
        no_plan = np.full(len(vehicles), -1, dtype=np.int64)
        self.ready = np.array([p.t_de for p in plans] + [v.t_st for v in vehicles], dtype=np.int64)
        self.location = np.array(
            [p.destination_location for p in plans] + [v.start_location for v in vehicles], dtype=np.intp
        )
        self.plan = np.concatenate([np.arange(n), no_plan])
        self.origin_rank = np.concatenate([self.rank, no_plan])
        if all_variants:
            # variants in (plan, delay) order; plan i owns the slice
            # first[i]:first[i + 1]
            counts = self.d_max + 1
            first = np.concatenate(([0], np.cumsum(counts)))
            self.var_plan = np.repeat(np.arange(n), counts)
            self.var_delay = np.arange(first[-1], dtype=np.int64) - first[self.var_plan]
            self.var_start = self.t_or[self.var_plan] + self.var_delay
            self.var_rank = self.rank[self.var_plan]
        # travel time from each location to each target's origin location
        self.to_target = instance.travel.array[:, self.orig[self.var_plan] if all_variants else self.orig]
        policy = instance.policy
        self.kind = type(policy).__name__
        self.delta = getattr(policy, "delta", None)
        alpha = getattr(policy, "alpha", None)
        self.alpha_num = alpha.numerator if alpha is not None else None
        self.alpha_den = alpha.denominator if alpha is not None else None
        if alpha is not None:
            # _policy_cost evaluates 2*p*wait + q and 2*q in int64; no wait exceeds
            # the latest delayed start, as every ready time is non-negative
            max_wait = max((plan.t_or + plan.d_max for plan in plans), default=0)
            if 2 * self.alpha_num * max(max_wait, 1) + 2 * self.alpha_den > np.iinfo(np.int64).max:
                raise InputError(f"wait penalty {alpha} on waits of up to {max_wait} ticks exceeds the int64 range")

    def probe(self, origin: np.ndarray, origin_delay: np.ndarray):
        """Evaluate a block of origins against every other plan at the minimal delay.

        Returns (row, col, delay, keep, cost): each time-feasible pair as the
        origin's position in the block and the target plan index, by row and
        then column, with its minimal delay; the mask of those the policy
        allows (None when it allows all) and the allowed costs.
        """
        ftt = self.to_target[self.location[origin]]
        ready = (self.ready[origin] + origin_delay)[:, None]
        delay = ftt + ready
        delay -= self.t_or
        np.maximum(delay, 0, out=delay)
        # a connection with no slack (hence zero travel) needs the origin's plan
        # first in (t_or, id) order, else the target waits one tick more
        delay += (ftt == 0) & (self.t_or + delay == ready) & (self.rank <= self.origin_rank[origin][:, None])
        ok = delay <= self.d_max
        ok &= np.arange(self.n) != self.plan[origin][:, None]  # a plan never follows itself
        hit = np.flatnonzero(ok)
        row, col = np.divmod(hit, self.n)
        delay, ftt = delay.ravel()[hit], ftt.ravel()[hit]
        keep, cost = self._policy_cost(ftt, self.t_or[col] + delay - ready[row, 0] - ftt, origin[row] >= self.n)
        return row, col, delay, keep, cost

    def probe_variants(self, origin: np.ndarray, origin_delay: np.ndarray):
        """Evaluate a block of origins against every variant of every other plan.

        Returns (row, col, cost): each connection as the origin's position in
        the block and the target variant's index, by row and then column,
        with its policy cost.
        """
        ftt = self.to_target[self.location[origin]]
        gap = self.var_start - (self.ready[origin] + origin_delay)[:, None]
        ok = ftt <= gap
        # a connection with no slack (hence zero travel) needs the origin's
        # plan first in (t_or, id) order; a plan never follows itself
        ok &= (gap != 0) | (self.var_rank >= self.origin_rank[origin][:, None])
        ok &= self.var_plan != self.plan[origin][:, None]
        hit = np.flatnonzero(ok)
        row, col = np.divmod(hit, len(self.var_plan))
        ftt = ftt.ravel()[hit]
        keep, cost = self._policy_cost(ftt, gap.ravel()[hit] - ftt, origin[row] >= self.n)
        return (row, col, cost) if keep is None else (row[keep], col[keep], cost)

    def _policy_cost(self, ftt, wait, vehicle):
        """Costs of time-feasible connections with travel ``ftt`` and ``wait``.

        ``vehicle`` marks the connections out of a vehicle.  Returns (keep,
        cost): ``keep`` masks the connections the policy allows (None when
        it allows all) and ``cost`` holds their costs.
        """
        if self.kind == "FleetSize":
            return None, vehicle.astype(np.int64)
        if self.kind == "TravelCost":
            return None, ftt
        if self.kind == "TravelCostWaitCapped":
            keep = wait <= self.delta
            return keep, ftt[keep]
        # half-up rounding in exact integer arithmetic
        p, q = self.alpha_num, self.alpha_den
        return None, ftt + (2 * p * wait + q) // (2 * q)


def generate(instance: ChainingInstance) -> GenerationResult:
    """Run the minimal variant/connection generation to a fixed point.

    First every base plan and vehicle is probed against every other plan;
    each freshly created variant is then probed as an origin against every
    base plan, transitively, until the queue drains.  Variants are
    deduplicated by (plan, delay) before queueing, so each is processed at
    most once and the result is a pure function of the instance: the queue
    discipline does not matter.

    The queue is taken a frontier at a time: the plans and vehicles first,
    then each batch of variants the previous frontier queued, probed in
    blocks.  A probe does not depend on what was found before it, so
    walking each block's results in origin order finds, queues and emits
    in exactly the order of a one-origin-at-a-time FIFO queue.
    """
    plans = instance.plans
    tables = _ProbeTables(instance)
    found: dict[tuple[int, int], None] = {}  # (plan index, delay) of each variant, in discovery order
    parts = []  # per block: origin, origin delay, target, target delay, cost columns
    origin = np.arange(len(plans) + len(instance.vehicles))
    origin_delay = np.zeros(len(origin), dtype=np.int64)
    while len(origin):
        queued: list[tuple[int, int]] = []
        for block in _blocks(len(origin), len(plans)):
            o, od = origin[block], origin_delay[block]
            row, col, delay, keep, cost = tables.probe(o, od)
            # a policy-forbidden minimal connection still creates its variant
            late = delay.nonzero()[0]
            for ref in zip(col[late].tolist(), delay[late].tolist()):
                if ref not in found:
                    found[ref] = None
                    queued.append(ref)
            if keep is not None:
                row, col, delay = row[keep], col[keep], delay[keep]
            parts.append((o[row], od[row], col, delay, cost))
        origin, origin_delay = np.array(queued, dtype=np.int64).reshape(-1, 2).T

    columns = [_column(part) for part in zip(*parts)] or [_column(())] * 5
    connections = Connections(instance, *columns)
    return GenerationResult(tuple(VariantRef(plans[i].id, d) for i, d in found), connections)


def total_delay_ticks(instance: ChainingInstance) -> int:
    return sum(p.d_max for p in instance.plans)


def generate_exhaustive(instance: ChainingInstance, *, guard_ticks: int = 5000) -> GenerationResult:
    """Enumerate every integer-delay variant and all pairwise connections.

    Exact for any per-connection cost rule, at the price of a variant per
    tick of delay budget; the guard keeps that enumerable.  Origins come in
    a fixed order, every variant by (plan id, delay) and then every vehicle
    by id, and a block of them takes one vectorized pass over all target
    variants, which emits each origin's connections in the same (plan id,
    delay) order.
    """
    ticks = total_delay_ticks(instance)
    if ticks > guard_ticks:
        raise GuardExceededError(
            f"exhaustive variant enumeration needs {ticks} delay ticks, guard is {guard_ticks}"
        )
    tables = _ProbeTables(instance, all_variants=True)
    n, n_veh = len(instance.plans), len(instance.vehicles)
    origin = np.concatenate([tables.var_plan, n + np.arange(n_veh)])
    origin_delay = np.concatenate([tables.var_delay, np.zeros(n_veh, dtype=np.int64)])
    parts = []  # per block: origin position, target variant, cost
    for block in _blocks(len(origin), len(tables.var_plan)):
        row, col, cost = tables.probe_variants(origin[block], origin_delay[block])
        parts.append((row + block.start, col, cost))
    at, hit, cost = [_column(part) for part in zip(*parts)] or [_column(())] * 3
    connections = Connections(
        instance, origin[at], origin_delay[at], tables.var_plan[hit], tables.var_delay[hit], cost
    )
    late = np.flatnonzero(tables.var_delay)
    variants = tuple(map(VariantRef, tables.ids[tables.var_plan[late]].tolist(), tables.var_delay[late].tolist()))
    return GenerationResult(variants, connections)
