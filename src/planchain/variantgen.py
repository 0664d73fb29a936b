"""Generation of delayed plan variants and their connections.

The minimal generator creates a delayed copy of a plan only when some
origin needs it, always with the smallest feasible delay, and then probes
the new variant as an origin against every other plan until the queue
drains.  The exhaustive generator enumerates every integer delay; it backs
the optimality cross-checks and the cost policies whose connection costs
depend on the chosen delays.

Both evaluate one origin per numpy pass through ``_ProbeTables``: the
minimal generator against every plan, the exhaustive one against every
variant of every plan.  The tables also hold the one fence on the wait
penalty's int64 arithmetic.  Each generator joins its per-origin arrays
once into ``Connections``: int64 columns that the flow network reads
directly, in emission order.  Minimal generation needs no deduplication,
as each origin is probed once, each variant queued once, and a probe
reaches each target plan at most once.  ``planchain.oracle`` keeps the
scalar twins that the differential tests compare against, order included.
"""

from __future__ import annotations

from collections import deque
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


class _ProbeTables:
    """Vectorized feasibility/cost evaluation of one origin against all plans.

    ``probe`` implements exactly the scalar semantics of ``oracle.try_connect``
    (minimal delays, the degenerate-tie ordering, policy costs with
    forbidden waits dropped); ``probe_variants`` those of
    ``model.connection_feasible`` and ``model.connection_cost`` against
    every integer-delay variant, which ``all_variants`` lays out once as
    flat arrays.  Differential tests pin both equivalences.
    """

    def __init__(self, instance: ChainingInstance, *, all_variants: bool = False):
        plans = instance.plans
        self.t_or = np.array([p.t_or for p in plans], dtype=np.int64)
        self.d_max = np.array([p.d_max for p in plans], dtype=np.int64)
        self.orig = np.array([p.origin_location for p in plans], dtype=np.intp)
        self.ids = np.array([p.id for p in plans], dtype=np.int64)
        self.matrix = instance.travel.array
        if all_variants:
            # variants in (plan, delay) order; plan i owns the slice
            # first[i]:first[i + 1]
            counts = self.d_max + 1
            self.first = np.concatenate(([0], np.cumsum(counts)))
            self.var_plan = np.repeat(np.arange(len(plans)), counts)
            self.var_delay = np.arange(self.first[-1], dtype=np.int64) - self.first[self.var_plan]
            self.var_start = self.t_or[self.var_plan] + self.var_delay
            self.var_orig = self.orig[self.var_plan]
            # position of each plan in (t_or, id) order, the tie rule's key
            rank = np.empty(len(plans), dtype=np.int64)
            rank[np.lexsort((self.ids, self.t_or))] = np.arange(len(plans))
            self.rank = rank
            self.var_rank = rank[self.var_plan]
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

    def probe(self, ready: int, from_location: int, origin_plan: int | None):
        """Evaluate one origin against every other plan at the minimal delay.

        ``origin_plan`` is the origin's plan index, None for vehicles.
        Returns (idx, delay, keep, cost): the time-feasible plan indices in
        ascending order with their minimal delays, the mask of those the
        policy allows (None when it allows all) and the allowed costs.
        """
        ftt = self.matrix[from_location][self.orig]
        delay = np.maximum(ftt - (self.t_or - ready), 0)
        ok = delay <= self.d_max
        if origin_plan is not None:
            tie = ok & (ftt == 0) & (self.t_or + delay == ready)
            if tie.any():
                t_or, pid = self.t_or[origin_plan], self.ids[origin_plan]
                less = (t_or < self.t_or) | ((t_or == self.t_or) & (pid < self.ids))
                delay = delay + (tie & ~less)
                ok = delay <= self.d_max
            ok[origin_plan] = False
        idx = ok.nonzero()[0]
        if not idx.size:
            return idx, idx, None, idx
        delay, ftt = delay[idx], ftt[idx]
        keep, cost = self._policy_cost(ftt, self.t_or[idx] + delay - ready - ftt, origin_plan is None)
        return idx, delay, keep, cost

    def probe_variants(self, ready: int, from_location: int, origin_plan: int | None):
        """Evaluate one origin against every variant of every other plan.

        ``origin_plan`` is the origin's plan index, None for vehicles.
        Returns the indices of the variants the origin connects to, in
        ascending order, and the policy cost of each of those connections.
        """
        ftt = self.matrix[from_location][self.var_orig]
        gap = self.var_start - ready
        ok = ftt <= gap
        if origin_plan is not None:
            # a connection with no slack (hence zero travel) needs the
            # origin's plan first in (t_or, id) order; a plan never follows itself
            ok &= ~((gap == 0) & (self.var_rank < self.rank[origin_plan]))
            ok[self.first[origin_plan] : self.first[origin_plan + 1]] = False
        idx = np.flatnonzero(ok)
        fsel = ftt[idx]
        keep, cost = self._policy_cost(fsel, gap[idx] - fsel, origin_plan is None)
        return (idx if keep is None else idx[keep]), cost

    def _policy_cost(self, ftt, wait, vehicle: bool):
        """Costs of time-feasible connections with travel ``ftt`` and ``wait``.

        Returns (keep, cost): ``keep`` masks the connections the policy
        allows (None when it allows all) and ``cost`` holds their costs.
        """
        if self.kind == "FleetSize":
            return None, np.full(ftt.size, 1 if vehicle else 0, dtype=np.int64)
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
    """
    plans = instance.plans
    tables = _ProbeTables(instance)
    found: dict[tuple[int, int], None] = {}  # (plan index, delay) of each variant, in discovery order
    queue: deque[tuple[int, int]] = deque()
    probes = []  # per origin: column, delay, target indices, target delays, costs

    def record(origin: int, origin_delay: int, probe_result) -> None:
        idx, delay, keep, cost = probe_result
        # a policy-forbidden minimal connection still creates its variant
        if delay.any():
            late = delay.nonzero()[0]
            for ref in zip(idx[late].tolist(), delay[late].tolist()):
                if ref not in found:
                    found[ref] = None
                    queue.append(ref)
        if keep is not None:
            idx, delay = idx[keep], delay[keep]
        probes.append((origin, origin_delay, idx, delay, cost))

    for i, a in enumerate(plans):
        record(i, 0, tables.probe(a.t_de, a.destination_location, i))
    for j, v in enumerate(instance.vehicles):
        record(len(plans) + j, 0, tables.probe(v.t_st, v.start_location, None))
    while queue:
        i, d = queue.popleft()
        record(i, d, tables.probe(plans[i].t_de + d, plans[i].destination_location, i))

    origins, origin_delays, targets, delays, costs = zip(*probes) if probes else ((),) * 5
    counts = [len(t) for t in targets]
    connections = Connections(
        instance,
        np.repeat(np.array(origins, dtype=np.int64), counts),
        np.repeat(np.array(origin_delays, dtype=np.int64), counts),
        _column(targets),
        _column(delays),
        _column(costs),
    )
    return GenerationResult(tuple(VariantRef(plans[i].id, d) for i, d in found), connections)


def total_delay_ticks(instance: ChainingInstance) -> int:
    return sum(p.d_max for p in instance.plans)


def generate_exhaustive(instance: ChainingInstance, *, guard_ticks: int = 5000) -> GenerationResult:
    """Enumerate every integer-delay variant and all pairwise connections.

    Exact for any per-connection cost rule, at the price of a variant per
    tick of delay budget; the guard keeps that enumerable.  Origins come in
    a fixed order, every variant by (plan id, delay) and then every vehicle
    by id, and each takes one vectorized pass over all target variants,
    which emits its connections in the same (plan id, delay) order.
    """
    ticks = total_delay_ticks(instance)
    if ticks > guard_ticks:
        raise GuardExceededError(
            f"exhaustive variant enumeration needs {ticks} delay ticks, guard is {guard_ticks}"
        )
    tables = _ProbeTables(instance, all_variants=True)
    plans, vehicles = instance.plans, instance.vehicles
    probes = [
        tables.probe_variants(plans[i].t_de + d, plans[i].destination_location, i)
        for i, d in zip(tables.var_plan.tolist(), tables.var_delay.tolist())
    ]
    probes += [tables.probe_variants(v.t_st, v.start_location, None) for v in vehicles]
    counts = [len(hit) for hit, _ in probes]
    hit = _column([hit for hit, _ in probes])
    connections = Connections(
        instance,
        np.repeat(np.concatenate([tables.var_plan, len(plans) + np.arange(len(vehicles))]), counts),
        np.repeat(np.concatenate([tables.var_delay, np.zeros(len(vehicles), dtype=np.int64)]), counts),
        tables.var_plan[hit],
        tables.var_delay[hit],
        _column([cost for _, cost in probes]),
    )
    late = np.flatnonzero(tables.var_delay)
    variants = tuple(map(VariantRef, tables.ids[tables.var_plan[late]].tolist(), tables.var_delay[late].tolist()))
    return GenerationResult(variants, connections)
