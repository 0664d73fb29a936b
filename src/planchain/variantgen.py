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
penalty's int64 arithmetic.  ``planchain.oracle`` keeps the scalar twins
that the differential tests compare against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import GuardExceededError, InputError
from . import model
from .model import ChainingInstance, Cost, Plan, VariantRef, Vehicle


@dataclass(frozen=True)
class Connection:
    """A feasible ordered pairing with its policy cost.

    ``origin`` is a vehicle or a plan variant (delay 0 encodes the base
    plan); ``target`` is always a variant reference.
    """

    origin: Vehicle | VariantRef
    target: VariantRef
    cost: Cost


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


@dataclass(frozen=True)
class GenerationResult:
    """Delayed variants plus all connections, deduplicated."""

    variants: tuple[VariantRef, ...]
    connections: tuple[Connection, ...]

    def delays_by_plan(self) -> dict[int, list[int]]:
        """Sorted positive delays per plan id (plans without variants absent)."""
        out: dict[int, list[int]] = {}
        for v in self.variants:
            out.setdefault(v.plan_id, []).append(v.delay)
        for delays in out.values():
            delays.sort()
        return out


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


class _ProbeTables:
    """Vectorized feasibility/cost evaluation of one origin against all plans.

    ``probe`` implements exactly the scalar semantics of ``try_connect``
    (minimal delays, the degenerate-tie ordering, policy costs with
    forbidden waits dropped); ``probe_variants`` those of
    ``model.connection_feasible`` and ``model.connection_cost`` against
    every integer-delay variant, which ``all_variants`` lays out once as
    flat arrays.  Differential tests pin both equivalences.
    """

    def __init__(self, instance: ChainingInstance, *, all_variants: bool = False):
        self.instance = instance
        plans = instance.plans
        self.t_or = np.array([p.t_or for p in plans], dtype=np.int64)
        self.t_de = np.array([p.t_de for p in plans], dtype=np.int64)
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

    def probe(self, ready: int, from_location: int, origin_key, exclude: int | None):
        """Evaluate one origin against every plan at the minimal delay.

        ``origin_key`` is (t_or, id) for plan-side origins, None for
        vehicles; ``exclude`` suppresses the origin's own plan index.
        Returns (temporal, costed): (index, delay) pairs that are time
        feasible, and (index, delay, cost) triples that the policy allows.
        """
        if len(self.t_or) == 0:
            return [], []
        ftt = self.matrix[from_location][self.orig]
        delay = np.maximum(ftt - (self.t_or - ready), 0)
        ok = delay <= self.d_max
        if origin_key is not None:
            tie = ok & (ftt == 0) & (self.t_or + delay == ready)
            if tie.any():
                less = (origin_key[0] < self.t_or) | (
                    (origin_key[0] == self.t_or) & (origin_key[1] < self.ids)
                )
                delay = delay + (tie & ~less)
                ok = delay <= self.d_max
        if exclude is not None:
            ok = ok.copy()
            ok[exclude] = False
        idxs = np.nonzero(ok)[0]
        if idxs.size == 0:
            return [], []
        dsel = delay[idxs]
        fsel = ftt[idxs]
        temporal = list(zip(idxs.tolist(), dsel.tolist()))
        keep, cost = self._policy_cost(fsel, self.t_or[idxs] + dsel - ready - fsel, origin_key is None)
        if keep is not None:
            idxs, dsel = idxs[keep], dsel[keep]
        return temporal, list(zip(idxs.tolist(), dsel.tolist(), cost.tolist()))

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


def generate(instance: ChainingInstance, *, queue_lifo: bool = False) -> GenerationResult:
    """Run the minimal variant/connection generation to a fixed point.

    First every base plan and vehicle is probed against every other plan;
    each freshly created variant is then probed as an origin against every
    base plan, transitively, until the queue drains.  Variants are
    deduplicated by (plan, delay) before queueing, so each is processed at
    most once and the result is a pure function of the instance (the queue
    discipline does not matter; ``queue_lifo`` exists for the test that
    asserts exactly that).
    """
    plans = instance.plans
    tables = _ProbeTables(instance)
    index_of = {p.id: i for i, p in enumerate(plans)}
    variants: dict[VariantRef, None] = {}
    connections: dict[tuple, Connection] = {}
    queue: deque[VariantRef] = deque()

    def record(origin, okey, probe_result) -> None:
        temporal, costed = probe_result
        # a policy-forbidden minimal connection still creates its variant
        for b_idx, delay in temporal:
            if delay > 0:
                target = VariantRef(plans[b_idx].id, delay)
                if target not in variants:
                    variants[target] = None
                    queue.append(target)
        for b_idx, delay, cost in costed:
            target = VariantRef(plans[b_idx].id, delay)
            connections.setdefault((okey, target.plan_id, delay), Connection(origin, target, int(cost)))

    for a in plans:
        i = index_of[a.id]
        record(
            VariantRef(a.id, 0),
            ("p", a.id, 0),
            tables.probe(a.t_de, a.destination_location, (a.t_or, a.id), i),
        )
    for v in instance.vehicles:
        record(v, ("v", v.id), tables.probe(v.t_st, v.start_location, None, None))

    while queue:
        phi = queue.pop() if queue_lifo else queue.popleft()
        plan = instance.plan(phi.plan_id)
        record(
            phi,
            ("p", phi.plan_id, phi.delay),
            tables.probe(
                plan.t_de + phi.delay,
                plan.destination_location,
                (plan.t_or, plan.id),
                index_of[phi.plan_id],
            ),
        )

    return GenerationResult(tuple(variants), tuple(connections.values()))


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
    refs = [
        VariantRef(plan_id, delay)
        for plan_id, delay in zip(tables.ids[tables.var_plan].tolist(), tables.var_delay.tolist())
    ]
    first = tables.first.tolist()
    connections: list[Connection] = []

    def emit(origin, probe_result) -> None:
        idx, cost = probe_result
        connections.extend(map(Connection, repeat(origin), map(refs.__getitem__, idx.tolist()), cost.tolist()))

    for i, plan in enumerate(instance.plans):
        for origin in refs[first[i] : first[i + 1]]:
            emit(origin, tables.probe_variants(plan.t_de + origin.delay, plan.destination_location, i))
    for v in instance.vehicles:
        emit(v, tables.probe_variants(v.t_st, v.start_location, None))
    return GenerationResult(tuple(ref for ref in refs if ref.delay > 0), tuple(connections))
