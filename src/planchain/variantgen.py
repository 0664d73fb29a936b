"""Generation of delayed plan variants and their connections.

The minimal generator creates a delayed copy of a plan only when some
origin needs it, always with the smallest feasible delay, and then probes
the new variant as an origin against every other plan until the queue
drains.  The exhaustive generator enumerates every integer delay; it backs
the optimality cross-checks and the cost policies whose connection costs
depend on the chosen delays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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

    Implements exactly the scalar semantics of ``try_connect`` (minimal
    delays, the degenerate-tie ordering, policy costs with forbidden waits
    dropped); a differential test pins the equivalence.
    """

    def __init__(self, instance: ChainingInstance):
        self.instance = instance
        plans = instance.plans
        self.t_or = np.array([p.t_or for p in plans], dtype=np.int64)
        self.t_de = np.array([p.t_de for p in plans], dtype=np.int64)
        self.d_max = np.array([p.d_max for p in plans], dtype=np.int64)
        self.orig = np.array([p.origin_location for p in plans], dtype=np.intp)
        self.ids = np.array([p.id for p in plans], dtype=np.int64)
        self.matrix = instance.travel.array
        policy = instance.policy
        self.kind = type(policy).__name__
        self.delta = getattr(policy, "delta", None)
        alpha = getattr(policy, "alpha", None)
        self.alpha_num = alpha.numerator if alpha is not None else None
        self.alpha_den = alpha.denominator if alpha is not None else None
        if alpha is not None:
            # probe() evaluates 2*p*wait + q and 2*q in int64; no wait exceeds
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
        if self.kind == "FleetSize":
            cost = np.full(idxs.size, 0 if origin_key is not None else 1, dtype=np.int64)
        elif self.kind == "TravelCost":
            cost = fsel
        else:
            wait = self.t_or[idxs] + dsel - ready - fsel
            if self.kind == "TravelCostWaitCapped":
                keep = wait <= self.delta
                idxs, dsel, fsel = idxs[keep], dsel[keep], fsel[keep]
                cost = fsel
            else:  # half-up rounding in exact integer arithmetic
                p, q = self.alpha_num, self.alpha_den
                cost = fsel + (2 * p * wait + q) // (2 * q)
        return temporal, list(zip(idxs.tolist(), dsel.tolist(), cost.tolist()))


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


def _generate_reference(instance: ChainingInstance, *, queue_lifo: bool = False) -> GenerationResult:
    """Plain scalar generation via ``try_connect``; differential-test twin."""
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


def total_delay_ticks(instance: ChainingInstance) -> int:
    return sum(p.d_max for p in instance.plans)


def generate_exhaustive(instance: ChainingInstance, *, guard_ticks: int = 5000) -> GenerationResult:
    """Enumerate every integer-delay variant and all pairwise connections.

    Exact for any per-connection cost rule, at the price of a variant per
    tick of delay budget; the guard keeps that enumerable.
    """
    ticks = total_delay_ticks(instance)
    if ticks > guard_ticks:
        raise GuardExceededError(
            f"exhaustive variant enumeration needs {ticks} delay ticks, guard is {guard_ticks}"
        )
    variants: list[VariantRef] = []
    all_refs: list[VariantRef] = []
    for p in instance.plans:
        for d in range(p.d_max + 1):
            ref = VariantRef(p.id, d)
            all_refs.append(ref)
            if d > 0:
                variants.append(ref)
    connections: list[Connection] = []
    for origin in all_refs:
        for target in all_refs:
            if origin.plan_id == target.plan_id:
                continue
            if not model.connection_feasible(instance, origin, target):
                continue
            cost = model.connection_cost(instance, origin, target)
            if cost is not None:
                connections.append(Connection(origin, target, cost))
    for v in instance.vehicles:
        for target in all_refs:
            if not model.connection_feasible(instance, v, target):
                continue
            cost = model.connection_cost(instance, v, target)
            if cost is not None:
                connections.append(Connection(v, target, cost))
    return GenerationResult(tuple(variants), tuple(connections))
