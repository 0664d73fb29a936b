"""Generation of delayed plan variants and their connections.

The minimal generator creates a delayed copy of a plan only when some
origin needs it, always with the smallest feasible delay, and then probes
the new variant as an origin against every other plan until the queue
drains.  The exhaustive generator enumerates every integer delay; it backs
the optimality cross-checks and the cost policies whose connection costs
depend on the chosen delays.

Both probe a block of origins per numpy pass through ``_ProbeTables``,
against every plan at the minimal delay, at most ``_BLOCK_CELLS`` cells a
pass; the tables are the one numpy copy of the timing and tie rules
(``model._fits``) and of the fence on the wait penalty's int64
arithmetic.  The exhaustive generator widens each hit to every later
delay of its target, which is exact: delaying the target only widens the
gap, so a link fits from its minimal delay up to ``d_max``, one tick more
wait per tick, and at no earlier delay.  ``_ProbeTables.price`` does the
widening: the wait cap clips each hit's width before a row is repeated,
as a link over the cap at its minimal delay is over it at every later
one, and each link is priced once, the travel and fleet costs per hit
and the wait penalty per widened wait.  Each generator joins its
per-block arrays once into ``Connections``: int64 columns that the flow
network reads directly, in emission order, which is origin order and
then target order.  Minimal generation needs no deduplication of
connections, as each origin is probed once, each variant queued once,
and a probe reaches each target plan at most once.

Vehicles with one start location and ``t_st`` form a class: they have
the same links at the same costs.  Both generators probe only the lowest
index of each class and keep its rows once, as class rows.  Reading
``Connections`` as a sequence sees the per-vehicle rows instead, each
class row once for every member vehicle, in the order of a generation
that probed every vehicle; that view is built only when read.  The tests
keep scalar twins of both generators (``tests/scalar_twins.py``), which
probe every vehicle, and compare against them, order included.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardExceededError, InputError, InternalSolverError
from .model import ChainingInstance, Cost, VariantRef, Vehicle
from .model import FleetSize, TravelCostWaitCapped, TravelCostWaitPenalized


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
    """Connections as int64 columns, one row per vehicle class; a ``Connection`` is built per row read.

    Row ``r`` links origin ``origin[r]`` (a plan index, or n + a vehicle
    index) at ``origin_delay[r]`` to plan index ``target[r]`` at
    ``target_delay[r]`` for ``cost[r]``; indices are instance positions.
    ``variants`` holds every delayed variant a row may name: a generator's
    own variant tuple, or the tuple ``of`` checked with the rows.

    Vehicles that share a start location and ``t_st`` have the same links
    at the same costs, so a generator keeps the rows of one vehicle per
    class, as one run of vehicle rows in representative order (``_view``
    refuses any other).  ``column_class[j]`` is the origin column whose
    rows origin column ``j`` reads: n + the lowest index in its class for a
    vehicle, its own otherwise (a hand-built list makes every vehicle its
    own class), and ``members`` are the vehicles that read another's.
    Reading the rows as a sequence (``len``, indexing, iteration, ``==``)
    sees ``per_vehicle``, every class row repeated for each member vehicle.
    """

    def __init__(
        self, instance: ChainingInstance, variants, origin, origin_delay, target, target_delay, cost, column_class
    ):
        self.instance, self.variants, self.column_class = instance, variants, column_class
        self.columns = (origin, origin_delay, target, target_delay, cost)
        self.origin, self.origin_delay, self.target, self.target_delay, self.cost = self.columns
        self.members = (column_class != np.arange(len(column_class))).nonzero()[0] - len(instance.plans)

    @classmethod
    def of(cls, instance: ChainingInstance, connections: Sequence[Connection], variants) -> Connections:
        """``connections`` over ``instance`` with the delayed ``variants``: the one check of a generation.

        A generator's own ``Connections``, made for ``instance`` and passed
        with its own variant tuple, is returned untouched.  Any other pairing
        is converted row by row, each vehicle its own class: each endpoint
        must be in the instance, and one of ``variants`` if delayed, each
        delay in ``[0, d_max]`` of its plan and each value in int64.  Then
        each variant must be in the instance, have a delay in ``[1, d_max]``
        and appear once.  The first failure raises ``InputError`` naming it.
        """
        if isinstance(connections, Connections) and connections.instance is instance and connections.variants is variants:
            return connections
        n, nodes = len(instance.plans), set(variants)
        plan_col = {p.id: i for i, p in enumerate(instance.plans)}
        vehicle_at = {v.id: n + j for j, v in enumerate(instance.vehicles)}
        rows = []
        for c in connections:
            o, t = c.origin, c.target
            try:
                origin = (vehicle_at[o.id], 0) if type(o) is Vehicle else (plan_col[o.plan_id], o.delay)
                row = (*origin, plan_col[t.plan_id], t.delay, c.cost)
            except KeyError as exc:
                raise InputError(f"connection endpoint {exc.args[0]} is not in the instance") from None
            for ref in (t,) if type(o) is Vehicle else (o, t):
                if ref.delay and ref not in nodes:
                    raise InputError(f"connection endpoint {(ref.plan_id, ref.delay)} has no node")
                if not 0 <= ref.delay <= instance.plans[plan_col[ref.plan_id]].d_max:
                    raise InputError(f"connection endpoint {(ref.plan_id, ref.delay)} lies outside its plan's delay budget")
            if not all(-(1 << 63) <= x < 1 << 63 for x in row):
                raise InputError(f"connection {c} exceeds the int64 range")
            rows.append(row)
        seen = set()
        for v in variants:
            ref = (v.plan_id, v.delay)
            if v.plan_id not in plan_col:
                raise InputError(f"variant {ref} is not in the instance")
            d_max = instance.plans[plan_col[v.plan_id]].d_max
            if not 1 <= v.delay <= d_max:
                raise InputError(f"variant {ref} has a delay outside [1, {d_max}]")
            if ref in seen:
                raise InputError(f"variant {ref} is repeated")
            seen.add(ref)
        columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
        return cls(instance, variants, *columns, np.arange(n + len(instance.vehicles)))

    @cached_property
    def _view(self) -> tuple[int, int, np.ndarray, np.ndarray]:
        """The per-vehicle layout: the vehicle rows' run ``lo:hi``, and each vehicle's row count and offset.

        The per-vehicle rows are the rows before the run, each vehicle's
        class rows in vehicle order, then the rows after it; vehicle ``j``'s
        copy of class row ``r`` is per-vehicle row ``r + offset[j]``.
        Raises ``InternalSolverError`` when the vehicle rows are not one run
        in representative order.
        """
        n = len(self.instance.plans)
        run = (self.origin >= n).nonzero()[0]
        lo, hi = (int(run[0]), int(run[-1]) + 1) if run.size else (0, 0)
        rep = self.origin[lo:hi] - n
        if hi - lo != run.size or (rep[1:] < rep[:-1]).any():
            raise InternalSolverError("the vehicle rows are not one run in representative order")
        cls = self.column_class[n:] - n
        count = np.bincount(rep, minlength=len(cls))  # class rows per representative
        width = count[cls]
        return lo, hi, width, (np.cumsum(width) - width) - (np.cumsum(count) - count)[cls]

    @cached_property
    def per_vehicle(self) -> Connections:
        """These connections with each class row repeated for every member vehicle, each vehicle its own class.

        Built on first read, in the order ``_view`` describes: the order of
        a generation that probed every vehicle.  The solver never reads it.
        """
        if not self.members.size:
            return self
        lo, hi, width, offset = self._view
        stop = lo + int(width.sum())
        row = np.arange(len(self.cost) + stop - hi)  # the class row of each per-vehicle row
        row[lo:stop] -= np.repeat(offset, width)
        row[stop:] -= stop - hi
        vehicles = np.repeat(len(self.instance.plans) + np.arange(len(width)), width)
        origin = np.concatenate([self.origin[:lo], vehicles, self.origin[hi:]])
        columns = (origin, *(col[row] for col in self.columns[1:]))
        return Connections(self.instance, self.variants, *columns, np.arange(len(self.column_class)))

    def _connection(self, o: int, od: int, t: int, td: int, cost: int) -> Connection:
        plans = self.instance.plans
        origin = VariantRef(plans[o].id, od) if o < len(plans) else self.instance.vehicles[o - len(plans)]
        return Connection(origin, VariantRef(plans[t].id, td), cost)

    def __len__(self) -> int:
        """The per-vehicle row count, without building ``per_vehicle``: each row once per column reading it."""
        return int(np.bincount(self.column_class)[self.origin].sum())

    def __getitem__(self, r: int) -> Connection:
        view = self.per_vehicle
        return view._connection(*(int(col[r]) for col in view.columns))

    def __iter__(self):
        view = self.per_vehicle
        return map(view._connection, *(col.tolist() for col in view.columns))

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


def _ramps(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., k - 1 for each k in ``lengths``, concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _vehicle_classes(instance: ChainingInstance) -> tuple[np.ndarray, np.ndarray]:
    """The vehicle origin columns to probe, one per class, and ``Connections.column_class``.

    A class is the vehicles with one start location and ``t_st``; its
    lowest instance index represents it.
    """
    n, lead = len(instance.plans), {}
    col = [n + lead.setdefault((v.start_location, v.t_st), j) for j, v in enumerate(instance.vehicles)]
    return n + np.array(list(lead.values()), dtype=np.int64), np.array([*range(n), *col], dtype=np.int64)


class _ProbeTables:
    """Vectorized timing and cost of the links out of a block of origins.

    An origin is a column of the assignment matrix, a plan index or n + a
    vehicle index, at a delay.  ``probe`` gives a block of origins each
    other plan's minimal feasible delay in one 2-D pass, exactly as
    ``model.minimal_target_delay`` does (tie rule included), and
    ``price`` prices links as ``model.connection_cost`` does.  Both
    generators build on these two alone: exhaustive generation hands
    ``price`` each minimal-delay hit with its width, the delays up to its
    target's ``d_max``, instead of testing every variant.  Differential
    tests pin both generators to scalar twins.
    """

    def __init__(self, instance: ChainingInstance):
        plans, vehicles = instance.plans, instance.vehicles
        self.n = n = len(plans)
        self.t_or = np.array([p.t_or for p in plans], dtype=np.int64)
        self.d_max = np.array([p.d_max for p in plans], dtype=np.int64)
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
        # travel time from each location to each plan's origin location
        self.to_target = instance.travel.array[:, np.array([p.origin_location for p in plans], dtype=np.intp)]
        self.policy = policy = instance.policy
        if isinstance(policy, TravelCostWaitPenalized):
            # price evaluates 2*p*wait + q and 2*q in int64; no wait exceeds
            # the latest delayed start, as every ready time is non-negative
            alpha, max_wait = policy.alpha, max((plan.t_or + plan.d_max for plan in plans), default=0)
            if 2 * alpha.numerator * max(max_wait, 1) + 2 * alpha.denominator > np.iinfo(np.int64).max:
                raise InputError(f"wait penalty {alpha} on waits of up to {max_wait} ticks exceeds the int64 range")

    def probe(self, origin: np.ndarray, origin_delay: np.ndarray):
        """Evaluate a block of origins against every other plan at the minimal delay.

        Returns (row, col, delay, ftt, wait): each time-feasible pair as the
        origin's position in the block and the target plan index, by row and
        then column, with its minimal delay, travel and wait.  The policy is
        not applied.
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
        return row, col, delay, ftt, self.t_or[col] + delay - ready[row, 0] - ftt

    def price(self, origin, origin_delay, row, col, delay, ftt, wait, width=None):
        """The links the policy allows among a block's origins' time-feasible ones (``probe``'s), as connection columns.

        With ``width``, hit ``i`` stands for the links to its target at
        delays ``delay[i]`` to ``delay[i] + width[i] - 1``, one tick more
        wait per tick: exhaustive generation's widening.  The wait cap
        clips each width before a row is repeated, as a link over the cap
        at its minimal delay is over it at every later one.  Travel and
        fleet costs are priced once per hit, the wait penalty per widened
        wait.  Returns the origin, origin delay, target, target delay and
        cost columns, priced as ``model.connection_cost`` prices a link.
        """
        policy = self.policy
        if isinstance(policy, TravelCostWaitCapped):
            room = policy.delta + 1 - wait  # the delays within the cap, from each hit's minimal one
            if width is None:
                keep = room > 0
                row, col, delay, ftt = row[keep], col[keep], delay[keep], ftt[keep]
            else:
                width = np.clip(room, 0, width)
        origin, origin_delay, cost = origin[row], origin_delay[row], ftt
        if isinstance(policy, FleetSize):
            cost = (origin >= self.n).astype(np.int64)
        if width is not None:
            # hit i's rows start at widened row start[i], each a tick later than the one before
            start, lead = np.cumsum(width) - width, wait - delay
            origin, origin_delay, col, cost, delay = (
                np.repeat(a, width) for a in (origin, origin_delay, col, cost, delay - start)
            )
            delay += np.arange(len(delay))
        if isinstance(policy, TravelCostWaitPenalized):  # rounded half-up in exact integer arithmetic
            p, q = policy.alpha.numerator, policy.alpha.denominator
            if width is not None:  # a tick more wait per tick of delay
                wait = np.repeat(lead, width) + delay
            cost = cost + (2 * p * wait + q) // (2 * q)
        return origin, origin_delay, col, delay, cost


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
    vehicles, column_class = _vehicle_classes(instance)
    found: dict[tuple[int, int], None] = {}  # (plan index, delay) of each variant, in discovery order
    parts = []  # per block: origin, origin delay, target, target delay, cost columns
    origin = np.concatenate([np.arange(len(plans)), vehicles])
    origin_delay = np.zeros(len(origin), dtype=np.int64)
    while len(origin):
        queued: list[tuple[int, int]] = []
        for block in _blocks(len(origin), len(plans)):
            o, od = origin[block], origin_delay[block]
            row, col, delay, ftt, wait = tables.probe(o, od)
            # a policy-forbidden minimal connection still creates its variant
            late = delay.nonzero()[0]
            for ref in zip(col[late].tolist(), delay[late].tolist()):
                if ref not in found:
                    found[ref] = None
                    queued.append(ref)
            parts.append(tables.price(o, od, row, col, delay, ftt, wait))
        origin, origin_delay = np.array(queued, dtype=np.int64).reshape(-1, 2).T

    columns = [_column(part) for part in zip(*parts)] or [_column(())] * 5
    variants = tuple(VariantRef(plans[i].id, d) for i, d in found)
    return GenerationResult(variants, Connections(instance, variants, *columns, column_class))


def total_delay_ticks(instance: ChainingInstance) -> int:
    return sum(p.d_max for p in instance.plans)


def generate_exhaustive(instance: ChainingInstance, *, guard_ticks: int = 5000) -> GenerationResult:
    """Enumerate every integer-delay variant and all pairwise connections.

    Exact for any per-connection cost rule, at the price of a variant per
    tick of delay budget; the guard keeps that enumerable.  Origins come in
    a fixed order, every variant by (plan id, delay) and then every vehicle
    by id.  A block of them is probed at the minimal delay and ``price``
    widens each hit to every later delay of its target plan that the
    policy allows, which emits each origin's connections in (plan id,
    delay) order.  Blocks are sized by the variant count, so a block's
    widened links stay within ``_BLOCK_CELLS`` as its probe cells do.
    """
    ticks = total_delay_ticks(instance)
    if ticks > guard_ticks:
        raise GuardExceededError(
            f"exhaustive variant enumeration needs {ticks} delay ticks, guard is {guard_ticks}"
        )
    tables = _ProbeTables(instance)
    n, (vehicles, column_class) = len(instance.plans), _vehicle_classes(instance)
    # every variant in (plan, delay) order, then a vehicle per class
    var_plan = np.repeat(np.arange(n), tables.d_max + 1)
    var_delay = _ramps(tables.d_max + 1)
    origin = np.concatenate([var_plan, vehicles])
    origin_delay = np.concatenate([var_delay, np.zeros(len(vehicles), dtype=np.int64)])
    parts = []  # per block: origin, origin delay, target, target delay, cost columns
    for block in _blocks(len(origin), len(var_plan)):
        o, od = origin[block], origin_delay[block]
        row, col, delay, ftt, wait = tables.probe(o, od)
        # each hit widens to delays d0..d_max of its target
        parts.append(tables.price(o, od, row, col, delay, ftt, wait, tables.d_max[col] - delay + 1))
    columns = [_column(part) for part in zip(*parts)] or [_column(())] * 5
    late = np.flatnonzero(var_delay)
    variants = tuple(map(VariantRef, tables.ids[var_plan[late]].tolist(), var_delay[late].tolist()))
    return GenerationResult(variants, Connections(instance, variants, *columns, column_class))
