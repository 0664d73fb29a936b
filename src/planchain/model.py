"""Core domain model for chaining time-windowed vehicle plans.

A *plan* is an opaque timed task: it occupies a vehicle from an origin
location/time to a destination location/time and may be delayed uniformly
by up to its delay budget.  A *vehicle* is a potential chain head with a
start location and start time.  This module holds the shared primitives:
travel-time lookups, connection feasibility, and connection costs under
the supported cost policies.  Chain extraction, the chain validator and
the oracles call these scalar predicates directly.  Variant generation,
and through it the flow solver, evaluates them in bulk with
``variantgen._ProbeTables``, their vectorized twin, which differential
tests pin to them.

All times are integer ticks at one-second resolution and all costs are
non-negative integers, so there is no floating-point tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError

TimePoint = int
Duration = int
LocationId = int
Cost = int

TICK_LIMIT = 2**60
"""Exclusive bound on the magnitude of every tick value and id in the model.

It leaves headroom below 2^63, so numpy's int64 sums of a few times,
delays and travel durations cannot wrap.
"""


def check_range(owner: str, **fields: int) -> None:
    """Raise ``InputError`` naming ``owner`` unless every field is within ``TICK_LIMIT``."""
    for name, value in fields.items():
        if not -TICK_LIMIT < value < TICK_LIMIT:
            raise InputError(f"{owner}: {name} {value} outside the range (-2^60, 2^60)")


def _int64_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be integers within the int64 range ({exc})") from None


class TravelMatrix:
    """Dense, possibly asymmetric travel-time matrix in ticks.

    Entries must be non-negative with a zero diagonal.  The triangle
    inequality is *not* assumed: ``closure`` is ``table`` exactly when it
    holds.
    """

    __slots__ = ("_closure", "_entries", "_metric", "_table")

    def __init__(self, entries) -> None:
        arr = _int64_array(entries, "travel matrix entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("travel matrix must be square")
        if arr.size and (arr < 0).any():
            raise InputError("travel matrix entries must be non-negative")
        if arr.size and arr.max() >= TICK_LIMIT:
            raise InputError("travel matrix entries must be below 2^60")
        if arr.size and np.diagonal(arr).any():
            raise InputError("travel matrix diagonal must be zero")
        arr.setflags(write=False)
        self._entries = arr
        self._metric = False  # True only when known without the closure pass
        self._table: tuple[tuple[int, ...], ...] | None = None
        self._closure: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_coordinates(cls, coordinates, ticks_per_unit: int = 1) -> "TravelMatrix":
        """Manhattan-metric matrix for integer grid coordinates."""
        if ticks_per_unit < 0:
            raise InputError("ticks_per_unit must be non-negative")
        pts = _int64_array(list(coordinates), "grid coordinates")
        if pts.shape == (0,):  # no points; points with no coordinates are all at distance 0
            return cls(np.zeros((0, 0), dtype=np.int64))
        if pts.ndim != 2:
            raise InputError("grid coordinates must be equal-length integer tuples")
        # numpy wraps on overflow, so bound the largest distance in Python ints
        span = sum(int(hi) - int(lo) for hi, lo in zip(pts.max(axis=0), pts.min(axis=0)))
        if max(span, 1) * ticks_per_unit > np.iinfo(np.int64).max:
            raise InputError("grid distances exceed the int64 range")
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        matrix = cls(dist * int(ticks_per_unit))
        matrix._metric = True  # Manhattan distances obey the triangle inequality
        return matrix

    @property
    def size(self) -> int:
        return self._entries.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view of the matrix."""
        return self._entries

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Read-only rows of Python ints: ``table[a][b] == duration(a, b)``.

        Built on first use and cached on the matrix.  Indexing it skips
        ``duration``'s range check, so a hot loop checks each location
        once (``0 <= loc < size``) before it starts: a negative index
        would silently wrap around.
        """
        if self._table is None:
            self._table = tuple(map(tuple, self._entries.tolist()))
        return self._table

    @property
    def closure(self) -> tuple[tuple[int, ...], ...]:
        """Read-only rows of shortest-path times over any chain of legs.

        ``closure[a][b]`` is never above ``table[a][b]`` and is a lower
        bound on every route from a to b; on a metric matrix (one where
        d(a, c) <= d(a, b) + d(b, c) for all a, b, c) it is ``table``
        itself.  The O(L^3) pass runs on first use, unless the matrix came
        from grid coordinates, and is cached on the matrix.  Indexed
        unchecked, as ``table`` is.
        """
        if self._closure is None:
            d = self._entries.copy()  # entries are below 2^60, so the sums cannot wrap
            if not self._metric:  # grid matrices are known to be metric
                for b in range(self.size):
                    np.minimum(d, d[:, [b]] + d[[b], :], out=d)
            self._closure = self.table if np.array_equal(d, self._entries) else tuple(map(tuple, d.tolist()))
        return self._closure

    def duration(self, a: LocationId, b: LocationId) -> Duration:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise InputError(f"location pair ({a}, {b}) outside {self.size}x{self.size} matrix")
        return int(self._entries[a, b])

    def rows(self) -> list[list[int]]:
        """A fresh mutable copy of the entries; changing it changes nothing here."""
        return self._entries.tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, TravelMatrix) and np.array_equal(self._entries, other._entries)

    def __repr__(self) -> str:
        return f"TravelMatrix(size={self.size})"


@dataclass(frozen=True)
class Plan:
    """A timed task with a uniform delay budget (its time window)."""

    id: int
    origin_location: LocationId
    destination_location: LocationId
    t_or: TimePoint
    t_de: TimePoint
    d_max: Duration

    def __post_init__(self) -> None:
        check_range(f"plan {self.id}", id=self.id, t_or=self.t_or, t_de=self.t_de, d_max=self.d_max)
        if self.t_or < 0 or self.t_de < 0:
            raise InputError(f"plan {self.id}: times must be non-negative")
        if self.t_or > self.t_de:
            raise InputError(f"plan {self.id}: origin time {self.t_or} after destination time {self.t_de}")
        if self.d_max < 0:
            raise InputError(f"plan {self.id}: negative delay budget")


@dataclass(frozen=True)
class Vehicle:
    """A potential chain head: a start location and a start time."""

    id: int
    start_location: LocationId
    t_st: TimePoint

    def __post_init__(self) -> None:
        check_range(f"vehicle {self.id}", id=self.id, t_st=self.t_st)
        if self.t_st < 0:
            raise InputError(f"vehicle {self.id}: negative start time")


@dataclass(frozen=True)
class VariantRef:
    """A plan shifted later by ``delay`` ticks; delay 0 is the base plan."""

    plan_id: int
    delay: Duration

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise InputError(f"variant of plan {self.plan_id}: negative delay")


@dataclass(frozen=True)
class FleetSize:
    """Count one unit per used vehicle; connections between plans are free."""


@dataclass(frozen=True)
class TravelCost:
    """Connection cost equals the travel time between the endpoints."""


@dataclass(frozen=True)
class TravelCostWaitCapped:
    """Travel-time cost, but connections whose wait exceeds ``delta`` are dropped.

    ``delta`` lies in ``[0, TICK_LIMIT)``, so the int64 wait arithmetic of
    variant generation cannot wrap; any other cap is an ``InputError``.
    """

    delta: Duration

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise InputError("wait cap must be non-negative")
        # no digits in the message: str() refuses integers of over 4300 digits
        if self.delta >= TICK_LIMIT:
            raise InputError("wait cap must be below 2^60")


@dataclass(frozen=True)
class TravelCostWaitPenalized:
    """Travel-time cost plus ``alpha`` per tick of wait, rounded half-up."""

    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha < 0:
            raise InputError("wait penalty must be non-negative")
        # no digits in the message: str() refuses integers of over 4300 digits
        if max(self.alpha.numerator, self.alpha.denominator) > np.iinfo(np.int64).max:
            raise InputError("wait penalty numerator or denominator outside the int64 range")


CostPolicy = FleetSize | TravelCost | TravelCostWaitCapped | TravelCostWaitPenalized

Endpoint = Plan | Vehicle | VariantRef


def index_records(records, kind: str, locations: tuple[str, ...], size: int) -> tuple[tuple, dict]:
    """Sort ``records`` by id and map each id to its record.

    Checks each record in id order: its id must be new (else ``duplicate
    {kind} id N``), and each of its ``locations`` attributes must index
    the travel matrix of ``size`` locations (else ``{kind} N: location L
    outside travel matrix``).  Returns the sorted tuple and the id map.
    """
    ordered = tuple(sorted(records, key=lambda r: r.id))
    by_id = {}
    for record in ordered:
        if record.id in by_id:
            raise InputError(f"duplicate {kind} id {record.id}")
        for name in locations:
            loc = getattr(record, name)
            if not 0 <= loc < size:
                raise InputError(f"{kind} {record.id}: location {loc} outside travel matrix")
        by_id[record.id] = record
    return ordered, by_id


@dataclass(frozen=True)
class ChainingInstance:
    """Plans, vehicles, travel times, and the active cost policy."""

    plans: tuple[Plan, ...]
    vehicles: tuple[Vehicle, ...]
    travel: TravelMatrix
    policy: CostPolicy

    def __post_init__(self) -> None:
        if not isinstance(self.policy, CostPolicy):
            raise InputError(f"unknown cost policy {self.policy!r}")
        size = self.travel.size
        plans, plan_map = index_records(self.plans, "plan", ("origin_location", "destination_location"), size)
        vehicles, vehicle_map = index_records(self.vehicles, "vehicle", ("start_location",), size)
        object.__setattr__(self, "plans", plans)
        object.__setattr__(self, "vehicles", vehicles)
        object.__setattr__(self, "_plan_map", plan_map)
        object.__setattr__(self, "_vehicle_map", vehicle_map)

    def plan(self, plan_id: int) -> Plan:
        try:
            return self._plan_map[plan_id]
        except KeyError:
            raise InputError(f"unknown plan id {plan_id}") from None

    def vehicle(self, vehicle_id: int) -> Vehicle:
        try:
            return self._vehicle_map[vehicle_id]
        except KeyError:
            raise InputError(f"unknown vehicle id {vehicle_id}") from None

    def with_policy(self, policy: CostPolicy) -> "ChainingInstance":
        return ChainingInstance(self.plans, self.vehicles, self.travel, policy)


def _shifted_plan(instance: ChainingInstance, x: Plan | VariantRef) -> tuple[Plan, Duration]:
    if isinstance(x, Plan):
        return instance.plan(x.id), 0
    plan = instance.plan(x.plan_id)
    if not 0 <= x.delay <= plan.d_max:
        raise InputError(f"plan {plan.id}: delay {x.delay} outside [0, {plan.d_max}]")
    return plan, x.delay


def _link(instance: ChainingInstance, a: Endpoint, b: Plan | VariantRef):
    """Resolve both ends of the link ``a -> b`` against the instance.

    Returns (a's plan or ``None`` for a vehicle, b's plan, b's delay, a's
    ready time, travel ticks).  Delays never move locations, so a variant
    exits and enters where its base plan does.  Raises ``InputError`` for
    an unknown plan or vehicle, a delay outside its budget, or a plan
    linked to one of its own variants.
    """
    plan_b, delay_b = _shifted_plan(instance, b)
    if isinstance(a, Vehicle):
        vehicle = instance.vehicle(a.id)
        plan_a, ready, loc_a = None, vehicle.t_st, vehicle.start_location
    else:
        plan_a, delay_a = _shifted_plan(instance, a)
        if plan_a.id == plan_b.id:
            raise InputError(f"cannot connect plan {plan_b.id} to one of its own variants")
        ready, loc_a = plan_a.t_de + delay_a, plan_a.destination_location
    return plan_a, plan_b, delay_b, ready, instance.travel.duration(loc_a, plan_b.origin_location)


def _fits(plan_a: Plan | None, plan_b: Plan, delay_b: Duration, ready: TimePoint, ftt: Duration) -> bool:
    """True when ``plan_b`` at ``delay_b`` can start after ``ready`` plus ``ftt`` travel.

    The temporal condition is travel time <= available gap.  When the gap
    closes exactly at zero travel time, plan-to-plan links are additionally
    ordered by (origin time, id), so that the link relation stays acyclic
    even for degenerate simultaneous plans.
    """
    gap = plan_b.t_or + delay_b - ready
    if ftt != gap:
        return ftt < gap
    return plan_a is None or ftt > 0 or (plan_a.t_or, plan_a.id) < (plan_b.t_or, plan_b.id)


def travel_time(instance: ChainingInstance, a: Endpoint, b: Plan | VariantRef) -> Duration:
    """Travel ticks from the exit point of ``a`` to the entry point of ``b``."""
    return _link(instance, a, b)[4]


def connection_feasible(instance: ChainingInstance, a: Endpoint, b: Plan | VariantRef) -> bool:
    """True when ``b`` (at its delay) can directly follow ``a`` in a chain."""
    return _fits(*_link(instance, a, b))


def connection_wait(instance: ChainingInstance, a: Endpoint, b: Plan | VariantRef) -> Duration:
    """Idle ticks between finishing ``a`` plus travel and starting ``b``.

    Vehicle origins wait from their start time, mirroring the feasibility
    condition; a vehicle idling before its first plan counts as waiting.
    """
    _, plan_b, delay_b, ready, ftt = _link(instance, a, b)
    return plan_b.t_or + delay_b - ready - ftt


def connection_cost(instance: ChainingInstance, a: Endpoint, b: Plan | VariantRef) -> Cost | None:
    """Cost of the connection under the instance's policy; ``None`` means forbidden.

    Forbidden connections are materialized by omitting the edge from the
    network, never by a sentinel "infinite" cost.
    """
    plan_a, plan_b, delay_b, ready, ftt = link = _link(instance, a, b)
    if not _fits(*link):
        raise InputError("connection_cost called on an infeasible connection")
    policy = instance.policy
    if isinstance(policy, FleetSize):
        return 1 if plan_a is None else 0
    if isinstance(policy, TravelCost):
        return ftt
    wait = plan_b.t_or + delay_b - ready - ftt
    if isinstance(policy, TravelCostWaitCapped):
        return None if wait > policy.delta else ftt
    # a wait penalty, the last kind ``ChainingInstance`` admits
    return ftt + int((policy.alpha * wait + Fraction(1, 2)).__floor__())


def minimal_target_delay(instance: ChainingInstance, a: Endpoint, b: Plan) -> Duration | None:
    """Smallest delay of ``b`` making the connection from ``a`` feasible.

    Returns ``None`` when no delay within the budget works.  The least
    delay that closes the travel gap fits unless it meets the zero-gap tie
    rule, and then one tick more does.
    """
    plan_a, plan_b, _, ready, ftt = _link(instance, a, b)
    delay = max(ftt - (plan_b.t_or - ready), 0)
    if not _fits(plan_a, plan_b, delay, ready, ftt):
        delay += 1
    return delay if delay <= plan_b.d_max else None
