"""Static dial-a-ride layer: exact batch solving chained into full routes.

The pipeline splits demand by request time into batches, solves each batch
exactly (free floating, without vehicles), converts the resulting route
plans into chaining plans whose delay budget is the largest uniform shift
that keeps every stop inside its window, and finally chains the plans
across batches with the exact chaining solver.  A classic insertion
heuristic provides the comparison baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import GuardExceededError, InfeasibleError, InputError
from .model import ChainingInstance, CostPolicy, Plan, TravelCost, TravelMatrix, Vehicle, check_range, index_records
from .chainsolve import solve_chaining

PICKUP = "pickup"
DROPOFF = "dropoff"
MAX_BATCH_REQUESTS = 12  # the subset DP's size guard per batch


@dataclass(frozen=True)
class Request:
    """One passenger trip: origin to destination, departing at ``t_r``.

    The pickup may happen in [t_r, t_r + max_delay]; the arrival no later
    than t_r + direct travel + max_delay.
    """

    id: int
    origin: int
    destination: int
    t_r: int
    max_delay: int

    def __post_init__(self) -> None:
        check_range(f"request {self.id}", id=self.id, t_r=self.t_r, max_delay=self.max_delay)
        if self.t_r < 0:
            raise InputError(f"request {self.id}: negative departure time")
        if self.max_delay < 0:
            raise InputError(f"request {self.id}: negative delay budget")

    @property
    def latest_pickup(self) -> int:
        return self.t_r + self.max_delay

    def direct(self, travel: TravelMatrix) -> int:
        """Direct travel time; both locations must lie in ``travel`` (unchecked)."""
        return travel.table[self.origin][self.destination]

    def latest_arrival(self, travel: TravelMatrix) -> int:
        return self.t_r + self.direct(travel) + self.max_delay


@dataclass(frozen=True)
class AutoFleet:
    """Marker: create one virtual vehicle per produced plan, at its origin."""


AUTO_FLEET = AutoFleet()


@dataclass(frozen=True)
class DarpInstance:
    requests: tuple[Request, ...]
    travel: TravelMatrix
    capacity: int
    fleet: tuple[Vehicle, ...] | AutoFleet

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise InputError("vehicle capacity must be at least 1")
        size = self.travel.size
        requests, request_map = index_records(self.requests, "request", ("origin", "destination"), size)
        object.__setattr__(self, "requests", requests)
        object.__setattr__(self, "_request_map", request_map)
        if not isinstance(self.fleet, AutoFleet):
            object.__setattr__(self, "fleet", index_records(self.fleet, "vehicle", ("start_location",), size)[0])

    def request(self, rid: int) -> Request:
        try:
            return self._request_map[rid]
        except KeyError:
            raise InputError(f"unknown request id {rid}") from None


@dataclass(frozen=True)
class Stop:
    request_id: int
    kind: str  # pickup | dropoff
    location: int
    time: int


@dataclass(frozen=True)
class RoutePlan:
    """An ordered stop schedule for one vehicle plan."""

    stops: tuple[Stop, ...]

    @property
    def first_time(self) -> int:
        return self.stops[0].time

    @property
    def last_time(self) -> int:
        return self.stops[-1].time

    @property
    def total_duration(self) -> int:
        return self.last_time - self.first_time if self.stops else 0

    def driving(self, travel: TravelMatrix) -> int:
        """Driven ticks between the stops; their locations must lie in ``travel`` (unchecked)."""
        table = travel.table
        return sum(table[a.location][b.location] for a, b in zip(self.stops, self.stops[1:]))

    def request_ids(self) -> tuple[int, ...]:
        return tuple(sorted({s.request_id for s in self.stops}))

    def shifted(self, delay: int) -> "RoutePlan":
        return RoutePlan(tuple(Stop(s.request_id, s.kind, s.location, s.time + delay) for s in self.stops))


@dataclass(frozen=True)
class DarpSolution:
    method: str
    batch_len: int | None
    routes: tuple[tuple[Vehicle, RoutePlan], ...]
    objective: int
    request_delays: tuple[tuple[int, int], ...]  # (request id, pickup delay)


@dataclass(frozen=True)
class Metrics:
    total_cost: int
    used_vehicles: int
    occupancy: tuple[tuple[int, int], ...]  # (onboard count, ticks)
    delays: tuple[tuple[int, int], ...]  # (delay ticks, requests)


def _latest_for_stop(stop: Stop, request: Request, travel: TravelMatrix) -> int:
    if stop.kind == PICKUP:
        return request.latest_pickup
    return request.latest_arrival(travel)


def _stop_times(specs, table, capacity: int, loc: int, t: int) -> list[int] | None:
    """Earliest-feasible stop times for ordered (code, row) specs from ``loc`` at tick ``t``.

    Code 0 picks up and code 1 drops off the request of a ``_request_rows``
    row; each dropoff follows its pickup, and no pickup starts before its
    request's departure time.  Returns None when a window or the capacity
    breaks.  ``table`` is a ``TravelMatrix.table`` checked for every row.
    """
    times: list[int] = []
    onboard = 0
    for code, (_, origin, destination, t_r, latest_pickup, latest_arrival) in specs:
        if code == 0:
            t += table[loc][origin]
            if t < t_r:
                t = t_r
            onboard += 1
            if onboard > capacity or t > latest_pickup:
                return None
            loc = origin
        else:
            t += table[loc][destination]
            onboard -= 1
            if t > latest_arrival:
                return None
            loc = destination
        times.append(t)
    return times


def _request_rows(reqs, travel: TravelMatrix) -> list[tuple]:
    """One row per request: (id, origin, destination, t_r, latest pickup, latest arrival).

    Raises ``InputError`` on a repeated request id, or unless every
    location lies in ``travel``: the searches index ``travel.table``
    without a range check, where a negative location would silently wrap,
    and would serve a repeated request twice, so each entry point builds
    its rows once.
    """
    size = travel.size
    rows, seen = [], set()
    for r in reqs:
        if r.id in seen:
            raise InputError(f"duplicate request id {r.id}")
        seen.add(r.id)
        if not (0 <= r.origin < size and 0 <= r.destination < size):
            raise InputError(f"request {r.id}: locations ({r.origin}, {r.destination}) outside {size}x{size} matrix")
        rows.append((r.id, r.origin, r.destination, r.t_r, r.latest_pickup, r.latest_arrival(travel)))
    return rows


def _check_capacity(capacity: int) -> None:
    if capacity < 1:
        raise InputError("vehicle capacity must be at least 1")


def optimal_plan_for_group(group, travel: TravelMatrix, capacity: int) -> RoutePlan | None:
    """Minimum-duration plan serving all of ``group`` together, or None: its route in ``_search_batch``.

    A capacity below 1, an empty group or a repeated request id raises
    ``InputError``; a group larger than the capacity, ``GuardExceededError``.
    """
    _check_capacity(capacity)
    if not group:
        raise InputError("a group needs at least one request")
    rows = _request_rows(sorted(group, key=lambda r: r.id), travel)
    if len(rows) > capacity:
        raise GuardExceededError(f"group of {len(rows)} exceeds capacity {capacity}")
    found = _search_batch(rows, travel, capacity, None)[0].get((1 << len(rows)) - 1)
    return None if found is None else _route_plan(found[2])


def _search_batch(rows, travel: TravelMatrix, capacity: int, deadline: float | None):
    """Every feasible group's best route, by one label search: ({mask: (duration, driving, stops)}, finished).

    ``rows`` are ``_request_rows`` rows sorted by id; a group is a bitmask
    over them of at most ``capacity`` requests.  A label (now, first pickup
    time, driving, stops) is a partial route at a state (picked mask,
    onboard mask, location).  A stop is (0 for a pickup or 1 for a dropoff,
    request id, time, location); the stops before it fix its time and
    location, so stop tuples compare as their (code, id) pairs would.  A
    route starts at its first request's departure time, each stop at its
    earliest feasible tick; a step of ``_mask_steps`` cuts a stop that
    misses its window or leaves a rider unable to arrive in time.  A label
    with nobody on board is a route for its picked mask; each group keeps
    the least.

    The steps of each (onboard, opened) pair are built once per batch from
    one ``_step_table``, latest tick first.  A stop is no earlier than its
    label's ``now`` (travel times are non-negative), so a label stops at the
    first step whose latest tick it has passed; a step that picks up an
    already picked request is skipped in place.

    Labels grow one stop per level, so a state has all its labels before it
    is expanded, and there A drops B when A.now <= B.now, A.first >=
    B.first and (A.driving, A.stops) <= (B.driving, B.stops).  This is
    exact: stop times are monotone, so every completion of B is feasible
    from A and ends no later; from A's no earlier first pickup it lasts no
    longer and drives no more, and stop tuples at one state have equal
    length, so they compare by their prefix.  The step order cannot change
    the result: this dominance is transitive, and ``(driving, stops)`` is
    a total order (equal stops make equal labels), so each state keeps the
    Pareto-minimal labels of its level in any insertion order, each group
    the least of its routes, and the deadline cut below returns only the
    levels that finished.  ``deadline`` (a ``time.monotonic`` value) is
    read once per expanded state after the single-request routes; once it
    passes, only the group sizes whose last level finished are returned,
    with ``finished`` false.
    """
    n, most, full, table = len(rows), min(capacity, len(rows)), (1 << len(rows)) - 1, travel.table
    step_table = _step_table(rows, travel)
    steps_at: dict[int, list] = {}  # onboard << 1 | opened -> ``_mask_steps``
    known: dict[tuple, tuple] = {}  # one copy of each distinct step; most masks repeat them
    groups: dict[int, tuple] = {}
    # a state is the int picked | onboard << n | location << 2n
    level = {
        1 << k | 1 << k + n | origin << 2 * n: [(t_r, t_r, 0, ((0, rid, t_r, origin),))]
        for k, (rid, origin, _, t_r, _, _) in enumerate(rows)
    }
    depth = 1  # stops per label in ``level``
    while level:
        nxt: dict[int, list] = {}
        while level:
            state, labels = level.popitem()  # frees each state's labels once it is expanded
            picked, onboard = state & full, state >> n & full
            opened = picked.bit_count() < most
            if not (onboard or opened):
                continue
            if depth > 1 and deadline is not None and time.monotonic() > deadline:
                return {mask: v for mask, v in groups.items() if 2 * mask.bit_count() <= depth}, False
            steps = steps_at.get(onboard << 1 | opened)
            if steps is None:
                made = _mask_steps(step_table, onboard, opened)
                steps = steps_at[onboard << 1 | opened] = [known.setdefault(step, step) for step in made]
            base, row = picked | onboard << n, table[state >> 2 * n]
            for now, first, driving, stops in labels:
                for bit, to, earliest, latest, delta, closes, code, rid in steps:
                    if now > latest:
                        break
                    if picked & bit:
                        continue
                    leg = row[to]
                    t = now + leg if now + leg > earliest else earliest
                    if t > latest:
                        continue
                    drv, seq = driving + leg, stops + ((code, rid, t, to),)
                    if closes and ((best := groups.get(picked)) is None or (t - first, drv, seq) < best):
                        groups[picked] = (t - first, drv, seq)
                    kept = nxt.get(base + delta)
                    if kept is None:
                        nxt[base + delta] = [(t, first, drv, seq)]
                        continue
                    for o in kept:
                        if o[0] <= t and o[1] >= first and (o[2] < drv or o[2] == drv and o[3] <= seq):
                            break
                    else:
                        kept[:] = [o for o in kept if t > o[0] or first < o[1] or (drv, seq) >= (o[2], o[3])]
                        kept.append((t, first, drv, seq))
        level = nxt
        depth += 1
    return groups, True


def _step_table(rows, travel: TravelMatrix) -> list[tuple]:
    """Each row's (pickup, dropoff) step for ``_mask_steps``, built once per batch.

    A step is (pickup bit or 0, location, earliest tick, own latest tick,
    state delta, stop code, request id, cuts), where ``cuts[j]`` is the
    latest tick at the step's location from which row j's rider can still
    arrive in time: its latest arrival less the ``closure`` to its
    destination.
    """
    n, short = len(rows), travel.closure

    def cuts(to):
        return [r[5] - short[to][r[2]] for r in rows]

    table = []
    for k, (rid, origin, destination, t_r, latest_pickup, latest_arrival) in enumerate(rows):
        bit = 1 << k
        pickup = (bit, origin, t_r, latest_pickup, bit | bit << n | origin << 2 * n, 0, rid, cuts(origin))
        dropoff = (0, destination, 0, latest_arrival, (destination << 2 * n) - (bit << n), 1, rid, cuts(destination))
        table.append((pickup, dropoff))
    return table


def _mask_steps(step_table, onboard: int, opened: bool) -> list[tuple]:
    """``_search_batch``'s next stops with onboard mask ``onboard``: dropoffs, and pickups if ``opened``.

    A step is (pickup bit or 0, location, earliest tick, latest tick, state
    delta, whether it empties the vehicle, stop code, request id), sorted
    by latest tick, latest first.  The latest tick is the stop's window,
    lowered to every rider's cut in ``step_table`` (a pickup's own ride is
    no longer than its direct leg, so its window covers it).
    """
    riders = [k for k in range(len(step_table)) if onboard >> k & 1]
    steps = []
    for k, (pickup, dropoff) in enumerate(step_table):
        if onboard >> k & 1:
            pick, to, earliest, latest, delta, code, rid, cuts = dropoff
        elif opened:
            pick, to, earliest, latest, delta, code, rid, cuts = pickup
        else:
            continue
        for j in riders:
            if cuts[j] < latest:
                latest = cuts[j]
        steps.append((pick, to, earliest, latest, delta, onboard == 1 << k, code, rid))
    steps.sort(key=lambda step: -step[3])
    return steps


def _route_plan(stops) -> RoutePlan:
    """The ``RoutePlan`` of ``_search_batch``'s stop tuples."""
    return RoutePlan(tuple(Stop(rid, PICKUP if code == 0 else DROPOFF, loc, t) for code, rid, t, loc in stops))


@dataclass(frozen=True)
class BatchResult:
    plans: tuple[RoutePlan, ...]
    proven_optimal: bool


def _best_partition(s: int, groups_by_low, memo: dict) -> tuple:
    """(total duration, group count, first group's ids, mask and stops) of the best partition of bitmask ``s``.

    Its first group holds ``s``'s lowest request, so the groups' ids stay
    sorted, and two partitions with different first groups differ in
    those first ids: ``(total, count, ids)`` decides as the whole id
    sequence would.  A candidate is priced by its integer total first;
    only a tie compares ``(count, ids)``.  The rest of the partition is
    ``memo[s ^ mask]``'s.  ``memo`` maps the masks already solved, 0
    included, and gains ``s``, which it must not hold yet; only masks
    reachable from the first call are ever solved.
    """
    best = None
    for mask, duration, ids, stops in groups_by_low[s & -s]:
        if mask & s == mask:
            rest = memo.get(s ^ mask) or _best_partition(s ^ mask, groups_by_low, memo)
            total = rest[0] + duration
            if best is None or total < best[0] or total == best[0] and (rest[1] + 1, ids) < best[1:3]:
                best = (total, rest[1] + 1, ids, mask, stops)
    memo[s] = best
    return best


def _check_time_limit(time_limit_ms: int | None) -> None:
    """Refuse a batch time limit outside ``[0, 2**63)`` ms; within it the deadline is a finite float of seconds."""
    if time_limit_ms is None:
        return
    if time_limit_ms < 0:
        raise InputError(f"time limit must be non-negative, got {time_limit_ms} ms")
    # no digits in the message: str() refuses integers of over 4300 digits
    if time_limit_ms >= 1 << 63:
        raise InputError("time limit must be below 2^63 ms")


def solve_batch_exact(
    batch,
    travel: TravelMatrix,
    capacity: int,
    *,
    time_limit_ms: int | None = None,
) -> BatchResult:
    """Optimal set partitioning of a batch into shared route plans.

    One ``_search_batch`` over the id-sorted batch finds every feasible
    group, a bitmask with its optimal stops; each group's ids are read
    from its mask's bits, and only the chosen groups become
    ``RoutePlan``s.  A dynamic program over the subsets reachable from the
    full batch covers every request with exactly one group at the least
    total plan duration: a request set's best partition takes a group
    holding its lowest request plus the best partition of the rest,
    memoized per subset.  Ties prefer fewer groups, then lexicographic
    group ids.  The time limit stops only the search; the partition is
    still the best over the groups it kept (single requests always), and
    ``proven_optimal`` is false.  A limit of 0 cuts every search at once; a
    negative one, or one of 2**63 ms or more, raises ``InputError``, as do
    a capacity below 1 and a repeated request id.
    """
    _check_capacity(capacity)
    _check_time_limit(time_limit_ms)
    reqs = sorted(batch, key=lambda r: r.id)
    if not reqs:
        return BatchResult((), True)
    if len(reqs) > MAX_BATCH_REQUESTS:
        raise GuardExceededError(
            f"batch of {len(reqs)} requests exceeds the guard of {MAX_BATCH_REQUESTS}; use a shorter batch length"
        )
    rows = _request_rows(reqs, travel)
    deadline = time.monotonic() + time_limit_ms / 1000.0 if time_limit_ms is not None else None
    groups, finished = _search_batch(rows, travel, capacity, deadline)
    id_of = {1 << k: row[0] for k, row in enumerate(rows)}  # a request's bit -> its id
    groups_by_low = {bit: [] for bit in id_of}  # lowest bit -> [(mask, duration, ids, stops)]
    for mask, (duration, _, stops) in groups.items():
        ids, rest = [], mask
        while rest:
            ids.append(id_of[rest & -rest])
            rest &= rest - 1
        groups_by_low[mask & -mask].append((mask, duration, tuple(ids), stops))

    s, memo = (1 << len(rows)) - 1, {0: (0, 0, (), 0, ())}
    _best_partition(s, groups_by_low, memo)
    plans = []
    while s:  # follow the first groups' masks through the memo
        *_, mask, stops = memo[s]
        plans.append(_route_plan(stops))
        s ^= mask
    ordered = tuple(sorted(plans, key=lambda p: (p.first_time, p.request_ids())))
    return BatchResult(ordered, finished)


def plans_to_chaining(plans, instance: DarpInstance) -> tuple[tuple[Plan, ...], dict[int, RoutePlan]]:
    """Convert route plans into chaining plans with uniform-shift budgets.

    The delay budget is the largest uniform shift keeping every stop
    within its window, i.e. the minimum per-stop slack; plans scheduled at
    their earliest feasible times maximize it.
    """
    chain_plans: list[Plan] = []
    mapping: dict[int, RoutePlan] = {}
    for idx, plan in enumerate(plans):
        slack = min(
            _latest_for_stop(stop, instance.request(stop.request_id), instance.travel) - stop.time
            for stop in plan.stops
        )
        if slack < 0:
            raise InputError(f"plan {idx} violates a window before any shift")
        chain_plans.append(
            Plan(
                id=idx,
                origin_location=plan.stops[0].location,
                destination_location=plan.stops[-1].location,
                t_or=plan.first_time,
                t_de=plan.last_time,
                d_max=slack,
            )
        )
        mapping[idx] = plan
    return tuple(chain_plans), mapping


def total_driving_cost(routes, travel: TravelMatrix) -> int:
    """Driven ticks over all routes, including the empty approach legs.

    Every location must lie in ``travel`` (unchecked).
    """
    total = 0
    for vehicle, plan in routes:
        if not plan.stops:
            continue
        total += travel.table[vehicle.start_location][plan.stops[0].location]
        total += plan.driving(travel)
    return total


def _solution_from_routes(method, batch_len, routes, instance) -> DarpSolution:
    delays = []
    for _, plan in routes:
        for stop in plan.stops:
            if stop.kind == PICKUP:
                delays.append((stop.request_id, stop.time - instance.request(stop.request_id).t_r))
    return DarpSolution(
        method=method,
        batch_len=batch_len,
        routes=tuple(routes),
        objective=total_driving_cost(routes, instance.travel),
        request_delays=tuple(sorted(delays)),
    )


def run_proposed(
    instance: DarpInstance,
    batch_len: int,
    *,
    time_limit_ms: int | None = None,
    chain_policy: CostPolicy | None = None,
    threads: int = 1,
    _method: str = "proposed",
) -> DarpSolution:
    """Batch-split pipeline: exact batches, then exact chaining across them.

    Requests are bucketed by floor((t_r - min t_r) / batch_len) (a request
    exactly on a boundary joins the later batch), each batch is solved
    free floating, and the produced plans are chained with the instance
    fleet (or one virtual vehicle per plan for an auto fleet).
    """
    if batch_len < 1:
        raise InputError("batch length must be at least one tick")
    _check_time_limit(time_limit_ms)
    # batches run one after another; ``threads`` stays for the ``threads=1`` call in bench/workloads.py
    if threads != 1:
        raise InputError(f"threads must be 1, got {threads}")
    reqs = instance.requests
    if not reqs:
        return DarpSolution(_method, batch_len, (), 0, ())
    t0 = min(r.t_r for r in reqs)
    buckets: dict[int, list[Request]] = {}
    for r in reqs:
        buckets.setdefault((r.t_r - t0) // batch_len, []).append(r)
    batch_list = [buckets[k] for k in sorted(buckets)]

    results = [solve_batch_exact(b, instance.travel, instance.capacity, time_limit_ms=time_limit_ms) for b in batch_list]

    all_plans = [plan for res in results for plan in res.plans]
    label = _method if all(res.proven_optimal for res in results) else f"{_method}-lim"
    chain_plans, mapping = plans_to_chaining(all_plans, instance)
    if isinstance(instance.fleet, AutoFleet):
        vehicles = tuple(Vehicle(p.id, p.origin_location, 0) for p in chain_plans)
    else:
        vehicles = instance.fleet
    chain_instance = ChainingInstance(
        plans=chain_plans,
        vehicles=vehicles,
        travel=instance.travel,
        policy=chain_policy if chain_policy is not None else TravelCost(),
    )
    try:
        chain_solution = solve_chaining(chain_instance)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"chaining the {len(chain_plans)} batch plans failed with {len(vehicles)} vehicles; "
            f"the fleet is too small ({exc})"
        ) from exc

    routes = []
    for chain in chain_solution.chains:
        stops: list[Stop] = []
        for ref in chain.elements:
            stops.extend(mapping[ref.plan_id].shifted(ref.delay).stops)
        routes.append((chain.vehicle, RoutePlan(tuple(stops))))
    return _solution_from_routes(label, batch_len, routes, instance)


def run_single_batch(instance: DarpInstance, **kwargs) -> DarpSolution:
    """Degenerate batching: one batch spanning the whole horizon."""
    reqs = instance.requests
    span = (max(r.t_r for r in reqs) - min(r.t_r for r in reqs) + 1) if reqs else 1
    return run_proposed(instance, span, _method="single-batch", **kwargs)


def insertion_heuristic(instance: DarpInstance) -> DarpSolution:
    """Greedy baseline: cheapest feasible insertion, new vehicle as fallback.

    Requests are processed in departure order; each is tried at every
    pickup/dropoff position pair in every opened vehicle's route, and the
    smallest plan-duration increase wins (ties: lowest vehicle id, then
    earliest positions).  Only when no insertion fits is a vehicle opened,
    the nearest feasible unused one; an exhausted fleet raises.  A trial
    reschedules its (code, row) specs with ``_stop_times``; the kept stop
    times become routes through ``_route_plan``.
    """
    if isinstance(instance.fleet, AutoFleet):
        raise InputError("the insertion heuristic needs an explicit fleet")
    capacity = instance.capacity
    table = instance.travel.table  # DarpInstance checked every location
    route_by_vehicle: dict[int, tuple[list, list[int]]] = {}  # vehicle id -> ((code, row) specs, stop times)
    vehicle_by_id = {v.id: v for v in instance.fleet}

    for row in _request_rows(sorted(instance.requests, key=lambda r: (r.t_r, r.id)), instance.travel):
        best = None
        for vid, (specs, route) in sorted(route_by_vehicle.items()):
            vehicle = vehicle_by_id[vid]
            duration = route[-1] - route[0]
            for i in range(len(specs) + 1):
                for j in range(i + 1, len(specs) + 2):
                    trial = list(specs)
                    trial.insert(i, (0, row))
                    trial.insert(j, (1, row))
                    times = _stop_times(trial, table, capacity, vehicle.start_location, vehicle.t_st)
                    if times is None:
                        continue
                    cand = (times[-1] - times[0] - duration, vid, i, j)
                    if best is None or cand < best[0]:
                        best = (cand, trial, times)
        if best is not None:
            (_, vid, _, _), trial, times = best
        else:
            trial = [(0, row), (1, row)]
            unused = (v for v in instance.fleet if v.id not in route_by_vehicle)
            for v in sorted(unused, key=lambda v: (table[v.start_location][row[1]], v.id)):
                times = _stop_times(trial, table, capacity, v.start_location, v.t_st)
                if times is not None:
                    vid = v.id
                    break
            else:
                raise InfeasibleError(f"fleet exhausted: request {row[0]} fits no vehicle")
        route_by_vehicle[vid] = (trial, times)

    # a pickup (code 0) stops at its row's origin, a dropoff (code 1) at its destination
    routes = [
        (vehicle_by_id[vid], _route_plan((code, row[0], t, row[1 + code]) for (code, row), t in zip(specs, times)))
        for vid, (specs, times) in sorted(route_by_vehicle.items())
    ]
    return _solution_from_routes("ih", None, routes, instance)


def validate_darp_solution(instance: DarpInstance, solution: DarpSolution) -> list[str]:
    """Independent feasibility check of a DARP solution; returns violations.

    Every travel time comes from the range-checked ``TravelMatrix.duration``,
    not from the table the solvers read.  On a fixed fleet each route's
    vehicle must equal the fleet's record for its id; an auto fleet's
    vehicles are virtual, so only their routes are checked.
    """
    issues: list[str] = []
    travel = instance.travel
    fleet = None if isinstance(instance.fleet, AutoFleet) else {v.id: v for v in instance.fleet}
    seen_vehicles: set[int] = set()
    service: dict[int, dict[str, int]] = {}
    driven = 0

    for vehicle, plan in solution.routes:
        if vehicle.id in seen_vehicles:
            issues.append(f"vehicle {vehicle.id} appears in more than one route")
        seen_vehicles.add(vehicle.id)
        if fleet is not None and vehicle.id not in fleet:
            issues.append(f"vehicle {vehicle.id} is not part of the fleet")
        elif fleet is not None and fleet[vehicle.id] != vehicle:
            issues.append(f"vehicle {vehicle.id}: start {vehicle.start_location} at {vehicle.t_st} is not the fleet's")
        if not plan.stops:
            issues.append(f"vehicle {vehicle.id}: empty route")
            continue
        first = plan.stops[0]
        approach = travel.duration(vehicle.start_location, first.location)
        driven += approach
        if first.time < vehicle.t_st + approach:
            issues.append(f"vehicle {vehicle.id}: cannot reach its first stop in time")
        onboard = 0
        picked: set[int] = set()
        for k, stop in enumerate(plan.stops):
            if k > 0:
                prev = plan.stops[k - 1]
                leg = travel.duration(prev.location, stop.location)
                driven += leg
                if stop.time - prev.time < leg:
                    issues.append(f"vehicle {vehicle.id}: stop {k} arrives faster than travel time allows")
            try:
                req = instance.request(stop.request_id)
            except InputError:
                issues.append(f"vehicle {vehicle.id}: unknown request {stop.request_id}")
                continue
            expected_loc = req.origin if stop.kind == PICKUP else req.destination
            if stop.location != expected_loc:
                issues.append(f"request {req.id}: {stop.kind} at wrong location {stop.location}")
            rec = service.setdefault(req.id, {})
            if stop.kind == PICKUP:
                if req.id in picked or "pickup" in rec:
                    issues.append(f"request {req.id}: picked up more than once")
                picked.add(req.id)
                onboard += 1
                if onboard > instance.capacity:
                    issues.append(f"vehicle {vehicle.id}: capacity exceeded at stop {k}")
                if not (req.t_r <= stop.time <= req.latest_pickup):
                    issues.append(f"request {req.id}: pickup at {stop.time} outside [{req.t_r}, {req.latest_pickup}]")
                rec["pickup"] = stop.time
            else:
                if req.id not in picked:
                    issues.append(f"request {req.id}: dropped off before pickup")
                else:
                    picked.discard(req.id)
                    onboard -= 1
                latest = req.latest_pickup + travel.duration(req.origin, req.destination)
                if stop.time > latest:
                    issues.append(f"request {req.id}: arrival at {stop.time} after {latest}")
                rec["dropoff"] = stop.time
        if picked:
            issues.append(f"vehicle {vehicle.id}: requests {sorted(picked)} never dropped off")

    for req in instance.requests:
        rec = service.get(req.id)
        if rec is None or "pickup" not in rec or "dropoff" not in rec:
            issues.append(f"request {req.id} is not fully served")
    if driven != solution.objective:
        issues.append(f"objective {solution.objective} != recomputed driving cost {driven}")
    return issues


def evaluate_metrics(solution: DarpSolution, instance: DarpInstance) -> Metrics:
    """Cost, fleet usage, occupancy histogram, and per-request delays.

    Occupancy integrates the onboard count over each vehicle's active span
    (from leaving its start location to its last stop); the approach and
    any empty cruising count at occupancy zero.
    """
    issues = validate_darp_solution(instance, solution)
    if issues:
        raise InfeasibleError("metrics refused for an infeasible solution: " + "; ".join(issues[:3]))
    occupancy: dict[int, int] = {}
    used = 0
    for vehicle, plan in solution.routes:
        if not plan.stops:
            continue
        used += 1
        start = plan.first_time - instance.travel.duration(vehicle.start_location, plan.stops[0].location)
        t_prev = start
        onboard = 0
        for stop in plan.stops:
            span = stop.time - t_prev
            if span > 0:
                occupancy[onboard] = occupancy.get(onboard, 0) + span
            onboard += 1 if stop.kind == PICKUP else -1
            t_prev = stop.time
    delays: dict[int, int] = {}
    for _, delay in solution.request_delays:
        delays[delay] = delays.get(delay, 0) + 1
    return Metrics(
        total_cost=solution.objective,
        used_vehicles=used,
        occupancy=tuple(sorted(occupancy.items())),
        delays=tuple(sorted(delays.items())),
    )
