import gc
import random
import time
from dataclasses import replace
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planchain import darp
from planchain.darp import (
    AUTO_FLEET,
    DarpInstance,
    Request,
    RoutePlan,
    Stop,
    evaluate_metrics,
    insertion_heuristic,
    optimal_plan_for_group,
    plans_to_chaining,
    run_proposed,
    run_single_batch,
    solve_batch_exact,
    validate_darp_solution,
)
from planchain.errors import GuardExceededError, InfeasibleError, InputError
from planchain.instances import DarpGenParams, darp_instance_from_params
from planchain.model import TICK_LIMIT, TravelMatrix, Vehicle

from scalar_twins import group_search_reference, insertion_reference, next_stops_reference, schedule_stops

LINE = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])


def test_single_request_plan():
    r = Request(1, 0, 2, 0, 5)
    plan = optimal_plan_for_group([r], LINE, 4)
    assert [(s.kind, s.time) for s in plan.stops] == [("pickup", 0), ("dropoff", 4)]
    assert plan.total_duration == 4


def test_two_identical_requests_share():
    rs = [Request(1, 0, 2, 0, 5), Request(2, 0, 2, 0, 5)]
    plan = optimal_plan_for_group(rs, LINE, 4)
    assert plan.total_duration == 4
    assert sorted(plan.request_ids()) == [1, 2]


def test_two_opposed_zero_delay_requests_infeasible():
    rs = [Request(1, 0, 2, 0, 0), Request(2, 2, 0, 0, 0)]
    assert optimal_plan_for_group(rs, LINE, 4) is None


def test_request_ticks_stay_below_the_limit():
    Request(TICK_LIMIT - 1, 0, 2, TICK_LIMIT - 1, TICK_LIMIT - 1)
    for bad in ((TICK_LIMIT, 0, 2, 0, 5), (-TICK_LIMIT, 0, 2, 0, 5), (1, 0, 2, TICK_LIMIT, 5), (1, 0, 2, 0, TICK_LIMIT)):
        with pytest.raises(InputError):
            Request(*bad)


def test_group_capacity_guard():
    rs = [Request(i, 0, 2, 0, 5) for i in range(1, 4)]
    with pytest.raises(GuardExceededError):
        optimal_plan_for_group(rs, LINE, 2)


@pytest.mark.parametrize("pair", [(-1, 2), (0, -1), (3, 2), (0, 3)])
def test_group_and_batch_searches_range_check_request_locations(pair):
    # the searches index a plain table, where -1 would silently wrap
    bad = Request(2, *pair, 0, 5)
    group = [Request(1, 0, 2, 0, 5), bad]
    with pytest.raises(InputError):
        optimal_plan_for_group(group, LINE, 4)
    with pytest.raises(InputError):
        optimal_plan_for_group([bad], LINE, 4)
    with pytest.raises(InputError):
        solve_batch_exact(group, LINE, 4)


def _brute_force_group_plan(group, travel, capacity):
    """Best (duration, driving, stop sequence) over every precedence-respecting order.

    Each order is timed by the test-side ``schedule_stops``, starting at
    the first pickup's origin at tick 0, so the first stop has no approach.
    """
    by_id = {r.id: r for r in group}
    best = None
    for order in permutations([(code, r.id) for r in group for code in (0, 1)]):
        if any(order.index((0, rid)) > order.index((1, rid)) for rid in by_id):
            continue
        specs = [(by_id[rid], "pickup" if code == 0 else "dropoff") for code, rid in order]
        times = schedule_stops(specs, travel, capacity, specs[0][0].origin, 0)
        if times is None:
            continue
        stops = [Stop(r.id, kind, r.origin if kind == "pickup" else r.destination, t) for (r, kind), t in zip(specs, times)]
        driving = sum(travel.duration(a.location, b.location) for a, b in zip(stops, stops[1:]))
        key = (stops[-1].time - stops[0].time, driving, order)
        if best is None or key < best[0]:
            best = (key, RoutePlan(tuple(stops)))
    return None if best is None else best[1]


def test_group_search_matches_brute_force_over_stop_orders():
    rng = random.Random(8)
    kinds = {True: 0, False: 0}
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        size = rng.randint(2, 5)
        if rng.random() < 0.5:
            travel = TravelMatrix.from_coordinates([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(size)])
        else:
            travel = TravelMatrix([[0 if a == b else rng.choice((0, 1, 2, 5)) for b in range(size)] for a in range(size)])
        kinds[travel.closure is travel.table] += 1
        group = [
            Request(rid, rng.randrange(size), rng.randrange(size), rng.randint(0, 8), rng.randint(0, 3))
            for rid in rng.sample(range(10), rng.randint(1, 3))
        ]
        capacity = rng.randint(len(group), 4)
        expected = _brute_force_group_plan(group, travel, capacity)
        outcomes[expected is None] += 1
        assert optimal_plan_for_group(group, travel, capacity) == expected, (travel.array.tolist(), group)
    assert min(kinds.values()) > 50 and min(outcomes.values()) > 50, (kinds, outcomes)


def test_group_search_bounds_with_the_closure_on_a_non_metric_matrix():
    # 0 -> 2 directly takes 10 ticks, the detour 0 -> 1 -> 2 only 2.  The
    # only feasible plan picks 1 up at 0, drops it at 1 and reaches 2 at
    # tick 2, just in time for 2's pickup; a bound read from the direct
    # legs would give that pickup tick 10 and cut the plan away
    travel = TravelMatrix([[0, 1, 10], [1, 0, 1], [1, 1, 0]])
    assert travel.closure is not travel.table and travel.closure[0][2] == 2
    group = [Request(1, 0, 1, 0, 0), Request(2, 2, 0, 0, 2)]
    plan = optimal_plan_for_group(group, travel, 2)
    assert plan == _brute_force_group_plan(group, travel, 2)
    assert [(s.request_id, s.kind, s.time) for s in plan.stops] == [
        (1, "pickup", 0),
        (1, "dropoff", 1),
        (2, "pickup", 2),
        (2, "dropoff", 3),
    ]


def test_batch_search_matches_the_group_search_reference():
    # every group of at most the capacity gets the reference search's
    # (duration, driving, stops), or is missing exactly when that is None
    rng = random.Random(18)
    kinds = {True: 0, False: 0}
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        size = rng.randint(2, 6)
        if rng.random() < 0.5:
            travel = TravelMatrix.from_coordinates([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(size)])
        else:
            travel = TravelMatrix([[0 if a == b else rng.choice((0, 1, 2, 5)) for b in range(size)] for a in range(size)])
        kinds[travel.closure is travel.table] += 1
        reqs = [
            Request(rid, rng.randrange(size), rng.randrange(size), rng.randint(0, 10), rng.randint(0, 8))
            for rid in sorted(rng.sample(range(20), rng.randint(1, 8)))
        ]
        capacity = rng.randint(1, 6)
        rows = darp._request_rows(reqs, travel)
        groups, finished = darp._search_batch(rows, travel, capacity, None)
        assert finished
        assert all(mask.bit_count() <= capacity for mask in groups)
        for mask in range(1, 1 << len(rows)):
            if mask.bit_count() <= capacity:
                expected = group_search_reference([row for k, row in enumerate(rows) if mask >> k & 1], travel)
                assert groups.get(mask) == expected, (travel.array.tolist(), reqs, capacity, mask)
                outcomes[expected is None] += 1
    assert min(kinds.values()) > 50 and min(outcomes.values()) > 1000, (kinds, outcomes)


def _random_batches(rng, count):
    """The (travel, requests, capacity) batches that ``test_batch_search_matches_the_group_search_reference`` draws."""
    for _ in range(count):
        size = rng.randint(2, 6)
        if rng.random() < 0.5:
            travel = TravelMatrix.from_coordinates([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(size)])
        else:
            travel = TravelMatrix([[0 if a == b else rng.choice((0, 1, 2, 5)) for b in range(size)] for a in range(size)])
        reqs = [
            Request(rid, rng.randrange(size), rng.randrange(size), rng.randint(0, 10), rng.randint(0, 8))
            for rid in sorted(rng.sample(range(20), rng.randint(1, 8)))
        ]
        yield travel, reqs, rng.randint(1, 6)


def test_step_table_matches_the_row_by_row_steps():
    # every (onboard, opened) step list the search can ask for holds the
    # reference's steps, latest tick first, so that a label may stop at the
    # first step whose latest tick it has passed
    kinds = {True: 0, False: 0}
    compared = 0
    for travel, reqs, capacity in _random_batches(random.Random(18), 200):
        kinds[travel.closure is travel.table] += 1
        rows = darp._request_rows(reqs, travel)
        table = darp._step_table(rows, travel)
        for onboard in range(1 << len(rows)):
            if onboard.bit_count() <= capacity:
                for opened in (False, True):
                    steps = darp._mask_steps(table, onboard, opened)
                    assert sorted(steps) == sorted(next_stops_reference(rows, travel, onboard, opened))
                    assert steps == sorted(steps, key=lambda step: -step[3])
                    compared += len(steps)
    assert min(kinds.values()) > 50 and compared > 10000, (kinds, compared)


def test_batch_search_leaves_no_garbage_cycles(monkeypatch):
    # the batch search frees its labels by reference counting alone, also
    # when a deadline interrupts it; a fake clock advances 2**-19 s per
    # read, and the limit is put at half the reads of a run whose limit
    # never passes
    inst = darp_instance_from_params(DarpGenParams(seed=3, requests=7, horizon=15, capacity=4))
    travel = TravelMatrix([[0, 2, 3], [2, 0, 2], [3, 2, 0]])
    rs = [Request(i, 2, i % 2, 0, 30) for i in range(6)]
    clock = SimpleNamespace(reads=0)

    def monotonic():
        clock.reads += 1
        return clock.reads * 2.0**-19

    monkeypatch.setattr(darp, "time", SimpleNamespace(monotonic=monotonic))
    assert solve_batch_exact(rs, travel, 6, time_limit_ms=10**9).proven_optimal
    reads = clock.reads
    assert reads > 100
    gc.collect()
    gc.disable()
    try:
        result = solve_batch_exact(list(inst.requests), inst.travel, 4)
        assert result.proven_optimal and len(result.plans) < 7
        clock.reads = 0
        assert not solve_batch_exact(rs, travel, 6, time_limit_ms=reads // 2 * 2.0**-19 * 1000).proven_optimal
        assert clock.reads < reads
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_group_search_ignores_changes_to_copies_of_the_rows():
    travel = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    req = Request(1, 0, 2, 0, 5)
    travel.array.tolist()[0][2] = 0  # before the search builds the table
    plan = optimal_plan_for_group([req], travel, 4)
    assert [(s.kind, s.time) for s in plan.stops] == [("pickup", 0), ("dropoff", 4)]
    for row in travel.array.tolist():  # after
        row[:] = [0] * len(row)
    assert optimal_plan_for_group([req], travel, 4) == plan
    assert solve_batch_exact([req], travel, 4).plans == (plan,)


def test_batch_exact_builds_route_plans_only_for_the_chosen_groups(monkeypatch):
    built = []

    def counted(stops):
        built.append(RoutePlan(stops))
        return built[-1]

    monkeypatch.setattr(darp, "RoutePlan", counted)
    inst = darp_instance_from_params(DarpGenParams(seed=3, requests=7, horizon=15, capacity=4))
    result = solve_batch_exact(list(inst.requests), inst.travel, 4)
    assert 1 < len(result.plans) < 7
    assert sorted(map(id, built)) == sorted(map(id, result.plans))


def test_batch_exact_prefers_sharing():
    rs = [Request(1, 0, 2, 0, 5), Request(2, 0, 2, 0, 5)]
    result = solve_batch_exact(rs, LINE, 4)
    assert result.proven_optimal
    assert len(result.plans) == 1
    assert result.plans[0].total_duration == 4


def test_batch_exact_opposed_requests_stay_separate():
    rs = [Request(1, 0, 2, 0, 0), Request(2, 2, 0, 0, 0)]
    result = solve_batch_exact(rs, LINE, 4)
    assert len(result.plans) == 2


def test_batch_exact_empty_and_guard():
    assert solve_batch_exact([], LINE, 4).plans == ()
    rs = [Request(i, 0, 2, i, 5) for i in range(1, 15)]
    with pytest.raises(GuardExceededError):
        solve_batch_exact(rs, LINE, 4)


def test_batch_and_group_searches_refuse_a_capacity_below_one():
    rs = [Request(1, 0, 2, 0, 5), Request(2, 0, 2, 0, 5)]
    for capacity in (0, -1):
        with pytest.raises(InputError, match="^vehicle capacity must be at least 1$"):
            solve_batch_exact(rs, LINE, capacity)
        with pytest.raises(InputError, match="^vehicle capacity must be at least 1$"):
            optimal_plan_for_group(rs[:1], LINE, capacity)


def test_batch_and_group_searches_refuse_repeated_ids_and_empty_groups():
    r = Request(1, 0, 2, 0, 5)
    with pytest.raises(InputError, match="^duplicate request id 1$"):
        solve_batch_exact([r, r], LINE, 4)
    with pytest.raises(InputError, match="^duplicate request id 1$"):
        optimal_plan_for_group([r, replace(r, t_r=1)], LINE, 4)
    with pytest.raises(InputError, match="^a group needs at least one request$"):
        optimal_plan_for_group([], LINE, 4)
    # a location outside the matrix, in the message a DarpInstance gives
    far = [Request(2, 0, 1, 0, 5), Request(1, 0, 3, 0, 5)]
    with pytest.raises(InputError, match="^request 1: location 3 outside travel matrix$"):
        solve_batch_exact(far, LINE, 4)
    with pytest.raises(InputError, match="^request 1: location -1 outside travel matrix$"):
        optimal_plan_for_group([Request(1, -1, 2, 0, 5)], LINE, 4)


def test_batch_time_limit_covers_group_enumeration():
    # 924 six-request groups with many stop orders each: the limit must
    # stop the group search, not only the partition search after it
    travel = TravelMatrix([[0, 2, 3], [2, 0, 2], [3, 2, 0]])
    rs = [Request(i, i % 2, 2, 0, 30) for i in range(12)]
    started = time.monotonic()
    result = solve_batch_exact(rs, travel, 6, time_limit_ms=200)
    assert time.monotonic() - started < 2.0
    assert result.proven_optimal is False
    served = sorted(rid for plan in result.plans for rid in plan.request_ids())
    assert served == list(range(12))


def test_batch_time_limit_interrupts_the_batch_search(monkeypatch):
    # a fake clock advances 2**-19 s per read on any host; the limit is put
    # at half the reads of a run whose limit never passes
    clock = SimpleNamespace(reads=0, late=0, deadline=None)

    def monotonic():
        now = clock.reads * 2.0**-19
        clock.reads += 1
        clock.late += now > clock.deadline
        return now

    monkeypatch.setattr(darp, "time", SimpleNamespace(monotonic=monotonic))
    travel = TravelMatrix([[0, 2, 3], [2, 0, 2], [3, 2, 0]])
    rs = [Request(i, 2, i % 2, 0, 30) for i in range(6)]

    def run(time_limit_ms):
        clock.reads, clock.late, clock.deadline = 0, 0, time_limit_ms / 1000.0
        return solve_batch_exact(rs, travel, 6, time_limit_ms=time_limit_ms)

    assert run(10**9).proven_optimal
    reads = clock.reads
    assert reads > 100
    result = run(reads // 2 * 2.0**-19 * 1000)
    # the search stops at its first read past the deadline
    assert clock.late == 1 and clock.reads < reads
    assert result.proven_optimal is False
    served = sorted(rid for plan in result.plans for rid in plan.request_ids())
    assert served == list(range(6))
    # the groups kept before the limit still beat six singletons (total 15)
    assert sum(plan.total_duration for plan in result.plans) < 15


def test_batch_without_a_group_search_is_proven_under_a_zero_limit():
    assert solve_batch_exact([Request(1, 0, 2, 0, 5)], LINE, 4, time_limit_ms=0).proven_optimal
    pair = [Request(1, 0, 2, 0, 5), Request(2, 0, 2, 0, 5)]
    assert solve_batch_exact(pair, LINE, 1, time_limit_ms=0).proven_optimal
    assert not solve_batch_exact(pair, LINE, 2, time_limit_ms=0).proven_optimal


def test_negative_time_limits_are_rejected():
    with pytest.raises(InputError, match="time limit must be non-negative, got -5 ms"):
        solve_batch_exact([Request(1, 0, 2, 0, 5)], LINE, 4, time_limit_ms=-5)
    empty = DarpInstance((), LINE, 4, AUTO_FLEET)
    with pytest.raises(InputError, match="time limit must be non-negative, got -1 ms"):
        run_proposed(empty, 10, time_limit_ms=-1)
    assert run_proposed(empty, 10, time_limit_ms=0).routes == ()


@pytest.mark.parametrize("limit", [2**63, 10**400])
def test_time_limits_of_2_63_ms_or_more_are_rejected(limit):
    # 10**400 ms used to reach the float deadline as an OverflowError
    with pytest.raises(InputError, match=r"^time limit must be below 2\^63 ms$"):
        solve_batch_exact([Request(1, 0, 2, 0, 5)], LINE, 4, time_limit_ms=limit)
    empty = DarpInstance((), LINE, 4, AUTO_FLEET)
    with pytest.raises(InputError, match=r"^time limit must be below 2\^63 ms$"):
        run_proposed(empty, 10, time_limit_ms=limit)
    assert solve_batch_exact([Request(1, 0, 2, 0, 5)], LINE, 4, time_limit_ms=2**63 - 1).proven_optimal


def _partition_key(plans):
    return (
        sum(plan.total_duration for plan in plans),
        len(plans),
        tuple(sorted(plan.request_ids() for plan in plans)),
    )


def test_batch_ties_prefer_fewer_groups_then_lexicographic_ids():
    a, b, c = Request(1, 0, 1, 0, 0), Request(2, 1, 2, 2, 0), Request(3, 2, 1, 4, 0)

    def duration(*group):
        return optimal_plan_for_group(group, LINE, 2).total_duration

    # a then b in one plan takes as long as both alone
    assert duration(a, b) == duration(a) + duration(b)
    assert [p.request_ids() for p in solve_batch_exact([a, b], LINE, 2).plans] == [(1, 2)]
    # {a, b} + {c} ties {a} + {b, c} on duration and group count
    assert duration(a, b) + duration(c) == duration(a) + duration(b, c) < duration(a, c) + duration(b)
    result = solve_batch_exact([c, b, a], LINE, 2)
    assert _partition_key(result.plans) == (6, 2, ((1,), (2, 3)))


def _built_groups(reqs, travel, capacity):
    """Every feasible group of at most ``capacity`` requests, with its plan."""
    built = {}
    for size in range(1, min(capacity, len(reqs)) + 1):
        for combo in combinations(reqs, size):
            plan = optimal_plan_for_group(combo, travel, capacity)
            if plan is not None:
                built[frozenset(r.id for r in combo)] = plan
    return built


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + partition
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1 :]


def test_batch_partition_matches_brute_force():
    rng = random.Random(4)
    ties = 0
    for seed in range(200):
        capacity = rng.randint(1, 5)
        params = DarpGenParams(seed=seed, requests=rng.randint(1, 7), horizon=rng.choice((5, 15, 30)), capacity=capacity)
        inst = darp_instance_from_params(params)
        built = _built_groups(inst.requests, inst.travel, capacity)
        keys = sorted(
            _partition_key([built[frozenset(block)] for block in partition])
            for partition in _set_partitions([r.id for r in inst.requests])
            if all(frozenset(block) in built for block in partition)
        )
        ties += len(keys) > 1 and keys[0][:2] == keys[1][:2]
        result = solve_batch_exact(list(inst.requests), inst.travel, capacity)
        assert result.proven_optimal
        assert _partition_key(result.plans) == keys[0], seed
        assert all(plan == built[frozenset(plan.request_ids())] for plan in result.plans)
    assert ties > 0


def test_batch_on_a_non_metric_matrix_builds_groups_with_infeasible_subsets():
    # 3 -> 0 -> 2 takes 0 + 0 ticks, but 3 -> 2 directly takes 1
    travel = TravelMatrix([[0, 3, 0, 3], [3, 0, 0, 0], [3, 3, 0, 0], [0, 1, 1, 0]])
    reqs = [Request(0, 0, 2, 4, 0), Request(1, 3, 0, 4, 3), Request(2, 2, 0, 1, 2), Request(3, 2, 1, 1, 1)]
    assert travel.closure is not travel.table
    assert optimal_plan_for_group(reqs[2:], travel, 4) is None
    result = solve_batch_exact(reqs, travel, 4)
    assert result.proven_optimal
    assert _partition_key(result.plans) == (3, 1, ((0, 1, 2, 3),))


def test_batch_partition_matches_brute_force_on_non_metric_matrices():
    rng = random.Random(11)
    detours = 0
    for seed in range(120):
        size = rng.randint(2, 4)
        rows = [[0 if a == b else rng.choice((0, 1, 3, 6)) for b in range(size)] for a in range(size)]
        travel = TravelMatrix(rows)
        detours += travel.closure is not travel.table
        capacity = rng.randint(1, 4)
        reqs = []
        for rid in range(rng.randint(1, 5)):
            origin, destination = rng.sample(range(size), 2)
            reqs.append(Request(rid, origin, destination, rng.randint(0, 6), rng.randint(0, 4)))
        built = _built_groups(reqs, travel, capacity)
        best = min(
            _partition_key([built[frozenset(block)] for block in partition])
            for partition in _set_partitions([r.id for r in reqs])
            if all(frozenset(block) in built for block in partition)
        )
        result = solve_batch_exact(reqs, travel, capacity)
        assert result.proven_optimal
        assert _partition_key(result.plans) == best, seed
    assert detours > 30


def test_insertion_heuristic_examples():
    fleet = (Vehicle(1, 0, 0), Vehicle(2, 0, 0))
    # one request, one vehicle at its origin: direct service, no delay
    inst = DarpInstance((Request(1, 0, 2, 0, 5),), LINE, 4, fleet)
    assert inst.request(1).t_r == 0
    with pytest.raises(InputError):
        inst.request(2)
    sol = insertion_heuristic(inst)
    assert len(sol.routes) == 1
    assert sol.request_delays == ((1, 0),)

    # a second identical request shares the first vehicle
    inst2 = DarpInstance((Request(1, 0, 2, 0, 5), Request(2, 0, 2, 0, 5)), LINE, 4, fleet)
    sol2 = insertion_heuristic(inst2)
    assert len(sol2.routes) == 1

    # an opposed zero-delay request opens the second vehicle
    inst3 = DarpInstance((Request(1, 0, 2, 0, 0), Request(2, 2, 0, 0, 0)), LINE, 4, (Vehicle(1, 0, 0), Vehicle(2, 2, 0)))
    sol3 = insertion_heuristic(inst3)
    assert len(sol3.routes) == 2

    with pytest.raises(InfeasibleError):
        insertion_heuristic(DarpInstance((Request(1, 0, 2, 0, 0), Request(2, 2, 0, 0, 0)), LINE, 4, (Vehicle(1, 0, 0),)))
    with pytest.raises(InputError):
        insertion_heuristic(DarpInstance((), LINE, 4, AUTO_FLEET))


def test_insertion_heuristic_matches_the_scalar_reference():
    # small random instances, grid or explicit (63 of 200 non-metric),
    # some with too few vehicles and some where the capacity binds; routes,
    # objective and the exhausted-fleet error must all be the reference's
    rng = random.Random(23)
    kinds = {True: 0, False: 0}
    outcomes = {"served": 0, "exhausted": 0}
    for _ in range(200):
        size = rng.randint(2, 5)
        if rng.random() < 0.5:
            travel = TravelMatrix.from_coordinates([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(size)])
        else:
            travel = TravelMatrix([[0 if a == b else rng.choice((0, 1, 2, 5)) for b in range(size)] for a in range(size)])
        kinds[travel.closure is travel.table] += 1
        requests = [
            Request(rid, rng.randrange(size), rng.randrange(size), rng.randint(0, 12), rng.randint(0, 6))
            for rid in rng.sample(range(1, 20), rng.randint(1, 7))
        ]
        fleet = [Vehicle(vid, rng.randrange(size), rng.randint(0, 3)) for vid in rng.sample(range(1, 9), rng.randint(1, 4))]
        inst = DarpInstance(tuple(requests), travel, rng.randint(1, 3), tuple(fleet))
        try:
            expected = insertion_reference(inst)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError) as err:
                insertion_heuristic(inst)
            assert str(err.value) == str(exc)
            outcomes["exhausted"] += 1
            continue
        solution = insertion_heuristic(inst)
        assert (solution.routes, solution.objective) == expected, (travel.array.tolist(), requests, fleet)
        assert validate_darp_solution(inst, solution) == []
        outcomes["served"] += 1
    assert min(kinds.values()) > 50 and min(outcomes.values()) > 30, (kinds, outcomes)


def test_plans_to_chaining_slacks():
    inst = DarpInstance((Request(1, 0, 2, 0, 5),), LINE, 4, AUTO_FLEET)
    plan = optimal_plan_for_group(list(inst.requests), LINE, 4)
    chain_plans, mapping = plans_to_chaining([plan], inst)
    assert chain_plans[0].t_or == 0 and chain_plans[0].t_de == 4
    assert chain_plans[0].d_max == 5  # uniform slack
    assert mapping[0] is plan


def test_plans_to_chaining_zero_slack_stop():
    inst = DarpInstance((Request(1, 0, 2, 0, 0),), LINE, 4, AUTO_FLEET)
    plan = optimal_plan_for_group(list(inst.requests), LINE, 4)
    chain_plans, _ = plans_to_chaining([plan], inst)
    assert chain_plans[0].d_max == 0


def test_shift_soundness_of_delay_budget():
    # shifting by d_max keeps every window satisfied; one more tick breaks one
    for seed in range(30):
        inst = darp_instance_from_params(DarpGenParams(seed=seed, requests=6, horizon=25))
        result = solve_batch_exact(list(inst.requests), inst.travel, inst.capacity)
        chain_plans, mapping = plans_to_chaining(result.plans, inst)
        for cp in chain_plans:
            shifted = mapping[cp.id].shifted(cp.d_max)
            for stop in shifted.stops:
                req = inst.request(stop.request_id)
                assert stop.time <= darp._latest_for_stop(stop, req, inst.travel)
            broken = mapping[cp.id].shifted(cp.d_max + 1)
            assert any(
                stop.time > darp._latest_for_stop(stop, inst.request(stop.request_id), inst.travel)
                for stop in broken.stops
            )


def test_run_proposed_chains_two_requests_onto_one_vehicle():
    # two requests far enough apart in time for one vehicle to serve both
    requests = (Request(1, 0, 1, 5, 0), Request(2, 2, 0, 20, 3))
    fleet = (Vehicle(1, 0, 0),)
    inst = DarpInstance(requests, LINE, 4, fleet)
    sol = run_proposed(inst, 10)
    assert validate_darp_solution(inst, sol) == []
    assert len(sol.routes) == 1
    plan_durations = 2 + 4
    connections = 0 + 2  # vehicle at plan 1 origin; 2 ticks from loc1 to loc2
    assert sol.objective == plan_durations + connections


def test_run_proposed_degenerate_batchings():
    for seed in range(10):
        inst = darp_instance_from_params(DarpGenParams(seed=seed, requests=6, fleet_size=6))
        span = max(r.t_r for r in inst.requests) - min(r.t_r for r in inst.requests) + 1
        single = run_proposed(inst, span)
        assert validate_darp_solution(inst, single) == []
        one_tick = run_proposed(inst, 1)
        assert validate_darp_solution(inst, one_tick) == []
        alias = run_single_batch(inst)
        assert alias.method == "single-batch"
        assert alias.objective == single.objective


def test_run_proposed_auto_fleet_and_delay_bounds():
    for seed in range(10):
        inst = darp_instance_from_params(DarpGenParams(seed=seed, requests=8))
        sol = run_proposed(inst, 10)
        assert validate_darp_solution(inst, sol) == []
        served = {rid for rid, _ in sol.request_delays}
        assert served == {r.id for r in inst.requests}
        for rid, delay in sol.request_delays:
            assert 0 <= delay <= inst.request(rid).max_delay


def test_run_proposed_reports_vehicle_shortfall():
    requests = (Request(1, 0, 2, 0, 0), Request(2, 2, 0, 0, 0))
    inst = DarpInstance(requests, LINE, 4, (Vehicle(1, 0, 0),))
    with pytest.raises(InfeasibleError) as err:
        run_proposed(inst, 5)
    assert "fleet" in str(err.value)


def test_metrics_single_request():
    inst = DarpInstance((Request(1, 0, 2, 0, 5),), LINE, 4, (Vehicle(1, 0, 0),))
    sol = insertion_heuristic(inst)
    metrics = evaluate_metrics(sol, inst)
    assert metrics.used_vehicles == 1
    assert metrics.total_cost == 4
    assert metrics.occupancy == ((1, 4),)
    assert metrics.delays == ((0, 1),)


def test_metrics_shared_plan_occupancy():
    inst = DarpInstance((Request(1, 0, 2, 0, 8), Request(2, 1, 2, 0, 8)), LINE, 4, (Vehicle(1, 0, 0),))
    sol = run_proposed(inst, 10)
    metrics = evaluate_metrics(sol, inst)
    assert any(level == 2 and ticks > 0 for level, ticks in metrics.occupancy)
    total_active = sum(t for _, t in metrics.occupancy)
    spans = sum(
        plan.last_time - (plan.first_time - inst.travel.duration(v.start_location, plan.stops[0].location))
        for v, plan in sol.routes
    )
    assert total_active == spans
    assert sum(c for _, c in metrics.delays) == len(inst.requests)


def test_metrics_empty_solution():
    inst = DarpInstance((), LINE, 4, AUTO_FLEET)
    sol = run_proposed(inst, 5)
    metrics = evaluate_metrics(sol, inst)
    assert metrics.total_cost == 0 and metrics.used_vehicles == 0
    assert metrics.occupancy == () and metrics.delays == ()


def test_metrics_reject_infeasible():
    inst = DarpInstance((Request(1, 0, 2, 0, 5),), LINE, 4, (Vehicle(1, 0, 0),))
    bad = darp.DarpSolution(
        method="ih",
        batch_len=None,
        routes=((Vehicle(1, 0, 0), RoutePlan((Stop(1, "pickup", 0, 0),))),),
        objective=0,
        request_delays=((1, 0),),
    )
    with pytest.raises(InfeasibleError):
        evaluate_metrics(bad, inst)


def test_validator_catches_capacity_and_window_violations():
    inst = DarpInstance((Request(1, 0, 2, 0, 1),), LINE, 4, (Vehicle(1, 0, 0),))
    late = darp.DarpSolution(
        method="ih",
        batch_len=None,
        routes=(
            (
                Vehicle(1, 0, 0),
                RoutePlan((Stop(1, "pickup", 0, 5), Stop(1, "dropoff", 2, 9))),
            ),
        ),
        objective=4,
        request_delays=((1, 5),),
    )
    issues = validate_darp_solution(inst, late)
    assert any("pickup" in i for i in issues)


def test_validator_compares_route_vehicles_with_the_fleet():
    # vehicle 1 waits at location 0; a route claiming it starts at 2 would
    # serve the zero-delay request 2 -> 0 at tick 0, which it cannot reach
    inst = DarpInstance((Request(1, 2, 0, 0, 0),), LINE, 4, (Vehicle(1, 0, 0),))
    plan = RoutePlan((Stop(1, "pickup", 2, 0), Stop(1, "dropoff", 0, 4)))
    moved = darp.DarpSolution("ih", None, ((Vehicle(1, 2, 0), plan),), 4, ((1, 0),))
    assert any("is not the fleet's" in issue for issue in validate_darp_solution(inst, moved))
    auto = DarpInstance(inst.requests, LINE, 4, AUTO_FLEET)
    assert validate_darp_solution(auto, moved) == []


def _solved_darp():
    """(instance, solution) pairs from run_proposed and insertion_heuristic on small explicit fleets."""
    solved = []
    for seed in range(6):
        inst = darp_instance_from_params(DarpGenParams(seed=seed, requests=6, fleet_size=6, horizon=20))
        solved += [(inst, run_proposed(inst, 10)), (inst, insertion_heuristic(inst))]
    return solved


SOLVED_DARP = _solved_darp()
MUTATED_FIELDS = ("request", "kind", "location", "early", "late", "vehicle", "objective")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), field=st.sampled_from(MUTATED_FIELDS))
def test_darp_validator_reports_every_single_field_mutation(data, field):
    # one field of a valid solution changes: a stop's request id (to an
    # unknown one), kind, location or time (before the previous stop plus
    # the leg, or past its window), a route's vehicle id (to a duplicate or
    # one outside the fleet), or the objective; the validator must never
    # raise, and it must report the change
    inst, solution = data.draw(st.sampled_from(SOLVED_DARP))
    travel, routes, objective = inst.travel, list(solution.routes), solution.objective
    ri = data.draw(st.integers(0, len(routes) - 1))
    vehicle, plan = routes[ri]
    stops = list(plan.stops)
    k = data.draw(st.integers(0, len(stops) - 1))
    stop, req = stops[k], inst.request(stops[k].request_id)
    step = data.draw(st.integers(1, 5) | st.just(2**70))
    if field == "request":
        ids = {r.id for r in inst.requests}
        value = data.draw(st.integers(-3, 12).filter(lambda v: v not in ids) | st.sampled_from((-(2**70), 2**70)))
        stops[k] = replace(stop, request_id=value)
        expected = "unknown request"
    elif field == "kind":
        stops[k] = replace(stop, kind="dropoff" if stop.kind == "pickup" else "pickup")
        expected = "dropped off before pickup" if stop.kind == "pickup" else "picked up more than once"
    elif field == "location":
        value = data.draw(st.sampled_from([loc for loc in range(travel.size) if loc != stop.location]))
        stops[k] = replace(stop, location=value)
        expected = "wrong location"
    elif field == "early":
        prev_loc, prev_time = (stops[k - 1].location, stops[k - 1].time) if k else (vehicle.start_location, vehicle.t_st)
        stops[k] = replace(stop, time=prev_time + travel.duration(prev_loc, stop.location) - step)
        expected = "arrives faster than travel time allows" if k else "cannot reach its first stop in time"
    elif field == "late":
        latest = req.latest_pickup + (0 if stop.kind == "pickup" else travel.duration(req.origin, req.destination))
        stops[k] = replace(stop, time=latest + step)
        expected = "pickup at" if stop.kind == "pickup" else "arrival at"
    elif field == "vehicle":
        others = [v.id for j, (v, _) in enumerate(routes) if j != ri]
        outside = [vid for vid in range(-3, 13) if vid not in {v.id for v in inst.fleet}]
        value = data.draw(st.sampled_from(others + outside))
        vehicle = replace(vehicle, id=value)
        expected = "appears in more than one route" if value in others else "is not part of the fleet"
    else:
        objective += data.draw(st.integers(-3, 3).filter(bool) | st.sampled_from((-(2**70), 2**70)))
        expected = "objective"
    routes[ri] = (vehicle, RoutePlan(tuple(stops)))
    issues = validate_darp_solution(inst, replace(solution, routes=tuple(routes), objective=objective))
    assert any(expected in issue for issue in issues), (field, expected, issues)


def test_time_limited_batches_stay_feasible():
    inst = darp_instance_from_params(DarpGenParams(seed=3, requests=10, fleet_size=10))
    limited = run_proposed(inst, 10, time_limit_ms=0)
    assert limited.method == "proposed-lim"
    assert validate_darp_solution(inst, limited) == []
    exact = run_proposed(inst, 10)
    assert exact.method == "proposed"
    assert exact.objective <= limited.objective


def test_run_proposed_serves_1000_requests_in_12_tick_batches():
    params = DarpGenParams(seed=12, requests=1000, locations=10, horizon=3300, capacity=4, fleet_size=1000)
    inst = darp_instance_from_params(params)
    solution = run_proposed(inst, 12)
    assert validate_darp_solution(inst, solution) == []
    assert (solution.method, solution.objective) == ("proposed", 5566)


def test_run_proposed_rejects_more_than_one_thread():
    inst = darp_instance_from_params(DarpGenParams(seed=0, requests=10, fleet_size=10))
    assert run_proposed(inst, 5, threads=1) == run_proposed(inst, 5)
    for threads in (0, 2):
        with pytest.raises(InputError, match="threads must be 1"):
            run_proposed(inst, 5, threads=threads)


def test_single_batch_dominance_micro():
    # with exact single-batch solving, the pipeline never loses to greedy insertion
    for seed in range(25):
        inst = darp_instance_from_params(
            DarpGenParams(seed=seed, requests=6, fleet_size=6, horizon=30)
        )
        proposed = run_single_batch(inst)
        baseline = insertion_heuristic(inst)
        assert validate_darp_solution(inst, proposed) == []
        assert validate_darp_solution(inst, baseline) == []
        assert proposed.objective <= baseline.objective, seed
