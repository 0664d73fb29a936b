import random
from fractions import Fraction

import pytest

from planchain import model
from planchain.errors import InputError
from planchain.model import (
    ChainingInstance,
    FleetSize,
    Plan,
    TravelCost,
    TravelCostWaitCapped,
    TravelCostWaitPenalized,
    TravelMatrix,
    VariantRef,
    Vehicle,
)

from conftest import E1_P1, E1_P2, E1_V1, make_e1


def test_travel_matrix_rejects_bad_entries():
    with pytest.raises(InputError):
        TravelMatrix([[0, -1], [1, 0]])
    with pytest.raises(InputError):
        TravelMatrix([[1, 2], [2, 0]])
    with pytest.raises(InputError):
        TravelMatrix([[0, 1, 2], [1, 0, 3]])


def test_travel_matrix_from_coordinates_is_manhattan():
    m = TravelMatrix.from_coordinates([(0, 0), (2, 0), (4, 0)])
    assert m.array.tolist() == [[0, 2, 4], [2, 0, 2], [4, 2, 0]]
    assert TravelMatrix.from_coordinates([(0, 0), (1, 2)], ticks_per_unit=3).duration(0, 1) == 9


def test_travel_matrix_table_is_lazy_read_only_and_apart_from_rows():
    m = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    rows = m.array.tolist()
    rows[0][1] = 99
    assert m._table is None and m.duration(0, 1) == 2  # building or reading a matrix leaves the table unbuilt
    assert m.table == ((0, 2, 4), (2, 0, 2), (4, 2, 0))
    assert m.table is m.table  # cached
    assert all(type(d) is int for row in m.table for d in row)
    with pytest.raises(TypeError):
        m.table[0][1] = 99
    with pytest.raises(ValueError):
        m.array[0, 1] = 99
    assert m.table[0][1] == m.duration(0, 1) == 2


def test_travel_matrix_knows_whether_it_is_metric():
    # a metric matrix shares its closure with its table
    grid = TravelMatrix.from_coordinates([(0, 0), (3, 1), (1, 4)])
    assert grid._metric and grid.closure is grid.table  # known without the pass
    line = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    one = TravelMatrix([[0]])
    assert not line._metric and line.closure is line.table and one.closure is one.table
    for via in range(3):
        # a -> via -> c takes 2 ticks, a -> c directly takes 5
        a, c = (k for k in range(3) if k != via)
        rows = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
        rows[a][c] = 5
        shortcut = TravelMatrix(rows)
        assert shortcut.closure is not shortcut.table and shortcut.closure[a][c] == 2
    asymmetric = TravelMatrix([[0, 1], [0, 0]])
    assert asymmetric.closure is asymmetric.table  # asymmetric, still metric


def test_closure_is_the_shortest_path_matrix():
    import networkx as nx
    import numpy as np

    def floyd_warshall(rows):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(rows)))  # zero entries are legs too, so add every edge by hand
        graph.add_weighted_edges_from((a, b, d) for a, row in enumerate(rows) for b, d in enumerate(row) if a != b)
        return nx.floyd_warshall_numpy(graph, nodelist=range(len(rows)))

    rng = random.Random(12)
    kinds = {True: 0, False: 0}
    for case in range(120):
        size = rng.randint(3, 7)
        rows = [[0 if a == b else rng.choice((0, 1, 3, 8, 20, 20)) for b in range(size)] for a in range(size)]
        if case % 2:  # a shortest-path matrix is metric, and asymmetric here too
            rows = floyd_warshall(rows).astype(np.int64).tolist()
        travel = TravelMatrix(rows)
        closure = travel.closure
        assert np.array_equal(np.array(closure, dtype=np.int64).reshape(size, size), floyd_warshall(rows)), rows
        assert all(closure[a][b] <= rows[a][b] for a in range(size) for b in range(size))
        assert all(type(d) is int for row in closure for d in row)
        assert travel.closure is closure  # cached
        with pytest.raises(TypeError):
            closure[0][0] = 1
        metric = list(map(list, closure)) == rows
        assert (closure is travel.table) == metric
        kinds[metric] += 1
    assert min(kinds.values()) > 40, kinds
    grid = TravelMatrix.from_coordinates([(0, 0), (3, 1), (1, 4)])
    assert grid.closure is grid.table  # Manhattan distances need no pass


def test_tick_limit_bounds_every_model_integer():
    limit = model.TICK_LIMIT
    TravelMatrix([[0, limit - 1], [1, 0]])
    with pytest.raises(InputError):
        TravelMatrix([[0, limit], [1, 0]])
    with pytest.raises(InputError):
        TravelMatrix.from_coordinates([(0, 0), (2**59, 2**59)])
    Plan(id=-(limit - 1), origin_location=0, destination_location=0, t_or=0, t_de=limit - 1, d_max=limit - 1)
    plan = dict(id=1, origin_location=0, destination_location=0, t_or=0, t_de=0, d_max=0)
    for bad in (dict(id=limit), dict(id=-limit), dict(t_de=limit), dict(t_or=limit, t_de=limit), dict(d_max=limit)):
        with pytest.raises(InputError):
            Plan(**{**plan, **bad})
    Vehicle(id=limit - 1, start_location=0, t_st=limit - 1)
    for bad in (dict(id=limit), dict(id=-limit), dict(t_st=limit)):
        with pytest.raises(InputError):
            Vehicle(**{**dict(id=1, start_location=0, t_st=0), **bad})
    TravelCostWaitCapped(limit - 1)
    for delta, message in ((limit, "below 2\\^60"), (10**5000, "below 2\\^60"), (-1, "non-negative")):
        with pytest.raises(InputError, match=f"^wait cap must be {message}$"):
            TravelCostWaitCapped(delta)


def test_plan_invariants():
    with pytest.raises(InputError):
        Plan(id=1, origin_location=0, destination_location=0, t_or=5, t_de=4, d_max=0)
    with pytest.raises(InputError):
        Plan(id=1, origin_location=0, destination_location=0, t_or=0, t_de=4, d_max=-1)
    with pytest.raises(InputError):
        VariantRef(1, -2)


def test_instance_validation():
    travel = TravelMatrix([[0]])
    p = Plan(id=1, origin_location=0, destination_location=0, t_or=0, t_de=1, d_max=0)
    with pytest.raises(InputError):
        ChainingInstance((p, p), (), travel, TravelCost())
    bad = Plan(id=2, origin_location=1, destination_location=0, t_or=0, t_de=1, d_max=0)
    with pytest.raises(InputError):
        ChainingInstance((bad,), (), travel, TravelCost())
    with pytest.raises(InputError):
        ChainingInstance((), (Vehicle(1, 0, 0), Vehicle(1, 0, 0)), travel, TravelCost())


def test_travel_time_lookups(e1):
    assert model.travel_time(e1, E1_P1, E1_P2) == 2
    assert model.travel_time(e1, E1_V1, E1_P1) == 0
    assert model.travel_time(e1, E1_P1, VariantRef(2, 1)) == 2  # delay never moves locations
    with pytest.raises(InputError):
        model.travel_time(e1, Vehicle(99, 0, 0), E1_P1)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (E1_P1, Plan(9, 0, 0, 0, 0, 0), "unknown plan id 9"),
        (VariantRef(9, 0), E1_P2, "unknown plan id 9"),
        (Vehicle(99, 0, 0), E1_P1, "unknown vehicle id 99"),
        (E1_P1, VariantRef(2, 4), r"plan 2: delay 4 outside \[0, 3\]"),
        (VariantRef(1, 1), E1_P2, r"plan 1: delay 1 outside \[0, 0\]"),
        (VariantRef(2, 1), E1_P2, "cannot connect plan 2 to one of its own variants"),
        (E1_P2, VariantRef(2, 0), "cannot connect plan 2 to one of its own variants"),
    ],
)
def test_every_link_predicate_rejects_the_same_bad_ends(e1, a, b, message):
    # every scalar predicate resolves its ends the same way
    calls = [model.travel_time, model.connection_feasible, model.connection_wait, model.connection_cost]
    if isinstance(b, Plan):  # it takes a base plan only
        calls.append(model.minimal_target_delay)
    for call in calls:
        with pytest.raises(InputError, match=message):
            call(e1, a, b)


def test_connection_feasibility_examples(e1):
    assert model.connection_feasible(e1, E1_P1, VariantRef(2, 0)) is False  # 2 <= 11-10 fails
    assert model.connection_feasible(e1, E1_P1, VariantRef(2, 1)) is True
    assert model.connection_feasible(e1, E1_V1, VariantRef(1, 0)) is True
    with pytest.raises(InputError):
        model.connection_feasible(e1, E1_P1, VariantRef(1, 0))


def test_feasibility_monotone_in_target_delay():
    rng = random.Random(7)
    for _ in range(200):
        t = rng.randrange(0, 30)
        plan_a = Plan(1, 0, rng.randrange(3), rng.randrange(0, 20), rng.randrange(20, 40), rng.randrange(0, 8))
        plan_b = Plan(2, rng.randrange(3), 0, t, t + rng.randrange(0, 10), 8)
        inst = ChainingInstance(
            (plan_a, plan_b), (), TravelMatrix([[0, 1, 5], [2, 0, 1], [4, 2, 0]]), TravelCost()
        )
        feasible = [model.connection_feasible(inst, VariantRef(1, 0), VariantRef(2, d)) for d in range(9)]
        first = next((i for i, ok in enumerate(feasible) if ok), None)
        if first is not None:
            assert all(feasible[first:])


def test_connection_costs(e1):
    fleet = e1.with_policy(FleetSize())
    assert model.connection_cost(fleet, E1_V1, VariantRef(1, 0)) == 1
    assert model.connection_cost(fleet, E1_P1, VariantRef(2, 1)) == 0
    assert model.connection_cost(e1.with_policy(TravelCost()), E1_P1, VariantRef(2, 1)) == 2
    # wait of (p1 -> p2@1) is 12 - 10 - 2 = 0
    assert model.connection_wait(e1, E1_P1, VariantRef(2, 1)) == 0
    assert model.connection_wait(e1, E1_V1, VariantRef(1, 0)) == 5
    with pytest.raises(InputError):
        model.connection_cost(e1, E1_P1, VariantRef(2, 0))


@pytest.mark.parametrize("policy", [None, "cost", object(), Fraction(1, 2)])
def test_instance_rejects_what_is_not_a_cost_policy(e1, policy):
    # both generators and connection_cost can then trust the policy's kind
    with pytest.raises(InputError, match="unknown cost policy"):
        ChainingInstance(e1.plans, e1.vehicles, e1.travel, policy)
    with pytest.raises(InputError, match="unknown cost policy"):
        e1.with_policy(policy)


def test_wait_cap_boundary():
    # wait 7 with cap 5 is forbidden; wait exactly at the cap is allowed
    travel = TravelMatrix([[0, 1], [1, 0]])
    a = Plan(1, 0, 0, 0, 2, 0)
    b = Plan(2, 1, 1, 10, 12, 0)
    inst = ChainingInstance((a, b), (), travel, TravelCostWaitCapped(5))
    assert model.connection_wait(inst, a, b) == 7
    assert model.connection_cost(inst, a, b) is None
    inst7 = inst.with_policy(TravelCostWaitCapped(7))
    assert model.connection_cost(inst7, a, b) == 1


def test_wait_penalty_rounds_half_up():
    travel = TravelMatrix([[0, 1], [1, 0]])
    a = Plan(1, 0, 0, 0, 2, 0)
    b = Plan(2, 1, 1, 10, 12, 0)  # wait 7
    inst = ChainingInstance((a, b), (), travel, TravelCostWaitPenalized(Fraction(1, 2)))
    assert model.connection_cost(inst, a, b) == 1 + 4  # 3.5 rounds up
    assert model.connection_cost(inst.with_policy(TravelCostWaitPenalized(Fraction(2))), a, b) == 1 + 14
    assert model.connection_cost(inst.with_policy(TravelCostWaitPenalized(Fraction(0))), a, b) == 1


def test_costs_are_nonnegative_ints_across_policies():
    rng = random.Random(13)
    policies = [FleetSize(), TravelCost(), TravelCostWaitCapped(4), TravelCostWaitPenalized(Fraction(2, 3))]
    travel = TravelMatrix([[0, 3, 1], [2, 0, 2], [5, 1, 0]])
    for _ in range(300):
        a = Plan(1, rng.randrange(3), rng.randrange(3), rng.randrange(10), rng.randrange(10, 20), rng.randrange(5))
        b = Plan(2, rng.randrange(3), rng.randrange(3), rng.randrange(30), rng.randrange(30, 40), rng.randrange(5))
        v = Vehicle(1, rng.randrange(3), rng.randrange(5))
        for policy in policies:
            inst = ChainingInstance((a, b), (v,), travel, policy)
            for origin in (VariantRef(1, rng.randrange(a.d_max + 1)), v):
                target = VariantRef(2, rng.randrange(b.d_max + 1))
                if model.connection_feasible(inst, origin, target):
                    c = model.connection_cost(inst, origin, target)
                    assert c is None or (isinstance(c, int) and c >= 0)
                    if isinstance(policy, FleetSize):
                        assert c == (1 if isinstance(origin, Vehicle) else 0)


def test_travel_time_ignores_delays_single_connection_form():
    # chains differing only in variant delays see identical travel times
    inst = make_e1()
    base = model.travel_time(inst, VariantRef(1, 0), VariantRef(2, 0))
    for d in range(4):
        assert model.travel_time(inst, VariantRef(1, 0), VariantRef(2, d)) == base


def test_degenerate_tie_break_orders_by_origin_time_then_id():
    # two plans meeting at the same place and instant with zero travel
    travel = TravelMatrix([[0]])
    a = Plan(1, 0, 0, 0, 5, 0)
    b = Plan(2, 0, 0, 5, 9, 0)
    inst = ChainingInstance((a, b), (), travel, TravelCost())
    assert model.connection_feasible(inst, a, b) is True  # (0,1) < (5,2)
    c = Plan(3, 0, 0, 5, 5, 0)
    d = Plan(4, 0, 0, 5, 9, 0)
    inst2 = ChainingInstance((c, d), (), travel, TravelCost())
    assert model.connection_feasible(inst2, c, d) is True  # ids break the time tie
    assert model.connection_feasible(inst2, d, c) is False  # reverse is now blocked
    # the blocked pairing becomes feasible again one tick later
    e = Plan(5, 0, 0, 5, 9, 1)
    inst3 = ChainingInstance((c, e), (), travel, TravelCost())
    assert model.connection_feasible(inst3, VariantRef(5, 0), VariantRef(3, 0)) is False
    assert model.minimal_target_delay(inst3, VariantRef(5, 0), c) is None  # c has no budget


def test_minimal_target_delay_examples(e1):
    assert model.minimal_target_delay(e1, VariantRef(1, 0), E1_P2) == 1
    assert model.minimal_target_delay(e1, E1_V1, E1_P1) == 0
    assert model.minimal_target_delay(e1, VariantRef(2, 0), E1_P1) is None
