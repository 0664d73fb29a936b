import sys
from fractions import Fraction

import pytest

from planchain import oracle
from planchain.chainsolve import solve_chaining, validate_chains
from planchain.errors import GuardExceededError, InfeasibleError, InputError
from planchain.instances import ChainGenParams, chain_instance_from_params
from planchain.model import (
    ChainingInstance,
    FleetSize,
    Plan,
    TravelCost,
    TravelCostWaitCapped,
    TravelCostWaitPenalized,
    TravelMatrix,
    Vehicle,
)

from conftest import make_e1
from scalar_twins import full_variant_optimal


def solver_objective(inst):
    try:
        return solve_chaining(inst).objective
    except InfeasibleError:
        return None


def test_e1_brute_force():
    result = oracle.brute_force_optimal(make_e1())
    assert result.objective == 2
    assert result.covers_examined == 1
    assert result.witness == ((1, ((1, 0), (2, 1))),)
    assert validate_chains(make_e1(), result.witness).ok


def test_unreachable_plan_is_infeasible():
    travel = TravelMatrix([[0, 50], [50, 0]])
    inst = ChainingInstance(
        (Plan(1, 1, 1, 0, 1, 0),), (Vehicle(1, 0, 0),), travel, TravelCost()
    )
    result = oracle.brute_force_optimal(inst)
    assert result.objective is None and result.witness is None


def test_two_singleton_chains():
    travel = TravelMatrix([[0, 30], [30, 0]])
    plans = (Plan(1, 0, 0, 0, 5, 0), Plan(2, 1, 1, 0, 5, 0))
    vehicles = (Vehicle(1, 0, 0), Vehicle(2, 1, 0))
    inst = ChainingInstance(plans, vehicles, travel, TravelCost())
    result = oracle.brute_force_optimal(inst)
    assert result.objective == 0  # both vehicles co-located with their plan
    assert len(result.witness) == 2


def test_brute_force_guard():
    travel = TravelMatrix([[0]])
    plans = tuple(Plan(i, 0, 0, 0, 1, 0) for i in range(10))
    inst = ChainingInstance(plans, (), travel, TravelCost())
    with pytest.raises(GuardExceededError):
        oracle.brute_force_optimal(inst)


def test_empty_instance():
    inst = ChainingInstance((), (), TravelMatrix([[0]]), TravelCost())
    result = oracle.brute_force_optimal(inst)
    assert result.objective == 0 and result.witness == () and result.covers_examined == 1


def test_matching_examples():
    # shared predecessor: edges p1->p2 and p1->p3 only -> 2 vehicles
    travel = TravelMatrix([[0, 1, 1, 9, 9], [9, 0, 9, 9, 9], [9, 9, 0, 9, 9], [9, 9, 9, 0, 9], [9, 9, 9, 9, 0]])
    p1 = Plan(1, 0, 0, 0, 2, 0)
    p2 = Plan(2, 1, 3, 5, 6, 0)
    p3 = Plan(3, 2, 4, 5, 6, 0)
    inst = ChainingInstance((p1, p2, p3), (), travel, FleetSize())
    assert oracle.fleet_min_matching(inst) == 2
    # feasible line p1 -> p2 -> p3 -> 1 vehicle
    travel2 = TravelMatrix([[0, 1, 9], [9, 0, 1], [9, 9, 0]])
    q1 = Plan(1, 0, 0, 0, 1, 0)
    q2 = Plan(2, 1, 1, 4, 5, 0)
    q3 = Plan(3, 2, 2, 8, 9, 0)
    inst2 = ChainingInstance((q1, q2, q3), (), travel2, FleetSize())
    assert oracle.fleet_min_matching(inst2) == 1
    # no edges -> |P| vehicles
    travel3 = TravelMatrix([[0, 50], [50, 0]])
    r1 = Plan(1, 0, 0, 0, 1, 0)
    r2 = Plan(2, 1, 1, 0, 1, 0)
    inst3 = ChainingInstance((r1, r2), (), travel3, FleetSize())
    assert oracle.fleet_min_matching(inst3) == 2
    with pytest.raises(InputError):
        oracle.fleet_min_matching(make_e1())  # nonzero delay budget


def ladder_instance(n):
    """2n zero-delay plans on a line, whose matching needs an augmenting path through every plan.

    Left plan P_i (id i + 1, at point 2i + 1) reaches Q_i and Q_{i+1} (at
    points 2i and 2i + 2) and no other plan; Q_k has id 2n - k, so the
    searches try Q_{i+1} first and the last left plan's path runs back
    down the whole ladder.
    """
    travel = TravelMatrix.from_coordinates([(x,) for x in range(2 * n)])
    left = [Plan(i + 1, 2 * i + 1, 2 * i + 1, 0, 1, 0) for i in range(n)]
    right = [Plan(2 * n - k, 2 * k, 2 * k, 2, 2, 0) for k in range(n)]
    return ChainingInstance(tuple(left + right), (), travel, FleetSize())


def test_matching_finds_paths_deeper_than_the_recursion_limit():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert oracle.fleet_min_matching(ladder_instance(200)) == 200
    finally:
        sys.setrecursionlimit(limit)


def test_full_variant_on_e1_and_guard():
    assert full_variant_optimal(make_e1()) == 2
    travel = TravelMatrix([[0]])
    inst = ChainingInstance((Plan(1, 0, 0, 0, 1, 500),), (Vehicle(1, 0, 0),), travel, TravelCost())
    with pytest.raises(GuardExceededError):
        full_variant_optimal(inst)


def test_chained_delay_propagation_matches_full_enumeration():
    # feasibility only through a delay produced transitively along a chain
    travel = TravelMatrix([[0, 2], [2, 0]])
    p1 = Plan(1, 0, 1, 0, 4, 3)   # reachable by v only delayed
    p2 = Plan(2, 1, 0, 5, 9, 4)   # needs p1's propagated delay on top
    v = Vehicle(1, 1, 1)          # arrives at p1's origin at t=3 -> p1@3
    inst = ChainingInstance((p1, p2), (v,), travel, TravelCost())
    alg = solver_objective(inst)  # minimal variants under this policy
    full = full_variant_optimal(inst)
    assert alg == full == 2
    assert oracle.brute_force_optimal(inst).objective == 2


def test_brute_force_agrees_with_solver_smoke():
    policies = [
        TravelCost(),
        FleetSize(),
        TravelCostWaitCapped(6),
        TravelCostWaitPenalized(Fraction(1, 2)),
        TravelCostWaitPenalized(Fraction(2)),
    ]
    for pi, policy in enumerate(policies):
        for seed in range(25):
            inst = chain_instance_from_params(
                ChainGenParams(seed=1000 * pi + seed, plans=5, vehicles=2, policy=policy)
            )
            expected = oracle.brute_force_optimal(inst)
            got = solver_objective(inst)
            assert got == expected.objective, (pi, seed, got, expected.objective)
            if expected.objective is not None:
                assert validate_chains(inst, expected.witness).ok
