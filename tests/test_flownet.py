import random

import numpy as np
import pytest

from planchain import chainsolve, flownet, oracle, variantgen
from planchain.errors import InfeasibleError, InputError
from planchain.flownet import (
    FlowAssignment,
    FlowInfeasibleError,
    build_network,
    check_conservation,
    residual_is_optimal,
    solve_mcf,
)
from planchain.instances import ChainGenParams, chain_instance_from_params
from planchain.model import (
    ChainingInstance,
    FleetSize,
    Plan,
    TravelCost,
    TravelMatrix,
    VariantRef,
    Vehicle,
)
from planchain.variantgen import Connection, GenerationResult

from conftest import make_e1


def build_e1_network(policy=None, vehicles=None):
    inst = make_e1(policy=policy) if vehicles is None else make_e1(policy=policy, vehicles=vehicles)
    gen = variantgen.generate(inst)
    return inst, build_network(inst, gen)


def test_e1_network_shape():
    _, net = build_e1_network()
    assert net.node_count == 11
    assert len(net.edges) == 12
    assert (net.source_id, net.sink_id) == (0, 10)
    # plan 2 gained an explicit zero-delay variant next to the generated one
    assert net.routed_delays == {1: (), 2: (0, 1)}
    # nodes: source, left plans 1 2, left variants 2@0 2@1, vehicle,
    # right variants 2@0 2@1, right plans 1 2, sink
    assert net.origin_col.tolist() == [-1, 0, 1, 1, 1, 2, -1, -1, -1, -1, -1]
    assert net.target_row.tolist() == [-1, -1, -1, -1, -1, -1, 1, 1, 0, 1, -1]
    assert (net.cost >= 0).all()


def test_minimal_network_without_variants():
    travel = TravelMatrix([[0]])
    inst = ChainingInstance(
        (Plan(1, 0, 0, 5, 6, 0),), (Vehicle(1, 0, 0),), travel, TravelCost()
    )
    net = build_network(inst, variantgen.generate(inst))
    assert net.node_count == 5
    assert len(net.edges) == 4


def test_empty_network():
    inst = ChainingInstance((), (), TravelMatrix([[0]]), TravelCost())
    net = build_network(inst, variantgen.generate(inst))
    assert net.node_count == 2
    assert len(net.edges) == 0
    assignment = solve_mcf(net)
    assert assignment.total_cost == 0


def test_parallel_edges_prefer_cheaper():
    inst = make_e1()
    gen = variantgen.generate(inst)
    link = gen.connections[0]  # plan 1 -> plan 2 at delay 1, on the optimal chain
    # the duplicate comes first, so it has the lower edge id and wins only a tie
    for extra, duplicate_carries in ((3, False), (0, True)):
        duplicate = Connection(link.origin, link.target, link.cost + extra)
        net = build_network(inst, GenerationResult(gen.variants, (duplicate, *gen.connections)))
        dup_edge, orig_edge = net.connection_edges[:2]
        assignment = solve_mcf(net)
        assert assignment.total_cost == 2
        check_conservation(net, assignment)
        assert assignment.flows[dup_edge] == int(duplicate_carries)
        assert assignment.flows[orig_edge] == int(not duplicate_carries)


def test_generated_columns_build_the_hand_built_network():
    # generated columns and the same Connection objects, converted one by
    # one, must number every edge and order every matrix cell alike
    for seed in range(30):
        policy = (TravelCost(), FleetSize())[seed % 2]
        inst = chain_instance_from_params(
            ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12), policy=policy)
        )
        for gen in (variantgen.generate(inst), variantgen.generate_exhaustive(inst)):
            fast = build_network(inst, gen)
            slow = build_network(inst, GenerationResult(gen.variants, tuple(gen.connections)))
            assert fast.edges.tolist() == slow.edges.tolist()
            assert fast.cell_order.tolist() == slow.cell_order.tolist()
            assert [fast.edge_connection(e) for e in fast.connection_edges] == list(gen.connections)


def test_connection_without_a_node_is_rejected():
    inst = make_e1()
    gen = variantgen.generate(inst)
    link = gen.connections[0]
    for stray in (
        Connection(link.origin, VariantRef(2, 2), link.cost),  # no such variant
        Connection(link.origin, VariantRef(1, 1), link.cost),  # plan 1 has no variants
        Connection(Vehicle(9, 0, 0), link.target, link.cost),  # no such vehicle
        Connection(link.origin, VariantRef(7, 0), link.cost),  # no such plan
    ):
        with pytest.raises(InputError):
            build_network(inst, GenerationResult(gen.variants, (*gen.connections, stray)))


def test_huge_connection_cost_is_rejected():
    inst = make_e1()
    gen = variantgen.generate(inst)
    link = gen.connections[0]
    for cost in (1 << 59, 1 << 70):
        huge = Connection(link.origin, link.target, cost)
        with pytest.raises(InputError):
            solve_mcf(build_network(inst, GenerationResult(gen.variants, (*gen.connections, huge))))
    # the largest cost the fence admits on two plans still solves exactly
    largest = Connection(link.origin, link.target, (1 << 57) - 1)
    assert solve_mcf(build_network(inst, GenerationResult(gen.variants, (*gen.connections, largest)))).total_cost == 2


def test_e1_solve_and_active_edges():
    inst, net = build_e1_network()
    assignment = solve_mcf(net)
    assert assignment.total_cost == 2
    check_conservation(net, assignment)
    assert residual_is_optimal(net, assignment)
    active = {
        (int(net.tail[eid]), int(net.head[eid])) for eid in net.connection_edges if assignment.flows[eid] == 1
    }
    # vehicle -> right plan 1, and left plan 1 -> right variant 2@1
    assert active == {(5, 8), (1, 7)}
    # branching scores: plan 1 enters at 0 and leaves at 2, plan 2 enters at 2
    assert chainsolve._active_connection_costs(net, assignment.rows).tolist() == [2, 2]


def test_certificate_checks_catch_broken_flows():
    _, net = build_e1_network()
    assignment = solve_mcf(net)
    for eid in range(len(net.edges)):
        flows = assignment.flows.copy()
        flows[eid] ^= 1
        with pytest.raises(InfeasibleError):
            check_conservation(net, FlowAssignment(flows, assignment.total_cost, assignment.potentials))
    for right_plan in (8, 9):
        potentials = assignment.potentials.copy()
        potentials[right_plan] -= 1
        assert not residual_is_optimal(net, FlowAssignment(assignment.flows, assignment.total_cost, potentials))


def test_e1_without_vehicle_is_infeasible():
    inst = make_e1(vehicles=())
    net = build_network(inst, variantgen.generate(inst))
    with pytest.raises(FlowInfeasibleError) as err:
        solve_mcf(net)
    assert err.value.plan_id == 1


def test_edge_list_dump_golden():
    _, net = build_e1_network()
    # source side first, then the connections, then the sink side
    assert net.edge_list_text().splitlines() == [
        "0 1 0 1 0",
        "0 2 0 1 0",
        "0 5 0 1 0",
        "2 3 0 1 0",
        "2 4 0 1 0",
        "1 7 0 1 2",
        "5 8 0 1 0",
        "5 6 0 1 4",
        "6 9 0 1 0",
        "7 9 0 1 0",
        "8 10 0 1 0",
        "9 10 0 1 0",
    ]
    assert list(net.connection_edges) == [5, 6, 7]


def test_dump_is_deterministic():
    _, a = build_e1_network()
    _, b = build_e1_network()
    assert a.edge_list_text() == b.edge_list_text()


def test_matching_agreement_on_zero_delay_fleet_instances():
    # active vehicle edges in the flow == |P| - max bipartite matching
    for seed in range(30):
        inst = chain_instance_from_params(
            ChainGenParams(seed=seed, plans=6, d_max_range=(0, 0), fleet="dedicated", policy=FleetSize())
        )
        net = build_network(inst, variantgen.generate(inst))
        assignment = solve_mcf(net)
        vehicle_edges = sum(
            assignment.flows[eid]
            for eid in net.connection_edges
            if isinstance(net.edge_connection(eid).origin, Vehicle)
        )
        assert vehicle_edges == len(inst.plans) - (len(inst.plans) - oracle.fleet_min_matching(inst))


def test_disabled_edges_reduce_choices():
    inst, net = build_e1_network()
    assignment = solve_mcf(net)
    active = [eid for eid in net.connection_edges if assignment.flows[eid] == 1]
    cheap = min(active, key=lambda e: net.cost[e])
    with pytest.raises(FlowInfeasibleError):
        # disabling the vehicle's only outgoing edge starves plan 1
        veh_edges = [
            eid
            for eid in net.connection_edges
            if isinstance(net.edge_connection(eid).origin, Vehicle)
        ]
        solve_mcf(net, disabled_edges=frozenset(veh_edges))
    with pytest.raises(FlowInfeasibleError) as err:
        # plan 2's sink edge lies two hops past both of its right variants
        solve_mcf(net, disabled_edges=frozenset({11}))
    assert err.value.plan_id == 2


def test_certificate_holds_with_forced_variants():
    feasible = 0
    for seed in range(120):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12)))
        net = build_network(inst, variantgen.generate(inst))
        rng = random.Random(seed)
        disabled = frozenset()
        for pid, delays in net.routed_delays.items():
            if delays and rng.random() < 0.5:
                disabled |= chainsolve._force_variant_edges(net, pid, {rng.choice(delays)})
        try:
            assignment = solve_mcf(net, disabled)
        except FlowInfeasibleError:
            continue
        feasible += 1
        check_conservation(net, assignment)
        assert all(assignment.flows[e] == 0 for e in disabled)
        assert residual_is_optimal(net, assignment, disabled)
    assert feasible >= 30


def freed_below_zero(net, state, disabled):
    """Columns a warm start from ``state`` frees that keep a negative dual.

    A column is freed when its row's cell is no longer tight under the
    restricted network's costs.
    """
    matrix = flownet._assignment_matrix(net, disabled)[0]
    cols = np.flatnonzero(state.owner >= 0)
    rows = state.owner[cols]
    freed = cols[matrix[rows, cols] != state.u[rows] + state.v[cols]]
    return int((state.v[freed] < 0).sum())


def test_warm_start_matches_cold_on_nested_forced_variants():
    # as in branch-and-bound, each child forces one more plan's variant on
    # top of its parent's and is warm-started from the parent's state
    rng = random.Random(11)
    compared = infeasible = freed = 0
    for seed in range(150):
        inst = chain_instance_from_params(
            ChainGenParams(seed=seed, plans=rng.randint(2, 9), vehicles=rng.randint(1, 4), d_max_range=(0, 12))
        )
        net = build_network(inst, variantgen.generate(inst))
        try:
            parent = solve_mcf(net)
        except FlowInfeasibleError:
            continue
        routed = [pid for pid, delays in net.routed_delays.items() if delays]
        disabled = frozenset()
        for pid in rng.sample(routed, len(routed)):
            disabled |= chainsolve._force_variant_edges(net, pid, {rng.choice(net.routed_delays[pid])})
            freed += freed_below_zero(net, parent.state, disabled)
            try:
                cold = solve_mcf(net, disabled)
            except FlowInfeasibleError:
                with pytest.raises(FlowInfeasibleError):
                    solve_mcf(net, disabled, parent.state)
                infeasible += 1
                break
            warm = solve_mcf(net, disabled, parent.state)
            assert warm.total_cost == cold.total_cost
            check_conservation(net, warm)
            assert all(warm.flows[e] == 0 for e in disabled)
            assert residual_is_optimal(net, warm, disabled)
            compared += 1
            parent = warm
    assert compared >= 100 and infeasible >= 20 and freed >= 20


def test_start_must_be_dual_feasible():
    _, net = build_e1_network()
    state = solve_mcf(net).state
    assert solve_mcf(net, frozenset(), state).total_cost == 2  # its own optimum is a valid start
    for bad in (state._replace(v=state.v + 1), state._replace(u=state.u + 1)):
        with pytest.raises(ValueError):
            solve_mcf(net, frozenset(), bad)


def edge_kinds(net):
    """Edge ids by kind: source to plan, source to vehicle, left structural,
    connection, right structural, sink."""
    n, n_veh = len(net.plan_ids), len(net.instance.vehicles)
    left, right = net.left_struct, net.right_struct
    return (
        range(n),
        range(n, n + n_veh),
        range(left.start, left.stop),
        net.connection_edges,
        range(right.start, right.stop),
        range(right.stop, net.edge_count),
    )


def test_row_matrix_matches_the_edge_level_reference():
    # each case disables a random subset of one edge kind, or of all six;
    # the row-level usability test must rebuild the reference's matrix
    rng = random.Random(23)
    changed = [0] * 6  # cases of each kind whose matrix differs from the unrestricted one
    solved = 0
    for seed in range(150):
        params = ChainGenParams(seed=seed, plans=rng.randint(1, 7), vehicles=rng.randint(1, 3), d_max_range=(0, 12))
        inst = chain_instance_from_params(params)
        net = build_network(inst, variantgen.generate(inst))
        kinds = edge_kinds(net)
        unrestricted = flownet._assignment_matrix(net, frozenset())[0]
        for kind in range(7):
            pool = [e for edges in kinds for e in edges] if kind == 6 else kinds[kind]
            disabled = frozenset(e for e in pool if rng.random() < 0.3)
            matrix, row_at = flownet._assignment_matrix(net, disabled)
            reference, edge_at, cut = oracle.assignment_matrix_reference(net, disabled)
            assert matrix.tolist() == reference.tolist()
            assert np.where(row_at >= 0, row_at + net.connection_edges.start, -1).tolist() == edge_at.tolist()
            if kind < 6:
                changed[kind] += bool((matrix != unrestricted).any())
            try:
                assignment = solve_mcf(net, disabled)
            except FlowInfeasibleError:
                continue
            solved += 1
            # flows and potentials, derived on first read, certify the solve
            check_conservation(net, assignment)
            assert residual_is_optimal(net, assignment, disabled)
            assert not any(assignment.flows[e] for e in disabled)
            assert (np.abs(assignment.potentials[cut]) == flownet.NO_EDGE).all()
    assert min(changed) >= 15 and solved >= 200, (changed, solved)


def test_branching_solve_never_builds_the_edge_view(monkeypatch):
    inst = chain_instance_from_params(ChainGenParams(seed=60, plans=3, vehicles=2, d_max_range=(0, 12)))
    built = []
    build = chainsolve.build_network
    monkeypatch.setattr(chainsolve, "build_network", lambda *args: built.append(build(*args)) or built[-1])
    solution = chainsolve.solve_chaining(inst)
    assert (solution.stats.nodes_explored, solution.stats.relaxations_solved) == (2, 3)
    (net,) = built
    assert not flownet._EDGE_VIEW & vars(net).keys()
    # built on first access, the view holds the edges an eager build made
    assert net.edges.tolist() == [
        [0, 1, 0], [0, 2, 0], [0, 3, 0], [0, 6, 0], [0, 7, 0], [3, 4, 0], [3, 5, 0],
        [1, 9, 0], [4, 10, 0], [6, 10, 16], [6, 11, 0], [6, 8, 16], [7, 10, 6], [7, 11, 14], [7, 8, 6],
        [8, 12, 0], [9, 12, 0], [10, 13, 0], [11, 13, 0], [12, 13, 0],
    ]
    assert net.origin_col.tolist() == [-1, 0, 1, 2, 2, 2, 3, 4, -1, -1, -1, -1, -1, -1]
    assert net.target_row.tolist() == [-1, -1, -1, -1, -1, -1, -1, -1, 2, 2, 0, 1, 2, -1]
    assert (net.left_struct_edge, net.right_struct_edge) == ({(3, 0): 5, (3, 6): 6}, {(3, 0): 15, (3, 6): 16})
