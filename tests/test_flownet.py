import random

import pytest

from planchain import chainsolve, oracle, variantgen
from planchain.errors import InputError
from planchain.flownet import (
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
    assert len(net.nodes) == 11
    assert len(net.edges) == 12
    kinds = [n.kind for n in net.nodes]
    assert kinds[0] == "source" and kinds[-1] == "sink"
    # plan 2 gained an explicit zero-delay variant next to the generated one
    assert net.routed_delays == {1: (), 2: (0, 1)}
    assert net.nodes[net.source_id].supply == 2
    assert net.nodes[net.sink_id].supply == -2
    assert all(e.lower == 0 and e.upper == 1 and e.cost >= 0 for e in net.edges)


def test_minimal_network_without_variants():
    travel = TravelMatrix([[0]])
    inst = ChainingInstance(
        (Plan(1, 0, 0, 5, 6, 0),), (Vehicle(1, 0, 0),), travel, TravelCost()
    )
    net = build_network(inst, variantgen.generate(inst))
    assert len(net.nodes) == 5
    assert len(net.edges) == 4


def test_empty_network():
    inst = ChainingInstance((), (), TravelMatrix([[0]]), TravelCost())
    net = build_network(inst, variantgen.generate(inst))
    assert len(net.nodes) == 2
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
        net = build_network(inst, GenerationResult(gen.variants, (duplicate,) + gen.connections))
        dup_edge, orig_edge = net.connection_edges[:2]
        assignment = solve_mcf(net)
        assert assignment.total_cost == 2
        check_conservation(net, assignment)
        assert assignment.flows[dup_edge] == int(duplicate_carries)
        assert assignment.flows[orig_edge] == int(not duplicate_carries)


def test_huge_connection_cost_is_rejected():
    inst = make_e1()
    gen = variantgen.generate(inst)
    for cost in (1 << 59, 1 << 70):
        link = gen.connections[0]
        huge = Connection(link.origin, link.target, cost)
        net = build_network(inst, GenerationResult(gen.variants, gen.connections + (huge,)))
        with pytest.raises(InputError):
            solve_mcf(net)


def test_e1_solve_and_active_edges():
    inst, net = build_e1_network()
    assignment = solve_mcf(net)
    assert assignment.total_cost == 2
    check_conservation(net, assignment)
    assert residual_is_optimal(net, assignment)
    active = {
        (net.nodes[net.edges[eid].tail].kind, net.nodes[net.edges[eid].head].kind)
        for eid in net.connection_edges
        if assignment.flows[eid] == 1
    }
    assert active == {("vehicle", "right_plan"), ("left_plan", "right_variant")}


def test_e1_without_vehicle_is_infeasible():
    inst = make_e1(vehicles=())
    net = build_network(inst, variantgen.generate(inst))
    with pytest.raises(FlowInfeasibleError) as err:
        solve_mcf(net)
    assert err.value.plan_id == 1


def test_edge_list_dump_golden():
    _, net = build_e1_network()
    lines = net.edge_list_text().splitlines()
    assert len(lines) == 12
    assert all(len(line.split()) == 5 for line in lines)
    # stable construction order: source fan-out first, sink fan-in last
    assert lines[0] == f"{net.source_id} {net.left_plan[1]} 0 1 0"
    assert lines[-1] == f"{net.right_plan[2]} {net.sink_id} 0 1 0"


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
            if isinstance(net.edge_connection[eid].origin, Vehicle)
        )
        assert vehicle_edges == len(inst.plans) - (len(inst.plans) - oracle.fleet_min_matching(inst))


def test_disabled_edges_reduce_choices():
    inst, net = build_e1_network()
    assignment = solve_mcf(net)
    active = [eid for eid in net.connection_edges if assignment.flows[eid] == 1]
    cheap = min(active, key=lambda e: net.edges[e].cost)
    with pytest.raises(FlowInfeasibleError):
        # disabling the vehicle's only outgoing edge starves plan 1
        veh_edges = [
            eid
            for eid in net.connection_edges
            if isinstance(net.edge_connection[eid].origin, Vehicle)
        ]
        solve_mcf(net, disabled_edges=frozenset(veh_edges))


def test_certificate_holds_with_forced_variants():
    feasible = 0
    for seed in range(120):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12)))
        net = build_network(inst, variantgen.generate(inst))
        rng = random.Random(seed)
        disabled = frozenset()
        for pid, delays in net.routed_delays.items():
            if delays and rng.random() < 0.5:
                disabled |= chainsolve._force_variant_edges(net, pid, rng.choice(delays))
        try:
            assignment = solve_mcf(net, disabled)
        except FlowInfeasibleError:
            continue
        feasible += 1
        check_conservation(net, assignment)
        assert all(assignment.flows[e] == 0 for e in disabled)
        assert residual_is_optimal(net, assignment, disabled)
    assert feasible >= 30
