from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planchain import chainsolve, model, oracle, variantgen
from planchain.chainsolve import solve_chaining, validate_chains
from planchain.errors import InfeasibleError
from planchain.flownet import build_network, solve_mcf
from planchain.instances import ChainGenParams, chain_instance_from_params
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

from conftest import make_e1


def test_e1_travel_cost():
    solution = solve_chaining(make_e1())
    assert solution.objective == 2
    assert len(solution.chains) == 1
    chain = solution.chains[0]
    assert chain.vehicle.id == 1
    assert chain.elements == (VariantRef(1, 0), VariantRef(2, 1))
    assert sum(chain.link_costs) == 2
    assert validate_chains(make_e1(), solution.chains, solution.objective).ok


def test_e1_fleet_size_with_dedicated_vehicles():
    vehicles = (Vehicle(1, 0, 0), Vehicle(2, 2, 0))  # one at each plan origin
    inst = make_e1(policy=FleetSize(), vehicles=vehicles)
    solution = solve_chaining(inst)
    assert solution.objective == 1
    assert len(solution.chains) == 1


def test_e1_without_vehicle_infeasible():
    with pytest.raises(InfeasibleError):
        solve_chaining(make_e1(vehicles=()))


def test_zero_variant_instances_skip_branching():
    for seed in range(15):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=5, d_max_range=(0, 0)))
        gen = variantgen.generate(inst)
        net = build_network(inst, gen)
        try:
            flow = solve_mcf(net)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_chaining(inst)
            continue
        solution = solve_chaining(inst)
        assert solution.objective == flow.total_cost
        assert solution.stats.nodes_explored == 0


def test_empty_instance_solves_to_zero():
    inst = ChainingInstance((), (), TravelMatrix([[0]]), TravelCost())
    solution = solve_chaining(inst)
    assert solution.objective == 0 and solution.chains == ()


def consistency_couplings(network):
    """The explicit <=1 couplings between each variant-carrying plan's sides.

    Per routed variant d, ``left_major`` couples leaving via d with
    arriving via any other variant and ``right_major`` is the mirror
    image: (plan id, delay, orientation, term edge, complement edges).
    """
    out = []
    for pid, delays in network.routed_delays.items():
        for d in delays:
            others = [d2 for d2 in delays if d2 != d]
            left, right = network.left_struct_edge, network.right_struct_edge
            out.append((pid, d, "left_major", left[pid, d], tuple(right[pid, d2] for d2 in others)))
            out.append((pid, d, "right_major", right[pid, d], tuple(left[pid, d2] for d2 in others)))
    return out


def coupling_satisfied(coupling, flows):
    _, _, _, term, complement = coupling
    return flows[term] + sum(flows[e] for e in complement) <= 1


def test_consistency_constraints_shape():
    inst = make_e1()
    net = build_network(inst, variantgen.generate(inst))
    constraints = consistency_couplings(net)
    # plan 2 has the extended variant set {0, 1}: two orientations each
    assert len(constraints) == 4
    assert {c[2] for c in constraints} == {"left_major", "right_major"}
    assignment = solve_mcf(net)
    assert all(coupling_satisfied(c, assignment.flows) for c in constraints)


def test_mismatch_detector_matches_constraint_objects():
    # the compact in/out comparison and the explicit <=1 couplings agree
    from planchain.chainsolve import _find_mismatches
    from planchain.flownet import FlowInfeasibleError

    checked = 0
    for seed in range(40):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=3))
        net = build_network(inst, variantgen.generate(inst))
        constraints = consistency_couplings(net)
        if not constraints:
            continue
        try:
            assignment = solve_mcf(net)
        except FlowInfeasibleError:
            continue
        all_satisfied = all(coupling_satisfied(c, assignment.flows) for c in constraints)
        assert all_satisfied == (not _find_mismatches(net, assignment.flows))
        checked += 1
    assert checked > 10


def test_extract_chains_direct_mapping():
    # two vehicles, two plans, no inter-plan feasibility: two chains of length 2
    travel = TravelMatrix([[0, 30], [30, 0]])
    plans = (Plan(1, 0, 0, 0, 5, 0), Plan(2, 1, 1, 0, 5, 0))
    vehicles = (Vehicle(1, 0, 0), Vehicle(2, 1, 0))
    inst = ChainingInstance(plans, vehicles, travel, TravelCost())
    solution = solve_chaining(inst)
    assert sorted(len(c.elements) for c in solution.chains) == [1, 1]
    assert validate_chains(inst, solution.chains).ok


def test_validator_flags_bad_chains():
    inst = make_e1()
    report = validate_chains(inst, [(1, [(2, 0), (1, 0)])])
    codes = {i.code for i in report.issues}
    assert "link_infeasible" in codes
    report = validate_chains(inst, [(1, [(1, 0)]), (1, [(2, 1)])])
    assert "vehicle_reused" in {i.code for i in report.issues}
    report = validate_chains(inst, [(1, [(1, 0), (2, 1), (1, 0)])])
    assert "plan_multiplicity" in {i.code for i in report.issues}
    report = validate_chains(inst, [(1, [(1, 0)])])
    assert "plan_multiplicity" in {i.code for i in report.issues}  # plan 2 missing
    report = validate_chains(inst, [(1, [(1, 0), (2, 5)])])
    assert "delay_out_of_range" in {i.code for i in report.issues}
    ok = validate_chains(inst, [(1, [(1, 0), (2, 1)])], claimed_objective=3)
    assert "objective_mismatch" in {i.code for i in ok.issues}


def test_bound_monotonicity_and_incumbent_validity():
    checked = 0
    for seed in range(60):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=5, vehicles=3))
        trace: list = []
        try:
            solution = solve_chaining(inst, _bound_trace=trace)
        except InfeasibleError:
            continue
        for parent_bound, child_bound in trace:
            assert child_bound >= parent_bound
        report = validate_chains(inst, solution.chains, solution.objective)
        assert report.ok, report.issues
        checked += 1
    assert checked > 20


def test_variant_consistency_in_solutions():
    # the variant a plan is entered with equals the variant it leaves with
    for seed in range(40):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=2))
        try:
            solution = solve_chaining(inst)
        except InfeasibleError:
            continue
        for chain in solution.chains:
            assert len(chain.link_costs) == len(chain.elements)
            assert all(w >= 0 for w in chain.link_waits)


def test_prefix_closure_of_solution_chains():
    # every prefix of an optimal chain is itself a feasible chain
    for seed in range(25):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=3))
        try:
            solution = solve_chaining(inst)
        except InfeasibleError:
            continue
        for chain in solution.chains:
            prev = chain.vehicle
            for ref in chain.elements:
                assert model.connection_feasible(inst, prev, ref)
                prev = ref


def test_vehicle_count_bound_and_fleet_objective():
    for seed in range(25):
        inst = chain_instance_from_params(
            ChainGenParams(seed=seed, plans=5, vehicles=3, policy=FleetSize())
        )
        try:
            solution = solve_chaining(inst)
        except InfeasibleError:
            continue
        assert len(solution.chains) <= len(inst.vehicles)
        assert solution.objective == len(solution.chains)


WAITCAP_GAP_MATRIX = [[0, 1], [1, 0]]


def waitcap_gap_instance():
    """Minimal-delay generation misses the only cap-feasible chain here.

    Delaying the first plan shifts enough wait off the second link to meet
    the cap, but no connection ever requires that delay, so the minimal
    variant set never contains it.
    """
    plans = (
        Plan(1, 0, 0, 0, 0, 6),
        Plan(2, 1, 1, 12, 13, 0),
    )
    vehicles = (Vehicle(1, 0, 0),)
    return ChainingInstance(plans, vehicles, TravelMatrix(WAITCAP_GAP_MATRIX), TravelCostWaitCapped(6))


def test_wait_cap_needs_exhaustive_variants():
    inst = waitcap_gap_instance()
    with pytest.raises(InfeasibleError):
        solve_chaining(inst, variants="minimal")
    solution = solve_chaining(inst)  # auto dispatches to exhaustive
    assert solution.objective == 1
    assert validate_chains(inst, solution.chains, solution.objective).ok
    assert oracle.brute_force_optimal(inst).objective == 1


def fractional_penalty_gap_instance():
    """Per-link half-up rounding rewards shifting wait onto one link."""
    travel = TravelMatrix([[0]])
    plans = (
        Plan(1, 0, 0, 1, 1, 1),
        Plan(2, 0, 0, 2, 3, 0),
    )
    vehicles = (Vehicle(1, 0, 0),)
    return ChainingInstance(plans, vehicles, travel, TravelCostWaitPenalized(Fraction(1, 2)))


def test_fractional_penalty_needs_exhaustive_variants():
    inst = fractional_penalty_gap_instance()
    minimal = solve_chaining(inst, variants="minimal")
    assert minimal.objective == 2  # waits (1, 1) round to 1 + 1
    auto = solve_chaining(inst)
    assert auto.objective == 1  # waits (2, 0) round to 1 + 0
    assert oracle.brute_force_optimal(inst).objective == 1


def test_integer_penalty_stays_on_minimal_variants():
    inst = fractional_penalty_gap_instance().with_policy(TravelCostWaitPenalized(Fraction(2)))
    assert not chainsolve.policy_needs_exhaustive_variants(inst.policy)
    solution = solve_chaining(inst)
    assert solution.objective == oracle.brute_force_optimal(inst).objective


def test_branching_is_lazy_under_large_variant_fanout():
    # huge delay budgets create hundreds of variants per plan; pending
    # children must be pruned by the incumbent without being solved
    inst = chain_instance_from_params(
        ChainGenParams(
            seed=4,
            plans=6,
            vehicles=3,
            horizon=600,
            d_max_range=(200, 300),
            extra_duration_range=(0, 50),
            locations=6,
        )
    )
    gen = variantgen.generate(inst)
    assert len(gen.variants) > 500
    solution = solve_chaining(inst)
    # frozen from the brute-force oracle (too slow to re-run per test here)
    assert solution.objective == 9
    assert validate_chains(inst, solution.chains, solution.objective).ok
    assert solution.stats.relaxations_solved < 50


POLICIES = st.one_of(
    st.just(TravelCost()),
    st.just(FleetSize()),
    st.integers(0, 40).map(TravelCostWaitCapped),
    st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3))).map(TravelCostWaitPenalized),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 1 << 30),
    plans=st.integers(0, 7),
    vehicles=st.integers(1, 3),
    locations=st.integers(3, 8),
    d_max=st.integers(0, 10),
    policy=POLICIES,
)
def test_solver_agrees_with_brute_force_on_random_instances(seed, plans, vehicles, locations, d_max, policy):
    inst = chain_instance_from_params(
        ChainGenParams(
            seed=seed, plans=plans, vehicles=vehicles, locations=locations, d_max_range=(0, d_max), policy=policy
        )
    )
    expected = oracle.brute_force_optimal(inst).objective
    try:
        solution = solve_chaining(inst)
    except InfeasibleError:
        assert expected is None
        return
    assert solution.objective == expected
    assert validate_chains(inst, solution.chains, solution.objective).ok
