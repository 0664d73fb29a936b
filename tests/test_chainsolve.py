import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planchain import chainsolve, flownet, model, oracle, variantgen
from planchain.chainsolve import solve_chaining, validate_chains
from planchain.errors import InfeasibleError, InternalSolverError
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

from conftest import (
    fractional_penalty_gap_instance,
    make_e1,
    shared_class_instance,
    solves_without_the_edge_view,
    waitcap_gap_instance,
)
from scalar_twins import check_assignment_certificate, full_variant_optimal, routed_delays


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

    Per routed delay d, ``left_major`` couples leaving via d with arriving
    via any other delay and ``right_major`` is the mirror image: (plan id,
    delay, orientation, term key, complement keys), each key a
    ``chosen_ends`` key.
    """
    out = []
    for pid, delays in routed_delays(network).items():
        for d in delays:
            others = [d2 for d2 in delays if d2 != d]
            out.append((pid, d, "left_major", ("out", pid, d), tuple(("in", pid, d2) for d2 in others)))
            out.append((pid, d, "right_major", ("in", pid, d), tuple(("out", pid, d2) for d2 in others)))
    return out


def chosen_ends(network, rows):
    """How many chosen ``rows`` leave ("out") or enter ("in") each (plan id, delay).

    A plan is left via d when a chosen row's origin is that plan at d, and
    entered via d when a chosen row's target is.
    """
    conns, ids = network.connections, network.plan_ids.tolist()
    ends = Counter(("in", ids[t], d) for t, d in zip(conns.target[rows].tolist(), conns.target_delay[rows].tolist()))
    for o, d in zip(conns.origin[rows].tolist(), conns.origin_delay[rows].tolist()):
        if o < len(ids):
            ends["out", ids[o], d] += 1
    return ends


def coupling_satisfied(coupling, ends):
    _, _, _, term, complement = coupling
    return ends[term] + sum(ends[key] for key in complement) <= 1


def test_consistency_constraints_shape():
    inst = make_e1()
    net = build_network(inst, variantgen.generate(inst))
    constraints = consistency_couplings(net)
    # plan 2 has the extended variant set {0, 1}: two orientations each
    assert len(constraints) == 4
    assert {c[2] for c in constraints} == {"left_major", "right_major"}
    assignment = solve_mcf(net)
    assert all(coupling_satisfied(c, chosen_ends(net, assignment.rows)) for c in constraints)


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
        ends = chosen_ends(net, assignment.rows)
        all_satisfied = all(coupling_satisfied(c, ends) for c in constraints)
        assert all_satisfied == (not _find_mismatches(net, assignment.rows))
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
    report = validate_chains(inst, [(1, [])])
    assert [i.message for i in report.issues if i.code == "empty_chain"] == ["chain 0 serves no plan"]
    report = validate_chains(inst, [(1, [(1, 0), (2, 1), (1, 0)])])
    assert "plan_multiplicity" in {i.code for i in report.issues}
    report = validate_chains(inst, [(1, [(1, 0)])])
    assert "plan_multiplicity" in {i.code for i in report.issues}  # plan 2 missing
    for delay in (5, -1):
        report = validate_chains(inst, [(1, [(1, 0), (2, delay)])])
        assert "delay_out_of_range" in {i.code for i in report.issues}
        report = validate_chains(inst, [(1, [(2, delay), (1, 0)])])
        assert [i.code for i in report.issues] == ["delay_out_of_range"] and report.recomputed_objective is None
    ok = validate_chains(inst, [(1, [(1, 0), (2, 1)])], claimed_objective=3)
    assert "objective_mismatch" in {i.code for i in ok.issues}


@functools.cache
def _solved_covers():
    """(instance, chains as id pairs, objective) of a few solved instances, over every policy.

    Solved on first use, inside the test: a solver that never terminates
    then hangs that test, not the collection of the whole module.
    """
    covers = []
    for policy in (TravelCost(), FleetSize(), TravelCostWaitCapped(8), TravelCostWaitPenalized(Fraction(1, 2))):
        for seed in range(40):
            inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=3, horizon=120, policy=policy))
            try:
                solution = solve_chaining(inst)
            except InfeasibleError:
                continue
            chains = [(c.vehicle.id, [(e.plan_id, e.delay) for e in c.elements]) for c in solution.chains]
            covers.append((inst, chains, solution.objective))
            if sum(other.policy == policy for other, _, _ in covers) == 2:
                break
    return covers


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), field=st.sampled_from(("vehicle", "plan", "delay", "objective")))
def test_validator_reports_every_rule_a_single_field_mutation_breaks(data, field):
    # one vehicle id, plan id, delay or the claimed objective of a solved
    # cover is replaced; the validator must never raise, and it must name
    # the broken rule whenever the new value breaks one
    inst, chains, objective = data.draw(st.sampled_from(_solved_covers()))
    chains = [(vid, list(elems)) for vid, elems in chains]
    value = data.draw(st.integers(-3, 12) | st.sampled_from((-(2**70), 2**70)))
    ci = data.draw(st.integers(0, len(chains) - 1))
    vid, elems = chains[ci]
    li = data.draw(st.integers(0, len(elems) - 1))
    pid, delay = elems[li]
    claimed, expected = objective, None
    if field == "vehicle":
        chains[ci] = (value, elems)
        if value not in {v.id for v in inst.vehicles}:
            expected = "unknown_vehicle"
        elif value in {other for j, (other, _) in enumerate(chains) if j != ci}:
            expected = "vehicle_reused"
    elif field == "plan":
        elems[li] = (value, delay)
        if value not in {p.id for p in inst.plans}:
            expected = "unknown_plan"
        elif value != pid:
            expected = "plan_multiplicity"
    elif field == "delay":
        elems[li] = (pid, value)
        if not 0 <= value <= inst.plan(pid).d_max:
            expected = "delay_out_of_range"
    else:
        claimed = objective + value
        if value:
            expected = "objective_mismatch"
    report = validate_chains(inst, chains, claimed)
    if expected is not None:
        assert expected in {i.code for i in report.issues}, (field, value, report.issues)
    elif (field, value) in (("vehicle", vid), ("plan", pid), ("delay", delay), ("objective", 0)):
        assert report.ok, report.issues


def test_bound_monotonicity_and_incumbent_validity(monkeypatch):
    # a child relaxation starts from its parent's state, which names the
    # parent's value, the child's bound until it is solved
    solved = []  # (state, value) of every relaxation, kept alive so that identity is meaningful
    trace = []  # (parent value, child value) of every child relaxation

    def traced(network, window=None, start=None):
        assignment = solve_mcf(network, window, start)
        check_assignment_certificate(network, assignment)
        if start is not None:
            trace.append((next(value for state, value in solved if state is start), assignment.total_cost))
        solved.append((assignment.state, assignment.total_cost))
        return assignment

    monkeypatch.setattr(chainsolve, "solve_mcf", traced)
    checked = 0
    for seed in range(60):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=5, vehicles=3))
        try:
            solution = solve_chaining(inst)
        except InfeasibleError:
            continue
        report = validate_chains(inst, solution.chains, solution.objective)
        assert report.ok, report.issues
        checked += 1
    assert checked > 20 and trace
    for parent_bound, child_bound in trace:
        assert child_bound >= parent_bound


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


def solve_on_minimal_variants(inst):
    return chainsolve.solve_network(build_network(inst, variantgen.generate(inst)))


def test_wait_cap_needs_exhaustive_variants():
    inst = waitcap_gap_instance()
    with pytest.raises(InfeasibleError):
        solve_on_minimal_variants(inst)
    solution = solve_chaining(inst)  # dispatched to exhaustive variants
    assert solution.objective == 1
    assert validate_chains(inst, solution.chains, solution.objective).ok
    assert oracle.brute_force_optimal(inst).objective == 1
    # the largest cap drops no link, so it solves as travel cost does
    widest = inst.with_policy(TravelCostWaitCapped(model.TICK_LIMIT - 1))
    assert solve_chaining(widest).objective == solve_chaining(inst.with_policy(TravelCost())).objective


def test_fractional_penalty_needs_exhaustive_variants():
    inst = fractional_penalty_gap_instance()
    minimal = solve_on_minimal_variants(inst)
    assert minimal.objective == 2  # waits (1, 1) round to 1 + 1
    solution = solve_chaining(inst)
    assert solution.objective == 1  # waits (2, 0) round to 1 + 0
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


def test_window_split_partitions_the_window():
    # random windows of up to 8 plans, split on a mismatch between two delays in one of them
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        window = np.array([sorted(rng.randint(0, 12) for _ in range(2)) for _ in range(n)], dtype=np.int64).T
        i = rng.randrange(n)
        if window[0, i] == window[1, i]:
            window[1, i] += 1
        a, b = rng.sample(range(window[0, i], window[1, i] + 1), 2)
        low, high = chainsolve._split_window(window, i, a, b)
        parts = [set(range(part[0, i], part[1, i] + 1)) for part in (low, high)]
        assert all(parts) and not parts[0] & parts[1]
        assert parts[0] | parts[1] == set(range(window[0, i], window[1, i] + 1))
        assert min(a, b) in parts[0] and max(a, b) in parts[1]
        others = np.arange(n) != i
        assert (low[:, others] == window[:, others]).all() and (high[:, others] == window[:, others]).all()


def test_interval_branching_keeps_the_search_small():
    # one child per routed delay needed 687 relaxations on this instance
    inst = chain_instance_from_params(
        ChainGenParams(
            seed=63,
            plans=7,
            vehicles=3,
            locations=3,
            horizon=60,
            d_max_range=(0, 10),
            policy=TravelCostWaitPenalized(Fraction(2, 3)),
        )
    )
    solution = solve_chaining(inst)
    assert solution.objective == 39 == oracle.brute_force_optimal(inst).objective
    assert validate_chains(inst, solution.chains, solution.objective).ok
    assert solution.stats.relaxations_solved <= 200


def certify_every_relaxation(monkeypatch) -> list:
    """Check every relaxation ``chainsolve`` runs with ``check_assignment_certificate``.

    The returned list grows by each relaxation's value as it runs, or None
    where it was infeasible.
    """
    certified = []

    def checked(network, window=None, start=None):
        try:
            assignment = solve_mcf(network, window, start)
        except InfeasibleError:
            certified.append(None)
            raise
        check_assignment_certificate(network, assignment)
        certified.append(assignment.total_cost)
        return assignment

    monkeypatch.setattr(chainsolve, "solve_mcf", checked)
    return certified


def deep_twelve_plan_instance():
    """A delay-sensitive 12-plan instance whose tree splits windows over a thousand times."""
    return chain_instance_from_params(
        ChainGenParams(
            seed=502,
            plans=12,
            vehicles=3,
            locations=8,
            horizon=220,
            d_max_range=(0, 10),
            policy=TravelCostWaitPenalized(Fraction(2, 3)),
        )
    )


def test_deep_window_search_on_twelve_plans(monkeypatch):
    # every relaxation's duals certify the rows it chose
    certified = certify_every_relaxation(monkeypatch)
    inst = deep_twelve_plan_instance()
    solution = solve_chaining(inst)
    assert solution.objective == 317
    assert (solution.stats.nodes_explored, solution.stats.relaxations_solved) == (1314, 2627)
    assert validate_chains(inst, solution.chains, solution.objective).ok
    assert len(certified) == 2627


def test_a_row_outside_its_window_stops_the_search(monkeypatch):
    # a relaxation that ignores the origin's window can choose a row leaving
    # a plan at a delay its node's window excludes; a split at that delay
    # would leave a child holding its parent's window, searched forever
    def usable_at_the_target(net, window, rows=slice(None)):
        conns, n = net.connections, len(net.plan_ids)
        lo, hi = np.concatenate((window, np.zeros((2, len(conns.column_class) - n), dtype=np.int64)), axis=1)
        target, delay = conns.target[rows], conns.target_delay[rows]
        return (lo[target] <= delay) & (delay <= hi[target])

    relaxations = itertools.count(1)

    def capped(network, window=None, start=None):
        assert next(relaxations) <= 5000, "the search does not end"
        return solve_mcf(network, window, start)

    monkeypatch.setattr(flownet, "_usable", usable_at_the_target)
    monkeypatch.setattr(chainsolve, "solve_mcf", capped)
    with pytest.raises(InternalSolverError, match=r"^plan index \d+ is used at delays \d+ and \d+ outside its window"):
        solve_chaining(deep_twelve_plan_instance())


def test_every_relaxation_of_a_branching_acceptance_instance_is_certified(monkeypatch):
    # the instance of acceptance criterion 1 that branches most (seed 1016,
    # its parameters drawn as that test draws them)
    certified = certify_every_relaxation(monkeypatch)
    inst = chain_instance_from_params(
        ChainGenParams(
            seed=1016,
            plans=5,
            vehicles=3,
            locations=3,
            horizon=60,
            d_max_range=(0, 10),
            policy=TravelCostWaitPenalized(Fraction(3, 2)),
        )
    )
    solution = solve_chaining(inst)
    assert solution.objective == oracle.brute_force_optimal(inst).objective
    assert (solution.stats.nodes_explored, solution.stats.relaxations_solved) == (254, 507)
    assert len(certified) == 507


POLICIES = st.one_of(
    st.just(TravelCost()),
    st.just(FleetSize()),
    st.integers(0, 40).map(TravelCostWaitCapped),
    st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3))).map(TravelCostWaitPenalized),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 1 << 30),
    plans=st.integers(0, 9),
    vehicles=st.integers(1, 4),
    locations=st.integers(3, 8),
    horizon=st.sampled_from((60, 120)),
    d_max=st.integers(0, 10),
    policy=POLICIES,
)
def test_solver_agrees_with_brute_force_on_random_instances(seed, plans, vehicles, locations, horizon, d_max, policy):
    # the solver's own variant source and the exhaustive one, whatever the
    # policy; the longer horizon keeps more of the larger instances feasible
    inst = chain_instance_from_params(
        ChainGenParams(
            seed=seed,
            plans=plans,
            vehicles=vehicles,
            locations=locations,
            horizon=horizon,
            d_max_range=(0, d_max),
            policy=policy,
        )
    )
    expected = oracle.brute_force_optimal(inst).objective
    assert full_variant_optimal(inst) == expected
    try:
        solution = solve_chaining(inst)
    except InfeasibleError:
        assert expected is None
        return
    assert solution.objective == expected
    assert validate_chains(inst, solution.chains, solution.objective).ok


def test_shared_vehicle_classes_agree_with_the_brute_force_oracle(monkeypatch):
    # two vehicles of one class can both head chains: each chosen connection
    # is named by its matrix column, so both chains come out, each with its
    # own vehicle; the solve never builds the per-vehicle view
    solved = shared = 0
    for seed in range(300):
        inst = shared_class_instance(seed)
        expected = oracle.brute_force_optimal(inst).objective
        try:
            with solves_without_the_edge_view(monkeypatch) as built:
                solution = solve_chaining(inst)
        except InfeasibleError:
            assert expected is None
            continue
        assert solution.objective == expected
        assert validate_chains(inst, solution.chains, solution.objective).ok
        net = built[-1]
        assert "_view" not in vars(net.connections) and "edges" not in vars(net)
        classes = [(c.vehicle.start_location, c.vehicle.t_st) for c in solution.chains]
        shared += len(set(classes)) < len(classes)
        solved += 1
    assert solved >= 160 and shared >= 60, (solved, shared)


def test_solves_never_number_the_edge_view(monkeypatch):
    # minimal and exhaustive generation, branching or not: a solve reads
    # the rows' own delays and never reads the edge view's numbering
    exhaustive = branched = 0
    for seed in range(60):
        policy = (TravelCost(), TravelCostWaitCapped(20))[seed % 2]
        inst = chain_instance_from_params(
            ChainGenParams(seed=seed, plans=6, vehicles=3, d_max_range=(0, 12), policy=policy)
        )
        try:
            with solves_without_the_edge_view(monkeypatch) as built:
                solution = solve_chaining(inst)
        except InfeasibleError:
            continue
        net = built[-1]
        assert "edges" not in vars(net)
        exhaustive += chainsolve.policy_needs_exhaustive_variants(policy)
        branched += solution.stats.relaxations_solved > 1
        # the numbering comes on read, and counts the edges it numbers
        assert net.edge_count == len(net.edges) and "edges" in vars(net)
    assert exhaustive >= 10 and branched >= 15, (exhaustive, branched)
