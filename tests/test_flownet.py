import random
import re
from fractions import Fraction

import numpy as np
import pytest

from planchain import chainsolve, flownet, oracle, variantgen
from planchain.errors import InfeasibleError, InputError
from planchain.flownet import FlowInfeasibleError, build_network, solve_mcf
from planchain.instances import ChainGenParams, chain_instance_from_params
from planchain.model import (
    ChainingInstance,
    FleetSize,
    Plan,
    TravelCost,
    TravelCostWaitPenalized,
    TravelMatrix,
    VariantRef,
    Vehicle,
)
from planchain.variantgen import Connection, GenerationResult

from conftest import make_e1, shared_class_instance, solves_without_the_edge_view
from scalar_twins import assignment_matrix_reference, check_assignment_certificate, routed_delays, warm_start_fault


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
    assert net.variant_nodes.tolist() == [[1, 0], [1, 1]]
    assert (net.edges[:, 2] >= 0).all()


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
        assignment = solve_mcf(net)
        assert assignment.total_cost == 2
        check_assignment_certificate(net, assignment)
        # class row 0 is the duplicate, row 1 the generated link
        assert (0 in assignment.rows, 1 in assignment.rows) == (duplicate_carries, not duplicate_carries)


def row_links(conns, rows, cols=None):
    """(origin column, origin delay, target, target delay, cost) of each of ``rows``, read in origin columns ``cols``.

    ``cols`` defaults to the rows' own origins.
    """
    origin = conns.origin[rows] if cols is None else cols
    return np.stack([origin, *(column[rows] for column in conns.columns[1:])], axis=1)


def per_vehicle_matrix(net, window):
    """``_assignment_matrix``'s cost matrix, and the ``row_links`` link that fills each cell (-1s: none), flat.

    A usable cell reads the row of its class cell, found as ``solve_mcf`` finds it: under the window the live matrix holds.
    """
    matrix = flownet._assignment_matrix(net, window)[0]
    n, m = matrix.shape
    target, col = np.divmod(np.arange(n * m), m)
    found = matrix.ravel() != flownet.NO_EDGE
    rows = flownet._first_usable(net, net._live[1], (target * m + net.connections.column_class[col])[found])
    link_at = np.full((n * m, 5), -1)
    link_at[found] = row_links(net.connections, rows, col[found])
    return matrix, link_at


def edge_links(net, edge_at):
    """The ``row_links`` link of each connection edge of ``edge_at`` (-1s where it is -1), from the per-vehicle rows."""
    link_at = np.full((len(edge_at), 5), -1)
    found = edge_at >= 0
    link_at[found] = row_links(net.connections.per_vehicle, edge_at[found] - net.connection_edges.start)
    return link_at


def test_generated_columns_build_the_hand_built_network():
    # generated class rows and the same Connection objects, converted one by
    # one (each vehicle its own class), must number every edge alike, order
    # the cells of every class's leading vehicle alike and fill every matrix
    # cell with the same connection
    merged = 0
    for seed in range(30):
        policy = (TravelCost(), FleetSize())[seed % 2]
        inst = chain_instance_from_params(
            ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12), policy=policy)
        )
        for gen in (variantgen.generate(inst), variantgen.generate_exhaustive(inst)):
            fast = build_network(inst, gen)
            slow = build_network(inst, GenerationResult(gen.variants, tuple(gen.connections)))
            assert fast.edges.tolist() == slow.edges.tolist()
            conns, order = fast.connections, fast.cell_order
            led = slow.cell_order[~np.isin(slow.connections.origin[slow.cell_order], len(inst.plans) + conns.members)]
            assert row_links(conns, order).tolist() == row_links(slow.connections, led).tolist()
            for a, b in zip(per_vehicle_matrix(fast, None), per_vehicle_matrix(slow, None)):
                assert a.tolist() == b.tolist()
            assert list(fast.connections) == list(gen.connections)
            merged += len(conns.cost) < len(conns)
    assert merged >= 2


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


def solved(net):
    """``solve_network``'s objective and chains over ``net``, or its infeasibility message."""
    try:
        solution = chainsolve.solve_network(net)
    except InfeasibleError as exc:
        return str(exc)
    return solution.objective, solution.chains


def test_generated_connections_need_every_variant_of_their_generator():
    # a generator's own rows and variant tuple pass untouched; any other
    # tuple converts the rows one by one, each vehicle its own class: an
    # equal tuple or a superset builds rows that solve as the generator's
    # pairing does, and a tuple without one of its variants is refused
    dropped = supersets = solutions = 0
    for seed in range(6):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=5, vehicles=2, d_max_range=(1, 6)))
        for gen in (variantgen.generate(inst), variantgen.generate_exhaustive(inst)):
            assert gen.connections.variants is gen.variants
            own = build_network(inst, gen)
            assert own.connections is gen.connections
            expected = solved(own)
            unused = [VariantRef(p.id, d) for p in inst.plans for d in range(1, p.d_max + 1)]
            extra = [v for v in unused if v not in gen.variants][:1]
            supersets += len(extra)
            for variants in (tuple(list(gen.variants)), (*gen.variants, *extra)):
                if variants is gen.variants:  # the empty tuple is one object
                    continue
                net = build_network(inst, GenerationResult(variants, gen.connections))
                conns = net.connections
                assert conns is not gen.connections and conns.variants is variants and not conns.members.size
                assert list(conns) == list(gen.connections)
                assert solved(net) == expected
                solutions += isinstance(expected, tuple)
            for drop, ref in enumerate(gen.variants):
                fewer = gen.variants[:drop] + gen.variants[drop + 1 :]
                with pytest.raises(InputError, match=re.escape(f"endpoint {(ref.plan_id, ref.delay)} has no node")):
                    build_network(inst, GenerationResult(fewer, gen.connections))
                dropped += 1
    assert dropped >= 40 and supersets >= 4 and solutions >= 4, (dropped, supersets, solutions)


def test_hand_built_delayed_origins_need_a_node():
    # hand-built rows are checked one by one, at the origin as at the target
    inst = make_e1()
    gen = variantgen.generate(inst)
    stray = Connection(VariantRef(2, 3), VariantRef(1, 0), 0)
    with pytest.raises(InputError, match=re.escape("connection endpoint (2, 3) has no node")):
        build_network(inst, GenerationResult(gen.variants, (*gen.connections, stray)))
    known = Connection(VariantRef(2, 1), VariantRef(1, 0), 0)  # timing is not checked here
    assert len(build_network(inst, GenerationResult(gen.variants, (*gen.connections, known))).cell) == 4


def test_hand_built_delays_stay_within_the_delay_budget():
    # the open window [0, d_max] stands for the unrestricted root, so a
    # hand-built row may not name a delay past its plan's budget, even one
    # whose variant has a node
    inst = make_e1()  # plan 2 has d_max 3
    gen = variantgen.generate(inst)
    beyond = VariantRef(2, 4)
    for stray in (Connection(beyond, VariantRef(1, 0), 0), Connection(inst.vehicles[0], beyond, 0)):
        with pytest.raises(InputError, match=re.escape("connection endpoint (2, 4) lies outside its plan's delay budget")):
            build_network(inst, GenerationResult((*gen.variants, beyond), (*gen.connections, stray)))


@pytest.mark.parametrize(
    "variant, message",
    [
        (VariantRef(2, 9), "variant (2, 9) has a delay outside [1, 3]"),  # past plan 2's d_max
        (VariantRef(2, 0), "variant (2, 0) has a delay outside [1, 3]"),  # the base plan's own delay
        (VariantRef(7, 1), "variant (7, 1) is not in the instance"),
        (VariantRef(2, 1), "variant (2, 1) is repeated"),  # already generated
    ],
)
def test_malformed_variant_lists_are_refused(variant, message):
    # a variant list other than a generator's own tuple is checked at build,
    # with generated rows and with the same rows built by hand
    inst = make_e1()
    gen = variantgen.generate(inst)
    assert gen.variants == (VariantRef(2, 1),)
    for connections in (gen.connections, tuple(gen.connections)):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build_network(inst, GenerationResult((*gen.variants, variant), connections))


def test_huge_connection_cost_is_rejected():
    inst = make_e1()
    gen = variantgen.generate(inst)
    link = gen.connections[0]
    for cost in (1 << 59, 1 << 70):
        huge = Connection(link.origin, link.target, cost)
        with pytest.raises(InputError):
            solve_mcf(build_network(inst, GenerationResult(gen.variants, (*gen.connections, huge))))
    # the largest cost the fence admits on two plans still solves exactly;
    # its cell order key stays far inside int64
    largest = Connection(link.origin, link.target, (1 << 57) - 1)
    assert solve_mcf(build_network(inst, GenerationResult(gen.variants, (*gen.connections, largest)))).total_cost == 2


def test_negative_connection_cost_is_rejected():
    # the cold start and the infeasibility fence need costs of at least 0
    inst = make_e1()
    gen = variantgen.generate(inst)
    link = gen.connections[0]
    negative = Connection(link.origin, link.target, -5)
    with pytest.raises(InputError, match="^connection cost -5 is negative$"):
        build_network(inst, GenerationResult(gen.variants, (*gen.connections, negative)))
    zero = Connection(link.origin, link.target, 0)
    assert solve_mcf(build_network(inst, GenerationResult(gen.variants, (*gen.connections, zero)))).total_cost == 0


def _lexsorted_cells(net):
    conns = net.connections
    cell = conns.target * (len(net.plan_ids) + len(net.instance.vehicles)) + conns.origin
    return np.lexsort((np.arange(len(conns)), conns.cost, cell)).tolist()


def test_cell_order_is_the_lexsort_by_cell_cost_and_row():
    # hand-built connection lists: each generated link 9 dearer, and again,
    # and again, at tied, cheaper, dearer and 9 cheaper costs, in shuffled
    # order; no cost falls below 0
    rng = random.Random(5)
    for seed in range(40):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=5, vehicles=2, d_max_range=(0, 6)))
        gen = variantgen.generate(inst)
        links = [Connection(c.origin, c.target, c.cost + 9) for c in gen.connections]
        links += [Connection(c.origin, c.target, c.cost + rng.choice((-9, -1, 0, 0, 1, 7))) for c in links * 2]
        rng.shuffle(links)
        net = build_network(inst, GenerationResult(gen.variants, tuple(links)))
        assert net.cell_order.tolist() == _lexsorted_cells(net)
        assert len(set(net.cell.tolist())) < len(links) and (net.connections.cost < 9).any()


def test_cell_order_key_range_is_fenced():
    # the key cell * span + (cost - low) must stay below 2**63 on n x m cells.
    # Costs are at least 0 and, on two plans, below 2**57 (the cost fence),
    # so the key reaches 2**63 only on many cells: 2 x 64 cells admit a span
    # of up to 2**56 - 1.  With all costs far above 0 the key must count
    # costs from the lowest, or the last cells wrap past 2**63
    inst = make_e1(vehicles=[Vehicle(j, 0, 0) for j in range(1, 63)])
    gen = variantgen.generate(inst)
    top = (1 << 57) - 1
    for span, admitted in (((1 << 56) - 1, True), (1 << 56, False), (1 << 57, False)):
        links = [Connection(c.origin, c.target, top - r % 3) for r, c in enumerate(gen.connections)]
        links[0] = Connection(links[0].origin, links[0].target, top - span + 1)
        links.append(Connection(links[-1].origin, links[-1].target, top))  # into the last cell
        extended = GenerationResult(gen.variants, tuple(links))
        if admitted:
            net = build_network(inst, extended)
            assert int(net.connections.cost.max()) - int(net.connections.cost.min()) + 1 == span
            assert net.cell[-1] == 2 * 64 - 1 and len(net.plan_ids) * 64 * span == (1 << 63) - 128
            assert net.cell_order.tolist() == _lexsorted_cells(net)
        else:
            with pytest.raises(InputError, match="cell order"):
                build_network(inst, extended)


def test_e1_solve_and_active_edges():
    inst, net = build_e1_network()
    assignment = solve_mcf(net)
    assert assignment.total_cost == 2
    check_assignment_certificate(net, assignment)
    # by column: plan 1 -> plan 2 at delay 1, and the vehicle -> plan 1
    assert row_links(net.connections, assignment.rows).tolist() == [[0, 0, 1, 1, 2], [2, 0, 0, 0, 0]]
    # no vehicle shares a class, so a class row's edge is connection edge ``rows``:
    # left plan 1 -> right variant 2@1, and vehicle -> right plan 1
    active = net.edges[net.connection_edges.start + assignment.rows, :2]
    assert active.tolist() == [[1, 7], [5, 8]]
    # branching scores: plan 1 enters at 0 and leaves at 2, plan 2 enters at 2
    assert chainsolve._active_connection_costs(net, assignment.rows).tolist() == [2, 2]


def replaced(values, at, value):
    """A copy of ``values`` with position ``at`` set to ``value``."""
    values = values.copy()
    values[at] = value
    return values


def test_certificate_check_catches_broken_assignments():
    # each break of a certified relaxation fails the part of the check it
    # breaks: a chosen row swapped for an unusable one of its cell, a row
    # dropped, a column dual made positive, a row dual lowered (its chosen
    # row is no longer tight) or raised (above its chosen row's cost), and
    # a wrong total
    rng = random.Random(13)
    caught = dict.fromkeys(("unusable", "dropped", "v > 0", "u lowered", "u raised", "total"), 0)
    for seed in range(60):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12)))
        net = build_network(inst, variantgen.generate_exhaustive(inst))
        try:
            assignment = solve_mcf(net, random_window(net, rng))
        except FlowInfeasibleError:
            continue
        check_assignment_certificate(net, assignment)
        rows, state = assignment.rows, assignment.state
        i, j = rng.randrange(len(state.u)), rng.randrange(len(state.v))
        breaks = [
            ("dropped", "matching", assignment._replace(rows=rows[1:])),
            ("v > 0", "dual", assignment._replace(state=state._replace(v=replaced(state.v, j, 1)))),
            ("u lowered", "tightness", assignment._replace(state=state._replace(u=replaced(state.u, i, state.u[i] - 1)))),
            ("u raised", "dual", assignment._replace(state=state._replace(u=replaced(state.u, i, state.u[i] + 1)))),
            ("total", "objective", assignment._replace(total_cost=assignment.total_cost + 1)),
        ]
        # a row the window leaves unusable, in the class cell of a chosen row
        unusable = np.flatnonzero(~flownet._usable(net, assignment.window) & np.isin(net.cell, net.cell[rows]))
        if unusable.size:
            swap = rng.choice(unusable.tolist())
            at = net.cell[rows].tolist().index(net.cell[swap])
            swapped = assignment._replace(rows=replaced(rows, at, swap))
            breaks.append(("unusable", "matching: a chosen row is unusable", swapped))
        for kind, part, broken in breaks:
            with pytest.raises(AssertionError, match=f"^{part}"):
                check_assignment_certificate(net, broken)
            caught[kind] += 1
    assert min(caught.values()) >= 20, caught


def test_certificate_check_rejects_a_row_dual_raised_on_its_tight_cell():
    # a warm child's state with one row dual raised by 1 must be refused.  A
    # residual check of edge flows bounded by [0, 1] can accept it, as the
    # raised row's chosen edge is saturated: here it did in 9 of the 32
    # cases, all among those where that row has no other tight cell
    rng = random.Random(17)
    raised = alone = 0
    for seed in range(60):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12)))
        net = build_network(inst, variantgen.generate(inst))
        try:
            parent = solve_mcf(net)
        except FlowInfeasibleError:
            continue
        routed = {pid: delays for pid, delays in routed_delays(net).items() if delays}
        if not routed:
            continue
        pid = rng.choice(list(routed))
        window = force_variant(open_window(net), net, pid, rng.choice(routed[pid]))
        try:
            child = solve_mcf(net, window, parent.state)
        except FlowInfeasibleError:
            continue
        check_assignment_certificate(net, child)
        owner, u, v = child.state
        bumped = child._replace(state=child.state._replace(u=replaced(u, 0, u[0] + 1)))
        with pytest.raises(AssertionError, match="^dual: a usable row is below its duals"):
            check_assignment_certificate(net, bumped)
        matrix = flownet._assignment_matrix(net, window)[0]
        alone += int((matrix[0] == u[0] + v).sum()) == 1
        raised += 1
    assert raised >= 30 and alone >= 5, (raised, alone)


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
        check_assignment_certificate(net, assignment)
        vehicle_rows = int((assignment.state.columns >= len(inst.plans)).sum())
        assert vehicle_rows == len(inst.plans) - (len(inst.plans) - oracle.fleet_min_matching(inst))


def open_window(net):
    """Every plan's window: 0 to its delay budget."""
    return np.array([[0] * len(net.plan_ids), [p.d_max for p in net.instance.plans]], dtype=np.int64)


def force_variant(window, net, pid, delay):
    """``window`` with plan ``pid`` held to one delay."""
    window = window.copy()
    window[:, np.searchsorted(net.plan_ids, pid)] = delay
    return window


def test_closed_window_names_the_starved_plan():
    _, net = build_e1_network()
    window = open_window(net)
    assert solve_mcf(net, window).total_cost == 2
    # plan 2 is routed at delays 0 and 1 only: a window past both starves it
    with pytest.raises(FlowInfeasibleError) as err:
        solve_mcf(net, force_variant(window, net, 2, 2))
    assert err.value.plan_id == 2
    # held to delay 0, plan 2 cannot follow plan 1 and the only vehicle is taken
    with pytest.raises(FlowInfeasibleError):
        solve_mcf(net, force_variant(window, net, 2, 0))


def test_warm_starts_name_the_lowest_starved_plan(monkeypatch):
    # an empty window starves its plan, and maybe the plans only it reaches:
    # a warm start from the root frees every starved plan's row, and the solve
    # names the lowest-id starved plan as unreachable, as a cold solve does
    rng = random.Random(7)
    warm = 0
    for refill_rows in (0, flownet._REFILL_ROWS):  # refilled live matrices, and full fills
        monkeypatch.setattr(flownet, "_REFILL_ROWS", refill_rows)
        for seed in range(30):
            inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=4, d_max_range=(0, 12)))
            net = build_network(inst, variantgen.generate(inst))
            try:
                root = solve_mcf(net)
            except FlowInfeasibleError:
                continue
            for count in (1, 2):
                window = open_window(net)
                window[:, rng.sample(range(len(net.plan_ids)), count)] = [[1], [0]]
                matrix = flownet._assignment_matrix(net, window)[0]
                starved = net.plan_ids[(matrix == flownet.NO_EDGE).all(axis=1)].tolist()
                for start in (root.state, None):
                    with pytest.raises(FlowInfeasibleError, match="its right node is unreachable") as err:
                        solve_mcf(net, window, start)
                    assert err.value.plan_id == starved[0]
                warm += 1
    assert warm >= 80, warm


def test_certificate_holds_with_forced_variants():
    feasible = 0
    for seed in range(120):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=7, vehicles=3, d_max_range=(0, 12)))
        net = build_network(inst, variantgen.generate(inst))
        rng = random.Random(seed)
        window = open_window(net)
        for pid, delays in routed_delays(net).items():
            if delays and rng.random() < 0.5:
                window = force_variant(window, net, pid, rng.choice(delays))
        try:
            assignment = solve_mcf(net, window)
        except FlowInfeasibleError:
            continue
        feasible += 1
        check_assignment_certificate(net, assignment)
    assert feasible >= 30


def freed_below_zero(net, state, window):
    """Columns a warm start from ``state`` frees that keep a negative dual.

    A column is freed when its row's cell is no longer tight under the
    window's costs.
    """
    matrix = flownet._assignment_matrix(net, window)[0]
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
        routed = {pid: delays for pid, delays in routed_delays(net).items() if delays}
        window = open_window(net)
        for pid in rng.sample(list(routed), len(routed)):
            window = force_variant(window, net, pid, rng.choice(routed[pid]))
            freed += freed_below_zero(net, parent.state, window)
            try:
                cold = solve_mcf(net, window)
            except FlowInfeasibleError:
                with pytest.raises(FlowInfeasibleError):
                    solve_mcf(net, window, parent.state)
                infeasible += 1
                break
            warm = solve_mcf(net, window, parent.state)
            assert warm.total_cost == cold.total_cost
            check_assignment_certificate(net, warm)
            check_assignment_certificate(net, cold)
            compared += 1
            parent = warm
    assert compared >= 100 and infeasible >= 20 and freed >= 20


def test_start_must_be_dual_feasible():
    _, net = build_e1_network()
    state = solve_mcf(net).state
    assert solve_mcf(net, None, state).total_cost == 2  # its own optimum is a valid start
    for bad in (state._replace(v=state.v + 1), state._replace(u=state.u + 1)):
        with pytest.raises(ValueError):
            solve_mcf(net, None, bad)


def generated_network(**params):
    inst = chain_instance_from_params(ChainGenParams(**params))
    return build_network(inst, variantgen.generate(inst))


def test_a_start_whose_row_owns_two_columns_is_refused():
    # the root's row 0 also owns a free column that is tight for it: the
    # kernels would keep both cells and return 4 rows for 3 plans at cost 16
    net = generated_network(seed=1, plans=3, vehicles=3)
    root = solve_mcf(net)
    assert root.total_cost == 12
    owner, u, v = root.state
    matrix = flownet._assignment_matrix(net, None)[0]
    free = np.flatnonzero((owner < 0) & (matrix[0] == u[0] + v))
    assert len(free)
    start = root.state._replace(owner=np.where(np.arange(len(owner)) == free[0], 0, owner))
    with pytest.raises(InputError, match=r"^a warm start must give each row at most one column$"):
        solve_mcf(net, None, start)


def test_a_start_with_duals_shifted_by_a_constant_is_refused():
    # u + c and v - c keep every cell's reduced cost, but leave no free
    # column at v == 0 for the slack pseudo-row: re-solved with plan index 0
    # held at delay 0, the kernels would stop at cost 12 against the cold 10
    net = generated_network(seed=16, plans=6, vehicles=4, horizon=40, d_max_range=(2, 10))
    root = solve_mcf(net)
    window = open_window(net)
    window[:, 0] = 0
    assert solve_mcf(net, window).total_cost == 10
    assert 6 * net.max_cost < 1000  # so 1000 is past the fence, and 1 and 50 are within it
    for shift in (1000, 1, 50):
        start = root.state._replace(u=root.state.u + shift, v=root.state.v - shift)
        with pytest.raises(ValueError, match="^the start state is not dual feasible for this cost matrix$"):
            solve_mcf(net, window, start)
    assert solve_mcf(net, window, root.state).total_cost == 10


def test_a_start_with_a_dual_past_the_fence_is_refused():
    # held at delay 8, plan index 0 is starved; a start that assigns it to a
    # no-edge cell at u = NO_EDGE is tight there and would be kept, so the
    # starved plan would be reported as a Hall violation of plan 2
    net = generated_network(seed=0, plans=5, vehicles=3, horizon=40, d_max_range=(2, 8))
    window = open_window(net)
    window[:, 0] = 8
    with pytest.raises(FlowInfeasibleError, match="^no chain can reach plan 1: its right node is unreachable$"):
        solve_mcf(net, window)
    n, m = 5, 8
    start = flownet.HungarianState(
        np.where(np.arange(m) == 0, 0, -1), np.where(np.arange(n) == 0, flownet.NO_EDGE, 0), np.zeros(m, dtype=np.int64)
    )
    with pytest.raises(ValueError, match="^the start state is not dual feasible for this cost matrix$"):
        solve_mcf(net, window, start)


def random_start(matrix, solved, limit, rng):
    """A warm start to try on ``matrix``, some breaking the rule on purpose.

    Either ``solved`` (a root state, or None) shifted by a constant, most
    often 0; or a partial matching with repeated rows and, at times, an
    owner out of range, over ``v <= 0`` with few or many zero columns and
    a few past the fence, and ``u`` at or below the reduced row minima
    (mostly capped at the fence), sometimes far below or one above.
    """
    n, m = matrix.shape
    if solved is not None and rng.random() < 0.3:
        shift = int(rng.choice([0, 0, 0, 1, -1, int(rng.integers(2, 2 * limit + 3))]))
        return solved._replace(u=solved.u + shift, v=solved.v - shift)
    v = -rng.integers(0, limit + 2, m)
    v[rng.random(m) < rng.uniform(0.3, 1)] = 0
    reduced = matrix - v
    u = reduced.min(axis=1, initial=flownet.NO_EDGE)
    if rng.random() < 0.8:  # a starved row's minimum is past the fence
        u = np.minimum(u, limit)
    u -= rng.integers(0, 3, n) * (rng.random(n) < 0.3)
    u[rng.random(n) < 0.03] -= 2 * limit + 1
    u[rng.random(n) < 0.03] += 1
    owner = np.full(m, -1)
    for i in rng.permutation(n)[: rng.integers(0, n + 1)].tolist():
        for _ in range(1 + (rng.random() < 0.1)):  # now and then a row gets two columns
            tight = np.flatnonzero((owner < 0) & (reduced[i] == u[i]))
            owner[rng.choice(tight) if len(tight) and rng.random() < 0.9 else rng.integers(m)] = i
    if rng.random() < 0.03:
        owner[rng.integers(m)] = rng.choice([-2, n])
    return flownet.HungarianState(owner, u, v)


@pytest.mark.parametrize("list_cells", [flownet._LIST_CELLS, 0], ids=["lists", "arrays"])
def test_warm_starts_are_refused_exactly_when_they_break_the_rule(monkeypatch, list_cells):
    # a start ``warm_start_fault`` finds fault with must be refused with its
    # error; any other must reach the cold optimum with a valid certificate,
    # or the cold solve's infeasibility (a starved plan named alike)
    monkeypatch.setattr(flownet, "_LIST_CELLS", list_cells)
    seen = dict.fromkeys((InputError, ValueError, "solved", "random", "infeasible"), 0)
    rng, draws = np.random.default_rng(41), random.Random(41)
    for seed in range(60):
        net = generated_network(seed=seed, plans=draws.randint(1, 6), vehicles=draws.randint(1, 3), d_max_range=(0, 12))
        limit = len(net.plan_ids) * max(net.connections.cost.tolist(), default=0)
        try:
            root = solve_mcf(net).state
        except FlowInfeasibleError:
            root = None
        for _ in range(25):
            window = random_window(net, draws)
            matrix = assignment_matrix_reference(net, window)[0]
            start = random_start(matrix, root, limit, rng)
            fault = warm_start_fault(matrix, limit, start)
            if fault is not None:
                with pytest.raises(fault):
                    solve_mcf(net, window, start)
                seen[fault] += 1
                continue
            try:
                cold = solve_mcf(net, window)
            except FlowInfeasibleError as exc:
                with pytest.raises(FlowInfeasibleError) as err:
                    solve_mcf(net, window, start)
                if "unreachable" in str(exc):
                    assert str(err.value) == str(exc)
                seen["infeasible"] += 1
                continue
            warm = solve_mcf(net, window, start)
            assert warm.total_cost == cold.total_cost
            check_assignment_certificate(net, warm)
            seen["solved" if root is not None and start.owner is root.owner else "random"] += 1
    assert min(seen.values()) >= 20, seen


def random_window(net, rng):
    """Each plan's window, at random: open, between two of its routed delays, or any sub-range of 0..d_max + 1."""
    window, routed = open_window(net), routed_delays(net)
    for i, plan in enumerate(net.instance.plans):
        roll, delays = rng.random(), routed[plan.id] or (0,)
        if roll < 0.5:
            window[:, i] = sorted(rng.choice(delays) for _ in range(2))
        elif roll < 0.6:
            window[:, i] = sorted(rng.randint(0, plan.d_max + 1) for _ in range(2))
    return window


def test_row_matrix_matches_the_edge_level_reference():
    # random windows; the row-level usability test must rebuild the matrix
    # of the reference, which closes both structural edges of each variant
    # outside the window and cuts the nodes past them
    rng = random.Random(23)
    windows = changed = solved = 0
    for seed in range(150):
        params = ChainGenParams(seed=seed, plans=rng.randint(1, 7), vehicles=rng.randint(1, 3), d_max_range=(0, 12))
        inst = chain_instance_from_params(params)
        net = build_network(inst, variantgen.generate(inst))
        unrestricted = flownet._assignment_matrix(net, None)[0].copy()  # the live matrix moves with every window
        assert unrestricted.tolist() == flownet._assignment_matrix(net, open_window(net))[0].tolist()
        for _ in range(2):
            window = random_window(net, rng)
            matrix, link_at = per_vehicle_matrix(net, window)
            reference, edge_at = assignment_matrix_reference(net, window)
            assert matrix.tolist() == reference.tolist()
            assert link_at.tolist() == edge_links(net, edge_at).tolist()
            windows += 1
            changed += bool((matrix != unrestricted).any())
            try:
                assignment = solve_mcf(net, window)
            except FlowInfeasibleError as exc:
                starved = net.plan_ids[(matrix == flownet.NO_EDGE).all(axis=1)].tolist()
                if starved:  # the lowest-id plan without a usable row into it
                    assert exc.plan_id == starved[0]
                continue
            solved += 1
            check_assignment_certificate(net, assignment)
    assert windows >= 150 and changed >= 100 and solved >= 100, (windows, changed, solved)


def test_branching_solve_never_builds_the_edge_view(monkeypatch):
    inst = chain_instance_from_params(ChainGenParams(seed=60, plans=3, vehicles=2, d_max_range=(0, 12)))
    with solves_without_the_edge_view(monkeypatch) as built:
        solution = chainsolve.solve_chaining(inst)
    assert (solution.stats.nodes_explored, solution.stats.relaxations_solved) == (2, 3)
    (net,) = built
    assert "edges" not in vars(net)
    # derived on first access, the view holds the edges an eager build made
    assert net.edges.tolist() == [
        [0, 1, 0], [0, 2, 0], [0, 3, 0], [0, 6, 0], [0, 7, 0], [3, 4, 0], [3, 5, 0],
        [1, 9, 0], [4, 10, 0], [6, 10, 16], [6, 11, 0], [6, 8, 16], [7, 10, 6], [7, 11, 14], [7, 8, 6],
        [8, 12, 0], [9, 12, 0], [10, 13, 0], [11, 13, 0], [12, 13, 0],
    ]


def test_infeasibility_messages_tell_a_starved_plan_from_a_hall_violation():
    # plan 4 has usable cells in columns 2 and 4, but the other plans need both
    inst = chain_instance_from_params(ChainGenParams(seed=1, plans=4, vehicles=1))
    net = build_network(inst, variantgen.generate(inst))
    matrix = flownet._assignment_matrix(net, None)[0]
    assert (matrix[3] != flownet.NO_EDGE).nonzero()[0].tolist() == [2, 4]
    hall = "no assignment of origins covers every plan (found while assigning plan {})"
    with pytest.raises(FlowInfeasibleError, match=re.escape(hall.format(4))) as err:
        solve_mcf(net)
    assert err.value.plan_id == 4
    # e1 with plan 2 held at delay 0: the vehicle reaches plan 2, but plan 1 needs it too
    _, net = build_e1_network()
    with pytest.raises(FlowInfeasibleError, match=re.escape(hall.format(2))):
        solve_mcf(net, force_variant(open_window(net), net, 2, 0))
    # held past both of its routed delays, plan 2 has no usable incoming connection
    with pytest.raises(FlowInfeasibleError, match="^no chain can reach plan 2: its right node is unreachable$"):
        solve_mcf(net, force_variant(open_window(net), net, 2, 2))


def zero_duals(owner, n):
    """A start with these owners and zero duals: the cold solve's ``v``, but not its row reduction."""
    m = len(owner)
    return flownet.HungarianState(np.array(owner, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64))


def certified_cost(cost, state):
    """The assignment's cost, after checking that ``state`` is an optimal one (``HungarianState``'s contract)."""
    owner, u, v = state
    cols = np.flatnonzero(owner >= 0)
    rows = owner[cols]
    assert sorted(rows.tolist()) == list(range(cost.shape[0]))
    assert (cost - v >= u[:, None]).all()  # dual feasible
    assert (cost[rows, cols] == u[rows] + v[cols]).all()  # tight on the assignment
    assert (v <= 0).all() and (v[owner < 0] == 0).all()
    return int(cost[rows, cols].sum())


KERNELS = pytest.mark.parametrize(
    "kernel", [flownet._hungarian_arrays, flownet._hungarian_lists], ids=["arrays", "lists"]
)


@KERNELS
def test_kernel_matches_scipy_on_random_matrices(kernel):
    from scipy.optimize import linear_sum_assignment

    def scipy_optimum(cost):
        try:
            rows, cols = linear_sum_assignment(np.where(cost == flownet.NO_EDGE, np.inf, cost))
        except ValueError:  # every assignment needs a no-edge cell
            return None
        return int(cost[rows, cols].sum())

    def solve(cost, start):
        n, largest = cost.shape[0], int(cost[cost < flownet.NO_EDGE].max(initial=0))
        try:
            return kernel(cost, n * largest, np.arange(1, n + 1), start)
        except FlowInfeasibleError:
            return None

    rng = np.random.default_rng(7)
    shapes = [(500, 700)] + [(n, n + int(rng.integers(0, 4))) for n in rng.integers(0, 9, 250).tolist()]
    solved = infeasible = warm = freed = 0
    for n, m in shapes:
        cost = rng.integers(0, 4, (n, m))  # costs 0..3, so ties are common
        cost[rng.random((n, m)) < rng.uniform(0, 0.5)] = flownet.NO_EDGE
        state = solve(cost, None)
        optimum = scipy_optimum(cost)
        assert (state is None) == (optimum is None)
        if state is None:
            infeasible += 1
            continue
        assert certified_cost(cost, state) == optimum
        solved += 1
        # raise random cells from the solved state, as a narrower window does, and re-solve warm
        for _ in range(3):
            raised = cost.copy()
            bump = rng.random((n, m)) < 0.2
            raised[bump] = np.minimum(raised[bump] + rng.integers(1, 3, (n, m))[bump], flownet.NO_EDGE)
            raised[rng.random((n, m)) < 0.05] = flownet.NO_EDGE
            assigned = np.flatnonzero(state.owner >= 0)
            rows = state.owner[assigned]
            untight = assigned[raised[rows, assigned] != state.u[rows] + state.v[assigned]]
            freed += int((state.v[untight] < 0).sum())
            again = solve(raised, state)
            optimum = scipy_optimum(raised)
            assert (again is None) == (optimum is None)
            if again is None:
                infeasible += 1
                break
            assert certified_cost(raised, again) == optimum
            cost, state = raised, again
            warm += 1
    assert solved >= 200 and warm >= 600 and infeasible >= 15 and freed >= 100, (solved, warm, infeasible, freed)


@KERNELS
def test_resolving_from_an_optimal_state_changes_nothing(kernel):
    rng = np.random.default_rng(3)
    for n, m in ((0, 0), (1, 1), (4, 7), (9, 9), (40, 60)):
        cost = rng.integers(0, 5, (n, m))
        state = kernel(cost, 4 * n, np.arange(n), None)
        again = kernel(cost, 4 * n, np.arange(n), state)
        for part, same in zip(state, again):
            assert part.tolist() == same.tolist()
    _, net = build_e1_network()
    first = solve_mcf(net)
    second = solve_mcf(net, None, first.state)
    assert [p.tolist() for p in first.state] == [p.tolist() for p in second.state]
    assert second.rows.tolist() == first.rows.tolist()


@KERNELS
def test_only_the_empty_state_is_pre_assigned(kernel):
    # a cold solve (start None) row-reduces, then each row in turn takes its first free tight column
    cost = np.array([[0, 0, 5], [0, 3, 0]], dtype=np.int64)
    cold = kernel(cost, 10, np.arange(2), None)
    assert cold.owner.tolist() == [0, -1, 1]
    # a start with an assignment keeps its tight cells, even with zero duals
    warm = kernel(cost, 10, np.arange(2), zero_duals([-1, 0, 1], 2))
    assert warm.owner.tolist() == [-1, 0, 1]
    assert certified_cost(cost, warm) == certified_cost(cost, cold) == 0
    # a partial start keeps row 0 on column 1; row 1's search ends at the lowest free column of its level
    assert kernel(cost, 10, np.arange(2), zero_duals([-1, 0, -1], 2)).owner.tolist() == [1, 0, -1]
    # an explicit empty state is a warm start like any other: every row is searched, none pre-assigned,
    # and here it ends at another of the tied optima than the cold solve
    cost = np.array([[1, 1, 0], [2, 2, 0], [0, 0, 2]], dtype=np.int64)
    cold = kernel(cost, 6, np.arange(3), None)
    warm = kernel(cost, 6, np.arange(3), zero_duals([-1, -1, -1], 3))
    assert (cold.owner.tolist(), warm.owner.tolist()) == ([2, 0, 1], [0, 2, 1])
    assert certified_cost(cost, cold) == certified_cost(cost, warm) == 1


def test_list_and_array_kernels_agree():
    # ``_hungarian`` picks a kernel by cell count alone, so both must give the
    # same state, or raise the same error with the same message, on any start
    # that ``solve_mcf`` lets through (None, or a solved state)
    seen = dict.fromkeys(("cold", "warm", "above cutoff", "freed v < 0", "starved", "fence"), 0)

    def solve_both(cost, limit, start):
        """The array kernel's state, or None where it raised; the list kernel must do exactly the same."""
        outcomes = []
        for kernel in (flownet._hungarian_arrays, flownet._hungarian_lists):
            try:
                state = kernel(cost, limit, np.arange(1, cost.shape[0] + 1), start)
            except FlowInfeasibleError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append(tuple((part.dtype, part.tolist()) for part in state))
        assert outcomes[0] == outcomes[1], (cost, limit, start)
        kind, message = outcomes[0][:2]
        if kind is FlowInfeasibleError:
            seen["starved" if "unreachable" in message else "fence"] += 1
            return None
        return flownet.HungarianState(*(np.array(values, dtype=dtype) for dtype, values in outcomes[0]))

    rng = np.random.default_rng(29)
    side = int(flownet._LIST_CELLS**0.5) + 2  # square matrices of up to side**2 cells reach past the cutoff
    for _ in range(400):
        n = int(rng.integers(0, side + 1))
        m = n + int(rng.integers(0, 4))
        cost = rng.integers(0, int(rng.integers(1, 5)), (n, m))  # few distinct costs, so ties are common
        cost[rng.random((n, m)) < rng.uniform(0, 0.5)] = flownet.NO_EDGE
        limit = n * int(cost[cost < flownet.NO_EDGE].max(initial=0))
        if rng.random() < 0.2:  # a fence below the optimum stops some search early
            limit = int(rng.integers(0, limit + 1))
        seen["above cutoff"] += cost.size >= flownet._LIST_CELLS
        seen["cold"] += 1
        state = solve_both(cost, limit, None)
        for _ in range(4):  # raise cells of the solved state, as a narrower window does, and re-solve warm
            if state is None:
                break
            raised = cost.copy()
            bump = rng.random((n, m)) < 0.2
            raised[bump] = np.minimum(raised[bump] + rng.integers(1, 3, (n, m))[bump], flownet.NO_EDGE)
            raised[rng.random((n, m)) < 0.05] = flownet.NO_EDGE
            if n and rng.random() < 0.05:
                raised[rng.integers(n)] = flownet.NO_EDGE  # a starved row
            assigned = np.flatnonzero(state.owner >= 0)
            rows = state.owner[assigned]
            untight = assigned[raised[rows, assigned] != state.u[rows] + state.v[assigned]]
            seen["freed v < 0"] += int((state.v[untight] < 0).sum())
            seen["warm"] += 1
            cost, state = raised, solve_both(raised, limit, state)
    assert min(seen.values()) >= 40 and seen["warm"] >= 800, seen


def test_row_matrix_matches_the_edge_level_reference_on_shared_vehicle_classes():
    # the matrix fills a class's column from its representative's rows and
    # copies it to every member; read from the per-vehicle edges, the
    # reference must find the same cost and connection in every cell
    rng = random.Random(31)
    copied = 0
    for seed in range(80):
        inst = shared_class_instance(seed)
        gen = (variantgen.generate, variantgen.generate_exhaustive)[seed % 2](inst)
        net = build_network(inst, gen)
        member = len(inst.plans) + net.connections.members
        for window in (None, random_window(net, rng), random_window(net, rng)):
            matrix, link_at = per_vehicle_matrix(net, window)
            reference, edge_at = assignment_matrix_reference(net, open_window(net) if window is None else window)
            assert matrix.tolist() == reference.tolist()
            assert link_at.tolist() == edge_links(net, edge_at).tolist()
            assert (matrix[:, member] == matrix[:, net.connections.column_class[member]]).all()
            copied += int((matrix[:, member] != flownet.NO_EDGE).sum())
    assert copied >= 500


def test_hand_built_connections_are_never_merged_into_classes():
    # two vehicles at one place and time, each given its own link by hand:
    # a hand-built list keeps every vehicle its own class, so vehicle 2
    # keeps the only link into plan 2 and both plans are covered
    travel = TravelMatrix([[0, 30], [30, 0]])
    plans = (Plan(1, 0, 0, 0, 5, 0), Plan(2, 1, 1, 40, 45, 0))
    vehicles = (Vehicle(1, 0, 0), Vehicle(2, 0, 0))
    inst = ChainingInstance(plans, vehicles, travel, TravelCost())
    assert variantgen.generate(inst).connections.members.tolist() == [1]  # generation merges them
    links = (Connection(vehicles[0], VariantRef(1, 0), 0), Connection(vehicles[1], VariantRef(2, 0), 30))
    net = build_network(inst, GenerationResult((), links))
    assert net.connections.column_class.tolist() == [0, 1, 2, 3] and not net.connections.members.size
    matrix = flownet._assignment_matrix(net, None)[0]
    assert matrix[:, 2:].tolist() == [[0, flownet.NO_EDGE], [flownet.NO_EDGE, 30]]
    solution = chainsolve.solve_network(net)
    assert solution.objective == 30
    assert [(c.vehicle.id, c.elements) for c in solution.chains] == [(1, (VariantRef(1, 0),)), (2, (VariantRef(2, 0),))]


def fresh_matrix(net, window):
    """``per_vehicle_matrix`` of a new network over ``net``'s rows, and the cells and rows its full fill chose."""
    fresh = build_network(net.instance, GenerationResult(net.connections.variants, net.connections))
    filled = flownet._assignment_matrix(fresh, window)[1]
    return (*per_vehicle_matrix(fresh, window), filled)


def assert_live_matrix_is_fresh(net, window, assignment=None):
    """The live matrix, the row of every usable cell and ``assignment``'s chosen rows equal a fresh network's."""
    matrix, link_at = per_vehicle_matrix(net, window)  # the window it holds: the live matrix as it is
    fresh, fresh_link_at, (cells, rows) = fresh_matrix(net, window)
    assert matrix.tolist() == fresh.tolist()
    assert link_at.tolist() == fresh_link_at.tolist()
    if assignment is not None:
        cols = np.flatnonzero(assignment.state.owner >= 0)
        m = matrix.shape[1]
        chosen = rows[cells.searchsorted(assignment.state.owner[cols] * m + net.connections.column_class[cols])]
        assert assignment.rows.tolist() == chosen.tolist()


def hook_live_matrix_checks(monkeypatch, counts):
    """Check the live matrix and the certificate after every relaxation ``chainsolve`` runs.

    Counts the relaxations, the infeasible ones, the refills and those with members.
    """
    solve = chainsolve.solve_mcf

    def checked(network, window=None, start=None):
        refill = network._live is not None
        assignment = None
        try:
            assignment = solve(network, window, start)
        except FlowInfeasibleError:
            counts["infeasible"] += 1
            raise
        finally:
            assert_live_matrix_is_fresh(network, window, assignment)
            if assignment is not None:
                check_assignment_certificate(network, assignment)
            counts["relaxations"] += 1
            counts["refills"] += refill
            counts["member_refills"] += refill and bool(network.connections.members.size)
        return assignment

    monkeypatch.setattr(chainsolve, "solve_mcf", checked)


def test_live_matrix_follows_real_search_paths(monkeypatch):
    # every network keeps a live matrix here, however small; after each
    # relaxation of a branching search, the matrix and the rows the
    # relaxation chose must equal those of a fresh network for that window
    monkeypatch.setattr(flownet, "_REFILL_ROWS", 0)
    counts = dict.fromkeys(("relaxations", "refills", "member_refills", "infeasible"), 0)
    hook_live_matrix_checks(monkeypatch, counts)
    for seed in range(60):
        shared = shared_class_instance(seed)
        plain = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=3, d_max_range=(0, 12)))
        for inst, generator in ((shared, variantgen.generate), (shared, variantgen.generate_exhaustive),
                                (plain, variantgen.generate), (plain, variantgen.generate_exhaustive)):
            try:
                chainsolve.solve_network(build_network(inst, generator(inst)))
            except InfeasibleError:
                pass
    assert counts["refills"] >= 300 and counts["member_refills"] >= 150 and counts["infeasible"] >= 100, counts


def test_live_matrix_follows_the_deep_twelve_plan_search(monkeypatch):
    # the 12-plan search of ``test_deep_window_search_on_twelve_plans``, one network and 2,627 relaxations
    monkeypatch.setattr(flownet, "_REFILL_ROWS", 0)
    counts = dict.fromkeys(("relaxations", "refills", "member_refills", "infeasible"), 0)
    hook_live_matrix_checks(monkeypatch, counts)
    params = ChainGenParams(
        seed=502, plans=12, vehicles=3, locations=8, horizon=220, d_max_range=(0, 10),
        policy=TravelCostWaitPenalized(Fraction(2, 3)),
    )
    solution = chainsolve.solve_chaining(chain_instance_from_params(params))
    assert solution.objective == 317
    assert (solution.stats.nodes_explored, solution.stats.relaxations_solved) == (1314, 2627)
    assert counts["relaxations"] == 2627 and counts["refills"] == 2626, counts


@pytest.mark.parametrize("case", ["large", "shared"])
def test_live_matrix_moves_through_repeated_widened_and_root_windows(monkeypatch, case):
    # one window array, changed in place between calls as a caller may, is
    # repeated, narrowed, widened and dropped for the root's None; the
    # network must hold a copy of each window it fills, and below
    # ``_REFILL_ROWS`` class rows fill every cell on every call
    if case == "large":
        params = ChainGenParams(
            seed=502, plans=20, vehicles=5, locations=8, horizon=366, d_max_range=(0, 10),
            policy=TravelCostWaitPenalized(Fraction(2, 3)),
        )
        insts = [chain_instance_from_params(params)]
    else:
        monkeypatch.setattr(flownet, "_REFILL_ROWS", 0)
        insts = [shared_class_instance(seed) for seed in range(24)]
    rng = random.Random(41)
    moves = widened = 0
    for inst in insts:
        net = build_network(inst, variantgen.generate_exhaustive(inst))
        assert len(net.connections.cost) >= flownet._REFILL_ROWS
        window = open_window(net)
        delays = list(routed_delays(net).values())
        routed = [i for i, d in enumerate(delays) if d] or [0]
        for step in range(16):
            previous = window.copy()
            if step % 4 == 1:  # one plan held to a routed delay
                i = rng.choice(routed)
                window[:, i] = rng.choice(delays[i] or (0,))
            elif step % 4 == 2:  # the same window again, then a plan widened back
                assert_live_matrix_is_fresh(net, window)
                i = int(np.flatnonzero((window != open_window(net)).any(axis=0))[0])
                window[:, i] = open_window(net)[:, i]
            elif step % 4 == 3:  # a jump: a random window over every plan
                window[:] = random_window(net, rng)
            target = None if step % 4 == 0 else window
            flownet._assignment_matrix(net, target)
            held = net._live[1]  # a copy of the window, or the network's open window for None
            assert held is not window and held.dtype == np.int64
            assert held.tolist() == (open_window(net) if target is None else target).tolist()
            assert_live_matrix_is_fresh(net, target)
            moves += 1
            widened += bool((window[0] < previous[0]).any() or (window[1] > previous[1]).any())
    assert moves >= 16 and widened >= moves // 4, (moves, widened)
    small = build_e1_network()[1]
    monkeypatch.setattr(flownet, "_REFILL_ROWS", len(small.connections.cost) + 1)
    for _ in range(2):
        assert flownet._assignment_matrix(small, open_window(small))[1] is not None


def test_window_must_be_an_integer_array_of_two_rows_per_plan(monkeypatch):
    # a malformed window is refused before the live matrix moves; a (2, 1)
    # window would otherwise broadcast over both plans of e1
    monkeypatch.setattr(flownet, "_REFILL_ROWS", 0)
    _, net = build_e1_network()
    good = force_variant(open_window(net), net, 2, 1)
    assert solve_mcf(net, good).total_cost == 2
    live = net._live
    held = [part.copy() for part in live]
    message = re.escape("a delay window must be an integer array of shape (2, 2)")
    for bad in (good[:, :1], np.zeros((3, 2), dtype=np.int64), good.astype(float), good.tolist(), good > 0):
        with pytest.raises(InputError, match=message):
            solve_mcf(net, bad)
        assert net._live is live and all((a == b).all() for a, b in zip(live, held))
    assert solve_mcf(net, good.astype(np.int32)).total_cost == 2


def test_window_is_compared_in_int64_whatever_its_integer_type():
    # plan 2 has a variant at delay 2**53 + 1, which float64 rounds to the
    # window's 2**53: the window must close it as int64 and as uint64 alike
    late = 2**53 + 1
    vehicle = Vehicle(1, 0, 0)
    plans = (Plan(1, 0, 0, 0, 0, 0), Plan(2, 0, 0, 10, 10, late))
    inst = ChainingInstance(plans, (vehicle,), TravelMatrix([[0]]), TravelCost())
    links = (
        Connection(vehicle, VariantRef(1, 0), 0),
        Connection(VariantRef(1, 0), VariantRef(2, 0), 10),
        Connection(VariantRef(1, 0), VariantRef(2, late), 1),
    )
    net = build_network(inst, GenerationResult((VariantRef(2, late),), links))
    assert net.open_window.tolist() == [[0, 0], [0, late]] and not net.open_window.flags.writeable
    assert solve_mcf(net).total_cost == solve_mcf(net, net.open_window).total_cost == 1
    window = np.array([[0, 0], [0, 2**53]], dtype=np.int64)
    for dtype in (np.int64, np.uint64, np.int64):
        assignment = solve_mcf(net, window.astype(dtype))
        assert assignment.total_cost == 10
        assert assignment.rows.tolist() == [1, 0]  # by column: plan 1 -> plan 2 at delay 0, vehicle -> plan 1
        assert assignment.window.dtype == np.int64
    message = re.escape("a delay window must be an integer array of shape (2, 2) in the int64 range")
    for bad in (2**63, 2**64 - 1):
        with pytest.raises(InputError, match=message):
            solve_mcf(net, np.array([[0, 0], [0, bad]], dtype=np.uint64))
    assert solve_mcf(net, np.array([[0, 0], [0, 2**63 - 1]], dtype=np.uint64)).total_cost == 1


def test_malformed_warm_starts_are_input_errors(monkeypatch):
    # refused before the live matrix moves, each by its message; a well-formed
    # start that is not dual feasible stays a ValueError
    monkeypatch.setattr(flownet, "_REFILL_ROWS", 0)
    _, net = build_e1_network()
    state = solve_mcf(net).state
    window = force_variant(open_window(net), net, 2, 1)
    assert solve_mcf(net, window, state).total_cost == 2
    live = net._live
    held = [part.copy() for part in live]
    shapes = re.escape("a warm start must be a HungarianState of signed integer arrays of shapes (3,), (2,), (3,)")
    owners = re.escape("a warm start's owners must lie in [-1, 2)")
    twice = "a warm start must give each row at most one column"
    for bad, message in (
        (tuple(state), shapes),
        (state._replace(owner=state.owner[:2]), shapes),
        (state._replace(u=np.zeros(5, dtype=np.int64)), shapes),
        (state._replace(v=state.v.astype(float)), shapes),
        (state._replace(owner=state.owner.astype(np.uint64)), shapes),
        (state._replace(u=state.u.tolist()), shapes),
        (state._replace(owner=np.array([5, -1, -1])), owners),
        (state._replace(owner=np.array([0, -2, 1])), owners),
        (flownet.HungarianState(np.array([-2, -1, -1]), np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)), owners),
        (flownet.HungarianState(np.array([1, 1, -1]), np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)), twice),
    ):
        with pytest.raises(InputError, match=f"^{message}$"):
            solve_mcf(net, window, bad)
        assert net._live is live and all((a == b).all() for a, b in zip(live, held))
    # each of the dual rule's parts: v <= 0, u + v <= cost, a free column at
    # v == 0 for the slack, and both duals within n * max cost of 0
    limit = 2 * net.max_cost
    zeros = (np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64))
    for bad in (
        state._replace(v=state.v + 1),
        state._replace(u=state.u + 1),
        state._replace(u=state.u + 1, v=state.v - 1),
        flownet.HungarianState(np.full(3, -1), zeros[0] - limit - 1, zeros[1]),
        flownet.HungarianState(np.full(3, -1), *zeros)._replace(v=np.array([0, -limit - 1, 0])),
    ):
        with pytest.raises(ValueError, match="^the start state is not dual feasible for this cost matrix$"):
            solve_mcf(net, window, bad)
    # narrower signed integer parts are taken as int64
    narrow = flownet.HungarianState(*(part.astype(np.int32) for part in state))
    assert solve_mcf(net, window, narrow).total_cost == 2
