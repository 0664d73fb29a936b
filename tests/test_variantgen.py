import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planchain import model, variantgen
from planchain.errors import GuardExceededError, InputError, InternalSolverError
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
from planchain.instances import ChainGenParams, chain_instance_from_params

import scalar_twins
from conftest import E1_P1, E1_P2, E1_V1, shared_class_instance


def conn_keys(result):
    out = set()
    for c in result.connections:
        if isinstance(c.origin, Vehicle):
            out.add((("v", c.origin.id), (c.target.plan_id, c.target.delay)))
        else:
            out.add((("p", c.origin.plan_id, c.origin.delay), (c.target.plan_id, c.target.delay)))
    return out


def test_try_connect_examples(e1):
    out = scalar_twins.try_connect(e1, VariantRef(1, 0), E1_P2)
    assert isinstance(out, scalar_twins.NewVariant)
    assert out.variant == VariantRef(2, 1)
    assert out.connection.cost == 2

    out = scalar_twins.try_connect(e1, E1_V1, E1_P1)
    assert isinstance(out, scalar_twins.Direct)
    assert out.connection.target == VariantRef(1, 0)

    out = scalar_twins.try_connect(e1, VariantRef(2, 0), E1_P1)
    assert isinstance(out, scalar_twins.Infeasible)

    with pytest.raises(InputError):
        scalar_twins.try_connect(e1, VariantRef(2, 1), E1_P2)


def test_generate_e1(e1):
    result = variantgen.generate(e1)
    assert set(result.variants) == {VariantRef(2, 1)}
    assert conn_keys(result) == {
        (("v", 1), (1, 0)),
        (("v", 1), (2, 0)),
        (("p", 1, 0), (2, 1)),
    }


def test_generate_single_plan():
    travel = TravelMatrix([[0]])
    plan = Plan(1, 0, 0, 5, 6, 0)
    inst = ChainingInstance((plan,), (Vehicle(1, 0, 0),), travel, TravelCost())
    result = variantgen.generate(inst)
    assert result.variants == ()
    assert len(result.connections) == 1


def test_generate_disconnected_pair():
    travel = TravelMatrix([[0, 50], [50, 0]])
    a = Plan(1, 0, 0, 0, 1, 2)
    b = Plan(2, 1, 1, 5, 6, 2)
    inst = ChainingInstance((a, b), (), travel, TravelCost())
    result = variantgen.generate(inst)
    assert result.connections == ()
    assert result.variants == ()


def test_generate_empty_instance():
    inst = ChainingInstance((), (), TravelMatrix([[0]]), TravelCost())
    result = variantgen.generate(inst)
    assert result.variants == () and result.connections == ()


def test_queue_discipline_does_not_matter():
    for seed in range(25):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=2))
        fifo = variantgen.generate(inst)
        lifo = scalar_twins.generate_reference(inst, queue_lifo=True)
        assert set(fifo.variants) == set(lifo.variants)
        assert conn_keys(fifo) == conn_keys(lifo)


def test_generate_is_deterministic():
    inst = chain_instance_from_params(ChainGenParams(seed=3, plans=6, vehicles=2))
    a = variantgen.generate(inst)
    b = variantgen.generate(inst)
    assert a == b


def test_minimality_of_generated_delays():
    # decrementing any positive generated delay must break feasibility
    for seed in range(40):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=6, vehicles=2))
        result = variantgen.generate(inst)
        for conn in result.connections:
            target = conn.target
            assert model.connection_feasible(inst, conn.origin, target)
            if target.delay > 0:
                lower = VariantRef(target.plan_id, target.delay - 1)
                assert not model.connection_feasible(inst, conn.origin, lower)


def test_variant_count_bounded_by_total_budget():
    for seed in range(20):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=7, vehicles=3))
        result = variantgen.generate(inst)
        assert len(result.variants) <= sum(p.d_max for p in inst.plans)
        assert len(set(result.variants)) == len(result.variants)


def test_generate_exhaustive_guard():
    inst = chain_instance_from_params(ChainGenParams(seed=0, plans=5, vehicles=2, d_max_range=(5, 10)))
    with pytest.raises(GuardExceededError):
        variantgen.generate_exhaustive(inst, guard_ticks=3)
    result = variantgen.generate_exhaustive(inst)
    assert len(result.variants) == sum(p.d_max for p in inst.plans)


def test_exhaustive_contains_minimal_connections():
    for seed in range(10):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=5, vehicles=2))
        minimal = conn_keys(variantgen.generate(inst))
        exhaustive = conn_keys(variantgen.generate_exhaustive(inst))
        assert minimal <= exhaustive


def test_vectorized_generation_matches_scalar_reference():
    policies = [
        TravelCost(),
        FleetSize(),
        TravelCostWaitCapped(6),
        TravelCostWaitPenalized(Fraction(1, 2)),
        TravelCostWaitPenalized(Fraction(3)),
    ]
    for pi, policy in enumerate(policies):
        cases = [ChainingInstance((), (Vehicle(1, 0, 0),), TravelMatrix([[0]]), policy)]
        for seed in range(20):
            cases.append(chain_instance_from_params(
                ChainGenParams(seed=100 * pi + seed, plans=6, vehicles=2, policy=policy)
            ))
            cases.append(_zero_travel_instance(600 + 10 * pi + seed, policy))
        for inst in cases:
            # dataclass equality compares variants and connections in order:
            # connection order fixes edge ids and so the equal-cost tie-breaks
            assert variantgen.generate(inst) == scalar_twins.generate_reference(inst)


def test_generated_connections_never_repeat_a_key():
    # why minimal generation needs no dedup: every origin is probed once and
    # every probe reaches each target plan at most once
    for seed in range(30):
        inst = chain_instance_from_params(ChainGenParams(seed=seed, plans=8, vehicles=3, d_max_range=(0, 12)))
        for result in (variantgen.generate(inst), variantgen.generate_exhaustive(inst)):
            assert len(conn_keys(result)) == len(result.connections) > 0


def _zero_travel_instance(seed, policy):
    """Simultaneous plans over free travel, so the (t_or, id) tie rule decides."""
    rng = random.Random(seed)
    plans = []
    for pid in rng.sample(range(1, 40), rng.randint(2, 6)):
        t_or = rng.randint(0, 3)
        plans.append(Plan(pid, rng.randrange(3), rng.randrange(3), t_or, t_or + rng.randint(0, 2), rng.randint(0, 3)))
    vehicles = tuple(Vehicle(vid, rng.randrange(3), rng.randint(0, 2)) for vid in range(rng.randint(0, 2)))
    return ChainingInstance(tuple(plans), vehicles, TravelMatrix([[0] * 3] * 3), policy)


def test_exhaustive_generation_matches_scalar_reference():
    policies = [
        TravelCost(),
        FleetSize(),
        TravelCostWaitCapped(3),
        TravelCostWaitPenalized(Fraction(2)),
        TravelCostWaitPenalized(Fraction(1, 2)),
        TravelCostWaitPenalized(Fraction(2, 3)),
    ]
    for pi, policy in enumerate(policies):
        cases = [ChainingInstance((), (Vehicle(1, 0, 0),), TravelMatrix([[0]]), policy)]
        for seed in range(8):
            cases.append(chain_instance_from_params(
                ChainGenParams(seed=300 + 10 * pi + seed, plans=6, vehicles=2, d_max_range=(0, 4), policy=policy)
            ))
            cases.append(chain_instance_from_params(
                ChainGenParams(seed=400 + 10 * pi + seed, plans=5, vehicles=1, d_max_range=(0, 0), policy=policy)
            ))
            cases.append(_zero_travel_instance(500 + 10 * pi + seed, policy))
        for inst in cases:
            # dataclass equality compares the tuples, so the order must match too
            assert variantgen.generate_exhaustive(inst) == scalar_twins.generate_exhaustive_reference(inst)


DRAWN_POLICIES = st.one_of(
    st.just(TravelCost()),
    st.just(FleetSize()),
    st.integers(0, 2).map(TravelCostWaitCapped),
    st.sampled_from((Fraction(2, 3), Fraction(1, 2), Fraction(2))).map(TravelCostWaitPenalized),
)


@st.composite
def drawn_instances(draw):
    """0-7 plans with budgets of 0-6 ticks and 0-3 vehicles on 3 locations.

    Start times fall in a few ticks, and the travel matrix is free half of
    the time, so simultaneous zero-travel plans meet the tie rule.
    """
    if draw(st.booleans()):
        travel = [[0] * 3 for _ in range(3)]
    else:
        travel = [[0 if a == b else draw(st.integers(0, 4)) for b in range(3)] for a in range(3)]
    ids = draw(st.lists(st.integers(1, 40), max_size=7, unique=True))
    plans = []
    for pid in ids:
        t_or = draw(st.integers(0, 6))
        o, d = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        plans.append(Plan(pid, o, d, t_or, t_or + draw(st.integers(0, 3)), draw(st.integers(0, 6))))
    count = draw(st.integers(0, 3))
    vehicles = [Vehicle(vid, draw(st.integers(0, 2)), draw(st.integers(0, 4))) for vid in range(count)]
    return ChainingInstance(tuple(plans), tuple(vehicles), TravelMatrix(travel), draw(DRAWN_POLICIES))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(inst=drawn_instances())
def test_exhaustive_generation_matches_scalar_reference_on_drawn_instances(inst):
    assert variantgen.generate_exhaustive(inst) == scalar_twins.generate_exhaustive_reference(inst)


def test_exhaustive_generation_orders_simultaneous_plans():
    travel = TravelMatrix([[0, 0], [0, 0]])
    first, second = Plan(1, 0, 1, 5, 5, 1), Plan(2, 1, 0, 5, 5, 1)
    inst = ChainingInstance((second, first), (), travel, TravelCost())
    result = variantgen.generate_exhaustive(inst)
    assert result == scalar_twins.generate_exhaustive_reference(inst)
    pairs = {((c.origin.plan_id, c.origin.delay), (c.target.plan_id, c.target.delay)) for c in result.connections}
    # zero gap and zero travel: only the (t_or, id)-earlier plan may lead
    assert ((1, 0), (2, 0)) in pairs and ((2, 0), (1, 0)) not in pairs
    assert ((2, 0), (1, 1)) in pairs and ((1, 1), (2, 1)) in pairs and ((2, 1), (1, 1)) not in pairs


@pytest.mark.parametrize(
    "policy, links",
    [
        (TravelCostWaitCapped(0), []),
        (TravelCostWaitCapped(3), [(0, 2)]),
        (TravelCostWaitCapped(100), [(0, 2), (1, 2), (2, 2), (3, 2)]),
        (TravelCostWaitPenalized(Fraction(1, 2)), [(0, 4), (1, 4), (2, 5), (3, 5)]),
    ],
)
@pytest.mark.parametrize("cells", [None, 1])
def test_exhaustive_widening_edges_match_the_scalar_reference(monkeypatch, policy, links, cells):
    # plan 1 reaches plan 2 at delay 0 after 2 ticks of travel and 3 of wait,
    # and plan 2 may start up to 3 ticks late: a cap of 0 keeps none of that
    # link's widening, a cap of 3 (its minimal wait) one delay, a cap above
    # every wait all of them, up to d_max; a penalty of 1/2 on the widened
    # waits 3..6 rounds half-up across the steps at 1.5 and 2.5 ticks.  The
    # vehicle reaches plan 2 with 10 ticks of wait.  Blocks of one cell
    # probe one origin at a time; None keeps the default blocks
    if cells is not None:
        monkeypatch.setattr(variantgen, "_BLOCK_CELLS", cells)
    plans = (Plan(1, 0, 1, 0, 5, 0), Plan(2, 0, 1, 10, 12, 3))
    inst = ChainingInstance(plans, (Vehicle(1, 0, 0),), TravelMatrix([[0, 2], [2, 0]]), policy)
    result = variantgen.generate_exhaustive(inst)
    assert result == scalar_twins.generate_exhaustive_reference(inst)
    assert [(c.target.delay, c.cost) for c in result.connections if c.origin == VariantRef(1, 0)] == links


def _block_boundary_cases():
    policies = (TravelCost(), FleetSize(), TravelCostWaitCapped(4), TravelCostWaitPenalized(Fraction(2, 3)))
    cases = [ChainingInstance((), (), TravelMatrix([[0]]), TravelCost())]  # the empty instance
    for pi, policy in enumerate(policies):
        for seed in range(4):
            cases.append(chain_instance_from_params(
                ChainGenParams(seed=700 + 10 * pi + seed, plans=6, vehicles=2, d_max_range=(0, 5), policy=policy)
            ))
            cases.append(_zero_travel_instance(800 + 10 * pi + seed, policy))
        cases.append(chain_instance_from_params(  # plans without vehicles
            ChainGenParams(seed=900 + pi, plans=5, vehicles=0, d_max_range=(0, 5), policy=policy)
        ))
        cases.append(ChainingInstance((), (Vehicle(1, 0, 0), Vehicle(2, 1, 3)), TravelMatrix([[0, 1], [1, 0]]), policy))
    return cases


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
def test_generation_is_independent_of_the_block_size(monkeypatch, rows):
    # blocks of one cell (one origin each), and of 2 or 3 origins, which split
    # frontiers and plans' variant slices, must emit what the scalar
    # references emit, in the same order; None keeps the default blocks
    cases = _block_boundary_cases()
    assert any(not inst.vehicles and inst.plans for inst in cases)
    assert any(inst.vehicles and not inst.plans for inst in cases)
    blocks, links = [], []  # origins per probe, links per pricing
    probe, price = variantgen._ProbeTables.probe, variantgen._ProbeTables.price

    def counted_probe(self, origin, origin_delay):
        blocks.append(len(origin))
        return probe(self, origin, origin_delay)

    def counted_price(self, origin, origin_delay, row, *link):
        links.append(len(row))
        return price(self, origin, origin_delay, row, *link)

    monkeypatch.setattr(variantgen._ProbeTables, "probe", counted_probe)
    monkeypatch.setattr(variantgen._ProbeTables, "price", counted_price)
    default_cells = variantgen._BLOCK_CELLS
    for inst in cases:
        n, ticks = len(inst.plans), variantgen.total_delay_ticks(inst)
        for width, run, reference in (
            (n, variantgen.generate, scalar_twins.generate_reference),
            (n + ticks, variantgen.generate_exhaustive, scalar_twins.generate_exhaustive_reference),
        ):
            cells = default_cells if rows is None else 1 if rows == 1 else rows * width
            monkeypatch.setattr(variantgen, "_BLOCK_CELLS", cells)
            links.clear()
            assert run(inst) == reference(inst)
            # a block's links, widened to every later delay, stay within its
            # cells (one origin's row is the smallest block)
            assert max(links, default=0) <= max(cells, width)
    if rows is not None:
        assert max(blocks) == rows
    else:
        assert max(blocks) > 3


def test_shared_vehicle_classes_match_the_scalar_references():
    # one vehicle per (start location, t_st) class is probed and its rows kept
    # once; the per-vehicle view must still equal the scalar twins, which
    # probe every vehicle, order included
    merged = 0
    for seed in range(60):
        inst = shared_class_instance(seed)
        n = len(inst.plans)
        for run, reference in (
            (variantgen.generate, scalar_twins.generate_reference),
            (variantgen.generate_exhaustive, scalar_twins.generate_exhaustive_reference),
        ):
            result = run(inst)
            assert result == reference(inst)
            conns = result.connections
            # rows out of vehicles name class representatives only, each the lowest index of its class
            keys = [(v.start_location, v.t_st) for v in inst.vehicles]
            assert conns.column_class.tolist() == list(range(n)) + [n + keys.index(key) for key in keys]
            assert set(conns.origin[conns.origin >= n].tolist()) <= set(conns.column_class[n:].tolist())
            merged += len(conns.cost) < len(conns)
    assert merged >= 60


def assert_per_vehicle_view_is_the_reference(conns):
    """``per_vehicle`` agrees with the general rule on every (class row, column) pair."""
    row, origin = scalar_twins.per_vehicle_reference(conns)
    view = conns.per_vehicle
    assert len(conns) == len(view.cost) == len(row)
    assert view.origin.tolist() == origin.tolist()
    for col, class_col in zip(view.columns[1:], conns.columns[1:]):
        assert col.tolist() == class_col[row].tolist()


def test_per_vehicle_view_matches_the_general_rule():
    # the generators emit the vehicle rows as one run, representatives in
    # index order; the view's layout of that run must order every vehicle's
    # copies as the general rule does, with the rows after the run shifted
    travel = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    cases = {
        "no vehicle links": (Vehicle(1, 0, 100), Vehicle(2, 0, 100)),
        "a class without links": (Vehicle(1, 0, 0), Vehicle(2, 2, 100), Vehicle(3, 0, 0), Vehicle(4, 2, 100)),
        "one class": (Vehicle(1, 0, 0), Vehicle(2, 0, 0), Vehicle(3, 0, 0)),
        "interleaved classes": (Vehicle(1, 2, 0), Vehicle(2, 0, 0), Vehicle(3, 2, 0), Vehicle(4, 0, 0), Vehicle(5, 1, 0)),
    }
    instances = [ChainingInstance((E1_P1, E1_P2), vehicles, travel, TravelCost()) for vehicles in cases.values()]
    instances += [shared_class_instance(seed) for seed in range(120)]
    shared = linked = after = 0
    for i, inst in enumerate(instances):
        n = len(inst.plans)
        for run in (variantgen.generate, variantgen.generate_exhaustive):
            conns = run(inst).connections
            assert conns.members.size or i >= len(cases)
            assert_per_vehicle_view_is_the_reference(conns)
            vehicle_rows = np.flatnonzero(conns.origin >= n)
            shared += bool(conns.members.size)
            linked += conns.members.size and vehicle_rows.size > 0
            after += conns.members.size and vehicle_rows.size > 0 and vehicle_rows[-1] < len(conns.cost) - 1
    first = instances[0]
    assert not (variantgen.generate(first).connections.origin >= len(first.plans)).any()
    assert shared >= 160 and linked >= 140 and after >= 30, (shared, linked, after)


def test_per_vehicle_view_needs_one_run_of_vehicle_rows():
    # class rows whose vehicle rows are split by a plan's, or list the
    # representatives out of index order, are not a generator's: refused
    travel = TravelMatrix([[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    inst = ChainingInstance((E1_P1, E1_P2), (Vehicle(1, 0, 0), Vehicle(2, 2, 0), Vehicle(3, 0, 0)), travel, TravelCost())
    column_class = np.array([0, 1, 2, 3, 2])

    def connections(origin, target):
        zeros = np.zeros(len(origin), dtype=np.int64)
        return variantgen.Connections(inst, (), np.array(origin), zeros, np.array(target), zeros, zeros + 1, column_class)

    one_run = connections([0, 2, 2, 3], [1, 0, 1, 1])
    assert_per_vehicle_view_is_the_reference(one_run)
    for origin, target in (([2, 0, 2], [0, 1, 1]), ([3, 2], [1, 0])):
        split = connections(origin, target)
        with pytest.raises(InternalSolverError, match="not one run"):
            split.per_vehicle
