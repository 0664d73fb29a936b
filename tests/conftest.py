import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from planchain import chainsolve, flownet
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

# Canonical reference instance used throughout the tests: three locations
# on a line at coordinates 0, 2, 4 with travel time equal to distance.
E1_MATRIX = [[0, 2, 4], [2, 0, 2], [4, 2, 0]]
E1_P1 = Plan(id=1, origin_location=0, destination_location=1, t_or=5, t_de=10, d_max=0)
E1_P2 = Plan(id=2, origin_location=2, destination_location=0, t_or=11, t_de=20, d_max=3)
E1_V1 = Vehicle(id=1, start_location=0, t_st=0)


def make_e1(policy=None, vehicles=(E1_V1,)):
    return ChainingInstance(
        plans=(E1_P1, E1_P2),
        vehicles=tuple(vehicles),
        travel=TravelMatrix(E1_MATRIX),
        policy=policy if policy is not None else TravelCost(),
    )


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


def fractional_penalty_gap_instance():
    """Per-link half-up rounding rewards shifting wait onto one link."""
    travel = TravelMatrix([[0]])
    plans = (
        Plan(1, 0, 0, 1, 1, 1),
        Plan(2, 0, 0, 2, 3, 0),
    )
    vehicles = (Vehicle(1, 0, 0),)
    return ChainingInstance(plans, vehicles, travel, TravelCostWaitPenalized(Fraction(1, 2)))


@pytest.fixture
def e1():
    return make_e1()


SHARED_CLASS_POLICIES = (
    TravelCost(),
    FleetSize(),
    TravelCostWaitCapped(4),
    TravelCostWaitPenalized(Fraction(2, 3)),
)


def shared_class_instance(seed):
    """A random instance whose vehicles share classes: 2-4 start locations, every ``t_st`` 0.

    Vehicles with one start location and ``t_st`` are interchangeable, and
    generation keeps one vehicle's connections per class.
    """
    rng = random.Random(seed)
    params = ChainGenParams(
        seed=seed,
        plans=rng.randint(3, 7),
        vehicles=rng.randint(2, 5),
        locations=rng.randint(2, 4),
        t_st_max=0,
        d_max_range=(0, 6),
        policy=SHARED_CLASS_POLICIES[seed % len(SHARED_CLASS_POLICIES)],
    )
    return chain_instance_from_params(params)


@contextmanager
def solves_without_the_edge_view(monkeypatch):
    """Yield the networks ``chainsolve`` builds inside, and check on exit that no solve read the edge view.

    Inside, the edge view's variant index raises.  On exit, also by an
    exception, every network holds only the attributes it had once built
    (and ``_live``), and its connections hold only theirs: no per-vehicle
    view.
    """
    built, held = [], []
    build = chainsolve.build_network

    def recorded(*args):
        net = build(*args)
        built.append(net)
        held.append((set(vars(net)) | {"_live"}, set(vars(net.connections))))
        return net

    def unread(*args):
        raise AssertionError("a solve read the edge view's variant index")

    try:
        with monkeypatch.context() as patch:
            patch.setattr(chainsolve, "build_network", recorded)
            patch.setattr(flownet.FlowNetwork, "_variant_index", unread)
            yield built
    finally:  # infeasible solves too
        for net, (net_keys, conn_keys) in zip(built, held):
            assert set(vars(net)) == net_keys and set(vars(net.connections)) == conn_keys
