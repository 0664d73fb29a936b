"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Tolerances are exact: objectives are integers and
every comparison is integer equality.
"""

import random
import time
from fractions import Fraction

from planchain import variantgen
from planchain.chainsolve import policy_needs_exhaustive_variants, solve_chaining, validate_chains
from planchain.darp import (
    evaluate_metrics,
    insertion_heuristic,
    run_proposed,
    run_single_batch,
    validate_darp_solution,
)
from planchain.errors import InfeasibleError
from planchain.flownet import build_network, solve_mcf
from planchain.instances import (
    ChainGenParams,
    DarpGenParams,
    canonical_json_bytes,
    chain_instance_from_params,
    chain_solution_to_dict,
    darp_instance_from_params,
    darp_solution_to_dict,
    generate_chain_instance,
    histogram_csv_text,
    metrics_csv_text,
)
from planchain import model, oracle
from planchain.model import (
    FleetSize,
    TravelCost,
    TravelCostWaitCapped,
    TravelCostWaitPenalized,
)

from scalar_twins import check_assignment_certificate, full_variant_optimal

PENALTIES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]


def _policy(kind: str, seed: int):
    rng = random.Random(seed)
    if kind == "cost":
        return TravelCost()
    if kind == "fleet":
        return FleetSize()
    if kind == "waitcap":
        return TravelCostWaitCapped(rng.randint(8, 40))
    return TravelCostWaitPenalized(PENALTIES[rng.randrange(len(PENALTIES))])


def _chain_params(seed: int, policy, **overrides) -> ChainGenParams:
    rng = random.Random(seed * 7919 + 13)
    base = dict(
        seed=seed,
        plans=rng.randint(1, 7),
        vehicles=rng.randint(1, 3),
        locations=rng.randint(3, 8),
        horizon=60,
        d_max_range=(0, 10),
        policy=policy,
    )
    base.update(overrides)
    return ChainGenParams(**base)


def _solve_or_none(instance):
    try:
        return solve_chaining(instance)
    except InfeasibleError:
        return None


def _darp_params(seed: int, lo: int, hi: int) -> DarpGenParams:
    rng = random.Random(seed * 104729 + 7)
    n = rng.randint(lo, hi)
    return DarpGenParams(
        seed=seed,
        requests=n,
        locations=rng.randint(4, 10),
        horizon=40,
        delay_range=(0, 15),
        capacity=4,
        fleet_size=n,
    )


def _span(instance) -> int:
    times = [r.t_r for r in instance.requests]
    return max(times) - min(times) + 1 if times else 1


def test_criterion_1_oracle_optimality():
    """solve_chaining matches the brute-force optimum exactly, per policy."""
    started = time.perf_counter()
    checked = 0
    for kind in ("cost", "fleet", "waitcap", "waitpen"):
        for i in range(200):
            seed = 1000 + i
            instance = chain_instance_from_params(_chain_params(seed, _policy(kind, 9000 + i)))
            got = _solve_or_none(instance)
            objective = got.objective if got is not None else None
            expected = oracle.brute_force_optimal(instance)
            assert objective == expected.objective, (kind, seed, objective, expected.objective)
            if got is not None:
                assert validate_chains(instance, got.chains, got.objective).ok
            checked += 1
    elapsed = time.perf_counter() - started
    print(f"\nPASS criterion 1: oracle optimality on {checked} instances ({elapsed:.0f}s)")
    assert elapsed < 120


def test_criterion_2_minimal_variants_are_complete():
    """Minimal variant generation matches the full integer-delay optimum."""
    started = time.perf_counter()
    for i in range(100):
        policy = TravelCost() if i % 2 == 0 else FleetSize()
        instance = chain_instance_from_params(_chain_params(2000 + i, policy))
        assert not policy_needs_exhaustive_variants(policy)
        got = _solve_or_none(instance)
        objective = got.objective if got is not None else None
        full = full_variant_optimal(instance)
        assert objective == full, (2000 + i, objective, full)
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 2: minimal == exhaustive variants on 100 instances ({elapsed:.0f}s)")
    assert elapsed < 300


def _zero_delay_fleet_instance(i: int):
    return chain_instance_from_params(
        _chain_params(3000 + i, FleetSize(), d_max_range=(0, 0), fleet="dedicated")
    )


def test_criterion_3_matching_reduction():
    """Fleet sizing equals the bipartite-matching bound on zero-delay instances."""
    started = time.perf_counter()
    for i in range(100):
        instance = _zero_delay_fleet_instance(i)
        solution = solve_chaining(instance)
        assert solution.objective == len(solution.chains)
        assert solution.objective == oracle.fleet_min_matching(instance), 3000 + i
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 3: matching reduction on 100 instances ({elapsed:.0f}s)")
    assert elapsed < 60


def test_criterion_4_generated_delays_are_minimal():
    """Decrementing any generated positive delay breaks feasibility."""
    started = time.perf_counter()
    connections = 0
    for i in range(100):
        instance = chain_instance_from_params(_chain_params(4000 + i, TravelCost()))
        result = variantgen.generate(instance)
        for conn in result.connections:
            assert model.connection_feasible(instance, conn.origin, conn.target)
            if conn.target.delay > 0:
                lower = model.VariantRef(conn.target.plan_id, conn.target.delay - 1)
                assert not model.connection_feasible(instance, conn.origin, lower), (4000 + i, conn)
            connections += 1
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 4: minimal delays on {connections} connections ({elapsed:.0f}s)")
    assert elapsed < 60


def test_criterion_5_pure_flow_path_on_zero_variant_instances():
    """Zero-variant instances solve by one integral flow, no branching."""
    started = time.perf_counter()
    for i in range(100):
        instance = _zero_delay_fleet_instance(i)
        gen = variantgen.generate(instance)
        assert gen.variants == ()
        network = build_network(instance, gen)
        assignment = solve_mcf(network)
        check_assignment_certificate(network, assignment)
        solution = solve_chaining(instance)
        assert solution.stats.nodes_explored == 0
        assert solution.objective == assignment.total_cost
        assert validate_chains(instance, solution.chains, solution.objective).ok
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 5: pure-flow integrality on 100 instances ({elapsed:.0f}s)")
    assert elapsed < 60


def test_criterion_6_darp_feasibility_sweep():
    """Every batch length yields validator-clean solutions within delay budgets."""
    started = time.perf_counter()
    runs = 0
    for i in range(50):
        instance = darp_instance_from_params(_darp_params(6000 + i, 4, 12))
        for batch_len in (1, 5, 10, _span(instance)):
            solution = run_proposed(instance, batch_len)
            assert validate_darp_solution(instance, solution) == [], (6000 + i, batch_len)
            served = {rid for rid, _ in solution.request_delays}
            assert served == {r.id for r in instance.requests}
            for rid, delay in solution.request_delays:
                assert 0 <= delay <= instance.request(rid).max_delay
            runs += 1
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 6: DARP feasibility on {runs} pipeline runs ({elapsed:.0f}s)")
    assert elapsed < 300


def test_criterion_7_comparative_quality():
    """Best batch length beats insertion on most instances, always on one batch."""
    started = time.perf_counter()
    wins = 0
    total = 30
    for i in range(total):
        instance = darp_instance_from_params(_darp_params(7000 + i, 8, 12))
        baseline = insertion_heuristic(instance)
        assert validate_darp_solution(instance, baseline) == []
        span = _span(instance)
        objectives = []
        for batch_len in (5, 10, span):
            solution = run_proposed(instance, batch_len)
            assert validate_darp_solution(instance, solution) == []
            objectives.append(solution.objective)
        single = run_single_batch(instance)
        assert single.objective <= baseline.objective, (7000 + i, single.objective, baseline.objective)
        if min(objectives) <= baseline.objective:
            wins += 1
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 7: proposed <= insertion on {wins}/{total} instances ({elapsed:.0f}s)")
    assert wins >= 0.6 * total
    assert elapsed < 600


def test_criterion_8_scale_smoke():
    """A 500-plan, 200-vehicle travel-cost instance solves within a minute."""
    params = ChainGenParams(
        seed=80,
        plans=500,
        vehicles=200,
        locations=40,
        horizon=2700,
        t_or_min=150,
        d_max_range=(0, 10),
        extra_duration_range=(450, 900),
        grid_size=60,
        t_st_max=0,
        policy=TravelCost(),
    )
    started = time.perf_counter()
    instance = chain_instance_from_params(params)
    solution = solve_chaining(instance)
    report = validate_chains(instance, solution.chains, solution.objective)
    elapsed = time.perf_counter() - started
    assert report.ok
    assert len(instance.plans) == 500 and len(instance.vehicles) == 200
    print(
        f"PASS criterion 8: scale smoke objective={solution.objective} "
        f"chains={len(solution.chains)} in {elapsed:.1f}s"
    )
    assert elapsed <= 60


def _chain_artifact(seed: int, kind: str) -> bytes:
    policy = _policy(kind, 9000 + seed)
    params = _chain_params(1000 + seed, policy)
    instance_bytes = canonical_json_bytes(generate_chain_instance(params))
    instance = chain_instance_from_params(params)
    solution = _solve_or_none(instance)
    if solution is None:
        return instance_bytes + b"|infeasible"
    return instance_bytes + canonical_json_bytes(chain_solution_to_dict(solution, instance.policy))


def _darp_artifacts(seed: int, method: str) -> list[bytes]:
    instance = darp_instance_from_params(_darp_params(6000 + seed, 4, 10))
    if method == "ih":
        solution = insertion_heuristic(instance)
    elif method == "single-batch":
        solution = run_single_batch(instance)
    else:
        solution = run_proposed(instance, 10)
    metrics = evaluate_metrics(solution, instance)
    masked_metrics = metrics_csv_text(
        [(solution.method, solution.batch_len, metrics.total_cost, metrics.used_vehicles, "MASKED")]
    )
    return [
        canonical_json_bytes(darp_solution_to_dict(solution)),
        masked_metrics.encode(),
        histogram_csv_text(metrics.occupancy).encode(),
        histogram_csv_text(metrics.delays).encode(),
    ]


def test_criterion_9_determinism():
    """Re-running the same seeds reproduces artifacts byte for byte.

    Wall-clock timing is inherently nondeterministic, so the comp_time_ms
    column of metrics.csv is masked; everything else must match exactly.
    """
    started = time.perf_counter()
    artifacts = 0
    for kind in ("cost", "fleet", "waitcap", "waitpen"):
        for seed in range(10):
            assert _chain_artifact(seed, kind) == _chain_artifact(seed, kind)
            artifacts += 1
    for method in ("proposed", "ih", "single-batch"):
        for seed in range(6):
            assert _darp_artifacts(seed, method) == _darp_artifacts(seed, method)
            artifacts += 1
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 9: byte-identical artifacts for {artifacts} re-runs ({elapsed:.0f}s)")
