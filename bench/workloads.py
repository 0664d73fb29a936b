"""The benchmark's workloads: fixed instances, timed passes and output checks.

Every workload is built from pinned generator parameters.  The run's
``--seed`` does not pick another random instance: it relabels the pinned
one by a seeded permutation of the location indices and a seeded shift
of every clock value.  Costs, feasibility and the solver's search are
invariant under both, so the pinned objectives hold for every seed while
each seed still hands the program different input bytes.  Drawing fresh
instances instead would make a run's time depend on how many
branch-and-bound nodes the draw needs, which swamps the machine noise
the bounds in BENCHMARK.json are set against.

Each workload offers ``setup`` (generate and load, the ``instances``
layer), ``solve`` (one timed pass, the calls a user makes),
``solve_traced`` (the same work with a span around each layer call) and
``check`` (the independent output check, never inside a timed region,
returning one message per failed attempt).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from planchain import oracle
from planchain.chainsolve import solve_chaining, validate_chains
from planchain.darp import (
    PICKUP,
    DarpSolution,
    RoutePlan,
    evaluate_metrics,
    insertion_heuristic,
    plans_to_chaining,
    run_proposed,
    solve_batch_exact,
    total_driving_cost,
    validate_darp_solution,
)
from planchain.errors import InfeasibleError
from planchain.instances import (
    ChainGenParams,
    DarpGenParams,
    canonical_json_bytes,
    chain_instance_from_dict,
    chain_solution_chains_from_dict,
    chain_solution_to_dict,
    darp_instance_from_dict,
    generate_chain_instance,
    generate_darp_instance,
    policy_from_cli,
)
from planchain.model import ChainingInstance, FleetSize, TravelCost, TravelCostWaitCapped, TravelCostWaitPenalized

# criterion-8 instance of the acceptance suite
CHAIN_LARGE = dict(
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
CHAIN_EXHAUSTIVE = dict(
    plans=100,
    vehicles=60,
    locations=40,
    horizon=540,
    t_or_min=30,
    d_max_range=(0, 10),
    extra_duration_range=(90, 180),
    grid_size=60,
    t_st_max=0,
    policy=policy_from_cli("cost-waitcap:240"),
)
DARP = dict(requests=120, locations=10, horizon=400, delay_range=(0, 15), capacity=4, fleet_size=120)
DARP_BATCH_LEN = 20

# instance set -> (generator overrides, pinned objective)
CHAIN_LARGE_SETS = {
    "default": (dict(seed=80), 1622),
    "held-out": (dict(seed=83), 1568),
    "tiny": (dict(seed=82, plans=14, vehicles=8, horizon=300, t_or_min=20, extra_duration_range=(40, 90)), 221),
}
CHAIN_EXHAUSTIVE_SETS = {
    "default": (dict(seed=81), 721),
    "held-out": (dict(seed=82), 733),
    "tiny": (dict(seed=81, plans=8, vehicles=8, horizon=120, extra_duration_range=(20, 40)), 133),
}
# instance set -> (generator overrides, (run_proposed objective, insertion objective))
DARP_SETS = {
    "default": (dict(seed=12), (707, 970)),
    "held-out": (dict(seed=14), (576, 850)),
    "tiny": (dict(seed=12, requests=14, horizon=60, fleet_size=14), (86, 111)),
}
# instance set -> (first generator seed, instance count)
SMALL_MANY_SETS = {"default": (0, 400), "held-out": (2000, 400), "tiny": (0, 8)}
WAIT_PENALTIES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3))


def relabel(doc: dict, key: str) -> dict:
    """A seeded isomorphic copy: locations permuted, all clock values shifted."""
    rng = random.Random(key)
    count = doc["locations"]["count"]
    perm = list(range(count))
    rng.shuffle(perm)
    shift = rng.randrange(10_000)
    doc = json.loads(json.dumps(doc))
    coords = doc["travel"]["grid"]["coordinates"]
    moved = [None] * count
    for old, xy in enumerate(coords):
        moved[perm[old]] = xy
    doc["travel"]["grid"]["coordinates"] = moved
    for plan in doc.get("plans", ()):
        plan["origin"], plan["destination"] = perm[plan["origin"]], perm[plan["destination"]]
        plan["t_or"] += shift
        plan["t_de"] += shift
    for req in doc.get("requests", ()):
        req["origin"], req["destination"] = perm[req["origin"]], perm[req["destination"]]
        req["t_r"] += shift
    vehicles = doc["vehicles"] if "vehicles" in doc else doc["fleet"].get("vehicles", ())
    for vehicle in vehicles:
        vehicle["location"] = perm[vehicle["location"]]
        vehicle["t_st"] += shift
    return doc


class Workload:
    """Defaults shared by the workloads below."""

    def attempts(self, output) -> int:
        """Solves in one pass's output, each checked on its own."""
        return 1

    def trace_baseline(self, tracer) -> list[str] | None:
        """One checked solve per traced run, outside the passes, or None if there is none."""
        return None


class ChainWorkload(Workload):
    """One large chaining instance; a pass is one ``solve_chaining`` call."""

    def __init__(self, base: dict, sets: dict, instance_set: str, seed: int):
        overrides, self.pinned = sets[instance_set]
        self.params = ChainGenParams(**{**base, **overrides})
        self.seed = seed

    def setup(self, tracer) -> None:
        with tracer.span("instances.generate"):
            doc = canonical_json_bytes(relabel(generate_chain_instance(self.params), f"chain:{self.seed}"))
        with tracer.span("instances.load"):
            self.instance = chain_instance_from_dict(json.loads(doc))

    def solve(self):
        return solve_chaining(self.instance)

    def solve_traced(self, tracer):
        with tracer.instrument(), tracer.span("chainsolve.solve") as span:
            solution = solve_chaining(self.instance)
        span["counts"]["nodes"] = solution.stats.nodes_explored
        return solution

    def check(self, solution, tracer) -> list[str]:
        with tracer.span("chainsolve.validate"):
            report = validate_chains(self.instance, solution.chains, solution.objective)
        problems = [f"validator: {issue.message}" for issue in report.issues]
        if solution.objective != self.pinned:
            problems.append(f"objective {solution.objective} != pinned {self.pinned}")
        return ["; ".join(problems)] if problems else []


def _small_instance_doc(gen_seed: int, i: int, seed: int) -> bytes:
    """Criterion-1 style parameters; the policy cycles by instance index."""
    rng = random.Random(gen_seed * 7919 + 13)
    policy = (
        TravelCost(),
        FleetSize(),
        TravelCostWaitCapped(random.Random(9000 + i).randint(8, 40)),
        TravelCostWaitPenalized(WAIT_PENALTIES[(i // 4) % 4]),
    )[i % 4]
    params = ChainGenParams(
        seed=gen_seed,
        plans=rng.randint(1, 7),
        vehicles=rng.randint(1, 3),
        locations=rng.randint(3, 8),
        horizon=60,
        d_max_range=(0, 10),
        policy=policy,
    )
    return canonical_json_bytes(relabel(generate_chain_instance(params), f"small:{seed}:{i}"))


class SmallManyWorkload(Workload):
    """Hundreds of tiny instances; a pass parses, solves and writes each one."""

    def __init__(self, instance_set: str, seed: int):
        self.first, self.count = SMALL_MANY_SETS[instance_set]
        self.seed = seed
        self.expected: list[int | None] | None = None

    def setup(self, tracer) -> None:
        with tracer.span("instances.generate"):
            self.docs = [_small_instance_doc(self.first + i, i, self.seed) for i in range(self.count)]

    def solve(self):
        out = []
        for doc in self.docs:
            try:
                instance = chain_instance_from_dict(json.loads(doc))
                try:
                    solution = solve_chaining(instance)
                except InfeasibleError:
                    out.append((instance, None))
                    continue
                out.append((instance, canonical_json_bytes(chain_solution_to_dict(solution, instance.policy))))
            except Exception as exc:  # counted as a failed solve by check()
                out.append((None, exc))
        return out

    def solve_traced(self, tracer):
        out = []
        with tracer.instrument():
            for doc in self.docs:
                with tracer.span("instance"):
                    try:
                        with tracer.span("instances.load"):
                            instance = chain_instance_from_dict(json.loads(doc))
                        with tracer.span("chainsolve.solve") as span:
                            try:
                                solution = solve_chaining(instance)
                            except InfeasibleError:
                                span["counts"]["infeasible"] = 1
                                out.append((instance, None))
                                continue
                        span["counts"]["nodes"] = solution.stats.nodes_explored
                        with tracer.span("instances.dump"):
                            written = canonical_json_bytes(chain_solution_to_dict(solution, instance.policy))
                        out.append((instance, written))
                    except Exception as exc:  # counted as a failed solve by check()
                        out.append((None, exc))
        return out

    def _oracle(self) -> list[int | None]:
        if self.expected is None:
            self.expected = [
                oracle.brute_force_optimal(chain_instance_from_dict(json.loads(doc))).objective for doc in self.docs
            ]
        return self.expected

    def check(self, results, tracer) -> list[str]:
        problems = []
        for i, ((instance, written), expected) in enumerate(zip(results, self._oracle())):
            if isinstance(written, Exception):
                problems.append(f"instance {i}: {type(written).__name__}: {written}")
                continue
            if written is None:
                if expected is not None:
                    problems.append(f"instance {i}: reported infeasible, oracle optimum {expected}")
                continue
            data = json.loads(written)
            with tracer.span("chainsolve.validate"):
                report = validate_chains(instance, chain_solution_chains_from_dict(data), data["objective"])
            if not report.ok:
                problems.append(f"instance {i}: validator: {report.issues[0].message}")
            elif data["objective"] != expected:
                problems.append(f"instance {i}: objective {data['objective']} != oracle {expected}")
        return problems

    def attempts(self, results) -> int:
        return len(results)


class DarpWorkload(Workload):
    """The 120-request DARP instance; a pass is one ``run_proposed`` call.

    The insertion baseline takes longer than a whole run's measuring
    time, so it runs once per traced run, as ``darp.insertion``.
    """

    def __init__(self, instance_set: str, seed: int):
        overrides, (self.pinned, self.pinned_ih) = DARP_SETS[instance_set]
        self.params = DarpGenParams(**{**DARP, **overrides})
        self.seed = seed
        self.reference = None

    def setup(self, tracer) -> None:
        with tracer.span("instances.generate"):
            doc = canonical_json_bytes(relabel(generate_darp_instance(self.params), f"darp:{self.seed}"))
        with tracer.span("instances.load"):
            self.instance = darp_instance_from_dict(json.loads(doc))

    def solve(self):
        solution = run_proposed(self.instance, DARP_BATCH_LEN, threads=1)
        self.reference = solution.objective
        return solution

    def solve_traced(self, tracer) -> DarpSolution:
        """``run_proposed``'s steps through public calls, one span per step."""
        instance = self.instance
        t0 = min(r.t_r for r in instance.requests)
        buckets: dict[int, list] = {}
        for req in instance.requests:
            buckets.setdefault((req.t_r - t0) // DARP_BATCH_LEN, []).append(req)
        plans = []
        for key in sorted(buckets):
            with tracer.span("darp.batch_exact", requests=len(buckets[key])) as span:
                result = solve_batch_exact(buckets[key], instance.travel, instance.capacity)
            span["counts"].update(plans=len(result.plans), proven=int(result.proven_optimal))
            plans.extend(result.plans)
        with tracer.span("darp.convert"):
            chain_plans, mapping = plans_to_chaining(plans, instance)
        with tracer.span("darp.chain"):
            chain_instance = ChainingInstance(chain_plans, instance.fleet, instance.travel, TravelCost())
            with tracer.instrument(), tracer.span("chainsolve.solve") as span:
                chained = solve_chaining(chain_instance)
            span["counts"]["nodes"] = chained.stats.nodes_explored
            routes = []
            for chain in chained.chains:
                stops = [s for ref in chain.elements for s in mapping[ref.plan_id].shifted(ref.delay).stops]
                routes.append((chain.vehicle, RoutePlan(tuple(stops))))
        delays = sorted(
            (s.request_id, s.time - instance.request(s.request_id).t_r)
            for _, plan in routes
            for s in plan.stops
            if s.kind == PICKUP
        )
        objective = total_driving_cost(routes, instance.travel)
        return DarpSolution("proposed", DARP_BATCH_LEN, tuple(routes), objective, tuple(delays))

    def check(self, solution, tracer) -> list[str]:
        with tracer.span("darp.validate"):
            problems = validate_darp_solution(self.instance, solution)
        if not problems:
            with tracer.span("darp.metrics"):
                evaluate_metrics(solution, self.instance)
        if solution.method != "proposed":
            problems.append(f"method {solution.method!r} != 'proposed'")
        if solution.objective != self.pinned:
            problems.append(f"objective {solution.objective} != pinned {self.pinned}")
        if solution.objective != self.reference:
            problems.append(f"replay objective {solution.objective} != run_proposed {self.reference}")
        return ["; ".join(problems)] if problems else []

    def trace_baseline(self, tracer) -> list[str]:
        with tracer.span("darp.insertion"):
            solution = insertion_heuristic(self.instance)
        problems = validate_darp_solution(self.instance, solution)
        if solution.objective != self.pinned_ih:
            problems.append(f"insertion objective {solution.objective} != pinned {self.pinned_ih}")
        return ["; ".join(problems)] if problems else []


def make_workload(name: str, instance_set: str, seed: int):
    if name == "chain-large":
        return ChainWorkload(CHAIN_LARGE, CHAIN_LARGE_SETS, instance_set, seed)
    if name == "chain-exhaustive":
        return ChainWorkload(CHAIN_EXHAUSTIVE, CHAIN_EXHAUSTIVE_SETS, instance_set, seed)
    if name == "chain-small-many":
        return SmallManyWorkload(instance_set, seed)
    if name == "darp-pipeline":
        return DarpWorkload(instance_set, seed)
    raise ValueError(f"unknown workload {name!r}")
