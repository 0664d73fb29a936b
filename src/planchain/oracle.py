"""Independent reference solvers used to certify the main solver.

``brute_force_optimal`` explores every assignment of plans to vehicle
sequences and every integer delay per plan through an exhaustive dynamic
program (subset x last-plan x last-delay), which visits exactly the same
solution space as literal enumeration.  It shares only the model-layer
predicates with the main solver: no graph or search code is reused.

``fleet_min_matching`` solves zero-delay fleet sizing through the
bipartite-matching reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceededError, InputError
from . import model
from .model import ChainingInstance, VariantRef

BRUTE_FORCE_MAX_PLANS = 9

WitnessChain = tuple[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class OracleResult:
    """Optimal objective (``None`` when infeasible), one witness, cover count.

    ``covers_examined`` counts the distinct feasible vehicle-to-sequence
    assignments (delay choices collapse into their minimal representative;
    policy-forbidden waits are not excluded from the count).
    """

    objective: int | None
    witness: tuple[WitnessChain, ...] | None
    covers_examined: int


def _link_tables(instance: ChainingInstance):
    """Policy cost of every delayed endpoint pair; None where the link is infeasible or forbidden.

    ``cost[a][b][da][db]`` links plan ``a`` at delay ``da`` to plan ``b`` at
    delay ``db``, and ``vcost[v][b][db]`` links vehicle ``v`` to plan ``b``.
    """
    n = len(instance.plans)
    variants = [[VariantRef(p.id, d) for d in range(p.d_max + 1)] for p in instance.plans]

    def costs(origin, b):
        return [
            model.connection_cost(instance, origin, t) if model.connection_feasible(instance, origin, t) else None
            for t in variants[b]
        ]

    cost = [[None if a == b else [costs(ref, b) for ref in variants[a]] for b in range(n)] for a in range(n)]
    return cost, [[costs(v, b) for b in range(n)] for v in instance.vehicles]


def brute_force_optimal(instance: ChainingInstance) -> OracleResult:
    """Exhaustive optimum over all chain structures and integer delays."""
    plans = instance.plans
    n = len(plans)
    if n > BRUTE_FORCE_MAX_PLANS:
        raise GuardExceededError(f"brute force is guarded to {BRUTE_FORCE_MAX_PLANS} plans, got {n}")
    if n == 0:
        return OracleResult(0, (), 1)
    vehicles = instance.vehicles
    m = len(vehicles)
    cost, vcost = _link_tables(instance)
    d1 = [p.d_max + 1 for p in plans]
    full = (1 << n) - 1

    # Per-vehicle chain DP over (served subset, last plan, last delay).
    chain_best: list[dict[int, tuple[int, int, int]]] = []
    chain_states: list[list[dict[tuple[int, int], tuple[int, int | None, int | None]]]] = []
    for vi in range(m):
        buckets: list[dict[tuple[int, int], tuple[int, int | None, int | None]]] = [
            {} for _ in range(1 << n)
        ]
        for b in range(n):
            ctab = vcost[vi][b]
            bucket = buckets[1 << b]
            for db in range(d1[b]):
                if ctab[db] is not None:
                    key = (b, db)
                    if key not in bucket or ctab[db] < bucket[key][0]:
                        bucket[key] = (ctab[db], None, None)
        for mask in range(1, full + 1):
            bucket = buckets[mask]
            if not bucket:
                continue
            for (last, dl), (acc, _, _) in list(bucket.items()):
                for b in range(n):
                    if mask & (1 << b):
                        continue
                    ctab = cost[last][b][dl]
                    nbucket = buckets[mask | (1 << b)]
                    for db in range(d1[b]):
                        c = ctab[db]
                        if c is None:
                            continue
                        key = (b, db)
                        nc = acc + c
                        cur = nbucket.get(key)
                        if cur is None or nc < cur[0]:
                            nbucket[key] = (nc, last, dl)
        best: dict[int, tuple[int, int, int]] = {}
        for mask in range(1, full + 1):
            entry = None
            for (last, dl), (acc, _, _) in buckets[mask].items():
                cand = (acc, last, dl)
                if entry is None or cand < entry:
                    entry = cand
            if entry is not None:
                best[mask] = entry
        chain_best.append(best)
        chain_states.append(buckets)

    # Assignment DP over vehicle prefixes and served subsets.
    INF = float("inf")
    f = [INF] * (1 << n)
    f[0] = 0
    choice: list[list[int]] = []
    for vi in range(m):
        nf = list(f)
        pick = [0] * (1 << n)
        best_v = chain_best[vi]
        for s in range(1, full + 1):
            t = s
            while t:
                entry = best_v.get(t)
                if entry is not None:
                    cand = f[s ^ t] + entry[0]
                    if cand < nf[s]:
                        nf[s] = cand
                        pick[s] = t
                t = (t - 1) & s
        f = nf
        choice.append(pick)

    covers = _count_covers(instance, full)
    if f[full] == INF:
        return OracleResult(None, None, covers)

    # Witness reconstruction through both DP layers.
    witness: list[WitnessChain] = []
    s = full
    for vi in range(m - 1, -1, -1):
        t = choice[vi][s]
        if not t:
            continue
        acc, last, dl = chain_best[vi][t]
        seq: list[tuple[int, int]] = []
        mask = t
        while last is not None:
            seq.append((plans[last].id, dl))
            _, plast, pdl = chain_states[vi][mask][(last, dl)]
            mask &= ~(1 << last)
            last, dl = plast, pdl
        seq.reverse()
        witness.append((vehicles[vi].id, tuple(seq)))
        s ^= t
    witness.sort()
    return OracleResult(int(f[full]), tuple(witness), covers)


def _count_covers(instance: ChainingInstance, full: int) -> int:
    """Count temporally feasible vehicle-to-sequence assignments.

    Each sequence is evaluated at its greedy minimal delays, which decides
    feasibility exactly because the minimal feasible delay of a successor
    grows with the delay of its predecessor.
    """
    plans = instance.plans
    n = len(plans)
    counts_per_vehicle: list[dict[int, int]] = []
    for v in instance.vehicles:
        buckets: list[dict[tuple[int, int], int]] = [{} for _ in range(full + 1)]
        for b in range(n):
            d0 = model.minimal_target_delay(instance, v, plans[b])
            if d0 is not None:
                key = (b, d0)
                buckets[1 << b][key] = buckets[1 << b].get(key, 0) + 1
        for mask in range(1, full + 1):
            for (last, dl), cnt in list(buckets[mask].items()):
                origin = VariantRef(plans[last].id, dl)
                for b in range(n):
                    if mask & (1 << b):
                        continue
                    dnext = model.minimal_target_delay(instance, origin, plans[b])
                    if dnext is None:
                        continue
                    key = (b, dnext)
                    nbucket = buckets[mask | (1 << b)]
                    nbucket[key] = nbucket.get(key, 0) + cnt
        totals = {mask: sum(buckets[mask].values()) for mask in range(1, full + 1) if buckets[mask]}
        counts_per_vehicle.append(totals)

    counts = [0] * (full + 1)
    counts[0] = 1
    for totals in counts_per_vehicle:
        ncounts = list(counts)
        for s in range(1, full + 1):
            t = s
            while t:
                c = totals.get(t)
                if c:
                    ncounts[s] += counts[s ^ t] * c
                t = (t - 1) & s
        counts = ncounts
    return counts[full]


def fleet_min_matching(instance: ChainingInstance) -> int:
    """Minimum fleet for zero-delay instances via maximum bipartite matching.

    Left vertices are plans as predecessors, right vertices plans as
    successors; the answer is |plans| minus the matching size.  Vehicles
    are assumed unconstrained (one dedicated per plan).
    """
    plans = instance.plans
    if any(p.d_max != 0 for p in plans):
        raise InputError("fleet_min_matching requires all delay budgets to be zero")
    n = len(plans)
    adjacency = [
        [j for j in range(n) if j != i and model.connection_feasible(instance, plans[i], plans[j])]
        for i in range(n)
    ]
    match_right = [-1] * n

    def try_augment(i: int, visited: list[bool]) -> bool:
        for j in adjacency[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_right[j] == -1 or try_augment(match_right[j], visited):
                match_right[j] = i
                return True
        return False

    size = 0
    for i in range(n):
        if try_augment(i, [False] * n):
            size += 1
    return n - size

