"""Walkthrough of the core chaining machinery on a tiny instance.

Three locations on a line (coordinates 0, 2, 4), one vehicle, two plans.
The second plan starts one tick too early to follow the first, so a
delayed variant is created; the flow solver then picks the single optimal
chain and the brute-force oracle confirms it.
"""

from planchain import (
    ChainingInstance,
    Plan,
    TravelCost,
    TravelMatrix,
    Vehicle,
    brute_force_optimal,
    build_network,
    generate,
    solve_chaining,
    validate_chains,
)

travel = TravelMatrix.from_coordinates([(0, 0), (2, 0), (4, 0)])
instance = ChainingInstance(
    plans=(
        Plan(id=1, origin_location=0, destination_location=1, t_or=5, t_de=10, d_max=0),
        Plan(id=2, origin_location=2, destination_location=0, t_or=11, t_de=20, d_max=3),
    ),
    vehicles=(Vehicle(id=1, start_location=0, t_st=0),),
    travel=travel,
    policy=TravelCost(),
)

print("== variant generation ==")
gen = generate(instance)
print(f"delayed variants: {[(v.plan_id, v.delay) for v in gen.variants]}")
for conn in gen.connections:
    origin = f"vehicle {conn.origin.id}" if hasattr(conn.origin, "start_location") else (
        f"plan {conn.origin.plan_id}@{conn.origin.delay}"
    )
    print(f"  {origin} -> plan {conn.target.plan_id}@{conn.target.delay}  cost {conn.cost}")

print("\n== flow network ==")
network = build_network(instance, gen)
print(f"{network.node_count} nodes, {len(network.edges)} edges")
print(network.edge_list_text())

print("\n== exact solve ==")
solution = solve_chaining(instance)
for chain in solution.chains:
    stops = " -> ".join(f"plan {e.plan_id}@{e.delay}" for e in chain.elements)
    print(f"vehicle {chain.vehicle.id}: {stops}  (cost {chain.cost}, waits {chain.link_waits})")
print(f"objective: {solution.objective}")

report = validate_chains(instance, solution.chains, solution.objective)
print(f"independent validation: {'clean' if report.ok else report.issues}")

reference = brute_force_optimal(instance)
print(f"brute-force oracle agrees: {reference.objective == solution.objective} "
      f"({reference.covers_examined} feasible covers examined)")
