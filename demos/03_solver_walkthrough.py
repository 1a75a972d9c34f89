"""The population-based solver, one phase at a time.

Every trial plan starts as seeded growth: centers claim their units, then
territories absorb random unassigned frontier units until the map is covered.
Growth ignores quality, so two improvement operators carry the search: flip
moves (reassign one boundary unit, keep if better) and guided swaps against a
fitter plan from the population, with repair restoring contiguity.
"""

import numpy as np

from districter import (MemeticConfig, Walk, dissolve, generate_grid_instance,
                        guided_growth, init_population, local_improvement_pass,
                        objective_value, planning_report, polsby_popper,
                        recombine, spatial_run)

instance = generate_grid_instance(10, 10, 4, seed=42,
                                  balance_profile="clustered")
rng = np.random.default_rng(0)

# phase 1: seeding + guided growth
print("seeded units:", len(instance.centers), "of", instance.node_count)
plan = guided_growth(instance, rng)
print("grown plan J =", round(objective_value(plan, instance), 4))

# phase 2: one accepted flip per member per pass, each member a flip walk
# that keeps its plan and J from pass to pass
walks = [Walk(member, instance)
         for member in init_population(instance, 6, np.random.default_rng(1))]
for step in range(3):
    outcome = local_improvement_pass(walks, 0.01,
                                     np.random.default_rng(2 + step))
    js = [walk.terms[0] for walk in walks]
    print(f"pass {step + 1}: {outcome.accepted_flips} flips accepted, "
          f"best J {min(js):.4f}, mean J {np.mean(js):.4f}")

# phase 3: recombination pulls a plan toward a fitter mate
moves, move = recombine(walks[0], walks[1], np.random.default_rng(9))
if move:
    print(f"swap in territory {move.territory}: unit {move.incoming} in, "
          f"unit {move.outgoing} out")

# the full loop alternates both phases and keeps the best plan ever seen
result = spatial_run(instance,
                     MemeticConfig(population_size=10, iterations=80),
                     np.random.default_rng(3))
print("\nfull run:", len(result.trace), "iterations,",
      result.accepted_flips, "flips,",
      result.accepted_recombinations, "recombinations")
best = result.best_plan
report = planning_report(best, instance)
print("best J =", round(result.best_j, 4),
      "| balance", round(report.balance, 2),
      "| compactness", round(report.compactness, 2))
graph = instance.graph
population = graph.population[instance.level]
capacity = graph.capacity[instance.level]
polygons = graph.polygons
for i in range(best.territory_count):
    units = best.territory(i)
    shape = polsby_popper(dissolve([polygons[v] for v in units]))
    print(f"  territory {i}: {len(units):3d} units, "
          f"{population[units].sum():6d}/{capacity[units].sum():6d} students, "
          f"shape score {shape:.3f}")
