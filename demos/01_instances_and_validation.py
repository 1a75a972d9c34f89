"""Build a synthetic districting instance and poke at its structure.

A districting instance is a planar contiguity graph: one node per spatial
unit, an edge wherever two units share a boundary of positive length, and a
handful of fixed center nodes (the units containing schools) that anchor the
territories.
"""

import numpy as np

from districter import (Plan, generate_grid_instance, is_connected,
                        load_instance, save_instance, validate_plan)

# an 8x6 grid of unit squares with 3 schools and uneven enrollment
instance = generate_grid_instance(8, 6, 3, seed=7, balance_profile="clustered")
graph = instance.graph
print(f"{instance.node_count} units, {graph.edge_count} adjacencies, "
      f"centers at {[int(c) for c in instance.centers]}")
print("total students:", graph.population[instance.level].sum(),
      "= total capacity:", graph.capacity[instance.level].sum())

# instances round-trip through a plain JSON file
save_instance(instance, "/tmp/demo_instance.json")
reloaded = load_instance("/tmp/demo_instance.json", "es")
assert np.array_equal(reloaded.centers, instance.centers)

# a plan assigns every unit to the territory of one center; here, the
# nearest one by centroid distance
c = graph.centroids
distance = np.sqrt(((c[:, None, :] - c[instance.centers][None, :, :]) ** 2)
                   .sum(axis=2))
naive = Plan(np.argmin(distance, axis=1), instance.centers)
report = validate_plan(naive, graph, tau=0.1)
print("\nnearest-center assignment:")
print("  contiguous:", report.contiguity_ok, "| centers fixed:",
      report.centers_ok, "| within balance band:", report.band_ok)
for msg in report.hard_violations + report.soft_violations:
    print("   -", msg)

# connectivity and boundary queries underpin every search move
t0 = naive.territory(0)
print(f"\nterritory 0 has {len(t0)} units; connected: "
      f"{is_connected(graph, t0)}")
a = naive.assignment
print("units bordering territory 0:",
      sorted({w for v in t0 for w in graph.neighbor_lists[v] if a[w] != 0}))
u, v = graph.edges.T
print("cut edges in the nearest-center plan:", int((a[u] != a[v]).sum()))
