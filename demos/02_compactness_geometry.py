"""How territory shapes are scored.

The compactness of a territory is the Polsby-Popper score of its dissolved
footprint: 4*pi*Area/Perimeter^2, which is 1 for a circle and falls toward 0
as the shape grows tendrils.  On grid-like maps the number of retained
internal edges is a cheap proxy for the same signal.
"""

import numpy as np

from districter import (Plan, ObjectiveConfig, build_instance, dissolve,
                        generate_grid_instance, objective_terms, polsby_popper,
                        unit_square)

shapes = {
    "single square": [(0, 0)],
    "2x2 block": [(0, 0), (0, 1), (1, 0), (1, 1)],
    "1x4 strip": [(0, 0), (0, 1), (0, 2), (0, 3)],
    "L-tromino": [(0, 0), (0, 1), (1, 0)],
    "staircase": [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)],
}
print(f"{'shape':>15}  {'area':>5} {'perimeter':>9} {'polsby-popper':>13}")
for name, cells in shapes.items():
    stats = dissolve([unit_square(c, r) for r, c in cells])
    print(f"{name:>15}  {stats.area:5.1f} {stats.perimeter:9.1f} "
          f"{polsby_popper(stats):13.4f}")

# the same ordering shows up through the edge-cut proxy: compact blocks keep
# more internal adjacencies, so fewer edges are cut by the partition
inst = generate_grid_instance(10, 10, 4, seed=0)
quadrants = Plan(np.array([(r >= 5) * 2 + (c >= 5)
                           for r in range(10) for c in range(10)]),
                 np.array([0, 9, 90, 99]))
stripes = Plan(np.array([min(3, r // 3) for r in range(10)
                         for _ in range(10)]), np.array([0, 30, 60, 99]))
u, v = inst.graph.edges.T
cuts = {name: int((plan.assignment[u] != plan.assignment[v]).sum())
        for name, plan in (("quadrant", quadrants), ("striped", stripes))}
print(f"\n10x10 grid, {inst.graph.edge_count} edges total")
print("quadrant partition cuts", cuts["quadrant"], "edges")
print("striped partition cuts ", cuts["striped"], "edges")

# both compactness modes plug into the same objective
corners = generate_grid_instance(10, 10, 4, seed=0, centers=(0, 9, 90, 99))
for mode in ("polsby_popper", "edge_cut_proxy"):
    config = ObjectiveConfig(compactness_mode=mode)
    scored = build_instance(corners.graph, corners.level, corners.centers,
                            config)
    j, balance, compactness = objective_terms(quadrants, scored)
    print(f"{mode:>16}: J = {j:.4f} (balance {balance:.4f}"
          f" + compactness {compactness:.4f})")
