"""Input files for the benchmark workloads, made from the workload seed.

Grid instances come from the program's own ``generate`` command.  The
hexagonal instance and its existing plan are written here, because the
program has no hexagon generator.
"""

from __future__ import annotations

import json
import math

import numpy as np

LEVELS = ("ES", "MS", "HS")


def hex_polygon(row: int, col: int) -> list:
    """Closed ring of a pointy-top regular hexagon in an odd-row-offset
    layout.  Every vertex comes from one integer lattice (x = X*sqrt(3),
    y = Y), so a side shared by two cells has bit-identical endpoints."""
    cx, cy = 2 * col + (row & 1), 3 * row
    lattice = [(cx, cy - 2), (cx + 1, cy - 1), (cx + 1, cy + 1),
               (cx, cy + 2), (cx - 1, cy + 1), (cx - 1, cy - 1)]
    ring = [[x * math.sqrt(3.0), float(y)] for x, y in lattice]
    return ring + [ring[0]]


def hex_instance(rows: int, cols: int, k_rows: int, k_cols: int, seed: int):
    """A rows x cols hexagonal tiling with one school in each cell of a
    k_rows x k_cols block layout, its nearest-school plan, and capacities
    within 10% of that plan's populations.

    Returns ``(instance_doc, plan_doc)``.  The instance has no ``adjacency``
    key, so loading it derives contiguity from the polygons.
    """
    n = rows * cols
    ss = np.random.SeedSequence(seed)
    pop_rng, center_rng, cap_rng = (np.random.default_rng(s)
                                    for s in ss.spawn(3))
    r_idx, c_idx = np.divmod(np.arange(n), cols)
    cx = (2 * c_idx + (r_idx & 1)) * math.sqrt(3.0)
    cy = 3.0 * r_idx

    # quiet base plus growth hotspots like the grid generator's clustered
    # profile, but one per 480 cells: its one per 30 cells would blur into an
    # almost uniform surface at this size
    pop = pop_rng.integers(20, 61, size=n).astype(float)
    sigma = max(rows, cols) / 4.0
    for _ in range(max(1, n // 30 // 16)):
        hr, hc = pop_rng.uniform(0, rows), pop_rng.uniform(0, cols)
        d2 = (r_idx - hr) ** 2 + (c_idx - hc) ** 2
        pop += pop_rng.uniform(150, 300) * np.exp(-d2 / (2 * sigma ** 2))
    pop = np.round(pop).astype(np.int64)

    # one school per block keeps schools spread out, as real ones are
    block_h, block_w = rows // k_rows, cols // k_cols
    centers = []
    for br in range(k_rows):
        for bc in range(k_cols):
            r = br * block_h + int(center_rng.integers(block_h))
            c = bc * block_w + int(center_rng.integers(block_w))
            centers.append(r * cols + c)
    centers = np.array(sorted(centers), dtype=np.int64)

    d2 = (cx[:, None] - cx[centers][None, :]) ** 2 + \
        (cy[:, None] - cy[centers][None, :]) ** 2
    assignment = np.argmin(d2, axis=1)
    assignment[centers] = np.arange(len(centers))

    plan_pop = np.bincount(assignment, weights=pop, minlength=len(centers))
    jitter = cap_rng.uniform(-0.1, 0.1, size=len(centers))
    capacity = np.zeros(n, dtype=np.int64)
    capacity[centers] = np.maximum(1, np.round(plan_pop * (1.0 + jitter)))

    units = [{"id": v,
              "polygon": [hex_polygon(int(r_idx[v]), int(c_idx[v]))],
              "population": {lv: int(pop[v]) for lv in LEVELS},
              "capacity": {lv: int(capacity[v]) for lv in LEVELS}}
             for v in range(n)]
    plan = {"assignment": [int(x) for x in assignment],
            "centers": [int(c) for c in centers]}
    return {"units": units}, plan


def write_json(doc, path) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
