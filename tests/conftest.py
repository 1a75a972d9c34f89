import math

import numpy as np
import pytest

from districter import (LEVELS, ContiguityGraph, Polygon, build_instance,
                        generate_grid_instance, unit_square)
from districter.geometry import ring_centroid, shared_boundaries
from districter.instances import derive_adjacency


def grid_adjacency(rows, cols):
    adj = []
    for r in range(rows):
        for c in range(cols):
            nb = []
            if r > 0:
                nb.append((r - 1) * cols + c)
            if r < rows - 1:
                nb.append((r + 1) * cols + c)
            if c > 0:
                nb.append(r * cols + c - 1)
            if c < cols - 1:
                nb.append(r * cols + c + 1)
            adj.append(nb)
    return adj


def make_grid_graph(rows, cols, pop=None, cap=None):
    """Rook grid with explicit per-node population/capacity (ES level)."""
    n = rows * cols
    pop = np.zeros(n, dtype=np.int64) if pop is None else np.asarray(pop)
    cap = np.zeros(n, dtype=np.int64) if cap is None else np.asarray(cap)
    return ContiguityGraph(
        grid_adjacency(rows, cols),
        population={lv: pop for lv in LEVELS},
        capacity={lv: cap for lv in LEVELS},
        centroids=[[v % cols + 0.5, v // cols + 0.5] for v in range(n)],
        polygons=[unit_square(v % cols, v // cols) for v in range(n)],
    )


def hex_ring(row, col):
    """Closed ring of the pointy-top hexagon at (row, col) of an
    odd-row-offset tiling.  Every vertex lies on the lattice
    (X * sqrt(3), Y) for integers X, Y, so shared sides match exactly."""
    x, y = 2 * col + (row & 1), 3 * row
    return [[px * math.sqrt(3.0), float(py)] for px, py in
            [(x, y - 2), (x + 1, y - 1), (x + 1, y + 1), (x, y + 2),
             (x - 1, y + 1), (x - 1, y - 1), (x, y - 2)]]


def make_hex_graph(rows, cols, pop=None, cap=None):
    """A rows x cols hexagonal tiling (degree up to 6) with its adjacency
    derived from the polygons and explicit per-node population/capacity."""
    n = rows * cols
    pop = np.zeros(n, dtype=np.int64) if pop is None else np.asarray(pop)
    cap = np.zeros(n, dtype=np.int64) if cap is None else np.asarray(cap)
    polygons = [Polygon([hex_ring(*divmod(v, cols))]) for v in range(n)]
    return ContiguityGraph(
        derive_adjacency(shared_boundaries(polygons), n),
        population={lv: pop for lv in LEVELS},
        capacity={lv: cap for lv in LEVELS},
        centroids=[ring_centroid(p.outer) for p in polygons],
        polygons=polygons,
    )


def make_ragged_graph(xs, ys, pop, cap):
    """A grid of rectangles between the ascending column edges ``xs`` and
    row edges ``ys``: with random widths and heights, areas and shared
    lengths are not whole numbers."""
    cols, rows = len(xs) - 1, len(ys) - 1
    polygons = [Polygon([[(xs[c], ys[r]), (xs[c + 1], ys[r]),
                          (xs[c + 1], ys[r + 1]), (xs[c], ys[r + 1]),
                          (xs[c], ys[r])]])
                for r in range(rows) for c in range(cols)]
    return ContiguityGraph(grid_adjacency(rows, cols),
                           population={lv: pop for lv in LEVELS},
                           capacity={lv: cap for lv in LEVELS},
                           polygons=polygons)


def make_grid_instance(rows, cols, centers, pop, cap, config=None):
    graph = make_grid_graph(rows, cols, pop, cap)
    return build_instance(graph, "ES", centers, config)


@pytest.fixture(scope="session")
def grid3():
    """The tiny reference instance: 3x3 rook grid, K=2, centers {0, 8}."""
    return generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))


@pytest.fixture(scope="session")
def path3():
    """Path 0-1-2 with centers at both ends."""
    return generate_grid_instance(1, 3, 2, seed=0, centers=(0, 2))
