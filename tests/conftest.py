import math

import numpy as np
import pytest

from districter import (LEVELS, ContiguityGraph, ObjectiveConfig, Plan,
                        Polygon, build_instance, connected_components,
                        generate_grid_instance, unit_square)
from districter.geometry import RingTable, shared_boundaries
from districter.graph import assert_hard_feasible
from districter.instances import derive_adjacency
from districter.local_search import BalancedBand, Walk, random_proposals
from districter.objective import territory_sums


def plans_equal(a, b):
    return (np.array_equal(a.assignment, b.assignment)
            and np.array_equal(a.centers, b.centers))


def grid_adjacency(rows, cols):
    """The edge table of a rows x cols rook grid: each cell's pairs with its
    right and upper neighbours."""
    n = rows * cols
    return ([(v, v + 1) for v in range(n) if (v + 1) % cols]
            + [(v, v + cols) for v in range(n - cols)])


def make_grid_graph(rows, cols, pop=None, cap=None):
    """Rook grid with explicit per-node population/capacity (ES level)."""
    n = rows * cols
    pop = np.zeros(n, dtype=np.int64) if pop is None else np.asarray(pop)
    cap = np.zeros(n, dtype=np.int64) if cap is None else np.asarray(cap)
    return ContiguityGraph(
        n, grid_adjacency(rows, cols),
        population={lv: pop for lv in LEVELS},
        capacity={lv: cap for lv in LEVELS},
        polygons=RingTable.from_polygons(
            [unit_square(v % cols, v // cols) for v in range(n)]),
    )


def hex_ring(row, col):
    """Closed ring of the pointy-top hexagon at (row, col) of an
    odd-row-offset tiling.  Every vertex lies on the lattice
    (X * sqrt(3), Y) for integers X, Y, so shared sides match exactly."""
    x, y = 2 * col + (row & 1), 3 * row
    return [[px * math.sqrt(3.0), float(py)] for px, py in
            [(x, y - 2), (x + 1, y - 1), (x + 1, y + 1), (x, y + 2),
             (x - 1, y + 1), (x - 1, y - 1), (x, y - 2)]]


# each refusal of a unit's polygon: the bad polygon made from one of the
# unit's rings, and the message naming the unit
POLYGON_FAULTS = {
    "three-points": (lambda ring: [ring[:2] + ring[:1]],
                     "ring must be a closed sequence of >= 4 points"),
    "nan-coordinate": (lambda ring: [ring[:1] + [[float("nan"), 0]]
                                     + ring[2:]],
                       "ring has a non-finite coordinate"),
    "huge-int-coordinate": (lambda ring: [ring[:1] + [[10 ** 400, 0]]
                                          + ring[2:]],
                            "ring has a non-finite coordinate"),
    "inf-in-hole": (lambda ring: [ring, ring[:2] + [[0, float("inf")]]
                                  + ring[3:]],
                    "ring has a non-finite coordinate"),
    "unclosed-ring": (lambda ring: [ring[:-1]],
                      r"ring is not closed \(first point != last point\)"),
    "two-distinct-points": (lambda ring: [ring[:2] * 2 + ring[:1]],
                            "degenerate ring with < 3 distinct points"),
    "zero-area": (lambda ring: [[ring[0], ring[1], ring[2], ring[1],
                                 ring[0]]],
                  "outer ring has zero signed area"),
    "three-coordinate-points": (lambda ring: [[p + [0] for p in ring]],
                                "ring must be a closed sequence of >= 4 "
                                "points"),
    "one-ragged-point": (lambda ring: [ring[:1] + [ring[1] + [0]]
                                       + ring[2:]],
                         "ring must be a closed sequence of >= 4 points"),
    "bare-ring": (lambda ring: ring,
                  "ring must be a closed sequence of >= 4 points"),
    "no-rings": (lambda ring: [], "polygon needs at least an outer ring"),
    "number": (lambda ring: 5, "polygon is not a list of rings"),
    "text-coordinate": (lambda ring: [ring[:1] + [["1", 0]] + ring[2:]],
                        "coordinate '1' is not a number"),
    "bool-coordinate": (lambda ring: [ring[:1] + [[1, False]] + ring[2:]],
                        "coordinate False is not a number"),
}


def make_hex_graph(rows, cols, pop=None, cap=None):
    """A rows x cols hexagonal tiling (degree up to 6) with its adjacency
    derived from the polygons and explicit per-node population/capacity."""
    n = rows * cols
    pop = np.zeros(n, dtype=np.int64) if pop is None else np.asarray(pop)
    cap = np.zeros(n, dtype=np.int64) if cap is None else np.asarray(cap)
    polygons = [Polygon([hex_ring(*divmod(v, cols))]) for v in range(n)]
    rings = RingTable.from_polygons(polygons)
    return ContiguityGraph(
        n, derive_adjacency(shared_boundaries(rings)),
        population={lv: pop for lv in LEVELS},
        capacity={lv: cap for lv in LEVELS},
        polygons=rings,
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
    return ContiguityGraph(rows * cols, grid_adjacency(rows, cols),
                           population={lv: pop for lv in LEVELS},
                           capacity={lv: cap for lv in LEVELS},
                           polygons=RingTable.from_polygons(polygons))


def make_grid_instance(rows, cols, centers, pop, cap, config=None):
    graph = make_grid_graph(rows, cols, pop, cap)
    return build_instance(graph, "ES", centers, config)


def random_instance(make_graph, n, rng, mode, k=None):
    """An instance on the graph ``make_graph(pop, cap)`` of ``n`` nodes, with
    ``k`` (at most ``n``; 2-4 if not given) random centers, random
    populations and capacities, and the given compactness mode."""
    k = min(int(rng.integers(2, 5)) if k is None else k, n)
    centers = rng.choice(n, size=k, replace=False)
    pop = rng.integers(0, 100, size=n)
    cap = np.zeros(n, dtype=np.int64)
    cap[centers] = rng.integers(1, 40 * n // k, size=k)
    return build_instance(make_graph(pop, cap), "ES", centers,
                          ObjectiveConfig(compactness_mode=mode))


def assert_same_state(walk, other):
    """``walk`` equals ``other``, a fresh :class:`Walk` of the same plan:
    plan, owners, cut counts, pair list, every boundary list, the rows of
    sums (also equal to the plan's :func:`territory_sums`, transposed), the
    per-territory terms and the plan's terms, bit for bit."""
    assert plans_equal(walk.plan, other.plan)
    assert walk.owner == other.owner and walk.centers == other.centers
    assert walk.pair_cuts == other.pair_cuts
    assert walk.pairs == other.pairs
    k = walk.territory_count
    for donor in range(k):
        for recipient in range(k):
            assert (walk.boundary(donor, recipient)
                    == other.boundary(donor, recipient))
    assert_same_rows(walk.rows, other.rows)
    assert_same_rows(walk.rows, sums_rows(territory_sums(walk.plan,
                                                         walk.instance)))
    assert walk.balance == other.balance
    assert walk.compactness == other.compactness
    assert (np.asarray(walk.terms).tobytes()
            == np.asarray(other.terms).tobytes())
    if walk.counts is not None:
        assert walk.counts == recount(walk)


def recount(walk):
    """The walk's V_T, E_T and F_T counted afresh from its owners and its
    corner table: each territory's units, its sides (counted from both
    ends, halved) and the corners whose units all lie in it."""
    corners, owner = walk.corners, walk.owner
    k = walk.territory_count
    units, sides, faces = [0] * k, [0] * k, [0] * k
    ends = corners.side_ends
    for v, t in enumerate(owner):
        units[t] += 1
        sides[t] += sum(owner[w] == t for w in corners.sides[ends[v]:
                                                             ends[v + 1]])
    starts = corners.corner_starts.tolist()
    for a, b in zip(starts, starts[1:]):
        inside = {owner[u] for u in corners.corner_units[a:b].tolist()}
        if len(inside) == 1:
            faces[inside.pop()] += 1
    return units, [x // 2 for x in sides], faces


def sums_rows(sums):
    """:func:`~districter.objective.territory_sums` transposed: one list per
    territory, as ``Walk.rows`` holds them."""
    return [list(row) for row in zip(*sums)]


def _bits(x):
    """A number's type and, for a float, its exact bits (which tell 0.0
    from -0.0)."""
    return type(x), x.hex() if type(x) is float else x


def assert_same_rows(rows, other):
    """Two lists of per-territory rows of sums (``Walk.rows``, or
    :func:`sums_rows`) hold the same numbers, bit for bit, with an int
    wherever the other has an int."""
    assert len(rows) == len(other)
    for mine, theirs in zip(rows, other):
        assert list(map(_bits, mine)) == list(map(_bits, theirs))


def chain_visited(instance, start, rng, steps):
    """The plans a band-free BAA ``run_chain`` from ``start`` visits, the
    start included, as ``assignment.tobytes()`` keys.  It replays
    ``run_chain``'s own walk: the same walk, proposal source and rule, with
    the same start, generator and step count."""
    walk = Walk(start, instance)
    visited = {walk.plan.assignment.tobytes()}
    for _, accepted in walk.run(random_proposals(walk, rng, steps),
                                BalancedBand(math.inf)):
        if accepted:
            visited.add(walk.plan.assignment.tobytes())
    return visited


def reference_repair(plan, instance, rng):
    """Repair as it was before its frontier became a maintained list: each
    draw rescans the component for its frontier.  The oracle for
    :func:`districter.repair`'s plan and draws."""
    graph = instance.graph
    a = plan.assignment.copy()
    for t in range(plan.territory_count):
        comps = connected_components(graph, np.flatnonzero(a == t))
        if len(comps) == 1:
            continue
        center = int(plan.centers[t])
        for comp in comps:
            if center in comp:
                continue
            remaining = set(comp.tolist())
            while remaining:
                frontier = sorted(
                    v for v in remaining
                    if any(a[w] != t for w in graph.neighbor_lists[v]
                           if w not in remaining))
                v = frontier[int(rng.integers(len(frontier)))]
                options = np.unique(
                    [a[w] for w in graph.neighbor_lists[v]
                     if w not in remaining and a[w] != t])
                a[v] = int(rng.choice(options))
                remaining.remove(v)
    return Plan(a, plan.centers.copy())


@pytest.fixture
def validated_commits(monkeypatch):
    """Every :meth:`Walk.commit` (an accepted flip or a kept recombination)
    validates the walk's plan afterwards: a plan that breaks a hard
    constraint raises :class:`~districter.InternalError`."""
    commit = Walk.commit

    def validated_commit(self, candidate):
        commit(self, candidate)
        assert_hard_feasible(self.plan, self.instance)

    monkeypatch.setattr(Walk, "commit", validated_commit)


@pytest.fixture(scope="session")
def grid3():
    """The tiny reference instance: 3x3 rook grid, K=2, centers {0, 8}."""
    return generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))


@pytest.fixture(scope="session")
def path3():
    """Path 0-1-2 with centers at both ends."""
    return generate_grid_instance(1, 3, 2, seed=0, centers=(0, 2))


def box(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def grid_boxes(rows, cols, skip=()):
    return [[box(c, r, c + 1, r + 1)] for r in range(rows)
            for c in range(cols) if (r, c) not in skip]


# hand-made maps where the rule meets a hole, an open fan or a corner of
# more than four units; each has at most 8 units, so every assignment of
# 2 or 3 territories is tried
CORNER_MAPS = {
    # the ring round the center encloses a territory of its own
    "enclosing": (grid_boxes(3, 3), 2),
    "hex": ([[hex_ring(r, c)] for r in range(3) for c in range(3)], 2),
    # a gap where the center would be: the ring round it has a hole
    "gap": (grid_boxes(3, 3, skip=[(1, 1)]), 3),
    # an L-shaped notch: three units round a point of an open fan
    "notch": (grid_boxes(3, 3, skip=[(2, 2)]), 3),
    # a unit with a hole ring, filled by an island, above a row of three
    "hole-ring": ([[[[0, 0], [1, 0], [2, 0], [3, 0], [3, 3], [0, 3],
                     [0, 0]], box(1, 1, 2, 2)[::-1]],
                   [box(1, 1, 2, 2)]]
                  + [[box(c, -1, c + 1, 0)] for c in range(3)], 3),
    # the same unit whose hole is a gap
    "hole-gap": ([[[[0, 0], [1, 0], [2, 0], [3, 0], [3, 3], [0, 3],
                    [0, 0]], box(1, 1, 2, 2)[::-1]]]
                 + [[box(c, -1, c + 1, 0)] for c in range(3)], 3),
    # unit 0, a U, touches unit 1 along its left and its right side, with
    # unit 2 between them on top; a row of three below
    "two-stretches": ([[[[0, 0], [1, 0], [1, 1], [1, 2], [2, 2], [2, 1],
                         [2, 0], [3, 0], [3, 3], [0, 3], [0, 0]]],
                       [box(1, 0, 2, 1)], [box(1, 1, 2, 2)]]
                      + [[box(c, -1, c + 1, 0)] for c in range(3)], 3),
    # six triangles round one point, three more outside: a corner of six
    "star": ([[[[0, 0], [math.cos(a), math.sin(a)],
                [math.cos(b), math.sin(b)], [0, 0]]]
              for a, b in ((i * math.pi / 3, (i + 1) * math.pi / 3)
                           for i in range(6))], 3),
    # unit 0's ring passes (1, 1) twice, a figure of eight round units 1
    # and 2 there, which meet only at that point; a row of two below
    "pinch": ([[[[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2], [1, 1],
                 [0, 1], [0, 0]]], [box(1, 0, 2, 1)], [box(0, 1, 1, 2)]]
              + [[box(c, -1, c + 1, 0)] for c in range(2)], 3),
    # unit 0 wraps round unit 1 and meets unit 2 at (1, 1) from both of
    # its sides there: a corner of units 0, 1, 0, 2; a row of two above
    "twice": ([[[[0, -1], [3, -1], [3, 2], [1, 2], [1, 1], [2, 1], [2, 0],
                 [1, 0], [1, 1], [0, 1], [0, -1]]], [box(1, 0, 2, 1)],
               [box(0, 1, 1, 2)], [box(0, 2, 1, 3)], [box(1, 2, 3, 3)]], 3),
    # two squares (0, 1) on a 2 x 1 block (2), and a column (3, 4) on their
    # right: a T-junction, so 0-2 and 1-2 share no side
    "t-junction": ([[box(0, 1, 1, 2)], [box(1, 1, 2, 2)], [box(0, 0, 2, 1)],
                    [box(2, 1, 3, 2)], [box(2, 0, 3, 1)]], 3),
}
