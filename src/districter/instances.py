"""Instance loading, adjacency derivation, synthetic grid generation and
plan serialization.

The instance wire format is a JSON document::

    {
      "units": [{"id": 0, "polygon": [[[x, y], ...]],
                 "population": {"ES": 10, "MS": 4, "HS": 5},
                 "capacity":   {"ES": 0,  "MS": 0, "HS": 0}}, ...],
      "adjacency": [[0, 1], ...],          # optional; derived if absent
      "schools":   [{"level": "ES", "location": [x, y], "capacity": 600}, ...]
    }

An instance's polygons are matched once (``geometry.shared_boundaries``):
the table gives the derived adjacency and the per-edge shared lengths, and a
declared adjacency, in a file or a hand-built graph, must equal its pairs.

Plans are saved as ``{"assignment": [...], "centers": [...]}``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, InstanceError
from .geometry import (Polygon, bounding_boxes, containing_polygon,
                       polygon_area, polygon_perimeter, ring_centroid,
                       shared_boundaries, unit_square)
from .graph import LEVELS, ContiguityGraph, Plan, is_connected, repair
from .objective import ObjectiveConfig, ShapeWeights, shape_weights

log = logging.getLogger(__name__)


@dataclass
class Instance:
    """A full problem statement: contiguity graph, school level, fixed
    centers, objective configuration and the derived unit-to-center distance
    matrix.  Geometry sums needed by the compactness term are cached per unit
    so plan evaluation never re-touches polygons."""

    graph: ContiguityGraph
    level: str
    centers: np.ndarray
    objective_config: ObjectiveConfig
    distance: np.ndarray          # (N, K) centroid-to-center distances
    geometry: ShapeWeights | None   # exact unit area, perimeter, shared length
    shape_weights: ShapeWeights | None  # what the compactness mode sums

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def territory_count(self) -> int:
        return len(self.centers)


def normalize_level(level: str) -> str:
    lv = str(level).upper()
    if lv not in LEVELS:
        raise ConfigError(f"unknown school level {level!r}; expected one of "
                          f"{', '.join(LEVELS)}")
    return lv


def build_instance(graph: ContiguityGraph, level: str, centers,
                   objective_config: ObjectiveConfig | None = None) -> Instance:
    """Assemble an Instance from parts, deriving distances and geometry sums.
    A graph with polygons must have exactly the edges their shared
    boundaries give (InstanceError otherwise; GeometryError when a segment
    has more than two owners)."""
    table = None if graph.polygons is None else shared_boundaries(graph.polygons)
    return _assemble(graph, level, centers, objective_config, table)


def _assemble(graph, level, centers, objective_config, table) -> Instance:
    """:func:`build_instance`, given the boundary table of the graph's
    polygons (None without polygons)."""
    level = normalize_level(level)
    if table is not None and not np.array_equal(graph.edges, table[0]):
        declared = set(map(tuple, graph.edges.tolist()))
        u, v = min(declared.symmetric_difference(map(tuple, table[0].tolist())))
        raise InstanceError(
            f"adjacency pair [{u}, {v}] shares no boundary segment"
            if (u, v) in declared else f"adjacency omits [{u}, {v}], though "
            f"units {u} and {v} share a boundary segment")
    centers = np.asarray(sorted(int(c) for c in centers), dtype=np.int64)
    if centers.size == 0:
        raise InstanceError(f"no centers at level {level}")
    if len(np.unique(centers)) != len(centers):
        raise InstanceError("duplicate center nodes")
    if centers.min() < 0 or centers.max() >= graph.node_count:
        raise InstanceError("center index out of range")
    cap = graph.capacity[level]
    for c in centers:
        if cap[c] <= 0:
            raise InstanceError(f"center node {int(c)} has no capacity at "
                                f"level {level}")

    diffs = graph.centroids[:, None, :] - graph.centroids[centers][None, :, :]
    distance = np.sqrt((diffs ** 2).sum(axis=2))

    geometry = None if table is None else _exact_geometry(graph, table)
    config = objective_config or ObjectiveConfig()
    return Instance(graph, level, centers, config, distance, geometry,
                    shape_weights(graph, config.compactness_mode, geometry))


def _exact_geometry(graph, table) -> ShapeWeights:
    """Unit areas and perimeters and per-edge shared lengths, rounded to
    multiples of 2**-s, the finest that keeps each total below 2**52 of them:
    sums and differences of them are exact in any order (unit squares are
    unchanged).  A positive value that rounds to 0 is an InstanceError."""
    raw = (np.array([polygon_area(p) for p in graph.polygons]),
           np.array([polygon_perimeter(p) for p in graph.polygons]), table[1])
    s = 52 - math.frexp(max(x.sum() for x in raw))[1]
    area, perimeter, lengths = rounded = tuple(
        np.ldexp(np.rint(np.ldexp(x, s)), -s) for x in raw)
    for what, x, y in zip(("area of unit", "perimeter of unit",
                           "shared length of units"), raw, rounded):
        for i in np.flatnonzero((x > 0) & (y == 0))[:1].tolist():
            name = i if what.endswith("unit") else graph.edges[i].tolist()
            raise InstanceError(f"{what} {name} is {x[i]}, which rounds to "
                                f"0 in multiples of 2**{-s}")
    # both directions of every edge, sorted as the neighbour lists are
    src, dst = np.concatenate([graph.edges, graph.edges[:, ::-1]]).T
    flat = np.concatenate([lengths, lengths])[np.lexsort((dst, src))].tolist()
    ends = np.cumsum([len(nb) for nb in graph.neighbor_lists]).tolist()
    return ShapeWeights((area, perimeter), lengths, tuple(
        flat[end - len(nb):end] for nb, end in zip(graph.neighbor_lists, ends)))


def derive_adjacency(table, node_count: int) -> list[list[int]]:
    """Rook contiguity from a ``shared_boundaries`` table: units are
    adjacent when they share a boundary segment of positive length, not
    when they only touch at a corner.  Requires edge-matched tilings (grid
    cells, typical GIS planning units)."""
    neighbors: list[list] = [[] for _ in range(node_count)]
    for u, v in table[0].tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

def load_instance(path, level: str = "ES",
                  objective_config: ObjectiveConfig | None = None) -> Instance:
    """Load an instance file, deriving adjacency and centers as needed.

    Centers come from the ``schools`` array when present (point-in-polygon,
    first containing unit by index wins on boundary ties); otherwise every
    unit with capacity > 0 at ``level`` is a center.
    """
    level = normalize_level(level)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc

    units = doc.get("units")
    if not units:
        raise InstanceError("instance file has no units")
    n = len(units)
    ids = sorted(int(u["id"]) for u in units)
    if ids != list(range(n)):
        raise InstanceError("unit ids must be dense 0..N-1")
    units = sorted(units, key=lambda u: int(u["id"]))

    polygons = []
    for u in units:
        try:
            polygons.append(Polygon(u["polygon"]))
        except (GeometryError, ValueError) as exc:
            raise InstanceError(f"unit {u['id']}: {exc}") from exc
    population = {lv: _whole_numbers(
        [u.get("population", {}).get(lv, 0) for u in units],
        f"{lv} population of unit") for lv in LEVELS}
    capacity = {lv: _whole_numbers(
        [u.get("capacity", {}).get(lv, 0) for u in units],
        f"{lv} capacity of unit") for lv in LEVELS}
    centroids = np.array([ring_centroid(p.outer) for p in polygons])

    try:
        table = shared_boundaries(polygons)
    except GeometryError as exc:
        raise InstanceError(str(exc)) from exc
    if "adjacency" in doc and doc["adjacency"] is not None:
        pairs = _whole_numbers(doc["adjacency"], "adjacency entry")
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise InstanceError("adjacency must be a list of [u, v] pairs")
        neighbors: list[set] = [set() for _ in range(n)]
        for u, v in pairs.reshape(-1, 2).tolist():
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InstanceError(f"bad adjacency pair [{u}, {v}]")
            neighbors[u].add(v)
            neighbors[v].add(u)
        adjacency = [sorted(s) for s in neighbors]
    else:
        adjacency = derive_adjacency(table, n)

    if "schools" in doc and doc["schools"] is not None:
        centers = []
        boxes = bounding_boxes(polygons)
        for s in doc["schools"]:
            if normalize_level(s["level"]) != level:
                continue
            location = s["location"]
            unit = containing_polygon(location, polygons, boxes)
            if unit is None:
                raise InstanceError(
                    f"school at {tuple(location)} (level {level}) lies in no unit")
            if unit in centers:
                raise InstanceError(
                    f"two {level} schools fall in unit {unit}; one school per "
                    "unit and level is supported")
            centers.append(unit)
            capacity[level][unit] = _whole_numbers(
                s["capacity"], f"capacity of the school in unit {unit}")
        if not centers:
            raise InstanceError(f"no {level} school in the schools array")
    else:
        centers = np.flatnonzero(capacity[level] > 0)
        if centers.size == 0:
            raise InstanceError(f"no unit has capacity at level {level}")

    graph = ContiguityGraph(adjacency, population=population, capacity=capacity,
                            centroids=centroids, polygons=polygons)
    return _assemble(graph, level, centers, objective_config, table)


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` (a number or a list) as int64, refusing any entry that is
    not a whole number of magnitude at most 2**53 (NaN and infinities
    included) rather than truncating or overflowing it."""
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{what}: not a number: {exc}") from exc
    bad = np.flatnonzero(~(np.abs(x) <= 2.0 ** 53) | (x != np.round(x)))
    if bad.size:
        where = f" {int(bad[0])}" if x.ndim else ""
        raise InstanceError(f"{what}{where} is {x.flat[bad[0]]}, not a "
                            "finite whole number")
    return x.astype(np.int64)


def save_instance(instance: Instance, path) -> None:
    """Write the instance back out as an instance file (adjacency included)."""
    graph = instance.graph
    units = [{"id": v,
              "polygon": graph.polygons[v].to_lists(),
              "population": {lv: int(graph.population[lv][v]) for lv in LEVELS},
              "capacity": {lv: int(graph.capacity[lv][v]) for lv in LEVELS}}
             for v in range(graph.node_count)]
    _write_json({"units": units, "adjacency": graph.edges.tolist()}, path)


def _write_json(doc, path) -> None:
    """The compact, key-sorted JSON of instance and plan files."""
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


# ---------------------------------------------------------------------------
# Synthetic grid instances
# ---------------------------------------------------------------------------

def generate_grid_instance(rows: int, cols: int, k: int, seed: int,
                           balance_profile: str = "uniform",
                           centers=None,
                           objective_config: ObjectiveConfig | None = None,
                           ) -> Instance:
    """Desk-scale synthetic instance: a rows x cols rook grid of unit squares.

    Populations are drawn per unit from ``balance_profile`` ("uniform" or
    "clustered" growth hotspots).  K centers are sampled without replacement
    (or pinned via ``centers``).  Total capacity equals total population,
    split across centers with +/-20% jitter, so an exactly balanced plan is
    attainable in principle.  Deterministic under a fixed seed; the three
    school levels carry identical data.
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid must have at least one row and column")
    n = rows * cols
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= K <= {n}, got K={k}")
    if balance_profile not in ("uniform", "clustered"):
        raise ConfigError(f"unknown balance profile {balance_profile!r}")

    ss = np.random.SeedSequence(seed)
    pop_rng, center_rng, cap_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    if balance_profile == "uniform":
        pop = pop_rng.integers(50, 151, size=n)
    else:
        # a few growth hotspots on a quiet base, mimicking uneven enrollment
        cells = np.indices((rows, cols)).reshape(2, n).T.astype(float)
        pop = pop_rng.integers(20, 61, size=n).astype(float)
        hotspots = max(1, (rows * cols) // 30)
        sigma = max(rows, cols) / 4.0
        for _ in range(hotspots):
            hx = pop_rng.uniform(0, rows)
            hy = pop_rng.uniform(0, cols)
            d2 = (cells[:, 0] - hx) ** 2 + (cells[:, 1] - hy) ** 2
            pop += pop_rng.uniform(150, 300) * np.exp(-d2 / (2 * sigma ** 2))
        pop = np.round(pop).astype(np.int64)

    if centers is None:
        centers = np.sort(center_rng.choice(n, size=k, replace=False))
    else:
        centers = np.asarray(sorted(int(c) for c in centers), dtype=np.int64)
        if len(centers) != k or len(np.unique(centers)) != k:
            raise ConfigError("centers must be K distinct node indices")
        if centers.min() < 0 or centers.max() >= n:
            raise ConfigError("center index out of range")

    total = int(pop.sum())
    shares = 1.0 + cap_rng.uniform(-0.2, 0.2, size=k)
    caps = _split_total(total, shares / shares.sum())
    capacity = np.zeros(n, dtype=np.int64)
    capacity[centers] = caps

    polygons = [unit_square(v % cols, v // cols) for v in range(n)]
    table = shared_boundaries(polygons)
    centroids = np.array([[v % cols + 0.5, v // cols + 0.5] for v in range(n)])
    graph = ContiguityGraph(
        derive_adjacency(table, n),
        population={lv: pop for lv in LEVELS},
        capacity={lv: capacity for lv in LEVELS},
        centroids=centroids,
        polygons=polygons,
    )
    return _assemble(graph, "ES", centers, objective_config, table)


def _split_total(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer split of ``total`` proportional to ``weights`` (largest
    remainder), guaranteeing every share is at least 1."""
    k = len(weights)
    if total < k:
        raise ConfigError("total population too small to give every center "
                          "a positive capacity")
    raw = weights * total
    base = np.floor(raw).astype(np.int64)
    remainder = total - int(base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:remainder]] += 1
    # keep each center usable
    while np.any(base < 1):
        i = int(np.argmin(base))
        j = int(np.argmax(base))
        base[i] += 1
        base[j] -= 1
    return base


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------

def save_plan(plan: Plan, path) -> None:
    _write_json({"assignment": plan.assignment.tolist(),
                 "centers": plan.centers.tolist()}, path)


def load_plan(path, instance: Instance, rng=None) -> Plan:
    """Read a plan file and make it feasible for ``instance``.

    Disconnected territories are repaired (orphan components reassigned to
    adjacent territories); the moved nodes are logged.  A center missing from
    its own territory or a node-count mismatch is an error, not repairable.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read plan file {path}: {exc}") from exc

    assignment = _whole_numbers(doc.get("assignment", []),
                                "plan assignment of node")
    centers = _whole_numbers(doc.get("centers", []), "plan center")
    if len(assignment) != instance.node_count:
        raise InstanceError(
            f"plan covers {len(assignment)} nodes, instance has "
            f"{instance.node_count}")
    if not np.array_equal(centers, instance.centers):
        raise InstanceError("plan centers do not match the instance")
    k = len(centers)
    if len(assignment) and (assignment.min() < 0 or assignment.max() >= k):
        raise InstanceError("plan assigns a node to a nonexistent territory")
    for i, c in enumerate(centers):
        if assignment[c] != i:
            raise InstanceError(f"center {int(c)} missing from its territory {i}")

    plan = Plan(assignment, centers)
    broken = [i for i in range(k)
              if not is_connected(instance.graph, plan.territory(i))]
    if broken:
        repaired = repair(plan, instance,
                          rng if rng is not None else np.random.default_rng(0))
        moved = np.flatnonzero(repaired.assignment != plan.assignment)
        log.info("repaired territories %s; reassigned nodes %s",
                 broken, [int(v) for v in moved])
        return repaired
    return plan
