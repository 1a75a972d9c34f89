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

An instance's polygons are read once into one ``geometry.RingTable``, which
the graph keeps: the file's lists are stacked and checked in a few passes,
and unit areas, perimeters, centroids and the school lookup's bounding boxes
come from the table with a few numpy calls, bit-identical to the per-unit
``geometry`` functions.  The table's segments are matched once
(``geometry.shared_boundaries``): the match gives the derived edge table and
the per-edge shared lengths.  A declared adjacency, in a file (the graph
takes its pairs as given) or a hand-built graph, must have the same edges.

Plans are saved as ``{"assignment": [...], "centers": [...]}``.

Instance and plan files are decoded by orjson, except where it could read
them differently from the standard library's ``json``: a run of 19 digits
or more (orjson reads an integer beyond 64 bits as a float), nesting deeper
than 64 or a quote after a backslash, and every text that orjson refuses
(``NaN``, ``Infinity``, ``1e400``, a lone surrogate, malformed text).
``json`` reads those as it reads a text-mode file, so every document, error
and message is the one ``json`` gives.  Files are written by ``json``.
"""

from __future__ import annotations

import codecs
import gc
import io
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import ConfigError, InstanceError
from .geometry import RingTable, containing_unit, shared_boundaries
from .graph import (LEVELS, ContiguityGraph, Plan, check_plan, repair,
                    split_territories, whole_numbers)
from .objective import ObjectiveConfig, ShapeWeights, shape_weights

log = logging.getLogger(__name__)


@dataclass
class Instance:
    """A full problem statement: contiguity graph, school level, fixed
    centers and objective configuration.  Geometry sums needed by the
    compactness term are cached per unit so plan evaluation never re-touches
    polygons."""

    graph: ContiguityGraph
    level: str
    centers: np.ndarray
    objective_config: ObjectiveConfig
    geometry: ShapeWeights | None   # exact unit area, perimeter, shared length
    shape_weights: ShapeWeights | None  # what the compactness mode sums
    # each unit's share of its territory's sums, one tuple per unit:
    # population and capacity at the level, then each of
    # ``shape_weights.units``
    unit_rows: list

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
    """Assemble an Instance from parts, deriving its geometry sums.
    A graph with polygons must have exactly the edges their shared
    boundaries give (InstanceError otherwise, a GeometryError when a
    segment has more than two owners)."""
    shared = None if graph.rings is None else shared_boundaries(graph.rings)
    return _assemble(graph, level, centers, objective_config, shared)


def _assemble(graph, level, centers, objective_config, shared) -> Instance:
    """:func:`build_instance`, given the ``shared_boundaries`` of the graph's
    ring table (None without polygons)."""
    level = normalize_level(level)
    if shared is not None and not np.array_equal(graph.edges, shared[0]):
        declared = set(map(tuple, graph.edges.tolist()))
        u, v = min(declared.symmetric_difference(map(tuple, shared[0].tolist())))
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

    geometry = None if shared is None else _exact_geometry(graph, shared)
    config = objective_config or ObjectiveConfig()
    weights = shape_weights(graph, config.compactness_mode, geometry)
    unit_rows = list(zip(graph.population[level].tolist(), cap.tolist(),
                         *(x.tolist() for x in (weights.units if weights
                                                else ()))))
    return Instance(graph, level, centers, config, geometry, weights,
                    unit_rows)


def _exact_geometry(graph, shared) -> ShapeWeights:
    """Unit areas and perimeters and per-edge shared lengths, rounded to
    multiples of 2**-s, the finest that keeps each total below 2**52 of them:
    sums and differences of them are exact in any order (unit squares are
    unchanged).  A positive value that rounds to 0 is an InstanceError."""
    raw = (graph.rings.areas(), graph.rings.perimeters(), shared[1])
    s = 52 - math.frexp(max(x.sum() for x in raw))[1]
    area, perimeter, lengths = rounded = tuple(
        np.ldexp(np.rint(np.ldexp(x, s)), -s) for x in raw)
    for what, x, y in zip(("area of unit", "perimeter of unit",
                           "shared length of units"), raw, rounded):
        for i in np.flatnonzero((x > 0) & (y == 0))[:1].tolist():
            name = i if what.endswith("unit") else graph.edges[i].tolist()
            raise InstanceError(f"{what} {name} is {x[i]}, which rounds to "
                                f"0 in multiples of 2**{-s}")
    return ShapeWeights((area, perimeter), lengths,
                        graph.along_neighbors(lengths))


def derive_adjacency(shared) -> np.ndarray:
    """Rook contiguity from ``shared_boundaries`` as an edge table: units
    sharing a boundary segment of positive length, not just a corner.
    Requires edge-matched tilings (grid cells, typical GIS planning units)."""
    return shared[0]


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

@contextmanager
def _collector_paused():
    """Run the block with automatic cyclic garbage collection off, and turn
    it back on afterwards, also after an exception, unless it was off
    before.  Reference counting still frees every object as usual."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def load_instance(path, level: str = "ES",
                  objective_config: ObjectiveConfig | None = None) -> Instance:
    """Load an instance file, deriving adjacency and centers as needed.

    Centers come from the ``schools`` array when present (point-in-polygon,
    first containing unit by index wins on boundary ties); otherwise every
    unit with capacity > 0 at ``level`` is a center.

    The load runs with the cyclic garbage collector paused.  The parsed
    document holds several containers per unit and vertex, and JSON gives
    them no cycles, so an automatic collection while it is alive walks all
    of them and can free none.  Reference counting frees the document when
    the load returns.
    """
    level = normalize_level(level)
    doc = _read_object(path, "instance")
    units = doc.get("units")
    if not isinstance(units, list) or not units:
        raise InstanceError("instance file has no list of units")
    n = len(units)
    # whole-list passes that only detect a fault; the per-unit checks run to
    # name the first one
    if not (set(map(type, units)) <= {dict}
            and all("id" in u and "polygon" in u for u in units)):
        for i, u in enumerate(units):
            _require(u, ("id", "polygon"), f"unit entry {i}")
    ids = whole_numbers([u["id"] for u in units], "id of unit entry",
                        column=True)
    if not np.array_equal(np.sort(ids), np.arange(n)):
        raise InstanceError("unit ids must be dense 0..N-1")
    units = [units[i] for i in np.argsort(ids).tolist()]

    # each unit's population and capacity map; a unit's polygon is refused
    # before its maps, and before the maps of any unit after it
    pops = [u.get("population", {}) for u in units]
    caps = [u.get("capacity", {}) for u in units]
    polygons = [u["polygon"] for u in units]
    if not (set(map(type, pops)) | set(map(type, caps)) <= {dict}
            and set().union(*pops, *caps) <= _LEVEL_SET):
        v, fault = next((v, fault) for v, maps in enumerate(zip(pops, caps))
                        if (fault := _count_map_fault(v, *maps)))
        RingTable.from_lists(polygons[:v + 1])
        raise InstanceError(fault)
    rings = RingTable.from_lists(polygons)
    population = {lv: whole_numbers([c.get(lv, 0) for c in pops],
                                    f"{lv} population of unit", column=True)
                  for lv in LEVELS}
    capacity = {lv: whole_numbers([c.get(lv, 0) for c in caps],
                                  f"{lv} capacity of unit", column=True)
                for lv in LEVELS}

    shared = shared_boundaries(rings)
    if "adjacency" in doc and doc["adjacency"] is not None:
        pairs = doc["adjacency"]
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise InstanceError("adjacency must be a list of [u, v] pairs")
        edges = whole_numbers(pairs, "adjacency entry")
    else:
        edges = derive_adjacency(shared)

    if "schools" in doc and doc["schools"] is not None:
        if not isinstance(doc["schools"], list):
            raise InstanceError("'schools' is not a list of school entries")
        centers = []
        boxes = rings.boxes()
        for i, s in enumerate(doc["schools"]):
            _require(s, ("level", "location", "capacity"), f"school entry {i}")
            try:
                school_level = normalize_level(s["level"])
            except ConfigError as exc:
                raise InstanceError(f"school entry {i}: {exc}") from exc
            if school_level != level:
                continue
            location = s["location"]
            if not (isinstance(location, list) and len(location) == 2 and all(
                    type(c) in (int, float) for c in location)):
                raise InstanceError(f"school entry {i}: location is not [x, y]")
            unit = containing_unit(location, rings, boxes)
            if unit is None:
                raise InstanceError(
                    f"school at {tuple(location)} (level {level}) lies in no unit")
            if unit in centers:
                raise InstanceError(
                    f"two {level} schools fall in unit {unit}; one school per "
                    "unit and level is supported")
            if isinstance(s["capacity"], list):
                raise InstanceError(f"school entry {i}: capacity is not one "
                                    "number")
            centers.append(unit)
            capacity[level][unit] = whole_numbers(
                s["capacity"], f"capacity of the school in unit {unit}")
        if not centers:
            raise InstanceError(f"no {level} school in the schools array")
    else:
        centers = np.flatnonzero(capacity[level] > 0)
        if centers.size == 0:
            raise InstanceError(f"no unit has capacity at level {level}")

    graph = ContiguityGraph(n, edges, population=population, capacity=capacity,
                            polygons=rings)
    return _assemble(graph, level, centers, objective_config, shared)


_LEVEL_SET = frozenset(LEVELS)


def _count_map_fault(v: int, population, capacity) -> str | None:
    """What is wrong with unit ``v``'s population or capacity map, if
    anything: each must map school levels to numbers."""
    for key, counts in (("population", population), ("capacity", capacity)):
        if not isinstance(counts, dict):
            return f"unit {v}: {key} must map school levels to numbers"
        if not counts.keys() <= _LEVEL_SET:
            level = next(lv for lv in counts if lv not in _LEVEL_SET)
            return f"unit {v}: unknown school level {level!r} in {key}"
    return None


def _read_object(path, what: str) -> dict:
    """The JSON object that the ``what`` file at ``path`` holds, read as
    UTF-8 with or without a byte-order mark and decoded by :func:`_decode`.
    A file that cannot be read or parsed is an InstanceError: malformed
    JSON, invalid UTF-8, an integer too long to convert, and nesting too
    deep to decode alike."""
    try:
        with open(path, "rb") as f:
            doc = _decode(f.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise InstanceError(f"cannot read {what} file {path}: {exc}") from exc
    return _require(doc, (), f"{what} file {path}")


# every digit as "0": an integer literal of 19 digits or more, beyond what
# orjson reads as an int, is a run of 19 zeros
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"0" * 9)
_LONG_DIGIT_RUN = b"0" * 19
# the bytes that decide the nesting depth, and each one's step in it
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}\\')))
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1
# json recurses once per level, within the interpreter's recursion limit
# less the caller's stack, and orjson builds nested objects on the C stack
# (100,000 nested objects crash orjson 3.8): a text nested deeper than this
# goes to json, which reads or refuses it as it always has.  Instance and
# plan files nest 6 and 2 deep
_DEEPEST = 64


def _decode(data: bytes):
    """The JSON value of the file contents ``data``: exactly what ``json``
    reads from the file opened as UTF-8 text with or without a byte-order
    mark, or the exception ``json`` raises.  orjson decodes a text with no
    run of 19 digits and at most :data:`_DEEPEST` deep, on which the two
    read the same value; ``json`` decodes the rest, and every text that
    orjson refuses."""
    body = data[3:] if data.startswith(codecs.BOM_UTF8) else data
    if (_LONG_DIGIT_RUN not in body.translate(_DIGITS_AS_ZERO)
            and _nesting_bound(body) <= _DEEPEST):
        try:
            return orjson.loads(body)
        except orjson.JSONDecodeError:
            pass
    # what the text-mode file gives json: newlines translated, a partial
    # byte-order mark read as no text
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"))


def _nesting_bound(data: bytes) -> float:
    """The nesting depth of the JSON text ``data``, counted over the
    brackets outside strings, or infinity if a quote follows a backslash
    (it may be part of the string).  orjson parses a whole text before it
    builds any object, so only a valid text's depth matters, and for a
    valid text the count is exact."""
    marks = data.translate(None, _NOT_STRUCTURE)
    if b"\\" in marks and b'\\"' in data:
        return math.inf
    # two quotes with no bracket between them change no bracket's side of
    # a string: dropped, they leave most files no quote at all
    marks = marks.replace(b'""', b"")
    codes = np.frombuffer(marks, dtype=np.uint8)
    steps = _DEPTH_STEP.take(codes)
    if b'"' in marks:
        steps *= ~np.bitwise_xor.accumulate(codes == ord('"'))
    return int(steps.cumsum(dtype=np.int64).max(initial=0))


def _require(entry, keys, what: str) -> dict:
    """``entry`` if it is a JSON object holding every key in ``keys``; an
    InstanceError naming ``what`` and the first missing key otherwise."""
    if not isinstance(entry, dict):
        raise InstanceError(f"{what} is not a JSON object")
    for key in keys:
        if key not in entry:
            raise InstanceError(f"{what} has no {key!r}")
    return entry


def save_instance(instance: Instance, path) -> None:
    """Write the instance back out as an instance file (adjacency included)."""
    graph = instance.graph
    if graph.rings is None:
        raise InstanceError("an instance file needs a polygon per unit")
    polygons = graph.rings.to_lists()
    units = [{"id": v,
              "polygon": polygons[v],
              "population": {lv: int(graph.population[lv][v]) for lv in LEVELS},
              "capacity": {lv: int(graph.capacity[lv][v]) for lv in LEVELS}}
             for v in range(graph.node_count)]
    _write_json({"units": units, "adjacency": graph.edges.tolist()}, path)


def _write_json(doc, path) -> None:
    """The compact, key-sorted JSON of instance and plan files.  One
    ``json.dumps`` call runs the C encoder, where ``json.dump`` streams
    through the pure-Python one; it holds the whole text in memory once."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# Synthetic grid instances
# ---------------------------------------------------------------------------

def generate_grid_instance(rows: int, cols: int, k: int, seed: int,
                           balance_profile: str = "uniform",
                           centers=None) -> Instance:
    """Desk-scale synthetic instance: a rows x cols rook grid of unit squares.

    Populations are drawn per unit from ``balance_profile`` ("uniform" or
    "clustered" growth hotspots).  K centers are sampled without replacement
    (or pinned via ``centers``).  Total capacity equals total population,
    split across centers with +/-20% jitter, so an exactly balanced plan is
    attainable in principle.  Deterministic under a fixed seed; the three
    school levels carry identical data.  It scores plans with the default
    objective; :func:`build_instance` of its parts takes another.
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid must have at least one row and column")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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

    # unit squares, each ring from its lower-left corner round anticlockwise
    corners = np.column_stack([np.arange(n) % cols, np.arange(n) // cols])
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    rings = RingTable((corners[:, None, :] + square).reshape(-1, 2),
                      np.arange(0, 5 * n + 1, 5), np.arange(n))
    shared = shared_boundaries(rings)
    graph = ContiguityGraph(
        n, derive_adjacency(shared),
        population={lv: pop for lv in LEVELS},
        capacity={lv: capacity for lv in LEVELS},
        polygons=rings,
    )
    return _assemble(graph, "ES", centers, None, shared)


def _split_total(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer split of ``total`` proportional to ``weights`` (largest
    remainder).  Every share is positive for the grids' draws: each unit
    holds at least 20 people, so ``total >= 20 K``, and each weight exceeds
    ``0.8 / (1.2 K)``, so every share is at least 13."""
    raw = weights * total
    base = np.floor(raw).astype(np.int64)
    remainder = total - int(base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:remainder]] += 1
    return base


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------

def save_plan(plan: Plan, path) -> None:
    _write_json({"assignment": plan.assignment.tolist(),
                 "centers": plan.centers.tolist()}, path)


@_collector_paused()
def load_plan(path, instance: Instance) -> Plan:
    """Read a plan file and make it feasible for ``instance``.

    Disconnected territories are repaired with a fixed seed (orphans moved
    to adjacent territories); the territories and the moved nodes are
    logged.  A plan that does not fit the instance (:func:`check_plan`:
    a node-count mismatch, other centers, an entry that names no territory
    or a center missing from its own territory) is not repairable.
    """
    doc = _read_object(path, "plan")
    assignment = whole_numbers(doc.get("assignment", []),
                               "plan assignment of node")
    if assignment.ndim != 1:
        raise InstanceError("plan 'assignment' is not a flat list of "
                            "territories")
    centers = whole_numbers(doc.get("centers", []), "plan center")
    check_plan(assignment, centers, instance)
    plan = Plan(assignment, centers)
    broken = split_territories(instance.graph, assignment, len(centers))
    if broken:
        repaired = repair(plan, instance, np.random.default_rng(0))
        moved = np.flatnonzero(repaired.assignment != plan.assignment)
        log.info("repaired territories %s; reassigned nodes %s",
                 broken, [int(v) for v in moved])
        return repaired
    return plan
