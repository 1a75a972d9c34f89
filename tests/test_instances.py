import gc
import json
import re

import numpy as np
import pytest

from districter import (LEVELS, ConfigError, ContiguityGraph, GeometryError,
                        InstanceError, ObjectiveConfig, Plan, Polygon,
                        build_instance,
                        generate_grid_instance, guided_growth, is_connected,
                        load_instance, load_plan, point_in_polygon, repair,
                        save_instance, save_plan, validate_plan)
from districter import geometry, instances
from districter.geometry import (RingTable, polygon_area, polygon_perimeter,
                                 ring_centroid, shared_boundaries, unit_square)
from districter.instances import derive_adjacency

from conftest import POLYGON_FAULTS, hex_ring, make_hex_graph, plans_equal


def write_grid_file(tmp_path, instance, drop_adjacency=False, schools=None):
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    doc = json.loads(path.read_text())
    if drop_adjacency:
        del doc["adjacency"]
    if schools is not None:
        doc["schools"] = schools
    path.write_text(json.dumps(doc))
    return path


def test_generator_examples():
    inst = generate_grid_instance(3, 3, 2, seed=1)
    assert inst.node_count == 9
    assert inst.territory_count == 2
    assert inst.graph.edge_count == 12

    single = generate_grid_instance(1, 1, 1, seed=0)
    assert single.node_count == 1 and list(single.centers) == [0]

    big = generate_grid_instance(10, 10, 4, seed=0)
    assert big.graph.edge_count == 180

    with pytest.raises(ConfigError):
        generate_grid_instance(2, 2, 5, seed=0)


def test_generator_capacity_matches_population():
    for profile in ("uniform", "clustered"):
        inst = generate_grid_instance(6, 5, 3, seed=9, balance_profile=profile)
        level = inst.level
        assert inst.graph.capacity[level].sum() == inst.graph.population[level].sum()
        assert all(inst.graph.capacity[level][c] > 0 for c in inst.centers)


def test_generator_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(generate_grid_instance(5, 4, 3, seed=7, balance_profile="clustered"), a)
    save_instance(generate_grid_instance(5, 4, 3, seed=7, balance_profile="clustered"), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_derives_rook_adjacency(tmp_path):
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    path = write_grid_file(tmp_path, inst, drop_adjacency=True)
    loaded = load_instance(path, "es")
    assert loaded.graph.edge_count == 12
    assert np.array_equal(loaded.graph.edges, inst.graph.edges)


def test_derived_adjacency_excludes_corner_touch():
    # two squares meeting only at a corner
    shared = shared_boundaries(RingTable.from_polygons(
        [unit_square(0, 0), unit_square(1, 1)]))
    assert derive_adjacency(shared).shape == (0, 2)


def grid_file(tmp_path, rows, cols, adjacency=None, extra_units=()):
    """A rows x cols unit-square file (ES capacity in unit 0), with
    ``adjacency`` declared when given and ``extra_units`` squares appended."""
    inst = generate_grid_instance(rows, cols, 1, seed=0, centers=(0,))
    path = write_grid_file(tmp_path, inst, drop_adjacency=adjacency is None)
    doc = json.loads(path.read_text())
    for col, row in extra_units:
        doc["units"].append({"id": len(doc["units"]),
                             "polygon": unit_square(col, row).to_lists(),
                             "population": {"ES": 1}})
    if adjacency is not None:
        doc["adjacency"] = adjacency
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("rows, cols, adjacency, extra_units, match", [
    (1, 3, [[0, 1], [1, 2], [0, 2]], (),
     r"adjacency pair \[0, 2\] shares no boundary segment"),
    (2, 2, [[0, 2], [1, 3], [2, 3]], (),
     r"adjacency omits \[0, 1\], though units 0 and 1 share"),
    (1, 2, [[0, 1], [1, 2]], [(1, 0)],
     r"more than two units share a boundary segment \(units 0, 1, 2\)"),
], ids=["pair-without-boundary", "missing-pair", "segment-of-three-units"])
def test_declared_adjacency_must_match_geometry(tmp_path, rows, cols,
                                                adjacency, extra_units, match):
    # each of these used to load, with shared lengths that made PP wrong
    path = grid_file(tmp_path, rows, cols, adjacency, extra_units)
    with pytest.raises(InstanceError, match=match):
        load_instance(path, "es")


def test_build_instance_refuses_segment_of_three_units():
    """A hand-built graph whose polygons list one segment three times is
    refused with a GeometryError, which is an InstanceError, as a file of
    such units is."""
    graph = ContiguityGraph(3, [[0, 1], [0, 2], [1, 2]],
                            capacity={"ES": np.array([1, 0, 1])},
                            polygons=RingTable.from_polygons(
                                [unit_square(c, 0) for c in (0, 1, 1)]))
    with pytest.raises(InstanceError, match=r"more than two units share a "
                       r"boundary segment \(units 0, 1, 2\)"):
        build_instance(graph, "ES", (0, 2))


def test_build_instance_checks_hand_built_adjacency():
    graph = ContiguityGraph(3, [[0, 1], [0, 2], [1, 2]],
                            capacity={"ES": np.array([1, 0, 1])},
                            polygons=RingTable.from_polygons(
                                [unit_square(c, 0) for c in range(3)]))
    with pytest.raises(InstanceError, match=r"adjacency pair \[0, 2\]"):
        build_instance(graph, "ES", (0, 2))


def test_save_instance_without_polygons_is_instance_error(tmp_path):
    """A hand-built graph without unit polygons builds an edge-cut
    instance, but an instance file needs a polygon per unit: saving it is
    refused, and nothing is written."""
    graph = ContiguityGraph(3, [[0, 1], [1, 2]],
                            capacity={"ES": np.array([1, 0, 1])})
    inst = build_instance(graph, "ES", (0, 2),
                          ObjectiveConfig(compactness_mode="edge_cut_proxy"))
    path = tmp_path / "instance.json"
    with pytest.raises(InstanceError, match="^an instance file needs a "
                       "polygon per unit$"):
        save_instance(inst, path)
    assert not path.exists()


def test_derived_adjacency_refuses_segment_of_three_units(tmp_path):
    path = grid_file(tmp_path, 1, 2, extra_units=[(1, 0)])
    with pytest.raises(InstanceError, match="units 0, 1, 2"):
        load_instance(path, "es")


def test_one_boundary_match_per_instance(tmp_path, monkeypatch):
    calls = []

    def counted(rings):
        calls.append(rings.unit_count)
        return shared_boundaries(rings)

    monkeypatch.setattr(instances, "shared_boundaries", counted)
    inst = generate_grid_instance(3, 4, 2, seed=1)
    assert calls == [12]
    for drop in (False, True):
        calls.clear()
        loaded = load_instance(write_grid_file(tmp_path, inst, drop), "es")
        assert calls == [12]
        assert np.array_equal(loaded.graph.edges, inst.graph.edges)
        assert np.array_equal(loaded.geometry.edges, inst.geometry.edges)


def test_load_centers_from_capacity(tmp_path):
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    path = write_grid_file(tmp_path, inst)
    loaded = load_instance(path, "ES")
    assert list(loaded.centers) == [0, 8]


def test_load_centers_from_schools(tmp_path):
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    schools = [
        {"level": "ES", "location": [0.5, 0.5], "capacity": 500},
        {"level": "ES", "location": [2.5, 2.5], "capacity": 400},
        {"level": "MS", "location": [1.5, 1.5], "capacity": 900},
    ]
    path = write_grid_file(tmp_path, inst, schools=schools)
    loaded = load_instance(path, "es")
    assert list(loaded.centers) == [0, 8]
    assert loaded.graph.capacity["ES"][0] == 500
    ms = load_instance(path, "ms")
    assert list(ms.centers) == [4]


def test_school_lookup_matches_full_scan_on_hex(tmp_path):
    """Schools are placed by testing only the units whose bounding box holds
    them.  The centers must equal a scan of every unit in id order: schools
    at hexagon vertex means, one exactly on the side two hexagons share and
    one on the corner three share (the lowest id wins both), and one just
    outside the map but within ``MATCH_TOL`` of a unit's side."""
    rows, cols = 6, 7
    n = rows * cols
    rings = [hex_ring(*divmod(v, cols)) for v in range(n)]
    locations = [np.mean(rings[v][:-1], axis=0).tolist() for v in (0, 9, 40)]
    side = set(map(tuple, rings[15])) & set(map(tuple, rings[16]))
    assert len(side) == 2
    locations.append(np.mean(sorted(side), axis=0).tolist())
    corner = (set(map(tuple, rings[30])) & set(map(tuple, rings[31]))
              & set(map(tuple, rings[37])))
    assert len(corner) == 1
    locations.append(list(corner.pop()))
    # just off the map, but within MATCH_TOL of unit 6's east side
    east = max(x for x, _ in rings[6])
    locations.append([east + 5e-10, rings[6][2][1] - 0.5])
    units = [{"id": v, "polygon": [rings[v]], "population": {"ES": 5}}
             for v in range(n)]
    schools = [{"level": "ES", "location": loc, "capacity": 50}
               for loc in locations]
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"units": units, "schools": schools}))

    polygons = [Polygon([ring]) for ring in rings]
    expected = [next(i for i, p in enumerate(polygons)
                     if point_in_polygon(loc, p)) for loc in locations]
    assert expected == [0, 9, 40, 15, 30, 6]
    assert load_instance(path, "ES").centers.tolist() == sorted(expected)


def test_load_school_outside_all_units(tmp_path):
    inst = generate_grid_instance(2, 2, 1, seed=0)
    schools = [{"level": "ES", "location": [10.0, 10.0], "capacity": 100}]
    path = write_grid_file(tmp_path, inst, schools=schools)
    with pytest.raises(InstanceError, match="10.0"):
        load_instance(path, "es")


def test_load_duplicate_schools_in_one_unit(tmp_path):
    inst = generate_grid_instance(2, 2, 1, seed=0)
    schools = [
        {"level": "ES", "location": [0.25, 0.25], "capacity": 100},
        {"level": "ES", "location": [0.75, 0.75], "capacity": 100},
    ]
    path = write_grid_file(tmp_path, inst, schools=schools)
    with pytest.raises(InstanceError, match="one school per"):
        load_instance(path, "es")


def test_load_disconnected_graph(tmp_path):
    inst = generate_grid_instance(1, 3, 2, seed=0, centers=(0, 2))
    path = write_grid_file(tmp_path, inst)
    doc = json.loads(path.read_text())
    doc["adjacency"] = [[0, 1]]  # node 2 isolated
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="disconnected"):
        load_instance(path, "es")


def test_load_no_centers(tmp_path):
    # generated instances carry identical levels, so blank one out
    inst = generate_grid_instance(2, 2, 1, seed=0)
    path = write_grid_file(tmp_path, inst)
    doc = json.loads(path.read_text())
    for unit in doc["units"]:
        unit["capacity"]["MS"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError):
        load_instance(path, "ms")


def test_instance_round_trip(tmp_path):
    inst = generate_grid_instance(4, 4, 3, seed=5)
    path = tmp_path / "round.json"
    save_instance(inst, path)
    loaded = load_instance(path, "es")
    assert np.array_equal(loaded.graph.edges, inst.graph.edges)
    assert np.array_equal(loaded.graph.population["ES"],
                          inst.graph.population["ES"])
    assert np.array_equal(loaded.centers, inst.centers)
    assert np.allclose(loaded.graph.centroids, inst.graph.centroids)


def test_plan_round_trip(tmp_path, grid3):
    plan = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path, grid3)
    assert np.array_equal(loaded.assignment, plan.assignment)


def test_plan_load_repairs_disconnected(tmp_path, grid3, caplog):
    # territory 0 = {0, 1, 5}: node 5 is cut off from {0, 1}
    broken = Plan(np.array([0, 0, 1, 1, 1, 0, 1, 1, 1]), grid3.centers)
    path = tmp_path / "broken.json"
    save_plan(broken, path)
    with caplog.at_level("INFO", logger="districter.instances"):
        loaded = load_plan(path, grid3)
    assert validate_plan(loaded, grid3.graph, 1.0).hard_ok
    moved = np.flatnonzero(loaded.assignment != broken.assignment)
    assert list(moved) == [5]
    assert any("reassigned nodes [5]" in rec.getMessage()
               for rec in caplog.records)

    # two broken territories of three: the loader logs them and makes the
    # plan of repair's seeded pass
    inst = generate_grid_instance(4, 4, 3, seed=1, centers=(0, 3, 15))
    broken = Plan(np.array([0, 0, 1, 1,
                            0, 2, 2, 1,
                            2, 2, 0, 2,
                            1, 2, 2, 2]), inst.centers)
    save_plan(broken, path)
    caplog.clear()
    with caplog.at_level("INFO", logger="districter.instances"):
        loaded = load_plan(path, inst)
    full = repair(broken, inst, np.random.default_rng(0))
    assert plans_equal(loaded, full)
    moved = np.flatnonzero(full.assignment != broken.assignment).tolist()
    assert moved == [10, 12]
    [message] = [rec.getMessage() for rec in caplog.records]
    assert message == ("repaired territories [0, 1]; reassigned nodes "
                       f"{moved}")


def test_plan_load_matches_per_territory_reference(tmp_path, caplog):
    """On grown plans with nodes moved until two or more territories are in
    pieces, load_plan gives the plan and the log line of a loader that
    searches each territory in turn and repairs the split ones."""
    inst = generate_grid_instance(8, 8, 5, seed=3)
    rng = np.random.default_rng(12)
    path = tmp_path / "plan.json"
    centers = set(inst.centers.tolist())
    cases = 0
    while cases < 10:
        a = guided_growth(inst, rng).assignment
        for v in rng.choice(64, size=8, replace=False).tolist():
            if v not in centers:
                a[v] = rng.integers(5)
        plan = Plan(a, inst.centers)
        broken = [i for i in range(5)
                  if not is_connected(inst.graph, plan.territory(i))]
        if len(broken) < 2:
            continue
        cases += 1
        expected = repair(plan, inst, np.random.default_rng(0))
        moved = np.flatnonzero(expected.assignment != a).tolist()
        save_plan(plan, path)
        caplog.clear()
        with caplog.at_level("INFO", logger="districter.instances"):
            loaded = load_plan(path, inst)
        assert plans_equal(loaded, expected)
        assert [rec.getMessage() for rec in caplog.records] == [
            f"repaired territories {broken}; reassigned nodes {moved}"]


def test_plan_load_errors(tmp_path, grid3):
    path = tmp_path / "bad.json"
    save_plan(Plan(np.zeros(4, dtype=np.int64), np.array([0, 3])), path)
    with pytest.raises(InstanceError, match="9"):
        load_plan(path, grid3)

    # center 8 not in its own territory: not repairable
    bad = {"assignment": [0] * 9, "centers": [0, 8]}
    path.write_text(json.dumps(bad))
    with pytest.raises(InstanceError, match="center"):
        load_plan(path, grid3)

    wrong_k = {"assignment": [0] * 9, "centers": [0]}
    path.write_text(json.dumps(wrong_k))
    with pytest.raises(InstanceError, match="centers"):
        load_plan(path, grid3)


def corrupted_grid3_file(tmp_path, edit):
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    path = write_grid_file(tmp_path, inst)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def set_count(unit, field, value):
    return lambda doc: doc["units"][unit][field].update(ES=value)


def school_capacity(value):
    return lambda doc: doc.update(schools=[
        {"level": "ES", "location": [0.5, 0.5], "capacity": value},
        {"level": "ES", "location": [2.5, 2.5], "capacity": 400}])


def nan_vertex(doc):
    doc["units"][4]["polygon"][0][1][0] = float("nan")


def unclosed_ring(doc):
    doc["units"][4]["polygon"][0].pop()


def adjacency_pair(value):
    return lambda doc: doc["adjacency"].__setitem__(0, [0, value])


@pytest.mark.parametrize("edit, match", [
    (set_count(3, "population", 12.9), "ES population of unit 3 is 12.9"),
    (set_count(3, "population", float("nan")), "population of unit 3 is nan"),
    (set_count(0, "capacity", float("inf")), "capacity of unit 0 is inf"),
    (set_count(0, "capacity", 0.5), "capacity of unit 0 is 0.5"),
    (school_capacity(500.5), "school in unit 0 is 500.5"),
    (nan_vertex, "unit 4: ring has a non-finite coordinate"),
    (unclosed_ring, "unit 4: ring is not closed"),
    (adjacency_pair(1.9), "adjacency entry 1 is 1.9"),
    (adjacency_pair(float("nan")), "adjacency entry 1 is nan"),
    (set_count(3, "population", 10 ** 400),
     "ES population of unit 3 is 10{400}, not a finite whole number"),
    (adjacency_pair(10 ** 400), "adjacency entry 1 is 10{400}, not a finite"),
], ids=["fractional-population", "nan-population", "inf-capacity",
        "fractional-capacity", "fractional-school-capacity", "nan-coordinate",
        "unclosed-ring", "fractional-adjacency", "nan-adjacency",
        "huge-population", "huge-adjacency"])
def test_load_rejects_bad_numbers(tmp_path, edit, match):
    path = corrupted_grid3_file(tmp_path, edit)
    with pytest.raises(InstanceError, match=match):
        load_instance(path, "es")


def every_unit(key, value):
    """An edit giving every unit ``value(unit)`` for ``key``: ``"id"``, or
    a count as ``"population/ES"``."""
    def edit(doc):
        for u in doc["units"]:
            if key == "id":
                u["id"] = value(u)
            else:
                field, level = key.split("/")
                u[field][level] = value(u)
    return edit


@pytest.mark.parametrize("edit, match", [
    (every_unit("id", lambda u: [u["id"]]), "id of unit entry 0 is [0]"),
    (every_unit("population/ES", lambda u: [5]),
     "ES population of unit 0 is [5]"),
    (every_unit("capacity/HS", lambda u: [u["id"], 1]),
     "HS capacity of unit 0 is [0, 1]"),
    (every_unit("population/MS", lambda u: []),
     "MS population of unit 0 is []"),
    (set_count(3, "population", [1, 2]), "ES population of unit 3 is [1, 2]"),
], ids=["every-id", "every-population", "every-capacity-pair",
        "every-population-empty", "one-population"])
def test_load_refuses_a_list_for_a_number(tmp_path, edit, match):
    """An id or a count given as a list is refused, naming the first unit
    that gives one, also where every unit does: a column of lists is not
    read as a table (whose ids would not be 0..N-1, or whose counts would
    not number N)."""
    path = corrupted_grid3_file(tmp_path, edit)
    with pytest.raises(InstanceError, match=f"^{re.escape(match)}, not a "
                       "number$"):
        load_instance(path, "es")


@pytest.mark.parametrize("value", [0.9, float("nan"), float("inf")])
def test_plan_load_rejects_non_integral_assignment(tmp_path, grid3, value):
    # int64 conversion used to truncate 0.9 to territory 0 without a word
    doc = {"assignment": [0, value, 0, 0, 0, 1, 1, 1, 1], "centers": [0, 8]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="assignment of node 1"):
        load_plan(path, grid3)


def test_generated_centers_pinned_override():
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    free = generate_grid_instance(3, 3, 2, seed=1)
    assert list(inst.centers) == [0, 8]
    # pinning centers must not change the population draw
    assert np.array_equal(inst.graph.population["ES"],
                          free.graph.population["ES"])


@pytest.mark.parametrize("centers, match", [
    ((0,), "K distinct"), ((0, 1, 8), "K distinct"), ((4, 4), "K distinct"),
    ((0, 9), "out of range"), ((-1, 8), "out of range"),
])
def test_generated_centers_are_checked(centers, match):
    with pytest.raises(ConfigError, match=match):
        generate_grid_instance(3, 3, 2, seed=1, centers=centers)


def unrounded_geometry(polygons):
    """Unit areas, unit perimeters and shared lengths as polygons give them."""
    return (np.array([polygon_area(p) for p in polygons]),
            np.array([polygon_perimeter(p) for p in polygons]),
            shared_boundaries(RingTable.from_polygons(polygons))[1])


def test_grid_geometry_is_not_rounded():
    """Unit-square values are whole numbers, so rounding them to a common
    power of two changes no bit; hexagon values (multiples of sqrt 3)
    move, but by a relative 1e-12 at most."""
    inst = generate_grid_instance(7, 5, 3, seed=2)
    exact = (*inst.geometry.units, inst.geometry.edges)
    for mine, raw in zip(exact, unrounded_geometry(inst.graph.polygons)):
        assert mine.tobytes() == raw.tobytes()
    hexes = build_instance(make_hex_graph(6, 7, cap=[1] * 42), "ES", [0, 41])
    exact = (*hexes.geometry.units, hexes.geometry.edges)
    for mine, raw in zip(exact, unrounded_geometry(hexes.graph.polygons)):
        assert np.allclose(mine, raw, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rings, match", [
    # a 3e-9 wide sliver beside a 1e5 x 1e5 unit: its area rounds to 0
    (([[(0, 0), (3e-9, 0), (3e-9, 1), (0, 1), (0, 0)]],
      [[(3e-9, 0), (1e5, 0), (1e5, 1e5), (3e-9, 1e5), (3e-9, 1), (3e-9, 0)]]),
     r"area of unit 0 is 3e-09, which rounds to 0 in multiples of 2\*\*-18"),
    # a unit square meeting a 1e5 x 1e5 unit along 3e-9 of one side
    (([[(0, 0), (1, 0), (1, 3e-9), (1, 1), (0, 1), (0, 0)]],
      [[(1, -1e5), (1e5, -1e5), (1e5, 3e-9), (1, 3e-9), (1, 0), (1, -1e5)]]),
     r"shared length of units \[0, 1\] is 3e-09, which rounds to 0"),
], ids=["unit-area", "shared-length"])
def test_geometry_rounding_to_zero_is_instance_error(rings, match):
    graph = ContiguityGraph(2, [[0, 1]], capacity={"ES": [0, 5]},
                            polygons=RingTable.from_polygons(
                                [Polygon(r) for r in rings]))
    with pytest.raises(InstanceError, match=match):
        build_instance(graph, "ES", [1])


def square_ring(v, cols=3):
    """Unit ``v``'s square ring in a grid ``cols`` wide, as JSON lists."""
    c, r = v % cols, v // cols
    return [[c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]


ENTRY_FAULTS = {"entry-not-object": "is not a JSON object",
                "no-id": "has no 'id'", "no-polygon": "has no 'polygon'"}


def faulty_grid3_file(tmp_path, faults):
    """The 3x3 grid file without adjacency, with a fault in each unit ``v``
    in ``faults``: ``POLYGON_FAULTS[faults[v]]`` for its polygon; a number
    for its population (``"population-not-object"``); a level outside
    ES/MS/HS in its population (``"unknown-level"``); or one of the
    ``ENTRY_FAULTS``: its entry inside a list, or no ``"id"`` or no
    ``"polygon"`` in it."""
    inst = generate_grid_instance(3, 3, 2, seed=1, centers=(0, 8))
    path = write_grid_file(tmp_path, inst, drop_adjacency=True)
    doc = json.loads(path.read_text())
    for v, fault in faults.items():
        if fault == "population-not-object":
            doc["units"][v]["population"] = 5
        elif fault == "unknown-level":
            doc["units"][v]["population"]["es"] = 5
        elif fault == "entry-not-object":
            doc["units"][v] = [doc["units"][v]]
        elif fault in ("no-id", "no-polygon"):
            del doc["units"][v][fault.removeprefix("no-")]
        else:
            doc["units"][v]["polygon"] = POLYGON_FAULTS[fault][0](
                square_ring(v))
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("fault", list(POLYGON_FAULTS))
def test_load_names_the_first_unit_with_a_bad_polygon(tmp_path, fault):
    """Unit 5, after five good units, is named with the refusal, and not
    unit 7 with the same fault after it.  Polygon refuses the polygon with
    the same message, except where numpy's conversion raises first."""
    make, message = POLYGON_FAULTS[fault]
    path = faulty_grid3_file(tmp_path, {5: fault, 7: fault})
    with pytest.raises(InstanceError, match=f"^unit 5: {message}$"):
        load_instance(path, "es")
    if fault not in ("one-ragged-point", "number"):   # numpy's own errors
        with pytest.raises(GeometryError, match=f"^{message}$"):
            Polygon(make(square_ring(5)))


@pytest.mark.parametrize("early", ["zero-area", "nan-coordinate",
                                   "text-coordinate", "population-not-object",
                                   "unknown-level", *ENTRY_FAULTS])
@pytest.mark.parametrize("late", ["zero-area", "unclosed-ring",
                                  "one-ragged-point", "population-not-object",
                                  "unknown-level", *ENTRY_FAULTS])
def test_load_names_the_earlier_of_two_faults(tmp_path, early, late):
    """Whatever the two faults, the earlier unit is named, as checking one
    unit at a time would name it; the unit entries are all checked first,
    so an entry at fault is named before any unit's polygon or counts."""
    path = faulty_grid3_file(tmp_path, {2: early, 6: late})
    entries = [(v, fault) for v, fault in ((2, early), (6, late))
               if fault in ENTRY_FAULTS]
    if entries:
        v, fault = entries[0]
        match = f"^unit entry {v} {ENTRY_FAULTS[fault]}$"
    else:
        match = "^unit 2: "
    with pytest.raises(InstanceError, match=match):
        load_instance(path, "es")


@pytest.mark.parametrize("fault", ["population-not-object", "unknown-level",
                                   *ENTRY_FAULTS, *POLYGON_FAULTS])
def test_load_names_a_fault_in_the_last_unit_alone(tmp_path, fault):
    """A fault in the last unit only, after eight good ones, passes every
    unit before it: the whole-list passes that detect it hand over to the
    per-unit checks, which name it."""
    path = faulty_grid3_file(tmp_path, {8: fault})
    match = (f"^unit entry 8 {ENTRY_FAULTS[fault]}$" if fault in ENTRY_FAULTS
             else "^unit 8: ")
    with pytest.raises(InstanceError, match=match):
        load_instance(path, "es")


def test_load_builds_no_polygon(tmp_path, monkeypatch):
    """A polygon-only 20x20 file loads from its ring table alone: no
    Polygon is built and no per-unit area, perimeter or centroid function
    runs."""
    inst = generate_grid_instance(20, 20, 1, seed=0, centers=(0,))
    path = write_grid_file(tmp_path, inst, drop_adjacency=True)
    calls = []
    build = geometry.Polygon.__init__

    def counted_build(self, rings):
        calls.append("Polygon")
        build(self, rings)

    monkeypatch.setattr(geometry.Polygon, "__init__", counted_build)
    for name in ("polygon_area", "polygon_perimeter", "ring_centroid"):
        def counted(*args, _name=name, _function=getattr(geometry, name)):
            calls.append(_name)
            return _function(*args)
        for module in (geometry, instances):
            monkeypatch.setattr(module, name, counted, raising=False)
    geometry.polygon_area(geometry.unit_square(0, 0))
    assert calls == ["Polygon", "polygon_area"]     # the counters count
    calls.clear()
    loaded = load_instance(path, "es")
    assert loaded.node_count == 400 and calls == []


def hex_file(tmp_path, rows, cols):
    """A polygon-only rows x cols hexagon file with ES capacity in unit 0."""
    units = [{"id": v, "polygon": [hex_ring(*divmod(v, cols))],
              "population": {"ES": 10}, "capacity": {"ES": 5 * (v == 0)}}
             for v in range(rows * cols)]
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"units": units}))
    return path


@pytest.mark.parametrize("bench", ["grid-10x10", "grid-40x40", "hex-80x80"])
def test_ring_table_matches_polygons_on_bench_instances(tmp_path, bench):
    """On the benchmark's three instance shapes, the table and everything
    read from it are bit-identical to what per-unit Polygons give: unit
    areas, perimeters and centroids, and the shared lengths."""
    if bench == "hex-80x80":
        inst = load_instance(hex_file(tmp_path, 80, 80), "ES")
        polygons = [Polygon([hex_ring(*divmod(v, 80))]) for v in range(6400)]
    else:
        size, k, seed = (10, 4, 42) if bench == "grid-10x10" else (40, 16, 1)
        inst = generate_grid_instance(size, size, k, seed,
                                      balance_profile="clustered")
        polygons = [unit_square(v % size, v // size)
                    for v in range(size * size)]
    rings, reference = inst.graph.rings, RingTable.from_polygons(polygons)
    for mine, theirs in zip((rings.points, rings.starts, rings.unit),
                            (reference.points, reference.starts,
                             reference.unit)):
        assert mine.tobytes() == theirs.tobytes()
    assert rings.areas().tobytes() == np.array(
        [polygon_area(p) for p in polygons]).tobytes()
    assert rings.perimeters().tobytes() == np.array(
        [polygon_perimeter(p) for p in polygons]).tobytes()
    assert inst.graph.centroids.tobytes() == np.array(
        [ring_centroid(p.outer) for p in polygons]).tobytes()
    pairs, lengths = shared_boundaries(reference)
    assert np.array_equal(inst.graph.edges, pairs)
    assert lengths.tobytes() == shared_boundaries(rings)[1].tobytes()


@pytest.fixture
def collector_restored():
    """Whatever a test does to the collector, it is on again afterwards."""
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, grid3,
                                                  collector_restored,
                                                  enabled):
    """A load pauses automatic collection and turns it back on only if it
    was on: after a load, after a plan load, and after a load refused with
    an InstanceError."""
    path = write_grid_file(tmp_path, grid3)
    plan_path = tmp_path / "plan.json"
    save_plan(Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), grid3.centers),
              plan_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"units": []}')
    (gc.enable if enabled else gc.disable)()
    load_instance(path, "es")
    assert gc.isenabled() is enabled
    load_plan(plan_path, grid3)
    assert gc.isenabled() is enabled
    for load in (lambda: load_instance(bad, "es"),
                 lambda: load_plan(bad, grid3)):
        with pytest.raises(InstanceError):
            load()
        assert gc.isenabled() is enabled


def test_no_collection_runs_during_a_load(tmp_path, monkeypatch):
    """Loading a 30x30 hexagon file, whose parsed document holds tens of
    thousands of containers, starts no automatic collection up to the end
    of its last step; one may start once the load has turned the collector
    back on."""
    path = hex_file(tmp_path, 30, 30)
    starts, at_end = [], []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def last_step(*args, _assemble=instances._assemble):
        instance = _assemble(*args)
        at_end.append(len(starts))
        return instance

    monkeypatch.setattr(instances, "_assemble", last_step)
    gc.callbacks.append(count)
    try:
        assert load_instance(path, "ES").node_count == 900
    finally:
        gc.callbacks.remove(count)
    assert gc.isenabled() and at_end == [0]


def random_count_map(rng):
    """A unit's population or capacity map as a file may hold it: no key,
    an empty map, or any subset of the levels with whole counts."""
    roll = rng.integers(4)
    if roll == 0:
        return None
    if roll == 1:
        return {}
    return {lv: int(rng.integers(0, 50)) for lv in LEVELS
            if rng.random() < 0.6}


@pytest.mark.parametrize("seed", range(5))
def test_load_reads_every_count_as_a_per_level_reading_does(tmp_path, seed):
    """The six whole-column reads give the count arrays that reading each
    level's counts unit by unit gives, for units listed out of id
    order, with or without maps, and with maps that name some levels."""
    rng = np.random.default_rng(seed)
    inst = generate_grid_instance(4, 5, 1, seed=seed, centers=(0,))
    path = write_grid_file(tmp_path, inst)
    doc = json.loads(path.read_text())
    for u in doc["units"]:
        for key in ("population", "capacity"):
            counts = random_count_map(rng)
            if counts is None:
                del u[key]
            else:
                u[key] = counts
    doc["units"][0].setdefault("capacity", {})["ES"] = 7   # the one center
    rng.shuffle(doc["units"])
    path.write_text(json.dumps(doc))

    graph = load_instance(path, "ES").graph
    by_id = sorted(doc["units"], key=lambda u: u["id"])
    for key, counts in (("population", graph.population),
                        ("capacity", graph.capacity)):
        for lv in LEVELS:
            reference = [u.get(key, {}).get(lv, 0) for u in by_id]
            assert counts[lv].dtype == np.int64
            assert counts[lv].tolist() == reference
