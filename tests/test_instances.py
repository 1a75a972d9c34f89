import json

import numpy as np
import pytest

from districter import (ConfigError, ContiguityGraph, InstanceError, Plan,
                        Polygon, build_instance, generate_grid_instance,
                        load_instance, load_plan, point_in_polygon,
                        save_instance, save_plan, validate_plan)
from districter import instances
from districter.geometry import (polygon_area, polygon_perimeter,
                                 shared_boundaries, unit_square)
from districter.instances import derive_adjacency

from conftest import hex_ring, make_hex_graph


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
    table = shared_boundaries([unit_square(0, 0), unit_square(1, 1)])
    assert derive_adjacency(table, 2) == [[], []]


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


def test_build_instance_checks_hand_built_adjacency():
    graph = ContiguityGraph([[1, 2], [0, 2], [0, 1]],
                            capacity={"ES": np.array([1, 0, 1])},
                            polygons=[unit_square(c, 0) for c in range(3)])
    with pytest.raises(InstanceError, match=r"adjacency pair \[0, 2\]"):
        build_instance(graph, "ES", (0, 2))


def test_derived_adjacency_refuses_segment_of_three_units(tmp_path):
    path = grid_file(tmp_path, 1, 2, extra_units=[(1, 0)])
    with pytest.raises(InstanceError, match="units 0, 1, 2"):
        load_instance(path, "es")


def test_one_boundary_match_per_instance(tmp_path, monkeypatch):
    calls = []

    def counted(polygons):
        calls.append(len(polygons))
        return shared_boundaries(polygons)

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
    assert np.allclose(loaded.distance, inst.distance)


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
], ids=["fractional-population", "nan-population", "inf-capacity",
        "fractional-capacity", "fractional-school-capacity", "nan-coordinate",
        "unclosed-ring", "fractional-adjacency", "nan-adjacency"])
def test_load_rejects_bad_numbers(tmp_path, edit, match):
    path = corrupted_grid3_file(tmp_path, edit)
    with pytest.raises(InstanceError, match=match):
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


def unrounded_geometry(polygons):
    """Unit areas, unit perimeters and shared lengths as polygons give them."""
    return (np.array([polygon_area(p) for p in polygons]),
            np.array([polygon_perimeter(p) for p in polygons]),
            shared_boundaries(polygons)[1])


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
    graph = ContiguityGraph([[1], [0]], capacity={"ES": [0, 5]},
                            polygons=[Polygon(r) for r in rings])
    with pytest.raises(InstanceError, match=match):
        build_instance(graph, "ES", [1])
