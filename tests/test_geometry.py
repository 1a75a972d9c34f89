import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from districter import (GeometryError, InternalError, Polygon, ShapeStats,
                        dissolve, point_in_polygon, polsby_popper,
                        polygon_area, unit_square)
from districter import geometry
from districter.geometry import (MATCH_TOL, RingTable, _malformed,
                                 _segment_key, _stack_lists, corner_table,
                                 iter_segments,
                                 polygon_perimeter, ring_area,
                                 ring_centroid, shared_boundaries)

from conftest import CORNER_MAPS, POLYGON_FAULTS, hex_ring

SQUARE = unit_square(0, 0)
TRIANGLE = Polygon([[(0, 0), (1, 0), (0, 1), (0, 0)]])
HOLED = Polygon([
    [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)],
    [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.25, 0.25)],
])


def rook_territory(cells):
    return [unit_square(c, r) for r, c in cells]


def grid_perimeter_oracle(cells):
    """4n - 2 * (internal rook adjacencies), counted straight off the cells."""
    cells = set(cells)
    adj = sum((r, c + 1) in cells for r, c in cells) \
        + sum((r + 1, c) in cells for r, c in cells)
    return 4 * len(cells) - 2 * adj


def random_territory(rng, size):
    """Random rook-connected set of cells grown from the origin."""
    cells = {(0, 0)}
    while len(cells) < size:
        r, c = list(cells)[rng.integers(len(cells))]
        dr, dc = [(0, 1), (0, -1), (1, 0), (-1, 0)][rng.integers(4)]
        cells.add((r + dr, c + dc))
    return sorted(cells)


def test_polygon_area_examples():
    assert polygon_area(SQUARE) == 1.0
    assert polygon_area(HOLED) == 0.75
    assert polygon_area(TRIANGLE) == 0.5


def test_degenerate_ring_rejected():
    with pytest.raises(GeometryError):
        Polygon([[(0, 0), (1, 0), (0, 0), (0, 0)]])
    with pytest.raises(GeometryError):
        Polygon([[(0, 0), (1, 0), (1, 1)]])  # not closed


def test_dissolve_examples():
    two = dissolve([unit_square(0, 0), unit_square(1, 0)])
    assert (two.area, two.perimeter) == (2.0, 6.0)
    one = dissolve([SQUARE])
    assert (one.area, one.perimeter) == (1.0, 4.0)
    tromino = dissolve(rook_territory([(0, 0), (0, 1), (1, 0)]))
    assert (tromino.area, tromino.perimeter) == (3.0, 8.0)


def test_dissolve_empty_is_error():
    with pytest.raises(GeometryError):
        dissolve([])


def test_dissolve_keeps_hole_boundary():
    # a ring of 8 cells fully surrounding (1,1): the inner boundary remains
    ring = [(r, c) for r in range(3) for c in range(3) if (r, c) != (1, 1)]
    stats = dissolve(rook_territory(ring))
    assert stats.area == 8.0
    assert stats.perimeter == 12.0 + 4.0


def test_polsby_popper_examples():
    assert polsby_popper(ShapeStats(math.pi, 2 * math.pi)) == 1.0  # circle
    assert polsby_popper(dissolve([SQUARE])) == math.pi / 4
    tromino = dissolve(rook_territory([(0, 0), (0, 1), (1, 0)]))
    assert polsby_popper(tromino) == pytest.approx(3 * math.pi / 16, abs=1e-15)


def test_polsby_popper_zero_perimeter():
    with pytest.raises(GeometryError):
        polsby_popper(ShapeStats(1.0, 0.0))


def test_point_in_polygon():
    assert point_in_polygon((0.5, 0.5), SQUARE)
    assert not point_in_polygon((2, 2), SQUARE)
    assert point_in_polygon((1.0, 0.5), SQUARE)  # boundary counts as inside
    assert not point_in_polygon((0.5, 0.5), HOLED)  # inside the hole
    assert point_in_polygon((0.25, 0.5), HOLED)  # on the hole ring


def test_dissolve_area_matches_unit_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        units = rook_territory(random_territory(rng, int(rng.integers(2, 15))))
        stats = dissolve(units)
        assert stats.area == pytest.approx(
            sum(polygon_area(u) for u in units), abs=1e-9)


def test_grid_perimeter_matches_counting_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cells = random_territory(rng, int(rng.integers(1, 20)))
        stats = dissolve(rook_territory(cells))
        assert abs(stats.perimeter - grid_perimeter_oracle(cells)) <= 1e-9


def test_polsby_popper_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cells = random_territory(rng, int(rng.integers(2, 12)))
        scale = float(rng.uniform(0.01, 100.0))
        base = polsby_popper(dissolve(rook_territory(cells)))
        scaled_units = [
            Polygon([[(x * scale, y * scale) for x, y in ring]
                     for ring in u.rings])
            for u in rook_territory(cells)
        ]
        scaled = polsby_popper(dissolve(scaled_units))
        assert abs(scaled - base) <= 1e-12


def test_polsby_popper_in_unit_interval_for_simple_shapes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cells = random_territory(rng, int(rng.integers(1, 25)))
        score = polsby_popper(dissolve(rook_territory(cells)))
        assert 0.0 < score <= 1.0


def test_perimeter_includes_holes():
    assert polygon_perimeter(HOLED) == 4.0 + 2.0


@st.composite
def holed_polygons(draw):
    """One to five polygons, each an outer ring and zero to two hole rings
    of 4 to 140 points (so sums of 3 to 139 terms, across numpy's 8- and
    128-term pairwise-sum thresholds), on jittered circles of random size,
    place and direction."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    polygons = []
    for _ in range(draw(st.integers(1, 5))):
        scale = 10.0 ** draw(st.integers(-3, 6))
        center = rng.uniform(-100, 100, size=2) * scale
        rings = []
        for radius in (1.0, 0.3, 0.1)[:draw(st.integers(1, 3))]:
            m = draw(st.integers(4, 140))
            angle = np.sort(rng.uniform(0, 2 * np.pi, size=m - 1))
            angle = angle[::draw(st.sampled_from([1, -1]))]
            r = radius * scale * rng.uniform(0.8, 1.2, size=m - 1)
            ring = center + np.column_stack([r * np.cos(angle),
                                             r * np.sin(angle)])
            rings.append(np.vstack([ring, ring[:1]]).tolist())
        polygons.append(Polygon(rings))
    return polygons


def reference_boxes(polygons):
    """Each polygon's bounding box as one polygon at a time gives it."""
    rows = []
    for polygon in polygons:
        points = np.concatenate(polygon.rings)
        lo, hi = points.min(axis=0), points.max(axis=0)
        pad = MATCH_TOL + 8 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        rows.append(np.concatenate([lo - pad, hi + pad]))
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(polygons=holed_polygons())
def test_ring_table_sums_equal_per_polygon_functions(polygons):
    """Ring areas, unit area, perimeter, outer-ring centroid and bounding
    box from the table, stacked from Polygons or from JSON lists, are
    bit-identical to the per-polygon functions.  The table keeps one cross
    sum per ring: the list-built table's ring check reads it first, the
    other's ring areas."""
    expected = (np.array([ring_area(r) for p in polygons for r in p.rings]),
                np.array([polygon_area(p) for p in polygons]),
                np.array([polygon_perimeter(p) for p in polygons]),
                np.array([ring_centroid(p.outer) for p in polygons]),
                reference_boxes(polygons))
    for table in (RingTable.from_polygons(polygons),
                  RingTable.from_lists([p.to_lists() for p in polygons])):
        got = (table.ring_areas(), table.areas(), table.perimeters(),
               table.centroids(), table.boxes())
        for mine, theirs in zip(got, expected):
            assert mine.tobytes() == theirs.tobytes()


SHAPES = {"square": [(0, 0), (1, 0), (1, 1), (0, 1)],
          "hexagon": [(math.cos(a), math.sin(a))
                      for a in np.arange(6) * math.pi / 3]}
# the faults that replace a unit's whole polygon, and those that turn one
# ring into one bad ring
UNIT_FAULTS = ["inf-in-hole", "bare-ring", "no-rings", "number"]
RING_FAULTS = [kind for kind in POLYGON_FAULTS if kind not in UNIT_FAULTS]


@st.composite
def faulty_polygon_lists(draw):
    """One to eight unit polygons as JSON lists, squares or hexagons side
    by side, each with zero to two holes, then zero to three faults of the
    ``POLYGON_FAULTS`` kinds: a ring fault to any ring of a unit (its outer
    ring or a hole, perhaps one already at fault), a polygon fault to the
    whole unit (an empty polygon among them)."""
    polygons = []
    for v in range(draw(st.integers(1, 8))):
        corners = np.array(SHAPES[draw(st.sampled_from(sorted(SHAPES)))])
        rings = []
        for scale in (1.0, 0.3, 0.1)[:draw(st.integers(1, 3))]:
            ring = (3.0 * v, 0.0) + scale * corners
            rings.append(np.vstack([ring, ring[:1]]).tolist())
        polygons.append(rings)
    faults = draw(st.lists(st.tuples(
        st.integers(0, len(polygons) - 1),
        st.sampled_from(RING_FAULTS + UNIT_FAULTS), st.integers(0, 2)),
        max_size=3))
    outer = [rings[0] for rings in polygons]
    for v, kind, _ in faults:
        if kind in UNIT_FAULTS:
            polygons[v] = POLYGON_FAULTS[kind][0](outer[v])
    for v, kind, r in faults:
        polygon = polygons[v]
        if kind in RING_FAULTS and type(polygon) is list and polygon:
            ring = polygon[r % len(polygon)]
            if len(ring) >= 3 and all(type(p) is list for p in ring):
                polygon[r % len(polygon)] = POLYGON_FAULTS[kind][0](ring)[0]
    return polygons


def reference_stack_lists(polygons):
    """``_stack_lists`` as a set of types per flat list: the points, ring
    lengths and rings per unit, or None."""
    if not all(type(p) is list for p in polygons):
        return None
    rings = [ring for polygon in polygons for ring in polygon]
    if not all(type(ring) is list for ring in rings):
        return None
    pairs = [pair for ring in rings for pair in ring]
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        return None
    coords = [c for pair in pairs for c in pair]
    if not {type(c) for c in coords} <= {int, float}:
        return None
    try:
        points = np.array(coords, dtype=float).reshape(-1, 2)
    except OverflowError:
        return None
    return (points, np.array([len(r) for r in rings], dtype=np.int64),
            np.array([len(p) for p in polygons], dtype=np.int64))


STACK_CASES = [
    [], [[]], [[[]]], [SQUARE.to_lists()], [[[[0, 0], [1, 0], [1, 1], [0, 0]]]],
    [[[[0, 0.5], [1, 0], [1, 1], [0, 0]]]], [[[(0, 0), [1, 0]]]],
    [[[[0, 0, 0]]]], [[[[0]]]], [[[[True, 0.0]]]], [[[["0", 0.0]]]],
    [[[[None, 0.0]]]], [[[[10 ** 400, 0.0]]]], [[[[2 ** 70, 0.5]]]],
    [[[[0.0, 0.0]], {}]], [[[[0.0, 0.0]]], "ring"], [[[{"x": 0, "y": 0}]]],
    [[[[0.0, 0.0], "ab"]]], [[[[1.5, float("nan")]]]],
]


@pytest.mark.parametrize("polygons", STACK_CASES)
def test_stack_lists_refuses_what_the_plain_loops_refuse(polygons):
    got, expected = _stack_lists(polygons), reference_stack_lists(polygons)
    assert (got is None) == (expected is None)
    if got is not None:
        for mine, theirs in zip(got, expected):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()


@settings(max_examples=200, deadline=None)
@given(polygons=faulty_polygon_lists())
def test_stack_lists_matches_the_plain_loops(polygons):
    test_stack_lists_refuses_what_the_plain_loops_refuse(polygons)


def first_refusal(polygons):
    """``(v, why)`` for the first unit that ``_malformed`` or
    :class:`Polygon` refuses, checked one unit at a time, or None."""
    for v, polygon in enumerate(polygons):
        why = _malformed(polygon)
        if why is None:
            try:
                Polygon(polygon)
            except GeometryError as exc:
                why = str(exc)
        if why is not None:
            return v, why
    return None


@settings(max_examples=300, deadline=None)
@given(polygons=faulty_polygon_lists())
def test_ring_table_refuses_as_units_one_at_a_time(polygons):
    """The stacked check agrees with checking one unit at a time: a file
    that every unit passes gives the table of its Polygons, and any other
    is refused naming the first unit at fault, with its refusal."""
    refusal = first_refusal(polygons)
    if refusal is None:
        table = RingTable.from_lists(polygons)
        reference = RingTable.from_polygons([Polygon(p) for p in polygons])
        for mine, theirs in zip((table.points, table.starts, table.unit),
                                (reference.points, reference.starts,
                                 reference.unit)):
            assert mine.tobytes() == theirs.tobytes()
    else:
        v, why = refusal
        with pytest.raises(GeometryError,
                           match=f"^unit {v}: {re.escape(why)}$"):
            RingTable.from_lists(polygons)


def test_ring_table_check_disagreeing_with_polygon_is_internal_error(
        monkeypatch):
    """A stacked check that refuses what every unit passes on its own can
    only be a bug: it is reported as one, not as a bad file."""
    monkeypatch.setattr(geometry, "_rings_ok", lambda table, counts: False)
    with pytest.raises(InternalError):
        RingTable.from_lists([SQUARE.to_lists(), HOLED.to_lists()])


def square_tile(row, col):
    return [[col, row], [col + 1, row], [col + 1, row + 1], [col, row + 1],
            [col, row]]


def shrunk(ring, factor):
    """``ring`` scaled by ``factor`` about its first points' mean."""
    points = np.array(ring[:-1], dtype=float)
    center = points.mean(axis=0)
    inner = center + factor * (points - center)
    return np.vstack([inner, inner[:1]]).tolist()


@st.composite
def tilings(draw, copies=True):
    """Unit polygons as JSON lists of floats: a rows x cols tiling of
    squares or hexagons, some units with a hole and some holes filled by an
    island unit listed after the tiling, then perhaps (with ``copies``) a
    copy of one unit (so that three units list its inner sides).  Some rings repeat a point,
    some sides are split in two (ragged rings that no longer match their
    neighbour's side), and points move by less than ``MATCH_TOL``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tile = square_tile if draw(st.booleans()) else hex_ring
    polygons, islands = [], []
    for row in range(rows):
        for col in range(cols):
            outer = tile(row, col)
            if rng.random() < 0.3:
                outer = outer[::-1]
            polygon = [outer]
            if rng.random() < 0.3:
                hole = shrunk(outer, 0.5)
                polygon.append(hole)
                if rng.random() < 0.5:
                    islands.append([hole[::-1]])
            polygons.append(polygon)
    polygons += islands
    if copies and draw(st.booleans()):
        polygons.append([list(ring) for ring in
                         polygons[draw(st.integers(0, len(polygons) - 1))]])
    jitter = draw(st.sampled_from([0.0, 0.01, 0.45])) * MATCH_TOL
    for polygon in polygons:
        for r, ring in enumerate(polygon):
            ring = np.array(ring, dtype=float)
            ring += rng.uniform(-jitter, jitter, size=ring.shape)
            ring[-1] = ring[0]
            ring = ring.tolist()
            for _ in range(rng.integers(0, 3)):
                i = int(rng.integers(1, len(ring) - 1))
                if rng.random() < 0.5:          # a repeated point
                    ring.insert(i, list(ring[i]))
                else:                           # a side split in two
                    ring.insert(i, ((np.array(ring[i - 1]) + ring[i]) / 2)
                                .tolist())
            polygon[r] = ring
    return polygons


def reference_shared_boundaries(polygons):
    """``shared_boundaries`` of ``polygons`` from a plain dict of each
    segment key's listings, ``(unit, length)`` in the order the units list
    them: the pairs and their summed lengths, or the first three units that
    list the least key listed more than twice."""
    listed = {}
    for v, polygon in enumerate(polygons):
        for p, q in iter_segments(polygon):
            length = float(np.hypot(q[0] - p[0], q[1] - p[1]))
            listed.setdefault(_segment_key(p, q), []).append((v, length))
    crowded = [key for key, owners in listed.items() if len(owners) > 2]
    if crowded:
        return [v for v, _ in listed[min(crowded)][:3]]
    shared = {}
    for (u, length), *others in listed.values():
        if others and others[0][0] != u:
            pair = (u, others[0][0])
            shared[pair] = shared.get(pair, 0.0) + length
    pairs = sorted(shared)
    return pairs, np.array([shared[pair] for pair in pairs], dtype=float)


@settings(max_examples=300, deadline=None)
@given(polygons=tilings())
def test_shared_boundaries_match_a_dict_of_segments(polygons):
    """The one-pass match agrees with a dict built segment by segment: the
    same pairs in the same order, the same bits of every shared length, and
    the same three units named when more than two list one segment."""
    table = RingTable.from_lists(polygons)
    expected = reference_shared_boundaries(polygons)
    if isinstance(expected, tuple):
        pairs, lengths = shared_boundaries(table)
        assert pairs.tolist() == [list(pair) for pair in expected[0]]
        assert lengths.tobytes() == expected[1].tobytes()
    else:
        units = ", ".join(map(str, expected))
        with pytest.raises(GeometryError, match=f"\\(units {units}\\)$"):
            shared_boundaries(table)


# ---------------------------------------------------------------------------
# The corner table against a per-point scan
# ---------------------------------------------------------------------------

def point_key(p):
    return round(p[0] / MATCH_TOL), round(p[1] / MATCH_TOL)


def reference_corner_table(polygons):
    """The corner table of ``polygons`` from plain dicts: every ring's steps
    of positive length, matched by their segment keys, and every point's
    unit angles (a unit's two steps there), gathered by the point's key.
    None when two units list a segment the same way round once every ring
    runs with its unit on its left; else per unit its sides and its corners
    (each as the sorted tuple of its distinct units), the unordered units,
    the side pairs and the corners (their units sorted)."""
    rings = []      # (unit, ring turned to run with its unit on the left,
    for v, polygon in enumerate(polygons):      # its steps of length > 0)
        for r, ring in enumerate(polygon):
            turned = (ring_area(np.array(ring, dtype=float)) > 0) != (r == 0)
            steps = [(tuple(p), tuple(q)) for p, q in zip(ring, ring[1:])
                     if abs(p[0] - q[0]) > MATCH_TOL
                     or abs(p[1] - q[1]) > MATCH_TOL]
            rings.append((v, turned, steps))
    listed = {}
    for i, (v, _, steps) in enumerate(rings):
        for j, (p, q) in enumerate(steps):
            listed.setdefault(_segment_key(p, q), []).append((v, i, j))
    across = {}     # (ring, step) -> (unit, ring, step) of the other lister
    for owners in listed.values():
        if len(owners) == 2 and owners[0][0] != owners[1][0]:
            a, b = owners
            across[a[1:]], across[b[1:]] = b, a
    for (i, j), (_, k, m) in across.items():
        p, q = rings[i][2][j]
        first = p if not rings[i][1] else q
        last = rings[k][2][m][1] if not rings[k][1] else rings[k][2][m][0]
        if point_key(first) != point_key(last):
            return None

    angles = {}     # point key -> [(unit, both its steps there shared)]
    for i, (v, _, steps) in enumerate(rings):
        for j in range(len(steps)):
            angles.setdefault(point_key(steps[j][0]), []).append(
                (v, (i, j) in across and (i, j - 1 if j else len(steps) - 1)
                 in across))
    closed = {key: len(a) for key, a in angles.items()
              if all(shut for _, shut in a)}
    corners = sorted(sorted(v for v, _ in angles[key])
                     for key, n in closed.items() if n >= 3)
    unordered = {v for v, polygon in enumerate(polygons) if len(polygon) > 1}
    unordered.update(v for c in corners if len(set(c)) < len(c) for v in c)
    around = [sorted(tuple(sorted(set(c))) for c in corners if v in c)
              for v in range(len(polygons))]
    sides = [[] for _ in polygons]
    for i, (v, _, steps) in enumerate(rings):
        points = [point_key(p) for p, _ in steps]   # step j starts at j
        inside = [closed.get(key) == 2 for key in points]
        starts = [j for j in range(len(steps))
                  if (i, j) in across and not inside[j]]
        if not starts and all(inside):
            starts = [0]
        sides[v] += [across[i, j][0] for j in starts]
    pairs = [(v, w) for v in range(len(polygons)) for w in sides[v] if v < w]
    return sides, around, unordered, pairs, corners


def assert_corner_table(polygons):
    """corner_table of ``polygons`` equals their reference scan; the table,
    or None."""
    table = RingTable.from_lists(polygons)
    try:
        shared_boundaries(table)
    except GeometryError:       # more than two units list a segment
        return None
    got = corner_table(table)
    expected = reference_corner_table(polygons)
    if expected is None:
        assert got is None
        return None
    sides, around, unordered, pairs, corners = expected
    ends = got.side_ends
    assert [got.sides[a:b] for a, b in zip(ends, ends[1:])] == sides
    ends = got.around_ends
    assert [sorted(tuple(sorted(set(c))) for c in got.around[a:b])
            for a, b in zip(ends, ends[1:])] == around
    assert len({len(c) for c in got.around}) <= 1
    assert got.unordered == unordered
    assert got.side_pairs.tolist() == [list(p) for p in pairs]
    starts = got.corner_starts
    assert sorted(got.corner_units[a:b].tolist()
                  for a, b in zip(starts, starts[1:])) == corners
    return got


# hypothesis's find: a 2 x 3 hexagonal tiling with its points moved
# within MATCH_TOL, and a copy (unit 6) of unit 1 with a side split in
# two.  The copy's segments match those of units 0, 3 and 4, unit 1's
# match none, but unit 1's ring still passes the point where units 3, 4
# and 6 meet.  Its steps there are not shared, so the point is no corner,
# though the shared steps of units 3, 4 and 6 close round it
COPY_AT_A_POINT = [
    [[[3.8764825938390994e-10, -2.0000000002356395],
      [-1.7320508074619494, -0.999999999882861],
      [-1.7320508079925838, 0.9999999996759639],
      [-2.773691115847551e-10, 1.9999999997229145],
      [1.732050807891351, 1.0000000000806586],
      [1.7320508071539065, -0.9999999998140224],
      [3.8764825938390994e-10, -2.0000000002356395]]],
    [[[3.464101615000062, -1.9999999998046527],
      [5.19615242230092, -0.9999999998314677],
      [5.196152422383835, 0.9999999997961557],
      [3.4641016150995103, 2.0000000001935967],
      [2.5980762112938174, 1.4999999999036195],
      [1.7320508074881247, 0.9999999996136425],
      [1.732050807695688, -1.0000000001869733],
      [3.464101615000062, -1.9999999998046527]]],
    [[[6.928203229895605, -1.9999999999689266],
      [8.660254037928071, -1.000000000037313],
      [8.66025403784946, 0.9999999998064161],
      [6.928203230359531, 1.999999999886173],
      [5.196152422794248, 1.0000000002581995],
      [5.1961524226562705, -1.0000000001257734],
      [6.928203229895605, -1.9999999999689266]]],
    [[[1.732050807740713, 1.0000000002516243],
      [-3.814379101980382e-10, 1.9999999996417148],
      [-3.4688026301261704e-10, 3.9999999999954268],
      [1.7320508078305055, 4.999999999920896],
      [3.4641016149331763, 4.000000000171539],
      [3.464101615439584, 1.999999999683455],
      [1.732050807740713, 1.0000000002516243]]],
    [[[5.196152422697134, 0.9999999999707921],
      [6.928203230629048, 1.9999999996165119],
      [6.928203230196211, 4.000000000224865],
      [5.1961524230470575, 4.99999999963892],
      [3.464101615476265, 4.000000000013726],
      [3.464101614967308, 2.0000000003031837],
      [5.196152422697134, 0.9999999999707921]]],
    [[[8.660254038268679, 1.0000000001303977],
      [6.928203230354404, 1.999999999573457],
      [6.928203229980609, 4.0000000000596385],
      [8.6602540381114, 5.000000000099184],
      [10.392304845808171, 3.9999999998028404],
      [10.392304845618696, 1.9999999999957054],
      [8.660254038268679, 1.0000000001303977]]],
    [[[3.4641016155198345, -1.9999999995702893],
      [5.196152422405961, -1.0000000003721066],
      [5.196152422496102, -2.7119462231439684e-10],
      [5.196152422586242, 0.9999999998297173],
      [3.4641016150133352, 1.9999999996030027],
      [1.732050807572322, 0.999999999563934],
      [1.7320508071715588, -1.000000000041033],
      [3.4641016155198345, -1.9999999995702893]]],
]

# two squares whose shared side has a point in its middle, and a copy of
# unit 0 with every side split in two: the copy's ring passes that point,
# so the two squares share two sides, though only they list the segments
# that meet there
COPY_ON_A_SIDE = [
    [[[0, 0], [1, 0], [1, 0.5], [1, 1], [0, 1], [0, 0]]],
    [[[1, 0], [2, 0], [2, 1], [1, 1], [1, 0.5], [1, 0]]],
    [[[0, 0], [0.5, 0], [1, 0], [1, 0.25], [1, 0.5], [1, 0.75], [1, 1],
      [0.5, 1], [0, 1], [0, 0.5], [0, 0]]],
]


@settings(max_examples=300, deadline=None)
@given(polygons=tilings())
@example(polygons=COPY_AT_A_POINT)
@example(polygons=COPY_ON_A_SIDE)
def test_corner_table_matches_a_scan_of_points(polygons):
    """Square and hexagonal tilings with holes, islands, reversed rings,
    repeated points, split sides, points moved within ``MATCH_TOL`` and
    copies of a unit: the table gathers every unit angle at a point, so a
    copy that overlaps a corner or a side is seen there."""
    assert_corner_table(polygons)


@pytest.mark.parametrize("name", sorted(CORNER_MAPS))
def test_corner_table_of_hand_made_maps(name):
    got = assert_corner_table(CORNER_MAPS[name][0])
    assert got.unordered == {"hole-ring": {0}, "hole-gap": {0},
                             "pinch": {0, 1, 2},
                             "twice": {0, 1, 2}}.get(name, set())
    assert (max(np.diff(got.corner_starts), default=0) > 4) == (name == "star")


def test_corner_table_of_ragged_grids_and_overlaps():
    """Ragged grids (random widths and heights) have a corner of 4 units
    at each inner point; two units listing a ring the same way round have
    no table."""
    rng = np.random.default_rng(35)
    for _ in range(20):
        rows, cols = (int(x) for x in rng.integers(1, 6, size=2))
        xs = np.cumsum(rng.uniform(0.5, 2.0, size=cols + 1)).tolist()
        ys = np.cumsum(rng.uniform(0.5, 2.0, size=rows + 1)).tolist()
        polygons = [[[[xs[c], ys[r]], [xs[c + 1], ys[r]],
                      [xs[c + 1], ys[r + 1]], [xs[c], ys[r + 1]],
                      [xs[c], ys[r]]]] for r in range(rows)
                    for c in range(cols)]
        got = assert_corner_table(polygons)
        assert np.diff(got.corner_starts).tolist() == \
            [4] * ((rows - 1) * (cols - 1))
    square = [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]
    assert corner_table(RingTable.from_lists([square, square])) is None
