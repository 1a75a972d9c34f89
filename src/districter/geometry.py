"""Planar polygon arithmetic for compactness scoring.

Territory shapes are unions of unit polygons that tile the plane edge-to-edge
(true for grids and typical GIS planning units).  Under that restriction a
dissolved union never needs a general boolean overlay: its area is the sum of
unit areas and its perimeter is the total length of boundary segments that are
not shared by two units.  One tolerance, ``MATCH_TOL``, serves every test:
segments match up to it, and a point within it of a ring lies in the
polygon.

An instance holds its units' geometry as one :class:`RingTable`: every ring's
points stacked in one array, with ring offsets and each ring's unit.  One
pass over the table detects a bad polygon in an instance file, and
:class:`Polygon` names the first unit at fault.  The table gives every unit's
area, perimeter, centroid and bounding box with a few numpy calls,
bit-identical to the per-ring functions (:func:`ring_area`, :func:`ring_length`,
:func:`ring_centroid`, :func:`polygon_area`, :func:`polygon_perimeter`); see
the class for why.  :attr:`RingTable.partners` matches all of its segments
at once: :func:`shared_boundaries` reads an instance's adjacency and shared
lengths from the match, and :func:`corner_table` the map's corners and each
unit's sides in ring order, which the flip walk's contiguity rule reads.
:class:`Polygon`, the per-ring functions and :func:`dissolve`, which
matches one territory's segments on its own, are the independent reference
the table and the cached sums are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import countOf
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, InternalError

# Coordinate tolerance for segment matching and boundary tests (instance units).
MATCH_TOL = 1e-9


class Polygon:
    """A simple polygon: one closed outer ring plus optional hole rings.

    Rings are ``(m, 2)`` arrays of finite floats with first point equal to
    last and at least three distinct vertices.  A coordinate given as text
    or a boolean is refused, not converted.
    """

    __slots__ = ("rings",)

    def __init__(self, rings):
        if not rings:
            raise GeometryError("polygon needs at least an outer ring")
        try:
            self.rings = [np.asarray(r, dtype=float) for r in rings]
        except OverflowError:   # an int beyond the float range
            raise GeometryError("ring has a non-finite coordinate") from None
        for r in rings:
            for c in np.asarray(r, dtype=object).ravel().tolist():
                if isinstance(c, (bool, np.bool_, str, bytes)):
                    raise GeometryError(f"coordinate {c!r} is not a number")
        for ring in self.rings:
            if ring.ndim != 2 or ring.shape[1] != 2 or ring.shape[0] < 4:
                raise GeometryError("ring must be a closed sequence of >= 4 "
                                    "points")
            if not np.isfinite(ring).all():
                raise GeometryError("ring has a non-finite coordinate")
            if not np.array_equal(ring[0], ring[-1]):
                raise GeometryError("ring is not closed (first point != last "
                                    "point)")
            if len(set(map(tuple, ring[:-1].tolist()))) < 3:
                raise GeometryError("degenerate ring with < 3 distinct points")
        if ring_area(self.rings[0]) == 0.0:
            raise GeometryError("outer ring has zero signed area")

    @property
    def outer(self) -> np.ndarray:
        return self.rings[0]

    @property
    def holes(self) -> list[np.ndarray]:
        return self.rings[1:]

    def to_lists(self) -> list[list[list[float]]]:
        return [[[float(x), float(y)] for x, y in ring] for ring in self.rings]


@dataclass(frozen=True)
class ShapeStats:
    """Area and exterior perimeter of a dissolved territory footprint."""

    area: float
    perimeter: float


def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area of a closed ring."""
    x, y = ring[:-1, 0], ring[:-1, 1]
    xn, yn = ring[1:, 0], ring[1:, 1]
    return 0.5 * float(np.sum(x * yn - xn * y))


def ring_length(ring: np.ndarray) -> float:
    return float(np.sum(np.hypot(np.diff(ring[:, 0]), np.diff(ring[:, 1]))))


def ring_centroid(ring: np.ndarray) -> tuple[float, float]:
    """Area-weighted centroid of a closed ring."""
    x, y = ring[:-1, 0], ring[:-1, 1]
    xn, yn = ring[1:, 0], ring[1:, 1]
    cross = x * yn - xn * y
    area = cross.sum() / 2.0
    if area == 0.0:
        raise GeometryError("centroid undefined for a zero-area ring")
    cx = float(((x + xn) * cross).sum() / (6.0 * area))
    cy = float(((y + yn) * cross).sum() / (6.0 * area))
    return cx, cy


def polygon_area(polygon: Polygon) -> float:
    """Absolute area of the outer ring minus the hole areas."""
    area = abs(ring_area(polygon.outer))
    for hole in polygon.holes:
        area -= abs(ring_area(hole))
    return area


def polygon_perimeter(polygon: Polygon) -> float:
    """Total boundary length, hole rings included."""
    return sum(ring_length(r) for r in polygon.rings)


class RingTable:
    """The rings of N unit polygons stacked in one table: the form in which
    an instance holds its geometry.

    ``points`` is ``(P, 2)``: every ring's points, ring after ring and unit
    after unit, each unit's outer ring first and its holes after it.  Ring
    ``r`` is ``points[starts[r]:starts[r + 1]]`` and belongs to unit
    ``unit[r]``; unit ``v``'s rings are ``first[v]`` to ``first[v + 1] - 1``.
    Step ``i`` of the table runs from point ``i`` to point ``i + 1``, so ring
    ``r``'s steps are ``starts[r]`` to ``starts[r + 1] - 2``.

    The unit sums are bit-identical to the per-ring reference functions
    (:func:`ring_area`, :func:`ring_length`, :func:`ring_centroid`,
    :func:`polygon_area`, :func:`polygon_perimeter`).  Each step's term is
    the same elementwise arithmetic.  Rings with the same number of points
    are summed as the rows of one ``(rings, m)`` array, and numpy sums a
    contiguous row pairwise, in the order ``np.sum`` sums one ring's terms
    (``np.add.reduceat`` adds sequentially instead, which differs in the
    last bit from 8 terms on).  A unit's rings combine in ring order, as the
    reference combines them.
    """

    def __init__(self, points, starts, unit):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.unit = np.asarray(unit, dtype=np.int64)
        self.first = np.append(np.flatnonzero(np.diff(self.unit, prepend=-1)),
                               len(self.unit))
        self.unit_count = len(self.first) - 1

    @classmethod
    def from_polygons(cls, polygons) -> "RingTable":
        """The table of a sequence of :class:`Polygon`."""
        rings = [ring for polygon in polygons for ring in polygon.rings]
        counts = [len(polygon.rings) for polygon in polygons]
        return cls(np.concatenate(rings),
                   np.cumsum([0] + list(map(len, rings))),
                   np.repeat(np.arange(len(counts)), counts))

    @classmethod
    def from_lists(cls, polygons) -> "RingTable":
        """The table of ``polygons``, each a list of rings of ``[x, y]``
        pairs as an instance file gives them.  One pass over the stacked
        rings only detects a fault; then the first unit ``v`` that
        :class:`Polygon` refuses is named with its message, as a
        GeometryError ``unit v: ...``; so is a polygon that is not a list of
        rings of pairs, and a coordinate that is not an int or a float."""
        stacked = _stack_lists(polygons)
        if stacked is not None:
            points, lengths, counts = stacked
            table = cls(points, np.cumsum(np.r_[0, lengths]),
                        np.repeat(np.arange(len(counts)), counts))
            if _rings_ok(table, counts):
                return table
        for v, polygon in enumerate(polygons):
            try:
                if why := _malformed(polygon):
                    raise GeometryError(why)
                Polygon(polygon)
            except GeometryError as exc:
                raise GeometryError(f"unit {v}: {exc}") from exc
        raise InternalError("the stacked ring check refused polygons that "
                            "Polygon accepts one at a time")

    def rings(self, v: int) -> list[np.ndarray]:
        """Unit ``v``'s rings, outer first, as views of ``points``."""
        ends = self.starts[self.first[v]:self.first[v + 1] + 1].tolist()
        return [self.points[a:b] for a, b in zip(ends, ends[1:])]

    def polygon(self, v: int) -> Polygon:
        return Polygon(self.rings(v))

    def to_lists(self) -> list:
        """Each unit's rings as lists of ``[x, y]`` floats, as
        :meth:`Polygon.to_lists` gives them."""
        points, starts = self.points.tolist(), self.starts.tolist()
        rings = [points[a:b] for a, b in zip(starts, starts[1:])]
        first = self.first.tolist()
        return [rings[a:b] for a, b in zip(first, first[1:])]

    @cached_property
    def partners(self) -> np.ndarray:
        """The match of every boundary segment, made once per table: per
        step ``i``, the step by which another unit lists its segment, -1
        where none does (or only its own unit does, twice) and -2 where
        step ``i`` is no step of a ring (one of length at most
        ``MATCH_TOL`` in both coordinates, or from a ring's last point to
        the next ring's first).  Raises GeometryError when more than two
        units list one segment;
        :func:`shared_boundaries` and :func:`corner_table` read it."""
        return _step_partners(self)

    def _steps(self):
        """``x, y, xn, yn``: each step's start and end coordinates."""
        return (self.points[:-1, 0], self.points[:-1, 1],
                self.points[1:, 0], self.points[1:, 1])

    @cached_property
    def _ring_groups(self) -> list:
        """``(m, rings)`` for each ring length: the rings with ``m`` steps.
        The table keeps these groups, not their ``(rings, m)`` step
        arrays, which would hold one more int per point for its life."""
        count = np.diff(self.starts) - 1
        return [(m, np.flatnonzero(count == m))
                for m in np.unique(count).tolist()]

    def _ring_sums(self, terms: np.ndarray) -> np.ndarray:
        """Each ring's sum of ``terms`` (one per step) over its own steps,
        as ``np.sum`` of those terms gives it."""
        sums = np.empty(len(self.starts) - 1)
        for m, rings in self._ring_groups:
            steps = self.starts[rings, None] + np.arange(m)
            sums[rings] = terms[steps].sum(axis=1)
        return sums

    @cached_property
    def _cross_sums(self) -> np.ndarray:
        """Each ring's sum of its steps' cross products ``x * yn - xn * y``:
        twice its signed shoelace area, which the ring check, the areas and
        the centroids all read."""
        x, y, xn, yn = self._steps()
        return self._ring_sums(x * yn - xn * y)

    def ring_areas(self) -> np.ndarray:
        """Each ring's signed shoelace area, as :func:`ring_area`."""
        return 0.5 * self._cross_sums

    def areas(self) -> np.ndarray:
        """Each unit's outer-ring area less its holes' areas, as
        :func:`polygon_area`."""
        ring_area = np.abs(self.ring_areas())
        area = ring_area[self.first[:-1]]
        rank = np.arange(len(self.unit)) - self.first[self.unit]
        for k in range(1, int(rank.max()) + 1):
            holes = np.flatnonzero(rank == k)
            area[self.unit[holes]] -= ring_area[holes]
        return area

    def perimeters(self) -> np.ndarray:
        """Each unit's boundary length, holes included, as
        :func:`polygon_perimeter`."""
        x, y, xn, yn = self._steps()
        length = self._ring_sums(np.hypot(xn - x, yn - y))
        perimeter = length[self.first[:-1]]
        # the reference adds a unit's rings with Python's sum, which
        # compensates from Python 3.12 on: let it add them here too
        for v in np.flatnonzero(np.diff(self.first) > 1).tolist():
            rings = length[self.first[v]:self.first[v + 1]]
            perimeter[v] = sum(rings.tolist())
        return perimeter

    def centroids(self) -> np.ndarray:
        """``(N, 2)``: each unit's outer-ring centroid, as
        :func:`ring_centroid`."""
        x, y, xn, yn = self._steps()
        cross = x * yn - xn * y
        outer = self.first[:-1]
        cx, cy = (self._ring_sums(terms)[outer] for terms in
                  ((x + xn) * cross, (y + yn) * cross))
        area = self._cross_sums[outer] / 2.0
        return np.column_stack([cx / (6.0 * area), cy / (6.0 * area)])

    def boxes(self) -> np.ndarray:
        """``(N, 4)`` rows ``xmin, ymin, xmax, ymax`` over all rings of each
        unit, grown by ``MATCH_TOL`` and a few ulps of the coordinates: a
        point outside a unit's box lies within ``MATCH_TOL`` of none of its
        ring segments, and the ray cast of :func:`point_in_polygon` finds no
        crossing to its right (or an even number), however the crossings
        round."""
        starts = self.starts[self.first[:-1]]
        lo = np.minimum.reduceat(self.points, starts)
        hi = np.maximum.reduceat(self.points, starts)
        pad = MATCH_TOL + 8 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        return np.hstack([lo - pad, hi + pad])


def _stack_lists(polygons):
    """``(points, ring lengths, rings per unit)`` when every polygon is a
    list of rings of ``[x, y]`` pairs of ints and floats that convert to
    floats, else None.  Each check is one C-level pass over a flat list;
    coordinates that are all floats skip the set of their types."""
    if not set(map(type, polygons)) <= {list}:
        return None
    rings = list(chain.from_iterable(polygons))
    if not set(map(type, rings)) <= {list}:
        return None
    pairs = list(chain.from_iterable(rings))
    n = len(pairs)
    if countOf(map(type, pairs), list) != n or countOf(map(len, pairs), 2) != n:
        return None
    coords = list(chain.from_iterable(pairs))
    if (countOf(map(type, coords), float) != 2 * n
            and not set(map(type, coords)) <= {int, float}):
        return None
    try:
        points = np.fromiter(coords, dtype=float, count=2 * n).reshape(-1, 2)
    except OverflowError:       # an int beyond the float range
        return None
    return (points,
            np.fromiter(map(len, rings), dtype=np.int64, count=len(rings)),
            np.fromiter(map(len, polygons), dtype=np.int64,
                        count=len(polygons)))


def _malformed(polygon) -> str | None:
    """Why ``polygon`` is not a list of rings of ``[x, y]`` pairs of ints and
    floats, or None."""
    if type(polygon) is not list:
        return "polygon is not a list of rings"
    for ring in polygon:
        if type(ring) is not list or any(
                type(p) is not list or len(p) != 2 for p in ring):
            return "ring must be a closed sequence of >= 4 points"
    for c in chain.from_iterable(chain.from_iterable(polygon)):
        if type(c) not in (int, float):
            return f"coordinate {c!r} is not a number"
    return None


def _rings_ok(table: RingTable, counts) -> bool:
    """Whether each unit has a ring (``counts`` says how many), every ring
    of ``table`` has >= 4 finite points, is closed and has >= 3 distinct
    ones, and every outer ring has non-zero area, as :class:`Polygon` asks."""
    points, starts = table.points, table.starts
    lengths = np.diff(starts)
    if not (counts.all() and (lengths >= 4).all()
            and np.isfinite(points).all()):
        return False
    s, e = starts[:-1], starts[1:] - 1              # first and last point
    if (points[s] != points[e]).any():
        return False
    # three distinct points lead most rings; check the others point by point
    distinct = ((points[s] != points[s + 1]).any(axis=1)
                & (points[s + 1] != points[s + 2]).any(axis=1)
                & (points[s] != points[s + 2]).any(axis=1))
    for i in np.flatnonzero(~distinct).tolist():
        if len(set(map(tuple, points[s[i]:e[i]].tolist()))) < 3:
            return False
    return bool(table.ring_areas()[table.first[:-1]].all())


def _segment_key(p, q):
    a = (round(p[0] / MATCH_TOL), round(p[1] / MATCH_TOL))
    b = (round(q[0] / MATCH_TOL), round(q[1] / MATCH_TOL))
    return (a, b) if a <= b else (b, a)


def iter_segments(rings):
    """Yield (p, q) vertex pairs for every nonzero-length segment of
    ``rings``."""
    for ring in rings:
        for i in range(len(ring) - 1):
            p, q = ring[i], ring[i + 1]
            if abs(p[0] - q[0]) > MATCH_TOL or abs(p[1] - q[1]) > MATCH_TOL:
                yield p, q


def _step_partners(table: RingTable) -> np.ndarray:
    """``table.partners``: every boundary segment matched in one pass."""
    # one column per coordinate and per coordinate's key; a step runs from
    # point i to point i + 1, and the steps from ring to ring are left out
    starts = table.starts
    x, y = table.points.T
    i = np.delete(np.arange(len(x) - 1), starts[1:-1] - 1)
    owner = np.repeat(table.unit, np.diff(starts) - 1)
    partners = np.full(len(x) - 1, -2)
    i, owner = (a[(np.abs(x[i + 1] - x[i]) > MATCH_TOL)
                  | (np.abs(y[i + 1] - y[i]) > MATCH_TOL)] for a in (i, owner))
    partners[i] = -1

    # each segment's _segment_key as its two end points' key columns, the
    # lesser end first; the stable sort keeps a key's segments in the order
    # units list them
    kx, ky = np.rint(x / MATCH_TOL), np.rint(y / MATCH_TOL)
    ax, ay, bx, by = kx[i], ky[i], kx[i + 1], ky[i + 1]
    swap = (ax > bx) | ((ax == bx) & (ay > by))
    lo, hi = np.where(swap, i + 1, i), np.where(swap, i, i + 1)
    keys = (ky[hi], kx[hi], ky[lo], kx[lo])     # lexsort sorts by the last
    order = np.lexsort(keys)
    same = np.logical_and.reduce([k[1:] == k[:-1]
                                  for k in (key[order] for key in keys)])
    crowded = np.flatnonzero(same[1:] & same[:-1])
    if crowded.size:
        units = owner[order[crowded[0]:crowded[0] + 3]].tolist()
        raise GeometryError("more than two units share a boundary segment "
                            f"(units {', '.join(map(str, units))})")
    first, second = order[:-1][same], order[1:][same]
    two = owner[first] != owner[second]
    first, second = i[first[two]], i[second[two]]
    partners[first], partners[second] = second, first
    return partners


def shared_boundaries(table: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """``(pairs, lengths)`` of ``table``'s units: each pair of units
    ``(u, v)``, ``u < v``, sharing a segment of positive length, in
    lexicographic order, and the length they share, summed in the order
    ``u`` lists the segments, each with ``u``'s length for it.  Units that
    only meet at a point share nothing.  Read from the match
    ``table.partners`` (GeometryError when more than two units list one
    segment)."""
    partners = table.partners
    owner = np.repeat(table.unit, np.diff(table.starts))[:-1]  # of step i
    i = np.flatnonzero(partners > np.arange(len(partners)))  # lesser unit's
    x, y = table.points.T
    n = table.unit_count
    codes, pair = np.unique(owner[i] * n + owner[partners[i]],
                            return_inverse=True)
    lengths = np.bincount(pair, weights=np.hypot(x[i + 1] - x[i],
                                                 y[i + 1] - y[i]),
                          minlength=len(codes))
    return np.column_stack(np.divmod(codes, n)), lengths.astype(float)


class CornerTable(NamedTuple):
    """A map's corners and each unit's sides in ring order
    (:func:`corner_table`), as flat lists.

    A *side* of a unit is a maximal stretch of its boundary that it shares
    with one other unit: segments both list, joined at points where only
    the two of them meet.  A *corner* is a point whose fan of units closes:
    three or more unit angles meet there and every segment that ends there
    is shared, so the units around it bound one face of the contiguity
    graph drawn on the map.  A hexagonal map's corners have 3 units and a
    grid's 4; a point on the map's edge, on a gap or on a T-junction is no
    corner.

    * ``sides[side_ends[v]:side_ends[v + 1]]``: the unit across each side
      of unit ``v``, ring after ring and in ring order; a unit that shares
      two stretches with ``v`` is listed twice;
    * ``gaps``, beside ``sides``: the point where the side meets the side
      before it in its ring (cyclically): -1 when it is no corner, -2 for a
      corner of 3 units, a unit ``u >= 0`` for a corner of 4 (``u`` is the
      unit neither side reaches), and ``-3 - i`` for a larger corner, whose
      other units are ``extras[i]``;
    * ``unordered``: the units whose sides have no one cyclic order, since
      they have holes or meet a corner twice; ``gaps`` does not describe
      their corners, and ``fans[v]`` lists the corners at each of them,
      once each, as the tuple of its other units;
    * ``side_pairs``: every side once, as a row ``(u, w)`` with ``u < w``;
    * ``corner_units``, ``corner_starts``: the corners stacked, corner
      ``c``'s units (in turn round it) being
      ``corner_units[corner_starts[c]:corner_starts[c + 1]]``.
    """

    side_ends: list
    sides: list
    gaps: list
    extras: list
    unordered: frozenset
    fans: dict
    side_pairs: np.ndarray
    corner_units: np.ndarray
    corner_starts: np.ndarray


def corner_table(table: RingTable) -> CornerTable | None:
    """The :class:`CornerTable` of ``table``'s units, in array passes over
    its segment match (:attr:`RingTable.partners`); None when two units
    list a segment in the same direction once their rings are turned to
    run with their unit on the left (units that overlap).

    Each unit has one angle, a *wedge*, at the end of each step of its
    rings (turned so), between that step and the next.  Crossing the
    wedge's second step to the unit across, whose step runs the other way,
    lands on that unit's wedge at the same point; so one permutation of the
    wedges goes round every point, and its cycles whose steps are all
    shared are the points where fans close: of two wedges inside a side,
    of three or more at a corner.  Doubling the permutation labels them in
    a few passes."""
    partners = table.partners
    steps = np.flatnonzero(partners != -2)
    count = len(steps)
    ring = np.searchsorted(table.starts, steps, side="right") - 1
    unit = table.unit[ring]
    at = np.full(len(partners), -1)         # table step -> kept step
    at[steps] = np.arange(count)
    shared = partners[steps] >= 0
    across = np.where(shared, at[partners[steps]], -1)  # as a kept step
    head = np.flatnonzero(np.diff(ring, prepend=-1))
    nxt = np.arange(1, count + 1)
    nxt[np.append(head[1:], count) - 1] = head
    prev = np.empty_like(nxt)
    prev[nxt] = np.arange(count)
    outer = np.zeros(len(table.starts) - 1, dtype=bool)
    outer[table.first[:-1]] = True
    turned = ((table.ring_areas() > 0) != outer)[ring]
    x, y = table.points.T
    sign = np.where(turned, -1.0, 1.0)
    dx, dy = sign * (x[steps + 1] - x[steps]), sign * (y[steps + 1] - y[steps])
    mate = across[shared]
    if not (dx[shared] * dx[mate] + dy[shared] * dy[mate] < 0).all():
        return None

    # wedge j follows step j (as turned); spin[j] is the wedge across its
    # second step, or j itself where that step is not shared
    index = np.arange(count)
    second = np.where(turned, prev, nxt)
    spin = np.where(shared[second], across[second], index)
    hop, dead = spin, spin == index
    while True:
        farther = dead | dead[hop]
        if np.array_equal(farther, dead):
            break
        dead, hop = farther, hop[hop]
    closed = shared & ~dead
    spin = np.where(closed, spin, index)
    corner = closed & (spin[spin] != index)
    hop, label = spin, index
    while True:
        lower = np.minimum(label, label[hop])
        if np.array_equal(lower, label):
            break
        label, hop = lower, hop[hop]

    # each corner's wedges in turn, from its least one, padded with -1
    walk = [np.flatnonzero(corner & (label == index))]
    cur = spin[walk[0]]
    while (going := cur != walk[0]).any():
        walk.append(np.where(going, cur, -1))
        cur = np.where(going, spin[cur], cur)
    walk = np.column_stack(walk)
    member = walk >= 0
    size = member.sum(axis=1)
    units = np.where(member, unit[walk], -1)
    twice = np.zeros(len(walk), dtype=bool)
    for i in range(1, walk.shape[1]):
        twice |= ((units[:, i:] == units[:, :-i]) & member[:, i:]).any(axis=1)
    wedge_size = np.zeros(count, dtype=np.int64)
    wedge_size[walk[member]] = np.repeat(size, size)
    unordered = set(np.flatnonzero(np.diff(table.first) > 1).tolist())
    unordered.update(units[twice][member[twice]].tolist())
    fans: dict = {}
    near = np.isin(units, list(unordered)).any(axis=1) if unordered else []
    for row in units[near].tolist():
        row = list(dict.fromkeys(row[:row.index(-1)] if -1 in row else row))
        for v in row:
            if v in unordered:
                fans.setdefault(v, []).append(tuple(u for u in row if u != v))

    # a side starts after a point that does not lie inside one; a ring
    # whose points all do is one side, from its first step
    inside = closed & ~corner
    point = np.where(turned, nxt, index)    # the wedge after step j's end
    start = shared & ~inside[point[prev]]
    start[head[np.logical_and.reduceat(inside[point], head)]] = True
    first = np.flatnonzero(start)
    side_unit, side_across = unit[first], unit[across[first]]
    before = point[prev[first]]             # the wedge where each side starts
    m = wedge_size[before]
    gaps = np.where(m == 0, -1, np.where(m == 3, -2,
                                         unit[spin[spin[before]]]))
    extras = []     # round a larger corner from the side's far neighbour
    for i in np.flatnonzero(m > 4).tolist():
        w, found = spin[spin[before[i]]], []
        for _ in range(m[i] - 3):
            found.append(int(unit[w]))
            w = spin[w]
        gaps[i] = -3 - len(extras)
        extras.append(tuple(found))
    lower = side_unit < side_across
    ends = np.bincount(side_unit, minlength=table.unit_count).cumsum()
    return CornerTable(
        np.append(0, ends).tolist(),
        side_across.tolist(), gaps.tolist(), extras, frozenset(unordered),
        {v: tuple(c) for v, c in fans.items()},
        np.column_stack([side_unit[lower], side_across[lower]]),
        units[member], np.append(0, np.cumsum(size)))


def dissolve(units: list[Polygon]) -> ShapeStats:
    """Merge edge-matched unit polygons into one footprint.

    Area is the sum of unit areas.  Perimeter keeps only segments that appear
    in exactly one unit; a segment present in two units is an internal wall
    and dissolves.  Hole boundaries of the union (a fully enclosed foreign
    region) remain part of the perimeter.
    """
    if not units:
        raise GeometryError("cannot dissolve an empty set of units")
    counts: dict = {}
    lengths: dict = {}
    for unit in units:
        for p, q in iter_segments(unit.rings):
            key = _segment_key(p, q)
            counts[key] = counts.get(key, 0) + 1
            lengths[key] = math.hypot(q[0] - p[0], q[1] - p[1])
    if any(c > 2 for c in counts.values()):
        raise GeometryError("a boundary segment is shared by more than two units")
    perimeter = sum(lengths[k] for k, c in counts.items() if c == 1)
    area = sum(polygon_area(u) for u in units)
    return ShapeStats(area=area, perimeter=perimeter)


def polsby_popper(stats: ShapeStats) -> float:
    """4*pi*area / perimeter**2; equals 1 for a circle, pi/4 for a square."""
    if stats.perimeter <= 0.0:
        raise GeometryError("polsby_popper undefined for zero perimeter")
    return 4.0 * math.pi * stats.area / (stats.perimeter * stats.perimeter)


def _on_segment(x, y, p, q) -> bool:
    """Whether ``(x, y)`` lies within ``MATCH_TOL`` of segment ``pq``, one
    that :func:`iter_segments` yields, so of positive length."""
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    t = ((x - px) * dx + (y - py) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    cx, cy = px + t * dx, py + t * dy
    return (x - cx) ** 2 + (y - cy) ** 2 <= MATCH_TOL * MATCH_TOL


def point_in_polygon(point, polygon: Polygon) -> bool:
    """Ray-casting containment test; points within ``MATCH_TOL`` of any ring
    count as inside."""
    return point_in_rings(point, polygon.rings)


def point_in_rings(point, rings) -> bool:
    """:func:`point_in_polygon` for the polygon of ``rings``."""
    x, y = float(point[0]), float(point[1])
    for p, q in iter_segments(rings):
        if _on_segment(x, y, p, q):
            return True
    inside = False
    for ring in rings:
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
    return inside


def containing_unit(point, table: RingTable, boxes: np.ndarray):
    """Index of the first unit of ``table`` that contains ``point`` by
    :func:`point_in_polygon` (so a point on a shared side goes to the lower
    index), or None.  ``boxes`` are the table's :meth:`RingTable.boxes`;
    only units whose box holds the point are tested."""
    x, y = float(point[0]), float(point[1])
    near = ((boxes[:, 0] <= x) & (x <= boxes[:, 2])
            & (boxes[:, 1] <= y) & (y <= boxes[:, 3]))
    for i in np.flatnonzero(near).tolist():
        if point_in_rings(point, table.rings(i)):
            return i
    return None


def unit_square(col: float, row: float, size: float = 1.0) -> Polygon:
    """Axis-aligned square cell with lower-left corner at (col, row)."""
    c, r, s = float(col), float(row), float(size)
    return Polygon(
        [[(c, r), (c + s, r), (c + s, r + s), (c, r + s), (c, r)]]
    )
