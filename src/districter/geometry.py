"""Planar polygon arithmetic for compactness scoring.

Territory shapes are unions of unit polygons that tile the plane edge-to-edge
(true for grids and typical GIS planning units).  Under that restriction a
dissolved union never needs a general boolean overlay: its area is the sum of
unit areas and its perimeter is the total length of boundary segments that are
not shared by two units.  Segments are matched exactly up to ``MATCH_TOL``.
:func:`shared_boundaries` matches all units' segments at once for an
instance's adjacency and shared lengths; :func:`dissolve` matches one
territory's on its own, the reference the cached sums are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

# Coordinate tolerance for segment matching and boundary tests (instance units).
MATCH_TOL = 1e-9


class Polygon:
    """A simple polygon: one closed outer ring plus optional hole rings.

    Rings are ``(m, 2)`` arrays of finite floats with first point equal to
    last and at least three distinct vertices.
    """

    __slots__ = ("rings",)

    def __init__(self, rings):
        if not rings:
            raise GeometryError("polygon needs at least an outer ring")
        self.rings = [np.asarray(r, dtype=float) for r in rings]
        for ring in self.rings:
            if ring.ndim != 2 or ring.shape[1] != 2 or ring.shape[0] < 4:
                raise GeometryError("ring must be a closed sequence of >= 4 points")
            if not np.isfinite(ring).all():
                raise GeometryError("ring has a non-finite coordinate")
            if not np.array_equal(ring[0], ring[-1]):
                raise GeometryError("ring is not closed (first point != last point)")
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


def _segment_key(p, q, tol: float = MATCH_TOL):
    a = (round(p[0] / tol), round(p[1] / tol))
    b = (round(q[0] / tol), round(q[1] / tol))
    return (a, b) if a <= b else (b, a)


def iter_segments(polygon: Polygon):
    """Yield (p, q) vertex pairs for every nonzero-length boundary segment."""
    for ring in polygon.rings:
        for i in range(len(ring) - 1):
            p, q = ring[i], ring[i + 1]
            if abs(p[0] - q[0]) > MATCH_TOL or abs(p[1] - q[1]) > MATCH_TOL:
                yield p, q


def shared_boundaries(polygons) -> tuple[np.ndarray, np.ndarray]:
    """Match every boundary segment of ``polygons`` in one pass and return
    ``(pairs, lengths)``: each pair of units ``(u, v)``, ``u < v``, sharing a
    segment of positive length, in lexicographic order, and the length they
    share, summed in the order ``u`` lists the segments, each with ``u``'s
    length for it.  Units that only meet at a point share nothing.  Raises
    GeometryError when more than two units list one segment."""
    rings = [(u, ring) for u, polygon in enumerate(polygons)
             for ring in polygon.rings]
    p = np.concatenate([ring[:-1] for _, ring in rings])
    q = np.concatenate([ring[1:] for _, ring in rings])
    owner = np.concatenate([np.full(len(ring) - 1, u) for u, ring in rings])
    keep = (np.abs(q - p) > MATCH_TOL).any(axis=1)
    p, q, owner = p[keep], q[keep], owner[keep]
    length = np.hypot(q[:, 0] - p[:, 0], q[:, 1] - p[:, 1])

    # each segment's _segment_key as four floats; the stable sort keeps a
    # key's segments in the order units list them
    a, b = np.rint(p / MATCH_TOL), np.rint(q / MATCH_TOL)
    swap = (a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))
    keys = np.where(swap[:, None], np.hstack([b, a]), np.hstack([a, b]))
    order = np.lexsort(keys.T[::-1])
    same = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
    crowded = np.flatnonzero(same[1:] & same[:-1])
    if crowded.size:
        units = owner[order[crowded[0]:crowded[0] + 3]].tolist()
        raise GeometryError("more than two units share a boundary segment "
                            f"(units {', '.join(map(str, units))})")
    first, second = order[:-1][same], order[1:][same]
    listed = np.argsort(first)                  # as the first owners list them
    listed = listed[owner[first[listed]] != owner[second[listed]]]
    first, second = first[listed], second[listed]

    n = len(polygons)
    codes, pair = np.unique(owner[first] * n + owner[second],
                            return_inverse=True)
    lengths = np.bincount(pair, weights=length[first], minlength=len(codes))
    return np.column_stack(np.divmod(codes, n)), lengths.astype(float)


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
        for p, q in iter_segments(unit):
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


def _on_segment(x, y, p, q, tol: float) -> bool:
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return (x - px) ** 2 + (y - py) ** 2 <= tol * tol
    t = ((x - px) * dx + (y - py) * dy) / seg2
    t = min(1.0, max(0.0, t))
    cx, cy = px + t * dx, py + t * dy
    return (x - cx) ** 2 + (y - cy) ** 2 <= tol * tol


def point_in_polygon(point, polygon: Polygon, tol: float = MATCH_TOL) -> bool:
    """Ray-casting containment test; points on any ring count as inside."""
    x, y = float(point[0]), float(point[1])
    for p, q in iter_segments(polygon):
        if _on_segment(x, y, p, q, tol):
            return True
    inside = False
    for ring in polygon.rings:
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
    return inside


def bounding_boxes(polygons, tol: float = MATCH_TOL) -> np.ndarray:
    """``(N, 4)`` rows ``xmin, ymin, xmax, ymax`` over all rings of each
    polygon, grown by ``tol`` and a few ulps of the coordinates: a point
    outside a polygon's box lies within ``tol`` of none of its ring segments,
    and the ray cast of :func:`point_in_polygon` finds no crossing to its
    right (or an even number), however the crossings round."""
    rings = [np.concatenate(p.rings) for p in polygons]
    starts = np.cumsum([0] + [len(r) for r in rings[:-1]])
    points = np.concatenate(rings)
    lo = np.minimum.reduceat(points, starts)
    hi = np.maximum.reduceat(points, starts)
    pad = tol + 8 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    return np.hstack([lo - pad, hi + pad])


def containing_polygon(point, polygons, boxes: np.ndarray,
                       tol: float = MATCH_TOL):
    """Index of the first of ``polygons`` that contains ``point`` by
    :func:`point_in_polygon` (so a point on a shared side goes to the lower
    index), or None.  ``boxes`` are the polygons' :func:`bounding_boxes` for
    the same ``tol``; only polygons whose box holds the point are tested."""
    x, y = float(point[0]), float(point[1])
    near = ((boxes[:, 0] <= x) & (x <= boxes[:, 2])
            & (boxes[:, 1] <= y) & (y <= boxes[:, 3]))
    for i in np.flatnonzero(near).tolist():
        if point_in_polygon(point, polygons[i], tol):
            return i
    return None


def unit_square(col: float, row: float, size: float = 1.0) -> Polygon:
    """Axis-aligned square cell with lower-left corner at (col, row)."""
    c, r, s = float(col), float(row), float(size)
    return Polygon(
        [[(c, r), (c + s, r), (c + s, r + s), (c, r + s), (c, r)]]
    )
