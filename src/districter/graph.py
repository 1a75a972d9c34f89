"""Contiguity graph and plan representation, and the one home of
connectivity, which three searches and one rule answer.  One
breadth-first search (:func:`_territory_search`) grows through a territory
of an owner list: node-set queries, :func:`is_connected` and
:func:`connected_components`, run it on a membership map of the set, at
the cost of the set and its neighbour lists, and repair runs it to find a
territory's pieces.  Whole-plan checks (the graph's own connectivity,
:func:`validate_plan`, :func:`repair` and the plan loader) ask
:func:`split_territories`, which labels the pieces of every territory at
once in a few array passes over the edge table.  A flip walk asks the
narrower question whether a territory stays connected without one node.
:func:`corner_answer` reads it from the map's corners
(:class:`~districter.geometry.CornerTable`) and the territory's hole count
in O(deg v); where the territory has a hole, and on a map without a
corner table, :func:`stays_connected_without` searches: one search grows
from each of the node's territory neighbours in lockstep, so the answer
"connected" comes once they have met and "split" once one piece is used
up, at the cost of the smaller piece.

One loop, :func:`repair_owner`, restores contiguity in an owner list, from
given start nodes of each broken territory: :func:`repair` gives it all of
the members of each territory that the labelling finds in pieces, and a
recombination the territory neighbours of the node a territory lost, so
that its repair costs what the broken territories hold, not what the map
holds.

The graph is built from its edge table, and only it knows the order of its
neighbour lists.  It holds no solve state: its one cached field,
``corners``, is built from its rings on first use by the walks of one
solve and kept.
A :class:`Plan` is a value object: algorithms copy it before mutating.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InstanceError, InternalError
from .geometry import CornerTable, corner_table

LEVELS = ("ES", "MS", "HS")


def whole_numbers(values, what: str, *, column: bool = False) -> np.ndarray:
    """``values`` (a number, nested lists of numbers or an array) as int64.
    An entry that is not a number (text and booleans included) or not a
    whole number of magnitude at most 2**53 (NaN and infinities included) is
    an InstanceError naming ``what`` and the entry's flat index.  With
    ``column``, ``values`` is a list of one number per entry, and an entry
    that is a list is not a number, also where every entry is one.  A flat
    list of plain ints, and an array of an integer type that int64 holds,
    skip the per-entry type check."""
    if type(values) is list and set(map(type, values)) <= {int}:
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:   # beyond int64: the per-entry check names it
            pass
    if (isinstance(values, np.ndarray) and values.dtype.kind in "iu"
            and np.can_cast(values.dtype, np.int64)):
        x = values.astype(np.int64)
        flat = x.ravel()
        for i in np.flatnonzero((flat > 2 ** 53) | (flat < -2 ** 53))[:1]:
            where = f" {i}" if x.ndim else ""
            raise InstanceError(f"{what}{where} is {flat[i]}, not a finite "
                                "whole number")
        return x
    if column:
        values = np.fromiter(values, dtype=object, count=len(values))
    try:
        entries = np.asarray(values, dtype=object)
    except ValueError as exc:
        raise InstanceError(f"{what}: not a number: {exc}") from exc
    flat = entries.ravel().tolist()
    where = " {}" if entries.ndim else ""
    if not {type(v) for v in flat} <= {int, float}:
        i = next(i for i, v in enumerate(flat) if type(v) not in (int, float))
        raise InstanceError(f"{what}{where.format(i)} is {flat[i]!r}, not a "
                            "number")
    try:
        x = np.array(flat, dtype=float)
    except OverflowError:       # an int beyond the float range
        x = np.array([v if abs(v) <= 2 ** 53 else np.inf for v in flat])
    bad = ~(np.abs(x) <= 2 ** 53) | (x != np.round(x))
    for i in np.flatnonzero(np.abs(x) == 2 ** 53):
        bad[i] = abs(flat[i]) > 2 ** 53     # 2**53 + 1 rounds to 2**53
    for i in np.flatnonzero(bad)[:1]:
        raise InstanceError(f"{what}{where.format(i)} is {flat[i]}, not a "
                            "finite whole number")
    return x.astype(np.int64).reshape(entries.shape)


class ContiguityGraph:
    """Planar adjacency structure over N spatial units, built from its edges.

    ``neighbor_lists[u]`` is the sorted tuple of ``u``'s neighbours, which
    the traversal walks; ``edges`` holds each edge once as ``(u, v)`` with
    ``u < v``, in lexicographic order.

    Parameters
    ----------
    node_count, edges:
        N, and ``[u, v]`` pairs of distinct nodes in ``0..N-1`` (either
        order, repeats merged) that connect the graph.
    population, capacity:
        Optional dicts mapping a school level ("ES"/"MS"/"HS") to a length-N
        array of non-negative whole numbers.  Missing levels default to zeros.
    polygons:
        Optional unit boundaries: a :class:`~districter.geometry.RingTable`
        of N units (:meth:`~districter.geometry.RingTable.from_polygons`
        stacks a sequence of :class:`~districter.geometry.Polygon`).  The
        graph keeps the table as ``rings`` and the units' ``centroids``
        from it (zeros without polygons).

    :attr:`corners` is built for the walks of one solve once their
    searches' splits pay for it (:class:`~districter.local_search.Walk`).
    """

    def __init__(self, node_count: int, edges, *, population=None,
                 capacity=None, polygons=None):
        n = self.node_count = node_count
        if n < 1:
            raise InstanceError("graph needs at least one node")
        pairs = whole_numbers(edges, "edge entry")
        if pairs.size and pairs.shape[1:] != (2,):
            raise InstanceError("edges must be a table of [u, v] pairs")
        pairs = pairs.reshape(-1, 2)
        for u, v in pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)
                          | (pairs[:, 0] == pairs[:, 1])][:1].tolist():
            raise InstanceError(f"edge [{u}, {v}] is not two distinct nodes "
                                f"of 0..{n - 1}")
        # equal keys lo * N + hi merge repeats: the first of each sorted run
        lo, hi = np.sort(pairs, axis=1).T
        keys = np.sort(lo * n + hi)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.edges = np.column_stack(np.divmod(keys, n))
        # both directions of every edge, by node and then by neighbour
        both = np.concatenate([self.edges, self.edges[:, ::-1]])
        self._order = np.argsort(both[:, 0] * n + both[:, 1], kind="stable")
        self._ends = np.cumsum(np.bincount(both[:, 0], minlength=n)).tolist()
        # one int object per node id, however many lists name the node
        self.neighbor_lists = self._per_node(map(
            list(range(n)).__getitem__, both[self._order, 1].tolist()))

        self.population = self._feature_dict(population, n, "population")
        self.capacity = self._feature_dict(capacity, n, "capacity")
        self.rings = polygons
        if polygons is not None and polygons.unit_count != n:
            raise InstanceError("polygons must have one entry per node")
        self.centroids = (np.zeros((n, 2)) if polygons is None
                          else polygons.centroids())

        if split_territories(self, np.zeros(n, dtype=np.int64), 1):
            raise InstanceError("contiguity graph is disconnected")

    def along_neighbors(self, values) -> tuple:
        """Per-edge ``values`` (one per row of ``edges``) spread per node:
        ``result[u][j]`` belongs to edge ``u``-``neighbor_lists[u][j]``."""
        return self._per_node(
            np.concatenate([values, values])[self._order].tolist())

    def _per_node(self, flat) -> tuple:
        # tuples, not lists: the cyclic collector untracks a tuple of numbers,
        # so the graph's 2N per-node sequences add nothing to the objects
        # that later collections walk
        flat = tuple(flat)
        return tuple(flat[a:b] for a, b in zip([0, *self._ends], self._ends))

    @staticmethod
    def _feature_dict(values, n, name):
        out = {}
        values = values or {}
        for level in LEVELS:
            arr = whole_numbers(values.get(level, np.zeros(n, dtype=np.int64)),
                                f"{name}[{level}] entry")
            if arr.shape != (n,):
                raise InstanceError(f"{name}[{level}] must have length {n}")
            for i in np.flatnonzero(arr < 0)[:1]:
                raise InstanceError(f"{name}[{level}] entry {i} is {arr[i]}, "
                                    "not a non-negative number")
            out[level] = arr
        return out

    @property
    def polygons(self) -> list | None:
        """Each unit's :class:`~districter.geometry.Polygon`, built from
        ``rings`` on each call (None without unit boundaries)."""
        if self.rings is None:
            return None
        return [self.rings.polygon(v) for v in range(self.node_count)]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def corners(self) -> CornerTable | None:
        """The map's :class:`~districter.geometry.CornerTable`, built from
        ``rings`` on first use (a walk's) and kept; None without unit
        boundaries."""
        return None if self.rings is None else corner_table(self.rings)


@dataclass
class Plan:
    """Assignment of every node to one of K territories, each anchored by a
    fixed center node (territory i always contains ``centers[i]``).  Input
    other than a signed integer array is read by :func:`whole_numbers`."""

    assignment: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        self.assignment = _indices(self.assignment, "plan assignment of node")
        self.centers = _indices(self.centers, "plan center")
        if self.assignment.ndim != 1 or self.centers.ndim != 1:
            raise InstanceError("assignment and centers must be 1-D")
        if len(np.unique(self.centers)) != len(self.centers):
            raise InstanceError("centers must be distinct")

    @property
    def territory_count(self) -> int:
        return len(self.centers)

    def territory(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)

    def copy(self) -> "Plan":
        return Plan(self.assignment.copy(), self.centers.copy())


def _indices(values, what: str) -> np.ndarray:
    # a signed integer array is taken as it is, so Plan.copy pays no check
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return np.asarray(values, dtype=np.int64)
    return whole_numbers(values, what)


def check_plan(a: np.ndarray, centers: np.ndarray, instance) -> None:
    """Raise :class:`InstanceError` unless the flat assignment ``a`` and
    the ``centers`` make a plan of ``instance``: one entry per node, the
    instance's centers, every entry a territory of ``0..K-1`` and each
    center in its own territory.  Its territories may still be in
    pieces."""
    n = instance.graph.node_count
    if len(a) != n:
        raise InstanceError(f"plan covers {len(a)} nodes, instance has {n}")
    if not np.array_equal(centers, instance.centers):
        raise InstanceError("plan centers do not match the instance")
    k = len(centers)
    if a.min() < 0 or a.max() >= k:
        raise InstanceError("plan assigns a node to a nonexistent territory")
    for i in np.flatnonzero(a[centers] != np.arange(k))[:1].tolist():
        raise InstanceError(f"center {centers[i]} missing from its "
                            f"territory {i}")


# ---------------------------------------------------------------------------
# Connectivity: node-set traversal, whole-plan labelling, and repair
# ---------------------------------------------------------------------------

def _membership(nodes) -> defaultdict:
    """``nodes`` as an owner map for :func:`_territory_search`: True for
    each of them; a node looked up outside them reads False (and is kept)."""
    nodes = nodes.tolist() if isinstance(nodes, np.ndarray) else map(int, nodes)
    return defaultdict(bool, dict.fromkeys(nodes, True))


def is_connected(graph: ContiguityGraph, nodes) -> bool:
    """Connectivity of the induced subgraph.

    The empty set is NOT connected (an emptied territory is a hard violation);
    a singleton is.
    """
    owner = _membership(nodes)
    size = len(owner)
    return size > 0 and len(_territory_search(
        graph.neighbor_lists, owner, True, next(iter(owner)), set())) == size


def stays_connected_without(graph: ContiguityGraph, owner: list, node: int
                            ) -> bool:
    """Whether the territory of ``node``, connected as it is, stays connected
    and non-empty once ``node`` leaves it; ``owner[u]`` is u's territory.

    Every other member reaches ``node`` through one of its territory
    neighbours, so the territory stays connected exactly when those
    neighbours reach each other without ``node``.  Neighbours adjacent to
    each other are linked at once (on a hexagonal map most are), and then
    neighbours that share a member other than ``node`` (on a grid, the
    corner between them).  Otherwise one breadth-first search grows
    from each neighbour, a node at a time in turn, and searches that meet
    join one group.  The answer is "connected" when a single group is left,
    and "split" as soon as every search of one group has run out: that group
    has then found a whole piece without the others.  So a split costs about
    the size of its smaller piece, not of the whole territory (the lockstep
    trick of Even & Shiloach's dynamic connectivity, J. ACM 1981).  This
    search needs no geometry; a flip walk asks it only where the map's
    corners cannot answer (:func:`corner_answer`, after King, Jacobson,
    Sewell & Cho's geo-graphs, Operations Research 60(5), 2012), and
    recombination asks it of owners that hold a move not yet committed.
    """
    lists = graph.neighbor_lists
    t = owner[node]
    starts = []
    for w in lists[node]:
        if owner[w] == t:
            starts.append(w)
    m = len(starts)
    if m < 2:
        return m == 1
    group = list(range(m))      # group[i]: the group search i belongs to
    groups = m
    for i in range(1, m):
        near = lists[starts[i]]
        for j in range(i):
            if starts[j] in near and group[j] != group[i]:
                groups -= 1
                if groups == 1:
                    return True
                _join(group, i, j)
    for i in range(1, m):
        near = lists[starts[i]]
        for j in range(i):
            if group[j] != group[i]:
                for w in lists[starts[j]]:
                    if w != node and owner[w] == t and w in near:
                        groups -= 1
                        if groups == 1:
                            return True
                        _join(group, i, j)
                        break
    label = dict(zip(starts, range(m)))     # node -> search that found it
    label[node] = -1
    queues = list(map(list, zip(starts)))   # search i's queue: [starts[i]]
    heads = [0] * m                         # search i's next node to expand
    while True:
        for i in range(m):
            queue, head = queues[i], heads[i]
            if head == len(queue):
                continue
            heads[i] = head + 1
            for w in lists[queue[head]]:
                if owner[w] == t:
                    j = label.get(w)
                    if j is None:
                        label[w] = i
                        queue.append(w)
                    elif j >= 0 and group[j] != group[i]:
                        groups -= 1
                        if groups == 1:
                            return True
                        _join(group, i, j)
            if head + 1 == len(queue):
                g = group[i]
                for x in range(m):
                    if group[x] == g and heads[x] < len(queues[x]):
                        break
                else:
                    return False


def _join(group: list, i: int, j: int) -> None:
    """Merge the group of search ``j`` into that of search ``i``."""
    old, new = group[j], group[i]
    for x in range(len(group)):
        if group[x] == old:
            group[x] = new


def corner_answer(corners: CornerTable, owner: list, node: int,
                  holes: list) -> bool | None:
    """:func:`stays_connected_without` read from the map's corners in
    O(deg v), or None where only the search can tell.  ``holes`` is the
    plan's :func:`corner_holes`.

    Round ``node``, two of its sides in its territory t are linked when
    the units of the corner between them all lie in t; so the node's sides
    in t fall into runs of linked sides, and each run stays connected
    without it.  Unless the node is ``unordered`` (it has holes, or a
    unit meets one of its corners twice), its sides go once round it, each
    corner at it lies between two of them, and so there are as many runs
    as sides in t less corners in t (one run where they close a cycle).
    One run, and t stays connected.  Draw t's contiguity graph on the map, one edge per side.
    By Euler's formula holes(t) = E_T - V_T + 1 - F_T counts its bounded
    faces that are not corners (each holds another unit or a gap).
    Between two runs lies a face that is no corner; if t stayed connected
    without ``node``, the faces round it would be distinct, at most one of
    them the outer face, and holes(t) would be positive.  So with two runs
    and no hole, t splits (the geo-graph rule of King, Jacobson, Sewell &
    Cho, Operations Research 60(5), 2012).  With a hole, the search
    decides."""
    if node in corners.unordered:
        return None
    t = owner[node]
    ends = corners.side_ends
    runs = 0
    for w in corners.sides[ends[node]:ends[node + 1]]:
        if owner[w] == t:
            runs += 1
    if runs < 2:
        return runs == 1
    ends = corners.around_ends
    for units in corners.around[ends[node]:ends[node + 1]]:
        if _within(units, owner, t, node):
            runs -= 1
    if runs < 2:
        return True
    if holes[t] == 0:
        return False
    return None


def _within(units, owner: list, t: int, node: int) -> bool:
    """Whether every one of ``units`` other than ``node`` lies in territory
    ``t``."""
    for x in units:
        if owner[x] != t and x != node:
            return False
    return True


def corner_holes(corners: CornerTable, assignment, k: int) -> list:
    """holes(t) = E_T - V_T + 1 - F_T (:func:`corner_answer`) for each
    territory t of ``0..k-1`` of the assignment, from its units V_T, the
    sides shared within it E_T (one per edge, unless two units share
    stretches apart) and the corners whose units all lie in it F_T (each
    once, also one that a unit meets twice)."""
    a = np.asarray(assignment)
    u, w = corners.side_pairs.T
    label = a[corners.corner_units]
    starts = corners.corner_starts[:-1]
    whole = (np.minimum.reduceat(label, starts)
             == np.maximum.reduceat(label, starts))
    return (np.bincount(a[u][a[u] == a[w]], minlength=k) + 1
            - np.bincount(a, minlength=k)
            - np.bincount(label[starts][whole], minlength=k)).tolist()


def move_holes(corners: CornerTable, holes: list, owner: list, node: int,
               donor: int, recipient: int) -> None:
    """Update :func:`corner_holes` in place for ``node``'s move from the
    donor to the recipient, which ``owner`` already shows, in
    O(deg v + corners at v).  The territory that gains the unit loses a
    hole for it and for each corner at it that closes in it, and gains one
    per side it gains; the territory that loses the unit changes the other
    way."""
    holes[donor] += 1
    holes[recipient] -= 1
    ends = corners.side_ends
    for w in corners.sides[ends[node]:ends[node + 1]]:
        t = owner[w]
        if t == donor:
            holes[t] -= 1
        elif t == recipient:
            holes[t] += 1
    ends = corners.around_ends
    for units in corners.around[ends[node]:ends[node + 1]]:
        if _within(units, owner, donor, node):
            holes[donor] += 1
        elif _within(units, owner, recipient, node):
            holes[recipient] -= 1


def split_territories(graph: ContiguityGraph, assignment, k: int
                      ) -> list[int]:
    """The territories of ``0..k-1`` that the assignment (``assignment[u]``
    is u's territory in ``0..k-1``, one entry per node) leaves empty or in
    more than one piece, in ascending order.

    One labelling of the subgraph of same-territory edges answers for every
    territory at once, as a few array passes over the edge table: hooking
    and pointer jumping (Shiloach & Vishkin, J. Algorithms 3(1), 1982).
    Every node starts as its own label.  Each round keeps the edges whose
    ends carry different labels, hooks the larger label of each such edge
    to the smallest label it meets, and then replaces each label by its
    label's label until nothing changes, so that every label is a root (a
    node that is its own label).  A label only ever points to a smaller
    node of the same component, so each component's final root is its
    smallest node.  A round that finds an edge between two roots hooks at
    least one of them below itself, so the number of roots falls every
    round and the loop ends; it ends with no edge between two labels, when
    the roots are exactly the components.  A territory is then whole when
    exactly one root lies in it.

    :func:`is_connected` answers for one node set at the cost of the set's
    size; this pass costs the whole map, once."""
    a = np.asarray(assignment)
    u, v = graph.edges.T
    same = a[u] == a[v]
    u, v = u[same], v[same]
    label = np.arange(graph.node_count)
    while True:
        lu, lv = label[u], label[v]
        differ = lu != lv
        if not differ.any():
            break
        u, v, lu, lv = u[differ], v[differ], lu[differ], lv[differ]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    roots = a[label == np.arange(graph.node_count)]
    return np.flatnonzero(np.bincount(roots, minlength=k) != 1).tolist()


def connected_components(graph: ContiguityGraph, nodes) -> list[np.ndarray]:
    """Maximal connected components of the induced subgraph, ordered by their
    smallest member for reproducibility.  Each component array is sorted."""
    owner = _membership(nodes)
    reached = set()
    lists = graph.neighbor_lists
    return [np.array(sorted(_territory_search(lists, owner, True, s, reached)),
                     dtype=np.int64)
            for s in sorted(owner) if s not in reached]


def repair(plan: Plan, instance, rng: np.random.Generator) -> Plan:
    """Make every territory of ``plan``, a plan of ``instance``
    (:func:`check_plan`), connected again.

    Each territory in pieces (:func:`split_territories`) keeps the piece
    containing its center, and :func:`repair_owner` dismantles its other
    pieces, looked for from all of its members, in a list of the plan's
    owners.  A feasible plan comes back unchanged, and with no draws.
    """
    a = plan.assignment
    check_plan(a, plan.centers, instance)
    owner = a.tolist()
    broken = split_territories(instance.graph, a, plan.territory_count)
    repair_owner(instance.graph, owner, plan.centers.tolist(), rng,
                 {t: np.flatnonzero(a == t).tolist() for t in broken}, {})
    return Plan(np.array(owner, dtype=np.int64), plan.centers.copy())


def repair_owner(graph: ContiguityGraph, owner: list, centers: list,
                 rng: np.random.Generator, starts: dict, moved: dict) -> None:
    """Make the territories of ``starts`` connected again, in place on an
    owner list (``owner[u]`` is u's territory, ``centers[t]`` t's center).
    ``starts`` maps each of them to nodes of it that include one of every
    piece.

    Territories are taken in increasing order.  Each keeps the piece
    containing its center; its other pieces come in the order
    :func:`connected_components` gives them, by smallest member, which
    fixes the draws.  A piece is dismantled node by node from its frontier
    (its nodes with a neighbour outside it) inward, each node joining a
    uniformly chosen adjacent territory (which stays connected, since the
    node is adjacent to it).  The frontier is a sorted list kept up to date
    as nodes leave: a node's neighbours still in the piece join it, so each
    draw is over the same list a rescan of the piece would give.

    A territory only gains nodes from the repair of another, and a gained
    node, adjacent to it, only joins its pieces.  So start nodes taken
    before the repair still meet every piece, and a territory left out of
    ``starts`` because it was connected stays so.  ``moved`` gets each node
    the repair moves, mapped to its owner before its first move, so that
    the caller can write the owners back, also when a draw raises
    partway."""
    lists = graph.neighbor_lists
    for t in sorted(starts):
        if owner[centers[t]] != t:
            raise InternalError(f"territory {t} lost its center")
        reached = set()
        _territory_search(lists, owner, t, centers[t], reached)
        pieces = [sorted(_territory_search(lists, owner, t, s, reached))
                  for s in starts[t] if s not in reached]
        pieces.sort()       # disjoint sorted lists: by smallest member
        for piece in pieces:
            remaining = set(piece)
            frontier = [v for v in piece
                        if any(w not in remaining for w in lists[v])]
            while remaining:
                if not frontier:
                    raise InternalError(
                        "orphan component with no external neighbor")
                v = frontier.pop(int(rng.integers(len(frontier))))
                options = sorted({owner[w] for w in lists[v]
                                  if w not in remaining})
                moved.setdefault(v, t)
                owner[v] = options[int(rng.integers(len(options)))]
                remaining.remove(v)
                for w in lists[v]:
                    if w in remaining:
                        sorted_insert(frontier, w)


def _territory_search(lists, owner, t, start: int, reached: set) -> list:
    """Breadth-first search from ``start`` through the nodes ``owner`` puts
    in ``t`` that are not in ``reached``: the nodes found, ``start`` first,
    which join ``reached``.  ``owner`` is an owner list, or a
    :func:`_membership` map with ``t`` True."""
    reached.add(start)
    found = [start]
    for u in found:         # the list grows while it is read: a FIFO queue
        for v in lists[u]:
            if v not in reached and owner[v] == t:
                reached.add(v)
                found.append(v)
    return found


def sorted_insert(items: list, x) -> None:
    """Add ``x`` to the sorted list ``items`` unless it is there already."""
    i = bisect_left(items, x)
    if i == len(items) or items[i] != x:
        items.insert(i, x)


def sorted_remove(items: list, x) -> None:
    """Take ``x`` out of the sorted list ``items`` if it is there."""
    i = bisect_left(items, x)
    if i < len(items) and items[i] == x:
        del items[i]


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationResult:
    """Per-constraint report.  Center and contiguity breaches are hard
    (feasibility); balance-band breaches are soft (they feed the objective)."""

    unique_assignment: bool
    centers_ok: bool
    contiguity_ok: bool
    band_ok: bool
    hard_violations: list = field(default_factory=list)
    soft_violations: list = field(default_factory=list)

    @property
    def hard_ok(self) -> bool:
        return self.unique_assignment and self.centers_ok and self.contiguity_ok


def validate_plan(plan: Plan, graph: ContiguityGraph, tau: float,
                  level: str = "ES") -> ValidationResult:
    """Check unique assignment, center fixity, per-territory contiguity and
    the soft balance band ``(1-tau)*cap_i <= pop_i <= (1+tau)*cap_i``."""
    if not tau >= 0:
        raise ValueError("tau must be non-negative")
    k = plan.territory_count
    if k == 0:
        raise InstanceError("plan has no territories")
    hard, soft = [], []

    a = plan.assignment
    unique_ok = True
    if len(a) != graph.node_count:
        unique_ok = False
        hard.append("assignment length does not match node count")
    elif a.min() < 0 or a.max() >= k:
        unique_ok = False
        hard.append("assignment refers to a nonexistent territory")

    centers_ok = True
    n = graph.node_count
    for i, c in enumerate(plan.centers.tolist()):
        if not 0 <= c < n:
            centers_ok = False
            hard.append(f"center {c} of territory {i} is not a node of "
                        f"0..{n - 1}")
        elif unique_ok and a[c] != i:
            centers_ok = False
            hard.append(f"center moved: node {c} not in territory {i}")

    contiguity_ok = True
    if unique_ok:
        for i in split_territories(graph, a, k):
            contiguity_ok = False
            hard.append(f"territory {i} is "
                        + ("disconnected" if (a == i).any() else "empty"))

    band_ok = True
    if unique_ok:
        pop = np.bincount(a, weights=graph.population[level], minlength=k)
        cap = np.bincount(a, weights=graph.capacity[level], minlength=k)
        lo, hi = (1.0 - tau) * cap, (1.0 + tau) * cap
        for i in range(k):
            if not lo[i] <= pop[i] <= hi[i]:
                band_ok = False
                soft.append(
                    f"territory {i}: population {pop[i]:.0f} outside "
                    f"[{lo[i]:.1f}, {hi[i]:.1f}]")

    return ValidationResult(unique_ok, centers_ok, contiguity_ok, band_ok,
                            hard, soft)


def assert_hard_feasible(plan: Plan, instance,
                         context: str = "accepted move broke feasibility"
                         ) -> None:
    """Raise :class:`InternalError`, prefixed by ``context``, when ``plan``
    breaks a hard constraint of ``instance``."""
    # hard_ok does not read the soft balance band, so any tau will do
    result = validate_plan(plan, instance.graph, 0.0, instance.level)
    if not result.hard_ok:
        raise InternalError(f"{context}: " + "; ".join(result.hard_violations))
