"""Contiguity graph and plan representation, and the one home of
connectivity: one breadth-first traversal over the graph's neighbour lists
(:func:`_component`) answers :func:`is_connected` and
:func:`connected_components`, and :func:`repair` (which restores contiguity)
and :func:`validate_plan` build on those queries.  A flip walk asks the
narrower :func:`stays_connected_without`: one search grows from each of the
flipped node's territory neighbours in turn, so the answer "connected" comes
once they have met and "split" once one piece is used up, at the cost of the
smaller piece.

The graph is immutable after construction and safe to share across workers.
A :class:`Plan` is a value object: algorithms copy it before mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceError, InternalError

LEVELS = ("ES", "MS", "HS")


class ContiguityGraph:
    """Planar adjacency structure over N spatial units.

    ``neighbor_lists[u]`` is the sorted list of ``u``'s neighbours, which
    :meth:`neighbors` returns and the traversal walks; ``edges`` holds each
    edge once as ``(u, v)`` with ``u < v``, in lexicographic order.

    Parameters
    ----------
    adjacency:
        Sequence of neighbor lists; must be symmetric and without self-loops.
        The graph must be connected.
    population, capacity:
        Optional dicts mapping a school level ("ES"/"MS"/"HS") to a length-N
        non-negative integer array.  Missing levels default to zeros.
    centroids:
        Optional (N, 2) coordinates of unit centroids.
    polygons:
        Optional list of N boundary :class:`~districter.geometry.Polygon`.
    """

    def __init__(self, adjacency, *, population=None, capacity=None,
                 centroids=None, polygons=None):
        n = len(adjacency)
        if n < 1:
            raise InstanceError("graph needs at least one node")
        neigh = tuple(sorted({int(v) for v in a}) for a in adjacency)
        sets = [set(nb) for nb in neigh]
        for u, nb in enumerate(neigh):
            for v in nb:
                if not 0 <= v < n:
                    raise InstanceError(f"neighbor {v} of node {u} out of range")
                if v == u:
                    raise InstanceError(f"self-loop at node {u}")
                if u not in sets[v]:
                    raise InstanceError(f"adjacency not symmetric: {u}->{v}")

        self.node_count = n
        self.neighbor_lists = neigh
        edges = [(u, v) for u, nb in enumerate(neigh) for v in nb if u < v]
        self.edges = np.array(edges, dtype=np.int64).reshape(-1, 2)

        self.population = self._feature_dict(population, n, "population")
        self.capacity = self._feature_dict(capacity, n, "capacity")
        self.centroids = (np.zeros((n, 2)) if centroids is None
                          else np.asarray(centroids, dtype=float).reshape(n, 2))
        self.polygons = list(polygons) if polygons is not None else None
        if self.polygons is not None and len(self.polygons) != n:
            raise InstanceError("polygons must have one entry per node")

        if not is_connected(self, range(n)):
            raise InstanceError("contiguity graph is disconnected")

    @staticmethod
    def _feature_dict(values, n, name):
        out = {}
        values = values or {}
        for level in LEVELS:
            arr = np.asarray(values.get(level, np.zeros(n, dtype=np.int64)),
                             dtype=np.int64)
            if arr.shape != (n,):
                raise InstanceError(f"{name}[{level}] must have length {n}")
            if np.any(arr < 0):
                raise InstanceError(f"{name}[{level}] must be non-negative")
            out[level] = arr
        return out

    def neighbors(self, u: int) -> list:
        return self.neighbor_lists[u]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass
class Plan:
    """Assignment of every node to one of K territories, each anchored by a
    fixed center node (territory i always contains ``centers[i]``)."""

    assignment: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.centers = np.asarray(self.centers, dtype=np.int64)
        if self.assignment.ndim != 1 or self.centers.ndim != 1:
            raise InstanceError("assignment and centers must be 1-D")
        if len(np.unique(self.centers)) != len(self.centers):
            raise InstanceError("centers must be distinct")

    @property
    def territory_count(self) -> int:
        return len(self.centers)

    def territory(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.territory_count)

    def copy(self) -> "Plan":
        return Plan(self.assignment.copy(), self.centers.copy())

    def key(self) -> bytes:
        """Hashable state identifier: the assignment packed into the
        narrowest unsigned integer that holds K-1 (one byte per node for
        K <= 256, two for K <= 65,536), so it is exact, with no collisions.
        Keys compare only plans with the same centers, as every plan of one
        instance has."""
        width = np.min_scalar_type(max(self.territory_count - 1, 0))
        return self.assignment.astype(width).tobytes()


def plans_equal(a: Plan, b: Plan) -> bool:
    return (np.array_equal(a.assignment, b.assignment)
            and np.array_equal(a.centers, b.centers))


# ---------------------------------------------------------------------------
# Connectivity: one traversal, the queries on it, and repair
# ---------------------------------------------------------------------------

def _node_set(nodes) -> set:
    return set(nodes.tolist() if isinstance(nodes, np.ndarray)
               else map(int, nodes))


def _component(graph: ContiguityGraph, members: set, start: int) -> list:
    """Breadth-first search from ``start`` through ``members``: the nodes
    reached, ``start`` first.  They are removed from ``members``, so what is
    left afterwards lies in other components."""
    members.discard(start)
    reached = [start]
    lists = graph.neighbor_lists
    for u in reached:       # the list grows while it is read: a FIFO queue
        for v in lists[u]:
            if v in members:
                members.remove(v)
                reached.append(v)
    return reached


def is_connected(graph: ContiguityGraph, nodes) -> bool:
    """Connectivity of the induced subgraph.

    The empty set is NOT connected (an emptied territory is a hard violation);
    a singleton is.
    """
    members = _node_set(nodes)
    if not members:
        return False
    _component(graph, members, next(iter(members)))
    return not members


def stays_connected_without(graph: ContiguityGraph, owner: list, node: int
                            ) -> bool:
    """Whether the territory of ``node``, connected as it is, stays connected
    and non-empty once ``node`` leaves it; ``owner[u]`` is u's territory.

    Every other member reaches ``node`` through one of its territory
    neighbours, so the territory stays connected exactly when those
    neighbours reach each other without ``node``.  Neighbours adjacent to
    each other are linked at once.  Otherwise one breadth-first search grows
    from each neighbour, a node at a time in turn, and searches that meet
    join one group.  The answer is "connected" when a single group is left,
    and "split" as soon as every search of one group has run out: that group
    has then found a whole piece without the others.  So a split costs about
    the size of its smaller piece, not of the whole territory (the lockstep
    trick of Even & Shiloach's dynamic connectivity, J. ACM 1981).  On a
    planar map the cyclic order of the neighbours would answer in O(deg v)
    (King, Jacobson, Sewell & Cho's geo-graphs, Operations Research 60(5),
    2012); this search needs no geometry.
    """
    lists = graph.neighbor_lists
    t = owner[node]
    starts = [w for w in lists[node] if owner[w] == t]
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
                group = _joined(group, i, j)
    label = dict(zip(starts, range(m)))     # node -> search that found it
    label[node] = -1
    queues = [[s] for s in starts]  # pop(0) is cheap: a frontier is short
    while True:
        for i in range(m):
            queue = queues[i]
            if not queue:
                continue
            for w in lists[queue.pop(0)]:
                if owner[w] == t:
                    j = label.get(w)
                    if j is None:
                        label[w] = i
                        queue.append(w)
                    elif j >= 0 and group[j] != group[i]:
                        groups -= 1
                        if groups == 1:
                            return True
                        group = _joined(group, i, j)
            if not queue:
                g = group[i]
                if all(not queues[x] for x in range(m) if group[x] == g):
                    return False


def _joined(group: list, i: int, j: int) -> list:
    """``group`` with the group of search ``j`` merged into that of ``i``."""
    old, new = group[j], group[i]
    return [new if g == old else g for g in group]


def connected_components(graph: ContiguityGraph, nodes) -> list[np.ndarray]:
    """Maximal connected components of the induced subgraph, ordered by their
    smallest member for reproducibility.  Each component array is sorted."""
    members = _node_set(nodes)
    components = []
    for s in sorted(members):   # so components come out by smallest member
        if s in members:
            comp = _component(graph, members, s)
            components.append(np.array(sorted(comp), dtype=np.int64))
    return components


def repair(plan: Plan, instance, rng: np.random.Generator) -> Plan:
    """Make every territory connected again.

    Each disconnected territory keeps the component containing its center;
    the other components are dismantled node by node from their frontier
    inward, each node joining a uniformly chosen adjacent territory (which
    stays connected, since the node is adjacent to it).  Repairing a feasible
    plan returns it unchanged.
    """
    graph = instance.graph
    a = plan.assignment.copy()
    for t in range(plan.territory_count):
        members = np.flatnonzero(a == t)
        if members.size == 0:
            raise InternalError(f"territory {t} lost its center")
        comps = connected_components(graph, members)
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
                    if any(a[w] != t for w in graph.neighbors(v)
                           if w not in remaining))
                if not frontier:
                    raise InternalError(
                        "orphan component with no external neighbor")
                v = int(rng.choice(frontier))
                options = np.unique(
                    [a[w] for w in graph.neighbors(v)
                     if w not in remaining and a[w] != t])
                a[v] = int(rng.choice(options))
                remaining.remove(v)
    return Plan(a, plan.centers.copy())


def neighbors_of_territory(plan: Plan, graph: ContiguityGraph, i: int) -> np.ndarray:
    """All nodes outside territory ``i`` adjacent to at least one of its nodes."""
    if not 0 <= i < plan.territory_count:
        raise IndexError(f"territory index {i} out of range")
    a = plan.assignment
    eu, ev = graph.edges[:, 0], graph.edges[:, 1]
    in_u, in_v = a[eu] == i, a[ev] == i
    out = np.concatenate([ev[in_u & ~in_v], eu[in_v & ~in_u]])
    return np.unique(out)


def cut_edges(plan: Plan, graph: ContiguityGraph) -> int:
    """Number of edges whose endpoints lie in different territories."""
    a = plan.assignment
    return int(np.count_nonzero(a[graph.edges[:, 0]] != a[graph.edges[:, 1]]))


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

    @property
    def ok(self) -> bool:
        return self.hard_ok and self.band_ok


def validate_plan(plan: Plan, graph: ContiguityGraph, tau: float,
                  level: str = "ES") -> ValidationResult:
    """Check unique assignment, center fixity, per-territory contiguity and
    the soft balance band ``(1-tau)*cap_i <= pop_i <= (1+tau)*cap_i``."""
    if tau < 0:
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
    if unique_ok:
        for i, c in enumerate(plan.centers):
            if a[c] != i:
                centers_ok = False
                hard.append(f"center moved: node {int(c)} not in territory {i}")

    contiguity_ok = True
    if unique_ok:
        for i in range(k):
            members = plan.territory(i)
            if members.size == 0:
                contiguity_ok = False
                hard.append(f"territory {i} is empty")
            elif not is_connected(graph, members):
                contiguity_ok = False
                hard.append(f"territory {i} is disconnected")

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
    result = validate_plan(plan, instance.graph,
                           instance.objective_config.balance_band,
                           instance.level)
    if not result.hard_ok:
        raise InternalError(f"{context}: " + "; ".join(result.hard_violations))
