"""Population initialization: seed each territory at its center, then grow
territories by randomized frontier expansion until every unit is assigned.
Each territory keeps its frontier (the unassigned nodes next to it) as a
sorted list that an assignment updates in O(deg v) ``bisect`` steps, so
growing a plan costs no rescan of the graph's edges and no sort.

Growth deliberately ignores solution quality; the improvement operators in
:mod:`districter.local_search` and :mod:`districter.memetic` carry that load.
"""

from __future__ import annotations

import numpy as np

from .draws import Span
from .errors import ConfigError, InternalError
from .graph import Plan, repair, sorted_insert, sorted_remove

UNASSIGNED = -1


def guided_growth(instance, rng: np.random.Generator) -> Plan:
    """Grow a feasible plan of ``instance``, each territory from its center.

    Each step picks a territory uniformly at random among those with at least
    one unassigned neighbor (territories with an empty frontier are skipped
    for that draw) and assigns one uniformly chosen frontier node to it.
    Territories only ever gain nodes adjacent to them, so every territory
    stays connected and the result satisfies all hard constraints.

    Each territory's frontier, and the list of territories whose frontier
    is not empty, are sorted lists updated as nodes are assigned, so a step
    costs O(deg v) ``bisect`` inserts and deletes.  Both draws are a uniform
    index into a sorted list, the draw ``rng.choice(np.array(seq))`` makes,
    replayed by one :class:`~districter.draws.Span` for the whole plan.
    """
    lists = instance.graph.neighbor_lists
    owner = [UNASSIGNED] * instance.node_count
    centers = instance.centers.tolist()
    for t, c in enumerate(centers):
        owner[c] = t
    # a neighbour list is sorted, so each frontier is too
    frontiers = [[w for w in lists[c] if owner[w] == UNASSIGNED]
                 for c in centers]
    live = [t for t, frontier in enumerate(frontiers) if frontier]
    remaining = len(owner) - len(centers)
    with Span(rng) as draws:
        integers = draws.integers
        while remaining:
            if not live:
                # impossible on a connected graph; signals graph corruption
                raise InternalError(
                    "unassigned nodes unreachable from any territory")
            t = live[integers(len(live))]
            frontier = frontiers[t]
            v = frontier[integers(len(frontier))]
            owner[v] = t
            for w in lists[v]:
                u = owner[w]
                if u == UNASSIGNED:
                    sorted_insert(frontier, w)
                else:
                    sorted_remove(frontiers[u], v)
                    # only t's frontier gains nodes, so another one that
                    # empties stays empty
                    if u != t and not frontiers[u]:
                        sorted_remove(live, u)
            if not frontier:
                sorted_remove(live, t)
            remaining -= 1
    return Plan(np.array(owner, dtype=np.int64), instance.centers)


def init_population(instance, population_size: int, rng: np.random.Generator,
                    warm_start: Plan | None = None) -> list:
    """Build the initial population: a list of ``population_size`` plans.

    Without a warm start every member is an independent seed-and-grow plan,
    each on its own substream of ``rng``; drawing from ``rng`` directly
    would move every pinned seeded output.  With a warm start all members
    replicate the (repaired) warm plan.
    """
    if population_size < 1:
        raise ConfigError("population size must be at least 1")
    if warm_start is not None:
        base = repair(warm_start, instance, rng)
        return [base.copy() for _ in range(population_size)]
    return [guided_growth(instance, stream)
            for stream in rng.spawn(population_size)]
