"""Population initialization: seed each territory at its center, then grow
territories by randomized frontier expansion until every unit is assigned.

Growth deliberately ignores solution quality; the improvement operators in
:mod:`districter.local_search` and :mod:`districter.memetic` carry that load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InternalError
from .graph import Plan, repair

UNASSIGNED = -1


@dataclass
class Population:
    """A set of trial plans."""

    members: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)


def seed_plan(instance) -> np.ndarray:
    """Partial assignment with each center claimed by its own territory and
    every other node unassigned."""
    a = np.full(instance.node_count, UNASSIGNED, dtype=np.int64)
    a[instance.centers] = np.arange(instance.territory_count)
    return a


def guided_growth(partial: np.ndarray, instance, rng: np.random.Generator) -> Plan:
    """Complete a seeded partial assignment into a feasible plan.

    Each step picks a territory uniformly at random among those with at least
    one unassigned neighbor (territories with an empty frontier are skipped
    for that draw) and assigns one uniformly chosen frontier node to it.
    Territories only ever gain nodes adjacent to them, so every territory
    stays connected and the result satisfies all hard constraints.
    """
    a = partial.copy()
    eu, ev = instance.graph.edges[:, 0], instance.graph.edges[:, 1]
    remaining = int(np.count_nonzero(a == UNASSIGNED))
    while remaining:
        au, av = a[eu], a[ev]
        grow_v = (au != UNASSIGNED) & (av == UNASSIGNED)
        grow_u = (av != UNASSIGNED) & (au == UNASSIGNED)
        terr = np.concatenate([au[grow_v], av[grow_u]])
        node = np.concatenate([ev[grow_v], eu[grow_u]])
        if terr.size == 0:
            # impossible on a connected graph; signals graph corruption
            raise InternalError("unassigned nodes unreachable from any territory")
        t = int(rng.choice(np.unique(terr)))
        v = int(rng.choice(np.unique(node[terr == t])))
        a[v] = t
        remaining -= 1
    return Plan(a, instance.centers)


def init_population(instance, population_size: int, rng: np.random.Generator,
                    warm_start: Plan | None = None) -> Population:
    """Build the initial population.

    Without a warm start every member is an independent seed-and-grow plan,
    each on its own random substream so serial and worker-parallel
    construction agree.  With a warm start all members replicate the
    (repaired) warm plan.
    """
    if population_size < 1:
        raise ConfigError("population size must be at least 1")
    if warm_start is not None:
        base = repair(warm_start, instance, rng)
        members = [base.copy() for _ in range(population_size)]
        return Population(members=members)
    streams = rng.spawn(population_size)
    members = [guided_growth(seed_plan(instance), instance, stream)
               for stream in streams]
    return Population(members=members)
