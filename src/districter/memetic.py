"""Spatially-aware recombination and the full population-based solver loop.

Recombination steers one plan toward a fitter mate by swapping a single node
into and out of a shared territory.  The swap may break contiguity;
:func:`districter.graph.repair` then re-feasibilizes the plan, which can land
it several flips away from the parent: the controlled exploration that pure
local search lacks.

Each member of the population is a :class:`~districter.local_search.Walk`
that lives for the whole run: the local pass commits its flips into it, and
it is built again only when a recombination candidate replaces the member,
from the territory sums the candidate was scored with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graph import (Plan, assert_hard_feasible, is_connected,
                    neighbors_of_territory, repair)
from .growth import init_population
from .local_search import SearchConfig, Walk, local_improvement_pass
from .objective import fitness, objective_terms, territory_sums


@dataclass
class MemeticConfig:
    """Solver-level settings; per-move behavior lives in ``search``."""

    population_size: int = 10
    iterations: int = 1000
    search: SearchConfig = field(default_factory=SearchConfig)
    local_search: bool = True       # ablation switches
    recombination: bool = True

    def __post_init__(self):
        if self.population_size < 1 or self.iterations < 0:
            raise ConfigError("population size must be >= 1 and iterations >= 0")
        if self.recombination and self.population_size < 2:
            raise ConfigError("recombination needs a population of at least 2")


class SwapMove(NamedTuple):
    territory: int
    incoming: int
    outgoing: int


def select_mate(fitnesses, rng: np.random.Generator) -> int:
    """Roulette-wheel index proportional to fitness.  The selected mate may
    equal the child itself, in which case recombination degenerates to a
    no-op rather than distorting the selection pressure."""
    weights = np.asarray(fitnesses, dtype=float)
    if len(weights) < 2:
        raise ConfigError("mate selection needs at least two members")
    return int(rng.choice(len(weights), p=weights / weights.sum()))


def recombine(child_from: Plan, guide: Plan, instance,
              rng: np.random.Generator) -> tuple[Plan, SwapMove | None]:
    """Swap one node into and one out of a territory the child shares with
    the guide, repairing any broken territory afterward.

    Eligible territories differ between the two plans in both directions
    (they always share at least the center).  The incoming node comes from
    the guide's version and must touch the child's; the outgoing node leaves
    the child's version and is adopted by an adjacent territory so the
    assignment stays total.  Returns the new hard-feasible plan and the swap,
    or ``(child unchanged, None)`` when no applicable swap exists.
    """
    if not np.array_equal(child_from.centers, guide.centers):
        raise ConfigError("parents must share the same centers")
    graph = instance.graph
    a_child = child_from.assignment
    a_guide = guide.assignment
    k = child_from.territory_count

    both = a_child == a_guide
    inter = np.bincount(a_child[both], minlength=k)
    size_child = np.bincount(a_child, minlength=k)
    size_guide = np.bincount(a_guide, minlength=k)
    eligible = np.flatnonzero((inter > 0)
                              & (inter < np.minimum(size_child, size_guide)))
    if eligible.size == 0:
        return child_from, None

    for t in rng.permutation(eligible):
        t = int(t)
        # guide-only nodes touching the child's territory
        touches_child = neighbors_of_territory(child_from, graph, t)
        touches_child = touches_child[a_guide[touches_child] == t]
        # child-only nodes touching the guide's territory
        touches_guide = neighbors_of_territory(guide, graph, t)
        touches_guide = touches_guide[a_child[touches_guide] == t]
        # centers never move (guaranteed for hard-feasible parents)
        touches_child = touches_child[~np.isin(touches_child, child_from.centers)]
        touches_guide = touches_guide[~np.isin(touches_guide, child_from.centers)]
        if not touches_child.size or not touches_guide.size:
            continue
        incoming = int(rng.choice(touches_child))
        a_new = a_child.copy()
        a_new[incoming] = t
        outgoing = None
        for u in rng.permutation(touches_guide):
            u = int(u)
            destinations = np.unique(a_new[graph.neighbors(u)])
            destinations = destinations[destinations != t]
            if destinations.size:
                outgoing = u
                a_new[u] = int(rng.choice(destinations))
                break
        if outgoing is None:
            continue
        plan = Plan(a_new, child_from.centers.copy())
        touched = {t, int(a_child[incoming]), int(a_new[outgoing])}
        if any(not is_connected(graph, plan.territory(i)) for i in touched):
            plan = repair(plan, instance, rng)
        return plan, SwapMove(t, incoming, outgoing)
    return child_from, None


# ---------------------------------------------------------------------------
# The full solver loop
# ---------------------------------------------------------------------------

SPATIAL_TRACE_HEADER = ("iteration", "best_j", "mean_j", "best_balance",
                        "best_compactness", "wall_ms")


@dataclass
class SpatialResult:
    best_plan: Plan
    best_j: float
    trace: list = field(default_factory=list)
    accepted_flips: int = 0
    accepted_recombinations: int = 0


def spatial_run(instance, config: MemeticConfig, rng: np.random.Generator,
                warm_start: Plan | None = None) -> SpatialResult:
    """Alternate local improvement and recombination over a population.

    Each outer iteration first gives every member one accepted flip (when one
    exists), then builds one recombination candidate per member against a
    snapshot of the population, replacing the member only when the candidate
    is at least as good.  The returned best plan is the best ever seen, so
    its objective trace is non-increasing even when the inferior-acceptance
    probability lets individual members worsen.
    """
    debug_validate = config.search.debug_validate
    walks = [Walk(plan, instance, debug_validate)
             for plan in init_population(instance, config.population_size,
                                         rng, warm_start)]
    best_idx = int(np.argmin([w.terms[0] for w in walks]))
    best_terms = walks[best_idx].terms
    result = SpatialResult(best_plan=walks[best_idx].plan.copy(),
                           best_j=best_terms[0])
    t0 = time.perf_counter()

    for iteration in range(1, config.iterations + 1):
        if config.local_search:
            outcome = local_improvement_pass(walks, config.search, rng)
            result.accepted_flips += outcome.accepted_flips

        if config.recombination and len(walks) >= 2:
            # replaced walks are new objects, so these plans stay as they
            # were before recombination for every later mate
            snapshot = [w.plan for w in walks]
            weights = [fitness(w.terms[0]) for w in walks]
            for i in range(len(snapshot)):
                mate = select_mate(weights, rng)
                candidate, move = recombine(snapshot[i], snapshot[mate],
                                            instance, rng)
                if move is None:
                    continue
                sums = territory_sums(candidate, instance)
                if objective_terms(sums, instance)[0] <= walks[i].terms[0]:
                    if debug_validate:
                        assert_hard_feasible(candidate, instance)
                    walks[i] = Walk(candidate, instance, debug_validate, sums)
                    result.accepted_recombinations += 1

        js = [w.terms[0] for w in walks]
        idx = int(np.argmin(js))
        if js[idx] < best_terms[0]:
            best_terms = walks[idx].terms
            result.best_plan = walks[idx].plan.copy()
            result.best_j = best_terms[0]
        wall_ms = (time.perf_counter() - t0) * 1000.0
        result.trace.append((iteration, best_terms[0], float(np.mean(js)),
                             best_terms[1], best_terms[2], wall_ms))
    return result
