"""Spatially-aware recombination and the full population-based solver loop.

Recombination steers one plan toward a fitter mate by swapping a single node
into and out of a shared territory.  The swap may break contiguity; repair
(:func:`districter.graph.repair_owner`) then re-feasibilizes the plan, which
can land it several flips away from the parent: the controlled exploration
that pure local search lacks.

Each member of the population is a :class:`~districter.local_search.Walk`
that lives for the whole run and is built once.  Recombination works on the
members' walks: the node sets come off their boundary lists, the swap's two
donors are checked with :func:`~districter.graph.stays_connected_without`,
and only broken ones are repaired.  The swap and the repair are written into
the child walk's own owner list and written back afterwards, as
:func:`~districter.local_search.apply_flip` writes its moves, so nothing
beyond the pass that finds the eligible territories copies or scans the
whole plan.  The candidate is the list of reassignments: a batch of flips.
:func:`~districter.local_search.apply_flip` scores it on the child's sums as
it scores a single flip, and a kept candidate is made in the member's walk
by :meth:`~districter.local_search.Walk.commit` once every member has had
its turn.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .draws import roulette, roulette_wheel
from .errors import ConfigError
from .graph import Plan, repair_owner, stays_connected_without
# re-exported: perfbench times the public repair as the layer memetic.repair
from .graph import repair  # noqa: F401
from .growth import init_population
from .local_search import (FlipProposal, Walk, apply_flip,
                           local_improvement_pass)
from .objective import fitness


@dataclass
class MemeticConfig:
    """Settings of :func:`spatial_run`: one field per setting it or its
    local pass (:func:`~districter.local_search.local_improvement_pass`)
    reads."""

    population_size: int = 10
    iterations: int = 1000
    worse_accept_prob: float = 0.01     # local pass: keep an inferior flip
    local_search: bool = True           # ablation switches
    recombination: bool = True

    def __post_init__(self):
        if self.population_size < 1 or self.iterations < 0:
            raise ConfigError("population size must be >= 1 and iterations >= 0")
        if not 0.0 <= self.worse_accept_prob < 1.0:
            raise ConfigError("worse_accept_prob must lie in [0, 1)")
        if self.recombination and self.population_size < 2:
            raise ConfigError("recombination needs a population of at least 2")


class SwapMove(NamedTuple):
    territory: int
    incoming: int
    outgoing: int


def mate_wheel(fitnesses) -> list:
    """The roulette wheel of :func:`select_mate` for a population's
    fitnesses (:func:`~districter.draws.roulette_wheel`), built once for
    all of an iteration's picks."""
    weights = [float(w) for w in fitnesses]
    if len(weights) < 2:
        raise ConfigError("mate selection needs at least two members")
    if not all(0.0 < w < math.inf for w in weights):
        raise ConfigError("mate selection needs finite positive weights")
    return roulette_wheel(weights)


def select_mate(wheel: list, rng: np.random.Generator) -> int:
    """Roulette-wheel index proportional to fitness, on a
    :func:`mate_wheel`.  The selected mate may equal the child itself, in
    which case recombination degenerates to a no-op rather than distorting
    the selection pressure.

    The pick is :func:`~districter.draws.roulette`'s, the one
    ``rng.choice(n, p=w / w.sum())`` makes from the same generator state."""
    return roulette(wheel, rng)


def recombine(child: Walk, guide: Walk, rng: np.random.Generator
              ) -> tuple[list, SwapMove | None]:
    """Swap one node into and one out of a territory the child shares with
    the guide, repairing any broken territory afterward.

    Eligible territories differ between the two plans in both directions
    (they always share at least the center).  The incoming node comes from
    the guide's version and must touch the child's; the outgoing node leaves
    the child's version, must touch the guide's, and is adopted by an
    adjacent territory so the assignment stays total.  An eligible territory
    has nodes of both kinds, as each version is connected around the shared
    center.  Both node sets are read off the boundary lists of the two
    walks, which never hold a center.

    Returns the swap and the reassignments that turn the child's plan into
    the new hard-feasible plan, as a list of
    :class:`~districter.local_search.FlipProposal` made in turn: the
    incoming node, the outgoing node, then repair's, ascending by node,
    each from the node's owner after the swap to its owner after repair
    (the change a node that repair moves twice makes in all).  Returns
    ``([], None)`` when no applicable swap exists.  Neither walk changes:
    the child's ``owner`` holds the swap while its donors are checked and
    repaired (:func:`~districter.graph.repair_owner`), and the swap and
    repair's moves are written back on the way out, also when a draw
    raises.
    """
    if child.centers != guide.centers:
        raise ConfigError("parents must share the same centers")
    a_child = child.plan.assignment
    a_guide = guide.plan.assignment
    k = child.territory_count

    # t is eligible when each plan puts in t a node the other does not
    differ = a_child != a_guide
    eligible = np.flatnonzero(np.bincount(a_child[differ], minlength=k)
                              * np.bincount(a_guide[differ], minlength=k)
                              ).tolist()

    graph = child.instance.graph
    lists, owner = graph.neighbor_lists, child.owner
    for i in rng.permutation(len(eligible)).tolist():
        t = eligible[i]
        touches_child = _touching(child, t, guide.owner)    # guide-only
        touches_guide = _touching(guide, t, child.owner)    # child-only
        incoming = touches_child[int(rng.integers(len(touches_child)))]
        for j in rng.permutation(len(touches_guide)).tolist():
            outgoing = touches_guide[j]
            # the incoming node, which joins t first, is no destination
            destinations = sorted({owner[w] for w in lists[outgoing]
                                   if w != incoming} - {t})
            if destinations:
                break
        else:
            continue
        destination = destinations[int(rng.integers(len(destinations)))]
        source = owner[incoming]
        moved: dict = {}    # node -> its owner before repair first moved it
        owner[incoming] = t
        try:
            # only the swap's donors can split: t, which the outgoing node
            # leaves once the incoming one has joined it, and the source,
            # which the incoming node leaves once the outgoing one has gone
            # (to the source itself, perhaps); the destination gains a node
            # next to it.  A broken donor's pieces each hold a territory
            # neighbour of the node it lost
            starts = {}
            if not stays_connected_without(graph, owner, outgoing):
                starts[t] = [w for w in lists[outgoing] if owner[w] == t]
            owner[incoming], owner[outgoing] = source, destination
            if not stays_connected_without(graph, owner, incoming):
                starts[source] = [w for w in lists[incoming]
                                  if owner[w] == source]
            owner[incoming] = t
            repair_owner(graph, owner, child.centers, rng, starts, moved)
            moves = [FlipProposal(incoming, source, t),
                     FlipProposal(outgoing, t, destination)]
            moves += [FlipProposal(v, moved[v], owner[v])
                      for v in sorted(moved) if owner[v] != moved[v]]
            return moves, SwapMove(t, incoming, outgoing)
        finally:
            for v, before in moved.items():
                owner[v] = before
            owner[incoming], owner[outgoing] = source, t
    return [], None


def _touching(walk: Walk, t: int, other_owner: list) -> list:
    """The nodes outside ``t`` in ``walk`` other than centers that touch
    ``t`` and lie in ``t`` by ``other_owner``, ascending."""
    return sorted(v for d, cuts in enumerate(walk.pair_cuts[t]) if cuts
                  for v in walk.boundary(d, t) if other_owner[v] == t)


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
    splits = [0]        # the walks' searches' splits, toward the table
    walks = [Walk(plan, instance, splits)
             for plan in init_population(instance, config.population_size,
                                         rng, warm_start)]
    best_idx = int(np.argmin([w.terms[0] for w in walks]))
    best_terms = walks[best_idx].terms
    result = SpatialResult(best_plan=walks[best_idx].plan.copy(),
                           best_j=best_terms[0])
    t0 = time.perf_counter()

    for iteration in range(1, config.iterations + 1):
        if config.local_search:
            outcome = local_improvement_pass(walks, config.worse_accept_prob,
                                             rng)
            result.accepted_flips += outcome.accepted_flips

        if config.recombination:
            # a kept candidate is committed only after every member's turn,
            # so each mate is read as it was before recombination
            wheel = mate_wheel(fitness(w.terms[0]) for w in walks)
            kept = []
            for walk in walks:
                mate = select_mate(wheel, rng)
                moves, swap = recombine(walk, walks[mate], rng)
                if swap is None:
                    continue
                candidate = apply_flip(walk, *moves)
                if candidate.terms[0] <= walk.terms[0]:
                    kept.append((walk, candidate))
            for walk, candidate in kept:
                walk.commit(candidate)
            result.accepted_recombinations += len(kept)

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
