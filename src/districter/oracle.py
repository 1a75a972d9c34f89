"""Exhaustive enumeration of feasible plans on tiny instances.

The enumerator is the independent ground truth the stochastic solvers are
checked against: it assigns the non-center nodes depth-first, drops every
partial assignment no completion can make contiguous, and scores each
feasible plan with the same objective the solvers use.  Cost grows as
K^(N-K) at worst; instances beyond ``MAX_NODES`` nodes, or ``MAX_STATES``
assignments, are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Plan
from .objective import objective_value

MAX_NODES = 16
MAX_STATES = 2 ** 22


@dataclass
class OracleResult:
    best_j: float
    best_plan: Plan
    feasible_count: int


def enumerate_feasible_plans(instance):
    """Yield every hard-feasible plan, in lexicographic assignment order.

    The free nodes are assigned depth-first in index order, each to the
    territories in ascending order, so plans come in the order of the
    assignments of ``itertools.product``.  A prefix is dropped once one of
    its assigned nodes cannot reach its center through nodes of its own
    territory or not yet assigned: no completion of it connects that
    territory.  A full assignment that passes this test is feasible."""
    n = instance.node_count
    k = instance.territory_count
    if n > MAX_NODES:
        raise ConfigError(
            f"exhaustive enumeration refused: {n} nodes exceeds the "
            f"{MAX_NODES}-node bound")
    free = np.setdiff1d(np.arange(n), instance.centers).tolist()
    states = k ** len(free)
    if states > MAX_STATES:
        raise ConfigError(
            f"exhaustive enumeration refused: {states} assignments to test")
    lists = instance.graph.neighbor_lists
    centers = instance.centers.tolist()
    owner = [-1] * n            # -1: not yet assigned
    for t, c in enumerate(centers):
        owner[c] = t

    def viable() -> bool:
        for t, c in enumerate(centers):
            reached = {c}
            queue = [c]
            for u in queue:
                for w in lists[u]:
                    if w not in reached and owner[w] in (t, -1):
                        reached.add(w)
                        queue.append(w)
            if any(t == owner[u] and u not in reached for u in range(n)):
                return False
        return True

    def extend(depth: int):
        if depth == len(free):
            yield Plan(np.array(owner, dtype=np.int64),
                       instance.centers.copy())
            return
        v = free[depth]
        for t in range(k):
            owner[v] = t
            if viable():
                yield from extend(depth + 1)
        owner[v] = -1

    yield from extend(0)


def exhaustive_optimum(instance) -> OracleResult:
    """Optimal objective over all feasible plans (first optimum wins ties,
    so the result is deterministic)."""
    best_j = np.inf
    best_plan = None
    count = 0
    for plan in enumerate_feasible_plans(instance):
        count += 1
        j = objective_value(plan, instance)
        if j < best_j:
            best_j, best_plan = j, plan
    if best_plan is None:
        raise ConfigError("instance admits no feasible plan")
    return OracleResult(best_j=float(best_j), best_plan=best_plan,
                        feasible_count=count)
